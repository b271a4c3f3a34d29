import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from planact.embedder import (
    MockEmbedder,
    RemoteEmbedder,
    make_embed_server,
    serve_forever_in_thread,
)
from planact.errors import PipelineError


@pytest.fixture
def mock():
    return MockEmbedder(dim=16)


class TestMockEmbedder:
    def test_unit_norm(self, mock):
        for item in ["a caption", "another", "frame-7"]:
            assert abs(np.linalg.norm(mock.text_embed(item)) - 1.0) <= 1e-6

    def test_pure_and_stable(self, mock):
        a = mock.text_embed("open the drawer")
        b = MockEmbedder(dim=16).text_embed("open the drawer")
        np.testing.assert_array_equal(a, b)

    def test_kind_separates_streams(self, mock):
        assert not np.allclose(mock.text_embed("x"), mock.frame_embed("x"))


class TestEmbedServer:
    @pytest.fixture
    def server_url(self, mock):
        server = make_embed_server(mock, port=0)
        serve_forever_in_thread(server)
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        server.server_close()

    def test_remote_matches_mock(self, server_url, mock):
        remote = RemoteEmbedder(server_url)
        for item in ["a man is picking up a cup", "vid@1.250"]:
            np.testing.assert_allclose(remote.text_embed(item), mock.text_embed(item), atol=1e-12)
            np.testing.assert_allclose(remote.frame_embed(item), mock.frame_embed(item), atol=1e-12)

    def test_batch_post(self, server_url, mock):
        remote = RemoteEmbedder(server_url)
        vectors = remote._post("text", ["a", "b", "c"])
        assert len(vectors) == 3
        np.testing.assert_allclose(vectors[1], mock.text_embed("b"), atol=1e-12)

    def test_client_normalizes(self, server_url):
        remote = RemoteEmbedder(server_url, normalize=True)
        assert abs(np.linalg.norm(remote.text_embed("anything")) - 1.0) <= 1e-6

    def test_unreachable_service_raises_after_retries(self):
        remote = RemoteEmbedder("http://127.0.0.1:9", timeout=0.05, retries=1)
        with pytest.raises(PipelineError, match="retries"):
            remote.text_embed("x")

    def test_bad_request_rejected(self, server_url):
        request = urllib.request.Request(
            f"{server_url}/embed",
            data=json.dumps({"kind": "audio", "items": []}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=5.0)
        assert info.value.code == 400
        info.value.close()

    def test_error_status_retried_then_raises(self, server_url):
        remote = RemoteEmbedder(server_url, retries=1)
        with pytest.raises(PipelineError, match="retries.*400"):
            remote._post("audio", ["x"])


class ZeroEmbedder:
    """Stub provider whose every vector is zero."""

    def text_embed(self, text: str) -> np.ndarray:
        return np.zeros(4)

    frame_embed = text_embed


def test_zero_vector_rejected_when_normalizing():
    server = make_embed_server(ZeroEmbedder(), port=0)
    serve_forever_in_thread(server)
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        with pytest.raises(PipelineError, match="zero frame vector for 'vid@1.000'"):
            RemoteEmbedder(url, normalize=True).frame_embed("vid@1.000")
        np.testing.assert_array_equal(RemoteEmbedder(url, normalize=False).text_embed("x"), 0.0)
    finally:
        server.shutdown()
        server.server_close()
