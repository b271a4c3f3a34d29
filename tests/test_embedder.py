import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planact.embedder import MockEmbedder, RemoteEmbedder
from planact.errors import ContractError, PipelineError


@pytest.fixture
def mock():
    return MockEmbedder(dim=16)


class TestMockEmbedder:
    def test_unit_norm(self, mock):
        for v in mock.embed("text", ["a caption", "another", "frame-7"]):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-6

    def test_pure_and_stable(self, mock):
        a = mock.embed("text", ["open the drawer"])
        b = MockEmbedder(dim=16).embed("text", ["open the drawer"])
        np.testing.assert_array_equal(a, b)

    def test_kind_separates_streams(self, mock):
        assert not np.allclose(mock.embed("text", ["x"])[0], mock.embed("frame", ["x"])[0])

    def test_batch_equals_single_items(self, mock):
        items = ["a", "b", "a"]
        batch = mock.embed("frame", items)
        for item, v in zip(items, batch):
            np.testing.assert_array_equal(v, mock.embed("frame", [item])[0])

    def test_unknown_kind_rejected(self, mock):
        with pytest.raises(ContractError, match="'audio'"):
            mock.embed("audio", ["x"])


@pytest.fixture(scope="module")
def server_url(serve):
    return serve(MockEmbedder(dim=16))


class TestEmbedServer:
    def test_remote_matches_mock(self, server_url, mock):
        remote = RemoteEmbedder(server_url)
        items = ["a man is picking up a cup", "vid@1.250"]
        for kind in ("text", "frame"):
            np.testing.assert_allclose(remote.embed(kind, items), mock.embed(kind, items),
                                       atol=1e-12)

    def test_batch_post(self, server_url, mock):
        remote = RemoteEmbedder(server_url)
        vectors = remote._post("text", ["a", "b", "c"])
        assert len(vectors) == 3
        np.testing.assert_allclose(vectors[1], mock.embed("text", ["b"])[0], atol=1e-12)

    def test_client_normalizes(self, server_url):
        remote = RemoteEmbedder(server_url, normalize=True)
        assert abs(np.linalg.norm(remote.embed("text", ["anything"])[0]) - 1.0) <= 1e-6

    def test_unreachable_service_raises_after_retries(self):
        remote = RemoteEmbedder("http://127.0.0.1:9", timeout=0.05, retries=1)
        with pytest.raises(PipelineError, match="retries"):
            remote.embed("text", ["x"])

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


@given(st.sampled_from(["text", "frame"]), st.lists(st.text(), max_size=6))
def test_remote_embed_equals_mock_bit_for_bit(server_url, kind, items):
    got = RemoteEmbedder(server_url, normalize=False).embed(kind, items)
    want = MockEmbedder(dim=16).embed(kind, items)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


class FixedRows:
    """Stub provider that answers every request with the given rows, numeric or not, and
    counts requests."""

    def __init__(self, rows):
        self.rows = rows
        self.requests = 0

    def embed(self, kind, items):
        self.requests += 1
        return [np.asarray(row, dtype=object) for row in self.rows[: len(items)]]


class ZeroEmbedder(FixedRows):
    """Stub provider whose every vector is zero."""

    def __init__(self):
        super().__init__([np.zeros(4)] * 8)


def test_zero_vector_rejected_when_normalizing(serve):
    url = serve(ZeroEmbedder())
    with pytest.raises(PipelineError, match="zero frame vector for 'vid@1.000'"):
        RemoteEmbedder(url, normalize=True).embed("frame", ["vid@1.000"])
    np.testing.assert_array_equal(RemoteEmbedder(url, normalize=False).embed("text", ["x"]), 0.0)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "rows, match",
    [
        ([[1.0, 0.0], [0.5, float("nan")]], "non-finite text vector for 'b'"),
        ([[1.0, 0.0], [float("inf"), 0.0]], "non-finite text vector for 'b'"),
        ([[1.0, 0.0], [1.0, 0.0, 0.0]], r"text vector of shape \(3,\) for 'b'"),
        ([[[1.0, 0.0]], [[1.0, 0.0]]], r"text vector of shape \(1, 2\) for 'a'"),
        ([1.0, 2.0], r"text vector of shape \(\) for 'a'"),
        ([[1.0, 0.0], ["x", "y"]], "non-numeric text vector for 'b'"),
        ([[1.0, 0.0], [{"x": 1.0}, 0.0]], "non-numeric text vector for 'b'"),
    ],
)
def test_malformed_vectors_rejected_without_retry(serve, rows, match, normalize):
    provider = FixedRows(rows)
    remote = RemoteEmbedder(serve(provider), retries=2, normalize=normalize)
    with pytest.raises(PipelineError, match=match):
        remote.embed("text", ["a", "b"])
    assert provider.requests == 1
