import base64
import contextlib
import json
import socket
import struct
import urllib.error
import urllib.request
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from planact import embedder
from planact.embedder import (
    MockEmbedder,
    RemoteEmbedder,
    make_embed_server,
    serve_forever_in_thread,
)
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

    def test_empty_request_gets_empty_block(self, server_url):
        assert _post_json(server_url, {"kind": "text", "items": []}) == {"dim": 0, "vectors": ""}
        assert RemoteEmbedder(server_url).embed("text", []) == []

    def test_reply_is_little_endian_float64_rows(self, server_url, mock):
        reply = _post_json(server_url, {"kind": "frame", "items": ["a", "b"]})
        assert reply["dim"] == 16
        raw = base64.b64decode(reply["vectors"], validate=True)
        assert raw == np.asarray(mock.embed("frame", ["a", "b"]), dtype="<f8").tobytes()

    def test_bad_request_rejected(self, server_url):
        assert _status(server_url, {"kind": "audio", "items": []}) == 400

    @pytest.mark.parametrize("body", [[1, 2], "x"])
    def test_body_that_is_not_an_object_rejected(self, server_url, body):
        assert _status(server_url, body) == 400

    @pytest.mark.parametrize("items", [[1, None], ["a", 1.5], ["a", ["b"]], "ab"])
    def test_items_that_are_not_strings_rejected(self, server_url, items):
        assert _status(server_url, {"kind": "text", "items": items}) == 400

    def test_negative_content_length_rejected(self, server_url):
        host, port = server_url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=2.0) as conn:
            conn.sendall(b"POST /embed HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n")
            reply = b"".join(iter(lambda: conn.recv(4096), b""))  # the server closes
        assert reply.split(b"\r\n")[0].split()[1] == b"400"

    def test_error_status_retried_then_raises(self, server_url):
        remote = RemoteEmbedder(server_url, retries=1)
        with pytest.raises(PipelineError, match="retries.*400"):
            remote._post("audio", ["x"])


def _post_json(url, body):
    request = urllib.request.Request(
        f"{url}/embed",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=5.0) as resp:
        return json.loads(resp.read())


def _status(url, body):
    """The HTTP status of an /embed request that the server refuses."""
    with pytest.raises(urllib.error.HTTPError) as info:
        _post_json(url, body)
    info.value.close()
    return info.value.code


@pytest.mark.parametrize("dim", [2.5, 16.0, True, "16"])
def test_mock_dim_must_be_an_integer(dim):
    with pytest.raises(ContractError, match=f"dim must be an integer, got {dim!r}"):
        MockEmbedder(dim=dim)


@pytest.mark.parametrize("retries", [-1, 1.5, True, "2", None])
def test_retries_must_be_a_count(retries):
    with pytest.raises(ContractError, match="retries"):
        RemoteEmbedder("http://127.0.0.1:9", retries=retries)


@pytest.mark.parametrize("timeout", [0, 0.0, -1.0, float("nan"), float("inf"), True, "5", None])
def test_timeout_must_be_finite_and_positive(timeout):
    with pytest.raises(ContractError, match="timeout"):
        RemoteEmbedder("http://127.0.0.1:9", timeout=timeout)


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


@pytest.fixture(scope="module")
def rows_server(serve):
    """One server for every example: a test sets the provider's ``rows``."""
    provider = FixedRows([])
    return provider, serve(provider)


# finite float64 values, with -0.0, subnormals and values near the largest finite
# float drawn often
FINITE = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(1, 6)), elements=FINITE))
@example(np.zeros((0, 3)))
@example(np.array([[-0.0, 5e-324, -2.5e-310], [2.2250738585072014e-308, 1.7e308, -1.7e308]]))
def test_any_finite_block_arrives_bit_for_bit(rows_server, block):
    provider, url = rows_server
    provider.rows = block
    items = [f"vid@{i}.000" for i in range(len(block))]
    got = RemoteEmbedder(url, normalize=False).embed("frame", items)
    assert [v.tobytes() for v in got] == [row.tobytes() for row in block]
    assert all(v.dtype == np.float64 and v.flags.writeable for v in got)


class ZeroEmbedder(FixedRows):
    """Stub provider whose every vector is zero."""

    def __init__(self):
        super().__init__([np.zeros(4)] * 8)


def test_zero_vector_rejected_when_normalizing(serve):
    url = serve(ZeroEmbedder())
    with pytest.raises(PipelineError, match="zero frame vector for 'vid@1.000'"):
        RemoteEmbedder(url, normalize=True).embed("frame", ["vid@1.000"])
    np.testing.assert_array_equal(RemoteEmbedder(url, normalize=False).embed("text", ["x"]), 0.0)


@pytest.mark.parametrize(
    "row, unit",
    [
        ([1e-310, 0.0], [1.0, 0.0]),
        ([3e200, 4e200], [0.6, 0.8]),
        ([1.7e308, 1.0], [1.0, 1 / 1.7e308]),
    ],
    ids=["subnormal", "squares-overflow", "near-max"],
)
def test_rows_of_any_finite_scale_normalize(serve, row, unit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or underflow warning fails the test
        got = RemoteEmbedder(serve(FixedRows([row])), normalize=True).embed("text", ["a"])
    np.testing.assert_allclose(got, [unit], rtol=1e-15, atol=0)


class FailingEmbedder:
    """Stub provider whose every request fails with an error outside the request checks."""

    def embed(self, kind, items):
        raise RuntimeError("the model is not loaded")


def test_provider_failure_answered_500(serve, capfd):
    url = serve(FailingEmbedder())
    assert _status(url, {"kind": "text", "items": ["a"]}) == 500
    with pytest.raises(PipelineError, match="retries.*500"):
        RemoteEmbedder(url, retries=1).embed("text", ["a"])
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "rows, match",
    [
        ([[1.0, 0.0], [0.5, float("nan")]], "non-finite text vector for 'b'"),
        ([[1.0, 0.0], [float("inf"), 0.0]], "non-finite text vector for 'b'"),
    ],
)
def test_malformed_vectors_rejected_without_retry(serve, rows, match, normalize):
    provider = FixedRows(rows)
    remote = RemoteEmbedder(serve(provider), retries=2, normalize=normalize)
    with pytest.raises(PipelineError, match=match):
        remote.embed("text", ["a", "b"])
    assert provider.requests == 1


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 0.0], [1.0, 0.0, 0.0]],
        [[[1.0, 0.0]], [[1.0, 0.0]]],
        [1.0, 2.0],
        [[1.0, 0.0], ["x", "y"]],
        [[1.0, 0.0], [{"x": 1.0}, 0.0]],
        [[], []],
    ],
    ids=["ragged", "matrix-rows", "scalar-rows", "string-values", "object-values",
         "zero-width"],
)
def test_rows_that_are_not_one_block_answered_500(serve, capfd, rows):
    url = serve(FixedRows(rows))
    assert _status(url, {"kind": "text", "items": ["a", "b"]}) == 500
    with pytest.raises(PipelineError, match="retries.*500"):
        RemoteEmbedder(url, retries=1).embed("text", ["a", "b"])
    assert capfd.readouterr().err == ""


class FixedBodyHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's ``body`` bytes and counts the requests."""

    def log_message(self, *args):  # quiet
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.server.requests += 1
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.server.body)))
        self.end_headers()
        self.wfile.write(self.server.body)


@pytest.fixture
def fixed_body():
    """``fixed_body(body)`` starts a server answering every request with ``body``."""
    servers = []

    def start(body: bytes) -> ThreadingHTTPServer:
        server = ThreadingHTTPServer(("127.0.0.1", 0), FixedBodyHandler)
        server.body, server.requests = body, 0
        serve_forever_in_thread(server)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _url(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


@pytest.mark.parametrize(
    "reply, match",
    [
        ([1, 2], "frame request with a list, not a JSON object"),
        ("x", "frame request with a str, not a JSON object"),
        (None, "frame request with a NoneType, not a JSON object"),
        ({"nope": []}, 'frame request without a "vectors" field'),
        ({"dim": 2, "vectors": 5}, '"vectors" of type int, not a base64 string'),
        ({"dim": 2, "vectors": None}, '"vectors" of type NoneType, not a base64 string'),
        ({"dim": 2, "vectors": {"a": [1.0, 0.0]}}, '"vectors" of type dict, not a base64 string'),
        ({"dim": 2, "vectors": [[1.0, 0.0]]}, '"vectors" of type list, not a base64 string'),
        ({"dim": 2, "vectors": ""}, "returned 0 frame vectors for 1 items"),
        ({"dim": 2, "vectors": _b64([1.0, 0.0, 0.0, 1.0])},
         "returned 2 frame vectors for 1 items"),
        ({"dim": 2, "vectors": _b64([1.0, 0.0])[:-1]}, "frame request with invalid base64"),
        ({"dim": 2, "vectors": "AAAA AAAA AAAA AAAA"}, "frame request with invalid base64"),
        ({"dim": 2, "vectors": "\u00e9" * 4}, "frame request with invalid base64"),
        ({"vectors": _b64([1.0, 0.0])}, 'frame request with "dim" None, not an int >= 1'),
        ({"dim": 0, "vectors": ""}, 'frame request with "dim" 0, not an int >= 1'),
        ({"dim": -2, "vectors": ""}, 'frame request with "dim" -2, not an int >= 1'),
        ({"dim": 2.0, "vectors": _b64([1.0, 0.0])}, '"dim" 2.0, not an int >= 1'),
        ({"dim": "2", "vectors": _b64([1.0, 0.0])}, "\"dim\" '2', not an int >= 1"),
        ({"dim": True, "vectors": _b64([1.0])}, '"dim" True, not an int >= 1'),
        ({"dim": 2, "vectors": _b64([1.0, 0.0, 1.0])},
         "returned 24 bytes for 1 frame vectors of width 2, not whole float64 rows"),
        ({"dim": 1, "vectors": base64.b64encode(bytes(12)).decode()},
         "returned 12 bytes for 1 frame vectors of width 1, not whole float64 rows"),
    ],
    ids=["array", "string", "null", "no-vectors", "vectors-number", "vectors-null",
         "vectors-object", "vectors-list", "too-few", "too-many", "base64-truncated",
         "base64-spaces", "base64-non-ascii", "dim-missing", "dim-zero", "dim-negative",
         "dim-float", "dim-string", "dim-bool", "partial-row", "partial-value"],
)
def test_malformed_envelope_rejected_without_retry(fixed_body, reply, match):
    server = fixed_body(json.dumps(reply).encode("utf-8"))
    with pytest.raises(PipelineError, match=match):
        RemoteEmbedder(_url(server), retries=2).embed("frame", ["vid@1.000"])
    assert server.requests == 1


def test_reply_that_is_not_json_retried(fixed_body):
    server = fixed_body(b'{"vectors": [[1.0, 0.0]')
    with pytest.raises(PipelineError, match="unreachable after retries"):
        RemoteEmbedder(_url(server), retries=2).embed("text", ["a"])
    assert server.requests == 3


SHORT_BODY = b"POST /embed HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"kind\""


@contextlib.contextmanager
def joined_server():
    """A fresh embed server; leaving the block stops it and waits for its handler threads."""
    server = make_embed_server(MockEmbedder(dim=16))
    server.daemon_threads = False
    serve_forever_in_thread(server)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def test_stalled_body_closed_after_read_timeout(monkeypatch, capfd):
    monkeypatch.setattr(embedder, "READ_TIMEOUT_S", 0.2)
    with joined_server() as server:
        # without a read timeout no reply comes, and recv raises after 3 s
        with socket.create_connection(server.server_address, timeout=3.0) as conn:
            conn.sendall(SHORT_BODY)
            assert conn.recv(4096) == b""  # closed without a reply
    assert capfd.readouterr().err == ""


def test_client_that_resets_mid_body_prints_nothing(capfd):
    with joined_server() as server:
        with socket.create_connection(server.server_address, timeout=3.0) as conn:
            conn.sendall(SHORT_BODY)
            # linger 0: close sends a reset, so the handler's read fails
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    assert capfd.readouterr().err == ""


def test_body_shorter_than_content_length_rejected():
    body = b'{"kind": "text", "items": []}'
    with joined_server() as server:
        with socket.create_connection(server.server_address, timeout=3.0) as conn:
            conn.sendall(b"POST /embed HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                         % (len(body) + 1, body))
            conn.shutdown(socket.SHUT_WR)
            reply = b"".join(iter(lambda: conn.recv(4096), b""))
    assert reply.split(b"\r\n")[0].split()[1] == b"400"
