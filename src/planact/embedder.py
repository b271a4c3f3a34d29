"""Embedding providers: a pure seeded mock, an HTTP client, and a mock server.

Wire protocol: POST /embed with body {"kind": "text"|"frame", "items": [...]},
where every item is a string, returns {"dim": d, "vectors": "<base64>"}.  The
base64 string decodes to the n*d little-endian float64 values of the n
vectors, one row of width d per item in request order, so every bit of every
value arrives as the provider computed it.  An empty request is answered
{"dim": 0, "vectors": ""}.  Every provider mirrors the protocol as
``embed(kind, items) -> list of vectors``.  Clients normalise vectors to unit
length unless the service already guarantees it.  A vector depends only on
``(kind, item)``, never on the rest of the batch, so one request may carry a
whole build's keyframes or texts.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .errors import ContractError, PipelineError
from .seeding import rng_for

KINDS = ("text", "frame")


class MockEmbedder:
    """Seeded hash -> pseudo-random unit vector; pure and stable across runs."""

    def __init__(self, dim: int = 16):
        if dim < 2:
            raise ContractError("embedding dim must be at least 2")
        self.dim = dim

    def _vector(self, kind: str, item: str) -> np.ndarray:
        v = rng_for("mock-embedder", kind, item).standard_normal(self.dim)
        return v / np.linalg.norm(v)

    def embed(self, kind: str, items: list[str]) -> list[np.ndarray]:
        if kind not in KINDS:
            raise ContractError(f"embedding kind must be one of {KINDS}, got {kind!r}")
        return [self._vector(kind, item) for item in items]


class RemoteEmbedder:
    """Client for the /embed wire protocol with configurable timeout and retries."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 5.0,
        retries: int = 2,
        normalize: bool = True,
    ):
        if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
            raise ContractError(f"retries must be an int >= 0, got {retries!r}")
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not (
            0 < timeout < math.inf
        ):
            raise ContractError(f"timeout must be a finite number of seconds > 0, got {timeout!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.normalize = normalize

    def _post(self, kind: str, items: list[str]) -> list[np.ndarray]:
        request = urllib.request.Request(
            f"{self.base_url}/embed",
            data=json.dumps({"kind": kind, "items": items}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        last_error: Exception | None = None
        for _ in range(self.retries + 1):
            try:
                # urlopen raises HTTPError, an OSError, on 4xx/5xx responses
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    reply = json.loads(resp.read())
            except (OSError, http.client.HTTPException, ValueError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error response still holds its connection
                last_error = exc
                continue
            return self._vectors(kind, items, reply)
        raise PipelineError(f"embedding service unreachable after retries: {last_error}")

    def _vectors(self, kind: str, items: list[str], reply) -> list[np.ndarray]:
        """The rows of the reply's ``(len(items), dim)`` float64 block, one per item.

        Raises ``PipelineError`` naming the kind when the reply is not a JSON
        object, has no ``vectors`` field, ``vectors`` is not a string, ``dim``
        is not an int (at least 1 unless the request was empty), ``vectors``
        is not valid base64, or it does not decode to 8 * len(items) * dim
        bytes; and naming the item as well for a row with a NaN or an
        infinity, or, with ``normalize``, a row of zeros.  A malformed answer
        is not retried: the service would give it again.
        """
        if not isinstance(reply, dict):
            raise PipelineError(
                f"embedding service answered a {kind} request with a "
                f"{type(reply).__name__}, not a JSON object"
            )
        if "vectors" not in reply:
            raise PipelineError(
                f"embedding service answered a {kind} request without a \"vectors\" field"
            )
        encoded, dim = reply["vectors"], reply.get("dim")
        if not isinstance(encoded, str):
            raise PipelineError(
                f"embedding service answered a {kind} request with \"vectors\" of type "
                f"{type(encoded).__name__}, not a base64 string"
            )
        least = 1 if items else 0  # an empty request is answered with dim 0
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < least:
            raise PipelineError(
                f"embedding service answered a {kind} request with \"dim\" {dim!r}, "
                f"not an int >= {least}"
            )
        try:
            raw = base64.b64decode(encoded, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise PipelineError(
                f"embedding service answered a {kind} request with invalid base64: {exc}"
            ) from None
        if len(raw) != 8 * len(items) * dim:
            if dim and len(raw) % (8 * dim) == 0:
                raise PipelineError(
                    f"embedding service returned {len(raw) // (8 * dim)} {kind} vectors "
                    f"for {len(items)} items"
                )
            raise PipelineError(
                f"embedding service returned {len(raw)} bytes for {len(items)} {kind} "
                f"vectors of width {dim}, not whole float64 rows"
            )
        block = np.frombuffer(raw, dtype="<f8").reshape(len(items), dim)
        bad = ~np.isfinite(block).all(axis=1)
        if bad.any():
            item = items[int(bad.argmax())]
            raise PipelineError(
                f"embedding service returned a non-finite {kind} vector for {item!r}"
            )
        if self.normalize:
            # each row is scaled by its largest magnitude first, so that neither
            # subnormal nor huge values underflow or overflow in the norm
            scale = np.abs(block).max(axis=1, keepdims=True, initial=0.0)
            if (scale == 0.0).any():
                item = items[int((scale == 0.0).argmax())]
                raise PipelineError(
                    f"embedding service returned a zero {kind} vector for {item!r}"
                )
            block = block / scale
            block /= np.linalg.norm(block, axis=1, keepdims=True)
        else:
            block = block.astype(np.float64)  # a writable, native-order copy
        return list(block)

    def embed(self, kind: str, items: list[str]) -> list[np.ndarray]:
        return self._post(kind, items)


def make_embed_server(embedder: MockEmbedder, port: int = 0) -> ThreadingHTTPServer:
    """HTTP server exposing ``embedder`` over the wire protocol; safe for concurrent calls.

    A connection that sends nothing for ``READ_TIMEOUT_S`` is closed without a
    reply, as is one whose client goes away mid-request; neither prints a
    traceback.  A body shorter than its ``Content-Length``, or one that is not
    ``{"kind": ..., "items": [str, ...]}``, is answered 400, as is one the
    provider refuses with ``ValueError``, ``KeyError`` or ``ContractError``.
    Any other provider exception, and vectors that do not stack into one
    float64 block of width at least 1, are answered 500 with a plain message
    and print no traceback.
    """

    class Handler(BaseHTTPRequestHandler):
        timeout = READ_TIMEOUT_S  # the base class closes a connection that times out

        def log_message(self, *args):  # quiet
            pass

        def handle(self):
            try:
                super().handle()
            except ConnectionError:  # the client went away; nobody reads a reply
                self.close_connection = True

        def do_POST(self):
            if self.path != "/embed":
                self.send_error(404)
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:  # rfile.read(-1) would wait for the client to close
                    raise ValueError("negative Content-Length")
                raw = self.rfile.read(length)
                if len(raw) < length:  # the client closed its side early
                    raise ValueError("body shorter than Content-Length")
                body = json.loads(raw)
                if not isinstance(body, dict):
                    raise ValueError("body must be a JSON object")
                kind, items = body["kind"], body["items"]
                if not isinstance(items, list) or not all(isinstance(i, str) for i in items):
                    raise ValueError("items must be a list of strings")
            except (ValueError, KeyError):
                self.send_error(400, BAD_REQUEST)
                return
            try:
                vectors = embedder.embed(kind, items)
            except (ValueError, KeyError, ContractError):  # the provider refused the request
                self.send_error(400, BAD_REQUEST)
                return
            except Exception as exc:  # any other provider failure still gets an answer
                self.send_error(500, f"provider failed: {type(exc).__name__}")
                return
            try:  # ragged, scalar or non-numeric rows do not stack
                block = np.asarray(vectors, dtype="<f8")
                if len(block) and (block.ndim != 2 or block.shape[1] < 1):
                    raise ValueError("each vector must be a row of one width >= 1")
            except (TypeError, ValueError):
                self.send_error(500, "provider vectors are not one float64 block")
                return
            payload = json.dumps({
                "dim": block.shape[1] if len(block) else 0,
                "vectors": base64.b64encode(block.tobytes()).decode("ascii"),
            }).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    return ThreadingHTTPServer(("127.0.0.1", port), Handler)


BAD_REQUEST = "expected {kind: text|frame, items: [str, ...]}"

# serve_forever notices shutdown() only between polls, so the poll interval
# bounds how long a server teardown blocks (the library default is 0.5 s).
SHUTDOWN_POLL_S = 0.05

# Longest wait for a client's next bytes before its connection is closed, so a
# client that sends less than it announced cannot hold a handler thread.
READ_TIMEOUT_S = 5.0


def serve_forever_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": SHUTDOWN_POLL_S}, daemon=True
    )
    thread.start()
    return thread
