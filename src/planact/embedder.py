"""Embedding providers: a pure seeded mock, an HTTP client, and a mock server.

Wire protocol: POST /embed with body {"kind": "text"|"frame", "items": [...]}
returns {"vectors": [[...], ...]}.  Every provider mirrors it as
``embed(kind, items) -> list of vectors``.  Clients normalise vectors to unit
length unless the service already guarantees it.
"""

from __future__ import annotations

import http.client
import json
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

    def __init__(self, dim: int = 16, salt: str = "mock-embedder"):
        if dim < 2:
            raise ContractError("embedding dim must be at least 2")
        self.dim = dim
        self.salt = salt

    def _vector(self, kind: str, item: str) -> np.ndarray:
        v = rng_for(self.salt, kind, item).standard_normal(self.dim)
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
                    rows = json.loads(resp.read())["vectors"]
            except (OSError, http.client.HTTPException, KeyError, ValueError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error response still holds its connection
                last_error = exc
                continue
            return self._vectors(kind, items, rows)
        raise PipelineError(f"embedding service unreachable after retries: {last_error}")

    def _vectors(self, kind: str, items: list[str], rows: list) -> list[np.ndarray]:
        """One finite 1-D row of a common width per item, else an error naming the item.

        A malformed answer is not retried: the service would give it again.
        """
        if len(rows) != len(items):
            raise PipelineError("embedding service returned a short batch")
        vectors = []
        for item, row in zip(items, rows):
            try:
                v = np.asarray(row, dtype=np.float64)
            except (TypeError, ValueError):
                raise PipelineError(
                    f"embedding service returned a non-numeric {kind} vector for {item!r}"
                ) from None
            if v.ndim != 1 or (vectors and v.shape != vectors[0].shape):
                raise PipelineError(
                    f"embedding service returned a {kind} vector of shape {v.shape} for "
                    f"{item!r}; each must be a 1-D row of the batch's common width"
                )
            if not np.isfinite(v).all():
                raise PipelineError(
                    f"embedding service returned a non-finite {kind} vector for {item!r}"
                )
            vectors.append(v)
        if self.normalize:
            norms = [np.linalg.norm(v) for v in vectors]
            if 0.0 in norms:
                item = items[norms.index(0.0)]
                raise PipelineError(f"embedding service returned a zero {kind} vector for {item!r}")
            vectors = [v / n for v, n in zip(vectors, norms)]
        return vectors

    def embed(self, kind: str, items: list[str]) -> list[np.ndarray]:
        return self._post(kind, items)


def make_embed_server(embedder: MockEmbedder, port: int = 0) -> ThreadingHTTPServer:
    """HTTP server exposing ``embedder`` over the wire protocol; safe for concurrent calls."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # quiet
            pass

        def do_POST(self):
            if self.path != "/embed":
                self.send_error(404)
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length))
                items = body["items"]
                if not isinstance(items, list):
                    raise ValueError("items must be a list")
                vectors = embedder.embed(body["kind"], [str(item) for item in items])
            except (ValueError, KeyError, ContractError):
                self.send_error(400, "expected {kind: text|frame, items: [...]}")
                return
            payload = json.dumps({"vectors": [v.tolist() for v in vectors]}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    return ThreadingHTTPServer(("127.0.0.1", port), Handler)


# serve_forever notices shutdown() only between polls, so the poll interval
# bounds how long a server teardown blocks (the library default is 0.5 s).
SHUTDOWN_POLL_S = 0.05


def serve_forever_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": SHUTDOWN_POLL_S}, daemon=True
    )
    thread.start()
    return thread
