"""Embedding providers: a pure seeded mock, an HTTP client, and a mock server.

Wire protocol: POST /embed with body {"kind": "text"|"frame", "items": [...]}
returns {"vectors": [[...], ...]}.  Clients normalise vectors to unit length
unless the service already guarantees it.
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

    def text_embed(self, text: str) -> np.ndarray:
        return self._vector("text", text)

    def frame_embed(self, frame_ref: str) -> np.ndarray:
        return self._vector("frame", frame_ref)


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
                    body = json.loads(resp.read())
                vectors = [np.asarray(v, dtype=np.float64) for v in body["vectors"]]
            except (OSError, http.client.HTTPException, KeyError, ValueError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an error response still holds its connection
                last_error = exc
                continue
            if len(vectors) != len(items):
                raise PipelineError("embedding service returned a short batch")
            if self.normalize:
                norms = [np.linalg.norm(v) for v in vectors]
                if 0.0 in norms:
                    item = items[norms.index(0.0)]
                    raise PipelineError(f"embedding service returned a zero {kind} vector for {item!r}")
                vectors = [v / n for v, n in zip(vectors, norms)]
            return vectors
        raise PipelineError(f"embedding service unreachable after retries: {last_error}")

    def text_embed(self, text: str) -> np.ndarray:
        return self._post("text", [text])[0]

    def frame_embed(self, frame_ref: str) -> np.ndarray:
        return self._post("frame", [frame_ref])[0]


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
                kind = body["kind"]
                items = body["items"]
                if kind not in ("text", "frame") or not isinstance(items, list):
                    raise ValueError("bad request")
                embed = embedder.text_embed if kind == "text" else embedder.frame_embed
                vectors = [embed(str(item)).tolist() for item in items]
            except (ValueError, KeyError, json.JSONDecodeError):
                self.send_error(400, "expected {kind: text|frame, items: [...]}")
                return
            payload = json.dumps({"vectors": vectors}).encode("utf-8")
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
