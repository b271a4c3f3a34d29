import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from planact.embedder import make_embed_server, serve_forever_in_thread

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="module")
def serve():
    """``serve(provider)`` starts an embed server and returns its URL; all stop with the module."""
    servers = []

    def start(provider) -> str:
        server = make_embed_server(provider, port=0)
        serve_forever_in_thread(server)
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
