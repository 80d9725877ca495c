"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import pytest

from repro.api import GraphAPI, QueryBudget
from repro.graphs import (
    Graph,
    barbell_graph,
    clustered_cliques_graph,
    complete_graph,
    cycle_graph,
    load_dataset,
    star_graph,
)


@pytest.fixture
def triangle_graph() -> Graph:
    """The smallest non-bipartite connected graph (3-cycle)."""
    graph = Graph(name="triangle")
    graph.add_edges([(0, 1), (1, 2), (2, 0)])
    return graph


@pytest.fixture
def square_with_diagonal() -> Graph:
    """A 4-cycle plus one diagonal: degrees 2,2,3,3."""
    graph = Graph(name="square-diag")
    graph.add_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    return graph


@pytest.fixture
def attributed_graph() -> Graph:
    """A small attributed graph used by estimator and grouping tests."""
    graph = Graph(name="attributed")
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (0, 2)]
    graph.add_edges(edges)
    ages = {0: 20, 1: 25, 2: 30, 3: 35, 4: 40}
    cities = {0: "austin", 1: "austin", 2: "dallas", 3: "dallas", 4: "houston"}
    for node in graph.nodes():
        graph.set_attributes(node, age=ages[node], city=cities[node])
    return graph


@pytest.fixture
def small_clique() -> Graph:
    return complete_graph(6)


@pytest.fixture
def small_star() -> Graph:
    return star_graph(5)


@pytest.fixture
def small_cycle() -> Graph:
    return cycle_graph(8)


@pytest.fixture
def small_barbell() -> Graph:
    return barbell_graph(5)


@pytest.fixture
def small_clustered() -> Graph:
    return clustered_cliques_graph((4, 6, 8), seed=0)


@pytest.fixture
def facebook_small() -> Graph:
    """A small instance of the facebook_like dataset for walk tests."""
    return load_dataset("facebook_like", seed=7, scale=0.12)


@pytest.fixture(scope="module")
def graph_server():
    """Factory booting in-process graph HTTP servers, torn down per module.

    Yields ``serve(source, **kwargs) -> GraphHTTPServer``: each call binds an
    ephemeral port, starts the server on a background thread and registers it
    for teardown, so a whole conformance matrix shares one live server
    instead of booting one per test.  Teardown asserts every server actually
    released its thread and listening socket.
    """
    from repro.server import serve_backend

    servers = []

    def serve(source, **kwargs):
        server = serve_backend(source, **kwargs).start()
        servers.append(server)
        return server

    yield serve
    for server in servers:
        server.close()
        assert server.closed
        # The listening socket must be released (fileno -1 once closed) and
        # the serve thread joined — close() hangs, loudly, otherwise.
        assert server.socket.fileno() == -1


@pytest.fixture(scope="module")
def async_graph_server():
    """Factory booting in-process *asyncio* graph servers, torn down per module.

    The asyncio twin of :func:`graph_server`: yields
    ``serve(source, **kwargs) -> AsyncGraphServer`` (``host=`` / ``port=``
    pass through), where ``source`` is a ready
    :class:`~repro.server.GraphService` (tenants, clock, access log) or
    anything an open service is built over.  Teardown closes every server
    and asserts its event-loop thread and listening socket are gone.
    """
    from repro.server import serve_backend_async

    servers = []

    def serve(source, **kwargs):
        server = serve_backend_async(source, **kwargs).start()
        servers.append(server)
        return server

    yield serve
    for server in servers:
        server.close()
        assert server.closed


@pytest.fixture(params=["threaded", "async"])
def serve_frontend(request):
    """``serve(source, **service_options)`` on each frontend in turn.

    Parametrizes the requesting test over both I/O adapters of the one
    :class:`~repro.server.GraphService`; ``tenants=`` / ``clock=`` /
    ``access_log=`` configure the service.  ``serve.frontend`` names the
    adapter under test.
    """
    from repro.server import GraphService

    factory = request.getfixturevalue(
        "graph_server" if request.param == "threaded" else "async_graph_server"
    )

    def serve(source, **service_options):
        return factory(GraphService(source, **service_options))

    serve.frontend = request.param
    return serve


@pytest.fixture(autouse=True, scope="session")
def no_graph_server_leaks():
    """Assert no graph server (threaded or asyncio) outlives the suite."""
    yield
    from repro.server import AsyncGraphServer, GraphHTTPServer

    leaked = GraphHTTPServer.live_servers() + AsyncGraphServer.live_servers()
    assert not leaked, f"graph servers never closed: {leaked}"
    lingering = [
        thread for thread in threading.enumerate()
        if (thread.name.startswith("repro-http")
            or thread.name.startswith("repro-aio"))
        and thread.is_alive()
    ]
    assert not lingering, f"graph server threads leaked: {lingering}"


@pytest.fixture
def api(attributed_graph) -> GraphAPI:
    return GraphAPI(attributed_graph)


@pytest.fixture
def budgeted_api(attributed_graph) -> GraphAPI:
    return GraphAPI(attributed_graph, budget=QueryBudget(50))
