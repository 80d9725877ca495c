"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import pytest

from repro.api import QueryBudget, SocialNetworkAPI, build_api
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


@pytest.fixture
def serve_service(graph_server):
    """``serve(source, **service_options)``: a live server over a fresh service.

    ``tenants=`` / ``clock=`` / ``access_log=`` configure the
    :class:`~repro.server.GraphService` the threaded server hosts.
    """
    from repro.server import GraphService

    def serve(source, **service_options):
        return graph_server(GraphService(source, **service_options))

    return serve


@pytest.fixture(autouse=True, scope="session")
def no_graph_server_leaks():
    """Assert no graph server outlives the suite."""
    yield
    from repro.server import GraphHTTPServer

    leaked = GraphHTTPServer.live_servers()
    assert not leaked, f"graph servers never closed: {leaked}"
    lingering = [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-http") and thread.is_alive()
    ]
    assert not lingering, f"graph server threads leaked: {lingering}"


@pytest.fixture
def api(attributed_graph) -> SocialNetworkAPI:
    return build_api(attributed_graph)


@pytest.fixture
def budgeted_api(attributed_graph) -> SocialNetworkAPI:
    return build_api(attributed_graph, budget=QueryBudget(50))
