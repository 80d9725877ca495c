"""Unit tests for the Graph substrate."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    AttributeNotFoundError,
    EdgeNotFoundError,
    EmptyGraphError,
    NodeNotFoundError,
)
from repro.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.number_of_nodes == 0
        assert graph.number_of_edges == 0
        assert len(graph) == 0

    def test_add_node_idempotent(self):
        graph = Graph()
        graph.add_node(1, color="red")
        graph.add_node(1, size=3)
        assert graph.number_of_nodes == 1
        assert graph.attributes(1) == {"color": "red", "size": 3}

    def test_add_edge_creates_nodes(self):
        graph = Graph()
        graph.add_edge("a", "b")
        assert graph.has_node("a")
        assert graph.has_node("b")
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")

    def test_add_edge_is_idempotent(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        assert graph.number_of_edges == 1

    def test_self_loop_rejected(self):
        graph = Graph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 1)

    def test_add_nodes_and_edges_bulk(self):
        graph = Graph()
        graph.add_nodes([1, 2, 3])
        graph.add_edges([(1, 2), (2, 3)])
        assert graph.number_of_nodes == 3
        assert graph.number_of_edges == 2

    def test_remove_edge(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.number_of_edges == 0

    def test_remove_missing_edge_raises(self):
        graph = Graph()
        graph.add_node(1)
        graph.add_node(2)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 2)

    def test_remove_node_removes_incident_edges(self):
        graph = star_graph(4)
        graph.remove_node(0)
        assert graph.number_of_edges == 0
        assert not graph.has_node(0)

    def test_remove_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(NodeNotFoundError):
            graph.remove_node(99)


class TestQueries:
    def test_neighbors_and_degree(self, square_with_diagonal):
        graph = square_with_diagonal
        assert sorted(graph.neighbors(0)) == [1, 2, 3]
        assert graph.degree(0) == 3
        assert graph.degree(1) == 2

    def test_neighbors_returns_copy(self, triangle_graph):
        neighbors = triangle_graph.neighbors(0)
        neighbors.append(99)
        assert 99 not in triangle_graph.neighbors(0)

    def test_missing_node_raises(self, triangle_graph):
        with pytest.raises(NodeNotFoundError):
            triangle_graph.neighbors(42)
        with pytest.raises(NodeNotFoundError):
            triangle_graph.degree(42)
        with pytest.raises(NodeNotFoundError):
            triangle_graph.attributes(42)

    def test_contains_and_iter(self, triangle_graph):
        assert 0 in triangle_graph
        assert 42 not in triangle_graph
        assert sorted(triangle_graph) == [0, 1, 2]

    def test_edges_listed_once(self, triangle_graph):
        edges = list(triangle_graph.edges())
        assert len(edges) == 3
        as_sets = {frozenset(edge) for edge in edges}
        assert len(as_sets) == 3

    def test_degrees_mapping(self, square_with_diagonal):
        degrees = square_with_diagonal.degrees()
        assert degrees[0] == 3
        assert degrees[1] == 2
        assert sum(degrees.values()) == 2 * square_with_diagonal.number_of_edges

    def test_attribute_access(self, attributed_graph):
        assert attributed_graph.attribute(0, "age") == 20
        assert attributed_graph.attribute(0, "missing", default=None) is None
        with pytest.raises(AttributeNotFoundError):
            attributed_graph.attribute(0, "missing")

    def test_attribute_names(self, attributed_graph):
        assert attributed_graph.attribute_names() == {"age", "city"}

    def test_set_attribute_for_all(self, triangle_graph):
        triangle_graph.set_attribute_for_all("score", {0: 1.0, 1: 2.0, 2: 3.0})
        assert triangle_graph.attribute(1, "score") == 2.0

    def test_attribute_may_be_named_node(self, triangle_graph):
        triangle_graph.set_attributes(1, node="x")
        assert triangle_graph.attribute(1, "node") == "x"

    def test_set_attributes_missing_node(self, triangle_graph):
        with pytest.raises(NodeNotFoundError):
            triangle_graph.set_attributes(10, x=1)


class TestStructure:
    def test_average_degree(self, triangle_graph):
        assert triangle_graph.average_degree() == pytest.approx(2.0)
        assert Graph().average_degree() == 0.0

    def test_total_degree(self, square_with_diagonal):
        assert square_with_diagonal.total_degree() == 10

    def test_isolated_nodes(self):
        graph = Graph()
        graph.add_node("lonely")
        graph.add_edge(1, 2)
        assert graph.isolated_nodes() == ["lonely"]

    def test_connected_components(self):
        graph = Graph()
        graph.add_edges([(1, 2), (2, 3), (10, 11)])
        components = sorted(graph.connected_components(), key=len)
        assert {10, 11} in components
        assert {1, 2, 3} in components

    def test_is_connected(self, triangle_graph):
        assert triangle_graph.is_connected()
        triangle_graph.add_node("isolated")
        assert not triangle_graph.is_connected()
        assert not Graph().is_connected()

    def test_largest_connected_component(self):
        graph = Graph()
        graph.add_edges([(1, 2), (2, 3), (10, 11)])
        lcc = graph.largest_connected_component()
        assert sorted(lcc.nodes()) == [1, 2, 3]

    def test_largest_connected_component_empty(self):
        with pytest.raises(EmptyGraphError):
            Graph().largest_connected_component()

    def test_subgraph_preserves_attributes(self, attributed_graph):
        sub = attributed_graph.subgraph([0, 1, 2])
        assert sub.number_of_nodes == 3
        assert sub.attribute(0, "age") == 20
        assert sub.has_edge(0, 1)
        assert not sub.has_node(4)

    def test_subgraph_missing_node(self, attributed_graph):
        with pytest.raises(NodeNotFoundError):
            attributed_graph.subgraph([0, 99])

    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.add_edge(0, 99)
        assert not triangle_graph.has_node(99)
        assert clone.number_of_edges == triangle_graph.number_of_edges + 1

    def test_shortest_path_length(self):
        graph = path_graph(5)
        assert graph.shortest_path_length(0, 4) == 4
        assert graph.shortest_path_length(2, 2) == 0

    def test_shortest_path_no_path(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        with pytest.raises(ValueError):
            graph.shortest_path_length(1, 3)

    def test_triangles_and_clustering(self):
        clique = complete_graph(4)
        assert clique.triangle_count() == 4
        assert clique.local_clustering(0) == pytest.approx(1.0)
        assert clique.average_clustering() == pytest.approx(1.0)
        chain = path_graph(4)
        assert chain.triangle_count() == 0
        assert chain.average_clustering() == 0.0

    def test_clustering_of_low_degree_node(self, small_star):
        assert small_star.local_clustering(1) == 0.0

    def test_bipartiteness(self):
        assert cycle_graph(4).is_bipartite()
        assert not cycle_graph(5).is_bipartite()
        assert not complete_graph(3).is_bipartite()

    def test_stationary_distribution(self, square_with_diagonal):
        pi = square_with_diagonal.stationary_distribution()
        assert sum(pi.values()) == pytest.approx(1.0)
        assert pi[0] == pytest.approx(3 / 10)
        assert pi[1] == pytest.approx(2 / 10)

    def test_stationary_distribution_empty(self):
        graph = Graph()
        graph.add_node(1)
        with pytest.raises(EmptyGraphError):
            graph.stationary_distribution()


class TestInterop:
    def test_networkx_round_trip(self, attributed_graph):
        nx_graph = attributed_graph.to_networkx()
        back = Graph.from_networkx(nx_graph, name="roundtrip")
        assert back.number_of_nodes == attributed_graph.number_of_nodes
        assert back.number_of_edges == attributed_graph.number_of_edges
        assert back.attribute(0, "age") == 20

    def test_from_networkx_drops_self_loops(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edge(1, 1)
        nx_graph.add_edge(1, 2)
        graph = Graph.from_networkx(nx_graph)
        assert graph.number_of_edges == 1

    def test_from_edges_with_attributes(self):
        graph = Graph.from_edges([(1, 2), (2, 3)], attributes={1: {"x": 5}})
        assert graph.attribute(1, "x") == 5
        assert graph.number_of_edges == 2

    def test_matches_networkx_statistics(self, facebook_small):
        nx_graph = facebook_small.to_networkx()
        import networkx as nx

        assert facebook_small.number_of_edges == nx_graph.number_of_edges()
        assert facebook_small.triangle_count() == sum(nx.triangles(nx_graph).values()) // 3
        assert facebook_small.average_clustering() == pytest.approx(
            nx.average_clustering(nx_graph), abs=1e-9
        )
