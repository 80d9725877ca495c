"""Behavioural tests for each random-walk algorithm."""

from __future__ import annotations

import pytest

from repro.api import build_api
from repro.exceptions import InvalidConfigurationError
from repro.graphs import Graph, barbell_graph, complete_graph, cycle_graph, star_graph
from repro.walks import (
    CirculatedNeighborsRandomWalk,
    GroupByNeighborsRandomWalk,
    HashGrouping,
    MetropolisHastingsRandomWalk,
    NonBacktrackingCNRW,
    NonBacktrackingRandomWalk,
    SimpleRandomWalk,
    WeightedRandomWalk,
)
from repro.walks.grouping import ExplicitGrouping


class TestSimpleRandomWalk:
    def test_only_visits_neighbors(self, attributed_graph):
        walk = SimpleRandomWalk(build_api(attributed_graph), seed=0)
        result = walk.run(0, max_steps=100)
        for u, v in zip(result.path, result.path[1:]):
            assert attributed_graph.has_edge(u, v)

    def test_uniform_neighbor_choice(self):
        # From the hub of a star every leaf should be chosen roughly equally.
        graph = star_graph(4)
        walk = SimpleRandomWalk(build_api(graph), seed=1)
        counts = {leaf: 0 for leaf in range(1, 5)}
        result = walk.run(0, max_steps=2000)
        for u, v in zip(result.path, result.path[1:]):
            if u == 0:
                counts[v] += 1
        total = sum(counts.values())
        for leaf_count in counts.values():
            assert leaf_count / total == pytest.approx(0.25, abs=0.05)


class TestMHRW:
    def test_self_transitions_allowed(self, facebook_small):
        walk = MetropolisHastingsRandomWalk(build_api(facebook_small), seed=0)
        result = walk.run(facebook_small.nodes()[0], max_steps=300)
        self_loops = sum(1 for u, v in zip(result.path, result.path[1:]) if u == v)
        assert self_loops > 0

    def test_moves_stay_on_edges_or_self(self, facebook_small):
        walk = MetropolisHastingsRandomWalk(build_api(facebook_small), seed=1)
        result = walk.run(facebook_small.nodes()[0], max_steps=200)
        for u, v in zip(result.path, result.path[1:]):
            assert u == v or facebook_small.has_edge(u, v)

    def test_regular_graph_never_rejects(self):
        # On a clique all degrees are equal, so acceptance is always 1.
        graph = complete_graph(5)
        walk = MetropolisHastingsRandomWalk(build_api(graph), seed=2)
        result = walk.run(0, max_steps=200)
        assert all(u != v for u, v in zip(result.path, result.path[1:]))

    def test_visits_low_degree_nodes_more_than_srw(self):
        # MHRW targets the uniform distribution, so relative to SRW it must
        # spend more time on the low-degree leaves of a star.
        graph = star_graph(8)
        mhrw = MetropolisHastingsRandomWalk(build_api(graph), seed=3)
        srw = SimpleRandomWalk(build_api(graph), seed=3)
        mhrw_path = mhrw.run(0, max_steps=3000).path
        srw_path = srw.run(0, max_steps=3000).path
        mhrw_leaf_fraction = sum(1 for node in mhrw_path if node != 0) / len(mhrw_path)
        srw_leaf_fraction = sum(1 for node in srw_path if node != 0) / len(srw_path)
        assert mhrw_leaf_fraction > srw_leaf_fraction


class TestNBSRW:
    def test_never_backtracks_when_alternatives_exist(self, facebook_small):
        walk = NonBacktrackingRandomWalk(build_api(facebook_small), seed=0)
        result = walk.run(facebook_small.nodes()[0], max_steps=300)
        path = result.path
        for i in range(2, len(path)):
            if facebook_small.degree(path[i - 1]) > 1:
                assert path[i] != path[i - 2]

    def test_backtracks_on_degree_one_nodes(self):
        graph = Graph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        walk = NonBacktrackingRandomWalk(build_api(graph), seed=1)
        result = walk.run(0, max_steps=10)
        # From node 0 (degree 1) the only move is back to 1.
        assert result.path[:2] == [0, 1]
        assert 0 in result.path[2:] or 2 in result.path[2:]


class TestCNRW:
    def test_circulation_covers_all_neighbors(self):
        """After u->v is traversed k(v) times, every neighbor has been used."""
        graph = star_graph(5)  # hub 0 with leaves 1..5
        walk = CirculatedNeighborsRandomWalk(build_api(graph), seed=0)
        result = walk.run(1, max_steps=10 * 2)  # path alternates leaf-hub
        # Outgoing choices after the edge (1 -> 0) and subsequent (x -> 0):
        # the first 5 departures from the hub after arriving from leaf 1 must
        # be distinct leaves before any repetition occurs.
        departures_after = {}
        path = result.path
        for i in range(1, len(path) - 1):
            if path[i] == 0:
                incoming = path[i - 1]
                departures_after.setdefault(incoming, []).append(path[i + 1])
        for incoming, departures in departures_after.items():
            first_cycle = departures[:5]
            assert len(set(first_cycle)) == len(first_cycle)

    def test_no_repeat_before_full_circulation_invariant(self, facebook_small):
        """For every directed edge, outgoing choices never repeat within a round."""
        walk = CirculatedNeighborsRandomWalk(build_api(facebook_small), seed=3)
        result = walk.run(facebook_small.nodes()[0], max_steps=2000)
        path = result.path
        seen = {}
        for i in range(1, len(path) - 1):
            key = (path[i - 1], path[i])
            bucket = seen.setdefault(key, [])
            degree = facebook_small.degree(path[i])
            if len(bucket) == degree:
                bucket.clear()
            assert path[i + 1] not in bucket
            bucket.append(path[i + 1])

    def test_history_is_per_edge_not_per_node(self):
        walk = CirculatedNeighborsRandomWalk(build_api(complete_graph(5)), seed=1)
        walk.run(0, max_steps=100)
        state = walk.history.state()
        sources = {key[0] for key in state}
        assert len(sources) > 1  # multiple incoming edges tracked separately

    def test_node_based_variant(self):
        walk = CirculatedNeighborsRandomWalk(
            build_api(complete_graph(5)), recurrence="node", seed=1
        )
        result = walk.run(0, max_steps=50)
        assert result.steps == 50
        assert walk.name == "CNRW-node"

    def test_invalid_recurrence(self):
        with pytest.raises(InvalidConfigurationError):
            CirculatedNeighborsRandomWalk(build_api(complete_graph(3)), recurrence="bogus")

    def test_reset_clears_history(self, facebook_small):
        walk = CirculatedNeighborsRandomWalk(build_api(facebook_small), seed=3)
        walk.run(facebook_small.nodes()[0], max_steps=100)
        assert walk.history.tracked_edges > 0
        walk.reset()
        assert walk.history.tracked_edges == 0

    def test_same_query_cost_as_srw_for_same_steps(self, facebook_small):
        """CNRW costs exactly the same queries per step as SRW (Section 3.3)."""
        start = facebook_small.nodes()[0]
        srw_api = build_api(facebook_small)
        cnrw_api = build_api(facebook_small)
        srw_result = SimpleRandomWalk(srw_api, seed=5).run(start, max_steps=200)
        cnrw_result = CirculatedNeighborsRandomWalk(cnrw_api, seed=5).run(start, max_steps=200)
        # Both issue one neighborhood query per distinct visited node.
        assert srw_result.unique_queries == len(set(srw_result.path))
        assert cnrw_result.unique_queries == len(set(cnrw_result.path))


class TestGNRW:
    def test_runs_with_default_hash_grouping(self, facebook_small):
        walk = GroupByNeighborsRandomWalk(build_api(facebook_small), seed=0)
        result = walk.run(facebook_small.nodes()[0], max_steps=200)
        assert result.steps == 200
        assert walk.name.startswith("GNRW[")

    def test_moves_stay_on_edges(self, facebook_small):
        walk = GroupByNeighborsRandomWalk(build_api(facebook_small), seed=1)
        result = walk.run(facebook_small.nodes()[0], max_steps=300)
        for u, v in zip(result.path, result.path[1:]):
            assert facebook_small.has_edge(u, v)

    def test_group_circulation_on_star(self):
        """With two explicit groups, consecutive departures alternate groups."""
        graph = star_graph(4)  # leaves 1..4
        grouping = ExplicitGrouping({1: "A", 2: "A", 3: "B", 4: "B"})
        walk = GroupByNeighborsRandomWalk(build_api(graph), grouping=grouping, seed=2)
        result = walk.run(1, max_steps=400)
        path = result.path
        # Collect the sequence of groups chosen on departures from the hub for
        # each incoming leaf; within each consecutive pair the groups must
        # alternate (each group attempted once before the memory resets).
        for incoming in range(1, 5):
            groups = []
            for i in range(1, len(path) - 1):
                if path[i] == 0 and path[i - 1] == incoming:
                    groups.append("A" if path[i + 1] in (1, 2) else "B")
            pairs = [groups[i: i + 2] for i in range(0, len(groups) - 1, 2)]
            for pair in pairs:
                if len(pair) == 2:
                    assert set(pair) == {"A", "B"}

    def test_single_group_reduces_to_cnrw_behaviour(self, facebook_small):
        grouping = HashGrouping(num_groups=1)
        walk = GroupByNeighborsRandomWalk(build_api(facebook_small), grouping=grouping, seed=3)
        result = walk.run(facebook_small.nodes()[0], max_steps=300)
        # The per-edge no-repeat-within-a-round invariant of CNRW must hold.
        path = result.path
        seen = {}
        for i in range(1, len(path) - 1):
            key = (path[i - 1], path[i])
            bucket = seen.setdefault(key, [])
            degree = facebook_small.degree(path[i])
            if len(bucket) == degree:
                bucket.clear()
            assert path[i + 1] not in bucket
            bucket.append(path[i + 1])

    def test_reset_clears_history(self, facebook_small):
        walk = GroupByNeighborsRandomWalk(build_api(facebook_small), seed=4)
        walk.run(facebook_small.nodes()[0], max_steps=100)
        assert walk.history.tracked_edges > 0
        walk.reset()
        assert walk.history.tracked_edges == 0

    def test_grouping_does_not_consume_budget(self, facebook_small):
        from repro.walks.grouping import DegreeGrouping

        api = build_api(facebook_small)
        walk = GroupByNeighborsRandomWalk(api, grouping=DegreeGrouping(), seed=5)
        result = walk.run(facebook_small.nodes()[0], max_steps=100)
        # Only visited nodes should have been billed, exactly like SRW.
        assert result.unique_queries == len(set(result.path))


class TestNBCNRW:
    def test_never_backtracks_when_alternatives_exist(self, facebook_small):
        walk = NonBacktrackingCNRW(build_api(facebook_small), seed=0)
        result = walk.run(facebook_small.nodes()[0], max_steps=300)
        path = result.path
        for i in range(2, len(path)):
            if facebook_small.degree(path[i - 1]) > 1:
                assert path[i] != path[i - 2]

    def test_moves_stay_on_edges(self, facebook_small):
        walk = NonBacktrackingCNRW(build_api(facebook_small), seed=1)
        result = walk.run(facebook_small.nodes()[0], max_steps=200)
        for u, v in zip(result.path, result.path[1:]):
            assert facebook_small.has_edge(u, v)

    def test_backtracks_only_on_degree_one(self):
        graph = Graph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        walk = NonBacktrackingCNRW(build_api(graph), seed=2)
        result = walk.run(1, max_steps=20)
        assert result.steps == 20


class TestWeightedRandomWalk:
    def test_uniform_weights_choose_neighbors_uniformly(self):
        # With constant weights the departure frequencies from a star's hub
        # must be uniform over the leaves, exactly like SRW.
        graph = star_graph(4)
        walk = WeightedRandomWalk(build_api(graph), weight_fn=lambda view, n: 1.0, seed=9)
        result = walk.run(0, max_steps=2000)
        counts = {leaf: 0 for leaf in range(1, 5)}
        for u, v in zip(result.path, result.path[1:]):
            if u == 0:
                counts[v] += 1
        total = sum(counts.values())
        for count in counts.values():
            assert count / total == pytest.approx(0.25, abs=0.05)

    def test_extreme_weights_follow_the_heavy_edge(self):
        graph = Graph()
        graph.add_edges([(0, 1), (0, 2)])
        walk = WeightedRandomWalk(
            build_api(graph), weight_fn=lambda view, n: 1000.0 if n == 1 else 0.0, seed=1
        )
        result = walk.run(0, max_steps=40)
        departures = [v for u, v in zip(result.path, result.path[1:]) if u == 0]
        assert set(departures) == {1}

    def test_zero_weights_fall_back_to_uniform(self):
        graph = cycle_graph(4)
        walk = WeightedRandomWalk(build_api(graph), weight_fn=lambda view, n: 0.0, seed=2)
        result = walk.run(0, max_steps=30)
        assert result.steps == 30


class TestBarbellBehaviour:
    def test_cnrw_crosses_bridge_at_least_as_often_as_srw(self):
        """Theorem 3's qualitative claim on a small barbell graph."""
        graph = barbell_graph(6)
        other_side = set(range(6, 12))
        crossings = {"srw": 0, "cnrw": 0}
        trials = 120
        for trial in range(trials):
            srw = SimpleRandomWalk(build_api(graph), seed=1000 + trial)
            cnrw = CirculatedNeighborsRandomWalk(build_api(graph), seed=1000 + trial)
            if any(node in other_side for node in srw.run(0, max_steps=60).path):
                crossings["srw"] += 1
            if any(node in other_side for node in cnrw.run(0, max_steps=60).path):
                crossings["cnrw"] += 1
        assert crossings["cnrw"] >= crossings["srw"] * 0.9
