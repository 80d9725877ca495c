"""Unit tests for the RandomWalk base machinery (run/sample/budget handling)."""

from __future__ import annotations

import pytest

from repro.api import QueryBudget, build_api
from repro.exceptions import DeadEndError, InvalidStartNodeError
from repro.graphs import Graph, complete_graph
from repro.walks import SimpleRandomWalk


class TestStartAndStep:
    def test_must_start_before_step(self, api):
        walk = SimpleRandomWalk(api, seed=0)
        with pytest.raises(InvalidStartNodeError):
            walk.step()

    def test_start_on_isolated_node(self):
        graph = Graph()
        graph.add_edge(1, 2)
        graph.add_node(3)
        walk = SimpleRandomWalk(build_api(graph), seed=0)
        with pytest.raises(InvalidStartNodeError):
            walk.start(3)

    def test_step_moves_to_a_neighbor(self, api, attributed_graph):
        walk = SimpleRandomWalk(api, seed=0)
        walk.start(0)
        transition = walk.step()
        assert transition.source == 0
        assert transition.target in attributed_graph.neighbors(0)
        assert walk.current == transition.target
        assert walk.previous == 0
        assert walk.step_index == 1

    def test_dead_end_detection(self):
        # A dead end can only be reached if the graph mutates mid-walk; build
        # the situation directly by removing edges after start.
        graph = Graph()
        graph.add_edge(1, 2)
        api = build_api(graph)
        walk = SimpleRandomWalk(api, seed=0)
        walk.start(1)
        graph.remove_edge(1, 2)
        api.cache.clear()
        with pytest.raises(DeadEndError):
            walk.step()

    def test_reset_clears_state(self, api):
        walk = SimpleRandomWalk(api, seed=0)
        walk.start(0)
        walk.step()
        walk.reset()
        assert walk.current is None
        assert walk.previous is None
        assert walk.step_index == 0


class TestRun:
    def test_fixed_steps(self, api):
        walk = SimpleRandomWalk(api, seed=1)
        result = walk.run(0, max_steps=25)
        assert result.steps == 25
        assert len(result.path) == 26
        assert len(result.samples) == 26  # burn_in=0, thinning=1
        assert not result.stopped_by_budget

    def test_burn_in_discards_prefix(self, api):
        walk = SimpleRandomWalk(api, seed=1)
        result = walk.run(0, max_steps=20, burn_in=5)
        assert all(sample.step_index >= 5 for sample in result.samples)
        assert len(result.samples) == 16

    def test_thinning(self, api):
        walk = SimpleRandomWalk(api, seed=1)
        result = walk.run(0, max_steps=20, thinning=4)
        assert len(result.samples) == 6  # steps 0, 4, 8, 12, 16, 20
        assert [sample.step_index for sample in result.samples] == [0, 4, 8, 12, 16, 20]

    def test_max_samples(self, api):
        walk = SimpleRandomWalk(api, seed=1)
        result = walk.run(0, max_samples=5)
        assert len(result.samples) == 5

    def test_budget_stops_walk(self, attributed_graph):
        api = build_api(attributed_graph, budget=QueryBudget(3))
        walk = SimpleRandomWalk(api, seed=2)
        result = walk.run(0, max_steps=10_000)
        assert result.stopped_by_budget
        assert result.unique_queries == 3

    def test_budget_exhausted_before_start(self, attributed_graph):
        budget = QueryBudget(1)
        api = build_api(attributed_graph, budget=budget)
        api.query(1)  # spend the only query on something else
        walk = SimpleRandomWalk(api, seed=2)
        result = walk.run(0, max_steps=10)
        assert result.stopped_by_budget
        assert result.path == []
        assert result.samples == []

    def test_unbounded_run_rejected(self, api):
        walk = SimpleRandomWalk(api, seed=0)
        with pytest.raises(ValueError):
            walk.run(0, max_steps=None)

    def test_invalid_parameters(self, api):
        walk = SimpleRandomWalk(api, seed=0)
        with pytest.raises(ValueError):
            walk.run(0, max_steps=5, thinning=0)
        with pytest.raises(ValueError):
            walk.run(0, max_steps=5, burn_in=-1)

    def test_walk_alias(self, api):
        walk = SimpleRandomWalk(api, seed=3)
        result = walk.walk(0, steps=10)
        assert result.steps == 10

    def test_path_is_contiguous(self, api, attributed_graph):
        walk = SimpleRandomWalk(api, seed=4)
        result = walk.run(0, max_steps=50)
        for u, v in zip(result.path, result.path[1:]):
            assert attributed_graph.has_edge(u, v)

    def test_sample_fields(self, api, attributed_graph):
        walk = SimpleRandomWalk(api, seed=5)
        result = walk.run(0, max_steps=10)
        for sample in result.samples:
            assert sample.degree == attributed_graph.degree(sample.node)
            assert sample.attributes["age"] == attributed_graph.attribute(sample.node, "age")
            assert sample.query_cost <= result.unique_queries

    def test_visit_counts(self, api):
        walk = SimpleRandomWalk(api, seed=6)
        result = walk.run(0, max_steps=30)
        counts = result.visit_counts()
        assert sum(counts.values()) == len(result.path)

    def test_sample_nodes_helper(self, api):
        walk = SimpleRandomWalk(api, seed=6)
        result = walk.run(0, max_steps=10)
        assert result.sample_nodes() == [sample.node for sample in result.samples]


class TestIterSteps:
    def test_streaming_until_budget(self, attributed_graph):
        api = build_api(attributed_graph, budget=QueryBudget(4))
        walk = SimpleRandomWalk(api, seed=7)
        transitions = list(walk.iter_steps(0))
        assert len(transitions) >= 1
        assert api.budget.exhausted

    def test_streaming_with_exhausted_budget(self, attributed_graph):
        api = build_api(attributed_graph, budget=QueryBudget(0))
        walk = SimpleRandomWalk(api, seed=7)
        assert list(walk.iter_steps(0)) == []


class TestDeterminism:
    def test_same_seed_same_walk(self, attributed_graph):
        a = SimpleRandomWalk(build_api(attributed_graph), seed=42).run(0, max_steps=50)
        b = SimpleRandomWalk(build_api(attributed_graph), seed=42).run(0, max_steps=50)
        assert a.path == b.path

    def test_different_seed_different_walk(self, attributed_graph):
        a = SimpleRandomWalk(build_api(attributed_graph), seed=1).run(0, max_steps=50)
        b = SimpleRandomWalk(build_api(attributed_graph), seed=2).run(0, max_steps=50)
        assert a.path != b.path

    def test_complete_graph_visits_everything(self):
        graph = complete_graph(6)
        walk = SimpleRandomWalk(build_api(graph), seed=0)
        result = walk.run(0, max_steps=200)
        assert set(result.path) == set(graph.nodes())
