"""Unit tests for the simulated restrictive-access API."""

from __future__ import annotations

import pytest

from repro.api import QueryBudget, TraceLayer, build_api
from repro.api.ratelimit import FixedWindowPolicy, SimulatedClock
from repro.exceptions import NodeNotFoundError, QueryBudgetExceededError


class TestQueryAccounting:
    def test_unique_vs_total_queries(self, api):
        api.query(0)
        api.query(0)
        api.query(1)
        assert api.unique_queries == 2
        assert api.total_queries == 3

    def test_duplicate_queries_are_free(self, attributed_graph):
        api = build_api(attributed_graph, budget=QueryBudget(1))
        api.query(0)
        # Repeating the same node must not consume the exhausted budget.
        view = api.query(0)
        assert view.node == 0
        assert api.unique_queries == 1

    def test_budget_enforced(self, attributed_graph):
        api = build_api(attributed_graph, budget=QueryBudget(2))
        api.query(0)
        api.query(1)
        with pytest.raises(QueryBudgetExceededError):
            api.query(2)
        assert api.unique_queries == 2

    def test_reset_counters(self, api):
        api.query(0)
        api.query(1)
        api.reset_counters()
        assert api.unique_queries == 0
        assert api.total_queries == 0

    def test_missing_node(self, api):
        with pytest.raises(NodeNotFoundError):
            api.query(999)
        # Failed queries are not billed.
        assert api.unique_queries == 0


class TestNodeView:
    def test_view_contents(self, api, attributed_graph):
        view = api.query(0)
        assert view.node == 0
        assert set(view.neighbors) == set(attributed_graph.neighbors(0))
        assert view.degree == attributed_graph.degree(0)
        assert view.attributes["age"] == 20

    def test_convenience_wrappers(self, api, attributed_graph):
        assert set(api.neighbors(1)) == set(attributed_graph.neighbors(1))
        assert api.degree(1) == attributed_graph.degree(1)
        assert api.attributes(1)["city"] == "austin"

    def test_shuffled_neighbor_order_is_stable_per_node(self, attributed_graph):
        api = build_api(attributed_graph, shuffle_neighbors=True, seed=5)
        first = api.query(0).neighbors
        second = api.query(0).neighbors
        assert first == second

    def test_peek_metadata_is_free(self, api):
        metadata = api.peek_metadata(0)
        assert metadata["degree"] == 3
        assert metadata["attributes"]["age"] == 20
        assert api.unique_queries == 0
        assert api.peek_metadata(999) is None


class TestRateLimitIntegration:
    def test_rate_limited_queries_advance_clock(self, attributed_graph):
        clock = SimulatedClock()
        api = build_api(
            attributed_graph,
            rate_limit=FixedWindowPolicy(max_calls=2, window_seconds=60.0),
            clock=clock,
        )
        api.query(0)
        api.query(1)
        assert clock.now == 0.0
        api.query(2)
        assert clock.now == pytest.approx(60.0)

    def test_cache_hits_do_not_touch_rate_limit(self, attributed_graph):
        clock = SimulatedClock()
        api = build_api(
            attributed_graph,
            rate_limit=FixedWindowPolicy(max_calls=1, window_seconds=60.0),
            clock=clock,
        )
        api.query(0)
        for _ in range(5):
            api.query(0)
        assert clock.now == 0.0


class TestLRUCacheMode:
    def test_evicted_nodes_are_billed_again(self, attributed_graph):
        api = build_api(attributed_graph, cache_capacity=1)
        api.query(0)
        api.query(1)  # evicts 0
        api.query(0)  # billed again
        assert api.unique_queries == 3


class TestRandomNode:
    def test_random_node_is_in_graph(self, api, attributed_graph):
        node = api.random_node(seed=3)
        assert attributed_graph.has_node(node)

    def test_random_node_reproducible(self, attributed_graph):
        api = build_api(attributed_graph)
        assert api.random_node(seed=3) == api.random_node(seed=3)


class TestTraceLayer:
    def test_trace_records_fresh_and_cached(self, api):
        traced = TraceLayer(api)
        traced.query(0)
        traced.query(0)
        traced.query(1)
        assert len(traced.trace) == 3
        assert traced.trace.fresh_nodes == [0, 1]
        assert traced.trace.frequency()[0] == 2
        assert traced.unique_queries == 2
        assert traced.total_queries == 3

    def test_delegates_extra_attributes(self, api):
        traced = TraceLayer(api)
        assert traced.graph is api.graph
        assert traced.peek_metadata(0) is not None

    def test_reset_clears_trace(self, api):
        traced = TraceLayer(api)
        traced.query(0)
        traced.reset_counters()
        assert len(traced.trace) == 0
        assert traced.unique_queries == 0
