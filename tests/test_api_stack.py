"""Tests for the composable access layer: backends, middleware, builder.

The key property is *stack equivalence*: a ``build_api`` stack must be
walk-for-walk identical to the legacy monolithic ``GraphAPI`` under fixed
seeds — same paths, same unique/total query counts, same traces — because the
paper's cost model and every experiment's reproducibility depend on the
accounting being exact.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.api import (
    BackendAPI,
    BudgetLayer,
    CSRBackend,
    CacheLayer,
    InMemoryBackend,
    QueryBudget,
    RateLimitLayer,
    SamplingSession,
    ShuffleLayer,
    TraceLayer,
    build_api,
    describe_stack,
    iter_layers,
    resolve_attribute,
)
from repro.api.ratelimit import FixedWindowPolicy, SimulatedClock
from repro.exceptions import InvalidConfigurationError, NodeNotFoundError, QueryBudgetExceededError
from repro.graphs import load_dataset
from repro.walks import make_walker


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class TestInMemoryBackend:
    def test_fetch_matches_graph(self, attributed_graph):
        backend = InMemoryBackend(attributed_graph)
        record = backend.fetch(0)
        assert record.node == 0
        assert set(record.neighbors) == set(attributed_graph.neighbors(0))
        assert record.attributes["age"] == 20
        assert record.degree == attributed_graph.degree(0)

    def test_missing_node_raises(self, attributed_graph):
        backend = InMemoryBackend(attributed_graph)
        with pytest.raises(NodeNotFoundError):
            backend.fetch(999)
        assert not backend.contains(999)

    def test_metadata_is_free_profile(self, attributed_graph):
        backend = InMemoryBackend(attributed_graph)
        metadata = backend.metadata(0)
        assert metadata["degree"] == attributed_graph.degree(0)
        assert backend.metadata(999) is None


class TestCSRBackend:
    def test_matches_in_memory_backend(self, attributed_graph):
        memory = InMemoryBackend(attributed_graph)
        csr = CSRBackend.from_graph(attributed_graph)
        assert len(csr) == attributed_graph.number_of_nodes
        assert csr.number_of_edges == attributed_graph.number_of_edges
        for node in attributed_graph.nodes():
            a = memory.fetch(node)
            b = csr.fetch(node)
            assert sorted(a.neighbors, key=repr) == sorted(b.neighbors, key=repr)
            assert a.attributes == b.attributes
            assert csr.metadata(node)["degree"] == attributed_graph.degree(node)

    def test_fetch_many_order_and_values(self, attributed_graph):
        csr = CSRBackend.from_graph(attributed_graph)
        records = csr.fetch_many([2, 0, 2])
        assert [record.node for record in records] == [2, 0, 2]
        assert set(records[0].neighbors) == set(attributed_graph.neighbors(2))

    def test_missing_node_raises(self, attributed_graph):
        csr = CSRBackend.from_graph(attributed_graph)
        with pytest.raises(NodeNotFoundError):
            csr.fetch(999)

    def test_from_edges_identity_ids(self):
        csr = CSRBackend.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert len(csr) == 4
        assert csr.number_of_edges == 4
        assert sorted(csr.fetch(2).neighbors) == [0, 1, 3]
        # Duplicate and reversed edges collapse.
        dup = CSRBackend.from_edges([(0, 1), (1, 0), (0, 1)])
        assert dup.number_of_edges == 1

    def test_from_edges_drops_self_loops(self):
        csr = CSRBackend.from_edges([(0, 1), (1, 1)])
        assert sorted(csr.fetch(1).neighbors) == [0]

    def test_from_edges_validates_ids(self):
        with pytest.raises(ValueError, match="num_nodes"):
            CSRBackend.from_edges([(0, 5), (1, 2)], num_nodes=3)
        with pytest.raises(ValueError, match="non-negative"):
            CSRBackend.from_edges([(0, 1), (-2, 1)])
        with pytest.raises(ValueError, match="non-self-loop"):
            CSRBackend.from_edges([(3, 3), (5, 5)])

    def test_records_do_not_share_attribute_dicts(self, attributed_graph):
        csr = CSRBackend.from_edges([(0, 1), (1, 2)])
        record = csr.fetch(0)
        record.attributes["poison"] = 1
        assert "poison" not in csr.fetch(0).attributes
        other = CSRBackend.from_graph(attributed_graph)
        view = other.fetch(0)
        view.attributes["poison"] = 1
        assert "poison" not in other.fetch(0).attributes

    def test_non_integer_ids(self):
        from repro.graphs import Graph

        graph = Graph()
        graph.add_edges([("a", "b"), ("b", "c")])
        csr = CSRBackend.from_graph(graph)
        assert set(csr.fetch("b").neighbors) == {"a", "c"}
        assert csr.contains("a") and not csr.contains("z")

    def test_from_edges_dedup_matches_in_memory_semantics(self):
        """Duplicate and mirrored input edges collapse to one simple edge.

        ``Graph.add_edge`` ignores duplicates, so an :class:`InMemoryBackend`
        built from the same messy edge list is the degree/edge-count
        reference the CSR compiler must agree with.
        """
        from repro.graphs import undirected_from_edges

        edges = [(0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (1, 2), (3, 0), (0, 3)]
        memory = InMemoryBackend(undirected_from_edges(edges))
        csr = CSRBackend.from_edges(edges)
        assert csr.number_of_edges == memory.graph.number_of_edges == 3
        for node in range(4):
            a = memory.fetch(node)
            b = csr.fetch(node)
            assert a.degree == b.degree
            assert sorted(a.neighbors) == sorted(b.neighbors)
            assert len(b.neighbors) == len(set(b.neighbors)), "duplicate slot leaked"

    def test_from_edges_self_loops_never_count(self):
        """Self-loops neither create adjacency slots nor inflate edge counts."""
        from repro.graphs import undirected_from_edges

        edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 2)]
        memory = InMemoryBackend(undirected_from_edges(edges))
        csr = CSRBackend.from_edges(edges)
        assert csr.number_of_edges == memory.graph.number_of_edges == 2
        for node in range(3):
            assert node not in csr.fetch(node).neighbors
            assert csr.metadata(node)["degree"] == memory.metadata(node)["degree"]

    def test_from_graph_pins_degrees_against_in_memory(self):
        """``from_graph`` inherits the graph's already-simple adjacency."""
        from repro.graphs import Graph

        graph = Graph()
        for u, v in [(0, 1), (0, 1), (1, 0), (1, 2), (2, 0)]:
            graph.add_edge(u, v)  # duplicates ignored by the graph itself
        memory = InMemoryBackend(graph)
        csr = CSRBackend.from_graph(graph)
        assert csr.number_of_edges == graph.number_of_edges == 3
        for node in graph.nodes():
            assert csr.fetch(node) == memory.fetch(node)


# ----------------------------------------------------------------------
# Middleware stack behaviour
# ----------------------------------------------------------------------
class TestStackAccounting:
    def test_default_stack_counts_like_graphapi(self, attributed_graph):
        api = build_api(attributed_graph)
        api.query(0)
        api.query(0)
        api.query(1)
        assert api.unique_queries == 2
        assert api.total_queries == 3

    def test_budget_layer_enforces_and_preserves_on_missing(self, attributed_graph):
        api = build_api(attributed_graph, budget=2)
        api.query(0)
        with pytest.raises(NodeNotFoundError):
            api.query(999)
        # The failed query costs nothing.
        assert api.budget.spent == 1
        api.query(1)
        with pytest.raises(QueryBudgetExceededError):
            api.query(2)
        assert api.unique_queries == 2

    def test_budget_rejected_attempt_still_counts_total(self, attributed_graph):
        """The historic GraphAPI counted total_queries before the budget
        raised; rejected attempts must keep doing so."""
        api = build_api(attributed_graph, budget=2)
        api.query(0)
        api.query(1)
        with pytest.raises(QueryBudgetExceededError):
            api.query(2)
        assert api.total_queries == 3
        assert api.unique_queries == 2
        # Cache hits remain free after exhaustion, as before.
        api.query(0)
        assert api.total_queries == 4

    @pytest.mark.parametrize("limit", [np.int64(3), np.int32(3), np.uint16(3)], ids=repr)
    def test_numpy_integer_budget_is_a_limit(self, attributed_graph, limit):
        api = build_api(CSRBackend.from_graph(attributed_graph), budget=limit)
        for node in (0, 1, 2):
            api.query(node)
        with pytest.raises(QueryBudgetExceededError):
            api.query(3)
        assert api.budget.limit == 3 and type(api.budget.limit) is int
        assert api.query_many([0, 1]) and api.unique_queries == 3

    def test_numpy_integer_budget_runs_a_session(self, attributed_graph):
        session = SamplingSession(attributed_graph, seed=1).budget(np.int64(4)).walker("srw", seed=1)
        result = session.run(max_steps=None)
        assert result.stopped_by_budget and result.unique_queries == 4

    @pytest.mark.parametrize("budget", [True, False, np.bool_(True), 3.0, "3", [3]], ids=repr)
    def test_non_integer_budget_is_refused_when_the_stack_is_built(self, attributed_graph, budget):
        with pytest.raises(InvalidConfigurationError, match="budget"):
            build_api(attributed_graph, budget=budget)
        session = SamplingSession(attributed_graph, seed=1).budget(budget).walker("srw", seed=1)
        with pytest.raises(InvalidConfigurationError, match="budget"):
            session.run(max_steps=None)

    def test_rate_limit_layer_advances_clock_for_fresh_only(self, attributed_graph):
        clock = SimulatedClock()
        api = build_api(
            attributed_graph,
            rate_limit=FixedWindowPolicy(max_calls=2, window_seconds=60.0),
            clock=clock,
        )
        api.query(0)
        api.query(1)
        for _ in range(5):
            api.query(0)  # cache hits are free
        assert clock.now == 0.0
        api.query(2)
        assert clock.now == pytest.approx(60.0)

    def test_shuffle_layer_is_stable_per_node(self, attributed_graph):
        api = build_api(attributed_graph, shuffle_neighbors=True, seed=5)
        assert api.query(0).neighbors == api.query(0).neighbors

    def test_lru_cache_rebills_evictions(self, attributed_graph):
        api = build_api(attributed_graph, cache_capacity=1)
        api.query(0)
        api.query(1)
        api.query(0)
        assert api.unique_queries == 3

    def test_reset_counters_resets_every_layer(self, attributed_graph):
        clock = SimulatedClock()
        api = build_api(
            attributed_graph,
            budget=5,
            rate_limit=FixedWindowPolicy(max_calls=1, window_seconds=10.0),
            clock=clock,
            trace=True,
        )
        api.query(0)
        api.query(1)
        api.reset_counters()
        assert api.unique_queries == 0
        assert api.total_queries == 0
        assert api.budget.spent == 0
        assert len(api.trace) == 0
        assert len(api.cache) == 0

    def test_delegation_reaches_backend(self, attributed_graph):
        api = build_api(attributed_graph, budget=5)
        assert api.graph is attributed_graph
        assert api.budget.limit == 5
        assert api.peek_metadata(0)["degree"] == attributed_graph.degree(0)
        node = api.random_node(seed=3)
        assert attributed_graph.has_node(node)

    def test_describe_stack_order(self, attributed_graph):
        api = build_api(
            attributed_graph,
            budget=5,
            rate_limit=FixedWindowPolicy(max_calls=1, window_seconds=1.0),
            shuffle_neighbors=True,
            trace=True,
        )
        assert describe_stack(api) == (
            "trace -> cache -> budget -> rate-limit -> shuffle -> "
            f"backend[memory:{attributed_graph.name}]"
        )
        layers = list(iter_layers(api))
        assert isinstance(layers[0], TraceLayer)
        assert isinstance(layers[-1], BackendAPI)

    def test_resolve_attribute_finds_the_answering_layer(self, attributed_graph):
        api = build_api(attributed_graph, budget=5, rate_limit=FixedWindowPolicy(5, 1.0),
                        shuffle_neighbors=True, trace=True)
        core = list(iter_layers(api))[-1]
        assert resolve_attribute(api, "unique_queries") == (core.stats, "unique")
        assert resolve_attribute(api, "peek_metadata") == (core.backend, "metadata")
        assert resolve_attribute(api, "cache") == (api.inner, "cache")
        budget_owner, _ = resolve_attribute(api, "budget")
        assert isinstance(budget_owner, BudgetLayer) and budget_owner.budget is api.budget
        api.query(0)
        assert getattr(*resolve_attribute(api, "unique_queries")) == api.unique_queries == 1

    def test_resolve_attribute_stops_at_an_overriding_layer(self, attributed_graph):
        class Doubled(TraceLayer):
            @property
            def unique_queries(self):
                return 2 * self.inner.unique_queries

        api = build_api(attributed_graph, layers=[Doubled])
        assert resolve_attribute(api, "unique_queries") == (api, "unique_queries")
        plain = InMemoryBackend(attributed_graph)
        assert resolve_attribute(plain, "peek_metadata") == (plain, "peek_metadata")


class TestQueryMany:
    def test_batch_equals_sequential_accounting(self, attributed_graph):
        sequential = build_api(attributed_graph, budget=10)
        batched = build_api(attributed_graph, budget=10)
        nodes = [0, 1, 0, 2, 1]
        views_seq = [sequential.query(node) for node in nodes]
        views_batch = batched.query_many(nodes)
        assert [v.node for v in views_batch] == [v.node for v in views_seq]
        assert [set(v.neighbors) for v in views_batch] == [set(v.neighbors) for v in views_seq]
        assert batched.unique_queries == sequential.unique_queries == 3
        assert batched.total_queries == sequential.total_queries == 5
        assert batched.budget.spent == sequential.budget.spent == 3

    def test_batch_respects_budget_exhaustion_point(self, attributed_graph):
        api = build_api(attributed_graph, budget=2)
        with pytest.raises(QueryBudgetExceededError):
            api.query_many([0, 1, 2, 3])
        assert api.unique_queries == 2
        assert api.budget.spent == 2

    def test_batch_exhaustion_caches_billed_views(self, attributed_graph):
        """Budget spent mid-batch must leave the billed views cached, so a
        re-query of an already-billed node stays free (per-query semantics)."""
        api = build_api(attributed_graph, budget=1)
        with pytest.raises(QueryBudgetExceededError):
            api.query_many([0, 1])
        assert api.budget.spent == 1
        view = api.query(0)  # cache hit: must not raise or bill
        assert view.node == 0
        assert api.budget.spent == 1

    def test_budget_layer_alone_spends_remaining_budget(self, attributed_graph):
        """Without a cache above it, an unaffordable batch still bills the
        remaining budget sequentially and raises at the right node — the
        budget is never silently forfeited."""
        core = BackendAPI(InMemoryBackend(attributed_graph))
        layer = BudgetLayer(core, QueryBudget(2))
        with pytest.raises(QueryBudgetExceededError):
            layer.query_many([0, 1, 2])
        assert layer.budget.spent == 2
        assert core.unique_queries == 2

    def test_cacheless_stack_batch_matches_sequential(self, attributed_graph):
        api = build_api(attributed_graph, budget=2, cache=False)
        with pytest.raises(QueryBudgetExceededError):
            api.query_many([0, 1, 2, 3])
        assert api.unique_queries == 2
        assert api.total_queries == 3  # two billed + the rejected attempt

    def test_lru_cache_batch_matches_sequential(self, attributed_graph):
        """A batch bigger than a bounded cache must not thrash itself into
        extra billing; accounting equals the sequential loop."""
        nodes = [0, 1, 2, 0, 0]
        batched = build_api(attributed_graph, cache_capacity=2)
        batched.query_many(nodes)
        sequential = build_api(attributed_graph, cache_capacity=2)
        for node in nodes:
            sequential.query(node)
        assert batched.unique_queries == sequential.unique_queries
        assert batched.total_queries == sequential.total_queries

    def test_batch_missing_node_counts_attempted_calls(self, attributed_graph):
        api = build_api(attributed_graph)
        with pytest.raises(NodeNotFoundError):
            api.query_many([0, 999, 1])
        # total counts what a sequential loop would have attempted (nodes 0
        # and 999); the aborted batch delivers nothing, so nothing is billed.
        assert api.total_queries == 2
        assert api.unique_queries == 0
        assert api.query(0).node == 0  # graph still fully usable afterwards

    def test_budget_fallback_unknown_node_caches_billed_views(self, attributed_graph):
        """An unknown node interrupting the budget-degraded sequential path
        must not discard the views that were already billed."""
        api = build_api(attributed_graph, budget=3)
        with pytest.raises(NodeNotFoundError):
            api.query_many([0, 1, 999, 2])
        assert api.budget.spent == 2
        api.query(0)
        api.query(1)
        assert api.budget.spent == 2  # both served from cache, no re-billing

    def test_batch_missing_node_counts_preceding_hits(self, attributed_graph):
        api = build_api(attributed_graph)
        api.query(0)
        with pytest.raises(NodeNotFoundError):
            api.query_many([0, 999])
        # Sequential loop: one billed query, one cache hit, one failed attempt.
        assert api.total_queries == 3
        assert api.unique_queries == 1

    def test_builder_rejects_conflicting_backend_request(self, attributed_graph):
        backend = InMemoryBackend(attributed_graph)
        with pytest.raises(ValueError, match="conflicts"):
            build_api(backend, backend="csr")
        # Matching or unspecified kinds pass the backend through unchanged.
        assert build_api(backend).backend is backend
        csr = CSRBackend.from_graph(attributed_graph)
        assert build_api(csr, backend="csr").backend is csr

    def test_batch_through_rate_limit_charges_fresh_only(self, attributed_graph):
        clock = SimulatedClock()
        api = build_api(
            attributed_graph,
            rate_limit=FixedWindowPolicy(max_calls=2, window_seconds=60.0),
            clock=clock,
        )
        api.query_many([0, 0, 0, 1])
        assert clock.now == 0.0
        api.query_many([0, 1, 2])  # only node 2 is fresh -> third call waits
        assert clock.now == pytest.approx(60.0)

    def test_trace_layer_records_one_entry_per_batch(self, attributed_graph):
        """A traced batch is one record, but node-level views stay per-node."""
        api = build_api(attributed_graph, trace=True)
        api.query_many([0, 1, 0])
        assert len(api.trace) == 1
        (batch,) = api.trace.batches
        assert batch.nodes == (0, 1, 0)
        assert batch.fresh == (True, True, False)
        assert api.trace.queried_nodes == [0, 1, 0]
        assert api.trace.fresh_nodes == [0, 1]
        assert api.trace.frequency() == {0: 2, 1: 1}

    def test_trace_layer_batches_do_not_break_amortisation(self, attributed_graph):
        """Tracing forwards the batch instead of degrading to per-node calls,
        so the layers below see one query_many (ROADMAP open item)."""
        calls = []

        traced = build_api(attributed_graph, trace=True)
        inner = traced.inner
        original = inner.query_many

        def spy(nodes):
            calls.append(list(nodes))
            return original(nodes)

        inner.query_many = spy
        traced.query_many([0, 1, 2, 1])
        assert calls == [[0, 1, 2, 1]]

    def test_trace_layer_mixes_single_and_batch_records(self, attributed_graph):
        api = build_api(attributed_graph, trace=True)
        api.query(0)
        api.query_many([1, 0])
        api.query(2)
        assert len(api.trace) == 3
        assert api.trace.queried_nodes == [0, 1, 0, 2]
        assert api.trace.fresh_nodes == [0, 1, 2]
        assert api.trace.frequency() == {0: 2, 1: 1, 2: 1}

    def test_default_implementation_on_plain_api(self, attributed_graph):
        api = build_api(attributed_graph)
        views = api.query_many([0, 1])
        assert [view.node for view in views] == [0, 1]
        assert api.unique_queries == 2


# ----------------------------------------------------------------------
# Stack equivalence with the legacy GraphAPI
# ----------------------------------------------------------------------
# Golden fingerprints recorded by running the *pre-refactor* monolithic
# GraphAPI (seed commit, before it became a shim over build_api) on
# load_dataset("facebook_like", seed=7, scale=0.12) — the facebook_small
# fixture — with start=nodes()[0], walker seed 7 and a budget of 60 unique
# queries.  Every walk stops on budget exhaustion, and the recorded totals
# include the final budget-rejected attempt, exactly as the historic
# accounting did.  The monolith is gone and build_api is the one way to
# build a stack, so only these constants can detect drift from it.
LEGACY_GOLDEN = {
    "srw": dict(unique=60, total=309, path_len=155, last=86, crc=4134503233),
    "cnrw": dict(unique=60, total=313, path_len=157, last=20, crc=4053506785),
    "gnrw_by_degree": dict(unique=60, total=265, path_len=133, last=47, crc=3972249094),
    "nbcnrw": dict(unique=60, total=251, path_len=126, last=18, crc=2042235279),
    "mhrw": dict(unique=60, total=405, path_len=203, last=82, crc=726656939),
}
#: Same graph, shuffle_neighbors=True with seed=3, SRW seed=5, max_steps=200.
LEGACY_SHUFFLE_GOLDEN = dict(crc=1554129168, unique=70, total=401)


def _path_crc(path):
    import zlib

    return zlib.crc32(",".join(map(str, path)).encode())


@pytest.mark.parametrize("walker_name", sorted(LEGACY_GOLDEN))
@pytest.mark.parametrize("make_api", [
    pytest.param(lambda g: build_api(g, budget=60), id="build_api-stack"),
])
def test_walks_match_pre_refactor_golden_values(facebook_small, walker_name, make_api):
    api = make_api(facebook_small)
    start = facebook_small.nodes()[0]
    result = make_walker(walker_name, api=api, seed=7).run(start, max_steps=None)
    golden = LEGACY_GOLDEN[walker_name]
    assert result.stopped_by_budget
    assert result.unique_queries == golden["unique"]
    assert result.total_queries == golden["total"]
    assert len(result.path) == golden["path_len"]
    assert result.path[-1] == golden["last"]
    assert _path_crc(result.path) == golden["crc"]


def test_shuffled_walk_matches_pre_refactor_golden_values(facebook_small):
    api = build_api(facebook_small, shuffle_neighbors=True, seed=3)
    start = facebook_small.nodes()[0]
    result = make_walker("srw", api=api, seed=5).run(start, max_steps=200)
    assert _path_crc(result.path) == LEGACY_SHUFFLE_GOLDEN["crc"]
    assert result.unique_queries == LEGACY_SHUFFLE_GOLDEN["unique"]
    assert result.total_queries == LEGACY_SHUFFLE_GOLDEN["total"]


@pytest.mark.parametrize("walker_name", ["cnrw", "gnrw_by_degree"])
def test_stack_traces_identical_to_legacy_graphapi(facebook_small, walker_name):
    budget = 80
    legacy_api = TraceLayer(build_api(facebook_small, budget=QueryBudget(budget)))
    stacked_api = build_api(facebook_small, budget=budget, trace=True)
    start = facebook_small.nodes()[0]

    make_walker(walker_name, api=legacy_api, seed=11).run(start, max_steps=None)
    make_walker(walker_name, api=stacked_api, seed=11).run(start, max_steps=None)

    assert stacked_api.trace.queried_nodes == legacy_api.trace.queried_nodes
    assert stacked_api.trace.fresh_nodes == legacy_api.trace.fresh_nodes


def test_csr_backend_stack_visits_same_node_set(facebook_small):
    """CSR serves the same topology; walks agree whenever neighbor order does."""
    memory_api = build_api(facebook_small)
    csr_api = build_api(facebook_small, backend="csr")
    for node in list(facebook_small.nodes())[:50]:
        a = memory_api.query(node)
        b = csr_api.query(node)
        assert set(a.neighbors) == set(b.neighbors)
        assert a.attributes == b.attributes


# ----------------------------------------------------------------------
# Delegation / lifecycle regressions
# ----------------------------------------------------------------------
class TestLayerDelegation:
    def test_missing_attribute_raises_attribute_error(self, api):
        layer = TraceLayer(api)
        with pytest.raises(AttributeError):
            layer.does_not_exist

    def test_copy_does_not_recurse(self, api):
        layer = TraceLayer(api)
        clone = copy.copy(layer)
        assert clone.inner is api
        # A deepcopy goes through __reduce_ex__ on a half-built instance; the
        # guarded __getattr__ must raise AttributeError instead of recursing.
        deep = copy.deepcopy(layer)
        assert deep.unique_queries == layer.unique_queries

    def test_pickle_roundtrip(self, attributed_graph):
        layer = TraceLayer(build_api(attributed_graph))
        layer.query(0)
        restored = pickle.loads(pickle.dumps(layer))
        assert restored.trace.queried_nodes == [0]
        assert restored.unique_queries == 1

    def test_manual_stack_composition(self, attributed_graph):
        """Layers compose by hand without the builder."""
        core = BackendAPI(InMemoryBackend(attributed_graph))
        api = CacheLayer(BudgetLayer(core, QueryBudget(3)))
        api.query(0)
        api.query(0)
        assert api.unique_queries == 1
        assert api.total_queries == 2
        assert api.budget.remaining == 2

    def test_rate_limit_layer_creates_clock(self, attributed_graph):
        core = BackendAPI(InMemoryBackend(attributed_graph))
        layer = RateLimitLayer(core, FixedWindowPolicy(max_calls=1, window_seconds=5.0))
        layer.query(0)
        layer.query(1)
        assert layer.clock.now == pytest.approx(5.0)

    def test_shuffle_layer_preserves_view_fields(self, attributed_graph):
        core = BackendAPI(InMemoryBackend(attributed_graph))
        layer = ShuffleLayer(core, rng=0)
        view = layer.query(0)
        assert view.node == 0
        assert set(view.neighbors) == set(attributed_graph.neighbors(0))
        assert view.attributes["age"] == 20
