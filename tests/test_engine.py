"""Tests for the walk-engine scheduler (`repro.engine`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SamplingSession, SchedulerPolicy, WalkScheduler, build_api
from repro.api.backend import GraphBackend, RawRecord
from repro.exceptions import DeadEndError, InvalidConfigurationError, InvalidStartNodeError
from repro.walks import make_walker

ALL_WALKERS = ["srw", "mhrw", "nbsrw", "cnrw", "cnrw_node", "nbcnrw", "gnrw_by_degree", "gnrw_by_md5"]


def _schedule(graph_or_backend, names_seeds, starts, *, budget=None, steps=None,
              policy=None, burn_in=0, thinning=1):
    """Build a fresh stack plus walkers and run one schedule."""
    api = build_api(graph_or_backend, budget=budget)
    walkers = [make_walker(name, api=api, seed=seed) for name, seed in names_seeds]
    results = WalkScheduler(api, policy=policy).run(
        walkers, starts, steps=steps, burn_in=burn_in, thinning=thinning
    )
    return api, results


class TestSequentialParity:
    """The scheduler must reproduce RandomWalk.run bit for bit."""

    @pytest.mark.parametrize("name", ALL_WALKERS)
    def test_steps_bounded_walks_match_run(self, facebook_small, name):
        start = facebook_small.nodes()[0]
        reference = make_walker(name, api=build_api(facebook_small), seed=7).run(
            start, max_steps=120
        )
        _, results = _schedule(facebook_small, [(name, 7)], [start], steps=120)
        scheduled = results[0]
        assert scheduled.path == reference.path
        assert [s.node for s in scheduled.samples] == [s.node for s in reference.samples]
        assert [s.query_cost for s in scheduled.samples] == [
            s.query_cost for s in reference.samples
        ]
        assert scheduled.unique_queries == reference.unique_queries

    @pytest.mark.parametrize("name", ALL_WALKERS)
    def test_budget_bounded_walks_match_run(self, facebook_small, name):
        """The LEGACY_GOLDEN configuration: walk until a 60-query budget dies."""
        start = facebook_small.nodes()[0]
        reference = make_walker(name, api=build_api(facebook_small, budget=60), seed=7).run(
            start, max_steps=None
        )
        _, results = _schedule(facebook_small, [(name, 7)], [start], budget=60)
        scheduled = results[0]
        assert scheduled.path == reference.path
        assert scheduled.stopped_by_budget and reference.stopped_by_budget
        assert scheduled.unique_queries == reference.unique_queries == 60

    def test_burn_in_and_thinning_match_run(self, facebook_small):
        start = facebook_small.nodes()[0]
        reference = make_walker("cnrw", api=build_api(facebook_small), seed=3).run(
            start, max_steps=90, burn_in=10, thinning=3
        )
        _, results = _schedule(
            facebook_small, [("cnrw", 3)], [start], steps=90, burn_in=10, thinning=3
        )
        scheduled = results[0]
        assert scheduled.path == reference.path
        assert [(s.node, s.step_index) for s in scheduled.samples] == [
            (s.node, s.step_index) for s in reference.samples
        ]

    def test_scheduler_issues_fewer_total_queries(self, facebook_small):
        """View-fed stepping removes the per-walker cache-hit query calls."""
        start = facebook_small.nodes()[0]
        reference_api = build_api(facebook_small)
        make_walker("srw", api=reference_api, seed=7).run(start, max_steps=120)
        api, _ = _schedule(facebook_small, [("srw", 7)], [start], steps=120)
        assert api.unique_queries == reference_api.unique_queries
        assert api.total_queries < reference_api.total_queries


class TestFrontierBatching:
    def test_duplicate_frontier_nodes_fetched_once(self, facebook_small):
        """Identical walkers collapse to a frontier of one node per round."""
        start = facebook_small.nodes()[0]
        solo_api, solo = _schedule(facebook_small, [("cnrw", 9)], [start], steps=40)
        quad_api, quad = _schedule(
            facebook_small, [("cnrw", 9)] * 4, [start] * 4, steps=40
        )
        assert all(result.path == solo[0].path for result in quad)
        # Same frontier every round -> same unique AND same total query count.
        assert quad_api.unique_queries == solo_api.unique_queries
        assert quad_api.total_queries == solo_api.total_queries

    def test_ensemble_unique_cost_no_worse_than_sequential(self, facebook_small):
        starts = facebook_small.nodes()[:4]
        seeds = [(f"srw", seed) for seed in (1, 2, 3, 4)]
        sequential_api = build_api(facebook_small)
        for (name, seed), start in zip(seeds, starts):
            make_walker(name, api=sequential_api, seed=seed).run(start, max_steps=50)
        scheduled_api, _ = _schedule(facebook_small, seeds, starts, steps=50)
        assert scheduled_api.unique_queries <= sequential_api.unique_queries


class TestStepBudgets:
    def test_per_walker_step_budgets(self, facebook_small):
        starts = facebook_small.nodes()[:3]
        _, results = _schedule(
            facebook_small, [("srw", 1), ("srw", 2), ("srw", 3)], starts, steps=[10, 25, 0]
        )
        assert [result.steps for result in results] == [10, 25, 0]
        assert len(results[2].path) == 1  # placed, sampled, never stepped
        assert len(results[2].samples) == 1

    def test_numpy_integer_steps_are_a_shared_budget(self, facebook_small):
        starts = facebook_small.nodes()[:3]
        names_seeds = [("cnrw", 1), ("srw", 2), ("mhrw", 3)]
        _, plain = _schedule(facebook_small, names_seeds, starts, steps=40)
        _, numpy_steps = _schedule(facebook_small, names_seeds, starts, steps=np.int64(40))
        assert numpy_steps == plain
        assert [result.steps for result in plain] == [40, 40, 40]

        def ensemble(steps):
            session = SamplingSession(facebook_small, seed=4).walker("cnrw", seed=4)
            return session.run_ensemble(2, steps=steps)

        assert ensemble(np.int64(40)) == ensemble(40)

    def test_steps_sequence_length_validated(self, facebook_small):
        with pytest.raises(ValueError):
            _schedule(facebook_small, [("srw", 1)], [facebook_small.nodes()[0]], steps=[5, 5])

    def test_unbounded_without_budget_rejected(self, facebook_small):
        with pytest.raises(ValueError):
            _schedule(facebook_small, [("srw", 1)], [facebook_small.nodes()[0]], steps=None)

    def test_starts_must_match_walkers(self, facebook_small):
        api = build_api(facebook_small)
        walkers = [make_walker("srw", api=api, seed=1)]
        with pytest.raises(ValueError):
            WalkScheduler(api).run(walkers, facebook_small.nodes()[:2], steps=5)

    def test_empty_schedule_is_empty(self, facebook_small):
        api = build_api(facebook_small)
        assert WalkScheduler(api).run([], [], steps=5) == []


class TestCachelessStacks:
    """Without a cache layer every query bills; the view memo must not
    silently waive that (a cache-less crawl study enforces its budget)."""

    def test_revisits_are_rebilled(self, small_cycle):
        api = build_api(small_cycle, cache=False)
        walkers = [make_walker("srw", api=api, seed=1)]
        WalkScheduler(api).run(walkers, [0], steps=40)
        # An 8-cycle has 8 distinct nodes; 40 steps of re-billed revisits
        # must cost far more than the distinct-node count.
        assert api.unique_queries > 8

    def test_budget_is_enforced(self, facebook_small):
        api = build_api(facebook_small, budget=30, cache=False)
        walkers = [make_walker("srw", api=api, seed=7)]
        results = WalkScheduler(api).run(walkers, [facebook_small.nodes()[0]], steps=200)
        assert results[0].stopped_by_budget
        assert api.unique_queries <= 30

    def test_cached_stack_memo_still_amortises(self, small_cycle):
        api = build_api(small_cycle)  # default stack: unbounded cache
        walkers = [make_walker("srw", api=api, seed=1)]
        WalkScheduler(api).run(walkers, [0], steps=40)
        assert api.unique_queries <= 8

    def test_bounded_lru_cache_rebills_evicted_revisits(self, small_cycle):
        """An LRU cache's re-billing semantics must survive scheduling: the
        schedule-long memo would otherwise shadow evictions entirely."""
        api = build_api(small_cycle, cache_capacity=2)
        walkers = [make_walker("srw", api=api, seed=1)]
        WalkScheduler(api).run(walkers, [0], steps=60)
        # With only 2 cache slots on an 8-cycle, revisits keep getting
        # evicted and re-billed; 8 unique bills would mean the memo leaked.
        assert api.unique_queries > 8


class TestBudgetExhaustion:
    def test_all_lanes_stop_within_one_step(self, facebook_small):
        starts = facebook_small.nodes()[:5]
        _, results = _schedule(
            facebook_small, [("srw", seed) for seed in range(5)], starts,
            budget=23, steps=200,
        )
        assert all(result.stopped_by_budget for result in results)
        step_counts = [result.steps for result in results]
        assert max(step_counts) - min(step_counts) <= 1

    def test_budget_spent_exactly(self, facebook_small):
        api, results = _schedule(
            facebook_small, [("srw", 0), ("srw", 1)], facebook_small.nodes()[:2],
            budget=9, steps=100,
        )
        assert api.unique_queries <= 9
        assert all(result.stopped_by_budget for result in results)

    def test_completed_lanes_not_flagged_as_budget_stopped(self, facebook_small):
        """A lane that finished its own step budget before the shared query
        budget died completed normally and must not carry the flag."""
        api = build_api(facebook_small, budget=30)
        walkers = [make_walker("srw", api=api, seed=s) for s in (1, 2)]
        results = WalkScheduler(api).run(
            walkers, facebook_small.nodes()[:2], steps=[1, 500]
        )
        assert results[0].steps == 1
        assert not results[0].stopped_by_budget
        assert results[1].stopped_by_budget

    def test_budget_exhausted_before_start(self, attributed_graph):
        api = build_api(attributed_graph, budget=0)
        walkers = [make_walker("srw", api=api, seed=0)]
        results = WalkScheduler(api).run(walkers, [0], steps=5)
        assert results[0].path == []
        assert results[0].stopped_by_budget


class _AsymmetricBackend(GraphBackend):
    """Directed-style adjacency with a genuine dead end (node 3)."""

    name = "asymmetric"

    def __init__(self):
        self._adjacency = {
            0: (1, 2),
            1: (2, 3),
            2: (0, 3),
            3: (),          # dead end: no outgoing neighbors
            4: (0,),        # restart landing zone
        }

    def fetch(self, node):
        if node not in self._adjacency:
            from repro.exceptions import NodeNotFoundError

            raise NodeNotFoundError(node)
        return RawRecord(node=node, neighbors=tuple(self._adjacency[node]), attributes={})

    def contains(self, node):
        return node in self._adjacency

    def metadata(self, node):
        if node not in self._adjacency:
            return None
        return {"degree": len(self._adjacency[node]), "attributes": {}}

    def node_ids(self):
        return list(self._adjacency)


class TestDeadEndPolicy:
    def test_raise_is_default(self):
        api = build_api(_AsymmetricBackend())
        walkers = [make_walker("srw", api=api, seed=0)]
        with pytest.raises(DeadEndError):
            WalkScheduler(api).run(walkers, [1], steps=50)

    def test_stop_retires_only_the_dead_lane(self):
        api = build_api(_AsymmetricBackend())
        walkers = [make_walker("srw", api=api, seed=seed) for seed in (0, 1)]
        policy = SchedulerPolicy(on_dead_end="stop")
        results = WalkScheduler(api, policy=policy).run(walkers, [1, 1], steps=40)
        # Every lane ends either at the step budget or parked on the dead end.
        for result in results:
            assert result.steps == 40 or result.path[-1] == 3
        assert any(result.path[-1] == 3 and result.steps < 40 for result in results)

    def test_restart_replants_the_walker(self):
        api = build_api(_AsymmetricBackend())
        walkers = [make_walker("srw", api=api, seed=2)]
        policy = SchedulerPolicy(on_dead_end="restart")
        results = WalkScheduler(api, policy=policy).run(walkers, [1], steps=30)
        result = results[0]
        assert 3 in result.path  # reached the dead end...
        assert result.path[-1] != 3  # ...and kept walking elsewhere afterwards
        assert result.steps > 0

    def test_restart_budget_respected(self):
        api = build_api(_AsymmetricBackend())
        walkers = [make_walker("srw", api=api, seed=2)]
        policy = SchedulerPolicy(on_dead_end="restart", max_restarts=0)
        results = WalkScheduler(api, policy=policy).run(walkers, [1], steps=30)
        # Out of restarts -> the lane stops at the dead end instead.
        assert results[0].path[-1] == 3

    def test_dead_start_raises_by_default(self):
        api = build_api(_AsymmetricBackend())
        walkers = [make_walker("srw", api=api, seed=0)]
        with pytest.raises(InvalidStartNodeError):
            WalkScheduler(api).run(walkers, [3], steps=5)

    def test_dead_start_stop_policy(self):
        api = build_api(_AsymmetricBackend())
        walkers = [make_walker("srw", api=api, seed=0), make_walker("srw", api=api, seed=1)]
        policy = SchedulerPolicy(on_dead_end="stop")
        results = WalkScheduler(api, policy=policy).run(walkers, [3, 0], steps=10)
        assert results[0].path == []
        # The viable lane keeps going until its budget or its own dead end.
        assert results[1].steps > 0
        assert results[1].steps == 10 or results[1].path[-1] == 3

    def test_policy_validation(self):
        with pytest.raises(InvalidConfigurationError):
            SchedulerPolicy(on_dead_end="explode")
        with pytest.raises(InvalidConfigurationError):
            SchedulerPolicy(max_restarts=-1)


class TestTracing:
    def test_scheduled_rounds_trace_as_batches(self, facebook_small):
        api = build_api(facebook_small, trace=True)
        walkers = [make_walker("srw", api=api, seed=seed) for seed in (0, 1, 2)]
        WalkScheduler(api).run(walkers, facebook_small.nodes()[:3], steps=10)
        batches = api.trace.batches
        assert len(batches) == 11  # the start batch plus one per round
        assert all(len(batch) <= 3 for batch in batches)
        # Node-level accounting stays exact under batch records.
        assert len(api.trace.fresh_nodes) == api.unique_queries
