"""Tests for the :class:`SamplingSession` fluent facade."""

from __future__ import annotations

import pytest

from repro import AggregateQuery, QueryBudget, SamplingSession, build_api, ground_truth
from repro.api import CSRBackend, twitter_policy
from repro.api.ratelimit import SimulatedClock
from repro.walks import make_walker


class TestConfiguration:
    def test_fluent_chain_returns_self(self, attributed_graph):
        session = SamplingSession(attributed_graph)
        assert session.budget(10) is session
        assert session.walker("cnrw", seed=1) is session
        assert session.trace() is session

    def test_stack_reflects_configuration(self, attributed_graph):
        clock = SimulatedClock()
        session = (
            SamplingSession(attributed_graph)
            .budget(25)
            .rate_limit(twitter_policy(), clock=clock)
            .cache(capacity=100)
            .trace()
        )
        api = session.api
        assert api.budget.limit == 25
        assert api.clock is clock
        assert api.cache.capacity == 100
        assert api.trace is not None

    def test_reconfiguration_rebuilds_stack(self, attributed_graph):
        session = SamplingSession(attributed_graph).budget(5)
        first = session.api
        session.budget(10)
        assert session.api is not first
        assert session.api.budget.limit == 10

    def test_backend_selection(self, attributed_graph):
        session = SamplingSession(attributed_graph).backend("csr")
        assert isinstance(session.api.backend, CSRBackend)

    def test_accepts_prebuilt_backend(self, attributed_graph):
        backend = CSRBackend.from_graph(attributed_graph)
        session = SamplingSession(backend).budget(3)
        result = session.run(0, max_steps=2)
        assert len(result.path) == 3


class TestRunning:
    def test_budgeted_run_matches_legacy_pipeline(self, facebook_small):
        """The one-liner produces the same walk as the hand-wired pipeline."""
        start = facebook_small.nodes()[0]
        session_result = (
            SamplingSession(facebook_small)
            .budget(120)
            .walker("cnrw", seed=9)
            .run(start, max_steps=None)
        )
        legacy_api = build_api(facebook_small, budget=QueryBudget(120))
        legacy_result = make_walker("cnrw", api=legacy_api, seed=9).run(start, max_steps=None)
        assert session_result.path == legacy_result.path
        assert session_result.unique_queries == legacy_result.unique_queries
        assert session_result.total_queries == legacy_result.total_queries

    def test_random_start_is_reproducible(self, facebook_small):
        a = SamplingSession(facebook_small, seed=3).budget(50).walker("srw", seed=3).run()
        b = SamplingSession(facebook_small, seed=3).budget(50).walker("srw", seed=3).run()
        assert a.path == b.path

    def test_run_records_last_result_and_estimates(self, facebook_small):
        session = SamplingSession(facebook_small).budget(200).walker("cnrw", seed=2)
        result = session.run(max_steps=None)
        assert session.last_result is result
        query = AggregateQuery.average_degree()
        answer = session.estimate(query)
        truth = ground_truth(facebook_small, query)
        assert answer.value == pytest.approx(truth, rel=0.6)

    def test_estimate_without_run_raises(self, attributed_graph):
        session = SamplingSession(attributed_graph)
        with pytest.raises(ValueError):
            session.estimate(AggregateQuery.average_degree())

    def test_counters_and_reset(self, attributed_graph):
        session = SamplingSession(attributed_graph).budget(4).walker("srw", seed=0)
        session.run(0, max_steps=None)
        assert session.unique_queries > 0
        session.reset()
        assert session.unique_queries == 0
        assert session.last_result is None

    def test_trace_capture(self, attributed_graph):
        session = SamplingSession(attributed_graph).trace().walker("srw", seed=1)
        session.run(0, max_steps=5)
        assert session.query_trace is not None
        assert len(session.query_trace) > 0

    def test_rate_limited_session_advances_clock(self, attributed_graph):
        clock = SimulatedClock()
        from repro.api.ratelimit import FixedWindowPolicy

        session = (
            SamplingSession(attributed_graph)
            .budget(4)
            .rate_limit(FixedWindowPolicy(max_calls=1, window_seconds=30.0), clock=clock)
            .walker("srw", seed=0)
        )
        session.run(0, max_steps=None)
        assert clock.now > 0.0


class TestEnsemble:
    def test_ensemble_runs_share_one_stack(self, facebook_small):
        session = SamplingSession(facebook_small, seed=5).walker("srw", seed=5)
        results = session.run_ensemble(num_walks=4, steps=25)
        assert len(results) == 4
        for result in results:
            assert result.steps == 25
            assert len(result.path) == 26
            # Every visited node is sampled, like run(burn_in=0, thinning=1).
            assert [sample.node for sample in result.samples] == result.path
        # All walkers share the API, so every result sees the same final cost.
        assert len({result.unique_queries for result in results}) == 1

    def test_estimate_works_after_ensemble(self, facebook_small):
        session = SamplingSession(facebook_small, seed=5).walker("srw", seed=5)
        results = session.run_ensemble(num_walks=4, steps=25)
        answer = session.estimate(AggregateQuery.average_degree())
        assert answer.value > 0
        # The estimate pools every walker's samples, not just the last one.
        pooled = sum(len(result.samples) for result in results)
        assert answer.sample_size == pooled

    def test_ensemble_numpy_seed_gives_distinct_walkers(self, facebook_small):
        import numpy as np

        starts = [facebook_small.nodes()[0]] * 3
        session = SamplingSession(facebook_small).walker("srw", seed=np.int64(7))
        results = session.run_ensemble(3, steps=30, starts=starts)
        paths = [tuple(result.path) for result in results]
        assert len(set(paths)) > 1, "walkers must not share one derived seed"

    def test_ensemble_is_reproducible(self, facebook_small):
        starts = facebook_small.nodes()[:3]
        a = SamplingSession(facebook_small).walker("cnrw", seed=11).run_ensemble(
            3, steps=20, starts=starts
        )
        b = SamplingSession(facebook_small).walker("cnrw", seed=11).run_ensemble(
            3, steps=20, starts=starts
        )
        assert [r.path for r in a] == [r.path for r in b]

    def test_ensemble_costs_no_more_than_sequential(self, facebook_small):
        starts = facebook_small.nodes()[:4]
        ensemble_session = SamplingSession(facebook_small).walker("srw", seed=2)
        ensemble_session.run_ensemble(4, steps=30, starts=starts)
        ensemble_cost = ensemble_session.unique_queries

        sequential_session = SamplingSession(facebook_small).walker("srw", seed=2)
        from repro.rng import derive_seed

        for index, start in enumerate(starts):
            walker = sequential_session.build_walker(seed=derive_seed(2, index))
            walker.run(start, max_steps=30)
        # run() additionally queries each emitted sample's node, so the
        # lockstep ensemble can only be cheaper, never more expensive.
        assert ensemble_cost <= sequential_session.unique_queries

    def test_ensemble_validates_arguments(self, attributed_graph):
        session = SamplingSession(attributed_graph).walker("srw", seed=1)
        with pytest.raises(ValueError):
            session.run_ensemble(0, steps=5)
        with pytest.raises(ValueError):
            session.run_ensemble(2, steps=5, starts=[0])

    def test_budget_exhaustion_returns_partial_results(self, attributed_graph):
        session = SamplingSession(attributed_graph).budget(3).walker("srw", seed=1)
        results = session.run_ensemble(2, steps=10, starts=[0, 3])
        assert len(results) == 2
        assert all(result.stopped_by_budget for result in results)
        assert session.unique_queries <= 3

    def test_run_after_ensemble_is_still_reproducible(self, facebook_small):
        """run() must not reuse the ensemble's last derived-seed walker."""
        start = facebook_small.nodes()[0]
        fresh = SamplingSession(facebook_small).walker("srw", seed=7).run(start, max_steps=20)
        mixed_session = SamplingSession(facebook_small).walker("srw", seed=7)
        mixed_session.run_ensemble(3, steps=5, starts=facebook_small.nodes()[:3])
        mixed = mixed_session.run(start, max_steps=20)
        assert mixed.path == fresh.path

    def test_repeated_runs_are_identical(self, facebook_small):
        session = SamplingSession(facebook_small).budget(40).walker("cnrw", seed=4)
        start = facebook_small.nodes()[0]
        first = session.run(start, max_steps=None)
        session.reset()
        second = session.run(start, max_steps=None)
        assert first.path == second.path


class TestEnsembleEdgeCases:
    def test_budget_exhaustion_mid_round_keeps_walkers_in_lockstep(self, facebook_small):
        """When the budget dies mid-round, walkers end at most one step apart."""
        starts = facebook_small.nodes()[:5]
        session = SamplingSession(facebook_small).budget(27).walker("srw", seed=6)
        results = session.run_ensemble(5, steps=300, starts=starts)
        assert all(result.stopped_by_budget for result in results)
        steps = [result.steps for result in results]
        assert max(steps) - min(steps) <= 1
        assert session.unique_queries <= 27
        # Partial results are still well-formed walks.
        for result in results:
            assert result.path[0] in starts
            assert len(result.path) == result.steps + 1

    def test_explicit_starts_length_mismatch(self, facebook_small):
        session = SamplingSession(facebook_small).walker("srw", seed=1)
        with pytest.raises(ValueError):
            session.run_ensemble(3, steps=5, starts=facebook_small.nodes()[:2])
        with pytest.raises(ValueError):
            session.run_ensemble(1, steps=5, starts=facebook_small.nodes()[:4])

    def test_single_walker_ensemble_estimate_matches_run(self, facebook_small):
        """run_ensemble(1) pools exactly the samples run(burn_in=0, thinning=1)
        would collect, so the estimates coincide on a fixed seed."""
        from repro.rng import derive_seed

        start = facebook_small.nodes()[0]
        query = AggregateQuery.average_degree()

        ensemble_session = SamplingSession(facebook_small).walker("cnrw")
        ensemble_session.run_ensemble(1, steps=80, starts=[start], seed=21)
        ensemble_estimate = ensemble_session.estimate(query)

        # Walker 0 of a seed-21 ensemble runs under derive_seed(21, 0).
        run_session = SamplingSession(facebook_small).walker("cnrw", seed=derive_seed(21, 0))
        run_session.run(start, max_steps=80, burn_in=0, thinning=1)
        run_estimate = run_session.estimate(query)

        assert ensemble_estimate.value == pytest.approx(run_estimate.value)
        assert ensemble_estimate.sample_size == run_estimate.sample_size

    def test_budget_driven_ensemble_without_steps(self, facebook_small):
        session = SamplingSession(facebook_small).budget(60).walker("cnrw", seed=2)
        results = session.run_ensemble(3, starts=facebook_small.nodes()[:3])
        assert all(result.stopped_by_budget for result in results)
        assert session.unique_queries <= 60

    def test_stepless_unbudgeted_ensemble_rejected(self, facebook_small):
        session = SamplingSession(facebook_small).walker("srw", seed=1)
        with pytest.raises(ValueError):
            session.run_ensemble(2, starts=facebook_small.nodes()[:2])

    def test_ensemble_burn_in_and_thinning(self, facebook_small):
        starts = facebook_small.nodes()[:2]
        session = SamplingSession(facebook_small).walker("srw", seed=5)
        results = session.run_ensemble(2, steps=30, starts=starts, burn_in=10, thinning=5)
        for result in results:
            assert result.steps == 30
            assert [sample.step_index for sample in result.samples] == [10, 15, 20, 25, 30]
