"""Unit tests for simulated clocks, rate limits and budgets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import QueryBudget
from repro.api.ratelimit import (
    FixedWindowPolicy,
    SimulatedClock,
    TokenBucketPolicy,
    UnlimitedPolicy,
    estimate_crawl_time,
    twitter_policy,
    yelp_policy,
)
from repro.exceptions import (
    InvalidConfigurationError,
    QueryBudgetExceededError,
    RateLimitExceededError,
)


class TestSimulatedClock:
    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(5.0)
        assert clock.now == 5.0
        clock.advance(0.0)
        assert clock.now == 5.0

    def test_cannot_go_backwards(self):
        clock = SimulatedClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(12.0)
        assert clock.now == 12.0


class TestFixedWindowPolicy:
    def test_within_limit_no_wait(self):
        policy = FixedWindowPolicy(max_calls=3, window_seconds=60.0)
        clock = SimulatedClock()
        assert policy.acquire(clock) == 0.0
        assert policy.acquire(clock) == 0.0
        assert policy.acquire(clock) == 0.0
        assert clock.now == 0.0
        assert policy.calls_in_window == 3

    def test_blocking_wait(self):
        policy = FixedWindowPolicy(max_calls=1, window_seconds=30.0)
        clock = SimulatedClock()
        policy.acquire(clock)
        wait = policy.acquire(clock)
        assert wait == pytest.approx(30.0)
        assert clock.now == pytest.approx(30.0)

    def test_non_blocking_raises(self):
        policy = FixedWindowPolicy(max_calls=1, window_seconds=30.0)
        clock = SimulatedClock()
        policy.acquire(clock)
        with pytest.raises(RateLimitExceededError) as excinfo:
            policy.acquire(clock, blocking=False)
        assert excinfo.value.retry_after == pytest.approx(30.0)

    def test_window_expiry(self):
        policy = FixedWindowPolicy(max_calls=1, window_seconds=10.0)
        clock = SimulatedClock()
        policy.acquire(clock)
        clock.advance(11.0)
        assert policy.acquire(clock) == 0.0

    def test_reset(self):
        policy = FixedWindowPolicy(max_calls=1, window_seconds=10.0)
        clock = SimulatedClock()
        policy.acquire(clock)
        policy.reset()
        assert policy.acquire(clock) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FixedWindowPolicy(max_calls=0, window_seconds=10)
        with pytest.raises(ValueError):
            FixedWindowPolicy(max_calls=1, window_seconds=0)


class TestTokenBucketPolicy:
    def test_burst_then_throttle(self):
        policy = TokenBucketPolicy(rate_per_second=1.0, capacity=2.0)
        clock = SimulatedClock()
        assert policy.acquire(clock) == 0.0
        assert policy.acquire(clock) == 0.0
        wait = policy.acquire(clock)
        assert wait == pytest.approx(1.0)
        assert clock.now == pytest.approx(1.0)

    def test_refill(self):
        policy = TokenBucketPolicy(rate_per_second=2.0, capacity=2.0)
        clock = SimulatedClock()
        policy.acquire(clock)
        policy.acquire(clock)
        clock.advance(1.0)
        assert policy.acquire(clock) == 0.0

    def test_non_blocking(self):
        policy = TokenBucketPolicy(rate_per_second=0.5, capacity=1.0)
        clock = SimulatedClock()
        policy.acquire(clock)
        with pytest.raises(RateLimitExceededError):
            policy.acquire(clock, blocking=False)

    def test_reset_restores_capacity(self):
        policy = TokenBucketPolicy(rate_per_second=1.0, capacity=1.0)
        clock = SimulatedClock()
        policy.acquire(clock)
        policy.reset()
        assert policy.available_tokens == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucketPolicy(rate_per_second=0, capacity=1)
        with pytest.raises(ValueError):
            TokenBucketPolicy(rate_per_second=1, capacity=0)


class TestNamedPolicies:
    def test_twitter_policy(self):
        policy = twitter_policy()
        assert policy.max_calls == 15
        assert policy.window_seconds == 900

    def test_yelp_policy(self):
        policy = yelp_policy()
        assert policy.max_calls == 25_000
        assert policy.window_seconds == 86_400


class TestCrawlTimeEstimation:
    def test_unlimited_policy_is_instant(self):
        assert estimate_crawl_time(100, UnlimitedPolicy()) == 0.0

    def test_twitter_rate_dominates(self):
        # 1000 unique queries at 15 per 15 minutes is roughly 1000 minutes,
        # i.e. the "1 minute/query" figure quoted in the paper's introduction.
        seconds = estimate_crawl_time(1000, twitter_policy())
        assert seconds == pytest.approx(1000 * 60, rel=0.05)

    def test_processing_time_added(self):
        assert estimate_crawl_time(10, UnlimitedPolicy(), seconds_per_query=2.0) == 20.0

    def test_negative_queries_rejected(self):
        with pytest.raises(ValueError):
            estimate_crawl_time(-1)


class TestQueryBudget:
    def test_unlimited(self):
        budget = QueryBudget(None)
        assert budget.unlimited
        assert budget.remaining is None
        budget.spend(1000)
        assert not budget.exhausted

    def test_limited(self):
        budget = QueryBudget(3)
        budget.spend(2)
        assert budget.remaining == 1
        assert budget.can_spend(1)
        assert not budget.can_spend(2)
        budget.spend(1)
        assert budget.exhausted
        with pytest.raises(QueryBudgetExceededError):
            budget.spend(1)

    def test_reset(self):
        budget = QueryBudget(2)
        budget.spend(2)
        budget.reset()
        assert budget.remaining == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            QueryBudget(-1)
        with pytest.raises(ValueError):
            QueryBudget(5).spend(-1)

    @pytest.mark.parametrize("limit", [2.5, 3.0, True, False, np.bool_(True), "3", [3], -1],
                             ids=repr)
    def test_only_non_negative_integers_are_limits(self, limit):
        with pytest.raises(InvalidConfigurationError, match="budget"):
            QueryBudget(limit)

    def test_integral_limits_are_stored_as_int(self):
        assert type(QueryBudget(np.int64(5)).limit) is int
        assert QueryBudget(np.uint8(0)).exhausted
