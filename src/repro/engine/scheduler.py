"""The walk scheduler: advance many transition kernels in lockstep.

The paper's whole contribution is cutting the *query* cost of random-walk
sampling; this module cuts the *execution* cost of running many walks.  A
:class:`WalkScheduler` drives N walkers round by round against one shared
access-layer stack:

1. **Frontier batching** — each round, the walkers' current nodes are
   deduplicated into one frontier and fetched in a single
   :meth:`~repro.api.interface.SocialNetworkAPI.query_many` call, so the
   per-query overhead of the middleware stack and the backend is amortised
   across all walkers (and, with a :class:`~repro.api.backend.CSRBackend`,
   served through its vectorised batch path).
2. **View-fed stepping** — walkers advance via
   :meth:`~repro.walks.base.RandomWalk.advance_with_view` (or, in the
   uniform-steps loop, their kernels directly), consuming the views the
   batch already fetched: no per-walker ``query`` calls, not even cache
   hits.  Each lane appends plain values to its columnar
   :class:`~repro.walks.base.WalkResult` — the node moved to, and one
   ``(node, degree, attributes, step_index, query_cost)`` record per
   sample — so a round builds no per-step objects.  Each walker's kernel
   draws from its own rng in exactly the order the sequential driver would,
   so a scheduled walk reproduces ``RandomWalk.run`` bit for bit under the
   same seed — paths, samples and, on the default cached stack, unique-query
   accounting.  (On a cache-less
   stack every issued query bills, so the scheduler's fewer calls genuinely
   cost less than ``run``'s per-step re-queries; budgets are still enforced
   exactly, and revisited frontiers are re-billed each round.)
3. **Policy** — per-walker step budgets (``steps`` may be a sequence), a
   shared query budget (exhaustion stops everyone gracefully, walkers at most
   one step apart), and a configurable dead-end rule (raise, stop the walker,
   or restart it at a fresh node).

One round costs one batched query (plus whatever metadata prefetch a kernel
performs), so the wall-clock win over per-walker sequential execution grows
with the ensemble size; ``benchmarks/bench_engine.py`` pins the speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .. import obs
from ..api.interface import NodeView, SocialNetworkAPI
from ..exceptions import (
    DeadEndError,
    InvalidConfigurationError,
    InvalidStartNodeError,
    QueryBudgetExceededError,
)
from ..types import NodeId
from ..walks.base import RandomWalk, WalkResult, implicit_step_cap, query_budget

#: How the scheduler reacts when a walker reaches a node with no neighbors.
DEAD_END_ACTIONS = ("raise", "stop", "restart")

#: Placeholder marking a frontier node whose batch fetch is in flight (used
#: by the lockstep loop to dedup the frontier against the view memo itself).
_FETCHING = object()


@dataclass(frozen=True)
class SchedulerPolicy:
    """Per-walker execution policy of a :class:`WalkScheduler`.

    Attributes:
        on_dead_end: ``"raise"`` propagates :class:`DeadEndError` (the
            sequential driver's behaviour, and the default), ``"stop"``
            retires the affected walker while the rest of the ensemble keeps
            going, ``"restart"`` resets the walker's kernel history and
            replants it at a random non-isolated node.
        max_restarts: Cap on restarts per walker under ``"restart"``
            (``None`` = unlimited); a walker out of restarts stops instead.
    """

    on_dead_end: str = "raise"
    max_restarts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.on_dead_end not in DEAD_END_ACTIONS:
            raise InvalidConfigurationError(
                f"on_dead_end must be one of {DEAD_END_ACTIONS}, got {self.on_dead_end!r}"
            )
        if self.max_restarts is not None and self.max_restarts < 0:
            raise InvalidConfigurationError("max_restarts must be non-negative")


@dataclass
class _Lane:
    """One walker's execution slot inside a running schedule."""

    walker: RandomWalk
    result: WalkResult = field(default_factory=WalkResult)
    max_steps: Optional[int] = None
    steps_taken: int = 0
    active: bool = True
    restarts: int = 0
    #: Node the lane should be replanted at next round (restart policy).
    pending_restart: Optional[NodeId] = None


class WalkScheduler:
    """Advance an ensemble of walkers in lockstep over one shared API stack.

    Args:
        api: The access-layer stack every walker queries through.
        policy: Dead-end / restart policy (defaults to the sequential
            driver's raise-on-dead-end behaviour).
    """

    def __init__(self, api: SocialNetworkAPI, policy: Optional[SchedulerPolicy] = None) -> None:
        self.api = api
        self.policy = policy if policy is not None else SchedulerPolicy()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        walkers: Sequence[RandomWalk],
        starts: Sequence[NodeId],
        steps: Union[int, Sequence[Optional[int]], None] = None,
        burn_in: int = 0,
        thinning: int = 1,
    ) -> List[WalkResult]:
        """Run every walker from its start node and return pooled results.

        Args:
            walkers: The walkers to advance (one lane each); their kernels,
                rngs and states are driven directly, so fixed seeds reproduce
                the exact paths ``RandomWalk.run`` would produce.
            starts: One start node per walker.
            steps: Shared step budget (int), one budget per walker
                (sequence), or ``None`` to walk until the shared query budget
                is exhausted (requires a finite budget on the stack).
            burn_in: Transitions to discard before emitting samples.
            thinning: Emit one sample every ``thinning`` transitions after
                the burn-in.

        Query-budget exhaustion is never an error: all lanes stop with
        ``stopped_by_budget=True`` and, because every lane steps between two
        shared batch fetches, no two walkers end more than one step apart.
        """
        if thinning < 1:
            raise ValueError("thinning must be at least 1")
        if burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if len(walkers) != len(starts):
            raise ValueError("starts must provide one node per walker")
        if not walkers:
            return []
        per_walker_steps = self._per_walker_steps(steps, len(walkers))
        budget = query_budget(self.api)
        implicit_cap = None
        if any(cap is None for cap in per_walker_steps):
            if budget.unlimited:
                raise ValueError(
                    "schedule would never terminate: provide steps (per walker "
                    "or shared) or an API with a finite query budget"
                )
            implicit_cap = implicit_step_cap(budget.limit)

        lanes = [
            _Lane(walker=walker, max_steps=cap)
            for walker, cap in zip(walkers, per_walker_steps)
        ]
        stopped = False

        # One view memo accumulates every fetched neighborhood for the whole
        # schedule — but only when the stack has an *unbounded* cache layer.
        # There a view is immutable once served (the shuffle layer randomises
        # below the cache) and a memoised node could never be billed again,
        # so revisits may skip the middleware without touching unique-query
        # accounting.  Without a cache every query bills, and under a bounded
        # LRU cache evicted revisits are billed again: in both cases
        # memoising would silently waive the cost model, so the memo is
        # cleared each round and revisits go back through the stack.
        cache = getattr(self.api, "cache", None)
        memoising = cache is not None and getattr(cache, "capacity", None) is None
        views: Dict[NodeId, NodeView] = {}

        # Round 0: place every walker on its start node off one shared batch.
        try:
            self._fetch_frontier(starts, views, memoising)
        except QueryBudgetExceededError:
            stopped = True
        if not stopped:
            query_cost = self.api.unique_queries
            for lane, start in zip(lanes, starts):
                lane.walker.reset()
                view = views[start]
                if not view.neighbors:
                    self._handle_dead_start(lane, start)
                    continue
                lane.walker.start_from_view(start, view)
                lane.result.path.append(start)
                if burn_in == 0:
                    lane.result.sample_records.append(
                        (view.node, len(view.neighbors), view.attributes, 0, query_cost)
                    )

        # The common schedule — one shared integer step budget, default
        # dead-end behaviour, every lane placed — runs on a tight loop that
        # drives the kernels directly; anything fancier (per-walker budgets,
        # budget-driven termination, restart policies, custom walkers) takes
        # the general round loop below.
        if (
            not stopped
            and memoising
            and isinstance(steps, int)
            and self.policy.on_dead_end == "raise"
            and all(lane.active for lane in lanes)
            and self._kernels_drivable(walkers)
        ):
            stopped = self._run_lockstep(lanes, views, steps, burn_in, thinning)
            return self._finalize(lanes, stopped)

        registry = obs.metrics()
        round_index = 0
        while not stopped:
            self._retire_finished(lanes)
            active = [lane for lane in lanes if lane.active]
            if not active:
                break
            if implicit_cap is not None and round_index >= implicit_cap:
                break
            if any(lane.max_steps is None for lane in active) and budget.exhausted:
                stopped = True
                break
            round_index += 1
            round_started = time.perf_counter() if registry is not None else 0.0

            # 1. Advance every active lane off the views of the last batch.
            stepping = [lane for lane in active if lane.pending_restart is None]
            try:
                for lane in stepping:
                    view = views[lane.walker.current]
                    try:
                        target = lane.walker.advance_with_view(view)
                    except DeadEndError:
                        self._handle_dead_end(lane)
                        continue
                    lane.result.path.append(target)
                    lane.steps_taken += 1
            except QueryBudgetExceededError:
                # A kernel-internal metadata query (GNRW grouping prefetch,
                # MHRW degree fallback) ran the budget dry mid-round; lanes
                # before this one have stepped, later ones have not — at most
                # one step apart, as documented.
                stopped = True
                break

            # 2. One deduplicated batch serves double duty: it provides this
            # round's samples and prefetches next round's stepping views.
            frontier: List[NodeId] = []
            for lane in active:
                if not lane.active:
                    continue
                node = lane.pending_restart if lane.pending_restart is not None else lane.walker.current
                frontier.append(node)
            try:
                self._fetch_frontier(frontier, views, memoising)
            except QueryBudgetExceededError:
                stopped = True
                break
            if registry is not None:
                registry.observe("repro_scheduler_frontier_size", len(frontier))
                registry.observe(
                    "repro_scheduler_round_ms",
                    (time.perf_counter() - round_started) * 1000.0,
                )

            # 3. Replant restarted lanes and emit this round's samples.
            query_cost = self.api.unique_queries
            for lane in active:
                if not lane.active:
                    continue
                result = lane.result
                if lane.pending_restart is not None:
                    node = lane.pending_restart
                    lane.pending_restart = None
                    view = views[node]
                    if not view.neighbors:
                        self._handle_dead_end(lane)  # isolated restart node
                        continue
                    lane.walker.reset()
                    lane.walker.start_from_view(node, view)
                    if result.path:
                        result.restarts.append(len(result.path))
                    result.path.append(node)
                else:
                    view = views[lane.walker.current]
                step = lane.steps_taken
                if step >= burn_in and (step - burn_in) % thinning == 0:
                    result.sample_records.append(
                        (view.node, len(view.neighbors), view.attributes, step, query_cost)
                    )

        return self._finalize(lanes, stopped)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finalize(self, lanes: Sequence[_Lane], stopped: bool) -> List[WalkResult]:
        """Stamp the shared counters and the budget flag onto every result.

        ``stopped_by_budget`` is set only on lanes that were still walking
        when the budget died — a lane that already completed its own step
        budget (or was retired by policy) finished normally.
        """
        unique = self.api.unique_queries
        total = self.api.total_queries
        registry = obs.metrics()
        if registry is not None:
            registry.set_gauge("repro_scheduler_unique_queries", unique)
            registry.set_gauge("repro_scheduler_total_queries", total)
            if total:
                # Dedupe ratio: how much of the issued query volume the
                # frontier dedup + cache turned into free revisits.
                registry.set_gauge(
                    "repro_scheduler_dedupe_ratio", 1.0 - (unique / total)
                )
        for lane in lanes:
            lane.result.unique_queries = unique
            lane.result.total_queries = total
            lane.result.stopped_by_budget = stopped and lane.active
        return [lane.result for lane in lanes]

    @staticmethod
    def _kernels_drivable(walkers: Sequence[RandomWalk]) -> bool:
        """Whether every walker's transitions can be driven kernel-directly.

        External subclasses may override the classic ``_choose_next`` /
        ``_on_transition`` hooks instead of supplying a kernel; those walkers
        must be advanced through ``step_with_view`` so their overrides run.
        """
        return all(
            walker.kernel is not None
            and type(walker)._choose_next is RandomWalk._choose_next
            and type(walker)._on_transition is RandomWalk._on_transition
            for walker in walkers
        )

    def _run_lockstep(
        self,
        lanes: Sequence[_Lane],
        views: Dict[NodeId, NodeView],
        steps: int,
        burn_in: int,
        thinning: int,
    ) -> bool:
        """Tight uniform-steps loop: every lane advances every round.

        Drives (kernel, rng, state) directly — skipping the per-step walker
        dispatch — while issuing exactly the same choices, queries and
        samples as the general loop.  Returns whether the query budget died.
        """
        api = self.api
        query_many = api.query_many
        slots = [
            (lane.walker.kernel, lane.walker.rng, lane.walker.state,
             lane.result.path.append, lane.result.sample_records.append)
            for lane in lanes
        ]
        registry = obs.metrics()
        frontier: List[NodeId] = []
        for round_index in range(1, steps + 1):
            round_started = time.perf_counter() if registry is not None else 0.0
            frontier.clear()
            try:
                for kernel, rng, state, add_path, _ in slots:
                    view = views[state.current]
                    if not view.neighbors:
                        raise DeadEndError(state.current)
                    target = kernel.choose(state, view, rng)
                    kernel.observe(state, target, view)
                    state.advance(target)
                    add_path(target)
                    if target not in views:
                        views[target] = _FETCHING
                        frontier.append(target)
            except QueryBudgetExceededError:
                for node in frontier:
                    del views[node]
                return True
            if frontier:
                try:
                    fetched = query_many(frontier)
                except QueryBudgetExceededError:
                    for node in frontier:
                        del views[node]
                    return True
                views.update(zip(frontier, fetched))
            if registry is not None:
                registry.observe("repro_scheduler_frontier_size", len(frontier))
                registry.observe(
                    "repro_scheduler_round_ms",
                    (time.perf_counter() - round_started) * 1000.0,
                )
            if round_index >= burn_in and (round_index - burn_in) % thinning == 0:
                query_cost = api.unique_queries
                for _, _, state, _, add_sample in slots:
                    view = views[state.current]
                    add_sample(
                        (view.node, len(view.neighbors), view.attributes, round_index, query_cost)
                    )
        for lane in lanes:
            lane.steps_taken = steps
        return False

    def _fetch_frontier(
        self, nodes: Sequence[NodeId], memo: Dict[NodeId, NodeView], memoising: bool = True
    ) -> None:
        """Batch-fetch this round's frontier into ``memo``.

        When memoising, only not-yet-seen nodes are fetched (a cache below
        makes revisits free, so skipping them cannot change billing).  When
        not, every deduplicated frontier node goes through the stack — each
        round re-bills revisits exactly as a cache-less crawl must — and the
        memo is replaced by the round's views.
        """
        frontier: List[NodeId] = []
        seen = set()
        for node in nodes:
            if node not in seen and not (memoising and node in memo):
                seen.add(node)
                frontier.append(node)
        if not memoising:
            fetched = self.api.query_many(frontier) if frontier else []
            memo.clear()
            memo.update(zip(frontier, fetched))
            return
        if frontier:
            memo.update(zip(frontier, self.api.query_many(frontier)))

    def _retire_finished(self, lanes: Sequence[_Lane]) -> None:
        for lane in lanes:
            if lane.active and lane.max_steps is not None and lane.steps_taken >= lane.max_steps:
                lane.active = False

    def _handle_dead_start(self, lane: _Lane, start: NodeId) -> None:
        if self.policy.on_dead_end == "raise":
            raise InvalidStartNodeError(
                f"start node {start!r} has no neighbors; walks require degree >= 1"
            )
        self._handle_dead_end(lane)

    def _handle_dead_end(self, lane: _Lane) -> None:
        policy = self.policy
        if policy.on_dead_end == "raise":
            raise DeadEndError(lane.walker.current)
        if policy.on_dead_end == "restart" and (
            policy.max_restarts is None or lane.restarts < policy.max_restarts
        ):
            lane.restarts += 1
            lane.pending_restart = self._pick_restart(lane)
            if lane.pending_restart is not None:
                return
        lane.active = False

    def _pick_restart(self, lane: _Lane) -> Optional[NodeId]:
        """Draw a random non-isolated node from the backend (lane-seeded)."""
        from ..api.session import pick_start_node

        if not callable(getattr(self.api, "random_node", None)):
            return None
        return pick_start_node(self.api, lane.walker.rng)

    def _per_walker_steps(
        self, steps: Union[int, Sequence[Optional[int]], None], count: int
    ) -> List[Optional[int]]:
        if steps is None or isinstance(steps, int):
            caps: List[Optional[int]] = [steps] * count
        else:
            caps = list(steps)
            if len(caps) != count:
                raise ValueError("steps sequence must provide one budget per walker")
        for cap in caps:
            if cap is not None and cap < 0:
                raise ValueError("per-walker steps must be non-negative")
        return caps

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"WalkScheduler(api={self.api!r}, policy={self.policy!r})"
