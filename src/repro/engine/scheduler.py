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
2. **View-fed stepping** — one round loop drives every walker's
   transition kernel directly off the views the batch already fetched: no
   per-walker ``query`` calls, not even cache hits.  Each lane's kernel,
   rng, state and output columns are bound once into a flat slot, and
   rebound only when a lane retires, dead-ends or is (re)planted.  Each
   lane appends plain values to its columnar
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

import math
import numbers
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Union

from .. import obs
from ..api.interface import NodeView, SocialNetworkAPI
from ..api.middleware import resolve_attribute
from ..exceptions import (
    DeadEndError,
    InvalidConfigurationError,
    InvalidStartNodeError,
    QueryBudgetExceededError,
    format_node_id,
)
from ..types import NodeId
from ..walks.base import (
    RandomWalk,
    WalkResult,
    implicit_step_cap,
    query_budget,
)

#: How the scheduler reacts when a walker reaches a node with no neighbors.
DEAD_END_ACTIONS = ("raise", "stop", "restart")

#: Placeholder marking a frontier node whose batch fetch is in flight, so
#: the frontier is deduplicated against the view memo itself.
_FETCHING = object()

#: Round index no schedule reaches (no step cap pending).
_NEVER = math.inf


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
    active: bool = True
    restarts: int = 0
    #: Node the lane is planted at next round: its start node, then a
    #: restart node under the restart policy.
    plant_at: Optional[NodeId] = None


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
            steps: Shared step budget (any integer), one budget per walker
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
        api = self.api
        budget = query_budget(api)
        round_limit = _NEVER
        if any(cap is None for cap in per_walker_steps):
            if budget.unlimited:
                raise ValueError(
                    "schedule would never terminate: provide steps (per walker "
                    "or shared) or an API with a finite query budget"
                )
            round_limit = implicit_step_cap(budget.limit)

        # Round 0 plants every lane at its start node, exactly as a restart
        # round replants a lane, off one shared batch.
        lanes = [
            _Lane(walker=walker, max_steps=cap, plant_at=start)
            for walker, cap, start in zip(walkers, per_walker_steps, starts)
        ]
        query_many = api.query_many
        unique = partial(getattr, *resolve_attribute(api, "unique_queries"))
        registry = obs.metrics()

        # ``views`` accumulates every fetched neighborhood for the whole
        # schedule — but only when the stack has an *unbounded* cache layer.
        # There a view is immutable once served (the shuffle layer randomises
        # below the cache) and a memoised node could never be billed again,
        # so revisits may skip the middleware without touching unique-query
        # accounting.  Without a cache every query bills, and under a bounded
        # LRU cache evicted revisits are billed again: in both cases
        # memoising would silently waive the cost model, so the memo restarts
        # empty each round and revisits go back through the stack.
        cache = getattr(api, "cache", None)
        memoising = cache is not None and getattr(cache, "capacity", None) is None
        views: Dict[NodeId, NodeView] = {}

        stopped = False
        round_index = -1  # the loop's first round is round 0, the plant round
        slots, groups, planting, next_retire, budget_driven = self._bind(lanes, round_index)
        while True:
            if round_index >= next_retire:
                for lane in lanes:
                    cap = lane.max_steps
                    if lane.active and cap is not None and lane.result.steps >= cap:
                        lane.active = False
                slots, groups, planting, next_retire, budget_driven = self._bind(lanes, round_index)
            if not slots and not planting:
                break
            round_index += 1
            round_started = time.perf_counter() if registry is not None else 0.0

            # 1. Step every bound lane off the views of the last batch and
            # claim each target the round's memo does not hold yet.
            fresh = views if memoising else {}
            frontier = []
            dead_end = False
            try:
                for lane, kernel, rng, state, add_path in slots:
                    view = views[state.current]
                    if not view.neighbors:
                        self._handle_dead_end(lane)
                        dead_end = True
                        continue
                    target = kernel.choose(state, view, rng)
                    kernel.observe(state, target, view)
                    state.advance(target)
                    add_path(target)
                    if target not in fresh:
                        fresh[target] = _FETCHING
                        frontier.append(target)
            except QueryBudgetExceededError:
                # A kernel-internal metadata query (GNRW grouping prefetch,
                # MHRW degree fallback) ran the budget dry mid-round; lanes
                # before this one have stepped, later ones have not — at most
                # one step apart, as documented.
                stopped = True
                break
            if dead_end:
                slots, groups, planting, next_retire, budget_driven = self._bind(lanes, round_index)
            if planting:
                # Plant nodes join the batch in lane order, as targets do.
                for node in frontier:
                    del fresh[node]
                frontier = []
                for lane in lanes:
                    node = lane.walker.current if lane.plant_at is None else lane.plant_at
                    if lane.active and node not in fresh:
                        fresh[node] = _FETCHING
                        frontier.append(node)

            # 2. One batch serves double duty: it provides this round's
            # samples and prefetches next round's stepping views.
            if frontier:
                try:
                    fresh.update(zip(frontier, query_many(frontier)))
                except QueryBudgetExceededError:
                    stopped = True
                    break
            views = fresh
            if registry is not None:
                registry.observe("repro_scheduler_frontier_size", len(frontier))
                registry.observe(
                    "repro_scheduler_round_ms",
                    (time.perf_counter() - round_started) * 1000.0,
                )

            # 3. Emit this round's samples and (re)plant lanes.
            query_cost = unique()
            for offset, group in groups:
                step = round_index - offset
                if step >= burn_in and (step - burn_in) % thinning == 0:
                    for state, add_sample in group:
                        view = views[state.current]
                        add_sample(
                            (view.node, len(view.neighbors), view.attributes, step, query_cost)
                        )
            if planting:
                for lane in planting:
                    node, lane.plant_at = lane.plant_at, None
                    view = views[node]
                    walker, result = lane.walker, lane.result
                    walker.reset()
                    if not view.neighbors:
                        if self.policy.on_dead_end == "raise":  # only start nodes get here
                            raise InvalidStartNodeError(
                                f"start node {format_node_id(node)} has no neighbors; "
                                f"walks require degree >= 1"
                            )
                        self._handle_dead_end(lane)
                        continue
                    walker.start_from_view(node, view)
                    if result.path:
                        result.restarts.append(len(result.path))
                    result.path.append(node)
                    step = result.steps
                    if step >= burn_in and (step - burn_in) % thinning == 0:
                        result.sample_records.append(
                            (view.node, len(view.neighbors), view.attributes, step, query_cost)
                        )
                slots, groups, planting, next_retire, budget_driven = self._bind(lanes, round_index)

            # Budget-driven lanes stop at the implicit step cap or once the
            # budget is spent.
            if round_index >= round_limit:
                break
            if budget_driven and budget.exhausted:
                stopped = True
                break
        return self._finalize(lanes, stopped)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _bind(lanes: Sequence[_Lane], round_index: int):
        """Bind each lane that steps next round to one flat slot.

        A slot is ``(lane, kernel, rng, state, path.append)``, so the round
        loop reads no lane attribute per step; lanes whose step counts trail
        ``round_index`` by the same offset share one sampling group.  Also
        returns the lanes to plant next round, the round at which the next
        step cap is reached, and whether any lane walks until the budget
        runs out.
        """
        slots = []
        groups: Dict[int, list] = {}
        planting = []
        next_retire = _NEVER
        budget_driven = False
        for lane in lanes:
            if not lane.active:
                continue
            if lane.max_steps is None:
                budget_driven = True
            if lane.plant_at is not None:
                planting.append(lane)
                continue
            walker, result, state = lane.walker, lane.result, lane.walker.state
            slots.append((lane, walker.kernel, walker.rng, state, result.path.append))
            taken = result.steps
            groups.setdefault(round_index - taken, []).append((state, result.sample_records.append))
            if lane.max_steps is not None:
                next_retire = min(next_retire, round_index + lane.max_steps - taken)
        return slots, list(groups.items()), planting, next_retire, budget_driven

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

    def _handle_dead_end(self, lane: _Lane) -> None:
        policy = self.policy
        if policy.on_dead_end == "raise":
            raise DeadEndError(lane.walker.current)
        if policy.on_dead_end == "restart" and (
            policy.max_restarts is None or lane.restarts < policy.max_restarts
        ):
            lane.restarts += 1
            lane.plant_at = self._pick_restart(lane)
            if lane.plant_at is not None:
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
        if steps is None or isinstance(steps, numbers.Integral):
            caps: List[Optional[int]] = [None if steps is None else int(steps)] * count
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
