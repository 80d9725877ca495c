"""Random-walk base class and walk execution machinery.

Every sampler in the library (SRW, MHRW, NB-SRW, CNRW, GNRW, NB-CNRW) derives
from :class:`RandomWalk` and supplies a :class:`~repro.walks.kernels.TransitionKernel`,
the rule that maps the walk history seen so far to the next node.  Everything
else — talking to the restrictive API, counting query cost, collecting samples
with burn-in and thinning, stopping at a query budget — lives here, so the
algorithms differ *only* in their transition design, exactly as in the paper.

The kernel split also separates the transition rule from the execution
driver: :meth:`RandomWalk.run` and :meth:`RandomWalk.step` query the API
themselves (the classic one-walker driver), while the batched
:class:`~repro.engine.scheduler.WalkScheduler` calls each walker's kernel
``choose``/``observe`` directly, in lockstep, off one shared batch per round,
without per-walker queries.  :meth:`RandomWalk.step_with_view` advances one
walker off a view fetched by someone else, for callers that hold one.

Every driver (:meth:`RandomWalk.run`, the scheduler's round loop and the vector
engine's :meth:`~repro.engine.vector.VectorEnsembleResult.to_walk_results`)
writes the same columnar :class:`WalkResult`: the path as node ids and one
plain :data:`~repro.types.SampleRecord` tuple per sample.  The drivers step
through the kernel (:meth:`RandomWalk.advance_with_view`, or the kernel's
``choose``/``observe`` directly), which yields the target node only;
:class:`~repro.types.Transition` and :class:`~repro.types.Sample`
objects are built from the columns when a caller first reads
``result.transitions`` / ``result.samples``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Dict, Iterator, List, Optional

from ..api.budget import QueryBudget
from ..api.interface import NodeView, SocialNetworkAPI
from ..api.middleware import resolve_attribute
from ..exceptions import (
    DeadEndError,
    InvalidStartNodeError,
    QueryBudgetExceededError,
    format_node_id,
)
from ..rng import SeedLike, make_rng
from ..types import NodeId, Sample, SampleRecord, Transition
from .kernels import TransitionKernel, WalkState


def query_budget(api: SocialNetworkAPI) -> QueryBudget:
    """The stack's unique-query budget (a fresh unlimited one if it has none).

    Looking ``api.budget`` up walks the middleware ``__getattr__`` chain, so
    the walk drivers resolve it once per walk and then read ``limit`` /
    ``exhausted`` off the object.
    """
    budget = getattr(api, "budget", None)
    return budget if budget is not None else QueryBudget(None)


def implicit_step_cap(limit: Optional[int]) -> int:
    """Step cap guarding budget-driven walks that can never spend the budget
    (e.g. the budget exceeds the reachable component); shared by both walk
    drivers so they terminate identically."""
    return max(1000, 20 * limit) if limit is not None else 1000


@dataclass
class WalkResult:
    """Everything produced by one walk execution, stored as columns of values.

    The drivers append each visited node to ``path`` and each collected
    sample to ``sample_records`` as one
    :data:`~repro.types.SampleRecord` tuple ``(node, degree, attributes,
    step_index, query_cost)``, whose ``attributes`` is the served view's
    mapping held by reference (never the view itself, whose neighbor tuple
    must not outlive the cache).  :attr:`samples` and :attr:`transitions`
    are built from those columns on first access, so a crawl that is only
    counted or estimated from never constructs a
    :class:`~repro.types.Sample` or :class:`~repro.types.Transition`.

    Attributes:
        path: The full node sequence visited by the walk (including the start
            and any restart nodes).
        sample_records: One record per sample emitted after burn-in /
            thinning.
        restarts: Indices into ``path`` where a dead-end restart replanted
            the walk; no transition leads into these nodes.
        unique_queries: Unique query cost at the end of the walk.
        total_queries: Total query calls (cache hits included).
        stopped_by_budget: Whether the walk ended because the budget ran out
            (as opposed to reaching the requested number of steps).
    """

    path: List[NodeId] = field(default_factory=list)
    sample_records: List[SampleRecord] = field(default_factory=list)
    restarts: List[int] = field(default_factory=list)
    unique_queries: int = 0
    total_queries: int = 0
    stopped_by_budget: bool = False

    @property
    def steps(self) -> int:
        """Number of transitions performed."""
        return max(0, len(self.path) - 1 - len(self.restarts))

    @property
    def num_samples(self) -> int:
        """Number of samples collected (without building them)."""
        return len(self.sample_records)

    @cached_property
    def samples(self) -> List[Sample]:
        """Samples emitted after burn-in / thinning (built on first access)."""
        return [
            Sample(node, degree, dict(attributes), step_index, query_cost)
            for node, degree, attributes, step_index, query_cost in self.sample_records
        ]

    @cached_property
    def transitions(self) -> List[Transition]:
        """The individual transitions of the walk (built on first access).

        Step indices count from each (re)start, as the walker's state does.
        """
        path = self.path
        bounds = [0, *self.restarts, len(path)]
        return [
            Transition(path[i], path[i + 1], i - begin)
            for begin, end in zip(bounds, bounds[1:])
            for i in range(begin, end - 1)
        ]

    def sample_nodes(self) -> List[NodeId]:
        """Return the node ids of the collected samples."""
        return [record[0] for record in self.sample_records]

    def visit_counts(self) -> Dict[NodeId, int]:
        """Return how many times each node appears in the path."""
        return Counter(self.path)


class RandomWalk:
    """Base class for all random-walk samplers.

    Args:
        api: The restrictive-access API the walk queries.
        kernel: The transition rule.  It is the only place a walker's
            behaviour lives: every driver calls the kernel's ``choose`` and
            ``observe`` directly, so a new sampler is a new
            :class:`~repro.walks.kernels.TransitionKernel`, not an override.
        seed: Seed (or generator) driving the walk's randomness.
    """

    #: Human-readable algorithm name, overridden by subclasses.
    name = "random-walk"

    def __init__(
        self,
        api: SocialNetworkAPI,
        kernel: TransitionKernel,
        seed: SeedLike = None,
    ) -> None:
        self.api = api
        self.rng = make_rng(seed)
        self.kernel = kernel
        self._state = WalkState()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> WalkState:
        """The walk's position state (shared with external drivers)."""
        return self._state

    @property
    def current(self) -> Optional[NodeId]:
        """The node the walk is currently at (``None`` before ``start``)."""
        return self._state.current

    @property
    def previous(self) -> Optional[NodeId]:
        """The node visited immediately before the current one."""
        return self._state.previous

    @property
    def step_index(self) -> int:
        """Number of transitions performed so far."""
        return self._state.step_index

    def reset(self) -> None:
        """Forget the walk position and the kernel's history."""
        self._state.clear()
        self.kernel.reset()

    # ------------------------------------------------------------------
    # Walking
    # ------------------------------------------------------------------
    def start(self, node: NodeId) -> NodeView:
        """Place the walk at ``node`` and query its neighborhood."""
        view = self.api.query(node)
        return self.start_from_view(node, view)

    def start_from_view(self, node: NodeId, view: NodeView) -> NodeView:
        """Place the walk at ``node`` using an externally fetched view.

        Used by batch drivers that already hold the node's view (e.g. from a
        ``query_many`` prefetch) so placement costs no extra API call.
        """
        if view.degree == 0:
            raise InvalidStartNodeError(
                f"start node {format_node_id(node)} has no neighbors; walks require degree >= 1"
            )
        self._state.place(node)
        return view

    def step(self) -> Transition:
        """Perform one transition and return it."""
        if self._state.current is None:
            raise InvalidStartNodeError("walk has not been started; call start() first")
        view = self.api.query(self._state.current)
        return self.step_with_view(view)

    def step_with_view(self, view: NodeView) -> Transition:
        """Perform one transition off an externally fetched view of the
        current node (no API query issued by this method itself; the kernel
        may still query for metadata, e.g. GNRW grouping prefetch).  No walk
        driver calls it: :meth:`run` uses :meth:`advance_with_view`, and the
        scheduler calls the kernel directly."""
        source = self._state.current
        step_index = self._state.step_index
        target = self.advance_with_view(view)
        return Transition(source=source, target=target, step_index=step_index)

    def advance_with_view(self, view: NodeView) -> NodeId:
        """:meth:`step_with_view` without the :class:`Transition`: perform
        the transition and return the node moved to (the drivers' form)."""
        state = self._state
        if state.current is None:
            raise InvalidStartNodeError("walk has not been started; call start() first")
        if not view.neighbors:
            raise DeadEndError(state.current)
        kernel = self.kernel
        target = kernel.choose(state, view, self.rng)
        kernel.observe(state, target, view)
        state.advance(target)
        return target

    def walk(self, start_node: NodeId, steps: int) -> WalkResult:
        """Run ``steps`` transitions from ``start_node`` (budget permitting)."""
        return self.run(start_node, max_steps=steps)

    def run(
        self,
        start_node: NodeId,
        max_steps: Optional[int] = None,
        burn_in: int = 0,
        thinning: int = 1,
        max_samples: Optional[int] = None,
    ) -> WalkResult:
        """Execute the walk and collect samples.

        Args:
            start_node: Node to start from.
            max_steps: Stop after this many transitions (``None`` = only stop
                on budget exhaustion or ``max_samples``).
            burn_in: Number of initial transitions to discard before emitting
                samples.
            thinning: Emit one sample every ``thinning`` transitions after the
                burn-in (1 = every visited node is a sample).
            max_samples: Stop once this many samples have been collected.

        The walk always stops gracefully when the API's query budget runs out;
        the partial result is returned with ``stopped_by_budget=True``.  When
        ``max_steps`` is omitted, walking stops as soon as the budget is
        exhausted; an implicit step cap (a generous multiple of the budget)
        guards against the pathological case where the budget exceeds the size
        of the reachable component and could therefore never be spent.
        """
        if thinning < 1:
            raise ValueError("thinning must be at least 1")
        if burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        api = self.api
        budget = query_budget(api)
        if max_steps is None and max_samples is None and budget.unlimited:
            raise ValueError(
                "walk would never terminate: provide max_steps, max_samples, "
                "or an API with a finite query budget"
            )
        step_cap = max_steps
        if max_steps is None and budget.limit is not None:
            step_cap = implicit_step_cap(budget.limit)
        self.reset()
        result = WalkResult()
        try:
            view = self.start(start_node)
        except QueryBudgetExceededError:
            result.stopped_by_budget = True
            self._finalize(result)
            return result
        query = api.query
        unique = partial(getattr, *resolve_attribute(api, "unique_queries"))
        state = self._state
        records = result.sample_records
        add_node = result.path.append
        add_sample = records.append
        add_node(start_node)
        if burn_in == 0:
            add_sample((view.node, len(view.neighbors), view.attributes, 0, unique()))
        while True:
            step = state.step_index
            if step_cap is not None and step >= step_cap:
                break
            if max_samples is not None and len(records) >= max_samples:
                break
            if max_steps is None and budget.exhausted:
                result.stopped_by_budget = True
                break
            try:
                target = self.advance_with_view(query(state.current))
            except QueryBudgetExceededError:
                result.stopped_by_budget = True
                break
            add_node(target)
            step += 1
            if step >= burn_in and (step - burn_in) % thinning == 0:
                try:
                    view = query(target)
                except QueryBudgetExceededError:
                    result.stopped_by_budget = True
                    break
                add_sample((view.node, len(view.neighbors), view.attributes, step, unique()))
        self._finalize(result)
        return result

    def iter_steps(self, start_node: NodeId) -> Iterator[Transition]:
        """Yield transitions indefinitely (until budget exhaustion).

        Useful for streaming consumers; the iterator stops silently when the
        query budget runs out.
        """
        self.reset()
        try:
            self.start(start_node)
        except QueryBudgetExceededError:
            return
        while True:
            try:
                yield self.step()
            except QueryBudgetExceededError:
                return

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _finalize(self, result: WalkResult) -> None:
        result.unique_queries = self.api.unique_queries
        result.total_queries = self.api.total_queries

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(current={self._state.current!r}, "
            f"steps={self._state.step_index})"
        )
