"""Transition kernels: the per-step rule of each sampler, extracted.

A :class:`TransitionKernel` is the algorithmic heart of one sampler — the map
from ``(walk state, current NodeView, rng)`` to the next node — separated
from the execution driver that feeds it views.  The split exists so that the
same kernel can be advanced by two very different drivers:

* :class:`~repro.walks.base.RandomWalk` — the classic one-walk-at-a-time
  driver, which queries the API step by step (``walk.step()``); and
* :class:`~repro.engine.scheduler.WalkScheduler` — the ensemble driver, which
  advances many kernels in lockstep and prefetches each round's frontier in a
  single batched ``query_many`` call.

Kernels are *stateless-ish*: they hold no walk position (that lives in the
driver's :class:`WalkState`) but do own their history bookkeeping (the
``b(u, v)`` / ``S(u, v)`` structures of CNRW/GNRW), which :meth:`reset`
clears.  Kernels that need free neighbor metadata (MHRW's acceptance ratio,
GNRW's grouping) keep a reference to the API they were built against; they
never advance the walk through it.

Randomness discipline: a kernel draws from the rng it is *passed*, in exactly
the order the pre-refactor walker classes did, so a kernel-driven walk under a
fixed seed reproduces the historic per-step paths bit for bit (the golden
fingerprint tests pin this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..api.interface import NodeView, SocialNetworkAPI
from ..api.middleware import resolve_attribute
from ..rng import cumulative_pick
from ..types import NodeId

#: Sentinel "source" used when no incoming edge exists yet (the first hop of
#: an edge-keyed circulation) and as the shared key of node-keyed recurrence.
NO_SOURCE = object()


@dataclass
class WalkState:
    """The driver-owned position of one walk: where it is and how it got here.

    Attributes:
        current: The node the walk is at (``None`` before placement).
        previous: The node visited immediately before the current one.
        step_index: Number of transitions performed so far.
    """

    current: Optional[NodeId] = None
    previous: Optional[NodeId] = None
    step_index: int = 0

    def place(self, node: NodeId) -> None:
        """Position the walk at ``node`` as a fresh start."""
        self.current = node
        self.previous = None
        self.step_index = 0

    def advance(self, target: NodeId) -> None:
        """Move the walk to ``target``, shifting the current node to previous."""
        self.previous = self.current
        self.current = target
        self.step_index += 1

    def clear(self) -> None:
        """Forget the position entirely."""
        self.current = None
        self.previous = None
        self.step_index = 0


def uniform_choice(rng: np.random.Generator, items) -> NodeId:
    """Uniformly choose one element (the single rng draw of most kernels)."""
    if not items:
        raise ValueError("cannot choose from an empty neighbor set")
    return items[int(rng.integers(0, len(items)))]


class TransitionKernel:
    """The per-step transition rule of one sampler.

    Subclasses implement :meth:`choose` (pick the next node) and may override
    :meth:`observe` (update history after the choice, before the driver
    advances the state) and :meth:`reset` (clear history between walks).
    """

    #: Human-readable kernel name, overridden by subclasses.
    name = "kernel"

    def choose(self, state: WalkState, view: NodeView, rng: np.random.Generator) -> NodeId:
        """Return the next node given the current node's view."""
        raise NotImplementedError

    def observe(self, state: WalkState, target: NodeId, view: NodeView) -> None:
        """Record that the walk is about to move ``state.current -> target``."""

    def reset(self) -> None:
        """Clear any history the kernel accumulated."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


class SRWKernel(TransitionKernel):
    """Memoryless uniform-neighbor rule (Definition 2, the SRW baseline)."""

    name = "srw"

    def choose(self, state: WalkState, view: NodeView, rng: np.random.Generator) -> NodeId:
        return uniform_choice(rng, view.neighbors)


class WeightedChoiceKernel(TransitionKernel):
    """Neighbor choice proportional to ``weight_fn(view, neighbor)``."""

    name = "weighted"

    def __init__(self, weight_fn) -> None:
        self.weight_fn = weight_fn

    def choose(self, state: WalkState, view: NodeView, rng: np.random.Generator) -> NodeId:
        neighbors = view.neighbors
        weights = [max(0.0, float(self.weight_fn(view, node))) for node in neighbors]
        total = sum(weights)
        if total <= 0:
            return uniform_choice(rng, neighbors)
        return cumulative_pick(neighbors, weights, rng.random() * total)


class MHRWKernel(TransitionKernel):
    """Metropolis-Hastings accept/reject rule targeting the uniform law.

    Evaluating the acceptance ratio needs the proposed neighbor's degree; the
    kernel reads it from the API's free inline profile metadata when available
    and falls back to a billed query otherwise, exactly as a real MHRW crawler
    (and the pre-refactor walker) does.
    """

    name = "mhrw"

    def __init__(self, api: SocialNetworkAPI) -> None:
        self.api = api
        # Resolved once, past the layers that only forward it: the stack is
        # fixed after construction, and this call sits on the per-proposal
        # hot path.
        self._peek = getattr(*resolve_attribute(api, "peek_metadata"), None)

    def choose(self, state: WalkState, view: NodeView, rng: np.random.Generator) -> NodeId:
        proposal = uniform_choice(rng, view.neighbors)
        proposal_degree = self._degree_of(proposal)
        if proposal_degree <= 0:
            # A neighbor always has degree >= 1 (it is connected to us), but a
            # defensive fallback keeps the walk alive on inconsistent data.
            return view.node
        acceptance = min(1.0, view.degree / proposal_degree)
        if rng.random() < acceptance:
            return proposal
        return view.node

    def _degree_of(self, node: NodeId) -> int:
        if self._peek is not None:
            metadata = self._peek(node)
            if metadata is not None:
                return int(metadata.get("degree", 0))
        return self.api.query(node).degree


class NBSRWKernel(TransitionKernel):
    """Order-2 rule that never immediately returns to the previous node."""

    name = "nbsrw"

    def choose(self, state: WalkState, view: NodeView, rng: np.random.Generator) -> NodeId:
        neighbors = view.neighbors
        previous = state.previous
        if previous is not None and len(neighbors) > 1:
            candidates = [node for node in neighbors if node != previous]
        else:
            candidates = list(neighbors)
        return uniform_choice(rng, candidates)


class CNRWKernel(TransitionKernel):
    """Circulated-neighbors rule (Algorithm 1): without-replacement per edge.

    Args:
        recurrence: ``"edge"`` keys the circulation by the incoming edge
            ``u -> v`` (the paper's CNRW); ``"node"`` keys it by the current
            node only (the Section 3.2 ablation variant).
    """

    name = "cnrw"

    def __init__(self, recurrence: str = "edge") -> None:
        from .history import EdgeHistory

        if recurrence not in ("edge", "node"):
            raise ValueError("recurrence must be 'edge' or 'node'")
        self.recurrence = recurrence
        if recurrence == "node":
            self.name = "cnrw-node"
        self.history = EdgeHistory()

    def reset(self) -> None:
        self.history.clear()

    def choose(self, state: WalkState, view: NodeView, rng: np.random.Generator) -> NodeId:
        source = self._history_key(state)
        candidates = self.history.remaining(source, view.node, view.neighbors)
        if candidates:
            return uniform_choice(rng, candidates)
        # Defensive branch mirroring Algorithm 1: if the exclusion set somehow
        # covers every neighbor (it is normally reset the moment that happens)
        # fall back to a uniform choice over all neighbors.
        return uniform_choice(rng, view.neighbors)

    def observe(self, state: WalkState, target: NodeId, view: NodeView) -> None:
        key = self._history_key(state)
        self.history.record(key, state.current, target, view.neighbors)

    def _history_key(self, state: WalkState):
        """First component of the history key for the pending hop.

        Edge-based recurrence uses the previous node (the incoming edge is
        ``previous -> current``); node-based recurrence collapses all incoming
        edges into one shared key.
        """
        if self.recurrence == "node":
            return NO_SOURCE
        return state.previous if state.previous is not None else NO_SOURCE


class GNRWKernel(TransitionKernel):
    """Group-by-neighbors rule (Section 4): circulate groups, then members.

    Holds the coupled ``b(u, v)`` / ``S(u, v)`` bookkeeping plus the pending
    partition of the current hop, so :meth:`observe` never recomputes groups.
    Needs the API for the grouping strategy's metadata lookups.
    """

    name = "gnrw"

    def __init__(self, api: SocialNetworkAPI, grouping) -> None:
        from .history import GroupedEdgeHistory

        self.api = api
        self.grouping = grouping
        self.name = f"gnrw[{grouping.name}]"
        self.history = GroupedEdgeHistory()
        self._pending_partition: Optional[Dict] = None
        self._pending_group = None

    def reset(self) -> None:
        self.history.clear()
        self._pending_partition = None
        self._pending_group = None

    def choose(self, state: WalkState, view: NodeView, rng: np.random.Generator) -> NodeId:
        source = self._history_key(state)
        partition = self.grouping.partition(view.neighbors, self.api)
        groups, eligible_members = self.history.candidate_groups(source, view.node, partition)
        chosen_group = self._choose_group(groups, eligible_members, rng)
        chosen = uniform_choice(rng, eligible_members[chosen_group])
        self._pending_partition = partition
        self._pending_group = chosen_group
        return chosen

    def observe(self, state: WalkState, target: NodeId, view: NodeView) -> None:
        key = self._history_key(state)
        partition = self._pending_partition
        group = self._pending_group
        if partition is None:
            partition = self.grouping.partition(view.neighbors, self.api)
        if group is None or target not in partition.get(group, ()):
            group = next(
                (candidate for candidate, members in partition.items() if target in members),
                group,
            )
        self.history.record(key, state.current, group, target, partition)
        self._pending_partition = None
        self._pending_group = None

    def _choose_group(self, groups: List, eligible_members: Dict, rng) -> object:
        """Pick a group with probability proportional to its eligible members.

        "Probability proportional to the number of not-yet-attempted
        transitions in each group" (paper Figure 4) is exactly what keeps each
        neighbor's long-run departure frequency at ``1/|N(v)|``: summed over a
        full neighborhood circulation, every member of every group is chosen
        exactly once.
        """
        if len(groups) == 1:
            return groups[0]
        weights = [len(eligible_members[group]) for group in groups]
        total = sum(weights)
        threshold = rng.random() * total
        cumulative = 0
        for group, weight in zip(groups, weights):
            cumulative += weight
            if threshold < cumulative:
                return group
        return groups[-1]

    def _history_key(self, state: WalkState):
        return state.previous if state.previous is not None else NO_SOURCE


class NBCNRWKernel(TransitionKernel):
    """CNRW circulation applied on top of the non-backtracking walk.

    Holds the pending hop's view and NB-filtered neighbors, so :meth:`observe`
    reuses the list :meth:`choose` built instead of filtering again.
    """

    name = "nbcnrw"

    def __init__(self) -> None:
        from .history import EdgeHistory

        self.history = EdgeHistory()
        self._pending_view: Optional[NodeView] = None
        self._pending_allowed = None

    def reset(self) -> None:
        self.history.clear()
        self._pending_view = None
        self._pending_allowed = None

    @staticmethod
    def _allowed(state: WalkState, view: NodeView):
        """Neighbors minus the backtracking edge (the shared NB filter).

        Returns the view's neighbor tuple itself when nothing is excluded, so
        the unconstrained case costs no copy.
        """
        previous = state.previous
        neighbors = view.neighbors
        if previous is not None and len(neighbors) > 1:
            return [node for node in neighbors if node != previous]
        return neighbors

    def choose(self, state: WalkState, view: NodeView, rng: np.random.Generator) -> NodeId:
        allowed = self._allowed(state, view)
        self._pending_view = view
        self._pending_allowed = allowed
        source = state.previous if state.previous is not None else NO_SOURCE
        candidates = self.history.remaining(source, view.node, allowed)
        if candidates:
            return uniform_choice(rng, candidates)
        return uniform_choice(rng, allowed)

    def observe(self, state: WalkState, target: NodeId, view: NodeView) -> None:
        allowed = self._pending_allowed
        if view is not self._pending_view:
            allowed = self._allowed(state, view)
        self._pending_view = None
        self._pending_allowed = None
        source = state.previous if state.previous is not None else NO_SOURCE
        self.history.record(source, state.current, target, allowed)
