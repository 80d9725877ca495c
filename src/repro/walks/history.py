"""History bookkeeping for the history-aware walks (CNRW / GNRW).

CNRW maintains, for every traversed directed edge ``u -> v``, the set
``b(u, v)`` of neighbors of ``v`` already chosen as the outgoing step after
``u -> v`` since the last reset (Algorithm 1 in the paper).

GNRW additionally stratifies the neighbors into groups and circulates over the
groups.  Its per-edge state (Section 4.1, steps 1-4) couples two exclusion
sets:

* ``b(u, v)`` — the nodes attempted since the last *full-neighborhood* reset
  (the same set CNRW keeps; it resets only once every neighbor of ``v`` has
  been attempted), and
* ``S(u, v)`` — the groups attempted since the last *group-round* reset (it
  resets once every group has been attempted, or when no un-attempted group
  still has un-attempted members).

Choosing "a group with probability proportional to the number of
not-yet-attempted transitions in each group" (Figure 4 of the paper) over the
groups allowed by ``S(u, v)`` and then a uniform not-yet-attempted member of
that group guarantees that each neighbor is attempted exactly once per
``|N(v)|`` departures along ``u -> v`` — which is what keeps the stationary
distribution identical to SRW (Theorem 4) while making the groups alternate
as evenly as possible (the stratification that lowers variance).

The structures here are intentionally dumb containers with O(1) amortised
updates keyed by the directed edge, plus explicit reset rules and inspection
helpers used by the tests to verify the circulation invariants.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from ..types import Edge, NodeId


class EdgeHistory:
    """The ``b(u, v)`` map of CNRW: visited outgoing neighbors per edge."""

    def __init__(self) -> None:
        self._visited: Dict[Edge, Set[NodeId]] = {}

    def visited(self, source: NodeId, current: NodeId) -> Set[NodeId]:
        """Return (a copy of) the exclusion set ``b(source, current)``."""
        return set(self._visited.get((source, current), set()))

    def remaining(
        self, source: NodeId, current: NodeId, neighbors: Sequence[NodeId]
    ) -> Sequence[NodeId]:
        """Return the neighbors of ``current`` not yet attempted after this edge.

        The result preserves the order of ``neighbors`` so the caller's
        uniform choice over it is well-defined and reproducible.  It is the
        neighbors themselves when nothing is excluded (a fresh edge costs no
        copy), and a new list otherwise; callers must not mutate it.
        """
        excluded = self._visited.get((source, current))
        if not excluded:
            return neighbors
        return [node for node in neighbors if node not in excluded]

    def record(self, source: NodeId, current: NodeId, chosen: NodeId, neighbors) -> bool:
        """Record that ``chosen`` was taken after ``source -> current``.

        Implements step 2 of the CNRW description: add the chosen node to
        ``b(u, v)`` and, if the exclusion set now covers every neighbor, reset
        it to empty (a new circulation round starts).  Returns ``True`` when a
        reset happened.

        ``neighbors`` must not contain duplicate entries (API neighbor tuples
        never do); the cheap length guard that keeps this O(1) on the hot
        path relies on it.
        """
        key = (source, current)
        bucket = self._visited.get(key)
        if bucket is None:
            bucket = self._visited[key] = set()
        bucket.add(chosen)
        # A reset needs every neighbor in the bucket, which is impossible
        # while the bucket is smaller — skip the set work on the common path.
        if len(bucket) < len(neighbors) or not neighbors:
            return False
        if set(neighbors).issubset(bucket):
            self._visited[key] = set()
            return True
        return False

    def reset_edge(self, source: NodeId, current: NodeId) -> None:
        """Explicitly clear the exclusion set of one edge."""
        self._visited.pop((source, current), None)

    def clear(self) -> None:
        """Forget all history (used by ``RandomWalk.reset``)."""
        self._visited.clear()

    @property
    def tracked_edges(self) -> int:
        """Number of directed edges with a (possibly empty) exclusion set."""
        return len(self._visited)

    def state(self) -> Dict[Edge, FrozenSet[NodeId]]:
        """Return an immutable snapshot of the full history (for tests)."""
        return {edge: frozenset(nodes) for edge, nodes in self._visited.items()}


GroupKey = Hashable


class GroupedEdgeHistory:
    """The coupled ``b(u, v)`` / ``S(u, v)`` state of GNRW.

    For each directed edge the history keeps the set of attempted *nodes*
    (reset only when the whole neighborhood has been covered) and the set of
    attempted *groups* within the current group round (reset when every group
    has been attempted or no allowed group has un-attempted members left).
    """

    def __init__(self) -> None:
        self._nodes_attempted: Dict[Edge, Set[NodeId]] = {}
        self._groups_attempted: Dict[Edge, Set[GroupKey]] = {}

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def attempted_nodes(self, source: NodeId, current: NodeId) -> Set[NodeId]:
        """Return (a copy of) ``b(source, current)``."""
        return set(self._nodes_attempted.get((source, current), set()))

    def attempted_groups(self, source: NodeId, current: NodeId) -> Set[GroupKey]:
        """Return (a copy of) ``S(source, current)``."""
        return set(self._groups_attempted.get((source, current), set()))

    def remaining_in_group(
        self, source: NodeId, current: NodeId, members: Sequence[NodeId]
    ) -> List[NodeId]:
        """Return the members of one group not yet attempted along this edge."""
        attempted = self._nodes_attempted.get((source, current))
        if not attempted:
            return list(members)
        return [node for node in members if node not in attempted]

    def candidate_groups(
        self,
        source: NodeId,
        current: NodeId,
        partition: Dict[GroupKey, Sequence[NodeId]],
    ) -> Tuple[List[GroupKey], Dict[GroupKey, List[NodeId]]]:
        """Return the groups eligible for the next departure and their members.

        Eligible groups are those outside ``S(u, v)`` that still contain
        not-yet-attempted members.  If there is no such group the group round
        is (conceptually) over: all groups with remaining members become
        eligible again.  If *no* group has remaining members the neighborhood
        is exhausted and every group is eligible with its full member list
        (the node memory is about to reset).  The returned mapping gives, per
        eligible group, the members that may be chosen; the caller must not
        mutate it (on a fresh edge it is ``partition`` itself).  Every group
        of ``partition`` is non-empty, as every grouping strategy builds it.
        """
        key = (source, current)
        attempted_nodes = self._nodes_attempted.get(key)
        if not attempted_nodes:
            # Fresh edge: S(u, v) only gains a group together with a node of
            # b(u, v), so it is empty too and every group is eligible whole.
            return list(partition), partition
        attempted_groups = self._groups_attempted.get(key, set())

        remaining = {
            group: [node for node in members if node not in attempted_nodes]
            for group, members in partition.items()
        }
        fresh = [
            group
            for group in partition
            if group not in attempted_groups and remaining[group]
        ]
        if fresh:
            return fresh, {group: remaining[group] for group in fresh}
        # Group round over: any group with remaining members is eligible.
        with_remaining = [group for group in partition if remaining[group]]
        if with_remaining:
            return with_remaining, {group: remaining[group] for group in with_remaining}
        # Full neighborhood exhausted: everything resets, all members eligible.
        return list(partition), {group: list(members) for group, members in partition.items()}

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def record(
        self,
        source: NodeId,
        current: NodeId,
        group: GroupKey,
        chosen: NodeId,
        partition: Dict[GroupKey, Sequence[NodeId]],
    ) -> None:
        """Record a departure and apply the reset rules of Section 4.1 step 4.

        ``b(u, v)`` gains the chosen node and resets once it covers every
        neighbor; ``S(u, v)`` gains the chosen group and resets once it covers
        every group or once no un-attempted group has members left to offer.
        """
        key = (source, current)
        nodes = self._nodes_attempted.setdefault(key, set())
        groups = self._groups_attempted.setdefault(key, set())

        nodes.add(chosen)
        groups.add(group)

        # Full-neighborhood reset: needs every member of every group in
        # b(u, v); a cheap size guard (partitions are disjoint, so member
        # counts add up) avoids building the union set on the common path.
        total_members = sum(map(len, partition.values()))
        if total_members and len(nodes) >= total_members:
            all_nodes = {node for members in partition.values() for node in members}
            if all_nodes.issubset(nodes):
                self._nodes_attempted[key] = set()
                self._groups_attempted[key] = set()
                return
        if len(groups) >= len(partition) and all(g in groups for g in partition):
            self._groups_attempted[key] = set()
            return
        # Early group-round reset: if every group outside S(u, v) is already
        # fully covered by b(u, v), the next departure could not respect the
        # group circulation; start a new group round now.
        exhausted = True
        for other_group, members in partition.items():
            if other_group in groups:
                continue
            for node in members:
                if node not in nodes:
                    exhausted = False
                    break
            if not exhausted:
                break
        if exhausted:
            self._groups_attempted[key] = set()

    def clear(self) -> None:
        """Forget all history."""
        self._nodes_attempted.clear()
        self._groups_attempted.clear()

    @property
    def tracked_edges(self) -> int:
        return len(self._nodes_attempted)

    def state(self):
        """Return an immutable snapshot (for tests)."""
        nodes = {edge: frozenset(values) for edge, values in self._nodes_attempted.items()}
        groups = {edge: frozenset(values) for edge, values in self._groups_attempted.items()}
        return nodes, groups
