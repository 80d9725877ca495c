"""The restrictive social-network access interface and its simulator.

Section 2.1 of the paper defines the access model precisely: the only query a
third party can issue takes a user id ``u`` and returns (1) ``N(u)``, the set
of ``u``'s neighbors, and (2) the other attributes of ``u``.  The full graph
topology is never available.  Every sampler in :mod:`repro.walks` is written
against the :class:`SocialNetworkAPI` interface here, so it genuinely cannot
"cheat" by reading the underlying graph.

The concrete machinery lives in three sibling modules: raw storage backends
in :mod:`repro.api.backend`, policy middleware (cache, budget, rate limit,
shuffle, trace) in :mod:`repro.api.middleware`, and the stack assembler
:func:`repro.api.builder.build_api`, the one way to build an API.  A query
answers with a :data:`NodeView`, which is the backend's
:data:`~repro.api.backend.RawRecord` itself: one class,
:class:`~repro.types.NodeRecord`, built once per billed fetch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..types import NodeId, NodeRecord


#: The response of one neighborhood query: neighbors plus attributes.  It is
#: the same class as :class:`~repro.api.backend.RawRecord`: the record a
#: backend fetch builds is the view the query returns.
NodeView = NodeRecord


class SocialNetworkAPI:
    """Abstract restrictive-access interface (Section 2.1 of the paper).

    Implementations must expose exactly one kind of query: given a node id,
    return that node's neighbor list and attributes.  The query-cost counters
    let callers reason about crawl budgets without knowing how the data is
    actually served.
    """

    def query(self, node: NodeId) -> NodeView:
        """Return the :class:`NodeView` of ``node`` (one API call)."""
        raise NotImplementedError

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        """Return one :class:`NodeView` per node, in order.

        Semantically equivalent to ``[self.query(n) for n in nodes]`` — each
        node is billed under the same rules as a single query — but
        implementations forward the batch down their stack so backends can
        amortise per-query overhead (the multi-walker ensemble path).

        Failure semantics match the sequential loop: when the query budget
        runs out mid-batch — or an unknown node interrupts the degraded
        sequential path the budget layer uses — everything fetched before
        the stopping point is billed and cached, and the error raises at the
        same node the loop would have stopped on.  The one deliberate
        difference: a batch aborted by an *unknown* node while the budget
        still fits bills no unique queries (the atomic fetch delivers
        nothing), while ``total_queries`` still counts the attempted calls.
        """
        return [self.query(node) for node in nodes]

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Convenience wrapper returning only the neighbor list."""
        return list(self.query(node).neighbors)

    def degree(self, node: NodeId) -> int:
        """Convenience wrapper returning only the degree."""
        return self.query(node).degree

    def attributes(self, node: NodeId) -> Dict[str, Any]:
        """Convenience wrapper returning only the attributes."""
        return dict(self.query(node).attributes)

    def peek_metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        """Return the free profile summary of ``node``, or ``None``.

        Real OSN APIs return a profile summary (attributes, friend count) for
        every neighbor listed in a neighborhood response, which is what makes
        attribute- and degree-based GNRW grouping possible without extra
        queries.  Implementations that can serve this inline metadata return a
        ``{"degree": ..., "attributes": ...}`` mapping without billing the
        query budget; the default is ``None`` (no free metadata available), in
        which case grouping strategies fall back to cached views or prefetch.
        """
        return None

    @property
    def unique_queries(self) -> int:
        """Number of distinct nodes queried so far (the paper's query cost)."""
        raise NotImplementedError

    @property
    def total_queries(self) -> int:
        """Total number of query calls, including cache hits."""
        raise NotImplementedError

    def reset_counters(self) -> None:
        """Reset query counters (and caches) for a fresh crawl."""
        raise NotImplementedError
