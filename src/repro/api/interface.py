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
:func:`repro.api.builder.build_api`.  A query answers with a
:data:`NodeView`, which is the backend's :data:`~repro.api.backend.RawRecord`
itself: one class, :class:`~repro.types.NodeRecord`, built once per billed
fetch.  :class:`GraphAPI` here is the legacy entry point, preserved as a thin
shim that builds the canonical stack over an in-memory graph with its
original constructor signature.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..graphs.graph import Graph
from ..rng import SeedLike, make_rng
from ..types import NodeId, NodeRecord
from .budget import QueryBudget
from .cache import QueryCache
from .ratelimit import RateLimitPolicy, SimulatedClock, UnlimitedPolicy


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


class GraphAPI(SocialNetworkAPI):
    """Simulate the restrictive API over an in-memory graph.

    Since the access-layer redesign this class is a thin shim: the constructor
    assembles the canonical middleware stack (cache -> budget -> rate-limit ->
    shuffle -> in-memory backend) via :func:`repro.api.builder.build_api` and
    forwards every call to it.  Behaviour — including exact query accounting
    and seeded neighbor shuffling — is walk-for-walk identical to the historic
    monolithic implementation; new code should prefer ``build_api`` or
    :class:`~repro.api.session.SamplingSession` directly.

    Args:
        graph: The underlying social graph.
        budget: Optional :class:`QueryBudget` limiting *unique* queries.
        rate_limit: Optional rate-limit policy applied to unique queries.
        clock: Simulated clock used by the rate limiter (a fresh one is
            created when omitted).
        cache_capacity: ``None`` for the paper's unbounded local cache, or an
            integer for an LRU cache (re-queries of evicted nodes are billed
            again).
        shuffle_neighbors: When true, the neighbor list returned by each
            *fresh* query is stored in a random order.  Real APIs give no
            ordering guarantees; the stored order is then fixed for all cache
            hits, mimicking a deterministic pagination order per node.
        seed: Seed for the neighbor shuffling.
    """

    def __init__(
        self,
        graph: Graph,
        budget: Optional[QueryBudget] = None,
        rate_limit: Optional[RateLimitPolicy] = None,
        clock: Optional[SimulatedClock] = None,
        cache_capacity: Optional[int] = None,
        shuffle_neighbors: bool = False,
        seed: SeedLike = None,
    ) -> None:
        from .builder import build_api

        self._graph = graph
        self.budget = budget if budget is not None else QueryBudget(None)
        self.rate_limit = rate_limit or UnlimitedPolicy()
        self.clock = clock or SimulatedClock()
        self._rng = make_rng(seed)
        self._stack = build_api(
            graph,
            budget=self.budget,
            rate_limit=self.rate_limit,
            clock=self.clock,
            cache_capacity=cache_capacity,
            shuffle_neighbors=shuffle_neighbors,
            seed=self._rng,
        )

    # ------------------------------------------------------------------
    # SocialNetworkAPI interface
    # ------------------------------------------------------------------
    def query(self, node: NodeId) -> NodeView:
        return self._stack.query(node)

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        return self._stack.query_many(nodes)

    @property
    def unique_queries(self) -> int:
        return self._stack.unique_queries

    @property
    def total_queries(self) -> int:
        return self._stack.total_queries

    def reset_counters(self) -> None:
        self._stack.reset_counters()

    def peek_metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        return self._stack.peek_metadata(node)

    # ------------------------------------------------------------------
    # Introspection helpers (not part of the restricted interface)
    # ------------------------------------------------------------------
    @property
    def stack(self) -> SocialNetworkAPI:
        """The middleware stack the shim forwards to."""
        return self._stack

    @property
    def graph(self) -> Graph:
        """The underlying graph.

        Exposed for ground-truth computation and tests only; samplers must not
        touch it (and the ones in this library never do).
        """
        return self._graph

    @property
    def cache(self) -> QueryCache:
        return self._stack.cache

    def random_node(self, seed: SeedLike = None) -> NodeId:
        """Return a uniformly random node id to start a walk from.

        Strictly speaking a third party cannot draw uniform nodes (that is the
        whole point of the paper), but every random-walk paper still needs an
        arbitrary starting node; a crawler would use any known account.  Using
        the graph here does not leak information to the samplers because the
        start node only affects the transient, not the stationary analysis.
        """
        return self._stack.random_node(seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"GraphAPI(graph={self._graph.name!r}, unique={self.unique_queries}, "
            f"total={self.total_queries})"
        )
