"""Composable middleware layers over a :class:`~repro.api.backend.GraphBackend`.

The restrictive access interface of the paper is *policy-free*: a query takes
a node id and returns its neighborhood.  Everything a real crawler stacks on
top — a local cache that makes duplicate queries free (Section 2.3), a unique
query budget (the paper's cost model), a rate limiter on a simulated clock,
neighbor-order shuffling, and trace instrumentation — is expressed here as an
independent layer wrapping another :class:`~repro.api.interface.SocialNetworkAPI`.

Layers nest in the decorator style and are assembled by
:func:`repro.api.builder.build_api`; the canonical stack is::

    TraceLayer( CacheLayer( BudgetLayer( RateLimitLayer( ShuffleLayer(
        BackendAPI(backend) )))))

Each layer forwards both the single-node :meth:`query` and the batched
:meth:`query_many`, so multi-walker ensembles can amortise the per-query
overhead all the way down to ``backend.fetch_many``.  The records a backend
returns are the views every layer passes up, unconverted and uncopied; only
the shuffle layer builds a new one, with the neighbors re-ordered.
Attribute access not handled by a layer is delegated to the wrapped API,
so ``api.budget``, ``api.cache`` or ``api.graph`` work on the outermost
layer; :func:`resolve_attribute` finds once where such a look-up is really
answered, for hot paths that read it on every step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..exceptions import NodeNotFoundError, QueryBudgetExceededError
from ..rng import SeedLike, make_rng
from ..types import NodeId
from .backend import GraphBackend
from .budget import QueryBudget
from .interface import NodeView, SocialNetworkAPI
from .ratelimit import RateLimitPolicy, SimulatedClock


@dataclass
class QueryStats:
    """Query-cost counters shared across one middleware stack.

    ``unique`` is the paper's query cost (billable fetches); ``total`` counts
    every ``query()`` call including cache hits.  The core :class:`BackendAPI`
    and the :class:`CacheLayer` of the same stack write to one shared instance
    so the counters stay correct wherever they are read from.
    """

    unique: int = 0
    total: int = 0

    def reset(self) -> None:
        self.unique = 0
        self.total = 0


class BackendAPI(SocialNetworkAPI):
    """The innermost layer: adapt a :class:`GraphBackend` to the query model.

    Every call that reaches this layer is a *billable* fetch; the cache layer
    above is what makes duplicates free.  A backend's
    :class:`~repro.api.backend.RawRecord` already is the
    :class:`~repro.api.interface.NodeView` a query returns (one class, two
    names), and its attribute dict is not one the backend keeps, so records
    are returned as they are, with no copy.  Unknown attribute lookups fall
    through to the backend (e.g. ``api.graph`` for :class:`InMemoryBackend`).
    """

    def __init__(
        self,
        backend: GraphBackend,
        stats: Optional[QueryStats] = None,
        rng: SeedLike = None,
    ) -> None:
        self._backend = backend
        self.stats = stats if stats is not None else QueryStats()
        self._rng = make_rng(rng)

    @property
    def backend(self) -> GraphBackend:
        return self._backend

    def query(self, node: NodeId) -> NodeView:
        stats = self.stats
        stats.total += 1
        record = self._backend.fetch(node)
        stats.unique += 1
        return record

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        nodes = list(nodes)
        try:
            records = self._backend.fetch_many(nodes)
        except NodeNotFoundError as error:
            # Count exactly the calls a sequential loop would have attempted:
            # everything up to and including the missing node.
            failing = nodes.index(error.node) if error.node in nodes else len(nodes) - 1
            self.stats.total += failing + 1
            raise
        self.stats.total += len(nodes)
        self.stats.unique += len(records)
        return records

    @property
    def unique_queries(self) -> int:
        return self.stats.unique

    @property
    def total_queries(self) -> int:
        return self.stats.total

    def reset_counters(self) -> None:
        self.stats.reset()

    def peek_metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        return self._backend.metadata(node)

    def random_node(self, seed: SeedLike = None) -> NodeId:
        """Return a uniformly random node id to start a walk from."""
        rng = make_rng(seed) if seed is not None else self._rng
        return self._backend.sample_node(rng)

    def __getattr__(self, item):
        if item.startswith("_"):
            raise AttributeError(item)
        backend = self.__dict__.get("_backend")
        if backend is None:
            raise AttributeError(item)
        return getattr(backend, item)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"BackendAPI(backend={self._backend!r}, stats={self.stats!r})"


class APILayer(SocialNetworkAPI):
    """Base class for middleware: forward everything to the wrapped API.

    Subclasses override the calls they intercept.  ``__getattr__`` delegates
    any attribute this layer does not define to the wrapped API, guarding
    against the half-initialised states ``copy`` / ``pickle`` create (they
    bypass ``__init__``, so ``_inner`` may not exist yet — looking it up
    through ``self.__dict__`` avoids infinite recursion and raises a clean
    :class:`AttributeError` instead).
    """

    #: Short layer name used by :func:`describe_stack` and reprs.
    layer_name = "layer"

    def __init__(self, inner: SocialNetworkAPI) -> None:
        self._inner = inner

    @property
    def inner(self) -> SocialNetworkAPI:
        """The API this layer wraps."""
        return self._inner

    def query(self, node: NodeId) -> NodeView:
        return self._inner.query(node)

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        return self._inner.query_many(nodes)

    @property
    def unique_queries(self) -> int:
        return self._inner.unique_queries

    @property
    def total_queries(self) -> int:
        return self._inner.total_queries

    def reset_counters(self) -> None:
        self._inner.reset_counters()

    def peek_metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        return self._inner.peek_metadata(node)

    def __getattr__(self, item):
        if item.startswith("_"):
            raise AttributeError(item)
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(item)
        return getattr(inner, item)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self._inner!r})"


class CacheLayer(APILayer):
    """Local query cache: duplicate queries are answered for free.

    This is the cache of the paper's cost model (Section 2.3).  An unbounded
    cache reproduces the paper exactly; a bounded capacity gives the LRU
    variant where evicted nodes are billed again on re-query.
    """

    layer_name = "cache"

    def __init__(
        self,
        inner: SocialNetworkAPI,
        cache=None,
        capacity: Optional[int] = None,
        stats: Optional[QueryStats] = None,
    ) -> None:
        from .cache import make_cache

        super().__init__(inner)
        self.cache = cache if cache is not None else make_cache(capacity)
        resolved = stats if stats is not None else getattr(inner, "stats", None)
        self._stats = resolved if resolved is not None else QueryStats()

    def query(self, node: NodeId) -> NodeView:
        cached = self.cache.get(node)
        registry = obs.metrics()
        if cached is not None:
            self._stats.total += 1
            if registry is not None:
                registry.inc("repro_cache_hits_total")
            return cached
        view = self._inner.query(node)
        self.cache.put(node, view)
        if registry is not None:
            registry.inc("repro_cache_misses_total")
        return view

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        order = list(nodes)
        if getattr(self.cache, "capacity", None) is not None:
            # Bounded (LRU) cache: a batch larger than the capacity would
            # evict its own entries between put and read-back, re-billing
            # nodes a sequential loop would have served from cache.  Batching
            # is a throughput feature of the paper's unbounded-cache model;
            # under an eviction study, exact sequential semantics win.
            return [self.query(node) for node in order]
        # Side-effect-free scan (peek touches neither counters nor recency),
        # so the budget-exhaustion fallback below can replay the batch as a
        # plain sequential loop without double counting anything.  The peeked
        # views double as the hit results, saving a second lookup pass.
        peek = self.cache.peek
        fresh = set()
        misses: List[NodeId] = []
        peeked: List[Optional[NodeView]] = []
        for node in order:
            view = peek(node)
            peeked.append(view)
            if view is None and node not in fresh:
                misses.append(node)
                fresh.add(node)
        fetched_views: Dict[NodeId, NodeView] = {}
        if misses:
            try:
                fetched = self._inner.query_many(misses)
            except (NodeNotFoundError, QueryBudgetExceededError) as error:
                # The batch was interrupted — by an unknown node, or by
                # budget exhaustion (in which case the budget layer billed
                # sequentially up to the stopping point and handed the
                # fetched views back on ``error.partial``).  Store whatever
                # was billed so the spent budget is not wasted, count the
                # cache hits a sequential loop would have served before the
                # failing node, then re-raise.
                partial = getattr(error, "partial", None) or []
                billed = set()
                for node, view in partial:
                    self.cache.put(node, view)
                    billed.add(node)
                if isinstance(error, NodeNotFoundError):
                    failing = error.node
                else:
                    failing = misses[len(partial)] if len(partial) < len(misses) else None
                # Nodes whose total the backend already counted: the billed
                # ones in the sequential-fallback path, or every attempted
                # fresh fetch in the atomic batch path.
                attempted = billed if partial else fresh
                counted = set()
                for node in order:
                    if node == failing:
                        break
                    if node in attempted and node not in counted:
                        counted.add(node)
                    else:
                        self._stats.total += 1  # hit or duplicate occurrence
                raise
            put = self.cache.put
            if len(misses) == len(order):
                # Every entry was a distinct uncached node (the batch-driver
                # common case): the fetch already is the result list, and the
                # backend billed everything — no per-node accounting left.
                for node, view in zip(misses, fetched):
                    put(node, view)
                self.cache.stats.misses += len(misses)
                registry = obs.metrics()
                if registry is not None:
                    registry.inc("repro_cache_misses_total", len(misses))
                return fetched
            for node, view in zip(misses, fetched):
                put(node, view)
                fetched_views[node] = view
        results: List[NodeView] = []
        hits = 0
        for node, view in zip(order, peeked):
            if view is not None:
                hits += 1  # cache hit (billed like a sequential loop)
            else:
                view = fetched_views[node]
                if node in fresh:
                    fresh.discard(node)  # billed by the backend during the batch
                else:
                    hits += 1  # duplicate occurrence after the fetch
            results.append(view)
        self._stats.total += hits
        cache_stats = self.cache.stats
        cache_stats.hits += hits
        cache_stats.misses += len(misses)
        registry = obs.metrics()
        if registry is not None:
            if hits:
                registry.inc("repro_cache_hits_total", hits)
            if misses:
                registry.inc("repro_cache_misses_total", len(misses))
        return results

    def reset_counters(self) -> None:
        self.cache.clear()
        self._inner.reset_counters()


class BudgetLayer(APILayer):
    """Enforce the unique-query budget of the paper's cost model.

    The budget is checked *before* the fetch (so an exhausted budget raises
    without touching the backend) and committed *after* it (so a missing node
    costs nothing).  ``budget`` is a :class:`QueryBudget`, an integer limit
    or ``None`` (unlimited).
    """

    layer_name = "budget"

    def __init__(
        self, inner: SocialNetworkAPI, budget: Union[QueryBudget, int, None] = None
    ) -> None:
        super().__init__(inner)
        self.budget = _as_query_budget(budget)
        self._stats: Optional[QueryStats] = getattr(inner, "stats", None)

    def query(self, node: NodeId) -> NodeView:
        budget = self.budget
        limit = budget.limit
        if limit is not None and budget.spent >= limit:
            # A rejected attempt still counts as a call.
            if self._stats is not None:
                self._stats.total += 1
            registry = obs.metrics()
            if registry is not None:
                registry.inc("repro_budget_denied_total")
            raise QueryBudgetExceededError(limit, spent=budget.spent)
        view = self._inner.query(node)
        # Checked above, so charge directly rather than through spend(),
        # which would check the limit a second time.
        budget.spent += 1
        return view

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        order = list(nodes)
        budget = self.budget
        if budget.can_spend(len(order)):
            views = self._inner.query_many(order)
            budget.spent += len(views)
            return views
        # The batch exceeds the remaining budget: degrade to sequential
        # billing so the remaining budget is still spent (never forfeited)
        # and exhaustion raises at exactly the node a per-query loop would
        # have stopped on.  The views fetched before the raise travel on the
        # exception's ``partial`` attribute so a cache layer above can store
        # them — otherwise they would be re-billed on retry.
        collected: List = []
        try:
            for node in order:
                collected.append((node, self.query(node)))
        except (NodeNotFoundError, QueryBudgetExceededError) as error:
            error.partial = collected
            raise
        return [view for _, view in collected]

    def reset_counters(self) -> None:
        self.budget.reset()
        self._inner.reset_counters()


def _as_query_budget(budget) -> QueryBudget:
    """A :class:`QueryBudget` as is; anything else is a limit checked by its rule,
    so a bad limit is refused when the stack is built, not at the first query."""
    return budget if isinstance(budget, QueryBudget) else QueryBudget(budget)


class RateLimitLayer(APILayer):
    """Charge each billable query against a rate-limit policy on a clock.

    The slot is acquired after the fetch succeeds, so missing nodes never
    consume rate-limit capacity; for the blocking policies used in the paper
    the simulated-clock behaviour is identical to acquiring first.
    """

    layer_name = "rate-limit"

    def __init__(
        self,
        inner: SocialNetworkAPI,
        policy: RateLimitPolicy,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        super().__init__(inner)
        self.rate_limit = policy
        self.clock = clock if clock is not None else SimulatedClock()

    def query(self, node: NodeId) -> NodeView:
        view = self._inner.query(node)
        self.rate_limit.acquire(self.clock, blocking=True)
        return view

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        views = self._inner.query_many(nodes)
        for _ in views:
            self.rate_limit.acquire(self.clock, blocking=True)
        return views

    def reset_counters(self) -> None:
        self.rate_limit.reset()
        self._inner.reset_counters()


class ShuffleLayer(APILayer):
    """Randomise the neighbor order of each fresh fetch.

    Real APIs give no ordering guarantees.  Placed *below* the cache, the
    shuffled order of a node is fixed on first fetch and reused for every
    cache hit — a deterministic pagination order per node.
    """

    layer_name = "shuffle"

    def __init__(self, inner: SocialNetworkAPI, rng: SeedLike = None) -> None:
        super().__init__(inner)
        self._rng = make_rng(rng)

    def _shuffled(self, view: NodeView) -> NodeView:
        neighbors = list(view.neighbors)
        self._rng.shuffle(neighbors)
        return NodeView(view.node, tuple(neighbors), view.attributes)

    def query(self, node: NodeId) -> NodeView:
        return self._shuffled(self._inner.query(node))

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        return [self._shuffled(view) for view in self._inner.query_many(nodes)]


@dataclass
class QueryRecord:
    """One query call observed by the trace layer."""

    node: NodeId
    fresh: bool
    unique_queries_after: int
    total_queries_after: int


@dataclass
class QueryBatchRecord:
    """One ``query_many`` batch observed by the trace layer.

    A batch is a single trace entry (so tracing never forces the layers below
    back onto the per-node path), but it still carries the per-node freshness
    flags, so the node-level views (:attr:`QueryTrace.queried_nodes`,
    :attr:`QueryTrace.fresh_nodes`, :meth:`QueryTrace.frequency`) are
    indistinguishable from a sequential loop's records.
    """

    nodes: tuple
    fresh: tuple
    unique_queries_after: int
    total_queries_after: int

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class QueryTrace:
    """Accumulated trace of an instrumented crawl.

    ``records`` holds one entry per *call*: a :class:`QueryRecord` for each
    single query and a :class:`QueryBatchRecord` for each batch.  The
    node-level accessors flatten batches, so per-node frequency counting is
    unaffected by how the queries were grouped.
    """

    records: List[object] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def _node_events(self):
        for record in self.records:
            if isinstance(record, QueryBatchRecord):
                for node, fresh in zip(record.nodes, record.fresh):
                    yield node, fresh
            else:
                yield record.node, record.fresh

    @property
    def queried_nodes(self) -> List[NodeId]:
        return [node for node, _ in self._node_events()]

    @property
    def fresh_nodes(self) -> List[NodeId]:
        return [node for node, fresh in self._node_events() if fresh]

    @property
    def batches(self) -> List[QueryBatchRecord]:
        """The batch entries only (one per traced ``query_many`` call)."""
        return [record for record in self.records if isinstance(record, QueryBatchRecord)]

    def frequency(self) -> Dict[NodeId, int]:
        return Counter(node for node, _ in self._node_events())

    def clear(self) -> None:
        self.records.clear()


class TraceLayer(APILayer):
    """Record every query flowing through the stack.

    The experiment harness needs per-walk query traces (e.g. to audit that two
    samplers issued identical queries up to ordering); rather than pushing
    that bookkeeping into every walker, this outermost layer observes the
    stream.  A ``query_many`` call is forwarded as a batch and recorded as one
    :class:`QueryBatchRecord`, so tracing no longer disables the batch
    amortisation below it; per-node freshness is predicted against the cache
    below before the batch runs (exact for the paper's unbounded cache; under
    a bounded cache an intra-batch eviction may re-bill a node the prediction
    marked as a hit).  Batches interrupted by budget exhaustion or an unknown
    node are not recorded — the exception carries the authoritative state.
    """

    layer_name = "trace"

    def __init__(self, inner: SocialNetworkAPI, trace: Optional[QueryTrace] = None) -> None:
        super().__init__(inner)
        self.trace = trace if trace is not None else QueryTrace()

    def query(self, node: NodeId) -> NodeView:
        before_unique = self._inner.unique_queries
        view = self._inner.query(node)
        after_unique = self._inner.unique_queries
        self.trace.records.append(
            QueryRecord(
                node=node,
                fresh=after_unique > before_unique,
                unique_queries_after=after_unique,
                total_queries_after=self._inner.total_queries,
            )
        )
        return view

    def query_many(self, nodes: Sequence[NodeId]) -> List[NodeView]:
        order = list(nodes)
        fresh_flags = self._predict_fresh(order)
        views = self._inner.query_many(order)
        self.trace.records.append(
            QueryBatchRecord(
                nodes=tuple(order),
                fresh=tuple(fresh_flags),
                unique_queries_after=self._inner.unique_queries,
                total_queries_after=self._inner.total_queries,
            )
        )
        return views

    def _predict_fresh(self, order: Sequence[NodeId]) -> List[bool]:
        """Which batch entries will be billed, judged before the batch runs.

        Mirrors the miss scan of :meth:`CacheLayer.query_many`: the first
        occurrence of each uncached node is fresh.  Without a cache below,
        every entry is billed (duplicates included), matching the backend's
        sequential accounting.
        """
        cache = getattr(self._inner, "cache", None)
        peek = getattr(cache, "peek", None)
        if not callable(peek):
            return [True] * len(order)
        seen = set()
        flags: List[bool] = []
        for node in order:
            if node in seen:
                flags.append(False)
            else:
                seen.add(node)
                flags.append(peek(node) is None)
        return flags

    def reset_counters(self) -> None:
        self._inner.reset_counters()
        self.trace.clear()


#: What an unmodified :class:`BackendAPI` core answers an attribute from:
#: ``name -> (attribute of the core, attribute of that object)``.
_CORE_SOURCES = {
    "unique_queries": ("stats", "unique"),
    "peek_metadata": ("backend", "metadata"),
}


def resolve_attribute(api: SocialNetworkAPI, name: str) -> Tuple[Any, str]:
    """Where ``getattr(api, name)`` is answered, as ``(owner, attribute)``.

    Middleware layers that neither define ``name`` (on their class beyond
    :class:`APILayer`, or on the instance) nor replace ``__getattr__`` only
    forward it, so the walk skips them.  At an unmodified
    :class:`BackendAPI` core, ``unique_queries`` is the shared
    :class:`QueryStats` counter and ``peek_metadata`` the backend's
    ``metadata``.  ``getattr(owner, attribute)`` then reads the same value
    with no per-layer hops: the stack is fixed once built, so a hot path
    resolves once and reads many times.
    """
    layer = api
    while (
        isinstance(layer, APILayer)
        and name not in layer.__dict__
        and type(layer).__getattr__ is APILayer.__getattr__
        and getattr(type(layer), name, None) is getattr(APILayer, name, None)
    ):
        layer = layer.inner
    source = _CORE_SOURCES.get(name)
    if (
        source is not None
        and isinstance(layer, BackendAPI)
        and getattr(type(layer), name) is getattr(BackendAPI, name)
    ):
        return getattr(layer, source[0]), source[1]
    return layer, name


def iter_layers(api: SocialNetworkAPI):
    """Yield the stack from the outermost layer down to the core API."""
    current = api
    while True:
        yield current
        if not isinstance(current, APILayer):
            return
        current = current.inner


def describe_stack(api: SocialNetworkAPI) -> str:
    """Return a compact arrow-joined description of a middleware stack."""
    names = []
    for layer in iter_layers(api):
        if isinstance(layer, BackendAPI):
            names.append(f"backend[{layer.backend.name}]")
        else:
            names.append(getattr(layer, "layer_name", type(layer).__name__))
    return " -> ".join(names)
