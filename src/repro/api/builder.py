"""Assemble a restrictive-access API stack from backend + policy choices.

:func:`build_api` is the one place that knows the canonical layer order::

    trace -> cache -> budget -> rate-limit -> shuffle -> backend

Outer layers see cheaper traffic (cache hits never reach the budget or the
rate limiter), inner layers see only billable fetches.
:class:`~repro.api.session.SamplingSession` drives it for the fluent
high-level interface.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from ..rng import SeedLike, make_rng
from .backend import CSRBackend, GraphBackend, as_backend
from .budget import QueryBudget
from .interface import SocialNetworkAPI
from .middleware import (
    BackendAPI,
    BudgetLayer,
    CacheLayer,
    QueryStats,
    QueryTrace,
    RateLimitLayer,
    ShuffleLayer,
    TraceLayer,
)
from .ratelimit import RateLimitPolicy, SimulatedClock


def build_api(
    source,
    *,
    backend: Optional[str] = None,
    budget: Union[QueryBudget, int, None] = None,
    rate_limit: Optional[RateLimitPolicy] = None,
    clock: Optional[SimulatedClock] = None,
    cache: bool = True,
    cache_capacity: Optional[int] = None,
    shuffle_neighbors: bool = False,
    seed: SeedLike = None,
    trace: Union[bool, QueryTrace] = False,
    layers: Iterable[Callable[[SocialNetworkAPI], SocialNetworkAPI]] = (),
) -> SocialNetworkAPI:
    """Build a middleware stack over a graph or backend.

    Args:
        source: A :class:`~repro.graphs.graph.Graph`, a
            :class:`~repro.api.backend.GraphBackend`, an ``http(s)://`` URL
            of a graph service (driven remotely through
            :class:`~repro.api.remote.HTTPGraphBackend`; see
            :mod:`repro.server`), a ``cluster://`` shard list or
            ``cluster.json`` manifest (driven through
            :class:`~repro.cluster.ShardedBackend`), or a ``str`` /
            :class:`~pathlib.Path` naming on-disk storage — a CSR snapshot
            directory (opened memory-mapped), a crawl-dump file (replayed
            offline) or a crawl-warehouse ``.sqlite`` store (see
            :mod:`repro.storage` and :mod:`repro.warehouse`).
        backend: Optional backend kind for graph sources: ``"memory"`` (the
            default) or ``"csr"`` to compile the graph into the array-based
            :class:`~repro.api.backend.CSRBackend`.
        budget: Unique-query budget — a :class:`QueryBudget`, an integer
            limit (any :class:`numbers.Integral`, numpy integers included,
            but not ``bool``), or ``None`` for no budget layer.  Anything
            else raises :class:`~repro.exceptions.InvalidConfigurationError`.
        rate_limit: Optional rate-limit policy (adds a rate-limit layer).
        clock: Simulated clock for the rate limiter (fresh one when omitted).
        cache: Whether to include the local cache layer.  ``True`` is the
            paper's cost model; disable only to study cache-less crawls.
        cache_capacity: ``None`` for the unbounded paper cache, or an integer
            for an LRU cache where evictions are billed again.
        shuffle_neighbors: Randomise the stored neighbor order of each fresh
            query (fixed afterwards, mimicking per-node pagination order).
        seed: Seed (or shared generator) for neighbor shuffling and
            ``random_node``.
        trace: ``True`` (or an existing :class:`QueryTrace`) to record every
            query through an outermost trace layer.
        layers: Extra middleware constructors ``api -> api`` applied between
            the cache and the trace layer, innermost first.

    Returns:
        The outermost :class:`SocialNetworkAPI` of the stack.  Attribute
        access (``budget``, ``rate_limit``, ``cache``, ``graph``,
        ``random_node``, ...) is delegated down the stack, so the outermost
        layer answers for every layer below it.
    """
    resolved: GraphBackend
    if backend is not None and backend not in ("memory", "csr"):
        raise ValueError(f"unknown backend kind {backend!r}; use 'memory' or 'csr'")
    if isinstance(source, (str, Path)):
        # On-disk sources (snapshot directories, crawl dumps) resolve to a
        # concrete backend first, then fall through the conflict check below.
        source = as_backend(source)
    if isinstance(source, GraphBackend):
        # An existing backend cannot be converted; refuse a conflicting ask
        # rather than silently serving from the wrong store.
        if backend is not None:
            from .backend import InMemoryBackend

            expected = CSRBackend if backend == "csr" else InMemoryBackend
            if not isinstance(source, expected):
                raise ValueError(
                    f"backend={backend!r} conflicts with the provided "
                    f"{type(source).__name__}; pass the graph itself or a "
                    f"matching backend"
                )
        resolved = source
    elif backend == "csr":
        resolved = CSRBackend.from_graph(source)
    else:
        resolved = as_backend(source)

    stats = QueryStats()
    rng = make_rng(seed)
    api: SocialNetworkAPI = BackendAPI(resolved, stats=stats, rng=rng)
    if shuffle_neighbors:
        api = ShuffleLayer(api, rng=rng)
    if rate_limit is not None:
        api = RateLimitLayer(api, rate_limit, clock=clock)
    if budget is not None:
        api = BudgetLayer(api, budget)
    if cache:
        api = CacheLayer(api, capacity=cache_capacity, stats=stats)
    for layer in layers:
        api = layer(api)
    if trace:
        api = TraceLayer(api, trace if isinstance(trace, QueryTrace) else None)
    return api
