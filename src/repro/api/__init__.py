"""Simulated restrictive-access API for online social networks.

The package is organised in three explicit layers:

* **backends** (:mod:`repro.api.backend`) — raw neighborhood storage behind a
  two-method :class:`GraphBackend` protocol (``fetch`` / ``fetch_many``);
* **middleware** (:mod:`repro.api.middleware`) — composable policy layers
  (cache, budget, rate limit, shuffle, trace) assembled by
  :func:`repro.api.builder.build_api`;
* **facade** (:mod:`repro.api.session`) — the fluent
  :class:`SamplingSession` used by the CLI, the experiment runner and the
  examples.

Every stack is built by :func:`build_api`, directly or through a session.
"""

from .backend import CSRBackend, GraphBackend, InMemoryBackend, RawRecord, as_backend
from .budget import QueryBudget
from .builder import build_api
from .cache import CacheStats, LRUCache, QueryCache, make_cache
from .directed import (
    DirectedGraphStore,
    DirectedToUndirectedAPI,
    mutual_undirected_edges,
    store_from_edges,
)
from .interface import NodeView, SocialNetworkAPI
from .middleware import (
    APILayer,
    BackendAPI,
    BudgetLayer,
    CacheLayer,
    QueryBatchRecord,
    QueryRecord,
    QueryStats,
    QueryTrace,
    RateLimitLayer,
    ShuffleLayer,
    TraceLayer,
    describe_stack,
    iter_layers,
    resolve_attribute,
)
from .remote import HTTPGraphBackend, WIRE_FORMAT, WIRE_VERSION, walk_fingerprint
from .ratelimit import (
    FixedWindowPolicy,
    RateLimitPolicy,
    SimulatedClock,
    TokenBucketPolicy,
    UnlimitedPolicy,
    estimate_crawl_time,
    twitter_policy,
    yelp_policy,
)
from .session import SamplingSession

__all__ = [
    "APILayer",
    "BackendAPI",
    "BudgetLayer",
    "CSRBackend",
    "CacheLayer",
    "CacheStats",
    "DirectedGraphStore",
    "DirectedToUndirectedAPI",
    "FixedWindowPolicy",
    "GraphBackend",
    "HTTPGraphBackend",
    "InMemoryBackend",
    "LRUCache",
    "NodeView",
    "QueryBudget",
    "QueryCache",
    "QueryBatchRecord",
    "QueryRecord",
    "QueryStats",
    "QueryTrace",
    "RateLimitLayer",
    "RateLimitPolicy",
    "RawRecord",
    "SamplingSession",
    "ShuffleLayer",
    "SimulatedClock",
    "SocialNetworkAPI",
    "TokenBucketPolicy",
    "TraceLayer",
    "UnlimitedPolicy",
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "as_backend",
    "build_api",
    "describe_stack",
    "estimate_crawl_time",
    "iter_layers",
    "make_cache",
    "mutual_undirected_edges",
    "resolve_attribute",
    "store_from_edges",
    "twitter_policy",
    "walk_fingerprint",
    "yelp_policy",
]
