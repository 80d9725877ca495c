"""repro: history-aware random walks for sampling online social networks.

A from-scratch reproduction of Zhou, Zhang & Das, *Leveraging History for
Faster Sampling of Online Social Networks* (VLDB 2015).  The library provides:

* :mod:`repro.graphs` — an in-memory graph substrate, loaders, synthetic
  generators and the paper's experiment datasets;
* :mod:`repro.api` — the restrictive OSN access interface as three explicit
  layers: storage backends (in-memory or array-based CSR), composable policy
  middleware (cache, budget, rate limit, shuffle, trace) assembled by
  :func:`~repro.api.builder.build_api`, and the fluent
  :class:`~repro.api.session.SamplingSession` facade;
* :mod:`repro.storage` — on-disk persistence behind the same backend
  protocol: memory-mapped CSR snapshots (``save_snapshot`` /
  ``load_snapshot``) and JSONL crawl dumps replayed offline
  (``dump_crawl`` / ``load_crawl``);
* :mod:`repro.cluster` — the sharded graph tier: ``partition_snapshot``
  splits a snapshot across N shard servers by deterministic consistent
  hashing, and ``ShardedBackend`` presents them as one backend (batched
  fetches fan out concurrently and re-merge in request order);
* :mod:`repro.walks` — the baseline samplers (SRW, MHRW, NB-SRW) and the
  paper's contributions (CNRW, GNRW, NB-CNRW);
* :mod:`repro.estimation` — aggregate queries, reweighted estimators and
  variance diagnostics;
* :mod:`repro.metrics` — sampling-bias and convergence metrics;
* :mod:`repro.obs` — opt-in telemetry: a process-wide metrics registry
  (scraped as Prometheus text at ``GET /metrics``) and span-based tracing
  whose context propagates over the wire through retries, failover and
  shard fan-out;
* :mod:`repro.experiments` — the harness regenerating every paper table and
  figure.

Quickstart::

    from repro import AggregateQuery, SamplingSession, load_dataset

    graph = load_dataset("facebook_like", seed=1)
    session = SamplingSession(graph, seed=1).budget(500).walker("cnrw", seed=1)
    result = session.run(max_steps=None)       # crawl until the budget is gone
    answer = session.estimate(AggregateQuery.average_degree())
    print(answer.value)

The session assembles the same access-layer stack a crawler would face —
restrictive neighbors-of-one-node queries, a local cache that makes duplicate
queries free, and a unique-query budget (the paper's cost measure).  Add
``.rate_limit(twitter_policy())`` to measure simulated crawl time,
``.backend("csr")`` to serve a large graph from compact arrays, or
``.trace()`` to record every query.  :func:`~repro.api.builder.build_api`
builds the same stack for driving a walker directly::

    from repro import build_api, make_walker

    api = build_api(graph, budget=500)
    walker = make_walker("cnrw", api=api, seed=1)
    result = walker.run(api.random_node(seed=1), max_steps=None)
"""

from .api import (
    CSRBackend,
    GraphBackend,
    HTTPGraphBackend,
    InMemoryBackend,
    NodeView,
    QueryBudget,
    SamplingSession,
    SocialNetworkAPI,
    TraceLayer,
    build_api,
    estimate_crawl_time,
    twitter_policy,
    walk_fingerprint,
    yelp_policy,
)
from .estimation import (
    AggregateKind,
    AggregateQuery,
    Estimate,
    RunningEstimator,
    estimate,
    ground_truth,
)
from .cluster import (
    HashRing,
    ShardedBackend,
    load_cluster,
    load_shard,
    partition_snapshot,
    repartition,
)
from .exceptions import (
    APIError,
    ClusterError,
    EstimationError,
    ExperimentError,
    GraphError,
    QueryBudgetExceededError,
    RemoteBackendError,
    ReproError,
    ShardError,
    StaleManifestError,
    VectorizationError,
    WalkError,
)
from .graphs import (
    Graph,
    available_datasets,
    barbell_graph,
    clustered_cliques_graph,
    load_dataset,
    load_edge_list,
    summarize,
)
from .metrics import (
    empirical_distribution,
    kl_divergence,
    l2_distance,
    relative_error,
    symmetric_kl_divergence,
    theoretical_distribution,
)
from .obs import (
    MetricsRegistry,
    Span,
    Tracer,
    disable_telemetry,
    enable_telemetry,
    global_registry,
    render_trace_tree,
    telemetry,
    telemetry_enabled,
)
from .engine import (
    SchedulerPolicy,
    VectorEnsembleResult,
    VectorScheduler,
    VectorWalkState,
    WalkScheduler,
    make_vector_kernel,
)
from .server import GraphHTTPServer, GraphService, serve_backend
from .storage import (
    MmapCSRBackend,
    ReplayBackend,
    dump_crawl,
    load_crawl,
    load_snapshot,
    save_snapshot,
)
from .walks import (
    CNRW,
    GNRW,
    MHRW,
    NBCNRW,
    NBSRW,
    SRW,
    CirculatedNeighborsRandomWalk,
    GroupByNeighborsRandomWalk,
    MetropolisHastingsRandomWalk,
    NonBacktrackingCNRW,
    NonBacktrackingRandomWalk,
    RandomWalk,
    SimpleRandomWalk,
    WalkResult,
    available_walkers,
    make_grouping,
    make_walker,
)

__version__ = "1.0.0"

__all__ = [
    "APIError",
    "AggregateKind",
    "AggregateQuery",
    "CNRW",
    "CSRBackend",
    "CirculatedNeighborsRandomWalk",
    "ClusterError",
    "Estimate",
    "EstimationError",
    "ExperimentError",
    "GNRW",
    "Graph",
    "GraphBackend",
    "GraphError",
    "GraphHTTPServer",
    "GraphService",
    "GroupByNeighborsRandomWalk",
    "HTTPGraphBackend",
    "HashRing",
    "InMemoryBackend",
    "MHRW",
    "MetricsRegistry",
    "MetropolisHastingsRandomWalk",
    "MmapCSRBackend",
    "NBCNRW",
    "NBSRW",
    "NodeView",
    "NonBacktrackingCNRW",
    "NonBacktrackingRandomWalk",
    "QueryBudget",
    "QueryBudgetExceededError",
    "RandomWalk",
    "VectorEnsembleResult",
    "VectorScheduler",
    "VectorWalkState",
    "VectorizationError",
    "RemoteBackendError",
    "ReplayBackend",
    "ReproError",
    "RunningEstimator",
    "SRW",
    "SamplingSession",
    "SchedulerPolicy",
    "ShardError",
    "ShardedBackend",
    "SimpleRandomWalk",
    "Span",
    "StaleManifestError",
    "SocialNetworkAPI",
    "TraceLayer",
    "Tracer",
    "WalkError",
    "WalkResult",
    "WalkScheduler",
    "__version__",
    "available_datasets",
    "available_walkers",
    "barbell_graph",
    "build_api",
    "clustered_cliques_graph",
    "disable_telemetry",
    "dump_crawl",
    "empirical_distribution",
    "enable_telemetry",
    "estimate",
    "estimate_crawl_time",
    "global_registry",
    "ground_truth",
    "kl_divergence",
    "l2_distance",
    "load_cluster",
    "load_crawl",
    "load_dataset",
    "load_edge_list",
    "load_shard",
    "load_snapshot",
    "make_grouping",
    "make_vector_kernel",
    "make_walker",
    "partition_snapshot",
    "relative_error",
    "render_trace_tree",
    "repartition",
    "save_snapshot",
    "serve_backend",
    "walk_fingerprint",
    "summarize",
    "symmetric_kl_divergence",
    "telemetry",
    "telemetry_enabled",
    "theoretical_distribution",
    "twitter_policy",
    "yelp_policy",
]
