"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch library failures with a single ``except`` clause while still being able
to distinguish the individual failure modes.
"""

from __future__ import annotations


def format_node_id(node) -> str:
    """``repr(node)`` for an error message; never raises.

    An int past the interpreter's int-to-str digit limit (4300 digits by
    default) has no ``repr``; it is named by its bit length instead (any
    other id whose ``repr`` fails, by its type), so the error being built
    is the one that reaches the caller.
    """
    try:
        return repr(node)
    except Exception:
        if isinstance(node, int):
            return f"<int of {node.bit_length()} bits>"
        return f"<{type(node).__name__} id>"


class ReproError(Exception):
    """Base class for all exceptions raised by the ``repro`` library."""


class GraphError(ReproError):
    """Base class for graph-related errors."""


class NodeNotFoundError(GraphError, KeyError):
    """Raised when a node id is not present in a graph."""

    def __init__(self, node):
        super().__init__(f"node {format_node_id(node)} is not in the graph")
        self.node = node

    def __str__(self) -> str:
        # KeyError.__str__ reprs its argument (useful for bare keys, noisy
        # quotes around a full sentence); restore the plain message.
        return Exception.__str__(self)

    def __reduce__(self):
        # args holds the rendered message, not the constructor arguments;
        # rebuild from the real ones so pickling across a process pool
        # round-trips instead of re-wrapping the message.
        return (type(self), (self.node,))


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an edge is not present in a graph."""

    def __init__(self, u, v):
        super().__init__(f"edge ({format_node_id(u)}, {format_node_id(v)}) is not in the graph")
        self.u = u
        self.v = v

    def __str__(self) -> str:
        return Exception.__str__(self)

    def __reduce__(self):
        return (type(self), (self.u, self.v))


class EmptyGraphError(GraphError):
    """Raised when an operation requires a non-empty graph."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph."""


class AttributeNotFoundError(GraphError, KeyError):
    """Raised when a node attribute requested by name does not exist."""

    def __init__(self, node, attribute):
        super().__init__(f"node {format_node_id(node)} has no attribute {attribute!r}")
        self.node = node
        self.attribute = attribute

    def __str__(self) -> str:
        return Exception.__str__(self)

    def __reduce__(self):
        return (type(self), (self.node, self.attribute))


class LoaderError(GraphError):
    """Raised when an edge-list file cannot be parsed."""


class StorageError(ReproError):
    """Base class for on-disk storage errors (snapshots, crawl dumps)."""


class SnapshotError(StorageError):
    """Raised when a CSR snapshot directory is missing or malformed."""


class CrawlDumpError(StorageError):
    """Raised when a crawl-dump file is missing or malformed."""


class ReplayMissError(NodeNotFoundError, StorageError):
    """Raised when a replayed crawl is asked for a node outside its dump.

    Subclasses :class:`NodeNotFoundError` so the middleware's batch-accounting
    semantics treat a replay miss exactly like a missing node, while callers
    that care can still distinguish "never crawled" from "not in the graph".
    """

    def __init__(self, node, source=None):
        detail = f"node {format_node_id(node)} was never fetched in the recorded crawl"
        if source is not None:
            detail += f" (dump: {source})"
        Exception.__init__(self, detail)
        self.node = node
        self.source = source

    def __reduce__(self):
        # args holds the rendered message, not (node, source); rebuild from
        # the real constructor arguments so pickling (e.g. across a process
        # pool) round-trips instead of re-wrapping the message.
        return (type(self), (self.node, self.source))


class WarehouseError(StorageError):
    """Raised when a crawl warehouse is missing, malformed or misused.

    Covers files that are not ``repro-warehouse`` SQLite stores, version
    mismatches, node ids that cannot survive the canonical JSON key encoding,
    and exports the warehouse cannot honour (e.g. a snapshot export of a
    store whose crawls never fetched some boundary neighbors).
    """


class IngestConflictError(WarehouseError):
    """Raised when an ingested crawl contradicts what the warehouse holds.

    Merging crawls dedupes nodes by id, which is only sound when duplicate
    records *agree*: a node arriving with different neighbor rows, different
    attributes, or a boundary metadata degree that contradicts an already
    ingested record means the crawls saw different graphs, and silently
    keeping either version would poison every aggregate and replayed walk.
    The whole ingest is rolled back; ``node`` names the offending id.
    """

    def __init__(self, node, detail, source=None):
        message = f"crawl conflict on node {format_node_id(node)}: {detail}"
        if source is not None:
            message += f" (ingesting {source})"
        super().__init__(message)
        self.node = node
        self.detail = detail
        self.source = source

    def __reduce__(self):
        # args holds the rendered message; rebuild from the real constructor
        # arguments so pickling across a process pool round-trips.
        return (type(self), (self.node, self.detail, self.source))


class RemoteBackendError(ReproError):
    """Raised when a remote graph service cannot satisfy a request.

    Covers transport failures (connection refused, timeouts), persistent
    server errors (5xx after the bounded retries are exhausted), malformed
    response bodies, and protocol violations.  Node-level misses are *not*
    remote errors: the client maps an HTTP 404 carrying a node id back to
    :class:`NodeNotFoundError` / :class:`ReplayMissError`, so remote and
    local backends raise identically.
    """

    def __init__(self, message, url=None, status=None, attempts=None):
        super().__init__(message)
        self.url = url
        self.status = status
        self.attempts = attempts


class ClusterError(ReproError):
    """Base class for sharded-cluster errors.

    Covers malformed ``cluster.json`` manifests, ring-specification
    mismatches, and node ids the consistent-hash ring cannot route.
    Per-shard failures carry attribution through the :class:`ShardError`
    subclass.
    """


class ShardError(ClusterError):
    """Raised when one shard of a cluster fails to answer.

    Node-level misses are *not* shard errors: a :class:`ShardedBackend`
    surfaces :class:`NodeNotFoundError` / :class:`ReplayMissError` unchanged,
    so sharded and local backends raise identically.  Everything else —
    transport failures, exhausted retries, a shard process dying mid-ensemble
    — is wrapped with the failing shard's index and address so an operator
    knows *which* machine to look at.

    On a replicated layout (``partition_snapshot(..., replicas=k)``) the
    backend fails reads over to the next live replica first, so this only
    escapes once *every* replica of the node's range is down; the message
    then lists the shards tried and ``__cause__`` chains the last per-shard
    failure.
    """

    def __init__(self, message, shard=None, url=None):
        super().__init__(message)
        self.shard = shard
        self.url = url


class StaleManifestError(ShardError):
    """Raised when a shard serves a different membership epoch than the
    client's ``cluster.json``.

    ``repartition`` bumps the manifest ``epoch`` whenever shard membership
    or the replica spec changes, and every shard republishes its epoch on
    ``GET /info``.  A client holding the old manifest would silently
    mis-route reads, so ``load_cluster`` compares the published epochs up
    front and refuses with this error instead; re-read the manifest to
    recover.
    """


class TenantError(ReproError):
    """Base class for multi-tenant service-policy errors."""


class TenantConfigError(TenantError):
    """Raised when a ``tenants.json`` policy file is missing or malformed.

    Covers files that are not ``repro-graph-tenants`` JSON, version
    mismatches, duplicate tenant names, and per-tenant policy specs that do
    not describe a budget / rate limit the middleware can build.
    """


class TenantAuthError(TenantError):
    """Raised when a request carries no (or an unknown) tenant API key.

    Only raised server-side, where the graph service maps it to an HTTP
    401; a client sees that as a :class:`RemoteBackendError` with
    ``status=401`` and the server's message.
    """


class APIError(ReproError):
    """Base class for simulated-API errors."""


class QueryBudgetExceededError(APIError):
    """Raised when the unique-query budget of a crawl is exhausted."""

    def __init__(self, budget, spent=None):
        detail = f"query budget of {budget} unique queries exhausted"
        if spent is not None:
            detail += f" (spent {spent})"
        super().__init__(detail)
        self.budget = budget
        self.spent = spent


class RateLimitExceededError(APIError):
    """Raised when a rate-limit policy rejects a query instead of waiting."""

    def __init__(self, retry_after=None):
        detail = "rate limit exceeded"
        if retry_after is not None:
            detail += f"; retry after {retry_after:.3f}s (simulated)"
        super().__init__(detail)
        self.retry_after = retry_after


class WalkError(ReproError):
    """Base class for random-walk errors."""


class VectorizationError(WalkError):
    """Raised when a configuration cannot run on the vectorised engine.

    The vector scheduler needs an array-capable innermost backend (the CSR
    family) and a kernel with an array-native transition rule; remote,
    sharded and warehouse backends, bounded caches, rate limits, shuffled
    neighbor order and kernels like GNRW stay on the scalar lockstep path.
    ``SamplingSession.run_ensemble(mode="vector")`` catches this error and
    falls back to the scalar scheduler with a warning; constructing a
    :class:`~repro.engine.vector.VectorScheduler` directly surfaces it.
    """


class DeadEndError(WalkError):
    """Raised when a walk reaches a node with no neighbors."""

    def __init__(self, node):
        super().__init__(f"walk reached dead-end node {format_node_id(node)} with no neighbors")
        self.node = node


class InvalidStartNodeError(WalkError):
    """Raised when the requested start node is unusable (missing/isolated)."""


class EstimationError(ReproError):
    """Base class for estimation errors."""


class InsufficientSamplesError(EstimationError):
    """Raised when an estimator is asked for a value with no usable samples."""


class ExperimentError(ReproError):
    """Base class for experiment-harness errors."""


class InvalidConfigurationError(ExperimentError, ValueError):
    """Raised when an experiment configuration is inconsistent."""
