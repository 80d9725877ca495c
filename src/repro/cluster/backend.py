"""A consistent-hashed cluster of graph shards behind one backend.

:class:`ShardedBackend` presents N shard backends — usually
:class:`~repro.api.remote.HTTPGraphBackend` clients driving N ``serve``
processes, but any :class:`~repro.api.backend.GraphBackend` works — as one
backend: ``fetch`` routes by ring lookup (a hash and one table index, see
:class:`~repro.cluster.partition.HashRing`), ``fetch_many``
splits a batch into per-shard sub-batches and re-merges them in request
order, and ``metadata`` / ``contains`` / ``node_ids`` / ``sample_node``
federate across the shards.  HTTP shards are *pipelined*: every sub-batch is
posted before the first response is read, so the shard servers work in
parallel without any client-side threads; other backends (in-process shard
slices) are fetched in turn as their responses are collected.  Because every
policy (cache, budget, rate limit, trace) sits in middleware above the
backend protocol, a kernel walking a sharded cluster is bit-identical to
the same kernel walking the unpartitioned graph — the conformance suite
asserts exactly that.

Failure semantics: node-level misses surface unchanged
(:class:`~repro.exceptions.NodeNotFoundError` /
:class:`~repro.exceptions.ReplayMissError`); anything else a shard raises is
wrapped into :class:`~repro.exceptions.ShardError` carrying the failing
shard's index and address.  On a replicated layout
(``partition_snapshot(..., replicas=k)``) reads rotate round-robin across a
node's live replicas and *fail over*: a failing shard is marked dead for a
deterministic cool-down and the read retries the next replica, so
:class:`~repro.exceptions.ShardError` only escapes once every replica of the
range is down.  Walks stay bit-identical through failover because record
content is replica-independent.

:func:`load_cluster` reassembles a cluster from a ``cluster.json`` manifest
(paths or URLs per shard); :func:`open_cluster` additionally understands the
``cluster://host:port,host:port,...`` URL-list shorthand, which assumes the
manifest's default ring spec and shard order.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import obs
from ..api.backend import GraphBackend, RawRecord, as_backend
from ..exceptions import (
    ClusterError,
    NodeNotFoundError,
    ShardError,
    StaleManifestError,
    format_node_id,
)
from ..types import NodeId
from .partition import (
    CLUSTER_FORMAT,
    CLUSTER_MANIFEST_NAME,
    CLUSTER_READ_VERSIONS,
    DEFAULT_VNODES,
    HashRing,
)

PathLike = Union[str, Path]

#: URL scheme of the manifest-less shorthand: ``cluster://host:port,host:port``.
CLUSTER_URL_SCHEME = "cluster://"

#: How long (seconds) a shard that failed a read stays deprioritised before
#: the next read probes it again.  Deterministic constant, no jitter: the
#: failover schedule of a replayed workload is reproducible.
DEFAULT_FAILOVER_COOLDOWN = 1.0


def _raise(error: Exception):
    """Re-raise a failure captured when a shard's sub-batch was started."""
    raise error


def _published(backend: GraphBackend, key: str):
    """The ``key`` a shard publishes: its ``GET /info`` field when it has an
    ``info()`` (an HTTP client), else its attribute (an in-process slice).
    ``None`` when the shard is unreachable or publishes no such field."""
    info = getattr(backend, "info", None)
    if callable(info):
        try:
            return info().get(key)
        except Exception:
            return None  # unreachable shard: failover handles it later
    return getattr(backend, key, None)


def _in_span(tracer, span, call, argument):
    """``call(argument)`` with ``span`` as the active trace context, if any."""
    if span is None:
        return call(argument)
    with tracer.scope(span.trace_id, span.span_id):
        return call(argument)


class ShardedBackend(GraphBackend):
    """Route backend fetches across consistent-hashed shard backends.

    Args:
        shards: One backend per shard, in ring shard order.
        ring: The :class:`~repro.cluster.partition.HashRing` the data was
            partitioned with.  Defaults to ``HashRing(len(shards))`` — only
            correct if the partition used the default vnodes count too.
        name: Backend name; defaults to ``cluster:<N>``.
        replicas: The layout's replica factor (how many successor shards
            store each node).  Reads rotate round-robin across a node's live
            replicas and fail over when one dies.
        expected_epoch: The manifest's membership epoch; ``verify_epoch``
            compares it against what reachable shards publish.
        failover_cooldown: Seconds a failed shard stays deprioritised before
            the next read probes it again.
        clock: Monotonic time source (injectable for tests).

    The cluster is treated as immutable for the lifetime of the backend
    (like every other backend): per-shard sizes and the federated node-id
    table are fetched once and cached.  ``len()`` is the sum of the
    ``primary`` counts every shard publishes, when all of them do.
    ``close()`` closes every shard backend; the class is a context manager.
    """

    def __init__(
        self,
        shards: Sequence[GraphBackend],
        ring: Optional[HashRing] = None,
        name: Optional[str] = None,
        *,
        replicas: int = 1,
        expected_epoch: Optional[int] = None,
        failover_cooldown: float = DEFAULT_FAILOVER_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not shards:
            raise ClusterError("a cluster needs at least one shard backend")
        self._shards: List[GraphBackend] = list(shards)
        self._ring = ring if ring is not None else HashRing(len(self._shards))
        if self._ring.shards != len(self._shards):
            raise ClusterError(
                f"ring routes {self._ring.shards} shards but {len(self._shards)} "
                f"shard backends were provided"
            )
        if not 1 <= int(replicas) <= self._ring.shards:
            raise ClusterError(
                f"replicas={replicas} is not placeable on {self._ring.shards} "
                f"shards (each replica needs a distinct physical shard)"
            )
        self.replicas = int(replicas)
        self.expected_epoch = None if expected_epoch is None else int(expected_epoch)
        self._labels = [
            getattr(backend, "base_url", None) or backend.name
            for backend in self._shards
        ]
        self._sizes: Optional[List[int]] = None
        self._node_ids: Optional[List[NodeId]] = None
        # Failover health: shard -> clock() when it was marked dead.  A dead
        # shard is deprioritised (never hard-excluded) until the cool-down
        # expires, then the next read probes it again.
        self._dead_at: Dict[int, float] = {}
        self._cooldown = float(failover_cooldown)
        self._clock = clock
        self._rr = 0  # round-robin cursor spreading reads across replicas
        self.name = name if name is not None else f"cluster:{len(self._shards)}"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def shard_backends(self) -> List[GraphBackend]:
        """The per-shard backends, in ring shard order (read-only view)."""
        return list(self._shards)

    def shard_of(self, node: NodeId) -> int:
        """Return the primary shard the ring routes ``node`` to."""
        return self.shards_of(node)[0]

    def shards_of(self, node: NodeId) -> Tuple[int, ...]:
        """The replica set serving ``node``, primary first."""
        return self._ring.shards_of(node, self.replicas)

    def _shard_error(self, shard: int, error: Exception, doing: str) -> ShardError:
        return ShardError(
            f"shard {shard} ({self._labels[shard]}) failed during {doing}: "
            f"{type(error).__name__}: {error}",
            shard=shard,
            url=self._labels[shard],
        )

    # ------------------------------------------------------------------
    # Failover health
    # ------------------------------------------------------------------
    def _is_live(self, shard: int) -> bool:
        dead_since = self._dead_at.get(shard)
        if dead_since is None:
            return True
        if self._clock() - dead_since >= self._cooldown:
            # Cool-down expired: let the next read probe the shard again (a
            # failed probe re-marks it dead for another cool-down).
            del self._dead_at[shard]
            return True
        return False

    def _mark_dead(self, shard: int) -> None:
        self._dead_at[shard] = self._clock()
        registry = obs.metrics()
        if registry is not None:
            registry.inc(
                "repro_shard_dead_marks_total", shard=self._labels[shard]
            )

    @property
    def dead_shards(self) -> List[int]:
        """Shards currently inside their failover cool-down."""
        return sorted(
            shard for shard in list(self._dead_at) if not self._is_live(shard)
        )

    def _pick_shard(self, route: Tuple[int, ...], tried=()) -> Optional[int]:
        """Choose the replica of ``route`` that serves this read.

        Untried live replicas are preferred and rotated round-robin to
        spread read load.  A shard inside its cool-down is deprioritised but
        never hard-excluded: if every untried replica is marked dead the
        read still probes one, so stale health state cannot wedge a range.
        Returns ``None`` once every replica was tried this call (the caller
        raises the attributed failure).  With no shard marked dead and
        nothing tried — every read of a healthy cluster — the choice is one
        index, ``route[cursor % len(route)]``, with no candidate lists.
        """
        if not tried and not self._dead_at:
            if len(route) == 1:
                return route[0]
            choice = route[self._rr % len(route)]
            self._rr += 1
            return choice
        candidates = [s for s in route if s not in tried]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        live = [s for s in candidates if self._is_live(s)]
        pool = live or candidates
        choice = pool[self._rr % len(pool)]
        self._rr += 1
        return choice

    def _replicas_exhausted(
        self, node: NodeId, tried, last: Optional[ShardError], doing: str
    ) -> ShardError:
        if last is not None and len(tried) <= 1:
            return last  # unreplicated: identical to the single-shard error
        where = ", ".join(f"{s} ({self._labels[s]})" for s in sorted(tried))
        error = ShardError(
            f"every replica of node {format_node_id(node)} is down during {doing} "
            f"(tried shards {where})",
            shard=last.shard if last is not None else None,
            url=last.url if last is not None else None,
        )
        error.__cause__ = last
        return error

    # ------------------------------------------------------------------
    # GraphBackend interface
    # ------------------------------------------------------------------
    def _read(self, node: NodeId, doing: str, call):
        """Run a single-node read with replica failover.

        Tries replicas (round-robin among live ones) until one answers; a
        failing shard is marked dead for the cool-down and the read moves to
        the next untried replica.  Node-level misses surface unchanged.
        When a tracer is active the read carries a ``cluster.read`` span
        whose tags record every replica tried, in order.
        """
        with obs.maybe_span("cluster.read", kind="shard", op=doing) as span:
            route = self.shards_of(node)
            tried: Set[int] = set()
            attempts: List[str] = []
            last: Optional[ShardError] = None
            while True:
                shard = self._pick_shard(route, tried)
                if shard is None:
                    if span is not None:
                        span.tags["replicas_tried"] = attempts
                        span.tags["error"] = True
                    raise self._replicas_exhausted(node, tried, last, doing)
                attempts.append(self._labels[shard])
                try:
                    result = call(self._shards[shard])
                except NodeNotFoundError:
                    if span is not None:
                        span.tags["replicas_tried"] = attempts
                    raise
                except Exception as error:
                    registry = obs.metrics()
                    if registry is not None:
                        registry.inc(
                            "repro_shard_failover_reads_total",
                            shard=self._labels[shard],
                        )
                    self._mark_dead(shard)
                    tried.add(shard)
                    last = self._shard_error(shard, error, doing)
                    last.__cause__ = error
                else:
                    if span is not None:
                        span.tags["replicas_tried"] = attempts
                        span.tags["shard"] = self._labels[shard]
                    return result

    def fetch(self, node: NodeId) -> RawRecord:
        return self._read(
            node, f"fetch({format_node_id(node)})", lambda backend: backend.fetch(node)
        )

    def contains(self, node: NodeId) -> bool:
        return self._read(
            node, f"contains({format_node_id(node)})", lambda backend: backend.contains(node)
        )

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        return self._read(
            node, f"metadata({format_node_id(node)})", lambda backend: backend.metadata(node)
        )

    def fetch_many(self, nodes: Sequence[NodeId]) -> List[RawRecord]:
        order = list(nodes)
        if not order:
            return []
        # Route every position to a replica and dispatch per-shard
        # sub-batches; each keeps its nodes in request order (duplicates
        # included), so re-merging by remembered positions reproduces the
        # exact sequential-fetch answer.  When a shard fails, its positions
        # re-route to their next untried replica on the following round —
        # the records are replica-independent, so a batch that survives
        # failover is bit-identical to a healthy one.
        records: List[Optional[RawRecord]] = [None] * len(order)
        pending: List[int] = list(range(len(order)))
        tried: Dict[int, Set[int]] = {}
        doing = f"fetch_many({len(order)} nodes)"
        miss: Optional[NodeNotFoundError] = None
        last: Optional[ShardError] = None
        route_of, pick = self._ring.shards_of, self._pick_shard
        replicas = self.replicas
        while pending:
            sub_positions: Dict[int, List[int]] = defaultdict(list)
            for position in pending:
                node = order[position]
                shard = pick(route_of(node, replicas), tried.get(position, ()))
                if shard is None:
                    raise self._replicas_exhausted(
                        node, tried.get(position, set()), last, doing
                    )
                sub_positions[shard].append(position)
            pending = []
            for shard, positions, shard_records, error in self._dispatch(
                sub_positions, order
            ):
                if error is None:
                    for position, record in zip(positions, shard_records):
                        records[position] = record
                elif isinstance(error, NodeNotFoundError):
                    # A missing node aborts the whole batch, mirroring a
                    # local sequential fetch_many; remember the first miss
                    # but keep draining the other shards so no response is
                    # abandoned mid-air and every connection stays reusable.
                    if miss is None:
                        miss = error
                else:
                    self._mark_dead(shard)
                    registry = obs.metrics()
                    if registry is not None:
                        registry.inc(
                            "repro_shard_redispatch_total",
                            len(positions),
                            shard=self._labels[shard],
                        )
                    failure = self._shard_error(
                        shard, error, f"fetch_many({len(positions)} nodes)"
                    )
                    failure.__cause__ = error
                    last = failure
                    for position in positions:
                        tried.setdefault(position, set()).add(shard)
                    pending.extend(positions)
            if miss is not None:
                raise miss
        return records  # type: ignore[return-value]

    def _dispatch(self, sub_positions: Dict[int, List[int]], order: List[NodeId]):
        """Run one round: start every shard's sub-batch, then collect in order.

        Yields ``(shard, positions, records, error)`` per sub-batch, with
        exactly one of ``records`` / ``error`` set.  A shard backend with
        ``begin_fetch_many`` (an HTTP client) is posted at start, so every
        request is in flight before the first response is read and the
        shard servers work concurrently without client-side threads; any
        other backend's ``fetch_many`` runs when its turn to be collected
        comes.  ``begin`` touches only its own shard's connection, and every
        sub-batch is collected before the caller acts on any failure, so an
        aborted batch still drains each posted response and leaves every
        connection reusable.

        When a tracer is active each sub-batch gets a ``shard.fetch`` span,
        opened at start and finished at collection, so it covers the
        sub-batch's true in-flight window.
        """
        tracer = obs.current_tracer()
        started = []
        for shard, positions in sub_positions.items():
            backend = self._shards[shard]
            batch = [order[position] for position in positions]
            span = None
            if tracer is not None:
                span = tracer.start_span(
                    "shard.fetch", kind="shard", shard=self._labels[shard],
                    nodes=len(batch),
                )
            begin = getattr(backend, "begin_fetch_many", None)
            if begin is None:
                started.append((shard, positions, span, backend.fetch_many, batch))
                continue
            try:
                handle = _in_span(tracer, span, begin, batch)
            except Exception as error:
                started.append((shard, positions, span, _raise, error))
            else:
                started.append(
                    (shard, positions, span, backend.end_fetch_many, handle)
                )
        for shard, positions, span, collect, argument in started:
            records = error = None
            try:
                records = _in_span(tracer, span, collect, argument)
            except Exception as caught:
                error = caught
                if span is not None:
                    span.tags["error"] = True
            if span is not None:
                tracer.finish(span)
            yield shard, positions, records, error

    def node_ids(self) -> List[NodeId]:
        return list(self._all_node_ids())

    def sample_node(self, rng) -> NodeId:
        nodes = self._all_node_ids()
        return nodes[int(rng.integers(0, len(nodes)))]

    def __len__(self) -> int:
        # Every node has exactly one primary shard, so the published primary
        # counts sum to the node count without downloading any id table.
        primaries = [_published(backend, "primary") for backend in self._shards]
        if all(type(count) is int for count in primaries):
            return sum(primaries)
        if self.replicas == 1:
            return sum(self._shard_sizes())
        return len(self._all_node_ids())

    # ------------------------------------------------------------------
    # Federation caches
    # ------------------------------------------------------------------
    def _shard_sizes(self) -> List[int]:
        if self._sizes is None:
            sizes = []
            for shard, backend in enumerate(self._shards):
                try:
                    sizes.append(len(backend))
                except Exception as error:
                    raise self._shard_error(shard, error, "len()") from error
            self._sizes = sizes
        return self._sizes

    def _all_node_ids(self) -> List[NodeId]:
        if self._node_ids is None:
            nodes: List[NodeId] = []
            seen: Set[NodeId] = set()
            failures = 0
            for shard, backend in enumerate(self._shards):
                try:
                    shard_nodes = backend.node_ids()
                except Exception as error:
                    # With replication factor k every node is stored on k
                    # shards, so the union over any (shards - k + 1)
                    # survivors is still the complete id set; only the k-th
                    # concurrent failure can actually lose a range.
                    self._mark_dead(shard)
                    failures += 1
                    if failures >= self.replicas:
                        raise self._shard_error(
                            shard, error, "node_ids()"
                        ) from error
                    continue
                if self.replicas == 1:
                    nodes.extend(shard_nodes)
                else:
                    # Replicated shards overlap: keep first appearances only.
                    for node in shard_nodes:
                        if node not in seen:
                            seen.add(node)
                            nodes.append(node)
            if failures:
                # Degraded enumeration is complete but survivor-ordered;
                # don't memoise it, so a recovered shard restores the
                # canonical first-appearance order.
                return nodes
            self._node_ids = nodes
        return self._node_ids

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def verify_epoch(self) -> None:
        """Best-effort check that reachable shards serve our manifest epoch.

        A shard that cannot be reached (or predates epochs and publishes
        none) is skipped — the read path fails over at fetch time anyway.
        What this guards against is the *silently wrong* answer of a client
        walking a cluster that was :func:`~repro.cluster.repartition`-ed
        after its manifest was read: a definite epoch mismatch raises
        :class:`~repro.exceptions.StaleManifestError`.
        """
        expected = self.expected_epoch
        if expected is None:
            return
        for shard, backend in enumerate(self._shards):
            published = _published(backend, "epoch")
            if published is not None and int(published) != expected:
                raise StaleManifestError(
                    f"shard {shard} ({self._labels[shard]}) serves membership "
                    f"epoch {published} but the cluster manifest says epoch "
                    f"{expected}; the cluster was repartitioned — re-read "
                    f"cluster.json",
                    shard=shard,
                    url=self._labels[shard],
                )

    def close(self) -> None:
        """Close every shard backend.

        Closing is best-effort across all shards: a shard whose ``close``
        raises does not abandon the remaining shards' keep-alive sockets
        (the first error re-raises after everything was attempted).
        """
        first_error: Optional[BaseException] = None
        for backend in self._shards:
            try:
                backend.close()
            except BaseException as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedBackend(name={self.name!r}, shards={len(self._shards)}, "
            f"ring={self._ring!r})"
        )


# ----------------------------------------------------------------------
# Manifest / URL-list loading
# ----------------------------------------------------------------------
def read_cluster_manifest(path: PathLike) -> Tuple[Dict[str, Any], Path]:
    """Read and validate a ``cluster.json``; returns (manifest, base dir)."""
    path = Path(path)
    if path.is_dir():
        path = path / CLUSTER_MANIFEST_NAME
    if not path.is_file():
        raise ClusterError(f"no cluster manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ClusterError(f"unreadable cluster manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != CLUSTER_FORMAT:
        raise ClusterError(
            f"{path} is not a {CLUSTER_FORMAT} manifest "
            f"(format={manifest.get('format') if isinstance(manifest, dict) else manifest!r})"
        )
    if manifest.get("version") not in CLUSTER_READ_VERSIONS:
        raise ClusterError(
            f"cluster manifest {path} has version {manifest.get('version')!r}; "
            f"this build reads versions "
            f"{', '.join(str(v) for v in CLUSTER_READ_VERSIONS)}"
        )
    return manifest, path.parent


def _shard_entries(manifest: Dict[str, Any], ring: HashRing) -> List[Dict[str, Any]]:
    entries = manifest.get("shards")
    if not isinstance(entries, list) or not entries:
        raise ClusterError("cluster manifest has no 'shards' entries")
    by_index: Dict[int, Dict[str, Any]] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "shard" not in entry or "source" not in entry:
            raise ClusterError(f"malformed shard entry {entry!r}")
        by_index[int(entry["shard"])] = entry
    if sorted(by_index) != list(range(ring.shards)):
        raise ClusterError(
            f"cluster manifest lists shards {sorted(by_index)} but the ring "
            f"routes {ring.shards} shards (expected 0..{ring.shards - 1})"
        )
    return [by_index[index] for index in range(ring.shards)]


def load_cluster(path: PathLike, **client_options) -> ShardedBackend:
    """Open a ``cluster.json`` manifest (or its directory) as one backend.

    Each shard entry's ``source`` is an ``http(s)://`` URL (driven through
    :class:`~repro.api.remote.HTTPGraphBackend`, with ``client_options``
    forwarded — ``timeout``, ``retries``, ...) or a path to a shard
    directory, resolved relative to the manifest's own directory.

    v2 manifests carry a replica factor and membership epoch; the returned
    backend fails reads over across the replicas, and the epoch every
    reachable shard publishes is checked against the manifest
    (:meth:`ShardedBackend.verify_epoch`) so a client can't silently walk a
    repartitioned cluster with stale routes.  v1 manifests load as
    ``replicas=1`` with no epoch check.
    """
    manifest, base_dir = read_cluster_manifest(path)
    ring = HashRing.from_spec(manifest.get("ring"))
    replicas = int(manifest.get("replicas", 1))
    epoch = manifest.get("epoch")
    backends: List[GraphBackend] = []
    try:
        for entry in _shard_entries(manifest, ring):
            source = entry["source"]
            if isinstance(source, str) and source.startswith(("http://", "https://")):
                from ..api.remote import HTTPGraphBackend

                backends.append(HTTPGraphBackend(source, **client_options))
            else:
                backends.append(as_backend(str(base_dir / source)))
        name = manifest.get("name")
        cluster = ShardedBackend(
            backends,
            ring,
            name=f"cluster:{name}" if name else None,
            replicas=replicas,
            expected_epoch=None if epoch is None else int(epoch),
        )
        cluster.verify_epoch()
        return cluster
    except Exception:
        for backend in backends:
            try:
                backend.close()
            except Exception:
                pass
        raise


def parse_cluster_url(url: str) -> List[str]:
    """Split a ``cluster://`` URL list into per-shard base URLs.

    ``cluster://host:port,host:port,...`` — entries without a scheme get
    ``http://`` prefixed.  Shard order is list order, and the ring is the
    default spec (``DEFAULT_VNODES`` virtual nodes), matching what
    ``partition_snapshot`` writes when not told otherwise.
    """
    if not url.startswith(CLUSTER_URL_SCHEME):
        raise ClusterError(f"not a {CLUSTER_URL_SCHEME} URL: {url!r}")
    entries = [entry.strip() for entry in url[len(CLUSTER_URL_SCHEME):].split(",")]
    entries = [entry for entry in entries if entry]
    if not entries:
        raise ClusterError(
            f"{url!r} names no shard servers (expected "
            f"{CLUSTER_URL_SCHEME}host:port,host:port,...)"
        )
    return [
        entry if entry.startswith(("http://", "https://")) else f"http://{entry}"
        for entry in entries
    ]


def cluster_from_urls(
    urls: Sequence[str],
    *,
    vnodes: int = DEFAULT_VNODES,
    replicas: Optional[int] = None,
    **client_options,
) -> ShardedBackend:
    """Build a :class:`ShardedBackend` over shard-server URLs, in ring order.

    The URL-list shorthand carries no manifest, so with ``replicas=None``
    (the default) the layout's replication factor and membership epoch are
    read from the first shard server that answers ``GET /info`` (every
    shard slice republishes both).  Pass ``replicas`` explicitly to skip
    the probe; a ``replicas=1`` client against a replicated layout still
    routes correctly — every primary stores its nodes — it just never
    fails over and ``node_ids()`` enumerates each node once per copy.
    """
    from ..api.remote import HTTPGraphBackend

    backends = [HTTPGraphBackend(url, **client_options) for url in urls]
    expected_epoch: Optional[int] = None
    try:
        if replicas is None:
            replicas = 1
            for backend in backends:
                try:
                    info = backend.info()
                except Exception:
                    continue  # probe the next shard; plain servers still work
                replicas = int(info.get("replicas") or 1)
                epoch = info.get("epoch")
                expected_epoch = None if epoch is None else int(epoch)
                break
        cluster = ShardedBackend(
            backends,
            HashRing(len(backends), vnodes=vnodes),
            replicas=replicas,
            expected_epoch=expected_epoch,
        )
        cluster.verify_epoch()
        return cluster
    except BaseException:
        for backend in backends:
            try:
                backend.close()
            except Exception:
                pass
        raise


def open_cluster(source: PathLike, **client_options) -> ShardedBackend:
    """Open a cluster from a ``cluster://`` URL list or a manifest path."""
    if isinstance(source, str) and source.startswith(CLUSTER_URL_SCHEME):
        return cluster_from_urls(parse_cluster_url(source), **client_options)
    return load_cluster(source, **client_options)
