"""Consistent-hash partitioning of a graph across shard servers.

Two pieces live here:

* :class:`HashRing` — a deterministic consistent-hash ring mapping node ids
  to shard indices.  Ring points are derived from a keyed ``blake2b`` digest
  of ``"shard:<s>:vnode:<v>"`` labels, and node ids are hashed through their
  canonical JSON encoding, so the mapping is *stable across runs, machines
  and Python versions* — unlike the builtin ``hash``, which is salted per
  process.  Virtual nodes (``vnodes``) smooth the load distribution; the ring
  is fully described by :meth:`HashRing.spec`, which is what the cluster
  manifest persists.
* :func:`partition_snapshot` — split a PR-3 CSR snapshot into ``shards``
  per-shard snapshot directories plus a versioned ``cluster.json`` manifest.
  Each shard directory is a *valid CSR snapshot* (so ``repro.cli serve
  --source shard-00`` serves it unchanged) holding the shard's stored nodes
  first and every boundary neighbor after them with an empty adjacency row,
  plus a ``shard.json`` sidecar recording the stored count and the ring spec.
  With ``replicas=k`` every node is written to its ``k`` ring-successor
  shards (:meth:`HashRing.shards_of`), so any single shard can die without
  losing a ring range.  :func:`load_shard` reopens one as a
  :class:`ShardSliceBackend`, which restricts the visible node set to the
  stored prefix — a mis-routed fetch raises
  :class:`~repro.exceptions.NodeNotFoundError` instead of silently answering
  with an empty neighborhood.
* :func:`repartition` — incremental dynamic membership: re-balance an
  on-disk cluster to a new shard count / replica factor, copying only the
  reassigned nodes and bumping the manifest ``epoch`` so stale clients
  detect the change through the epoch every shard republishes on ``/info``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..api.backend import CSRBackend, GraphBackend, InMemoryBackend, RawRecord
from ..exceptions import ClusterError, NodeNotFoundError
from ..graphs.graph import Graph
from ..types import NodeId

PathLike = Union[str, Path]

#: Format identifier written into (and demanded from) every cluster manifest.
CLUSTER_FORMAT = "repro-graph-cluster"
#: Current cluster-manifest version; bump on any incompatible change.
#: v2 added ``replicas`` (replica factor) and ``epoch`` (membership counter).
CLUSTER_VERSION = 2
#: Manifest versions this build can load.  v1 manifests predate replication
#: and load as ``replicas=1`` / ``epoch=0``.
CLUSTER_READ_VERSIONS = (1, 2)
CLUSTER_MANIFEST_NAME = "cluster.json"

#: Format identifier of the per-shard ``shard.json`` sidecar.
SHARD_FORMAT = "repro-graph-shard"
SHARD_VERSION = 1
SHARD_MANIFEST_NAME = "shard.json"

#: Ring algorithm identifier persisted in manifests (validated on load).
RING_ALGORITHM = "consistent-hash-blake2b64"
#: Default virtual nodes per shard; enough to keep shard sizes within a few
#: percent of even on realistic graphs without making ring lookups slow.
DEFAULT_VNODES = 64


def _hash64(data: bytes) -> bytes:
    """A stable 64-bit hash: the 8-byte blake2b digest, kept as bytes.

    Equal-length big-endian digests compare as bytes exactly as their
    integer values do, so the ring sorts and bisects them as they are.
    """
    return hashlib.blake2b(data, digest_size=8).digest()


#: The canonical id encoder, built once: ``json.dumps`` with keyword
#: arguments builds a fresh encoder on every call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def node_key(node: NodeId) -> bytes:
    """The canonical hashable encoding of a node id.

    JSON keeps ``5`` and ``"5"`` distinct (the same property the HTTP wire
    relies on) and is identical across processes, so the same node always
    lands on the same shard no matter which client computes the route.
    Plain and numpy integers take a shortcut: their decimal digits are
    exactly the bytes canonical JSON gives them.
    """
    try:
        if type(node) is int:
            return str(node).encode("ascii")
        if isinstance(node, np.integer):
            return str(int(node)).encode("ascii")
        return _CANONICAL_JSON.encode(node).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ClusterError(
            f"a node id of type {type(node).__name__} cannot be routed: "
            f"consistent hashing requires a JSON-representable id ({exc})"
        ) from exc


class HashRing:
    """A deterministic consistent-hash ring over ``shards`` shard indices.

    Each shard contributes ``vnodes`` points on a 64-bit ring; a node id is
    routed to the owner of the first ring point at or after its own hash
    (wrapping at the top).  Two rings built from the same ``(shards,
    vnodes)`` pair produce identical routes forever — the property the
    on-disk partition layout depends on.

    The replica set a ring point leads to depends only on the point, so the
    ring builds, once per replica factor ``k``, a table holding every
    point's replica tuple; a route is then a hash, a ``bisect`` and one
    index into that table, and every node behind the same point shares one
    tuple.
    """

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if shards < 1:
            raise ClusterError(f"a cluster needs at least one shard (got {shards})")
        if vnodes < 1:
            raise ClusterError(f"vnodes must be at least 1 (got {vnodes})")
        self.shards = int(shards)
        self.vnodes = int(vnodes)
        points = sorted(
            (_hash64(f"shard:{shard}:vnode:{vnode}".encode("ascii")), shard)
            for shard in range(self.shards)
            for vnode in range(self.vnodes)
        )
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]
        # k -> replica tuple per bisect position (one extra entry for the
        # position past the top point, which wraps to the first).
        self._tables: Dict[int, Tuple[Tuple[int, ...], ...]] = {}

    def shard_of(self, node: NodeId) -> int:
        """Return the shard index owning ``node``."""
        return self.shards_of(node, 1)[0]

    def shards_of(self, node: NodeId, k: int) -> Tuple[int, ...]:
        """Return the ``k`` distinct shards holding ``node``'s replicas.

        The successor walk starts at the ring point owning ``node`` — so
        ``shards_of(node, 1) == (shard_of(node),)`` and the first entry is
        always the primary — and continues clockwise, collecting each *new*
        shard it meets until ``k`` distinct physical shards are found.
        Successor placement keeps repartitioning cheap: adding a shard only
        reassigns the ring ranges adjacent to its new points.  The returned
        tuple is shared by every node routed through the same ring point.
        """
        table = self._tables.get(k)
        if table is None:
            table = self._build_table(k)
        return table[bisect.bisect_right(self._hashes, _hash64(node_key(node)))]

    def _build_table(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        """Walk the ring once from every point, collecting ``k`` owners."""
        if k < 1:
            raise ClusterError(f"replicas must be at least 1 (got {k})")
        if k > self.shards:
            raise ClusterError(
                f"cannot place {k} replicas on {self.shards} distinct shards"
            )
        points = len(self._owners)
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        rows: List[Tuple[int, ...]] = []
        for position in range(points):
            owners: List[int] = []
            for offset in range(points):
                owner = self._owners[(position + offset) % points]
                if owner not in owners:
                    owners.append(owner)
                    if len(owners) == k:
                        break
            route = tuple(owners)
            rows.append(shared.setdefault(route, route))
        rows.append(rows[0])  # past the top point: wrap to the first
        table = tuple(rows)
        self._tables[k] = table
        return table

    def spec(self) -> Dict[str, Any]:
        """The JSON-able ring description persisted in cluster manifests."""
        return {
            "algorithm": RING_ALGORITHM,
            "shards": self.shards,
            "vnodes": self.vnodes,
        }

    @classmethod
    def from_spec(cls, spec: Any) -> "HashRing":
        """Rebuild a ring from a manifest spec (typed errors on mismatch)."""
        if not isinstance(spec, dict):
            raise ClusterError(
                f"ring spec must be a JSON object, got {type(spec).__name__}"
            )
        algorithm = spec.get("algorithm")
        if algorithm != RING_ALGORITHM:
            raise ClusterError(
                f"ring algorithm {algorithm!r} is not supported; this build "
                f"speaks {RING_ALGORITHM!r}"
            )
        try:
            return cls(int(spec["shards"]), int(spec.get("vnodes", DEFAULT_VNODES)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterError(f"malformed ring spec {spec!r}: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"HashRing(shards={self.shards}, vnodes={self.vnodes})"


class ShardSliceBackend(GraphBackend):
    """One shard's slice of a partitioned graph.

    Wraps the shard's CSR snapshot — whose node table holds the stored nodes
    (primary-owned plus replicated) first, then every boundary neighbor with
    an empty row — and restricts the *visible* node set to the stored prefix:
    ``fetch`` / ``contains`` / ``metadata`` / ``node_ids`` answer only for
    nodes this shard stores, so a request the ring should have sent elsewhere
    fails loudly with :class:`~repro.exceptions.NodeNotFoundError` instead of
    returning a boundary node's (empty, wrong) adjacency.

    ``epoch`` / ``replicas`` / ``primary`` mirror the ``shard.json`` sidecar
    (``None`` / ``1`` / ``None`` for sidecars that predate them); the server
    republishes them on ``GET /info``, so cluster clients can detect a stale
    manifest after a :func:`repartition` and count the cluster's nodes as the
    sum of its shards' ``primary`` counts.
    """

    def __init__(
        self,
        inner: CSRBackend,
        owned_count: int,
        *,
        shard: int,
        shards: int,
        name: Optional[str] = None,
        replicas: int = 1,
        epoch: Optional[int] = None,
        primary: Optional[int] = None,
    ) -> None:
        if not 0 <= owned_count <= len(inner):
            raise ClusterError(
                f"shard manifest claims {owned_count} stored nodes but the "
                f"snapshot holds {len(inner)}"
            )
        self._inner = inner
        self._owned_ids: List[NodeId] = inner.node_ids()[:owned_count]
        self._owned = set(self._owned_ids)
        self.shard = int(shard)
        self.shards = int(shards)
        self.replicas = int(replicas)
        self.epoch = None if epoch is None else int(epoch)
        self.primary = None if primary is None else int(primary)
        self.name = name or f"shard{shard}/{shards}:{inner.name}"

    @property
    def inner(self) -> CSRBackend:
        """The underlying CSR store (owned + boundary rows)."""
        return self._inner

    def _require_owned(self, node: NodeId) -> None:
        if node not in self._owned:
            raise NodeNotFoundError(node)

    def fetch(self, node: NodeId) -> RawRecord:
        self._require_owned(node)
        return self._inner.fetch(node)

    def fetch_many(self, nodes: Sequence[NodeId]) -> List[RawRecord]:
        for node in nodes:
            self._require_owned(node)
        return self._inner.fetch_many(nodes)

    def contains(self, node: NodeId) -> bool:
        return node in self._owned

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        if node not in self._owned:
            return None
        return self._inner.metadata(node)

    def node_ids(self) -> List[NodeId]:
        return list(self._owned_ids)

    def sample_node(self, rng) -> NodeId:
        return self._owned_ids[int(rng.integers(0, len(self._owned_ids)))]

    def __len__(self) -> int:
        return len(self._owned_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardSliceBackend(shard={self.shard}/{self.shards}, "
            f"owned={len(self)}, table={len(self._inner)})"
        )


def _resolve_to_csr(source) -> CSRBackend:
    """Coerce a partitionable source into a (possibly memory-mapped) CSR."""
    from ..storage.snapshot import load_snapshot

    if isinstance(source, (str, Path)):
        return load_snapshot(source)
    if isinstance(source, InMemoryBackend):
        source = source.graph
    if isinstance(source, Graph):
        return CSRBackend.from_graph(source)
    if isinstance(source, CSRBackend):
        return source
    raise TypeError(
        f"cannot partition {type(source).__name__}; accepted sources: a CSR "
        "snapshot directory (str / Path), Graph, InMemoryBackend, or CSRBackend"
    )


def _assign_replicas(
    all_ids: Sequence[NodeId], ring: HashRing, replicas: int
) -> Tuple[List[List[NodeId]], List[int]]:
    """Place every node on its ``replicas`` successor shards.

    Returns ``(stored_by_shard, primary_count)``: each shard's stored node
    list (in ``all_ids`` order, so walks over the reassembled cluster
    reproduce the original neighbor order exactly) and how many of those it
    owns as the primary.
    """
    stored_by_shard: List[List[NodeId]] = [[] for _ in range(ring.shards)]
    primary_count = [0] * ring.shards
    for node in all_ids:
        owners = ring.shards_of(node, replicas)
        primary_count[owners[0]] += 1
        for shard in owners:
            stored_by_shard[shard].append(node)
    return stored_by_shard, primary_count


def _shard_table(
    stored: Sequence[NodeId],
    fetch: Callable[[NodeId], RawRecord],
    *,
    name: str,
) -> CSRBackend:
    """Build one shard's CSR: stored nodes first, boundary rows after.

    Table layout: stored nodes first (in global backend order), then
    boundary neighbors in first-appearance order with empty rows.  The
    boundary entries exist only so the CSR ``indices`` array has an in-table
    index for every neighbor.
    """
    table_index = {node: position for position, node in enumerate(stored)}
    boundary: List[NodeId] = []
    rows: List[List[int]] = []
    attrs: Dict[NodeId, Dict[str, Any]] = {}
    for node in stored:
        record = fetch(node)
        row: List[int] = []
        for neighbor in record.neighbors:
            position = table_index.get(neighbor)
            if position is None:
                position = len(stored) + len(boundary)
                table_index[neighbor] = position
                boundary.append(neighbor)
            row.append(position)
        rows.append(row)
        if record.attributes:
            attrs[node] = dict(record.attributes)
    table_ids = list(stored) + boundary
    indptr = np.zeros(len(table_ids) + 1, dtype=np.int64)
    lengths = [len(row) for row in rows] + [0] * len(boundary)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=indptr[1:])
    indices = np.fromiter(
        (position for row in rows for position in row),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return CSRBackend(
        indptr, indices, node_ids=table_ids, attributes=attrs, name=name
    )


def _write_shard_dir(
    target: Path,
    *,
    shard: int,
    ring: HashRing,
    stored: Sequence[NodeId],
    primary: int,
    fetch: Callable[[NodeId], RawRecord],
    graph_name: str,
    replicas: int,
    epoch: int,
) -> Path:
    """Write one servable shard snapshot directory plus its sidecar."""
    from ..storage.snapshot import save_snapshot

    shard_name = f"{graph_name}@{shard}/{ring.shards}"
    shard_csr = _shard_table(stored, fetch, name=shard_name)
    shard_dir = save_snapshot(shard_csr, target, name=shard_name)
    sidecar = {
        "format": SHARD_FORMAT,
        "version": SHARD_VERSION,
        "name": shard_name,
        "shard": shard,
        "shards": ring.shards,
        "owned": len(stored),
        "primary": primary,
        "replicas": replicas,
        "epoch": epoch,
        "ring": ring.spec(),
    }
    (shard_dir / SHARD_MANIFEST_NAME).write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
    )
    return shard_dir


def _write_cluster_manifest(
    out_dir: Path,
    *,
    graph_name: str,
    nodes: int,
    ring: HashRing,
    entries: List[Dict[str, Any]],
    replicas: int,
    epoch: int,
) -> None:
    manifest = {
        "format": CLUSTER_FORMAT,
        "version": CLUSTER_VERSION,
        "name": graph_name,
        "nodes": nodes,
        "epoch": epoch,
        "replicas": replicas,
        "ring": ring.spec(),
        "shards": entries,
    }
    (out_dir / CLUSTER_MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def _validate_replicas(replicas: int, ring: HashRing) -> int:
    replicas = int(replicas)
    if not 1 <= replicas <= ring.shards:
        raise ClusterError(
            f"replicas={replicas} is not placeable on {ring.shards} shards "
            f"(each replica needs a distinct physical shard)"
        )
    return replicas


def partition_snapshot(
    source,
    out_dir: PathLike,
    shards: int,
    *,
    vnodes: int = DEFAULT_VNODES,
    name: Optional[str] = None,
    replicas: int = 1,
) -> Path:
    """Split a snapshot into per-shard snapshots plus a ``cluster.json``.

    ``source`` is a CSR snapshot directory (the usual case), or any in-memory
    graph / CSR backend.  ``out_dir`` receives one ``shard-NN`` snapshot
    directory per shard and the versioned cluster manifest; the return value
    is ``out_dir``.  Every shard directory is independently servable
    (``repro.cli serve --source out/shard-00``), and
    :func:`~repro.cluster.backend.load_cluster` reassembles the whole graph.

    ``replicas=k`` writes every node to its ``k`` ring-successor shards
    (distinct physical shards), letting a
    :class:`~repro.cluster.backend.ShardedBackend` fail reads over to a live
    replica when a shard dies.  The manifest starts at membership ``epoch``
    0; :func:`repartition` bumps it on every membership change.
    """
    csr = _resolve_to_csr(source)
    ring = HashRing(shards, vnodes=vnodes)
    replicas = _validate_replicas(replicas, ring)
    graph_name = name or csr.name
    if graph_name.startswith("mmap:"):
        graph_name = graph_name[len("mmap:"):]

    all_ids = csr.node_ids()
    stored_by_shard, primary_count = _assign_replicas(all_ids, ring, replicas)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: List[Dict[str, Any]] = []
    for shard, stored in enumerate(stored_by_shard):
        shard_dirname = f"shard-{shard:02d}"
        _write_shard_dir(
            out_dir / shard_dirname,
            shard=shard,
            ring=ring,
            stored=stored,
            primary=primary_count[shard],
            fetch=csr.fetch,
            graph_name=graph_name,
            replicas=replicas,
            epoch=0,
        )
        entries.append({
            "shard": shard,
            "source": shard_dirname,
            "nodes": len(stored),
            "primary": primary_count[shard],
        })

    _write_cluster_manifest(
        out_dir,
        graph_name=graph_name,
        nodes=len(all_ids),
        ring=ring,
        entries=entries,
        replicas=replicas,
        epoch=0,
    )
    return out_dir


def repartition(
    cluster_dir: PathLike,
    *,
    shards: Optional[int] = None,
    replicas: Optional[int] = None,
    vnodes: Optional[int] = None,
) -> Dict[str, Any]:
    """Incrementally re-balance an on-disk cluster after membership changes.

    Reads the existing ``cluster.json``, recomputes the replica placement
    for the new ``(shards, replicas, vnodes)`` — each defaulting to the
    current value — and rewrites *only* the shard directories whose stored
    node set changed.  Nodes a shard already stores are re-read from its own
    slice; only reassigned nodes are copied across shard boundaries, which
    consistent hashing keeps to roughly ``nodes/shards`` per added shard.
    The manifest is rewritten with ``epoch`` bumped by one, so clients
    holding the old manifest detect the change through the epoch every shard
    republishes on ``GET /info`` (:class:`~repro.exceptions.StaleManifestError`).

    Rebuilt shards are staged in temporary directories and swapped in only
    after every rebuild succeeded; servers still running on the old
    directories keep serving their memory-mapped arrays.  Returns a report
    dict: ``epoch``, ``shards``, ``replicas``, ``nodes``, ``moved`` (nodes
    newly copied onto a shard) and ``rebuilt`` (shard indices rewritten).
    """
    from .backend import _shard_entries, read_cluster_manifest

    manifest, base_dir = read_cluster_manifest(cluster_dir)
    old_ring = HashRing.from_spec(manifest.get("ring"))
    old_replicas = int(manifest.get("replicas", 1))
    old_epoch = int(manifest.get("epoch", 0))
    new_ring = HashRing(
        old_ring.shards if shards is None else int(shards),
        vnodes=old_ring.vnodes if vnodes is None else int(vnodes),
    )
    new_replicas = _validate_replicas(
        old_replicas if replicas is None else int(replicas), new_ring
    )
    new_epoch = old_epoch + 1
    graph_name = manifest.get("name") or "graph"

    old_dirnames: Dict[int, str] = {}
    old_slices: Dict[int, ShardSliceBackend] = {}
    for entry in _shard_entries(manifest, old_ring):
        source = str(entry["source"])
        if source.startswith(("http://", "https://")):
            raise ClusterError(
                f"repartition rewrites shard directories on disk, but shard "
                f"{entry['shard']} is a remote server ({source}); run it "
                f"where the shard directories live"
            )
        shard = int(entry["shard"])
        old_dirnames[shard] = source
        old_slices[shard] = load_shard(base_dir / source)

    # A deterministic global node order: first appearance across the old
    # shards.  For unreplicated layouts this is exactly the original global
    # order, so an unchanged assignment round-trips to byte-identical shard
    # tables and is skipped below.
    all_ids: List[NodeId] = []
    seen = set()
    for shard in sorted(old_slices):
        for node in old_slices[shard].node_ids():
            if node not in seen:
                seen.add(node)
                all_ids.append(node)

    stored_by_shard, primary_count = _assign_replicas(all_ids, new_ring, new_replicas)

    def _reader(prefer_shard: int) -> Callable[[NodeId], RawRecord]:
        prefer = old_slices.get(prefer_shard)

        def fetch(node: NodeId) -> RawRecord:
            # Prefer the shard's own old slice — those nodes are not copies,
            # just a rewrite in place — and pull reassigned nodes from their
            # old primary.
            if prefer is not None and prefer.contains(node):
                return prefer.fetch(node)
            owner = old_ring.shards_of(node, old_replicas)[0]
            return old_slices[owner].fetch(node)

        return fetch

    moved = 0
    rebuilt: List[int] = []
    staged: Dict[int, Tuple[Path, Path]] = {}  # shard -> (tmp dir, final dir)
    entries: List[Dict[str, Any]] = []
    try:
        for shard, stored in enumerate(stored_by_shard):
            dirname = old_dirnames.get(shard, f"shard-{shard:02d}")
            final = base_dir / dirname
            old_slice = old_slices.get(shard)
            old_stored = old_slice.node_ids() if old_slice is not None else []
            old_set = set(old_stored)
            moved += sum(1 for node in stored if node not in old_set)
            if stored != old_stored:
                rebuilt.append(shard)
                tmp = base_dir / f".repartition-{shard:02d}.tmp"
                if tmp.exists():
                    shutil.rmtree(tmp)
                _write_shard_dir(
                    tmp,
                    shard=shard,
                    ring=new_ring,
                    stored=stored,
                    primary=primary_count[shard],
                    fetch=_reader(shard),
                    graph_name=graph_name,
                    replicas=new_replicas,
                    epoch=new_epoch,
                )
                staged[shard] = (tmp, final)
            entries.append({
                "shard": shard,
                "source": dirname,
                "nodes": len(stored),
                "primary": primary_count[shard],
            })
    except Exception:
        for tmp, _ in staged.values():
            shutil.rmtree(tmp, ignore_errors=True)
        raise

    # Every rebuild succeeded: release the old mmaps and swap directories.
    for old_slice in old_slices.values():
        try:
            old_slice.inner.close()
        except Exception:
            pass
    for shard, (tmp, final) in staged.items():
        if final.exists():
            shutil.rmtree(final)
        tmp.rename(final)
    for shard, stored in enumerate(stored_by_shard):
        if shard in staged:
            continue
        # Stored set unchanged: refresh only the sidecar (epoch, ring, spec).
        final = base_dir / old_dirnames.get(shard, f"shard-{shard:02d}")
        sidecar = read_shard_manifest(final)
        sidecar.update({
            "name": f"{graph_name}@{shard}/{new_ring.shards}",
            "shards": new_ring.shards,
            "primary": primary_count[shard],
            "replicas": new_replicas,
            "epoch": new_epoch,
            "ring": new_ring.spec(),
        })
        (final / SHARD_MANIFEST_NAME).write_text(
            json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
        )
    for shard in range(new_ring.shards, old_ring.shards):
        # The cluster shrank: drop directories of shards that left the ring.
        orphan = base_dir / old_dirnames.get(shard, f"shard-{shard:02d}")
        if orphan.exists():
            shutil.rmtree(orphan)

    _write_cluster_manifest(
        base_dir,
        graph_name=graph_name,
        nodes=len(all_ids),
        ring=new_ring,
        entries=entries,
        replicas=new_replicas,
        epoch=new_epoch,
    )
    return {
        "epoch": new_epoch,
        "shards": new_ring.shards,
        "replicas": new_replicas,
        "nodes": len(all_ids),
        "moved": moved,
        "rebuilt": rebuilt,
    }


def read_shard_manifest(directory: PathLike) -> Dict[str, Any]:
    """Read and validate the ``shard.json`` sidecar of a shard directory."""
    path = Path(directory) / SHARD_MANIFEST_NAME
    if not path.is_file():
        raise ClusterError(f"{directory} is not a shard directory (missing {SHARD_MANIFEST_NAME})")
    try:
        sidecar = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ClusterError(f"unreadable shard manifest {path}: {exc}") from exc
    if not isinstance(sidecar, dict) or sidecar.get("format") != SHARD_FORMAT:
        raise ClusterError(
            f"{path} is not a {SHARD_FORMAT} manifest "
            f"(format={sidecar.get('format') if isinstance(sidecar, dict) else sidecar!r})"
        )
    if sidecar.get("version") != SHARD_VERSION:
        raise ClusterError(
            f"shard {directory} has format version {sidecar.get('version')!r}; "
            f"this build reads version {SHARD_VERSION}"
        )
    return sidecar


def load_shard(directory: PathLike) -> ShardSliceBackend:
    """Open one shard directory written by :func:`partition_snapshot`.

    The snapshot arrays open memory-mapped (O(1) like any snapshot); the
    returned :class:`ShardSliceBackend` serves only the shard's owned nodes.
    """
    from ..storage.snapshot import load_snapshot

    directory = Path(directory)
    sidecar = read_shard_manifest(directory)
    inner = load_snapshot(directory)
    try:
        owned = int(sidecar["owned"])
        shard = int(sidecar["shard"])
        shards = int(sidecar["shards"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ClusterError(
            f"shard manifest {directory / SHARD_MANIFEST_NAME} is missing "
            f"valid 'owned'/'shard'/'shards' fields: {exc!r}"
        ) from exc
    epoch = sidecar.get("epoch")
    return ShardSliceBackend(
        inner,
        owned,
        shard=shard,
        shards=shards,
        name=sidecar.get("name"),
        replicas=int(sidecar.get("replicas", 1)),
        epoch=None if epoch is None else int(epoch),
        primary=sidecar.get("primary"),
    )
