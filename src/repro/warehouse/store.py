"""A queryable crawl warehouse: WAL-mode SQLite over many merged crawls.

PR 3's crawl dumps are append-only JSONL artifacts — the only thing you can
do with one is replay it start to finish.  The warehouse turns any number of
those dumps (plus CSR snapshots and live backends) into one *queryable*
store: a single SQLite file in WAL mode, so one writer ingests new crawls
while any number of concurrent readers — walker processes, the HTTP graph
service, aggregate queries — read a consistent snapshot without blocking.

On-disk format (``repro-warehouse`` v1)::

    warehouse(key, value)                 format / version / name
    crawls(crawl_id, name, source, kind,  one row per ingest, in ingest
           records, new_nodes,            order: the provenance log
           duplicate_nodes, meta_records)
    nodes(node, seq, degree, neighbors,   one row per fetched node; node is
          attributes, crawl_id)           the canonical-JSON id, seq the
                                          global first-ingest order,
                                          neighbors the JSON neighbor array
                                          (the one-lookup serving row)
    edges(src, pos, dst)                  one row per neighbor slot; pos
                                          preserves the crawled neighbor
                                          order exactly (the relational
                                          side: aggregates, dangling-edge
                                          checks, per-neighbor indexes)
    metadata(node, degree, attributes,    boundary neighbors: seen listed,
             crawl_id)                    never fetched (the dumps' ``meta``
                                          lines)
    node_attrs(node, name, value)         exploded attribute pairs feeding
                                          the aggregate indexes

with ``journal_mode=WAL``, ``synchronous=NORMAL``, ``foreign_keys=ON`` and a
30s ``busy_timeout`` (the warehouse-over-embedded-SQLite pragma set), plus
indexes on ``nodes(degree)`` and ``node_attrs(name, value)`` so estimator
sanity checks read SQL aggregates instead of walking.

Node ids are stored as *canonical JSON* (sorted keys, no whitespace), so
``5`` and ``"5"`` stay distinct and unicode ids round-trip exactly; any id
or attribute value JSON would degrade is rejected at ingest time, exactly
like the snapshot and dump writers.

Ingestion dedupes nodes by id and is conflict-checked: a record whose
neighbor rows or attributes contradict an already ingested record — or a
boundary metadata degree that contradicts a fetched record — raises the
typed :class:`~repro.exceptions.IngestConflictError` and rolls the whole
crawl back.  Exports are lossless: :meth:`CrawlWarehouse.export_dump`
reproduces a ``repro-crawl`` dump (records in first-ingest order, boundary
``meta`` lines included) and :meth:`CrawlWarehouse.export_snapshot` compiles
a complete warehouse back into a ``repro-csr-snapshot`` directory.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..api.backend import GraphBackend, RawRecord, as_backend
from ..exceptions import IngestConflictError, WarehouseError, format_node_id
from ..graphs.graph import Graph
from ..types import NodeId

PathLike = Union[str, Path]

#: Format identifier written into (and demanded from) every store.
WAREHOUSE_FORMAT = "repro-warehouse"
#: Current schema version; bump on any incompatible change.
WAREHOUSE_VERSION = 1

#: The 16-byte magic prefix of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

#: Connection pragmas: WAL for concurrent readers under one writer,
#: NORMAL sync (safe in WAL mode, much faster than FULL), enforced foreign
#: keys, and a generous busy timeout so a reader never fails spuriously
#: while an ingest commits.
_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA foreign_keys=ON",
    "PRAGMA busy_timeout=30000",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS warehouse (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS crawls (
    crawl_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    name            TEXT NOT NULL,
    source          TEXT,
    kind            TEXT NOT NULL,
    records         INTEGER NOT NULL,
    new_nodes       INTEGER NOT NULL,
    duplicate_nodes INTEGER NOT NULL,
    meta_records    INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS nodes (
    node       TEXT PRIMARY KEY,
    seq        INTEGER NOT NULL UNIQUE,
    degree     INTEGER NOT NULL,
    neighbors  TEXT NOT NULL,
    attributes TEXT,
    crawl_id   INTEGER NOT NULL REFERENCES crawls(crawl_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_nodes_degree ON nodes(degree);
CREATE INDEX IF NOT EXISTS idx_nodes_crawl  ON nodes(crawl_id);
CREATE TABLE IF NOT EXISTS edges (
    src TEXT NOT NULL,
    pos INTEGER NOT NULL,
    dst TEXT NOT NULL,
    PRIMARY KEY (src, pos)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_edges_dst ON edges(dst);
CREATE TABLE IF NOT EXISTS metadata (
    node       TEXT PRIMARY KEY,
    degree     INTEGER,
    attributes TEXT,
    crawl_id   INTEGER NOT NULL REFERENCES crawls(crawl_id)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS node_attrs (
    node  TEXT NOT NULL,
    name  TEXT NOT NULL,
    value TEXT NOT NULL,
    PRIMARY KEY (node, name)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_node_attrs ON node_attrs(name, value);
"""


def encode_node_key(node: NodeId) -> str:
    """Encode a node id as its canonical JSON key, or raise WarehouseError.

    Canonical form (sorted keys, compact separators) makes the key stable
    across processes, keeps ``5`` and ``"5"`` distinct, and the round-trip
    check rejects ids JSON would silently degrade (tuples to lists) exactly
    like the snapshot and dump writers do.
    """
    key = try_encode_node_key(node)
    if key is None:
        raise WarehouseError(
            f"node id {format_node_id(node)} does not survive a JSON round trip; the "
            f"warehouse stores int or str ids (like snapshots and dumps)"
        )
    return key


def try_encode_node_key(node: NodeId) -> Optional[str]:
    """Encode a node id as its canonical JSON key, or ``None`` if lossy.

    Lookups use this: an id the key encoding cannot represent cannot be in
    the store, so backends treat it as an ordinary miss instead of an error.
    The int and str fast paths skip the round-trip validation — those types
    always survive JSON exactly, and this function sits on the per-fetch
    hot path of :class:`~repro.warehouse.backend.WarehouseBackend`.  (The
    ``type is int`` check deliberately excludes bool, whose JSON form is
    ``true``, via the general path.)  A numpy integer keys as the equal
    plain int, like :func:`~repro.cluster.partition.node_key` routes it.
    """
    kind = type(node)
    if kind is int:
        try:
            return str(node)
        except ValueError:  # past the int-to-str digit limit: never stored
            return None
    if kind is str:
        return json.dumps(node)
    if isinstance(node, np.integer):
        return str(int(node))  # the key of the equal plain int
    try:
        key = json.dumps(node, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    return key if json.loads(key) == node else None


def decode_node_key(key: str) -> NodeId:
    """Decode a canonical JSON key back into the original node id."""
    return json.loads(key)


def _encode_attributes(node: NodeId, attributes: Dict[str, Any]) -> Optional[str]:
    """Encode an attribute dict as JSON (``None`` when empty), validating."""
    if not attributes:
        return None
    try:
        encoded = json.dumps(attributes, sort_keys=True, separators=(",", ":"))
        if json.loads(encoded) == attributes:
            return encoded
    except (TypeError, ValueError):
        pass
    raise WarehouseError(
        f"attributes of node {format_node_id(node)} do not survive a JSON round trip; "
        f"the warehouse stores JSON-native attribute values with string keys"
    )


def _encode_neighbors(record: RawRecord, node_key) -> str:
    """Encode a record's neighbor tuple as one JSON array (the serving row).

    Each neighbor id is individually round-trip validated through
    ``node_key`` first, so the array as a whole is exact; keeping the whole
    tuple in one column makes serving a fetch a single indexed lookup plus a
    single ``json.loads``.
    """
    for neighbor in record.neighbors:
        node_key(neighbor)
    return json.dumps(list(record.neighbors), separators=(",", ":"))


def is_warehouse_file(path: PathLike) -> bool:
    """Whether ``path`` is an SQLite database file (by magic prefix).

    Used by the :func:`repro.storage.open_backend` dispatcher to tell a
    warehouse from a crawl dump without trusting file suffixes.
    """
    path = Path(path)
    if not path.is_file():
        return False
    try:
        with open(path, "rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


@dataclass(frozen=True)
class IngestReport:
    """Provenance of one ingested crawl (one row of the ``crawls`` table)."""

    crawl_id: int
    name: str
    source: Optional[str]
    kind: str
    records: int
    new_nodes: int
    duplicate_nodes: int
    meta_records: int

    def describe(self) -> str:
        """One provenance line (the ``warehouse stats`` crawl-log format)."""
        origin = f" source={self.source}" if self.source else ""
        return (
            f"crawl {self.crawl_id}: {self.name} kind={self.kind} "
            f"records={self.records} new={self.new_nodes} "
            f"duplicates={self.duplicate_nodes} meta={self.meta_records}"
            f"{origin}"
        )


class CrawlWarehouse:
    """One WAL-mode SQLite crawl store: ingest, merge, query, export.

    Open an existing store with :meth:`open` (or ``CrawlWarehouse(path)``),
    create a fresh one with :meth:`create`.  The instance holds the single
    *writer* connection; serving walks is the job of
    :class:`~repro.warehouse.backend.WarehouseBackend`, whose read-only
    connections run concurrently with ingests thanks to WAL.
    """

    def __init__(self, path: PathLike, _create: bool = False, name: Optional[str] = None) -> None:
        self.path = Path(path)
        if not _create and not self.path.is_file():
            raise WarehouseError(
                f"no crawl warehouse at {self.path}; create one with "
                f"CrawlWarehouse.create(path)"
            )
        if not _create and not is_warehouse_file(self.path):
            raise WarehouseError(f"{self.path} is not an SQLite database file")
        self._conn = sqlite3.connect(str(self.path))
        for pragma in _PRAGMAS:
            self._conn.execute(pragma)
        if _create:
            with self._conn:
                self._conn.executescript(_SCHEMA)
                self._conn.executemany(
                    "INSERT OR REPLACE INTO warehouse (key, value) VALUES (?, ?)",
                    [
                        ("format", WAREHOUSE_FORMAT),
                        ("version", str(WAREHOUSE_VERSION)),
                        ("name", name or self.path.stem),
                    ],
                )
        self._validate()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: PathLike, name: Optional[str] = None) -> "CrawlWarehouse":
        """Create a fresh warehouse at ``path`` (parents made, must not exist)."""
        path = Path(path)
        if path.exists():
            raise WarehouseError(
                f"{path} already exists; open it with CrawlWarehouse.open "
                f"(ingest appends to an existing store)"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        return cls(path, _create=True, name=name)

    @classmethod
    def open(cls, path: PathLike, create: bool = False) -> "CrawlWarehouse":
        """Open an existing warehouse; ``create=True`` makes a missing one."""
        if create and not Path(path).exists():
            return cls.create(path)
        return cls(path)

    def _validate(self) -> None:
        try:
            rows = dict(self._conn.execute("SELECT key, value FROM warehouse"))
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise WarehouseError(
                f"{self.path} is not a {WAREHOUSE_FORMAT} store: {exc}"
            ) from exc
        if rows.get("format") != WAREHOUSE_FORMAT:
            self._conn.close()
            raise WarehouseError(
                f"{self.path} is not a {WAREHOUSE_FORMAT} store "
                f"(format={rows.get('format')!r})"
            )
        version = rows.get("version")
        if version != str(WAREHOUSE_VERSION):
            self._conn.close()
            raise WarehouseError(
                f"warehouse {self.path} has schema version {version!r}; this "
                f"build reads version {WAREHOUSE_VERSION}"
            )

    @property
    def name(self) -> str:
        row = self._conn.execute(
            "SELECT value FROM warehouse WHERE key='name'"
        ).fetchone()
        return row[0] if row else self.path.stem

    def close(self) -> None:
        """Close the writer connection."""
        self._conn.close()

    def __enter__(self) -> "CrawlWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CrawlWarehouse(path={str(self.path)!r}, nodes={len(self)}, "
            f"crawls={self.crawl_count})"
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, source, name: Optional[str] = None) -> IngestReport:
        """Merge one crawl source into the store and return its provenance.

        ``source`` is anything :func:`~repro.api.backend.as_backend` accepts:
        a crawl-dump file, a CSR snapshot directory, another warehouse, a
        :class:`~repro.graphs.graph.Graph` or any live backend.  Records are
        ingested in the source's ``node_ids()`` order (dump order for
        replays, snapshot order for CSR), deduping against what the store
        already holds; boundary neighbors the source serves free metadata
        for become ``metadata`` rows, and any contradiction raises
        :class:`~repro.exceptions.IngestConflictError` with the whole crawl
        rolled back.
        """
        owned: Optional[GraphBackend] = None
        if isinstance(source, (str, Path)):
            label = str(source)
            owned = as_backend(str(source))
            backend = owned
        elif isinstance(source, Graph):
            label = None
            owned = as_backend(source)
            backend = owned
        elif isinstance(source, GraphBackend):
            label = None
            backend = source
        else:
            raise TypeError(
                f"cannot ingest {type(source).__name__}; accepted sources: "
                "Graph, GraphBackend, or a str / pathlib.Path naming a crawl "
                "dump, CSR snapshot directory, or warehouse .sqlite store"
            )
        try:
            return self._ingest_backend(backend, label=label, name=name)
        finally:
            if owned is not None:
                owned.close()

    def _ingest_backend(
        self, backend: GraphBackend, label: Optional[str], name: Optional[str]
    ) -> IngestReport:
        from ..storage.replay import ReplayBackend
        from ..storage.snapshot import MmapCSRBackend

        if isinstance(backend, ReplayBackend):
            kind = "dump"
        elif isinstance(backend, MmapCSRBackend):
            kind = "snapshot"
        else:
            kind = type(backend).__name__
        crawl_name = name or getattr(backend, "name", "crawl")
        started = time.perf_counter()
        order = backend.node_ids()
        records = backend.fetch_many(order) if order else []

        conn = self._conn
        try:
            conn.execute("BEGIN IMMEDIATE")
            report = self._merge_records(backend, records, kind, crawl_name, label)
        except BaseException:
            conn.rollback()
            raise
        conn.commit()
        registry = obs.metrics()
        if registry is not None:
            registry.observe(
                "repro_warehouse_ingest_ms",
                (time.perf_counter() - started) * 1000.0,
            )
            registry.inc("repro_warehouse_ingests_total")
            registry.inc("repro_warehouse_ingest_records_total", report.records)
            registry.inc(
                "repro_warehouse_ingest_duplicates_total", report.duplicate_nodes
            )
        return report

    def _merge_records(
        self,
        backend: GraphBackend,
        records: Sequence[RawRecord],
        kind: str,
        crawl_name: str,
        label: Optional[str],
    ) -> IngestReport:
        conn = self._conn
        # The whole merge keys off canonical-JSON ids; existing keys and
        # boundary metadata are loaded up front so the common case (a brand
        # new node) costs appends into executemany batches, not per-row
        # SELECTs.
        existing: Dict[str, int] = dict(conn.execute("SELECT node, degree FROM nodes"))
        existing_meta: Dict[str, Tuple[Optional[int], Optional[str]]] = {
            key: (degree, attributes)
            for key, degree, attributes in conn.execute(
                "SELECT node, degree, attributes FROM metadata"
            )
        }
        row = conn.execute("SELECT COALESCE(MAX(seq) + 1, 0) FROM nodes").fetchone()
        next_seq = int(row[0])
        crawl_id = int(
            conn.execute(
                "INSERT INTO crawls (name, source, kind, records, new_nodes, "
                "duplicate_nodes, meta_records) VALUES (?, ?, ?, 0, 0, 0, 0)",
                (crawl_name, label, kind),
            ).lastrowid
        )

        # Neighbor ids repeat heavily across records, so the canonical-key
        # encoding is memoised for the duration of the merge.
        key_cache: Dict[NodeId, str] = {}

        def node_key(node: NodeId) -> str:
            key = key_cache.get(node)
            if key is None:
                key = key_cache[node] = encode_node_key(node)
            return key

        node_rows: List[Tuple[str, int, int, str, Optional[str], int]] = []
        edge_rows: List[Tuple[str, int, str]] = []
        attr_rows: List[Tuple[str, str, str]] = []
        promoted_meta: List[str] = []
        new_nodes = 0
        duplicates = 0
        fetched_keys: Dict[str, RawRecord] = {}
        for record in records:
            key = node_key(record.node)
            fetched_keys[key] = record
            attributes_json = _encode_attributes(record.node, record.attributes)
            neighbors_json = _encode_neighbors(record, node_key)
            if key in existing:
                self._check_duplicate(
                    key, record, neighbors_json, attributes_json, crawl_name
                )
                duplicates += 1
                continue
            meta_row = existing_meta.get(key)
            if meta_row is not None:
                # A node previously known only as a boundary neighbor is
                # promoted to a full record — but only if the free summary
                # the earlier crawl saw matches what this crawl fetched.
                meta_degree = meta_row[0]
                if meta_degree is not None and meta_degree != record.degree:
                    raise IngestConflictError(
                        record.node,
                        f"boundary metadata recorded degree {meta_degree}, "
                        f"crawl {crawl_name!r} fetched degree {record.degree}",
                        source=label,
                    )
                promoted_meta.append(key)
            node_rows.append(
                (key, next_seq, record.degree, neighbors_json, attributes_json,
                 crawl_id)
            )
            next_seq += 1
            new_nodes += 1
            for pos, neighbor in enumerate(record.neighbors):
                edge_rows.append((key, pos, node_key(neighbor)))
            for attr_name, value in record.attributes.items():
                attr_rows.append(
                    (key, attr_name, json.dumps(value, sort_keys=True, separators=(",", ":")))
                )

        # Boundary neighbors: listed by some record, fetched by nobody (not
        # by this crawl, not by any earlier one).  Their free profile
        # summaries — the dumps' ``meta`` lines — are worth keeping: the
        # metadata-peeking kernels (MHRW, GNRW) need them for faithful walks.
        meta_rows: List[Tuple[str, Optional[int], Optional[str], int]] = []
        new_meta = 0
        seen_boundary: set = set()
        for record in records:
            for neighbor in record.neighbors:
                nkey = node_key(neighbor)
                if nkey in fetched_keys or nkey in seen_boundary:
                    continue
                seen_boundary.add(nkey)
                summary = backend.metadata(neighbor)
                if summary is None:
                    continue
                degree = summary.get("degree")
                attributes = summary.get("attributes") or {}
                if nkey in existing:
                    if degree is not None and degree != existing[nkey]:
                        raise IngestConflictError(
                            neighbor,
                            f"crawl {crawl_name!r} saw boundary degree {degree}, "
                            f"the store holds a fetched record of degree "
                            f"{existing[nkey]}",
                            source=label,
                        )
                    continue
                attributes_json = _encode_attributes(neighbor, attributes)
                prior = existing_meta.get(nkey)
                if prior is not None:
                    if prior != (degree, attributes_json):
                        raise IngestConflictError(
                            neighbor,
                            f"boundary metadata disagrees with an earlier crawl "
                            f"(stored degree={prior[0]}, new degree={degree})",
                            source=label,
                        )
                    continue
                meta_rows.append((nkey, degree, attributes_json, crawl_id))
                new_meta += 1

        conn = self._conn
        if promoted_meta:
            conn.executemany(
                "DELETE FROM metadata WHERE node=?", [(key,) for key in promoted_meta]
            )
        conn.executemany(
            "INSERT INTO nodes (node, seq, degree, neighbors, attributes, "
            "crawl_id) VALUES (?, ?, ?, ?, ?, ?)",
            node_rows,
        )
        conn.executemany(
            "INSERT INTO edges (src, pos, dst) VALUES (?, ?, ?)", edge_rows
        )
        conn.executemany(
            "INSERT INTO node_attrs (node, name, value) VALUES (?, ?, ?)", attr_rows
        )
        conn.executemany(
            "INSERT INTO metadata (node, degree, attributes, crawl_id) "
            "VALUES (?, ?, ?, ?)",
            meta_rows,
        )
        conn.execute(
            "UPDATE crawls SET records=?, new_nodes=?, duplicate_nodes=?, "
            "meta_records=? WHERE crawl_id=?",
            (len(records), new_nodes, duplicates, new_meta, crawl_id),
        )
        return IngestReport(
            crawl_id=crawl_id,
            name=crawl_name,
            source=label,
            kind=kind,
            records=len(records),
            new_nodes=new_nodes,
            duplicate_nodes=duplicates,
            meta_records=new_meta,
        )

    def _check_duplicate(
        self,
        key: str,
        record: RawRecord,
        neighbors_json: str,
        attributes_json: Optional[str],
        crawl_name: str,
    ) -> None:
        """Verify a re-ingested node agrees with its stored row, or raise."""
        stored = self._conn.execute(
            "SELECT neighbors, attributes FROM nodes WHERE node=?", (key,)
        ).fetchone()
        if stored[0] != neighbors_json:
            raise IngestConflictError(
                record.node,
                f"crawl {crawl_name!r} fetched {len(record.neighbors)} "
                f"neighbors {record.neighbors!r}, the store holds "
                f"{len(json.loads(stored[0]))} different neighbor rows",
            )
        if stored[1] != attributes_json:
            raise IngestConflictError(
                record.node,
                f"crawl {crawl_name!r} fetched attributes {record.attributes!r}, "
                f"the store holds different attributes",
            )

    # ------------------------------------------------------------------
    # Aggregate query surface
    # ------------------------------------------------------------------
    def degree_histogram(self) -> List[Tuple[int, int]]:
        """Return ``[(degree, node_count), ...]`` sorted by degree.

        Served straight off the ``nodes(degree)`` index — no walk, no
        record materialisation.
        """
        return [
            (int(degree), int(count))
            for degree, count in self._conn.execute(
                "SELECT degree, COUNT(*) FROM nodes GROUP BY degree ORDER BY degree"
            )
        ]

    def attribute_counts(self, name: str) -> Dict[Any, int]:
        """Return ``{attribute value: node count}`` for one attribute name.

        Decoded values key the result; a JSON value that does not hash
        (a list) keys by its canonical JSON string instead.
        """
        counts: Dict[Any, int] = {}
        for value_json, count in self._conn.execute(
            "SELECT value, COUNT(*) FROM node_attrs WHERE name=? "
            "GROUP BY value ORDER BY value",
            (name,),
        ):
            value = json.loads(value_json)
            try:
                counts[value] = int(count)
            except TypeError:
                counts[value_json] = int(count)
        return counts

    def crawl_log(self) -> List[IngestReport]:
        """Return the provenance of every ingested crawl, in ingest order."""
        return [
            IngestReport(
                crawl_id=int(crawl_id),
                name=name,
                source=source,
                kind=kind,
                records=int(records),
                new_nodes=int(new_nodes),
                duplicate_nodes=int(duplicate_nodes),
                meta_records=int(meta_records),
            )
            for crawl_id, name, source, kind, records, new_nodes, duplicate_nodes,
            meta_records in self._conn.execute(
                "SELECT crawl_id, name, source, kind, records, new_nodes, "
                "duplicate_nodes, meta_records FROM crawls ORDER BY crawl_id"
            )
        ]

    def stats(self) -> Dict[str, Any]:
        """Return headline store statistics as one SQL round of aggregates."""
        nodes, edge_rows, avg_degree, max_degree = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(degree), 0), AVG(degree), "
            "MAX(degree) FROM nodes"
        ).fetchone()
        meta = self._conn.execute("SELECT COUNT(*) FROM metadata").fetchone()[0]
        crawls = self._conn.execute("SELECT COUNT(*) FROM crawls").fetchone()[0]
        return {
            "name": self.name,
            "path": str(self.path),
            "nodes": int(nodes),
            "edge_rows": int(edge_rows),
            "meta_records": int(meta),
            "crawls": int(crawls),
            "average_degree": float(avg_degree) if avg_degree is not None else 0.0,
            "max_degree": int(max_degree) if max_degree is not None else 0,
        }

    @property
    def crawl_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM crawls").fetchone()[0])

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM nodes").fetchone()[0])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_backend(self):
        """Open this store as a read-only :class:`WarehouseBackend`."""
        from .backend import WarehouseBackend

        return WarehouseBackend(self.path)

    def export_dump(self, path: PathLike, name: Optional[str] = None) -> Path:
        """Write the merged store back out as a ``repro-crawl`` JSONL dump.

        Records go out in global first-ingest (``seq``) order with the
        boundary ``metadata`` rows as ``meta`` lines, through the same
        :func:`~repro.storage.replay.dump_crawl` writer the crawler uses —
        so a dump → ingest → export round trip is lossless, and exporting a
        single-crawl warehouse reproduces the original dump.
        """
        from ..storage.replay import dump_crawl

        with self.as_backend() as backend:
            return dump_crawl(
                backend, path, nodes=backend.node_ids(), name=name or self.name
            )

    def export_snapshot(self, directory: PathLike, name: Optional[str] = None) -> Path:
        """Compile the merged store into a ``repro-csr-snapshot`` directory.

        Requires a *complete* store: every neighbor of every record must
        itself have been fetched by some crawl, since CSR rows exist for
        every referenced node.  A store with unfetched boundary neighbors
        raises :class:`~repro.exceptions.WarehouseError` (export a dump
        instead — dumps carry partial crawls losslessly).
        """
        import numpy as np

        from ..api.backend import CSRBackend
        from ..storage.snapshot import save_snapshot

        dangling = self._conn.execute(
            "SELECT COUNT(*) FROM (SELECT DISTINCT dst FROM edges "
            "WHERE dst NOT IN (SELECT node FROM nodes))"
        ).fetchone()[0]
        if dangling:
            raise WarehouseError(
                f"cannot export {self.path} as a snapshot: {dangling} boundary "
                f"neighbor(s) were never fetched by any ingested crawl, and a "
                f"CSR snapshot needs a row for every node; export_dump "
                f"preserves partial crawls losslessly"
            )
        keys: List[str] = []
        degrees: List[int] = []
        attributes: Dict[NodeId, Dict[str, Any]] = {}
        for key, degree, attributes_json in self._conn.execute(
            "SELECT node, degree, attributes FROM nodes ORDER BY seq"
        ):
            keys.append(key)
            degrees.append(int(degree))
            if attributes_json:
                attributes[decode_node_key(key)] = json.loads(attributes_json)
        index = {key: i for i, key in enumerate(keys)}
        indptr = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(np.asarray(degrees, dtype=np.int64), out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        cursor = 0
        for src, dst in self._conn.execute(
            "SELECT e.src, e.dst FROM edges e JOIN nodes n ON n.node = e.src "
            "ORDER BY n.seq, e.pos"
        ):
            indices[cursor] = index[dst]
            cursor += 1
        node_ids = [decode_node_key(key) for key in keys]
        csr = CSRBackend(
            indptr,
            indices,
            node_ids=node_ids,
            attributes=attributes,
            name=name or self.name,
        )
        return save_snapshot(csr, directory, name=name or self.name)
