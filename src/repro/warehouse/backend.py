"""Serve walks straight out of a crawl warehouse.

:class:`WarehouseBackend` is the read side of :mod:`repro.warehouse`: a
:class:`~repro.api.backend.GraphBackend` whose fetches are one indexed
SQLite lookup each (the ``nodes`` row carries the JSON neighbor array in
stored order), batched into a single ``IN`` query per ``fetch_many``
round.  Because the store is WAL-mode, any number of these
backends — across threads *and* processes — read a consistent snapshot
while a :class:`~repro.warehouse.store.CrawlWarehouse` writer ingests new
crawls concurrently, which is what lets a warehouse sit behind
:mod:`repro.server` (thread-per-connection) and the experiment runner's
``jobs=`` process fan-out unchanged.

Each thread gets its own connection (SQLite connections are not thread
safe), opened with ``query_only=ON`` so a reader can never mutate the
store; pickling reduces to the store path, so process pools re-open their
own connections on the far side.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..api.backend import GraphBackend, RawRecord
from ..exceptions import NodeNotFoundError, WarehouseError
from ..types import NodeId
from .store import (
    WAREHOUSE_FORMAT,
    WAREHOUSE_VERSION,
    decode_node_key,
    is_warehouse_file,
    try_encode_node_key,
)

PathLike = Union[str, Path]


class WarehouseBackend(GraphBackend):
    """Read-only graph backend over a ``repro-warehouse`` SQLite store.

    Conformance-identical to the backend the crawls were ingested from: the
    same ``RawRecord``s (neighbor order included), the same golden walk
    fingerprints, the same ``QueryStats`` accounting through the middleware
    stack.  Boundary neighbors (ingested ``meta`` rows) answer
    :meth:`metadata` peeks exactly like a replayed dump.
    """

    #: Default decoded-record cache capacity (records, not bytes).
    DEFAULT_RECORD_CACHE = 65_536

    def __init__(
        self, path: PathLike, record_cache: int = DEFAULT_RECORD_CACHE
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise WarehouseError(f"no crawl warehouse at {self.path}")
        if not is_warehouse_file(self.path):
            raise WarehouseError(f"{self.path} is not an SQLite database file")
        # Decoded-row cache, ``key -> (neighbors, attributes)``, shared by
        # every thread.  Sound because the store is append-only: a ``nodes``
        # row never changes once written (ingest only inserts new rows and
        # promotes ``metadata`` rows), so a decoded row stays correct for the
        # lifetime of the file.
        # Misses are never cached (the node may arrive with a later crawl)
        # and neither are ``metadata`` answers (promotion moves them).
        self._record_cache: Dict[str, Tuple[tuple, Dict[str, Any]]] = {}
        self._record_cache_cap = max(0, int(record_cache))
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._closed = False
        # Validate format/version once, eagerly, on the opening thread.
        conn = self._conn()
        try:
            rows = dict(conn.execute("SELECT key, value FROM warehouse"))
        except sqlite3.DatabaseError as exc:
            self.close()
            raise WarehouseError(
                f"{self.path} is not a {WAREHOUSE_FORMAT} store: {exc}"
            ) from exc
        if rows.get("format") != WAREHOUSE_FORMAT:
            self.close()
            raise WarehouseError(
                f"{self.path} is not a {WAREHOUSE_FORMAT} store "
                f"(format={rows.get('format')!r})"
            )
        if rows.get("version") != str(WAREHOUSE_VERSION):
            self.close()
            raise WarehouseError(
                f"warehouse {self.path} has schema version "
                f"{rows.get('version')!r}; this build reads version "
                f"{WAREHOUSE_VERSION}"
            )
        self.name = f"warehouse:{rows.get('name', self.path.stem)}"

    @classmethod
    def open(cls, path: PathLike) -> "WarehouseBackend":
        """Open a warehouse written by :class:`~repro.warehouse.CrawlWarehouse`."""
        return cls(path)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _conn(self) -> sqlite3.Connection:
        """The calling thread's read-only connection (opened on first use)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._closed:
                raise WarehouseError(f"warehouse backend {self.path} is closed")
            conn = sqlite3.connect(str(self.path))
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute("PRAGMA query_only=ON")
            self._local.conn = conn
            with self._connections_lock:
                self._connections.append(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connection (safe to call from any thread).

        Connections owned by other threads are closed here too: sqlite3
        forbids *using* a connection across threads, but closing is the
        documented exception once no other thread is mid-query — which is
        the case by the time a backend is shut down.
        """
        self._closed = True
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except sqlite3.ProgrammingError:  # pragma: no cover - foreign thread
                pass
        self._local = threading.local()

    def __reduce__(self):
        # Pickle as the store path: each process-pool worker re-opens its
        # own read connections, which is exactly the WAL many-readers model.
        return (type(self), (str(self.path),))

    # ------------------------------------------------------------------
    # GraphBackend interface
    # ------------------------------------------------------------------
    def _cache_row(self, key: str, row: tuple) -> Tuple[tuple, Dict[str, Any]]:
        """Decode a ``(neighbors, attributes)`` JSON row and cache the result."""
        entry = (tuple(json.loads(row[0])), json.loads(row[1]) if row[1] else {})
        cache = self._record_cache
        if self._record_cache_cap:
            if len(cache) >= self._record_cache_cap:
                # FIFO eviction: cheap, lock-free under the GIL, and good
                # enough for a cache whose entries never go stale.
                cache.pop(next(iter(cache)), None)
            cache[key] = entry
        return entry

    @staticmethod
    def _record(node: NodeId, entry: Tuple[tuple, Dict[str, Any]]) -> RawRecord:
        # The caller gets its own attribute dict, never the cached one.
        return RawRecord(node, entry[0], dict(entry[1]))

    def fetch(self, node: NodeId) -> RawRecord:
        key = try_encode_node_key(node)
        if key is None:
            # An id the canonical key encoding cannot represent cannot be in
            # the store: an ordinary miss, exactly like CSR's identity path.
            raise NodeNotFoundError(node)
        entry = self._record_cache.get(key)
        if entry is None:
            row = self._conn().execute(
                "SELECT neighbors, attributes FROM nodes WHERE node=?", (key,)
            ).fetchone()
            if row is None:
                raise NodeNotFoundError(node)
            entry = self._cache_row(key, row)
        return self._record(node, entry)

    #: fetch_many chunk size, comfortably under SQLite's bound-variable cap.
    _BATCH = 500

    def fetch_many(self, nodes: Sequence[NodeId]) -> List[RawRecord]:
        """Batched fetch: one ``IN`` query per chunk of uncached keys.

        The scheduler's lockstep rounds arrive here as one call per step, so
        folding them into a single SQL round (instead of a query per walker)
        is what keeps warehouse-served ensembles near in-RAM speed.  Order
        and duplicates are preserved exactly, and any missing node raises
        the same typed error :meth:`fetch` would.
        """
        cache = self._record_cache
        keys: List[str] = []
        missing: List[NodeId] = []
        missing_keys: List[str] = []
        for node in nodes:
            key = try_encode_node_key(node)
            if key is None:
                raise NodeNotFoundError(node)
            keys.append(key)
            if key not in cache:
                missing.append(node)
                missing_keys.append(key)
        if not keys:
            return []
        fetched: Dict[str, Tuple[tuple, Dict[str, Any]]] = {}
        if missing_keys:
            conn = self._conn()
            rows: Dict[str, tuple] = {}
            distinct = list(dict.fromkeys(missing_keys))
            for start in range(0, len(distinct), self._BATCH):
                chunk = distinct[start:start + self._BATCH]
                marks = ",".join("?" * len(chunk))
                rows.update(
                    (key, (neighbors, attributes))
                    for key, neighbors, attributes in conn.execute(
                        f"SELECT node, neighbors, attributes FROM nodes "
                        f"WHERE node IN ({marks})",
                        chunk,
                    )
                )
            for node, key in zip(missing, missing_keys):
                row = rows.get(key)
                if row is None:
                    raise NodeNotFoundError(node)
                if key not in fetched:
                    fetched[key] = self._cache_row(key, row)
        records: List[RawRecord] = []
        for node, key in zip(nodes, keys):
            entry = fetched.get(key) or cache.get(key)
            if entry is None:  # evicted between the scan and here
                records.append(self.fetch(node))
            else:
                records.append(self._record(node, entry))
        return records

    def contains(self, node: NodeId) -> bool:
        key = try_encode_node_key(node)
        if key is None:
            return False
        return (
            self._conn().execute(
                "SELECT 1 FROM nodes WHERE node=?", (key,)
            ).fetchone()
            is not None
        )

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        key = try_encode_node_key(node)
        if key is None:
            return None
        conn = self._conn()
        row = conn.execute(
            "SELECT degree, attributes FROM nodes WHERE node=?", (key,)
        ).fetchone()
        if row is not None:
            return {
                "degree": int(row[0]),
                "attributes": json.loads(row[1]) if row[1] else {},
            }
        row = conn.execute(
            "SELECT degree, attributes FROM metadata WHERE node=?", (key,)
        ).fetchone()
        if row is not None:
            return {
                "degree": int(row[0]) if row[0] is not None else None,
                "attributes": json.loads(row[1]) if row[1] else {},
            }
        return None

    def node_ids(self) -> List[NodeId]:
        return [
            decode_node_key(key)
            for (key,) in self._conn().execute("SELECT node FROM nodes ORDER BY seq")
        ]

    def sample_node(self, rng) -> NodeId:
        """Draw one uniformly random node without materialising the id table.

        ``seq`` values are assigned densely (0..n-1, append-only store), so
        drawing an index and resolving it by the unique ``seq`` index
        consumes the rng exactly like the default ``node_ids()`` lookup
        would — seeded start picks are unchanged — at O(1) cost.
        """
        n = len(self)
        if n == 0:
            raise NodeNotFoundError(None)
        index = int(rng.integers(0, n))
        row = self._conn().execute(
            "SELECT node FROM nodes WHERE seq=?", (index,)
        ).fetchone()
        return decode_node_key(row[0])

    def __len__(self) -> int:
        return int(self._conn().execute("SELECT COUNT(*) FROM nodes").fetchone()[0])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"WarehouseBackend(name={self.name!r}, nodes={len(self)}, "
            f"path={str(self.path)!r})"
        )
