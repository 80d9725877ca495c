"""Storage backends behind the restrictive access interface.

The paper's access model (Section 2.1) fixes *what* a sampler may ask — the
neighborhood of one node — but says nothing about *how* the answer is served.
This module separates the two concerns: a :class:`GraphBackend` is a raw
record store with exactly two operations, :meth:`~GraphBackend.fetch` and
:meth:`~GraphBackend.fetch_many`, while every policy (caching, budgets, rate
limits, shuffling, tracing) lives in the middleware stack of
:mod:`repro.api.middleware`.  A fetch answers with a :data:`RawRecord`, the
same immutable class as the :class:`~repro.api.interface.NodeView` a query
returns, so the record a backend builds travels up to the walker as it is.

Two backends ship with the library:

* :class:`InMemoryBackend` — adapts the dict-of-sets
  :class:`~repro.graphs.graph.Graph`, the substrate of every paper experiment;
* :class:`CSRBackend` — a compact array-based store (compressed sparse rows
  over contiguous integer indices) whose hot path avoids per-node set/list
  materialisation, for large synthetic graphs and batched crawls.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..exceptions import NodeNotFoundError
from ..graphs.graph import Graph
from ..types import Edge, NodeId, NodeRecord


#: The answer of one backend fetch.  It is the same class as
#: :class:`~repro.api.interface.NodeView`: the middleware hands a backend's
#: records up to the walker unchanged, so a billed fetch builds one record.
RawRecord = NodeRecord


class GraphBackend:
    """Protocol for raw neighborhood storage.

    Implementations answer per-node fetches and (optionally optimised) batch
    fetches.  They do **no** accounting: budgets, caches and rate limits are
    middleware concerns layered on top by :func:`repro.api.builder.build_api`.
    """

    #: Human-readable backend name used by reprs and benchmarks.
    name = "backend"

    def fetch(self, node: NodeId) -> RawRecord:
        """Return the :class:`RawRecord` of ``node`` or raise
        :class:`~repro.exceptions.NodeNotFoundError`.

        The record's ``attributes`` dict must be one the backend does not
        keep: callers own it and may mutate it.
        """
        raise NotImplementedError

    def fetch_many(self, nodes: Sequence[NodeId]) -> List[RawRecord]:
        """Return one record per node, in order (missing nodes raise)."""
        return [self.fetch(node) for node in nodes]

    def contains(self, node: NodeId) -> bool:
        """Return whether ``node`` exists in the store."""
        raise NotImplementedError

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        """Return the free profile summary of ``node`` (or ``None``).

        Mirrors the inline neighbor metadata of real OSN responses: degree and
        attributes, but never the neighbor list, and never billed.
        """
        return None

    def node_ids(self) -> List[NodeId]:
        """Return every node id (used for uniform start-node selection)."""
        raise NotImplementedError

    def sample_node(self, rng) -> NodeId:
        """Draw one uniformly random node id.

        The default materialises :meth:`node_ids`; stores that can index
        nodes directly (e.g. identity-id CSR) override it so start-node
        selection stays O(1) even for graphs larger than RAM.
        """
        nodes = self.node_ids()
        return nodes[int(rng.integers(0, len(nodes)))]

    def close(self) -> None:
        """Release any resources the backend holds.

        Purely local backends hold none, so the default is a no-op; backends
        with real resources (keep-alive sockets, shard clients) override
        it.  Every backend is therefore a context manager, so
        ``with as_backend(source) as backend: ...`` closes connections
        deterministically no matter what kind of backend the source resolved
        to.
        """

    def __enter__(self) -> "GraphBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.node_ids())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


class InMemoryBackend(GraphBackend):
    """Serve fetches from an in-memory :class:`~repro.graphs.graph.Graph`."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self.name = f"memory:{graph.name}"

    @property
    def graph(self) -> Graph:
        """The underlying graph (ground truth / tests only)."""
        return self._graph

    def fetch(self, node: NodeId) -> RawRecord:
        graph = self._graph
        if not graph.has_node(node):
            raise NodeNotFoundError(node)
        # Graph.attributes returns a copy, so the record owns its dict.
        return RawRecord(node, tuple(graph.neighbors(node)), graph.attributes(node))

    def contains(self, node: NodeId) -> bool:
        return self._graph.has_node(node)

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        if not self._graph.has_node(node):
            return None
        return {
            "degree": self._graph.degree(node),
            "attributes": self._graph.attributes(node),
        }

    def node_ids(self) -> List[NodeId]:
        return self._graph.nodes()

    def __len__(self) -> int:
        return self._graph.number_of_nodes


class CSRBackend(GraphBackend):
    """Compressed-sparse-row adjacency over contiguous integer indices.

    The adjacency of node ``i`` (by internal index) is
    ``indices[indptr[i]:indptr[i + 1]]``.  Arbitrary hashable node ids are
    supported through an id table; when the ids are exactly ``0 .. n-1`` the
    reverse mapping is skipped entirely, which is the fast path for the
    synthetic graphs used in the scale benchmarks.

    Build one with :meth:`from_graph` or :meth:`from_edges`.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        node_ids: Optional[Sequence[NodeId]] = None,
        attributes: Optional[Mapping[NodeId, Dict[str, Any]]] = None,
        name: str = "csr",
    ) -> None:
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        if self._indptr.ndim != 1 or self._indptr.size == 0:
            raise ValueError("indptr must be a non-empty 1-d array")
        if int(self._indptr[-1]) != self._indices.size:
            raise ValueError("indptr[-1] must equal len(indices)")
        n = self._indptr.size - 1
        if node_ids is None:
            # Identity ids 0..n-1: keep them implicit (materialised on demand
            # by node_ids()) so constructing a backend over huge — possibly
            # memory-mapped — arrays stays O(1) in the node count.
            self._ids: Optional[List[NodeId]] = None
            self._identity = True
            self._index: Dict[NodeId, int] = {}
        else:
            if len(node_ids) != n:
                raise ValueError("node_ids length must match indptr")
            self._ids = list(node_ids)
            self._identity = self._ids == list(range(n))
            self._index = {} if self._identity else {nid: i for i, nid in enumerate(self._ids)}
        self._attributes = dict(attributes) if attributes else {}
        self.name = name
        self._simple_rows: Optional[bool] = None
        self._bind_rows()

    def _bind_rows(self) -> None:
        # The scalar read paths index these memoryviews instead of the numpy
        # arrays: a memoryview yields Python ints, a numpy array numpy
        # scalars, which cost more to build and to slice with.  They are not
        # picklable, so pickling drops them and unpickling binds them again.
        self._ptr = memoryview(self._indptr)
        self._col = memoryview(self._indices)
        self._n = len(self._ptr) - 1

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_ptr"], state["_col"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._bind_rows()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph, name: Optional[str] = None) -> "CSRBackend":
        """Compile a :class:`Graph` into CSR form (attributes carried over)."""
        ids = graph.nodes()
        index = {nid: i for i, nid in enumerate(ids)}
        degrees = np.fromiter(
            (graph.degree(nid) for nid in ids), dtype=np.int64, count=len(ids)
        )
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        cursor = indptr[:-1].copy()
        for i, nid in enumerate(ids):
            for neighbor in graph.neighbors(nid):
                indices[cursor[i]] = index[neighbor]
                cursor[i] += 1
        attributes = {nid: graph.attributes(nid) for nid in ids if graph.attributes(nid)}
        return cls(
            indptr,
            indices,
            node_ids=ids,
            attributes=attributes,
            name=name or f"csr:{graph.name}",
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        num_nodes: Optional[int] = None,
        name: str = "csr",
    ) -> "CSRBackend":
        """Build from undirected integer edges ``(u, v)`` with ids ``0..n-1``.

        Each input edge is stored in both directions; duplicate edges are
        dropped.  This path is fully vectorised and is how the benchmarks
        materialise 100k+-node graphs in well under a second.
        """
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_array.size == 0:
            raise ValueError("edge list must be non-empty")
        edge_array = edge_array.reshape(-1, 2).astype(np.int64)
        # Drop self-loops, canonicalise, dedupe, then mirror.
        mask = edge_array[:, 0] != edge_array[:, 1]
        edge_array = edge_array[mask]
        if edge_array.size == 0:
            raise ValueError("edge list must contain at least one non-self-loop edge")
        lo = np.minimum(edge_array[:, 0], edge_array[:, 1])
        hi = np.maximum(edge_array[:, 0], edge_array[:, 1])
        unique = np.unique(np.stack([lo, hi], axis=1), axis=0)
        sources = np.concatenate([unique[:, 0], unique[:, 1]])
        targets = np.concatenate([unique[:, 1], unique[:, 0]])
        min_id = int(unique.min())
        max_id = int(unique.max())
        if min_id < 0:
            raise ValueError(f"edge node ids must be non-negative (found {min_id})")
        n = int(num_nodes) if num_nodes is not None else max_id + 1
        if max_id >= n:
            raise ValueError(
                f"edge references node {max_id} but num_nodes is {n}; "
                "node ids must lie in 0..num_nodes-1"
            )
        order = np.argsort(sources, kind="stable")
        sources = sources[order]
        targets = targets[order]
        counts = np.bincount(sources, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, targets, name=name)

    # ------------------------------------------------------------------
    # GraphBackend interface
    # ------------------------------------------------------------------
    def _position(self, node: NodeId) -> Optional[int]:
        """The CSR index of ``node``, or ``None`` when the store lacks it."""
        if self._identity:
            if isinstance(node, (int, np.integer)) and 0 <= node < self._n:
                return int(node)
            return None
        return self._index.get(node)

    def _index_of(self, node: NodeId) -> int:
        i = self._position(node)
        if i is None:
            raise NodeNotFoundError(node)
        return i

    def fetch(self, node: NodeId) -> RawRecord:
        i = self._position(node)
        if i is None:
            raise NodeNotFoundError(node)
        ptr = self._ptr
        row = self._col[ptr[i]:ptr[i + 1]].tolist()
        if not self._identity:
            ids = self._ids
            row = [ids[j] for j in row]
        attributes = self._attributes.get(node)
        return RawRecord(node, tuple(row), dict(attributes) if attributes else {})

    def fetch_many(self, nodes: Sequence[NodeId]) -> List[RawRecord]:
        if not (self._identity and not self._attributes):
            return [self.fetch(node) for node in nodes]
        # Hot path: one type/bounds check + one slice per node, no dict
        # work.  The type check mirrors _position so a float or string id
        # raises NodeNotFoundError exactly like fetch() would.
        ptr = self._ptr
        col = self._col
        n = self._n
        records: List[RawRecord] = []
        for node in nodes:
            if not (isinstance(node, (int, np.integer)) and 0 <= node < n):
                raise NodeNotFoundError(node)
            i = int(node)
            records.append(RawRecord(node, tuple(col[ptr[i]:ptr[i + 1]].tolist()), {}))
        return records

    def contains(self, node: NodeId) -> bool:
        return self._position(node) is not None

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        i = self._position(node)
        if i is None:
            return None
        ptr = self._ptr
        attributes = self._attributes.get(node)
        return {
            "degree": ptr[i + 1] - ptr[i],
            "attributes": dict(attributes) if attributes else {},
        }

    def node_ids(self) -> List[NodeId]:
        if self._ids is None:
            return list(range(self._indptr.size - 1))
        return list(self._ids)

    def sample_node(self, rng) -> NodeId:
        if self._ids is None:
            # Identity ids: node_ids() is range(n), so index i IS the id —
            # draw it directly instead of materialising an n-element list.
            return int(rng.integers(0, self._n))
        return self._ids[int(rng.integers(0, len(self._ids)))]

    @property
    def identity_ids(self) -> bool:
        """Whether the node ids are exactly ``0..n-1`` (stored implicitly)."""
        return self._identity

    def to_indices(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Map node ids to internal CSR indices as one int64 array.

        The array-native walk engine positions walkers by CSR index; this is
        the bulk twin of ``_index_of`` (missing ids raise
        :class:`~repro.exceptions.NodeNotFoundError` identically).
        """
        if self._identity:
            n = self._indptr.size - 1
            for node in nodes:
                if not (isinstance(node, (int, np.integer)) and 0 <= node < n):
                    raise NodeNotFoundError(node)
            return np.asarray(nodes, dtype=np.int64).reshape(-1)
        return np.fromiter(
            (self._index_of(node) for node in nodes), dtype=np.int64, count=len(nodes)
        )

    def to_node_ids(self, indices: np.ndarray) -> List[NodeId]:
        """Map internal CSR indices back to node ids (inverse of to_indices)."""
        if self._ids is None:
            return [int(i) for i in np.asarray(indices).reshape(-1)]
        ids = self._ids
        return [ids[int(i)] for i in np.asarray(indices).reshape(-1)]

    def __len__(self) -> int:
        return self._indptr.size - 1

    @property
    def indptr(self) -> np.ndarray:
        """The CSR row-pointer array (read-only view; used by snapshots)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """The CSR column-index array (read-only view; used by snapshots)."""
        return self._indices

    @property
    def node_attributes(self) -> Mapping[NodeId, Dict[str, Any]]:
        """Per-node attribute mapping (nodes without attributes omitted)."""
        return self._attributes

    @property
    def number_of_edges(self) -> int:
        return int(self._indices.size) // 2

    @property
    def simple_rows(self) -> bool:
        """Whether no row lists the same neighbor twice (checked once, then cached).

        Every builder here produces simple rows (:meth:`from_edges` dedupes,
        :meth:`from_graph` reads a set-based adjacency); only a hand-built
        ``indptr`` / ``indices`` pair can repeat a neighbor.  The CNRW vector
        kernel keys its circulation marks by row slot, which equals keying
        by neighbor only on simple rows.
        """
        if self._simple_rows is None:
            self._simple_rows = not _has_repeated_neighbor(self._indptr, self._indices)
        return self._simple_rows

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CSRBackend(name={self.name!r}, nodes={len(self)}, "
            f"edges={self.number_of_edges})"
        )


def _has_repeated_neighbor(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether some CSR row lists one neighbor in two slots."""
    if indices.size < 2:
        return False
    n = indptr.size - 1
    # One int64 key per (row, neighbor) pair (exact while n**2 < 2**63).
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
    keys.sort(kind="stable")
    return bool((keys[1:] == keys[:-1]).any())


def as_backend(source) -> GraphBackend:
    """Coerce ``source`` into a :class:`GraphBackend`.

    Accepts an existing backend (returned unchanged), a
    :class:`~repro.graphs.graph.Graph` (wrapped in :class:`InMemoryBackend`),
    an ``http://`` / ``https://`` URL (driven remotely through
    :class:`~repro.api.remote.HTTPGraphBackend`), a ``cluster://`` URL list
    or ``cluster.json`` manifest (a consistent-hashed shard tier driven
    through :class:`~repro.cluster.ShardedBackend`), or an on-disk source
    given as a ``str`` / :class:`~pathlib.Path`: a CSR snapshot directory
    (served memory-mapped through :class:`~repro.storage.MmapCSRBackend`), a
    shard directory written by :func:`~repro.cluster.partition_snapshot`, a
    crawl-dump file (replayed through :class:`~repro.storage.ReplayBackend`),
    or a crawl-warehouse ``.sqlite`` store (served through
    :class:`~repro.warehouse.WarehouseBackend`).
    Any other input raises :class:`TypeError` listing the accepted types.
    """
    if isinstance(source, GraphBackend):
        return source
    if isinstance(source, Graph):
        return InMemoryBackend(source)
    if isinstance(source, str) and source.startswith(("http://", "https://")):
        from .remote import HTTPGraphBackend

        return HTTPGraphBackend(source)
    if isinstance(source, str) and source.startswith("cluster://"):
        from ..cluster import open_cluster

        return open_cluster(source)
    if isinstance(source, (str, Path)):
        from ..storage import open_backend

        return open_backend(source)
    raise TypeError(
        f"cannot build a GraphBackend from {type(source).__name__}; accepted "
        "types: Graph, GraphBackend, an http(s):// service URL, a cluster:// "
        "shard list, or a str / pathlib.Path pointing at a CSR snapshot "
        "directory, a shard directory, a cluster.json manifest, a crawl-dump "
        "file, or a crawl-warehouse .sqlite store"
    )
