"""Loading graphs from edge-list files and casting directed data to undirected.

The paper uses public SNAP edge lists (Facebook ego networks, Youtube) and
crawled Google Plus / Yelp data.  This module provides the equivalent I/O
path: a tolerant SNAP-style edge-list parser, the directed-to-undirected
conversion rules described in Section 2.1 / 6.1, and largest-connected-
component extraction (the paper samples only the largest component of Yelp).
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..exceptions import LoaderError
from ..types import Edge, NodeId
from .graph import Graph

PathLike = Union[str, Path]


def open_text(path: PathLike, mode: str = "r") -> io.TextIOBase:
    """Open a text file for reading or writing, gzip-compressed by ``.gz`` suffix.

    ``mode`` is ``"r"`` or ``"w"``.  Shared by the edge-list I/O here and the
    crawl-dump I/O of :mod:`repro.storage.replay`, so the suffix-detection and
    encoding rules live in one place.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_edge_lines(
    lines: Iterable[str],
    comment_prefixes: Tuple[str, ...] = ("#", "%"),
    delimiter: Optional[str] = None,
) -> Iterator[Tuple[str, str]]:
    """Yield ``(u, v)`` string pairs from SNAP-style edge-list lines.

    Blank lines and lines starting with any of ``comment_prefixes`` are
    skipped.  Lines with fewer than two fields raise :class:`LoaderError`;
    extra fields (e.g. weights or timestamps) are ignored.
    """
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment_prefixes):
            continue
        fields = line.split(delimiter)
        if len(fields) < 2:
            raise LoaderError(
                f"line {line_number}: expected at least two fields, got {line!r}"
            )
        yield fields[0], fields[1]


def load_edge_list(
    path: PathLike,
    directed: bool = False,
    mutual_only: bool = False,
    node_type: type = int,
    name: Optional[str] = None,
    delimiter: Optional[str] = None,
) -> Graph:
    """Load an undirected :class:`Graph` from an edge-list file.

    Args:
        path: File path (``.gz`` compression is detected by suffix).
        directed: Whether the file encodes directed edges.
        mutual_only: When the input is directed, keep only mutual edges
            (``u -> v`` and ``v -> u`` both present).  When ``False``, every
            directed edge produces an undirected edge (the "either direction"
            casting rule of Section 2.1).
        node_type: Callable applied to each node token (default ``int``).
        name: Name for the resulting graph (defaults to the file stem).
        delimiter: Field delimiter (default: any whitespace).
    """
    path = Path(path)
    with open_text(path) as handle:
        pairs = list(parse_edge_lines(handle, delimiter=delimiter))
    try:
        edges = [(node_type(u), node_type(v)) for u, v in pairs]
    except (TypeError, ValueError) as exc:
        raise LoaderError(f"could not convert node ids with {node_type}: {exc}") from exc
    graph_name = name or path.stem
    if directed and mutual_only:
        return from_directed_edges(edges, mutual_only=True, name=graph_name)
    if directed:
        return from_directed_edges(edges, mutual_only=False, name=graph_name)
    return undirected_from_edges(edges, name=graph_name)


def undirected_from_edges(edges: Iterable[Edge], name: str = "graph") -> Graph:
    """Build an undirected graph, silently dropping self-loops and duplicates."""
    graph = Graph(name=name)
    for u, v in edges:
        if u == v:
            continue
        graph.add_edge(u, v)
    return graph


def from_directed_edges(
    edges: Iterable[Edge],
    mutual_only: bool = False,
    name: str = "graph",
) -> Graph:
    """Cast a directed edge set into an undirected :class:`Graph`.

    Two conversion rules are supported, both discussed in the paper:

    * ``mutual_only=False`` — keep an undirected edge ``{u, v}`` when either
      ``u -> v`` or ``v -> u`` exists (Section 2.1).
    * ``mutual_only=True`` — keep an undirected edge only when both directions
      exist in the input (the rule used for the experiment datasets in
      Section 6.1).
    """
    directed: Set[Tuple[NodeId, NodeId]] = set()
    nodes: Set[NodeId] = set()
    for u, v in edges:
        if u == v:
            continue
        directed.add((u, v))
        nodes.add(u)
        nodes.add(v)
    graph = Graph(name=name)
    graph.add_nodes(nodes)
    for u, v in directed:
        if graph.has_edge(u, v):
            continue
        if mutual_only:
            if (v, u) in directed:
                graph.add_edge(u, v)
        else:
            graph.add_edge(u, v)
    return graph


def save_edge_list(graph: Graph, path: PathLike, header: bool = True) -> None:
    """Write the graph as a whitespace-delimited edge list.

    A ``.gz`` suffix gzip-compresses the output, mirroring the suffix
    detection of :func:`load_edge_list`, so ``save_edge_list`` →
    ``load_edge_list`` round-trips through either form.
    """
    path = Path(path)
    with open_text(path, "w") as handle:
        if header:
            handle.write(f"# {graph.name}: {graph.number_of_nodes} nodes, "
                         f"{graph.number_of_edges} edges\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def largest_connected_component(graph: Graph) -> Graph:
    """Return the largest connected component of ``graph`` as a new graph."""
    return graph.largest_connected_component()


def relabel_consecutively(graph: Graph) -> Tuple[Graph, Dict[NodeId, int]]:
    """Relabel nodes to ``0..n-1`` (sorted by original repr for determinism).

    Returns the relabelled graph and the mapping ``original -> new id``.
    """
    ordering: List[NodeId] = sorted(graph.nodes(), key=repr)
    mapping: Dict[NodeId, int] = {node: index for index, node in enumerate(ordering)}
    relabelled = Graph(name=graph.name)
    for node in ordering:
        relabelled.add_node(mapping[node], **graph.attributes(node))
    for u, v in graph.edges():
        relabelled.add_edge(mapping[u], mapping[v])
    return relabelled, mapping


def load_attributes(
    path: PathLike,
    graph: Graph,
    attribute: str,
    node_type: type = int,
    value_type: type = float,
    delimiter: Optional[str] = None,
    strict: bool = False,
) -> int:
    """Load a per-node attribute table (``node value`` per line) into ``graph``.

    Returns the number of nodes whose attribute was set.  Unknown nodes are
    skipped unless ``strict`` is true, in which case they raise
    :class:`LoaderError`.
    """
    count = 0
    with open_text(path) as handle:
        for node_token, value_token in parse_edge_lines(handle, delimiter=delimiter):
            try:
                node = node_type(node_token)
                value = value_type(value_token)
            except (TypeError, ValueError) as exc:
                raise LoaderError(f"bad attribute line {node_token!r} {value_token!r}") from exc
            if graph.has_node(node):
                graph.set_attributes(node, **{attribute: value})
                count += 1
            elif strict:
                raise LoaderError(f"attribute refers to unknown node {node!r}")
    return count
