"""In-memory undirected graph with node attributes.

This is the substrate every other subsystem builds on.  It is intentionally a
plain adjacency-list implementation (dict of sets) rather than a wrapper over
``networkx`` so the library has no hard dependency on it; converters to and
from ``networkx`` are provided for interoperability and for validating the
generators in the test suite.

The graph is *simple* and *undirected*: no self-loops, no parallel edges,
``v in neighbors(u)`` iff ``u in neighbors(v)``.  This matches the access
model of the paper (Section 2.1), which casts directed social networks into
undirected ones before walking.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..exceptions import (
    AttributeNotFoundError,
    EdgeNotFoundError,
    EmptyGraphError,
    NodeNotFoundError,
    format_node_id,
)
from ..types import Edge, NodeId


class Graph:
    """A simple undirected graph with per-node attribute dictionaries.

    Example:
        >>> g = Graph()
        >>> g.add_edge(1, 2)
        >>> g.add_edge(2, 3)
        >>> sorted(g.neighbors(2))
        [1, 3]
        >>> g.degree(2)
        2
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}
        self._attributes: Dict[NodeId, Dict[str, Any]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, **attributes: Any) -> None:
        """Add ``node`` (idempotent) and merge ``attributes`` into its record."""
        if node not in self._adjacency:
            self._adjacency[node] = set()
            self._attributes[node] = {}
        if attributes:
            self._attributes[node].update(attributes)

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the undirected edge ``{u, v}``.

        Self-loops are rejected because the paper's access model and the
        stationary-distribution analysis assume a simple graph.
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {format_node_id(u)})")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adjacency[u]:
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
            self._edge_count += 1

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the undirected edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._edge_count -= 1

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every edge incident to it."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adjacency[node]):
            self.remove_edge(node, neighbor)
        del self._adjacency[node]
        del self._attributes[node]

    def set_attributes(self, node: NodeId, /, **attributes: Any) -> None:
        """Merge ``attributes`` into the record of an existing node.

        ``node`` is positional-only, so an attribute may itself be named
        ``node``.
        """
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        self._attributes[node].update(attributes)

    def set_attribute_for_all(self, name: str, values: Mapping[NodeId, Any]) -> None:
        """Set one attribute for many nodes at once."""
        for node, value in values.items():
            self.set_attributes(node, **{name: value})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def number_of_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def number_of_edges(self) -> int:
        return self._edge_count

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adjacency)

    def nodes(self) -> List[NodeId]:
        """Return a list of all node ids."""
        return list(self._adjacency)

    def edges(self) -> Iterator[Edge]:
        """Yield each undirected edge exactly once."""
        seen: Set[frozenset] = set()
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def has_node(self, node: NodeId) -> bool:
        return node in self._adjacency

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Return the neighbor list of ``node`` (a fresh list each call)."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        return list(self._adjacency[node])

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        return len(self._adjacency[node])

    def degrees(self) -> Dict[NodeId, int]:
        """Return a mapping node -> degree for all nodes."""
        return {node: len(nbrs) for node, nbrs in self._adjacency.items()}

    def attributes(self, node: NodeId) -> Dict[str, Any]:
        """Return a copy of the attribute dictionary of ``node``."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        return dict(self._attributes[node])

    def attribute(self, node: NodeId, name: str, default: Any = ...) -> Any:
        """Return one attribute of ``node``.

        Raises :class:`AttributeNotFoundError` if the attribute is missing and
        no ``default`` is supplied.
        """
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        attrs = self._attributes[node]
        if name in attrs:
            return attrs[name]
        if default is ...:
            raise AttributeNotFoundError(node, name)
        return default

    def attribute_names(self) -> Set[str]:
        """Return the union of attribute names across all nodes."""
        names: Set[str] = set()
        for attrs in self._attributes.values():
            names.update(attrs)
        return names

    # ------------------------------------------------------------------
    # Structure / analysis
    # ------------------------------------------------------------------
    def total_degree(self) -> int:
        """Return the sum of degrees (``2 * |E|``)."""
        return 2 * self._edge_count

    def average_degree(self) -> float:
        """Return the average degree, or 0.0 for an empty graph."""
        if not self._adjacency:
            return 0.0
        return self.total_degree() / len(self._adjacency)

    def isolated_nodes(self) -> List[NodeId]:
        """Return nodes with degree zero."""
        return [node for node, nbrs in self._adjacency.items() if not nbrs]

    def connected_components(self) -> List[Set[NodeId]]:
        """Return the connected components as a list of node sets."""
        remaining = set(self._adjacency)
        components: List[Set[NodeId]] = []
        while remaining:
            root = next(iter(remaining))
            component = self._bfs_component(root)
            components.append(component)
            remaining -= component
        return components

    def _bfs_component(self, root: NodeId) -> Set[NodeId]:
        visited = {root}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor in self._adjacency[node]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    queue.append(neighbor)
        return visited

    def is_connected(self) -> bool:
        """Return ``True`` if the graph is non-empty and connected."""
        if not self._adjacency:
            return False
        root = next(iter(self._adjacency))
        return len(self._bfs_component(root)) == len(self._adjacency)

    def largest_connected_component(self) -> "Graph":
        """Return a new graph restricted to the largest connected component."""
        if not self._adjacency:
            raise EmptyGraphError("graph has no nodes")
        components = self.connected_components()
        largest = max(components, key=len)
        return self.subgraph(largest)

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Return the induced subgraph on ``nodes`` (attributes copied)."""
        keep = set(nodes)
        missing = [node for node in keep if node not in self._adjacency]
        if missing:
            raise NodeNotFoundError(missing[0])
        sub = Graph(name=f"{self.name}-subgraph")
        for node in keep:
            sub.add_node(node, **self._attributes[node])
        for node in keep:
            for neighbor in self._adjacency[node]:
                if neighbor in keep and not sub.has_edge(node, neighbor):
                    sub.add_edge(node, neighbor)
        return sub

    def copy(self) -> "Graph":
        """Return a deep copy of the graph (attribute dicts are copied)."""
        clone = Graph(name=self.name)
        for node in self._adjacency:
            clone.add_node(node, **self._attributes[node])
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def shortest_path_length(self, source: NodeId, target: NodeId) -> int:
        """Return the unweighted shortest-path length between two nodes.

        Raises :class:`NodeNotFoundError` for missing nodes and ``ValueError``
        when no path exists.
        """
        if source not in self._adjacency:
            raise NodeNotFoundError(source)
        if target not in self._adjacency:
            raise NodeNotFoundError(target)
        if source == target:
            return 0
        visited = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in self._adjacency[node]:
                if neighbor not in visited:
                    visited[neighbor] = visited[node] + 1
                    if neighbor == target:
                        return visited[neighbor]
                    queue.append(neighbor)
        raise ValueError(f"no path between {source!r} and {target!r}")

    def triangles(self, node: NodeId) -> int:
        """Return the number of triangles through ``node``."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        nbrs = self._adjacency[node]
        count = 0
        for v in nbrs:
            count += len(nbrs & self._adjacency[v])
        return count // 2

    def triangle_count(self) -> int:
        """Return the total number of triangles in the graph."""
        return sum(self.triangles(node) for node in self._adjacency) // 3

    def local_clustering(self, node: NodeId) -> float:
        """Return the local clustering coefficient of ``node``."""
        k = self.degree(node)
        if k < 2:
            return 0.0
        return 2.0 * self.triangles(node) / (k * (k - 1))

    def average_clustering(self) -> float:
        """Return the average local clustering coefficient."""
        if not self._adjacency:
            return 0.0
        total = sum(self.local_clustering(node) for node in self._adjacency)
        return total / len(self._adjacency)

    def is_bipartite(self) -> bool:
        """Return ``True`` when the graph is 2-colourable.

        A connected non-bipartite graph is the standard sufficient condition
        for the simple random walk to have a unique stationary distribution.
        """
        color: Dict[NodeId, int] = {}
        for start in self._adjacency:
            if start in color:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                node = queue.popleft()
                for neighbor in self._adjacency[node]:
                    if neighbor not in color:
                        color[neighbor] = 1 - color[node]
                        queue.append(neighbor)
                    elif color[neighbor] == color[node]:
                        return False
        return True

    def stationary_distribution(self) -> Dict[NodeId, float]:
        """Return the SRW stationary distribution ``pi(v) = deg(v) / 2|E|``."""
        total = self.total_degree()
        if total == 0:
            raise EmptyGraphError("graph has no edges")
        return {node: len(nbrs) / total for node, nbrs in self._adjacency.items()}

    # ------------------------------------------------------------------
    # Interoperability
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (requires ``networkx``)."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        for node in self._adjacency:
            g.add_node(node, **self._attributes[node])
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, nx_graph, name: Optional[str] = None) -> "Graph":
        """Build a :class:`Graph` from a ``networkx`` graph.

        Directed graphs are converted with the mutual-edge rule used in the
        paper only if the caller pre-processes them; here every edge of the
        input is added as an undirected edge.
        """
        graph = cls(name=name or getattr(nx_graph, "name", None) or "graph")
        for node, data in nx_graph.nodes(data=True):
            graph.add_node(node, **dict(data))
        for u, v in nx_graph.edges():
            if u != v:
                graph.add_edge(u, v)
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        name: str = "graph",
        attributes: Optional[Mapping[NodeId, Mapping[str, Any]]] = None,
    ) -> "Graph":
        """Build a graph from an iterable of edges and optional attributes."""
        graph = cls(name=name)
        graph.add_edges(edges)
        if attributes:
            for node, attrs in attributes.items():
                graph.add_node(node, **dict(attrs))
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Graph(name={self.name!r}, nodes={self.number_of_nodes}, "
            f"edges={self.number_of_edges})"
        )
