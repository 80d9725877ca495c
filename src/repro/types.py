"""Shared type aliases and tiny value objects used across the library."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

#: A node identifier.  Anything hashable works; the loaders produce ``int``.
NodeId = Hashable

#: An undirected edge as an (ordered) pair of node ids.
Edge = Tuple[NodeId, NodeId]

#: Node attribute mapping, e.g. ``{"age": 31, "city": "Austin"}``.
AttributeMap = Mapping[str, Any]

#: A measure function ``f(node, attributes) -> float`` used by estimators.
MeasureFunction = Callable[[NodeId, AttributeMap], float]

#: A node-level predicate used by conditional aggregates.
NodePredicate = Callable[[NodeId, AttributeMap], bool]

#: Numeric scalar accepted by metrics helpers.
Number = Union[int, float]


@dataclass(frozen=True)
class Transition:
    """One step of a random walk.

    Attributes:
        source: Node the walk was at before the step.
        target: Node the walk moved to.
        step_index: Zero-based index of the step within the walk.
    """

    source: NodeId
    target: NodeId
    step_index: int


@dataclass(frozen=True)
class Sample:
    """A sampled node together with the information needed to reweight it.

    Attributes:
        node: The sampled node id.
        degree: Degree of the node as observed through the API.
        attributes: Attribute mapping of the node at sampling time.
        step_index: Walk step at which the node was emitted as a sample.
        query_cost: Cumulative number of unique queries spent when the sample
            was emitted (useful for cost-accuracy curves).
    """

    node: NodeId
    degree: int
    attributes: Dict[str, Any] = field(default_factory=dict)
    step_index: int = 0
    query_cost: int = 0

    def value(self, attribute: str, default: float = 0.0) -> float:
        """Return a numeric attribute of the sample, or ``default``."""
        raw = self.attributes.get(attribute, default)
        try:
            return float(raw)
        except (TypeError, ValueError):
            return default


_tuple_new = tuple.__new__


class NodeRecord(namedtuple("NodeRecord", ("node", "neighbors", "attributes"))):
    """The answer to one neighborhood query: a node, its neighbors, its attributes.

    A backend's ``fetch`` builds it and every middleware layer passes it up
    unchanged, so a billed fetch builds one record.  It is exported as
    :data:`~repro.api.backend.RawRecord` (a backend's answer) and
    :data:`~repro.api.interface.NodeView` (a query's answer).

    Records compare by value, pickle, and refuse field assignment.  A tuple
    subclass costs about half a frozen dataclass to build, and hot sites
    build it positionally.  ``attributes`` defaults to a fresh empty dict,
    and belongs to whoever received the record: backends never hand out a
    dict they keep.
    """

    __slots__ = ()

    def __new__(
        cls,
        node: NodeId,
        neighbors: Tuple[NodeId, ...],
        attributes: Optional[Dict[str, Any]] = None,
    ) -> "NodeRecord":
        return _tuple_new(cls, (node, neighbors, {} if attributes is None else attributes))

    @property
    def degree(self) -> int:
        return len(self[1])


#: One collected sample as the walk drivers record it: the fields of
#: :class:`Sample` in order, ``(node, degree, attributes, step_index,
#: query_cost)``, with ``attributes`` the served view's mapping held by
#: reference rather than copied.
SampleRecord = Tuple[NodeId, int, Mapping[str, Any], int, int]


def as_edge_key(u: NodeId, v: NodeId) -> Edge:
    """Return the directed edge key ``(u, v)`` used by history bookkeeping.

    CNRW/GNRW history is keyed by the *directed* traversal ``u -> v`` even on
    undirected graphs, so no canonicalisation is performed here; the function
    exists to make call sites explicit about that intent.
    """
    return (u, v)


def canonical_edge(u: NodeId, v: NodeId) -> Edge:
    """Return an order-independent key for the undirected edge ``{u, v}``."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


def ensure_sequence(values: Union[Number, Sequence[Number]]) -> Sequence[Number]:
    """Wrap a scalar in a list; pass sequences through unchanged."""
    if isinstance(values, (int, float)):
        return [values]
    return values
