"""Group-by strategies for GNRW.

GNRW stratifies the neighbors of the current node into disjoint groups and
circulates among the groups (Section 4.1 of the paper).  The grouping function
``g(N(v))`` is a free design parameter; the paper evaluates three concrete
strategies on the Yelp graph (Figure 9):

* grouping by a hash of the node id (``GNRW_By_MD5``) — effectively random
  groups, which reduces GNRW to CNRW-like behaviour;
* grouping by degree (``GNRW_By_Degree``);
* grouping by the measure attribute of the target aggregate
  (``GNRW_By_ReviewsCount``).

Each strategy here maps a neighbor (as seen through the restricted API — the
walker passes the neighbor's *attributes only if it already queried them*, so
by default strategies must work with the node id and any locally known data).
To stay faithful to the access model, attribute- and degree-based strategies
look the values up through the API **of already-queried nodes only when
available** and otherwise fall back to a hash group; the ``prefetch`` option
lets users trade extra queries for exact grouping, and is what the paper's
setting corresponds to (profile attributes of listed neighbors are typically
returned inline by real OSN APIs).
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from ..api.interface import SocialNetworkAPI
from ..api.middleware import APILayer, BackendAPI
from ..exceptions import InvalidConfigurationError
from ..types import NodeId

GroupKey = Hashable


class GroupingStrategy:
    """Maps each neighbor of the current node to a group key."""

    #: Short name used by reports and the walker factory.
    name = "grouping"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        """Return the group key of ``node``."""
        raise NotImplementedError

    def partition(self, neighbors: Sequence[NodeId], api: SocialNetworkAPI) -> Dict[GroupKey, List[NodeId]]:
        """Partition ``neighbors`` into groups (order inside groups preserved)."""
        groups: Dict[GroupKey, List[NodeId]] = {}
        for node in neighbors:
            groups.setdefault(self.group_of(node, api), []).append(node)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


class HashGrouping(GroupingStrategy):
    """Group by MD5 hash of the node id modulo ``num_groups``.

    This is the paper's GNRW-By-MD5 baseline: group membership carries no
    information about the node, so GNRW degenerates to (approximately) CNRW.

    :meth:`group_of` is the definition.  :meth:`partition` gives the same
    result but looks the groups of non-negative ``int`` ids below
    :data:`MEMO_CAP` up in one table per ``num_groups`` shared by the whole
    process, so each such id is hashed once per process, not once per visit
    of each of its neighbors.  Every other id (``bool``, numpy integers,
    negative or larger ints, strings, tuples) and every id when
    ``num_groups`` exceeds 255 is hashed on each call.
    """

    def __init__(self, num_groups: int = 3) -> None:
        if num_groups < 1:
            raise InvalidConfigurationError("num_groups must be at least 1")
        self.num_groups = num_groups
        self.name = f"md5-{num_groups}"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:  # noqa: ARG002
        return _md5_group(node, self.num_groups)

    def partition(self, neighbors: Sequence[NodeId], api: SocialNetworkAPI) -> Dict[GroupKey, List[NodeId]]:
        num_groups = self.num_groups
        if num_groups > _MAX_MEMO_GROUPS:
            return GroupingStrategy.partition(self, neighbors, api)
        table = _GROUP_TABLES.get(num_groups, b"")
        size = len(table)
        # Members by stored value (group + 1), and the values in first-seen order.
        slots: List[Optional[List[NodeId]]] = [None] * (num_groups + 1)
        order: List[int] = []
        for node in neighbors:
            if type(node) is int and 0 <= node < MEMO_CAP:
                if node >= size:
                    table = _grown_table(num_groups, node)
                    size = len(table)
                stored = table[node]
                if not stored:
                    stored = table[node] = _md5_group(node, num_groups) + 1
            else:
                stored = _md5_group(node, num_groups) + 1
            members = slots[stored]
            if members is None:
                slots[stored] = members = []
                order.append(stored)
            members.append(node)
        return {stored - 1: slots[stored] for stored in order}


#: :class:`HashGrouping` memoises the groups of ``int`` ids in ``[0, MEMO_CAP)``:
#: one byte per id, so one table never exceeds 1 MiB.
MEMO_CAP = 1 << 20
#: A table entry holds ``group + 1`` in one byte (0 means "not computed yet").
_MAX_MEMO_GROUPS = 255
#: First size of a table; it doubles until it covers the largest id seen.
_FIRST_TABLE_SIZE = 1 << 10
#: ``num_groups -> table``.  Entries are a pure function of the id, so the
#: tables are shared by every walker and thread of the process.  Growth
#: replaces a table with a larger copy: an entry another thread writes into
#: the old table meanwhile is lost (it is recomputed on the next miss), but
#: no entry is ever wrong.
_GROUP_TABLES: Dict[int, bytearray] = {}


def _md5_group(node: NodeId, num_groups: int) -> int:
    digest = hashlib.md5(repr(node).encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % num_groups


def _grown_table(num_groups: int, node: int) -> bytearray:
    """Return the ``num_groups`` table, grown by doubling to cover ``node``."""
    table = _GROUP_TABLES.get(num_groups, b"")
    size = len(table) or _FIRST_TABLE_SIZE
    while size <= node:
        size *= 2
    if size == len(table):
        return table
    grown = bytearray(size)
    grown[:len(table)] = table
    _GROUP_TABLES[num_groups] = grown
    return grown


class AttributeValueGrouping(GroupingStrategy):
    """Group by the exact value of a (categorical) node attribute."""

    def __init__(self, attribute: str, default: GroupKey = "unknown", prefetch: bool = True) -> None:
        self.attribute = attribute
        self.default = default
        self.prefetch = prefetch
        self.name = f"attr-{attribute}"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        attrs = _known_attributes(node, api, prefetch=self.prefetch)
        if attrs is None:
            return self.default
        return attrs.get(self.attribute, self.default)


class NumericBinGrouping(GroupingStrategy):
    """Group a numeric attribute into fixed-width bins.

    The paper groups Yelp users by ``reviews_count``; since the attribute is
    numeric, neighbors are binned.  ``bin_width`` controls the stratum width;
    values below ``minimum`` all land in bin 0.  Missing, unparsable and
    non-finite (NaN, ±inf) values land in ``default_bin``.
    """

    def __init__(
        self,
        attribute: str,
        bin_width: float = 10.0,
        minimum: float = 0.0,
        default_bin: int = -1,
        prefetch: bool = True,
    ) -> None:
        if bin_width <= 0:
            raise InvalidConfigurationError("bin_width must be positive")
        self.attribute = attribute
        self.bin_width = bin_width
        self.minimum = minimum
        self.default_bin = default_bin
        self.prefetch = prefetch
        self.name = f"bin-{attribute}"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        attrs = _known_attributes(node, api, prefetch=self.prefetch)
        if attrs is None or self.attribute not in attrs:
            return self.default_bin
        try:
            value = float(attrs[self.attribute])
        except (TypeError, ValueError):
            return self.default_bin
        if not math.isfinite(value):
            return self.default_bin
        return max(0, int((value - self.minimum) // self.bin_width))


class DegreeGrouping(GroupingStrategy):
    """Group neighbors by (binned) degree — the paper's GNRW-By-Degree.

    Degrees grow over orders of magnitude in social graphs, so the bins are
    logarithmic by default (bin = floor(log2(degree))).
    """

    def __init__(self, logarithmic: bool = True, bin_width: int = 10, prefetch: bool = True) -> None:
        if bin_width < 1:
            raise InvalidConfigurationError("bin_width must be at least 1")
        self.logarithmic = logarithmic
        self.bin_width = bin_width
        self.prefetch = prefetch
        self.name = "degree-log" if logarithmic else f"degree-{bin_width}"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        return self._bin(_degree_reader(api, self.prefetch)(node))

    def partition(self, neighbors: Sequence[NodeId], api: SocialNetworkAPI) -> Dict[GroupKey, List[NodeId]]:
        # The same groups as GroupingStrategy.partition, with the degree
        # reader resolved once per neighborhood instead of once per neighbor.
        degree_of = _degree_reader(api, self.prefetch)
        groups: Dict[GroupKey, List[NodeId]] = {}
        for node in neighbors:
            groups.setdefault(self._bin(degree_of(node)), []).append(node)
        return groups

    def _bin(self, degree: Optional[int]) -> GroupKey:
        if degree is None:
            return -1
        if self.logarithmic:
            return int(degree).bit_length()
        return degree // self.bin_width


class CallableGrouping(GroupingStrategy):
    """Adapt an arbitrary ``node -> group`` function into a strategy."""

    def __init__(self, function: Callable[[NodeId], GroupKey], name: str = "callable") -> None:
        self.function = function
        self.name = name

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:  # noqa: ARG002
        return self.function(node)


class ExplicitGrouping(GroupingStrategy):
    """Group by an explicit node -> group mapping (missing nodes share a bucket)."""

    def __init__(self, mapping: Dict[NodeId, GroupKey], default: GroupKey = "other") -> None:
        self.mapping = dict(mapping)
        self.default = default
        self.name = "explicit"

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:  # noqa: ARG002
        return self.mapping.get(node, self.default)


def _known_attributes(node: NodeId, api: SocialNetworkAPI, prefetch: bool) -> Optional[dict]:
    """Return the node's attributes without spending billable queries.

    Resolution order: the API's free inline profile metadata (how real OSN
    responses expose neighbor profiles), then the local query cache, then — if
    ``prefetch`` is true — a full billed query as a last resort.
    """
    peek = getattr(api, "peek_metadata", None)
    if callable(peek):
        metadata = peek(node)
        if metadata is not None:
            return dict(metadata.get("attributes", {}))
    cache = getattr(api, "cache", None)
    if cache is not None:
        view = cache.peek(node)
        if view is not None:
            return dict(view.attributes)
    if prefetch:
        return dict(api.query(node).attributes)
    return None


def _metadata_reader(api: SocialNetworkAPI) -> Optional[Callable[[NodeId], Optional[dict]]]:
    """The callable that answers ``api.peek_metadata`` (``None`` if it has none), found once.

    Middleware layers that do not override ``peek_metadata`` only forward
    it, so the reader is looked up past them, down to the backend's
    ``metadata`` when the core :class:`~repro.api.middleware.BackendAPI`
    is reached: one call per neighbor instead of one per layer.
    """
    while isinstance(api, APILayer) and type(api).peek_metadata is APILayer.peek_metadata:
        api = api.inner
    if isinstance(api, BackendAPI) and type(api).peek_metadata is BackendAPI.peek_metadata:
        return api.backend.metadata
    peek = getattr(api, "peek_metadata", None)
    return peek if callable(peek) else None


def _degree_reader(api: SocialNetworkAPI, prefetch: bool) -> Callable[[NodeId], Optional[int]]:
    """Return ``node -> degree`` as :class:`DegreeGrouping` resolves it.

    Resolution order, as for attributes: the free inline metadata, then the
    local query cache, then — if ``prefetch`` is true — a billed query;
    ``None`` when none of them knows the node.
    """
    peek = _metadata_reader(api)
    cache = getattr(api, "cache", None)

    def degree_of(node: NodeId) -> Optional[int]:
        if peek is not None:
            metadata = peek(node)
            if metadata is not None:
                return int(metadata.get("degree", 0))
        if cache is not None:
            view = cache.peek(node)
            if view is not None:
                return view.degree
        if prefetch:
            return api.query(node).degree
        return None

    return degree_of


_STRATEGY_BUILDERS: Dict[str, Callable[..., GroupingStrategy]] = {
    "md5": HashGrouping,
    "hash": HashGrouping,
    "degree": DegreeGrouping,
    "attribute": AttributeValueGrouping,
    "numeric": NumericBinGrouping,
}


def make_grouping(kind: str, **kwargs) -> GroupingStrategy:
    """Build a grouping strategy by short name.

    Examples:
        >>> make_grouping("md5", num_groups=4).name
        'md5-4'
        >>> make_grouping("numeric", attribute="reviews_count").name
        'bin-reviews_count'
    """
    if kind not in _STRATEGY_BUILDERS:
        raise InvalidConfigurationError(
            f"unknown grouping {kind!r}; available: {', '.join(sorted(_STRATEGY_BUILDERS))}"
        )
    return _STRATEGY_BUILDERS[kind](**kwargs)
