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
read a neighbor's profile through :func:`profile_reader`: the free inline
metadata, then the local cache of already-queried nodes, and otherwise a
default group; the ``prefetch`` option lets users trade extra queries for
exact grouping, and is what the paper's setting corresponds to (profile
attributes of listed neighbors are typically returned inline by real OSN
APIs).
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..api.interface import SocialNetworkAPI
from ..api.middleware import resolve_attribute
from ..exceptions import InvalidConfigurationError
from ..types import NodeId

GroupKey = Hashable


class GroupingStrategy:
    """Maps each neighbor of the current node to a group key."""

    #: Short name used by reports and the walker factory.
    name = "grouping"

    def key_reader(self, api: SocialNetworkAPI) -> Callable[[NodeId], GroupKey]:
        """Return ``node -> group key`` for one neighborhood.

        Subclasses override this; whatever the reader needs from ``api`` is
        looked up here, once per neighborhood, not once per neighbor.
        """
        raise NotImplementedError

    def group_of(self, node: NodeId, api: SocialNetworkAPI) -> GroupKey:
        """Return the group key of ``node``."""
        return self.key_reader(api)(node)

    def partition(self, neighbors: Sequence[NodeId], api: SocialNetworkAPI) -> Dict[GroupKey, List[NodeId]]:
        """Partition ``neighbors`` into groups (order inside groups preserved)."""
        key_of = self.key_reader(api)
        groups: Dict[GroupKey, List[NodeId]] = {}
        for node in neighbors:
            groups.setdefault(key_of(node), []).append(node)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


class HashGrouping(GroupingStrategy):
    """Group by MD5 hash of the node id modulo ``num_groups``.

    This is the paper's GNRW-By-MD5 baseline: group membership carries no
    information about the node, so GNRW degenerates to (approximately) CNRW.

    :meth:`key_reader` is the definition.  :meth:`partition` gives the same
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

    def key_reader(self, api: SocialNetworkAPI) -> Callable[[NodeId], GroupKey]:  # noqa: ARG002
        num_groups = self.num_groups
        return lambda node: _md5_group(node, num_groups)

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


#: A neighbor's free profile, ``(degree, attributes)``, or ``None`` if unknown.
Profile = Optional[Tuple[int, Mapping[str, Any]]]


def profile_reader(api: SocialNetworkAPI, prefetch: bool) -> Callable[[NodeId], Profile]:
    """Return ``node -> (degree, attributes)`` without billing unless ``prefetch``.

    Resolution order: the API's free inline profile metadata (how real OSN
    responses expose neighbor profiles), then the local query cache, then
    — if ``prefetch`` is true — a billed query; ``None`` when none of them
    knows the node.  The metadata reader and the cache are looked up once
    per call of this function (see
    :func:`~repro.api.middleware.resolve_attribute`), and the attributes are
    the served mapping itself, to be read, not changed.
    """
    peek = getattr(*resolve_attribute(api, "peek_metadata"), None)
    cache = getattr(api, "cache", None)
    cached = cache.peek if cache is not None else None

    def profile_of(node: NodeId) -> Profile:
        if peek is not None:
            metadata = peek(node)
            if metadata is not None:
                return int(metadata.get("degree", 0)), metadata.get("attributes", {})
        if cached is not None:
            view = cached(node)
            if view is not None:
                return view.degree, view.attributes
        if prefetch:
            view = api.query(node)
            return view.degree, view.attributes
        return None

    return profile_of


class ProfileGrouping(GroupingStrategy):
    """A strategy whose ``profile_key`` maps a neighbor's :data:`Profile` to its group."""

    def key_reader(self, api: SocialNetworkAPI) -> Callable[[NodeId], GroupKey]:
        profile_of = profile_reader(api, self.prefetch)
        key = self.profile_key
        return lambda node: key(profile_of(node))


class AttributeValueGrouping(ProfileGrouping):
    """Group by the exact value of a (categorical) node attribute."""

    def __init__(self, attribute: str, default: GroupKey = "unknown", prefetch: bool = True) -> None:
        self.attribute = attribute
        self.default = default
        self.prefetch = prefetch
        self.name = f"attr-{attribute}"

    def profile_key(self, profile: Profile) -> GroupKey:
        if profile is None:
            return self.default
        return profile[1].get(self.attribute, self.default)


class NumericBinGrouping(ProfileGrouping):
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

    def profile_key(self, profile: Profile) -> GroupKey:
        if profile is None or self.attribute not in profile[1]:
            return self.default_bin
        try:
            value = float(profile[1][self.attribute])
        except (TypeError, ValueError):
            return self.default_bin
        if not math.isfinite(value):
            return self.default_bin
        return max(0, int((value - self.minimum) // self.bin_width))


class DegreeGrouping(ProfileGrouping):
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

    def profile_key(self, profile: Profile) -> GroupKey:
        if profile is None:
            return -1
        degree = profile[0]
        if self.logarithmic:
            return int(degree).bit_length()
        return degree // self.bin_width


class CallableGrouping(GroupingStrategy):
    """Adapt an arbitrary ``node -> group`` function into a strategy."""

    def __init__(self, function: Callable[[NodeId], GroupKey], name: str = "callable") -> None:
        self.function = function
        self.name = name

    def key_reader(self, api: SocialNetworkAPI) -> Callable[[NodeId], GroupKey]:  # noqa: ARG002
        return self.function


class ExplicitGrouping(GroupingStrategy):
    """Group by an explicit node -> group mapping (missing nodes share a bucket)."""

    def __init__(self, mapping: Dict[NodeId, GroupKey], default: GroupKey = "other") -> None:
        self.mapping = dict(mapping)
        self.default = default
        self.name = "explicit"

    def key_reader(self, api: SocialNetworkAPI) -> Callable[[NodeId], GroupKey]:  # noqa: ARG002
        mapping, default = self.mapping, self.default
        return lambda node: mapping.get(node, default)


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
