"""Unit tests for GNRW grouping strategies."""

from __future__ import annotations

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.api import APILayer, QueryBudget, UnlimitedPolicy, build_api, resolve_attribute
from repro.exceptions import InvalidConfigurationError
from repro.walks import grouping as grouping_module
from repro.walks import make_grouping
from repro.walks.grouping import (
    MEMO_CAP,
    AttributeValueGrouping,
    CallableGrouping,
    DegreeGrouping,
    ExplicitGrouping,
    GroupingStrategy,
    HashGrouping,
    NumericBinGrouping,
)

#: Ids of every kind the MD5 table must memoise or bypass: ints on both sides
#: of a growth step and of the cap, negative and huge ints, bools (equal to
#: 0/1 but hashed as ``True``/``False``), numpy ints, strings and tuples.
MIXED_IDS = (
    0, 5, 1023, 1024, 70_000, MEMO_CAP - 1, MEMO_CAP, MEMO_CAP + 12_345, 2 ** 70,
    -1, -70_000, True, False, np.int64(5), np.int64(MEMO_CAP + 1),
    "5", "node-a", (1, 2), ("a", 3),
)


def reference_partition(grouping, neighbors):
    """The per-node ``group_of`` path every strategy inherits."""
    return GroupingStrategy.partition(grouping, neighbors, None)


def assert_same_partition(got, want):
    assert got == want
    assert list(got) == list(want)  # groups in first-seen order
    for group in want:
        assert list(got[group]) == list(want[group])  # members in neighbor order


@pytest.fixture
def fresh_tables(monkeypatch):
    """Give the process an empty MD5 group table for one test."""
    tables = {}
    monkeypatch.setattr(grouping_module, "_GROUP_TABLES", tables)
    return tables


class TestHashGrouping:
    def test_deterministic(self, api):
        grouping = HashGrouping(num_groups=3)
        assert grouping.group_of(1, api) == grouping.group_of(1, api)

    def test_group_range(self, api):
        grouping = HashGrouping(num_groups=3)
        for node in range(20):
            assert 0 <= grouping.group_of(node, api) < 3

    def test_invalid_num_groups(self):
        with pytest.raises(InvalidConfigurationError):
            HashGrouping(num_groups=0)

    def test_partition_is_disjoint_cover(self, api, attributed_graph):
        grouping = HashGrouping(num_groups=2)
        neighbors = attributed_graph.neighbors(0)
        partition = grouping.partition(neighbors, api)
        flattened = [node for members in partition.values() for node in members]
        assert sorted(flattened, key=repr) == sorted(neighbors, key=repr)


class TestHashGroupingTable:
    """``HashGrouping.partition`` (process-wide table) against ``group_of``."""

    @pytest.mark.parametrize("num_groups", [1, 3, 7, 300])
    def test_partition_matches_group_of(self, fresh_tables, num_groups):
        grouping = HashGrouping(num_groups)
        rng = np.random.default_rng(num_groups)
        cases = [(), MIXED_IDS, MIXED_IDS[::-1], tuple(range(40)),
                 (5, True, np.int64(5), "5", 1, False, 0)]
        for _ in range(20):
            shuffled = tuple(MIXED_IDS[i] for i in rng.permutation(len(MIXED_IDS)))
            drawn = tuple(rng.integers(0, 2 * MEMO_CAP, size=30).tolist())
            cases += [shuffled, drawn, shuffled[:7] + drawn + shuffled[7:]]
        for neighbors in cases + cases:  # the second pass reads the table
            assert_same_partition(grouping.partition(neighbors, None),
                                  reference_partition(grouping, neighbors))

    @pytest.mark.parametrize("num_groups", [1, 3, 7, 300])
    def test_group_of_is_the_md5_of_the_repr(self, num_groups):
        grouping = HashGrouping(num_groups)
        for node in MIXED_IDS:
            digest = hashlib.md5(repr(node).encode("utf-8")).hexdigest()
            assert grouping.group_of(node, None) == int(digest, 16) % num_groups

    def test_only_small_non_negative_ints_are_stored(self, fresh_tables):
        grouping = HashGrouping(3)
        grouping.partition(MIXED_IDS, None)
        table = fresh_tables[3]
        assert len(table) == MEMO_CAP
        stored = {node: table[node] for node in range(len(table)) if table[node]}
        memoisable = (0, 5, 1023, 1024, 70_000, MEMO_CAP - 1)
        assert stored == {node: grouping.group_of(node, None) + 1 for node in memoisable}
        HashGrouping(300).partition(MIXED_IDS, None)
        assert set(fresh_tables) == {3}

    def test_table_grows_by_doubling_up_to_the_cap(self, fresh_tables):
        grouping = HashGrouping(3)
        sizes = []
        for node in (0, 1023, 1024, 5000, MEMO_CAP - 1, MEMO_CAP, 2 * MEMO_CAP):
            grouping.partition((node,), None)
            sizes.append(len(fresh_tables[3]))
        assert sizes == [1024, 1024, 2048, 8192, MEMO_CAP, MEMO_CAP, MEMO_CAP]

    def test_threads_growing_one_table_match_the_reference(self, fresh_tables):
        grouping = HashGrouping(7)
        span, width, threads = 1 << 16, 24, 8
        # Overlapping, ascending id ranges: every thread grows the table.
        batches = []
        for index in range(threads):
            ids = list(range(index * 2048, span, 7 + index))
            batches.append([tuple(ids[i:i + width]) for i in range(0, len(ids), width)])
        expected = [[reference_partition(grouping, n) for n in batch] for batch in batches]
        results = [None] * threads

        def work(index):
            results[index] = [grouping.partition(n, None) for n in batches[index]]

        workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for got, want in zip(results, expected):
            assert len(got) == len(want)
            for one, other in zip(got, want):
                assert_same_partition(one, other)
        table = fresh_tables[7]
        assert len(table) == span
        assert all(stored == 0 or stored == grouping.group_of(node, None) + 1
                   for node, stored in enumerate(table))


class TestAttributeValueGrouping:
    def test_groups_by_value(self, api):
        grouping = AttributeValueGrouping("city")
        assert grouping.group_of(0, api) == "austin"
        assert grouping.group_of(2, api) == "dallas"

    def test_missing_attribute_default(self, api):
        grouping = AttributeValueGrouping("nonexistent", default="none")
        assert grouping.group_of(0, api) == "none"

    def test_does_not_consume_budget(self, attributed_graph):
        api = build_api(attributed_graph)
        grouping = AttributeValueGrouping("city")
        grouping.partition(attributed_graph.nodes(), api)
        assert api.unique_queries == 0


class TestNumericBinGrouping:
    def test_binning(self, api):
        grouping = NumericBinGrouping("age", bin_width=10.0)
        assert grouping.group_of(0, api) == 2   # age 20
        assert grouping.group_of(2, api) == 3   # age 30
        assert grouping.group_of(4, api) == 4   # age 40

    def test_minimum_offset(self, api):
        grouping = NumericBinGrouping("age", bin_width=10.0, minimum=20.0)
        assert grouping.group_of(0, api) == 0
        assert grouping.group_of(4, api) == 2

    def test_missing_attribute_goes_to_default_bin(self, api):
        grouping = NumericBinGrouping("reviews_count", default_bin=-1)
        assert grouping.group_of(0, api) == -1

    def test_non_numeric_attribute_goes_to_default_bin(self, api):
        grouping = NumericBinGrouping("city", default_bin=-5)
        assert grouping.group_of(0, api) == -5

    def test_invalid_bin_width(self):
        with pytest.raises(InvalidConfigurationError):
            NumericBinGrouping("age", bin_width=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "nan", "-inf"])
    def test_non_finite_attribute_goes_to_default_bin(self, value):
        class MetadataAPI:
            def peek_metadata(self, node):
                return {"degree": 1, "attributes": {"score": value}}

        grouping = NumericBinGrouping("score", default_bin=-7)
        assert grouping.group_of(0, MetadataAPI()) == -7
        assert grouping.partition([0, 1], MetadataAPI()) == {-7: [0, 1]}


class TestDegreeGrouping:
    def test_logarithmic_bins(self, api, attributed_graph):
        grouping = DegreeGrouping(logarithmic=True)
        for node in attributed_graph.nodes():
            expected = int(attributed_graph.degree(node)).bit_length()
            assert grouping.group_of(node, api) == expected

    def test_linear_bins(self, api, attributed_graph):
        grouping = DegreeGrouping(logarithmic=False, bin_width=2)
        for node in attributed_graph.nodes():
            assert grouping.group_of(node, api) == attributed_graph.degree(node) // 2

    def test_invalid_bin_width(self):
        with pytest.raises(InvalidConfigurationError):
            DegreeGrouping(logarithmic=False, bin_width=0)

    def test_does_not_consume_budget(self, attributed_graph):
        api = build_api(attributed_graph)
        DegreeGrouping().partition(attributed_graph.nodes(), api)
        assert api.unique_queries == 0


class NoFreeMetadata(APILayer):
    """A layer that serves no inline metadata, so degrees come from the cache or a query."""

    def peek_metadata(self, node):
        return None


class CountsCacheLookups(APILayer):
    """A layer that counts the ``cache`` look-ups it forwards."""

    def __init__(self, inner):
        super().__init__(inner)
        self.cache_lookups = 0

    def __getattr__(self, item):
        if item == "cache":
            self.cache_lookups += 1
        return super().__getattr__(item)


#: ``strategy id -> (strategy factory, key of a (degree, attributes) profile or None)``,
#: the key written out here independently of the strategies' own code.
PROFILE_STRATEGIES = {
    "log": (
        lambda prefetch: DegreeGrouping(logarithmic=True, bin_width=3, prefetch=prefetch),
        lambda profile: -1 if profile is None else int(profile[0]).bit_length(),
    ),
    "linear": (
        lambda prefetch: DegreeGrouping(logarithmic=False, bin_width=3, prefetch=prefetch),
        lambda profile: -1 if profile is None else profile[0] // 3,
    ),
    "attribute": (
        lambda prefetch: AttributeValueGrouping("activity", default="none", prefetch=prefetch),
        lambda profile: "none" if profile is None else profile[1].get("activity", "none"),
    ),
    "numeric": (
        lambda prefetch: NumericBinGrouping("activity", bin_width=10.0, default_bin=-3,
                                            prefetch=prefetch),
        lambda profile: -3 if profile is None else max(0, int(profile[1]["activity"] // 10)),
    ),
}


def per_node_partition(key, neighbors, api, prefetch):
    """Each neighbor's profile looked up on its own, through the outermost layer."""
    groups = {}
    for node in neighbors:
        metadata = api.peek_metadata(node)
        cache = getattr(api, "cache", None)
        view = cache.peek(node) if cache is not None else None
        if metadata is not None:
            profile = (metadata["degree"], metadata["attributes"])
        elif view is not None:
            profile = (view.degree, view.attributes)
        elif prefetch:
            view = api.query(node)
            profile = (view.degree, view.attributes)
        else:
            profile = None
        groups.setdefault(key(profile), []).append(node)
    return groups


class TestDegreeGroupingPartition:
    """Profile-keyed ``partition`` (look-ups resolved once) against a per-node loop."""

    STACKS = {
        "memory": lambda graph: build_api(graph),
        "csr": lambda graph: build_api(graph, backend="csr"),
        "traced-budget": lambda graph: build_api(graph, backend="csr", budget=40, trace=True),
        "cacheless": lambda graph: build_api(graph, cache=False),
        "no-metadata": lambda graph: build_api(graph, layers=[NoFreeMetadata]),
        # The layers the removed GraphAPI class assembled: budget and rate limit unlimited.
        "graphapi": lambda graph: build_api(
            graph, budget=QueryBudget(None), rate_limit=UnlimitedPolicy()
        ),
    }

    @pytest.mark.parametrize("strategy", sorted(PROFILE_STRATEGIES))
    @pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "no-prefetch"])
    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_partition_matches_group_of(self, facebook_small, stack, prefetch, strategy):
        make_grouping_for, key = PROFILE_STRATEGIES[strategy]
        grouping = make_grouping_for(prefetch)
        make = self.STACKS[stack]
        api, reference_api = make(facebook_small), make(facebook_small)
        nodes = facebook_small.nodes()
        for node in nodes[:8]:  # some profiles come from the cache
            api.query(node)
            reference_api.query(node)
        # Without prefetch an unknown id falls into the default group; with it, it is queried.
        unknown = [] if prefetch else ["missing-id"]
        for node in nodes[:30]:
            neighbors = facebook_small.neighbors(node) + nodes[::97] + unknown
            assert_same_partition(
                grouping.partition(neighbors, api),
                per_node_partition(key, neighbors, reference_api, prefetch),
            )
            assert api.unique_queries == reference_api.unique_queries
            assert api.total_queries == reference_api.total_queries

    def test_reader_skips_forwarding_layers_only(self, facebook_small):
        api = build_api(facebook_small, backend="csr", budget=10, trace=True)
        assert getattr(*resolve_attribute(api, "peek_metadata")) == api.backend.metadata
        masked = build_api(facebook_small, layers=[NoFreeMetadata])
        assert getattr(*resolve_attribute(masked, "peek_metadata")) == masked.peek_metadata

    @pytest.mark.parametrize("grouping", [
        AttributeValueGrouping("activity", prefetch=False),
        NumericBinGrouping("activity", prefetch=False),
    ], ids=["attribute", "numeric"])
    def test_cache_is_looked_up_once_per_partition(self, facebook_small, grouping):
        api = build_api(facebook_small, layers=[NoFreeMetadata, CountsCacheLookups])
        neighbors = facebook_small.nodes()[:20]
        for node in neighbors[:10]:
            api.query(node)
        partition = grouping.partition(neighbors, api)
        assert api.cache_lookups == 1
        grouping.partition(neighbors, api)
        assert api.cache_lookups == 2
        assert len(partition) > 1


class TestOtherStrategies:
    def test_callable_grouping(self, api):
        grouping = CallableGrouping(lambda node: node % 2, name="parity")
        assert grouping.group_of(4, api) == 0
        assert grouping.group_of(5, api) == 1
        assert grouping.name == "parity"

    def test_explicit_grouping(self, api):
        grouping = ExplicitGrouping({1: "x"}, default="other")
        assert grouping.group_of(1, api) == "x"
        assert grouping.group_of(99, api) == "other"


class TestFactory:
    def test_make_grouping_names(self):
        assert make_grouping("md5", num_groups=4).name == "md5-4"
        assert make_grouping("degree").name == "degree-log"
        assert make_grouping("attribute", attribute="city").name == "attr-city"
        assert make_grouping("numeric", attribute="age").name == "bin-age"

    def test_unknown_kind(self):
        with pytest.raises(InvalidConfigurationError):
            make_grouping("nope")


class TestPartitionWithoutMetadata:
    def test_falls_back_to_cache_then_default(self, attributed_graph):
        class NoPeekAPI:
            """An API without peek_metadata and without a cache."""

            def __init__(self, inner):
                self._inner = inner

            def query(self, node):
                return self._inner.query(node)

            @property
            def unique_queries(self):
                return self._inner.unique_queries

            @property
            def total_queries(self):
                return self._inner.total_queries

            def reset_counters(self):
                self._inner.reset_counters()

        api = NoPeekAPI(build_api(attributed_graph))
        grouping = AttributeValueGrouping("city", default="unknown", prefetch=False)
        # Without metadata, cache or prefetch the strategy degrades gracefully.
        assert grouping.group_of(0, api) == "unknown"
        grouping_prefetch = AttributeValueGrouping("city", prefetch=True)
        assert grouping_prefetch.group_of(0, api) == "austin"
