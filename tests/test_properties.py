"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import InMemoryBackend, LRUCache, QueryBudget, QueryCache, build_api
from repro.estimation import AggregateQuery, reweighted_mean
from repro.graphs import Graph, undirected_from_edges
from repro.graphs.loaders import load_edge_list, save_edge_list
from repro.storage import dump_crawl, load_crawl, load_snapshot, save_snapshot
from repro.metrics import (
    Distribution,
    empirical_distribution,
    l2_distance,
    symmetric_kl_divergence,
    total_variation_distance,
)
from repro.types import Sample
from repro.walks import CirculatedNeighborsRandomWalk, EdgeHistory, SimpleRandomWalk
from repro.walks.grouping import HashGrouping

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

node_ids = st.integers(min_value=0, max_value=30)

#: Warehouse ids stress the canonical-JSON key encoding: negative ints,
#: unicode strings, the empty string, and the ``5`` vs ``"5"`` collision.
warehouse_ids = st.one_of(
    st.integers(min_value=-5, max_value=12),
    st.sampled_from(["", "5", "α", "node/δ", "naïve", "☃"]),
)


@st.composite
def edge_lists(draw, min_edges=1, max_edges=60):
    """Random simple-graph edge lists (self-loops filtered out)."""
    pairs = draw(
        st.lists(st.tuples(node_ids, node_ids), min_size=min_edges, max_size=max_edges)
    )
    return [(u, v) for u, v in pairs if u != v]


@st.composite
def connected_graphs(draw, max_extra_edges=40):
    """Connected simple graphs built from a random spanning path plus extras."""
    size = draw(st.integers(min_value=2, max_value=15))
    nodes = list(range(size))
    permutation = draw(st.permutations(nodes))
    edges = list(zip(permutation, permutation[1:]))
    extra = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=max_extra_edges,
        )
    )
    edges.extend((u, v) for u, v in extra if u != v)
    return undirected_from_edges(edges, name="hypothesis")


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_handshake_lemma(self, edges):
        graph = undirected_from_edges(edges)
        assert sum(graph.degrees().values()) == 2 * graph.number_of_edges

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_neighbor_symmetry(self, edges):
        graph = undirected_from_edges(edges)
        for node in graph.nodes():
            for neighbor in graph.neighbors(node):
                assert node in graph.neighbors(neighbor)

    @given(edge_lists(min_edges=1))
    @settings(max_examples=60, deadline=None)
    def test_stationary_distribution_sums_to_one(self, edges):
        graph = undirected_from_edges(edges)
        if graph.number_of_edges == 0:
            return
        pi = graph.stationary_distribution()
        assert abs(sum(pi.values()) - 1.0) < 1e-9
        assert all(value >= 0 for value in pi.values())

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, graph):
        components = graph.connected_components()
        all_nodes = [node for component in components for node in component]
        assert sorted(all_nodes, key=repr) == sorted(graph.nodes(), key=repr)
        assert len(components) == 1  # the strategy builds connected graphs

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_copy_equals_original(self, edges):
        graph = undirected_from_edges(edges)
        clone = graph.copy()
        assert set(map(frozenset, clone.edges())) == set(map(frozenset, graph.edges()))
        assert clone.degrees() == graph.degrees()


# ---------------------------------------------------------------------------
# Walk invariants
# ---------------------------------------------------------------------------


class TestWalkProperties:
    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_walk_path_follows_edges(self, graph, seed):
        api = build_api(graph)
        walk = SimpleRandomWalk(api, seed=seed)
        start = graph.nodes()[0]
        result = walk.run(start, max_steps=40)
        for u, v in zip(result.path, result.path[1:]):
            assert graph.has_edge(u, v)

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cnrw_unique_queries_equal_distinct_visits(self, graph, seed):
        api = build_api(graph)
        walk = CirculatedNeighborsRandomWalk(api, seed=seed)
        start = graph.nodes()[0]
        result = walk.run(start, max_steps=60)
        assert result.unique_queries == len(set(result.path))

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cnrw_circulation_invariant(self, graph, seed):
        """No outgoing neighbor repeats within one circulation round of an edge."""
        walk = CirculatedNeighborsRandomWalk(build_api(graph), seed=seed)
        result = walk.run(graph.nodes()[0], max_steps=120)
        path = result.path
        buckets = {}
        for i in range(1, len(path) - 1):
            key = (path[i - 1], path[i])
            bucket = buckets.setdefault(key, [])
            if len(bucket) == graph.degree(path[i]):
                bucket.clear()
            assert path[i + 1] not in bucket
            bucket.append(path[i + 1])

    @given(
        connected_graphs(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_budget_never_exceeded(self, graph, seed, budget):
        api = build_api(graph, budget=QueryBudget(budget))
        walk = SimpleRandomWalk(api, seed=seed)
        result = walk.run(graph.nodes()[0], max_steps=500)
        assert result.unique_queries <= budget


# ---------------------------------------------------------------------------
# History bookkeeping invariants
# ---------------------------------------------------------------------------


class TestHistoryProperties:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_edge_history_never_exceeds_neighbor_set(self, choices):
        neighbors = [0, 1, 2, 3, 4, 5]
        history = EdgeHistory()
        for choice in choices:
            remaining = history.remaining("u", "v", neighbors)
            assert set(remaining).issubset(set(neighbors))
            assert remaining  # never empty: the reset rule guarantees progress
            chosen = remaining[choice % len(remaining)]
            history.record("u", "v", chosen, neighbors)
            assert history.visited("u", "v").issubset(set(neighbors))

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_edge_history_covers_all_before_repeat(self, choices):
        """Within each consecutive block of k draws, all k neighbors appear."""
        neighbors = ["a", "b", "c"]
        history = EdgeHistory()
        drawn = []
        for choice in choices:
            remaining = history.remaining("u", "v", neighbors)
            chosen = remaining[choice % len(remaining)]
            history.record("u", "v", chosen, neighbors)
            drawn.append(chosen)
        for start in range(0, len(drawn) - len(neighbors) + 1, len(neighbors)):
            block = drawn[start: start + len(neighbors)]
            if len(block) == len(neighbors):
                assert set(block) == set(neighbors)


# ---------------------------------------------------------------------------
# Grouping invariants
# ---------------------------------------------------------------------------


class TestGroupingProperties:
    @given(
        st.lists(node_ids, min_size=1, max_size=40, unique=True),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_hash_partition_is_disjoint_cover(self, neighbors, num_groups):
        graph = Graph()
        graph.add_nodes(neighbors)
        api = build_api(graph) if neighbors else None
        grouping = HashGrouping(num_groups=num_groups)
        partition = grouping.partition(neighbors, api)
        flattened = [node for members in partition.values() for node in members]
        assert sorted(flattened) == sorted(neighbors)
        assert len(flattened) == len(set(flattened))
        assert set(partition).issubset(set(range(num_groups)))


# ---------------------------------------------------------------------------
# Estimator and metric invariants
# ---------------------------------------------------------------------------


class TestEstimatorProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=50),
                st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_reweighted_mean_within_value_range(self, rows):
        samples = [
            Sample(node=index, degree=degree, attributes={"v": value})
            for index, (degree, value) in enumerate(rows)
        ]
        result = reweighted_mean(samples, AggregateQuery.average_attribute("v"))
        values = [value for _, value in rows]
        assert min(values) - 1e-6 <= result.value <= max(values) + 1e-6

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_empirical_distribution_normalised(self, visits):
        dist = empirical_distribution(visits)
        assert abs(sum(dist.as_dict().values()) - 1.0) < 1e-9

    @given(
        st.dictionaries(node_ids, st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
        st.dictionaries(node_ids, st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_divergences_non_negative_and_symmetric(self, p_weights, q_weights):
        p = Distribution(p_weights)
        q = Distribution(q_weights)
        assert symmetric_kl_divergence(p, q) >= -1e-9
        assert l2_distance(p, q) >= 0
        assert total_variation_distance(p, q) >= 0
        assert total_variation_distance(p, q) <= 1.0 + 1e-9
        assert l2_distance(p, q) == l2_distance(q, p)
        assert total_variation_distance(p, p) < 1e-9


# ---------------------------------------------------------------------------
# On-disk round trips (storage subsystem + edge-list I/O)
# ---------------------------------------------------------------------------
# hypothesis forbids reusing pytest's function-scoped tmp_path across
# examples, so each example makes (and cleans) its own temporary directory.


class TestStorageRoundTripProperties:
    @given(edge_lists(min_edges=1), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_snapshot_roundtrip_reproduces_exact_adjacency(self, edges, mmap):
        graph = undirected_from_edges(edges, name="prop")
        if graph.number_of_nodes == 0:
            return
        with tempfile.TemporaryDirectory() as tmp:
            backend = load_snapshot(save_snapshot(graph, Path(tmp) / "snap"), mmap=mmap)
            assert backend.node_ids() == graph.nodes()
            for node in graph.nodes():
                # from_graph preserves neighbor order, so the round trip is
                # exact — not merely set-equal.
                assert backend.fetch(node).neighbors == tuple(graph.neighbors(node))

    @given(edge_lists(min_edges=1))
    @settings(max_examples=25, deadline=None)
    def test_crawl_dump_roundtrip_reproduces_exact_records(self, edges):
        graph = undirected_from_edges(edges, name="prop")
        if graph.number_of_nodes == 0:
            return
        source = InMemoryBackend(graph)
        with tempfile.TemporaryDirectory() as tmp:
            path = dump_crawl(source, Path(tmp) / "crawl.jsonl", nodes=source.node_ids())
            replay = load_crawl(path)
            assert replay.node_ids() == source.node_ids()
            for node in source.node_ids():
                assert replay.fetch(node) == source.fetch(node)

    @given(
        st.lists(
            st.tuples(warehouse_ids, warehouse_ids), min_size=1, max_size=40
        ),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_warehouse_ingest_export_roundtrip(self, pairs, partial):
        """dump -> ingest -> export -> dump is the identity, meta included.

        Ids mix negative ints with unicode (and colliding ``5`` vs ``"5"``)
        strings; the partial case crawls only half the nodes, so boundary
        ``meta`` lines must survive the warehouse round trip too.
        """
        import json

        from repro.warehouse import CrawlWarehouse

        edges = [(u, v) for u, v in pairs if u != v]
        graph = undirected_from_edges(edges, name="prop")
        if graph.number_of_nodes == 0:
            return
        graph.set_attributes(graph.nodes()[0], label="α✓", rank=1)
        source = InMemoryBackend(graph)
        nodes = source.node_ids()
        crawled = nodes[: max(1, len(nodes) // 2)] if partial else nodes
        with tempfile.TemporaryDirectory() as tmp:
            first = dump_crawl(source, Path(tmp) / "first.jsonl", nodes=crawled)
            with CrawlWarehouse.create(Path(tmp) / "wh.sqlite") as warehouse:
                warehouse.ingest(first)
                second = warehouse.export_dump(
                    Path(tmp) / "second.jsonl", name="prop"
                )
            original = first.read_text(encoding="utf-8").splitlines()
            exported = second.read_text(encoding="utf-8").splitlines()
            # Body lines (records + boundary meta) are byte-for-byte JSON
            # equal; only the header's crawl name may differ.
            assert list(map(json.loads, exported[1:])) == list(
                map(json.loads, original[1:])
            )
            replay = load_crawl(second)
            assert replay.node_ids() == crawled
            for node in crawled:
                assert replay.fetch(node) == source.fetch(node)

    @given(edge_lists(min_edges=1), st.booleans(), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_edge_list_roundtrip_reproduces_exact_adjacency(self, edges, compress, header):
        graph = undirected_from_edges(edges, name="prop")
        if graph.number_of_edges == 0:
            return  # isolated nodes are not representable in an edge list
        suffix = "edges.txt.gz" if compress else "edges.txt"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / suffix
            save_edge_list(graph, path, header=header)
            loaded = load_edge_list(path)
            assert set(map(frozenset, loaded.edges())) == set(map(frozenset, graph.edges()))
            assert loaded.degrees() == graph.degrees()


# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------


class TestRemoteWireProperties:
    """Serving any graph over HTTP round-trips it losslessly (satellite).

    Random graphs with non-identity ids (negative ints, unicode strings, the
    empty string) and unicode attribute values travel through
    ``serve -> HTTPGraphBackend`` with neighbors (order included) and
    attributes intact — no id type gets coerced, no string gets mangled.
    """

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_served_graph_round_trips_losslessly(self, data):
        from repro.api import HTTPGraphBackend
        from repro.server import serve_backend

        wire_ids = st.one_of(
            st.integers(min_value=-5, max_value=99),
            st.text(max_size=6),  # unicode included, "" included
        )
        size = data.draw(st.integers(min_value=2, max_value=7), label="size")
        ids = data.draw(
            st.lists(wire_ids, min_size=size, max_size=size, unique=True),
            label="ids",
        )
        edges = list(zip(ids, ids[1:]))
        extra = data.draw(
            st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=8),
            label="extra",
        )
        edges.extend((u, v) for u, v in extra if u != v)
        graph = Graph(name="wire")
        graph.add_edges(edges)
        attributes = data.draw(
            st.dictionaries(
                st.sampled_from(ids),
                st.dictionaries(
                    st.text(min_size=1, max_size=5),
                    st.one_of(st.integers(), st.text(max_size=8)),
                    min_size=1,
                    max_size=3,
                ),
                max_size=3,
            ),
            label="attributes",
        )
        for node, node_attributes in attributes.items():
            graph.set_attributes(node, **node_attributes)

        backend = InMemoryBackend(graph)
        with serve_backend(backend) as server:
            with HTTPGraphBackend(server.url, timeout=5) as client:
                assert client.node_ids() == backend.node_ids()
                assert len(client) == len(backend)
                for node in backend.node_ids():
                    remote = client.fetch(node)
                    local = backend.fetch(node)
                    assert remote == local
                    assert [type(n) for n in remote.neighbors] == [
                        type(n) for n in local.neighbors
                    ]
                    assert client.metadata(node) == backend.metadata(node)
                    assert client.contains(node)
                assert client.fetch_many(backend.node_ids()) == backend.fetch_many(
                    backend.node_ids()
                )


class TestCacheProperties:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_cache_is_a_dict(self, operations):
        cache = QueryCache()
        model = {}
        for key, value in operations:
            cache.put(key, value)
            model[key] = value
        for key, value in model.items():
            assert cache.peek(key) == value
        assert len(cache) == len(model)

    @given(
        st.integers(min_value=1, max_value=10),
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_lru_cache_never_exceeds_capacity(self, capacity, operations):
        cache = LRUCache(capacity)
        for key, value in operations:
            cache.put(key, value)
            assert len(cache) <= capacity
