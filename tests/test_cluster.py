"""Tests for the sharded graph tier (`repro.cluster`).

The conformance matrix in ``tests/test_backend_conformance.py`` already pins
the ``ShardedBackend`` (over three live HTTP shard servers) to identical
records, golden walk CRCs and query accounting; this module covers what is
*specific* to the cluster subsystem: ring determinism, the partition layout
and its manifests, routing and ownership guards, the ``cluster://`` and
manifest wiring, per-shard failure attribution when a shard dies
mid-ensemble, and the connection-lifecycle satellites (context managers,
``SamplingSession.close``).
"""

from __future__ import annotations

import json
from collections import Counter, deque

import pytest

from repro.api import (
    HTTPGraphBackend,
    InMemoryBackend,
    SamplingSession,
    as_backend,
    build_api,
)
from repro.cluster import (
    CLUSTER_FORMAT,
    CLUSTER_VERSION,
    HashRing,
    ShardSliceBackend,
    ShardedBackend,
    cluster_from_urls,
    load_cluster,
    load_shard,
    parse_cluster_url,
    partition_snapshot,
    repartition,
)
from repro.exceptions import (
    ClusterError,
    NodeNotFoundError,
    ShardError,
    StaleManifestError,
)
from repro.graphs import load_dataset
from repro.storage import save_snapshot
from repro.walks import make_walker


@pytest.fixture(scope="module")
def cluster_graph():
    return load_dataset("facebook_like", seed=7, scale=0.12)


@pytest.fixture(scope="module")
def reference(cluster_graph) -> InMemoryBackend:
    return InMemoryBackend(cluster_graph)


@pytest.fixture(scope="module")
def cluster_dir(cluster_graph, tmp_path_factory):
    base = tmp_path_factory.mktemp("cluster")
    snapshot = save_snapshot(cluster_graph, base / "snap")
    return partition_snapshot(snapshot, base / "parts", shards=3)


@pytest.fixture(scope="module")
def replicated_dir(cluster_graph, tmp_path_factory):
    """The same graph partitioned with replication factor 2."""
    base = tmp_path_factory.mktemp("replicated")
    snapshot = save_snapshot(cluster_graph, base / "snap")
    return partition_snapshot(snapshot, base / "parts", shards=3, replicas=2)


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_routes_are_pinned_across_runs(self):
        """The ring must never re-route a node between releases: the on-disk
        partition layout depends on it.  These values are frozen."""
        ring = HashRing(3, vnodes=8)
        assert [ring.shard_of(node) for node in range(10)] == [
            0, 2, 1, 2, 0, 0, 1, 1, 2, 2,
        ]
        assert [ring.shard_of(node) for node in ("alice", "bob", "carol", "dave")] == [
            2, 0, 2, 2,
        ]
        default = HashRing(5)
        assert [default.shard_of(node) for node in range(8)] == [
            1, 3, 4, 4, 3, 3, 4, 0,
        ]

    def test_int_and_str_ids_route_independently(self):
        ring = HashRing(3, vnodes=8)
        assert ring.shard_of(5) == 0
        assert ring.shard_of("5") == 1

    def test_spec_round_trip(self):
        ring = HashRing(4, vnodes=16)
        rebuilt = HashRing.from_spec(ring.spec())
        assert rebuilt.shards == 4 and rebuilt.vnodes == 16
        assert all(rebuilt.shard_of(node) == ring.shard_of(node) for node in range(200))

    def test_distribution_is_roughly_even(self):
        counts = Counter(HashRing(3).shard_of(node) for node in range(3000))
        assert len(counts) == 3
        assert min(counts.values()) > 3000 / 3 * 0.6

    @pytest.mark.parametrize("spec", [
        None, [], {"algorithm": "md5-ring", "shards": 2},
        {"algorithm": "consistent-hash-blake2b64"},
        {"algorithm": "consistent-hash-blake2b64", "shards": "many"},
    ])
    def test_malformed_specs_raise_typed_errors(self, spec):
        with pytest.raises(ClusterError):
            HashRing.from_spec(spec)

    def test_invalid_shard_counts_raise(self):
        with pytest.raises(ClusterError):
            HashRing(0)
        with pytest.raises(ClusterError):
            HashRing(3, vnodes=0)

    def test_unroutable_node_id_raises_typed_error(self):
        with pytest.raises(ClusterError, match="routed"):
            HashRing(3).shard_of(object())


# ----------------------------------------------------------------------
# Partitioning and shard slices
# ----------------------------------------------------------------------
class TestPartition:
    def test_manifest_layout(self, cluster_dir):
        manifest = json.loads((cluster_dir / "cluster.json").read_text())
        assert manifest["format"] == CLUSTER_FORMAT
        assert manifest["version"] == CLUSTER_VERSION
        assert manifest["ring"]["shards"] == 3
        entries = manifest["shards"]
        assert [entry["shard"] for entry in entries] == [0, 1, 2]
        assert sum(entry["nodes"] for entry in entries) == manifest["nodes"]
        for entry in entries:
            shard_dir = cluster_dir / entry["source"]
            assert (shard_dir / "manifest.json").is_file()  # a real snapshot
            assert (shard_dir / "shard.json").is_file()

    def test_shards_partition_the_node_set(self, cluster_dir, reference):
        owned = []
        for shard in range(3):
            slice_backend = load_shard(cluster_dir / f"shard-{shard:02d}")
            assert isinstance(slice_backend, ShardSliceBackend)
            owned.extend(slice_backend.node_ids())
        assert sorted(owned) == sorted(reference.node_ids())
        assert len(owned) == len(set(owned))  # disjoint

    def test_shards_route_by_the_manifest_ring(self, cluster_dir):
        manifest = json.loads((cluster_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        for shard in range(3):
            slice_backend = load_shard(cluster_dir / f"shard-{shard:02d}")
            assert all(ring.shard_of(node) == shard for node in slice_backend.node_ids())

    def test_slice_serves_owned_records_and_guards_the_rest(
        self, cluster_dir, reference
    ):
        """A shard answers exactly its owned nodes with *global* neighbor
        lists; a mis-routed node fails loudly instead of answering with the
        boundary row's empty adjacency."""
        slice_backend = load_shard(cluster_dir / "shard-00")
        owned = slice_backend.node_ids()
        for node in owned[:10]:
            assert slice_backend.fetch(node) == reference.fetch(node)
            assert slice_backend.metadata(node) == reference.metadata(node)
        foreign = next(
            node for node in reference.node_ids() if node not in set(owned)
        )
        with pytest.raises(NodeNotFoundError):
            slice_backend.fetch(foreign)
        with pytest.raises(NodeNotFoundError):
            slice_backend.fetch_many([owned[0], foreign])
        assert not slice_backend.contains(foreign)
        assert slice_backend.metadata(foreign) is None
        assert foreign not in slice_backend.node_ids()
        assert len(slice_backend) == len(owned)

    def test_partition_accepts_in_memory_sources(self, cluster_graph, tmp_path):
        out_dir = partition_snapshot(cluster_graph, tmp_path / "direct", shards=2)
        with load_cluster(out_dir) as cluster:
            assert len(cluster) == cluster_graph.number_of_nodes

    def test_partition_rejects_unsupported_sources(self, tmp_path):
        with pytest.raises(TypeError, match="partition"):
            partition_snapshot(42, tmp_path / "bad", shards=2)


# ----------------------------------------------------------------------
# ShardedBackend routing and federation (local slices; HTTP is covered by
# the conformance suite)
# ----------------------------------------------------------------------
class TestShardedBackend:
    def test_cluster_reassembles_the_whole_graph(self, cluster_dir, reference):
        with load_cluster(cluster_dir) as cluster:
            assert len(cluster) == len(reference)
            assert sorted(cluster.node_ids()) == sorted(reference.node_ids())
            nodes = reference.node_ids()
            probe = [nodes[2], nodes[0], nodes[2], nodes[5]]
            assert cluster.fetch_many(probe) == reference.fetch_many(probe)
            assert cluster.fetch(nodes[1]) == reference.fetch(nodes[1])
            assert cluster.metadata(nodes[3]) == reference.metadata(nodes[3])
            assert cluster.metadata("no-such-node") is None
            assert not cluster.contains("no-such-node")
            with pytest.raises(NodeNotFoundError):
                cluster.fetch("no-such-node")

    def test_walks_identical_to_unpartitioned_graph(self, cluster_dir, reference):
        def run(source):
            api = build_api(source, budget=60)
            start = reference.node_ids()[0]
            result = make_walker("cnrw", api=api, seed=7).run(start, max_steps=None)
            return result.path, api.unique_queries, api.total_queries

        with load_cluster(cluster_dir) as cluster:
            assert run(cluster) == run(reference)

    def test_shard_count_must_match_ring(self, cluster_dir):
        backends = [load_shard(cluster_dir / f"shard-{shard:02d}") for shard in range(3)]
        with pytest.raises(ClusterError, match="ring routes"):
            ShardedBackend(backends, HashRing(2))
        with pytest.raises(ClusterError, match="at least one"):
            ShardedBackend([])

    def test_manifest_validation_raises_typed_errors(self, cluster_dir, tmp_path):
        with pytest.raises(ClusterError, match="no cluster manifest"):
            load_cluster(tmp_path / "nowhere")
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"format": "something-else"}')
        with pytest.raises(ClusterError, match="format"):
            load_cluster(foreign)
        manifest = json.loads((cluster_dir / "cluster.json").read_text())
        manifest["version"] = 99
        future = tmp_path / "future.json"
        future.write_text(json.dumps(manifest))
        with pytest.raises(ClusterError, match="version"):
            load_cluster(future)
        manifest = json.loads((cluster_dir / "cluster.json").read_text())
        del manifest["shards"][1]
        missing = tmp_path / "missing-shard.json"
        missing.write_text(json.dumps(manifest))
        with pytest.raises(ClusterError, match="shards"):
            load_cluster(missing)

    def test_parse_cluster_url(self):
        assert parse_cluster_url("cluster://a:1,b:2") == ["http://a:1", "http://b:2"]
        assert parse_cluster_url("cluster://https://a:1, b:2") == [
            "https://a:1", "http://b:2",
        ]
        with pytest.raises(ClusterError, match="no shard servers"):
            parse_cluster_url("cluster://")
        with pytest.raises(ClusterError, match="cluster://"):
            parse_cluster_url("http://a:1")


# ----------------------------------------------------------------------
# Live-cluster wiring and failure attribution
# ----------------------------------------------------------------------
class TestLiveCluster:
    @pytest.fixture()
    def shard_servers(self, cluster_dir, graph_server):
        return [
            graph_server(load_shard(cluster_dir / f"shard-{shard:02d}"))
            for shard in range(3)
        ]

    def test_cluster_url_drives_live_shards(self, cluster_dir, shard_servers, reference):
        url = "cluster://" + ",".join(
            server.url.removeprefix("http://") for server in shard_servers
        )
        with as_backend(url) as cluster:
            assert isinstance(cluster, ShardedBackend)
            assert len(cluster) == len(reference)
            node = reference.node_ids()[0]
            assert cluster.fetch(node) == reference.fetch(node)

    def test_shard_death_mid_ensemble_names_the_shard(
        self, cluster_dir, shard_servers, reference
    ):
        """One shard dying mid-ensemble fails typed, naming the dead shard.

        Shard 1's storage starts failing after its first two batched
        fetches; the client's bounded retries exhaust against persistent
        500s and the scheduler's next frontier batch surfaces a ShardError
        attributing the failure to shard 1's address — not a generic error.
        """
        from fakes import FlakyBackend

        doomed = shard_servers[1]
        doomed.service.graph_backend = FlakyBackend(
            doomed.service.graph_backend,
            plan=[None, None] + [RuntimeError("storage tier died")] * 1000,
        )
        manifest = json.loads((cluster_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        clients = [
            HTTPGraphBackend(server.url, retries=1, backoff=0.0, sleep=lambda _: None)
            for server in shard_servers
        ]
        with ShardedBackend(clients, ring) as cluster:
            api = build_api(cluster, budget=200)
            walkers = [make_walker("cnrw", api=api, seed=seed) for seed in (1, 2, 3, 4)]
            starts = reference.node_ids()[:4]
            from repro.engine import WalkScheduler

            with pytest.raises(ShardError) as excinfo:
                WalkScheduler(api).run(walkers, starts, steps=60)
            assert excinfo.value.shard == 1
            assert excinfo.value.url == shard_servers[1].url
            assert shard_servers[1].url in str(excinfo.value)
            # The healthy shards still answer after the failure.
            healthy = next(
                node for node in reference.node_ids()
                if cluster.shard_of(node) != 1
            )
            assert cluster.fetch(healthy) == reference.fetch(healthy)

    def test_fetch_many_single_shard_failure_is_attributed(
        self, cluster_dir, shard_servers, reference
    ):
        manifest = json.loads((cluster_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        clients = [
            HTTPGraphBackend(server.url, retries=0, timeout=2.0)
            for server in shard_servers
        ]
        shard_servers[2].close()  # this shard is simply gone
        with ShardedBackend(clients, ring) as cluster:
            victim = next(
                node for node in reference.node_ids() if cluster.shard_of(node) == 2
            )
            survivor = next(
                node for node in reference.node_ids() if cluster.shard_of(node) == 0
            )
            with pytest.raises(ShardError) as excinfo:
                cluster.fetch_many([survivor, victim])
            assert excinfo.value.shard == 2
            with pytest.raises(ShardError) as single_info:
                cluster.fetch(victim)
            assert single_info.value.shard == 2


# ----------------------------------------------------------------------
# Connection lifecycle (satellite: context managers + Session.close)
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_with_as_backend_closes_http_connection(self, cluster_graph, graph_server):
        server = graph_server(InMemoryBackend(cluster_graph))
        with as_backend(server.url) as backend:
            assert isinstance(backend, HTTPGraphBackend)
            backend.fetch(cluster_graph.nodes()[0])
            assert backend._connection is not None
        assert backend._connection is None

    def test_with_as_backend_closes_cluster(self, cluster_dir, graph_server):
        urls = [
            graph_server(load_shard(cluster_dir / f"shard-{shard:02d}")).url
            for shard in range(3)
        ]
        with cluster_from_urls(urls) as cluster:
            cluster.fetch_many(cluster.node_ids()[:8])
        for client in cluster.shard_backends:
            assert client._connection is None

    def test_local_backends_are_context_managers_too(self, reference):
        with as_backend(reference) as backend:
            assert backend is reference
        reference.fetch(reference.node_ids()[0])  # close was a no-op

    def test_session_close_delegates_to_backend(self, cluster_graph, graph_server):
        server = graph_server(InMemoryBackend(cluster_graph))
        with SamplingSession(server.url, seed=1) as session:
            session.budget(30).walker("srw", seed=1)
            session.run(max_steps=5)
            client = session.api.backend
            assert client._connection is not None
        assert client._connection is None
        # The session stays usable: the next query reconnects.
        session.run(start=cluster_graph.nodes()[0], max_steps=2)
        assert client._connection is not None
        session.close()
        assert client._connection is None

    def test_session_close_without_built_stack_closes_backend_source(
        self, cluster_graph, graph_server
    ):
        server = graph_server(InMemoryBackend(cluster_graph))
        client = HTTPGraphBackend(server.url)
        client.fetch(cluster_graph.nodes()[0])
        session = SamplingSession(client)
        session.close()  # never built a stack; must close the source itself
        assert client._connection is None


# ----------------------------------------------------------------------
# Replica routing (ring successor walks)
# ----------------------------------------------------------------------
class TestReplicaRouting:
    def test_replica_routes_are_pinned_across_runs(self):
        """Replica placement must never re-route between releases: the
        on-disk replicated layout (and failover) depend on it.  Frozen."""
        ring = HashRing(3, vnodes=8)
        assert [ring.shards_of(node, 2) for node in range(10)] == [
            (0, 2), (2, 1), (1, 2), (2, 1), (0, 2),
            (0, 2), (1, 2), (1, 2), (2, 1), (2, 1),
        ]
        assert [
            ring.shards_of(node, 2) for node in ("alice", "bob", "carol", "dave")
        ] == [(2, 1), (0, 2), (2, 0), (2, 1)]
        default = HashRing(5)
        assert [default.shards_of(node, 3) for node in range(8)] == [
            (1, 3, 2), (3, 0, 4), (4, 3, 0), (4, 3, 1),
            (3, 4, 2), (3, 0, 1), (4, 3, 0), (0, 4, 3),
        ]

    def test_first_replica_is_the_primary(self):
        ring = HashRing(4)
        for node in range(50):
            route = ring.shards_of(node, 3)
            assert route[0] == ring.shard_of(node)
            assert len(set(route)) == len(route) == 3
            assert all(0 <= shard < 4 for shard in route)
        # k=1 degenerates to plain primary routing.
        assert all(
            ring.shards_of(node, 1) == (ring.shard_of(node),) for node in range(50)
        )

    def test_full_replication_covers_every_shard(self):
        ring = HashRing(3)
        for node in range(20):
            assert sorted(ring.shards_of(node, 3)) == [0, 1, 2]

    def test_replica_count_is_validated(self):
        ring = HashRing(3)
        with pytest.raises(ClusterError, match="replicas"):
            ring.shards_of(0, 0)
        with pytest.raises(ClusterError, match="replicas"):
            ring.shards_of(0, 4)


# ----------------------------------------------------------------------
# Replicated partition layout (v2 manifests)
# ----------------------------------------------------------------------
class TestReplicatedPartition:
    def test_manifest_records_replica_spec_and_epoch(self, replicated_dir, reference):
        manifest = json.loads((replicated_dir / "cluster.json").read_text())
        assert manifest["format"] == CLUSTER_FORMAT
        assert manifest["version"] == CLUSTER_VERSION
        assert manifest["replicas"] == 2
        assert manifest["epoch"] == 0
        assert manifest["nodes"] == len(reference)
        # Every node is stored twice, but owned (primary) exactly once.
        assert sum(entry["nodes"] for entry in manifest["shards"]) == 2 * len(reference)
        assert sum(entry["primary"] for entry in manifest["shards"]) == len(reference)

    def test_every_node_is_stored_on_its_replica_set(self, replicated_dir, reference):
        manifest = json.loads((replicated_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        slices = [
            load_shard(replicated_dir / f"shard-{shard:02d}") for shard in range(3)
        ]
        try:
            for node in reference.node_ids():
                stored_on = [
                    shard for shard, backend in enumerate(slices)
                    if backend.contains(node)
                ]
                assert sorted(ring.shards_of(node, 2)) == stored_on
                for shard in stored_on:
                    assert slices[shard].fetch(node) == reference.fetch(node)
                assert slices[ring.shard_of(node)].contains(node)
        finally:
            for backend in slices:
                backend.close()

    def test_cluster_reassembles_without_double_counting(
        self, replicated_dir, reference
    ):
        with load_cluster(replicated_dir) as cluster:
            assert cluster.replicas == 2
            assert len(cluster) == len(reference)
            assert sorted(cluster.node_ids()) == sorted(reference.node_ids())
            nodes = reference.node_ids()
            probe = [nodes[2], nodes[0], nodes[2], nodes[5]]
            assert cluster.fetch_many(probe) == reference.fetch_many(probe)
            assert cluster.metadata(nodes[3]) == reference.metadata(nodes[3])
            assert cluster.metadata("no-such-node") is None
            with pytest.raises(NodeNotFoundError):
                cluster.fetch("no-such-node")

    def test_walks_identical_to_unpartitioned_graph(self, replicated_dir, reference):
        def run(source):
            api = build_api(source, budget=60)
            start = reference.node_ids()[0]
            result = make_walker("cnrw", api=api, seed=7).run(start, max_steps=None)
            return result.path, api.unique_queries, api.total_queries

        with load_cluster(replicated_dir) as cluster:
            assert run(cluster) == run(reference)

    def test_v1_manifest_loads_as_single_replica(self, cluster_graph, tmp_path):
        """Pre-replication manifests stay loadable: replicas=1, no epoch check."""
        snapshot = save_snapshot(cluster_graph, tmp_path / "snap")
        out = partition_snapshot(snapshot, tmp_path / "parts", shards=2)
        manifest_path = out / "cluster.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        del manifest["replicas"]
        del manifest["epoch"]
        for entry in manifest["shards"]:
            entry.pop("primary", None)
        manifest_path.write_text(json.dumps(manifest))
        with load_cluster(out) as cluster:
            assert cluster.replicas == 1
            assert cluster.expected_epoch is None
            node = cluster.node_ids()[0]
            assert cluster.fetch(node).node == node

    def test_replicas_beyond_shards_are_rejected(self, cluster_graph, tmp_path):
        snapshot = save_snapshot(cluster_graph, tmp_path / "snap")
        with pytest.raises(ClusterError, match="replicas"):
            partition_snapshot(snapshot, tmp_path / "parts", shards=3, replicas=4)


# ----------------------------------------------------------------------
# Incremental repartition + epoch-versioned membership
# ----------------------------------------------------------------------
class TestRepartition:
    @staticmethod
    def _partition(cluster_graph, tmp_path, **kwargs):
        snapshot = save_snapshot(cluster_graph, tmp_path / "snap")
        return partition_snapshot(snapshot, tmp_path / "parts", shards=3, **kwargs)

    def test_identity_repartition_moves_nothing(
        self, cluster_graph, reference, tmp_path
    ):
        out = self._partition(cluster_graph, tmp_path)
        report = repartition(out)
        assert report["moved"] == 0
        assert report["rebuilt"] == []
        assert report["epoch"] == 1
        assert report["shards"] == 3
        assert report["replicas"] == 1
        assert report["nodes"] == len(reference)
        manifest = json.loads((out / "cluster.json").read_text())
        assert manifest["epoch"] == 1
        with load_cluster(out) as cluster:
            node = reference.node_ids()[0]
            assert cluster.fetch(node) == reference.fetch(node)

    def test_scale_out_copies_only_reassigned_nodes(
        self, cluster_graph, reference, tmp_path
    ):
        out = self._partition(cluster_graph, tmp_path)
        report = repartition(out, shards=4)
        assert report["shards"] == 4
        assert report["epoch"] == 1
        # Consistent hashing: adding one shard moves ~nodes/shards, never all.
        assert 0 < report["moved"] < len(reference)
        assert (out / "shard-03").is_dir()
        with load_cluster(out) as cluster:
            assert len(cluster) == len(reference)
            for node in reference.node_ids():
                assert cluster.fetch(node) == reference.fetch(node)

    def test_scale_in_removes_orphan_shards(self, cluster_graph, reference, tmp_path):
        out = self._partition(cluster_graph, tmp_path)
        report = repartition(out, shards=2)
        assert report["shards"] == 2
        assert not (out / "shard-02").exists()
        with load_cluster(out) as cluster:
            assert len(cluster) == len(reference)
            assert sorted(cluster.node_ids()) == sorted(reference.node_ids())

    def test_raising_the_replication_factor_stores_second_copies(
        self, cluster_graph, reference, tmp_path
    ):
        out = self._partition(cluster_graph, tmp_path)
        report = repartition(out, replicas=2)
        assert report["replicas"] == 2
        assert report["moved"] == len(reference)  # one new copy per node
        manifest = json.loads((out / "cluster.json").read_text())
        assert manifest["replicas"] == 2
        ring = HashRing.from_spec(manifest["ring"])
        slices = [load_shard(out / f"shard-{shard:02d}") for shard in range(3)]
        try:
            for node in reference.node_ids():
                stored_on = [
                    shard for shard, backend in enumerate(slices)
                    if backend.contains(node)
                ]
                assert sorted(ring.shards_of(node, 2)) == stored_on
        finally:
            for backend in slices:
                backend.close()
        with load_cluster(out) as cluster:
            assert cluster.replicas == 2
            assert len(cluster) == len(reference)

    def test_remote_clusters_are_rejected(self, cluster_dir, tmp_path):
        manifest = json.loads((cluster_dir / "cluster.json").read_text())
        for entry in manifest["shards"]:
            entry["source"] = "http://127.0.0.1:1/"
        (tmp_path / "cluster.json").write_text(json.dumps(manifest))
        with pytest.raises(ClusterError, match="remote server"):
            repartition(tmp_path)

    def test_stale_manifest_is_detected_through_the_epoch(
        self, cluster_graph, tmp_path
    ):
        """A client loading a pre-repartition manifest fails typed, not wrong."""
        out = self._partition(cluster_graph, tmp_path, replicas=2)
        stale = (out / "cluster.json").read_text()
        repartition(out)  # bumps every shard's epoch to 1
        (out / "cluster.json").write_text(stale)  # the client kept epoch 0
        with pytest.raises(StaleManifestError) as excinfo:
            load_cluster(out)
        assert isinstance(excinfo.value, ShardError)  # per-shard attribution
        assert excinfo.value.shard is not None
        assert "epoch" in str(excinfo.value)


# ----------------------------------------------------------------------
# Replica failover (the self-healing read path)
# ----------------------------------------------------------------------
class TestFailover:
    @pytest.fixture()
    def replicated_servers(self, replicated_dir, graph_server):
        return [
            graph_server(load_shard(replicated_dir / f"shard-{shard:02d}"))
            for shard in range(3)
        ]

    @staticmethod
    def _cluster(replicated_dir, servers, *, retries=1, **options):
        manifest = json.loads((replicated_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        clients = [
            HTTPGraphBackend(
                server.url, retries=retries, backoff=0.0, sleep=lambda _: None
            )
            for server in servers
        ]
        return ShardedBackend(clients, ring, replicas=2, **options)

    def test_ensemble_bit_identical_while_one_replica_is_down(
        self, replicated_dir, replicated_servers, reference
    ):
        """Kill one shard mid-ensemble: the walk must not notice.

        Shard 1's storage dies after its first two batched fetches.  With
        replication factor 2 every node it stored has one more replica, so
        the scheduler's ensemble completes and its paths and query
        accounting are bit-identical to the healthy-cluster run *and* to a
        local single-backend run.
        """
        from fakes import FlakyBackend
        from repro.engine import WalkScheduler

        def run_ensemble(source):
            api = build_api(source, budget=500)
            walkers = [
                make_walker("cnrw", api=api, seed=seed) for seed in (1, 2, 3, 4)
            ]
            starts = reference.node_ids()[:4]
            results = WalkScheduler(api).run(walkers, starts, steps=60)
            paths = [result.path for result in results]
            return paths, api.unique_queries, api.total_queries

        local = run_ensemble(reference)
        with self._cluster(replicated_dir, replicated_servers) as cluster:
            healthy = run_ensemble(cluster)
        assert healthy == local

        doomed = replicated_servers[1]
        doomed.service.graph_backend = FlakyBackend(
            doomed.service.graph_backend,
            plan=[None, None] + [RuntimeError("storage tier died")] * 1000,
        )
        with self._cluster(
            replicated_dir, replicated_servers, failover_cooldown=300.0
        ) as cluster:
            wounded = run_ensemble(cluster)
            assert 1 in cluster.dead_shards  # the failure was noticed...
        assert wounded == local  # ...and completely absorbed

    def test_cluster_urls_autodetect_replication_from_info(
        self, replicated_servers, reference
    ):
        """`cluster://` clients read replicas + epoch off `GET /info`, so a
        replicated layout gets failover (and honest len()) without a
        manifest."""
        with cluster_from_urls([s.url for s in replicated_servers]) as cluster:
            assert cluster.replicas == 2
            assert cluster.expected_epoch == 0
            assert len(cluster) == len(reference)
            assert sorted(cluster.node_ids()) == sorted(reference.node_ids())
        with cluster_from_urls(
            [s.url for s in replicated_servers], replicas=1
        ) as cluster:  # explicit factor skips the probe
            assert cluster.replicas == 1
            assert cluster.expected_epoch is None

    def test_len_sums_published_primary_counts(
        self, replicated_servers, reference
    ):
        """Every shard publishes its primary count on `/info`, so `len()`
        of a replicated cluster downloads no id table."""
        for server in replicated_servers:
            server.service.reset_stats()
        with cluster_from_urls([s.url for s in replicated_servers]) as cluster:
            assert len(cluster) == len(reference)
        for server in replicated_servers:
            endpoints = server.service.stats_payload()["endpoints"]
            assert endpoints.get("/node-ids", 0) == 0

    def test_len_falls_back_to_enumeration_with_a_dead_shard(
        self, replicated_dir, replicated_servers, reference
    ):
        replicated_servers[1].close()
        with self._cluster(
            replicated_dir, replicated_servers, retries=0
        ) as cluster:
            assert len(cluster) == len(reference)
            assert 1 in cluster.dead_shards
        survivors = [replicated_servers[0], replicated_servers[2]]
        assert all(
            s.service.stats_payload()["endpoints"].get("/node-ids") == 1
            for s in survivors
        )

    def test_total_outage_raises_an_attributed_error(
        self, replicated_dir, replicated_servers, reference
    ):
        manifest = json.loads((replicated_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        victim = next(
            node for node in reference.node_ids()
            if sorted(ring.shards_of(node, 2)) == [1, 2]
        )
        survivor = next(
            node for node in reference.node_ids() if 0 in ring.shards_of(node, 2)
        )
        replicated_servers[1].close()
        replicated_servers[2].close()
        with self._cluster(
            replicated_dir, replicated_servers, retries=0
        ) as cluster:
            with pytest.raises(ShardError, match="every replica") as excinfo:
                cluster.fetch(victim)
            assert excinfo.value.shard in (1, 2)
            assert isinstance(excinfo.value.__cause__, ShardError)
            with pytest.raises(ShardError, match="every replica"):
                cluster.fetch_many([survivor, victim])
            # Nodes with one live replica still answer through failover.
            assert cluster.fetch(survivor) == reference.fetch(survivor)

    def test_reads_round_robin_across_live_replicas(self, replicated_dir, reference):
        class Counting:
            def __init__(self, inner):
                self.inner = inner
                self.fetches = 0

            def fetch(self, node):
                self.fetches += 1
                return self.inner.fetch(node)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        manifest = json.loads((replicated_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        slices = [
            Counting(load_shard(replicated_dir / f"shard-{shard:02d}"))
            for shard in range(3)
        ]
        cluster = ShardedBackend(slices, ring, replicas=2)
        try:
            node = reference.node_ids()[0]
            route = cluster.shards_of(node)
            for _ in range(4):
                assert cluster.fetch(node) == reference.fetch(node)
            assert [slices[shard].fetches for shard in route] == [2, 2]
        finally:
            cluster.close()

    def test_node_ids_survive_a_dead_shard_when_replicated(
        self, replicated_dir, cluster_dir, reference
    ):
        """Id enumeration tolerates up to replicas-1 failed shards.

        With replication factor 2 every node's ids live on two shards, so
        the union over any two survivors is provably complete; a second
        concurrent failure (or any failure at k=1) still raises attributed.
        """
        class Dead:
            name = "dead"

            def node_ids(self):
                raise RuntimeError("enumeration tier died")

            def close(self):
                pass

        manifest = json.loads((replicated_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        backends = [
            load_shard(replicated_dir / f"shard-{shard:02d}") for shard in range(3)
        ]
        live = list(backends)
        live[1] = Dead()
        backends[1].close()
        with ShardedBackend(live, ring, replicas=2) as cluster:
            assert sorted(cluster.node_ids()) == sorted(reference.node_ids())
            assert len(cluster) == len(reference)
            assert 1 in cluster.dead_shards
        two_dead = [load_shard(replicated_dir / "shard-00"), Dead(), Dead()]
        with ShardedBackend(two_dead, ring, replicas=2) as cluster:
            with pytest.raises(ShardError) as excinfo:
                cluster.node_ids()
            assert excinfo.value.shard == 2
        unreplicated = [
            load_shard(cluster_dir / f"shard-{shard:02d}") for shard in range(3)
        ]
        unreplicated[1] = Dead()
        with ShardedBackend(unreplicated, HashRing(3)) as cluster:
            with pytest.raises(ShardError) as excinfo:
                cluster.node_ids()
            assert excinfo.value.shard == 1

    def test_dead_replica_sits_out_the_cooldown_then_is_reprobed(
        self, replicated_dir, reference
    ):
        class Failing:
            def __init__(self, inner):
                self.inner = inner
                self.attempts = 0

            def fetch(self, node):
                self.attempts += 1
                raise RuntimeError("flapping storage")

            def __getattr__(self, name):
                return getattr(self.inner, name)

        manifest = json.loads((replicated_dir / "cluster.json").read_text())
        ring = HashRing.from_spec(manifest["ring"])
        node = reference.node_ids()[0]
        primary = ring.shards_of(node, 2)[0]
        backends = [
            load_shard(replicated_dir / f"shard-{shard:02d}") for shard in range(3)
        ]
        failing = Failing(backends[primary])
        backends[primary] = failing
        now = [0.0]
        cluster = ShardedBackend(
            backends, ring, replicas=2,
            failover_cooldown=10.0, clock=lambda: now[0],
        )
        try:
            # First read probes the primary, fails over, marks it dead.
            assert cluster.fetch(node) == reference.fetch(node)
            assert failing.attempts == 1
            assert primary in cluster.dead_shards
            # Inside the cool-down the dead replica is not touched again.
            assert cluster.fetch(node) == reference.fetch(node)
            assert failing.attempts == 1
            # Past the cool-down the next reads probe it once more.
            now[0] = 11.0
            for _ in range(2):
                assert cluster.fetch(node) == reference.fetch(node)
            assert failing.attempts == 2
            assert primary in cluster.dead_shards
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Satellites: best-effort close, call-order-free routes, aborted-batch drain
# ----------------------------------------------------------------------
class TestCloseAndCaches:
    def test_close_is_best_effort_across_shards(self):
        class Exploding:
            def __init__(self, boom):
                self.boom = boom
                self.name = boom
                self.closed = False

            def close(self):
                self.closed = True
                raise RuntimeError(self.boom)

        class Quiet:
            name = "quiet"

            def __init__(self):
                self.closed = False

            def close(self):
                self.closed = True

        shards = [Exploding("boom-0"), Quiet(), Exploding("boom-2")]
        cluster = ShardedBackend(shards, HashRing(3))
        with pytest.raises(RuntimeError, match="boom-0"):
            cluster.close()  # first error re-raised, but every shard closed
        assert all(shard.closed for shard in shards)

    def test_equal_ids_that_encode_differently_route_by_their_own_key(
        self, cluster_dir
    ):
        """``1.0 == 1`` and ``0 == False`` but their JSON keys differ, so the
        ring may route them apart; asking for one first must not change the
        answer for the other."""
        ring = HashRing(3)
        assert ring.shards_of(1, 1) != ring.shards_of(1.0, 1)
        assert ring.shards_of(0, 1) != ring.shards_of(False, 1)
        backends = [
            load_shard(cluster_dir / f"shard-{shard:02d}") for shard in range(3)
        ]
        with ShardedBackend(backends, ring) as cluster:
            for first, second in ((1.0, 1), (1, 1.0), (0, False), (False, 0)):
                cluster.shards_of(first)
                assert cluster.shards_of(second) == ring.shards_of(second, 1)


class TestAbortedBatchDrain:
    """A fetch_many aborted mid-drain must leave every connection reusable."""

    @pytest.fixture()
    def flaky_servers(self, cluster_dir, graph_server):
        from fakes import FlakyHTTPHandler

        return [
            graph_server(
                load_shard(cluster_dir / f"shard-{shard:02d}"),
                handler_class=FlakyHTTPHandler,
            )
            for shard in range(3)
        ]

    def _cluster(self, flaky_servers):
        clients = [
            HTTPGraphBackend(server.url, retries=0, timeout=5.0)
            for server in flaky_servers
        ]
        return ShardedBackend(clients, HashRing(3))

    def test_second_batch_succeeds_after_a_shard_failure_abort(
        self, cluster_dir, flaky_servers, reference
    ):
        with self._cluster(flaky_servers) as cluster:
            batch = reference.node_ids()[:12]
            assert {cluster.shard_of(node) for node in batch} == {0, 1, 2}
            # One 500: with retries=0 the pipelined request is the only
            # attempt (no re-send outside the bounded retry loop).
            flaky_servers[1].fault_plan = deque(["500"])
            with pytest.raises(ShardError) as excinfo:
                cluster.fetch_many(batch)
            assert excinfo.value.shard == 1
            # The healthy shards' keep-alive connections were fully drained,
            # so the very next pipelined batch reuses them and succeeds.
            assert cluster.fetch_many(batch) == reference.fetch_many(batch)

    def test_failing_shard_gets_exactly_retries_plus_one_requests(
        self, cluster_dir, flaky_servers, reference
    ):
        with self._cluster(flaky_servers) as cluster:
            batch = reference.node_ids()[:12]
            flaky_servers[1].fault_plan = deque(["500"] * 3)
            with pytest.raises(ShardError):
                cluster.fetch_many(batch)
            # retries=0: one attempt in total, pipelined or not.
            assert [s.service.endpoint_counts["/nodes"] for s in flaky_servers] == [1, 1, 1]

    def test_second_batch_succeeds_after_a_miss_abort(
        self, cluster_dir, flaky_servers, reference
    ):
        with self._cluster(flaky_servers) as cluster:
            nodes = reference.node_ids()
            batch = nodes[:12]
            with pytest.raises(NodeNotFoundError):
                cluster.fetch_many([nodes[0], "no-such-node", nodes[5]])
            assert cluster.fetch_many(batch) == reference.fetch_many(batch)
