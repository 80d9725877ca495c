"""Cross-backend conformance suite: the contract every GraphBackend must pass.

One suite, parametrized over all shipped backends — InMemory, CSR,
memory-mapped CSR snapshot, crawl-dump replay, the remote
``HTTPGraphBackend`` driving a live in-process server (once open, once
as a budgeted tenant whose every fetch is billed by the service), the
``ShardedBackend`` driving *three* live in-process shard servers through a
consistent-hash ring (once unreplicated, once with replication factor 2),
and the SQLite-served ``WarehouseBackend`` over an ingested full dump — asserting that they are *indistinguishable* through
the access layer: identical ``RawRecord``s (neighbor order included),
identical golden walk fingerprints for every transition kernel under fixed
seeds, identical ``QueryStats`` accounting through the full middleware
stack, and loss-free snapshot / dump round trips.

Any future backend (a tiered store, say) must be added to ``BACKEND_KINDS`` and
pass unchanged: the paper's cost model and every seeded experiment depend on
storage being invisible above the backend protocol.  The ``http`` entry is
the proof for the client/server split, and the ``sharded`` entry for the
cluster tier: a partitioned graph walks bit-identically to a local one,
with the exact same accounting.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    CSRBackend,
    GraphBackend,
    HTTPGraphBackend,
    InMemoryBackend,
    as_backend,
    build_api,
)
from repro.api.ratelimit import FixedWindowPolicy
from repro.exceptions import (
    CrawlDumpError,
    NodeNotFoundError,
    ReplayMissError,
    ReproError,
    SnapshotError,
    format_node_id,
)
from repro.graphs import Graph, load_dataset
from repro.storage import (
    MmapCSRBackend,
    ReplayBackend,
    dump_crawl,
    load_crawl,
    load_snapshot,
    save_snapshot,
)
from repro.walks import make_walker
import repro.obs as obs

#: Every backend the library ships; the whole suite runs once per entry.
BACKEND_KINDS = (
    "memory", "csr", "mmap", "replay", "http", "tenant", "sharded",
    "replicated", "warehouse",
)

#: Kernels whose walks must fingerprint identically on every backend.
KERNEL_NAMES = ("srw", "mhrw", "nbsrw", "cnrw", "nbcnrw", "gnrw_by_degree")

# Golden fingerprints for the conformance graph (facebook_like, seed=7,
# scale=0.12; start nodes()[0]; walker seed 7; budget 60) — the exact walks
# the pre-refactor monolithic GraphAPI produced, re-pinned here independently
# of tests/test_api_stack.py so storage backends are checked against the
# historic behaviour, not merely against each other.
GOLDEN = {
    "srw": dict(unique=60, total=309, path_len=155, crc=4134503233),
    "cnrw": dict(unique=60, total=313, path_len=157, crc=4053506785),
    "gnrw_by_degree": dict(unique=60, total=265, path_len=133, crc=3972249094),
    "nbcnrw": dict(unique=60, total=251, path_len=126, crc=2042235279),
    "mhrw": dict(unique=60, total=405, path_len=203, crc=726656939),
}
GOLDEN_BUDGET = 60
GOLDEN_SEED = 7


def _path_crc(path):
    return zlib.crc32(",".join(map(str, path)).encode())


@pytest.fixture(scope="module", autouse=True)
def _telemetry_on():
    """The whole conformance suite runs with telemetry enabled.

    The golden fingerprints are the proof that tracing is inert: every
    backend must reproduce the exact pre-telemetry walks while a live
    tracer collects spans and the global registry counts every query.
    """
    tracer = obs.Tracer()
    obs.enable_telemetry()
    try:
        with obs.use_tracer(tracer):
            yield
    finally:
        obs.disable_telemetry()
        obs.global_registry().reset()


@pytest.fixture(scope="module")
def conformance_graph() -> Graph:
    return load_dataset("facebook_like", seed=7, scale=0.12)


@pytest.fixture(scope="module")
def snapshot_dir(conformance_graph, tmp_path_factory) -> Path:
    return save_snapshot(conformance_graph, tmp_path_factory.mktemp("snap") / "csr")


@pytest.fixture(scope="module")
def dump_path(conformance_graph, tmp_path_factory) -> Path:
    # A full dump (every node) so any seeded walk stays inside the replay.
    backend = InMemoryBackend(conformance_graph)
    return dump_crawl(
        backend,
        tmp_path_factory.mktemp("dump") / "crawl.jsonl",
        nodes=backend.node_ids(),
    )


@pytest.fixture(scope="module")
def warehouse_path(dump_path, tmp_path_factory) -> Path:
    """A warehouse holding one ingested full dump of the conformance graph."""
    from repro.warehouse import CrawlWarehouse

    store = tmp_path_factory.mktemp("warehouse") / "wh.sqlite"
    warehouse = CrawlWarehouse.create(store, name="conformance")
    try:
        warehouse.ingest(dump_path)
    finally:
        warehouse.close()
    return store


@pytest.fixture(scope="module")
def http_server(conformance_graph, graph_server):
    """One live in-process server over the conformance graph, per module."""
    return graph_server(InMemoryBackend(conformance_graph))


#: API key of the conformance tenant served by ``tenant_server``.
TENANT_KEY = "conformance-key"


@pytest.fixture(scope="module")
def tenant_server(conformance_graph, graph_server):
    """A live server whose one tenant's budget is the graph's size plus one.

    A limited budget puts every fetch through the service's reserve/settle
    billing (an unlimited tenant skips it).  Billing counts unique nodes, so
    the graph's size covers every record; the one spare unit is the hold a
    missing-node probe takes before its failed fetch refunds it (the budget
    is checked before the node's existence, so an exhausted tenant learns
    nothing about the graph).
    """
    from repro.server import GraphService

    tenants = {
        "format": "repro-graph-tenants",
        "version": 1,
        "tenants": {
            TENANT_KEY: {"name": "conformance", "budget": len(conformance_graph) + 1},
        },
    }
    return graph_server(
        GraphService(InMemoryBackend(conformance_graph), tenants=tenants)
    )


@pytest.fixture(scope="module")
def remote_cluster_manifest(snapshot_dir, graph_server, tmp_path_factory) -> Path:
    """Partition the conformance snapshot, serve every shard, point a
    ``cluster.json`` at the three live servers."""
    from repro.cluster import load_shard, partition_snapshot

    out_dir = partition_snapshot(
        snapshot_dir, tmp_path_factory.mktemp("cluster") / "parts", shards=3
    )
    manifest = json.loads((out_dir / "cluster.json").read_text())
    for entry in manifest["shards"]:
        server = graph_server(load_shard(out_dir / entry["source"]))
        entry["source"] = server.url
    remote = out_dir / "cluster-remote.json"
    remote.write_text(json.dumps(manifest, indent=2))
    return remote


@pytest.fixture(scope="module")
def replicated_cluster_manifest(snapshot_dir, graph_server, tmp_path_factory) -> Path:
    """Same cluster wiring, but every node stored on two of the three shards:
    reads rotate round-robin across replicas, so conformance here proves
    failover routing is invisible above the backend protocol."""
    from repro.cluster import load_shard, partition_snapshot

    out_dir = partition_snapshot(
        snapshot_dir, tmp_path_factory.mktemp("replicated") / "parts",
        shards=3, replicas=2,
    )
    manifest = json.loads((out_dir / "cluster.json").read_text())
    for entry in manifest["shards"]:
        server = graph_server(load_shard(out_dir / entry["source"]))
        entry["source"] = server.url
    remote = out_dir / "cluster-remote.json"
    remote.write_text(json.dumps(manifest, indent=2))
    return remote


@pytest.fixture(params=BACKEND_KINDS)
def backend(
    request, conformance_graph, snapshot_dir, dump_path, http_server,
    tenant_server, remote_cluster_manifest, replicated_cluster_manifest,
    warehouse_path,
):
    kind = request.param
    if kind == "memory":
        made: GraphBackend = InMemoryBackend(conformance_graph)
    elif kind == "csr":
        made = CSRBackend.from_graph(conformance_graph)
    elif kind == "mmap":
        made = load_snapshot(snapshot_dir)
    elif kind == "replay":
        made = load_crawl(dump_path)
    elif kind == "http":
        made = HTTPGraphBackend(http_server.url, timeout=10.0)
    elif kind == "tenant":
        # Tenant billing must be invisible above the protocol: same
        # records, same walks, same client-side accounting.
        made = HTTPGraphBackend(tenant_server.url, timeout=10.0, api_key=TENANT_KEY)
    elif kind == "warehouse":
        from repro.warehouse import WarehouseBackend

        made = WarehouseBackend(warehouse_path)
    elif kind == "replicated":
        # Replicated cluster: three live shard servers, replication factor 2.
        made = as_backend(str(replicated_cluster_manifest))
    else:
        # The whole cluster path: manifest -> ring + three HTTP shard clients.
        made = as_backend(str(remote_cluster_manifest))
    yield made
    made.close()


@pytest.fixture
def reference(conformance_graph) -> InMemoryBackend:
    return InMemoryBackend(conformance_graph)


# ----------------------------------------------------------------------
# Raw record conformance
# ----------------------------------------------------------------------
class TestRawRecords:
    def test_every_record_identical_to_reference(self, backend, reference):
        for node in reference.node_ids():
            assert backend.fetch(node) == reference.fetch(node)

    def test_fetch_many_preserves_order_and_duplicates(self, backend, reference):
        nodes = reference.node_ids()
        probe = [nodes[2], nodes[0], nodes[2], nodes[5]]
        records = backend.fetch_many(probe)
        assert [record.node for record in records] == probe
        assert records == reference.fetch_many(probe)

    def test_missing_node_raises_node_not_found(self, backend):
        missing = "no-such-node"
        with pytest.raises(NodeNotFoundError):
            backend.fetch(missing)
        with pytest.raises(NodeNotFoundError):
            backend.fetch_many([missing])
        assert not backend.contains(missing)

    def test_oversized_int_id_raises_a_typed_error(self, backend):
        """An int too long for ``str()`` (over 4300 digits) is still an id.

        Formatting it for a message or a key must not leak the interpreter's
        bare ``ValueError``: a fetch raises a library error, and ``contains``
        answers ``False`` or raises one.
        """
        huge = 10**5000
        with pytest.raises(ReproError):
            backend.fetch(huge)
        try:
            assert backend.contains(huge) is False
        except ReproError:
            pass

    def test_id_formatting_for_messages_never_raises(self):
        class Unprintable:
            def __repr__(self):
                raise RuntimeError("no repr")

        assert format_node_id("a") == "'a'"
        assert format_node_id(10**5000) == f"<int of {(10**5000).bit_length()} bits>"
        assert format_node_id(Unprintable()) == "<Unprintable id>"

    def test_numpy_integer_id_serves_the_reference_record(self, backend, reference):
        node = next(n for n in reference.node_ids() if type(n) is int)
        assert backend.fetch(np.int64(node)) == reference.fetch(node)
        assert backend.contains(np.int64(node))

    @pytest.mark.parametrize("bogus", ["zzz", 1.5, -1, 10**9])
    def test_identity_id_backends_reject_foreign_ids(self, tmp_path, bogus):
        """Identity-id CSR (and its snapshot) must match fetch()'s typed miss.

        The fetch_many fast path skips the id table entirely, so it needs its
        own guard: a float, string or out-of-range id raises
        NodeNotFoundError — never ValueError, never a silently wrong record.
        """
        csr = CSRBackend.from_edges([(0, 1), (1, 2), (2, 0)])
        mmapped = load_snapshot(save_snapshot(csr, tmp_path / "identity"))
        for identity_backend in (csr, mmapped):
            with pytest.raises(NodeNotFoundError):
                identity_backend.fetch(bogus)
            with pytest.raises(NodeNotFoundError):
                identity_backend.fetch_many([0, bogus])
            assert not identity_backend.contains(bogus)

    def test_mutated_attributes_never_reach_a_later_answer(self, backend, reference):
        """A record's attribute dict is the caller's: no backend keeps it.

        The middleware hands a backend's records up without copying, so
        mutating a fetched record, or a queried view, must not change what
        a later fetch, or a fresh stack's query, returns.
        """
        node = next(n for n in reference.node_ids() if reference.fetch(n).attributes)
        expected = reference.fetch(node).attributes
        for record in (backend.fetch(node), *backend.fetch_many([node, node])):
            record.attributes.clear()
            record.attributes["tampered"] = True
        assert backend.fetch(node).attributes == expected
        assert [r.attributes for r in backend.fetch_many([node, node])] == [expected] * 2
        api = build_api(backend)
        for view in (api.query(node), *build_api(backend).query_many([node])):
            view.attributes["tampered"] = True
        assert build_api(backend).query(node).attributes == expected
        assert build_api(backend).query_many([node])[0].attributes == expected

    def test_contains_metadata_and_len_agree(self, backend, reference):
        assert len(backend) == len(reference)
        assert sorted(backend.node_ids()) == sorted(reference.node_ids())
        for node in reference.node_ids()[:25]:
            assert backend.contains(node)
            assert backend.metadata(node) == reference.metadata(node)
        assert backend.metadata("no-such-node") is None


# ----------------------------------------------------------------------
# Golden walk fingerprints
# ----------------------------------------------------------------------
class TestGoldenWalks:
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_kernel_fingerprint_identical_on_every_backend(
        self, backend, reference, conformance_graph, kernel_name
    ):
        def run(source):
            api = build_api(source, budget=GOLDEN_BUDGET)
            result = make_walker(kernel_name, api=api, seed=GOLDEN_SEED).run(
                conformance_graph.nodes()[0], max_steps=None
            )
            return result.path, result.unique_queries, result.total_queries

        path, unique, total = run(backend)
        assert (path, unique, total) == run(reference)
        golden = GOLDEN.get(kernel_name)
        if golden is not None:
            assert unique == golden["unique"]
            assert total == golden["total"]
            assert len(path) == golden["path_len"]
            assert _path_crc(path) == golden["crc"]

    def test_scheduler_ensemble_identical_on_every_backend(
        self, backend, reference, conformance_graph
    ):
        """Batched lockstep ensembles fingerprint identically too."""
        from repro.engine import WalkScheduler

        def run(source):
            api = build_api(source, budget=120)
            walkers = [make_walker("cnrw", api=api, seed=seed) for seed in (1, 2, 3, 4)]
            starts = conformance_graph.nodes()[:4]
            results = WalkScheduler(api).run(walkers, starts, steps=40)
            return (
                [result.path for result in results],
                api.unique_queries,
                api.total_queries,
            )

        assert run(backend) == run(reference)


# ----------------------------------------------------------------------
# QueryStats through the full middleware stack
# ----------------------------------------------------------------------
class TestQueryStatsConformance:
    def _crawl(self, source, conformance_graph):
        api = build_api(
            source,
            budget=GOLDEN_BUDGET,
            rate_limit=FixedWindowPolicy(max_calls=100, window_seconds=1.0),
            trace=True,
        )
        make_walker("cnrw", api=api, seed=GOLDEN_SEED).run(
            conformance_graph.nodes()[0], max_steps=None
        )
        return api

    def test_full_stack_accounting_identical(self, backend, reference, conformance_graph):
        stacked = self._crawl(backend, conformance_graph)
        expected = self._crawl(reference, conformance_graph)
        assert stacked.unique_queries == expected.unique_queries
        assert stacked.total_queries == expected.total_queries
        assert stacked.trace.queried_nodes == expected.trace.queried_nodes
        assert stacked.trace.fresh_nodes == expected.trace.fresh_nodes
        assert stacked.trace.frequency() == expected.trace.frequency()
        assert stacked.clock.now == expected.clock.now

    def test_batched_query_many_accounting_identical(self, backend, reference):
        def batch(source):
            api = build_api(source)
            nodes = sorted(source.node_ids(), key=repr)[:10]
            views = api.query_many(nodes + nodes)  # second half are cache hits
            return (
                [view.node for view in views],
                [view.neighbors for view in views],
                api.unique_queries,
                api.total_queries,
            )

        assert batch(backend) == batch(reference)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_snapshot_roundtrip_is_lossless(self, conformance_graph, tmp_path):
        csr = CSRBackend.from_graph(conformance_graph)
        directory = save_snapshot(csr, tmp_path / "snap")
        for loaded in (load_snapshot(directory), load_snapshot(directory, mmap=False)):
            assert len(loaded) == len(csr)
            assert loaded.node_ids() == csr.node_ids()
            for node in csr.node_ids():
                assert loaded.fetch(node) == csr.fetch(node)
        assert isinstance(load_snapshot(directory), MmapCSRBackend)
        assert not isinstance(load_snapshot(directory, mmap=False), MmapCSRBackend)

    def test_snapshot_of_mmap_backend_copies(self, snapshot_dir, tmp_path):
        first = load_snapshot(snapshot_dir)
        copied = save_snapshot(first, tmp_path / "copy")
        second = load_snapshot(copied)
        assert second.node_ids() == first.node_ids()
        assert second.fetch(first.node_ids()[0]) == first.fetch(first.node_ids()[0])

    def test_resaving_snapshot_onto_itself_is_safe(self, conformance_graph, tmp_path):
        """Saving a live mmap backend back over its own directory must not
        truncate the files its arrays are mapped from."""
        directory = save_snapshot(conformance_graph, tmp_path / "self")
        live = load_snapshot(directory)
        reference = live.fetch(live.node_ids()[0])
        save_snapshot(live, directory)
        # Both the still-open backend and a fresh load stay intact.
        assert live.fetch(live.node_ids()[0]) == reference
        reopened = load_snapshot(directory)
        assert reopened.node_ids() == live.node_ids()
        assert reopened.fetch(live.node_ids()[0]) == reference

    def test_dump_roundtrip_is_lossless(self, conformance_graph, tmp_path):
        backend = InMemoryBackend(conformance_graph)
        path = dump_crawl(backend, tmp_path / "crawl.jsonl", nodes=backend.node_ids())
        replay = load_crawl(path)
        assert replay.node_ids() == backend.node_ids()
        for node in backend.node_ids():
            assert replay.fetch(node) == backend.fetch(node)

    def test_gzip_dump_roundtrip(self, conformance_graph, tmp_path):
        backend = InMemoryBackend(conformance_graph)
        nodes = backend.node_ids()[:10]
        path = dump_crawl(backend, tmp_path / "crawl.jsonl.gz", nodes=nodes)
        replay = load_crawl(path)
        assert replay.node_ids() == nodes

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_traced_run_dump_replays_the_same_walk(
        self, conformance_graph, tmp_path, kernel_name
    ):
        """Record -> dump -> replay reproduces the walk for *every* kernel.

        The metadata-peeking kernels (MHRW degree lookups, GNRW grouping) are
        the demanding cases: they consult neighbors the crawl never fetched,
        so the dump's boundary ``meta`` records must answer those peeks.
        """
        api = build_api(conformance_graph, budget=GOLDEN_BUDGET, trace=True)
        start = conformance_graph.nodes()[0]
        original = make_walker(kernel_name, api=api, seed=GOLDEN_SEED).run(
            start, max_steps=None
        )
        path = dump_crawl(api, tmp_path / "run.jsonl")
        replay_api = build_api(load_crawl(path), budget=GOLDEN_BUDGET)
        replayed = make_walker(kernel_name, api=replay_api, seed=GOLDEN_SEED).run(
            start, max_steps=None
        )
        assert replayed.path == original.path
        assert replayed.unique_queries == original.unique_queries
        assert replayed.total_queries == original.total_queries

    def test_dump_requires_nodes_or_trace(self, conformance_graph, tmp_path):
        with pytest.raises(ValueError, match="trace"):
            dump_crawl(build_api(conformance_graph), tmp_path / "x.jsonl")


# ----------------------------------------------------------------------
# Replay misses and malformed storage
# ----------------------------------------------------------------------
class TestStorageErrors:
    def test_out_of_dump_query_raises_typed_error(self, conformance_graph, tmp_path):
        backend = InMemoryBackend(conformance_graph)
        nodes = backend.node_ids()[:5]
        replay = load_crawl(dump_crawl(backend, tmp_path / "part.jsonl", nodes=nodes))
        outside = backend.node_ids()[10]
        with pytest.raises(ReplayMissError) as excinfo:
            replay.fetch(outside)
        assert excinfo.value.node == outside
        assert isinstance(excinfo.value, NodeNotFoundError)
        # Through a full stack the miss surfaces unchanged.
        api = build_api(replay, budget=50)
        with pytest.raises(ReplayMissError):
            api.query(outside)

    def test_replay_miss_roundtrips_over_http(
        self, conformance_graph, graph_server, tmp_path
    ):
        """ReplayMissError -> HTTP 404 -> client typed error, id intact.

        A replay-backed *server* must report out-of-dump queries exactly like
        a local replay: the client raises a NodeNotFoundError (specifically
        ReplayMissError) carrying the original node id — both as the typed
        ``.node`` attribute and in the human-readable message.
        """
        backend = InMemoryBackend(conformance_graph)
        nodes = backend.node_ids()[:5]
        dump = dump_crawl(backend, tmp_path / "part.jsonl", nodes=nodes)
        server = graph_server(load_crawl(dump))
        outside = backend.node_ids()[10]
        with HTTPGraphBackend(server.url) as client:
            # Recorded nodes replay identically through the service.
            assert client.fetch(nodes[0]) == backend.fetch(nodes[0])
            with pytest.raises(NodeNotFoundError) as excinfo:
                client.fetch(outside)
            assert isinstance(excinfo.value, ReplayMissError)
            assert excinfo.value.node == outside
            assert str(outside) in str(excinfo.value)
            # Through a full middleware stack the typed miss surfaces too.
            api = build_api(client, budget=20)
            with pytest.raises(ReplayMissError):
                api.query(outside)
            # Batched fetches 404 with the same typed, id-carrying error.
            with pytest.raises(ReplayMissError) as batch_info:
                client.fetch_many([nodes[0], outside])
            assert batch_info.value.node == outside

    def test_snapshot_rejects_missing_or_foreign_directory(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            load_snapshot(tmp_path)

    def test_snapshot_rejects_malformed_manifest_shapes(self, snapshot_dir, tmp_path):
        """Valid JSON of the wrong shape must still fail with SnapshotError."""
        import json
        import shutil

        non_object = tmp_path / "non-object"
        non_object.mkdir()
        (non_object / "manifest.json").write_text("[]")
        with pytest.raises(SnapshotError, match="JSON object"):
            load_snapshot(non_object)

        clone = tmp_path / "no-counts"
        shutil.copytree(snapshot_dir, clone)
        manifest = json.loads((clone / "manifest.json").read_text())
        del manifest["nodes"]
        (clone / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="nodes"):
            load_snapshot(clone)

    def test_snapshot_rejects_foreign_dtype(self, snapshot_dir, tmp_path):
        """A non-int64 snapshot must fail loudly, not silently copy into RAM."""
        import json
        import shutil

        clone = tmp_path / "int32"
        shutil.copytree(snapshot_dir, clone)
        manifest = json.loads((clone / "manifest.json").read_text())
        manifest["dtype"] = "int32"
        (clone / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="dtype"):
            load_snapshot(clone)

    def test_session_dump_requires_a_recorded_run(self, conformance_graph, tmp_path):
        from repro.api import SamplingSession

        session = SamplingSession(conformance_graph).trace()
        with pytest.raises(ValueError, match="empty"):
            session.dump_crawl(tmp_path / "early.jsonl")
        untraced = SamplingSession(conformance_graph)
        with pytest.raises(ValueError, match="trac"):
            untraced.dump_crawl(tmp_path / "untraced.jsonl")

    def test_snapshot_rejects_future_version(self, snapshot_dir, tmp_path):
        import json
        import shutil

        clone = tmp_path / "future"
        shutil.copytree(snapshot_dir, clone)
        manifest = json.loads((clone / "manifest.json").read_text())
        manifest["version"] = 99
        (clone / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(clone)

    def test_save_rejects_ids_and_attributes_json_would_degrade(self, tmp_path):
        """Tuple ids / non-native attribute values fail loudly at save time.

        JSON would silently turn them into lists (reported as a successful
        save, then an unreadable or different snapshot), so both writers must
        refuse before touching the disk.
        """
        tuple_ids = Graph(name="tuples")
        tuple_ids.add_edges([(("a", 1), ("b", 2)), (("b", 2), ("c", 3))])
        with pytest.raises(SnapshotError, match="JSON round trip"):
            save_snapshot(tuple_ids, tmp_path / "bad-ids")
        assert not (tmp_path / "bad-ids" / "manifest.json").exists()
        with pytest.raises(CrawlDumpError, match="JSON-representable"):
            backend = InMemoryBackend(tuple_ids)
            dump_crawl(backend, tmp_path / "bad.jsonl", nodes=backend.node_ids())

        tuple_attrs = Graph(name="attrs")
        tuple_attrs.add_edges([(0, 1)])
        tuple_attrs.set_attributes(0, coords=(1, 2))
        with pytest.raises(SnapshotError, match="attributes"):
            save_snapshot(tuple_attrs, tmp_path / "bad-attrs")
        with pytest.raises(CrawlDumpError, match="JSON-representable"):
            dump_crawl(InMemoryBackend(tuple_attrs), tmp_path / "bad2.jsonl", nodes=[0])

    def test_truncated_gzip_dump_raises_typed_error(self, conformance_graph, tmp_path):
        backend = InMemoryBackend(conformance_graph)
        path = dump_crawl(
            backend, tmp_path / "crawl.jsonl.gz", nodes=backend.node_ids()
        )
        cut = tmp_path / "cut.jsonl.gz"
        cut.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CrawlDumpError, match="truncated"):
            load_crawl(cut)

    def test_corrupt_sidecar_files_raise_snapshot_error(self, tmp_path):
        graph = Graph(name="named")
        graph.add_edges([("a", "b"), ("b", "c")])  # forces node_ids.json
        directory = save_snapshot(graph, tmp_path / "snap")
        (directory / "node_ids.json").write_text("{not json")
        with pytest.raises(SnapshotError, match="node_ids"):
            load_snapshot(directory)
        (directory / "node_ids.json").unlink()
        with pytest.raises(SnapshotError, match="node_ids"):
            load_snapshot(directory)

    def test_dump_rejects_foreign_and_truncated_files(self, conformance_graph, tmp_path):
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"format": "something-else"}\n')
        with pytest.raises(CrawlDumpError, match="format"):
            load_crawl(foreign)
        backend = InMemoryBackend(conformance_graph)
        path = dump_crawl(backend, tmp_path / "t.jsonl", nodes=backend.node_ids()[:5])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CrawlDumpError, match="truncated"):
            load_crawl(path)


# ----------------------------------------------------------------------
# as_backend coercion (satellite: clear errors + path branch)
# ----------------------------------------------------------------------
class TestAsBackend:
    def test_backend_passes_through(self, reference):
        assert as_backend(reference) is reference

    def test_graph_wraps_in_memory(self, conformance_graph):
        assert isinstance(as_backend(conformance_graph), InMemoryBackend)

    def test_str_path_opens_snapshot(self, snapshot_dir):
        assert isinstance(as_backend(str(snapshot_dir)), MmapCSRBackend)

    def test_pathlib_path_opens_dump(self, dump_path):
        assert isinstance(as_backend(Path(dump_path)), ReplayBackend)

    def test_warehouse_file_opens_warehouse_backend(self, warehouse_path):
        """SQLite magic (not the suffix) routes a file to the warehouse."""
        from repro.warehouse import WarehouseBackend

        backend = as_backend(warehouse_path)
        assert isinstance(backend, WarehouseBackend)
        backend.close()
        disguised = warehouse_path.parent / "crawl.jsonl"
        disguised.write_bytes(warehouse_path.read_bytes())
        backend = as_backend(str(disguised))
        assert isinstance(backend, WarehouseBackend)
        backend.close()

    def test_url_opens_http_backend(self, http_server):
        backend = as_backend(http_server.url)
        assert isinstance(backend, HTTPGraphBackend)
        backend.close()

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="snapshot"):
            as_backend(tmp_path / "nowhere")

    @pytest.mark.parametrize("bogus", [42, 3.5, ["edges"], {"a": 1}, None])
    def test_unsupported_type_lists_accepted_types(self, bogus):
        """The TypeError enumerates *every* accepted source, not a subset."""
        with pytest.raises(TypeError) as excinfo:
            as_backend(bogus)
        message = str(excinfo.value)
        assert type(bogus).__name__ in message
        for accepted in ("Graph", "GraphBackend", "str", "Path", "http(s)://",
                         "cluster://", "snapshot", "cluster.json",
                         "crawl-dump", ".sqlite"):
            assert accepted in message

    def test_missing_path_error_lists_accepted_formats(self, tmp_path):
        """The FileNotFoundError enumerates every on-disk format too."""
        with pytest.raises(FileNotFoundError) as excinfo:
            as_backend(tmp_path / "nowhere")
        message = str(excinfo.value)
        for accepted in ("snapshot", "shard", "cluster.json", "crawl-dump",
                         ".sqlite"):
            assert accepted in message

    def test_build_api_accepts_paths(self, snapshot_dir, conformance_graph):
        api = build_api(snapshot_dir, budget=10)
        node = conformance_graph.nodes()[0]
        assert api.query(node).neighbors == tuple(conformance_graph.neighbors(node))

    def test_random_node_identical_and_lazy_for_identity_ids(self, tmp_path):
        """Identity backends sample starts without materialising node_ids.

        The direct draw must consume the rng exactly like the historic
        node_ids()[rng.integers(...)] lookup, so seeded runs are unchanged.
        """
        from repro.rng import make_rng

        csr = CSRBackend.from_edges([(i, i + 1) for i in range(50)])
        mmapped = load_snapshot(save_snapshot(csr, tmp_path / "ids"))
        assert csr.identity_ids and mmapped.identity_ids
        for identity_backend in (csr, mmapped):
            direct = identity_backend.sample_node(make_rng(11))
            legacy = identity_backend.node_ids()[
                int(make_rng(11).integers(0, len(identity_backend)))
            ]
            assert direct == legacy
            api = build_api(identity_backend)
            assert api.random_node(seed=11) == direct

    def test_session_accepts_paths(self, snapshot_dir, dump_path):
        from repro.api import SamplingSession

        for source in (snapshot_dir, str(dump_path)):
            session = SamplingSession(source, seed=1).budget(20).walker("srw", seed=1)
            result = session.run(max_steps=5)
            assert result.steps <= 5
