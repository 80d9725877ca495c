"""Telemetry tests: the metrics registry, wire tracing and /metrics.

The :mod:`repro.obs` subsystem is opt-in and must be invisible when off —
these tests pin both halves:

* registry semantics (counters, gauges, fixed-bucket histograms, Prometheus
  text exposition, atomic reset against concurrent scrapes),
* the ``repro-trace/1`` codec (malformed values are ignored, never refused),
* end-to-end propagation: one traced run produces ONE trace tree whose
  client spans nest the servers' echoed spans — through retries (the trace
  id survives, each retry gets its own span), through replica failover
  (the span records which replicas were tried) and through a live
  replicated cluster's fan-out,
* the scrape surface: ``GET /metrics`` parses as Prometheus text and
  ``GET /stats`` carries per-endpoint latency histograms,
* determinism: a traced walk is bit-identical to an untraced one.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.obs as obs
from repro.api import (
    HTTPGraphBackend,
    InMemoryBackend,
    SamplingSession,
)
from repro.cluster import HashRing, ShardedBackend
from repro.exceptions import NodeNotFoundError, RemoteBackendError, ShardError
from repro.graphs import load_dataset
from repro.obs import (
    MetricsRegistry,
    Tracer,
    format_span_echo,
    format_trace_header,
    parse_span_echo,
    parse_trace_header,
    render_trace_tree,
)
from repro.server import GraphRequestHandler, GraphService

from fakes import FlakyBackend, FlakyHTTPHandler


def tenants_doc(**tenants):
    return {"format": "repro-graph-tenants", "version": 1, "tenants": tenants}


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Telemetry is process-global state; leave none behind."""
    yield
    obs.disable_telemetry()
    obs.activate_tracer(None)
    obs.global_registry().reset()


@pytest.fixture(scope="module")
def obs_graph():
    return load_dataset("facebook_like", seed=7, scale=0.12)


@pytest.fixture(scope="module")
def obs_backend(obs_graph):
    return InMemoryBackend(obs_graph)


def parse_prometheus(text: str):
    """Minimal scrape parser: {metric_or_series: float}, plus TYPE lines.

    Raises on anything that is not valid text exposition — the test's way
    of proving /metrics parses.
    """
    values, types = {}, {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        assert series, f"unparseable sample line: {line!r}"
        values[series] = float(value)  # raises on malformed samples
    return values, types


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_and_labels(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", endpoint="/node")
        registry.inc("requests_total", 2, endpoint="/node")
        registry.inc("requests_total", endpoint="/info")
        registry.set_gauge("walkers", 8)
        assert registry.value("requests_total", endpoint="/node") == 3
        assert registry.value("requests_total", endpoint="/info") == 1
        assert registry.value("requests_total", endpoint="/never") == 0.0
        assert registry.value("walkers") == 8

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency_ms", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            registry.observe("latency_ms", value)
        snapshot = registry.histogram("latency_ms")
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(555.5)
        assert snapshot["buckets"] == {"1": 1, "10": 2, "100": 3, "+Inf": 4}
        assert registry.histogram("never_observed") is None

    def test_injectable_clock_pins_timed_blocks(self):
        ticks = iter([0.0, 0.25])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        with registry.time("block_ms"):
            pass
        assert registry.histogram("block_ms")["sum"] == pytest.approx(250.0)

    def test_histogram_family_slices_one_label(self):
        registry = MetricsRegistry()
        registry.observe("req_ms", 1.0, endpoint="/node", region="a")
        registry.observe("req_ms", 2.0, endpoint="/info", region="a")
        registry.observe("other_ms", 3.0, endpoint="/meta")
        family = registry.histogram_family("req_ms", "endpoint")
        assert set(family) == {"/node", "/info"}
        assert family["/node"]["count"] == 1

    def test_prometheus_rendering_parses(self):
        registry = MetricsRegistry()
        registry.describe("requests_total", "requests by endpoint")
        registry.inc("requests_total", endpoint='with"quote')
        registry.set_gauge("temperature", -2.5)
        registry.observe("latency_ms", 7.0)
        text = registry.render_prometheus()
        values, types = parse_prometheus(text)
        assert "# HELP requests_total requests by endpoint" in text
        assert types == {"requests_total": "counter", "temperature": "gauge",
                         "latency_ms": "histogram"}
        assert values['requests_total{endpoint="with\\"quote"}'] == 1
        assert values["temperature"] == -2.5
        assert values["latency_ms_count"] == 1
        assert values["latency_ms_sum"] == 7.0
        assert values['latency_ms_bucket{le="+Inf"}'] == 1
        # An empty registry renders to the empty exposition, not junk.
        assert MetricsRegistry().render_prometheus() == ""

    def test_reset_drops_values_keeps_declarations(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency_ms", buckets=(5.0,))
        registry.inc("requests_total")
        registry.observe("latency_ms", 1.0)
        registry.reset()
        assert registry.value("requests_total") == 0.0
        assert registry.histogram("latency_ms") is None
        registry.observe("latency_ms", 1.0)
        assert registry.histogram("latency_ms")["buckets"] == {"5": 1, "+Inf": 1}

    def test_metrics_guard_is_none_while_disabled(self):
        assert obs.metrics() is None
        with obs.telemetry() as registry:
            assert obs.metrics() is registry is obs.global_registry()
        assert obs.metrics() is None


# ----------------------------------------------------------------------
# Wire codec (repro-trace/1)
# ----------------------------------------------------------------------
class TestTraceCodec:
    def test_trace_header_round_trip(self):
        header = format_trace_header("ab12", "cd34")
        assert header.startswith("repro-trace/1;")
        assert parse_trace_header(header) == ("ab12", "cd34")

    @pytest.mark.parametrize("value", [
        None, "", "garbage", "repro-trace/2; trace=ab; span=cd",
        "repro-trace/1; trace=XYZ; span=cd12",      # non-hex id
        "repro-trace/1; trace=ab12",                # missing span
        "repro-trace/1; trace=; span=",
        "repro-graph-http/1; trace=ab; span=cd",    # wrong format token
    ])
    def test_malformed_trace_headers_are_ignored(self, value):
        assert parse_trace_header(value) is None

    def test_span_echo_round_trip(self):
        echo = parse_span_echo(
            format_span_echo("ab12", "cd34", "ef56", 12.3456, "server/node")
        )
        assert echo == {"trace": "ab12", "span": "cd34", "parent": "ef56",
                        "ms": pytest.approx(12.346), "op": "server/node"}

    def test_span_echo_op_is_sanitised_and_ms_tolerated(self):
        value = format_span_echo("ab", "cd", "ef", 1.0, "bad op\r\nInjected: x")
        assert "\r" not in value and "\n" not in value
        assert parse_span_echo(value)["op"] == "badopInjectedx"
        assert parse_span_echo("repro-trace/1; trace=ab; span=cd; ms=junk")["ms"] == 0.0
        assert parse_span_echo("repro-trace/1; span=cd") is None


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_share_one_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = tracer.spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        assert all(span.duration_ms is not None for span in spans)
        assert tracer.trace_ids() == [outer.trace_id]

    def test_scope_adopts_context_across_threads(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            context = tracer.current()

            def worker():
                with tracer.scope(*context):
                    with tracer.span("child", kind="shard"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        child = next(s for s in tracer.spans() if s.name == "child")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_export_and_render_tree(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        tracer.record_echo(parse_span_echo(
            format_span_echo("9999", "8888", "7777", 3.0, "server/node")
        ))
        spans = [json.loads(line) for line in tracer.export_jsonl().splitlines()]
        tree = render_trace_tree(spans)
        # Two traces: the local parent/child pair and the orphaned echo,
        # which attaches at its trace's root instead of vanishing.
        assert tree.count("trace ") == 2
        assert "    [client] child" in tree
        assert "[server] server/node 3.000ms remote=True" in tree

    def test_maybe_span_is_a_noop_without_a_tracer(self):
        with obs.maybe_span("anything") as span:
            assert span is None
        tracer = Tracer()
        with obs.use_tracer(tracer):
            with obs.maybe_span("traced", kind="shard") as span:
                assert span is not None
        assert [s.name for s in tracer.spans()] == ["traced"]


# ----------------------------------------------------------------------
# Trace propagation through HTTP retries
# ----------------------------------------------------------------------
class TestRetryTracing:
    def test_retried_request_keeps_trace_id_with_per_attempt_spans(
        self, obs_backend, graph_server
    ):
        server = graph_server(obs_backend, handler_class=FlakyHTTPHandler)
        from collections import deque

        server.fault_plan = deque(["500", "500"])  # first fetch fails twice
        node = obs_backend.node_ids()[0]
        tracer = Tracer()
        with HTTPGraphBackend(server.url, retries=3, backoff=0.0,
                              sleep=lambda _: None) as client:
            with obs.use_tracer(tracer):
                record = client.fetch(node)
        assert record.node == node
        spans = tracer.spans()
        assert len({span.trace_id for span in spans}) == 1
        request = next(s for s in spans if s.name == "client.request")
        # The first attempt rides the request span itself (the common case
        # pays for exactly one span); each *retry* gets its own child span.
        attempts = [s for s in spans if s.name == "client.attempt"]
        assert [s.tags["attempt"] for s in attempts] == [2, 3]
        assert all(s.parent_id == request.span_id for s in attempts)
        assert request.tags["transient"]  # the first 500 is recorded on it
        # Every attempt that reached the server got an echo — including the
        # injected 500s — and each hangs off the span whose context was on
        # the wire for that attempt.
        echoes = [s for s in spans if s.kind == "server"]
        assert len(echoes) == 3
        wire_spans = [request.span_id] + [a.span_id for a in attempts]
        assert [e.parent_id for e in echoes] == wire_spans
        assert all(e.trace_id == request.trace_id for e in echoes)

    def test_retry_metrics_count_attempts(self, obs_backend, graph_server):
        server = graph_server(obs_backend, handler_class=FlakyHTTPHandler)
        from collections import deque

        server.fault_plan = deque(["500"])
        node = obs_backend.node_ids()[0]
        with obs.telemetry() as registry:
            with HTTPGraphBackend(server.url, retries=2, backoff=0.0,
                                  sleep=lambda _: None) as client:
                client.fetch(node)
        assert registry.value("repro_http_retries_total", endpoint="/node") == 1
        assert registry.value("repro_http_requests_total", endpoint="/node") == 1


class PrefixedHTTPHandler(GraphRequestHandler):
    """Serve the graph under ``/graphs/fb``, as behind a path-routing proxy."""

    PREFIX = "/graphs/fb"

    def inject_fault(self) -> bool:
        self.path = self.path.removeprefix(self.PREFIX)
        return False


class TestPrefixedClientMetrics:
    def test_endpoint_label_is_the_path_after_the_prefix(self, obs_backend, graph_server):
        server = graph_server(obs_backend, handler_class=PrefixedHTTPHandler)
        nodes = obs_backend.node_ids()[:3]
        with obs.telemetry() as registry:
            with HTTPGraphBackend(server.url + PrefixedHTTPHandler.PREFIX) as client:
                assert client.fetch(nodes[0]) == obs_backend.fetch(nodes[0])
                assert client.fetch_many(nodes) == obs_backend.fetch_many(nodes)
                assert list(client.node_ids()) == list(obs_backend.node_ids())
        for endpoint in ("/node", "/nodes", "/node-ids"):
            assert registry.value("repro_http_requests_total", endpoint=endpoint) == 1
            assert registry.histogram("repro_http_request_ms", endpoint=endpoint)["count"] == 1
        assert registry.value("repro_http_requests_total", endpoint="/graphs") == 0


# ----------------------------------------------------------------------
# Pipelined requests share the one attempt loop
# ----------------------------------------------------------------------
class TestPipelinedRequests:
    @pytest.fixture(scope="class")
    def shard_dir(self, obs_graph, tmp_path_factory):
        from repro.cluster import partition_snapshot
        from repro.storage import save_snapshot

        base = tmp_path_factory.mktemp("obs-shards")
        snapshot = save_snapshot(obs_graph, base / "snap")
        return partition_snapshot(snapshot, base / "parts", shards=3)

    def test_retried_pipelined_request_is_one_span_with_attempt_children(
        self, obs_backend, graph_server
    ):
        from collections import deque

        server = graph_server(obs_backend, handler_class=FlakyHTTPHandler)
        server.fault_plan = deque(["500"])
        batch = obs_backend.node_ids()[:4]
        tracer = Tracer()
        with HTTPGraphBackend(server.url, retries=1, backoff=0.0,
                              sleep=lambda _: None) as client:
            with obs.telemetry() as registry, obs.use_tracer(tracer):
                records = client.end_fetch_many(client.begin_fetch_many(batch))
        assert records == obs_backend.fetch_many(batch)
        spans = tracer.spans()
        requests = [s for s in spans if s.name == "client.request"]
        attempts = [s for s in spans if s.name == "client.attempt"]
        assert len(requests) == 1
        assert [s.tags["attempt"] for s in attempts] == [2]
        assert attempts[0].parent_id == requests[0].span_id
        assert requests[0].tags["transient"]
        assert registry.value("repro_http_requests_total", endpoint="/nodes") == 1
        assert registry.value("repro_http_retries_total", endpoint="/nodes") == 1
        assert registry.histogram(
            "repro_http_request_ms", endpoint="/nodes")["count"] == 1

    def test_failed_pipelined_request_makes_retries_plus_one_attempts(
        self, obs_backend, graph_server
    ):
        from collections import deque

        server = graph_server(obs_backend, handler_class=FlakyHTTPHandler)
        server.fault_plan = deque(["500"] * 5)
        batch = obs_backend.node_ids()[:4]
        with HTTPGraphBackend(server.url, retries=2, backoff=0.0,
                              sleep=lambda _: None) as client:
            with obs.telemetry() as registry:
                handle = client.begin_fetch_many(batch)
                with pytest.raises(RemoteBackendError, match="after 3 attempts"):
                    client.end_fetch_many(handle)
        assert server.service.endpoint_counts["/nodes"] == 3
        assert registry.value("repro_http_failures_total", endpoint="/nodes") == 1
        server.fault_plan.clear()

    def test_cluster_client_counts_every_shard_request(
        self, shard_dir, obs_backend, graph_server
    ):
        from repro.cluster import load_shard

        servers = [
            graph_server(load_shard(shard_dir / f"shard-{shard:02d}"))
            for shard in range(3)
        ]
        nodes = obs_backend.node_ids()
        with obs.telemetry() as registry:
            with ShardedBackend(
                [HTTPGraphBackend(server.url) for server in servers], HashRing(3)
            ) as cluster:
                for start in range(0, 120, 12):
                    cluster.fetch_many(nodes[start:start + 12])
        served = sum(server.service.endpoint_counts["/nodes"] for server in servers)
        assert served >= 10
        assert registry.value("repro_http_requests_total", endpoint="/nodes") == served

    def test_path_shard_cluster_spans_every_sub_batch(self, shard_dir, obs_backend):
        from repro.cluster import load_shard

        cluster = ShardedBackend(
            [load_shard(shard_dir / f"shard-{shard:02d}") for shard in range(3)],
            HashRing(3),
        )
        nodes = obs_backend.node_ids()
        one_shard = [node for node in nodes if cluster.shard_of(node) == 0][:3]
        batches = [one_shard, nodes[:12]]
        tracer = Tracer()
        with obs.use_tracer(tracer):
            for batch in batches:
                with tracer.span("batch"):
                    assert cluster.fetch_many(batch) == obs_backend.fetch_many(batch)
        spans = tracer.spans()
        roots = [s for s in spans if s.name == "batch"]
        for root, batch in zip(roots, batches):
            shard_spans = [s for s in spans
                           if s.name == "shard.fetch" and s.parent_id == root.span_id]
            assert len(shard_spans) == len({cluster.shard_of(n) for n in batch})
            assert sum(s.tags["nodes"] for s in shard_spans) == len(batch)


# ----------------------------------------------------------------------
# Trace + metrics through replica failover
# ----------------------------------------------------------------------
class TestFailoverTracing:
    @pytest.fixture()
    def replicated(self, obs_backend):
        """A 2-replica cluster whose shard 0 storage always fails."""
        ring = HashRing(3)
        backends = [
            FlakyBackend(obs_backend, plan=[RuntimeError("disk died")] * 1000),
            obs_backend,
            obs_backend,
        ]
        cluster = ShardedBackend(backends, ring, replicas=2)
        yield cluster

    def test_failover_span_records_replicas_tried(self, replicated, obs_backend):
        node = next(
            node for node in obs_backend.node_ids()
            if replicated.shards_of(node)[0] == 0
        )
        tracer = Tracer()
        with obs.telemetry() as registry:
            with obs.use_tracer(tracer):
                record = replicated.fetch(node)
        assert record == obs_backend.fetch(node)
        span = next(s for s in tracer.spans() if s.name == "cluster.read")
        tried = span.tags["replicas_tried"]
        # The dead primary was tried first, then the surviving replica.
        assert len(tried) == 2
        assert tried[0] == replicated._labels[0]
        assert span.tags["shard"] == tried[-1] != tried[0]
        dead_label = replicated._labels[0]
        assert registry.value(
            "repro_shard_failover_reads_total", shard=dead_label) == 1
        assert registry.value(
            "repro_shard_dead_marks_total", shard=dead_label) == 1

    def test_exhausted_replicas_tag_the_error_span(self, obs_backend):
        ring = HashRing(2)
        flaky = FlakyBackend(obs_backend, plan=[RuntimeError("down")] * 1000)
        cluster = ShardedBackend([flaky, flaky], ring, replicas=2)
        tracer = Tracer()
        with obs.use_tracer(tracer):
            with pytest.raises(ShardError):
                cluster.fetch(obs_backend.node_ids()[0])
        span = next(s for s in tracer.spans() if s.name == "cluster.read")
        assert span.tags["error"] is True
        assert len(span.tags["replicas_tried"]) == 2

    def test_node_miss_is_not_a_failover(self, obs_backend):
        cluster = ShardedBackend([obs_backend, obs_backend], HashRing(2),
                                 replicas=2)
        tracer = Tracer()
        with obs.telemetry() as registry:
            with obs.use_tracer(tracer):
                with pytest.raises(NodeNotFoundError):
                    cluster.fetch("no-such-node")
        span = next(s for s in tracer.spans() if s.name == "cluster.read")
        assert len(span.tags["replicas_tried"]) == 1
        assert registry.value("repro_shard_failover_reads_total",
                              shard=cluster._labels[0]) == 0


# ----------------------------------------------------------------------
# The scrape surface: /metrics and /stats
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_threaded_metrics_parse_and_count(self, obs_backend, graph_server):
        server = graph_server(obs_backend)
        node = obs_backend.node_ids()[0]
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            client.fetch(node)
            client.info()
        values, types = parse_prometheus(server.service.metrics.render_prometheus())
        assert types["repro_server_requests_total"] == "counter"
        assert values['repro_server_requests_total{endpoint="/node",status="200"}'] == 1
        assert values['repro_server_request_ms_count{endpoint="/node"}'] == 1
        assert values["repro_server_nodes_served_total"] >= 1

    def test_metrics_scrape_parses_and_counts(self, obs_backend, graph_server):
        import urllib.request

        server = graph_server(obs_backend)
        node = obs_backend.node_ids()[0]
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            client.fetch(node)
        scrape = urllib.request.urlopen(
            server.url + "/metrics", timeout=5.0).read().decode()
        values, types = parse_prometheus(scrape)
        assert types["repro_server_requests_total"] == "counter"
        assert values['repro_server_requests_total{endpoint="/node",status="200"}'] == 1

    def test_stats_carry_endpoint_latency(self, obs_backend, graph_server):
        server = graph_server(obs_backend)
        node = obs_backend.node_ids()[0]
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            client.fetch(node)
            payload = client._request("GET", "/stats")
        assert payload["server"] == "threaded"
        assert payload["endpoints"]["/node"] == 1
        latency = payload["latency"]["endpoints"]["/node"]
        assert latency["count"] == 1 and latency["sum"] >= 0

    def test_reset_stats_clears_registry_and_tenants_atomically(
        self, obs_backend, graph_server
    ):
        """reset_stats versus a scrape storm: every scrape sees either the
        pre-reset registry or a fully empty one — never a torn mix — and
        per-tenant usage resets in the same critical section."""
        import urllib.request

        server = graph_server(
            GraphService(obs_backend, tenants=tenants_doc(key={"name": "erin"}))
        )
        node = obs_backend.node_ids()[0]
        with HTTPGraphBackend(server.url, timeout=5.0,
                              api_key="key") as client:
            client.fetch(node)
            stop = threading.Event()
            torn: list = []

            def scraper():
                while not stop.is_set():
                    request = urllib.request.Request(
                        server.url + "/metrics",
                        headers={"X-Api-Key": "key"},
                    )
                    text = urllib.request.urlopen(
                        request, timeout=5.0).read().decode()
                    values, _ = parse_prometheus(text)
                    requests = [v for k, v in values.items()
                                if k.startswith("repro_server_request_ms_count")]
                    sums = [v for k, v in values.items()
                            if k.startswith("repro_server_request_ms_sum")]
                    # Torn state: a histogram with counts but no sum series
                    # (or vice versa) would mean reset caught mid-render.
                    if bool(requests) != bool(sums):
                        torn.append(text)

            threads = [threading.Thread(target=scraper) for _ in range(2)]
            for thread in threads:
                thread.start()
            try:
                for _ in range(20):
                    client.fetch(node)
                    server.service.reset_stats()
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert not torn
            server.service.reset_stats()
            stats = client._request("GET", "/stats")
        # Only the /stats request itself may have been counted post-reset.
        assert set(stats["endpoints"]) <= {"/stats"}
        assert set(stats["latency"]["endpoints"]) <= {"/stats"}
        assert set(stats["tenants"]["erin"]["endpoints"]) <= {"/stats"}
        assert stats["tenants"]["erin"]["nodes_served"] == 0

    def test_threaded_reset_stats_clears_metrics(self, obs_backend, graph_server):
        server = graph_server(obs_backend)
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            client.fetch(obs_backend.node_ids()[0])
            server.service.reset_stats()
            stats = client._request("GET", "/stats")
            # Only the /stats request itself has been counted since the reset.
            assert set(stats["endpoints"]) <= {"/stats"}
            assert stats["nodes_served"] == 0


# ----------------------------------------------------------------------
# The access log satellite
# ----------------------------------------------------------------------
class TestAccessLog:
    def test_entries_carry_duration_status_and_trace_id(
        self, obs_backend, graph_server, tmp_path
    ):
        log_path = tmp_path / "access.jsonl"
        server = graph_server(GraphService(obs_backend, access_log=log_path))
        node = obs_backend.node_ids()[0]
        tracer = Tracer()
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            with obs.use_tracer(tracer):
                client.fetch(node)   # traced: carries X-Repro-Trace
            client.info()            # untraced: no trace_id in the entry
        # Line-buffered: the entries reach disk while the server still runs
        # (the server logs just after responding, so poll briefly).
        import time as _time

        deadline = _time.monotonic() + 5.0
        while _time.monotonic() < deadline:
            lines = [json.loads(line) for line in
                     log_path.read_text().splitlines()]
            if len(lines) >= 2:
                break
            _time.sleep(0.01)
        assert len(lines) == 2
        traced = next(line for line in lines if line["path"].startswith("/node/"))
        assert traced["status"] == 200
        assert traced["duration_ms"] >= 0
        assert traced["trace_id"] == tracer.trace_ids()[0]
        untraced = next(line for line in lines if line["path"] == "/info")
        assert "trace_id" not in untraced
        assert untraced["duration_ms"] >= 0


# ----------------------------------------------------------------------
# End-to-end: one ensemble against a live replicated cluster
# ----------------------------------------------------------------------
class TestEndToEndClusterTrace:
    @pytest.fixture()
    def live_cluster_url(self, obs_graph, graph_server, tmp_path_factory):
        from repro.cluster import load_shard, partition_snapshot
        from repro.storage import save_snapshot

        base = tmp_path_factory.mktemp("obs-cluster")
        snapshot = save_snapshot(obs_graph, base / "snap")
        parts = partition_snapshot(snapshot, base / "parts", shards=3,
                                   replicas=2)
        servers = [
            graph_server(load_shard(parts / f"shard-{shard:02d}"))
            for shard in range(3)
        ]
        return "cluster://" + ",".join(
            server.url.removeprefix("http://") for server in servers
        )

    def test_one_ensemble_yields_one_trace_tree(self, live_cluster_url, tmp_path):
        session = (
            SamplingSession(live_cluster_url, seed=3)
            .budget(80)
            .walker("cnrw", seed=3)
            .telemetry()
        )
        session.run_ensemble(num_walks=4, steps=30)
        out = tmp_path / "trace.jsonl"
        exported = session.trace_export(out)
        spans = [json.loads(line) for line in exported.splitlines()]
        assert out.read_text() == exported
        # ONE correlated tree: every span of the ensemble shares a trace id.
        assert len({span["trace_id"] for span in spans}) == 1
        kinds = {span["kind"] for span in spans}
        assert {"session", "client", "server", "shard"} <= kinds
        root = next(s for s in spans if s["kind"] == "session")
        assert root["name"] == "session.ensemble"
        assert root["parent_id"] is None
        # Shard fan-out spans stay inside the tree: each sub-batch's span
        # opens under the ensemble's context when it is posted.
        shard_spans = [s for s in spans if s["name"] == "shard.fetch"]
        assert shard_spans
        assert all(s["trace_id"] == root["trace_id"] for s in shard_spans)
        # Server echoes crossed the wire back into the client's tree.
        assert any(s["tags"].get("remote") for s in spans
                   if s["kind"] == "server")
        tree = render_trace_tree(spans)
        assert tree.startswith(f"trace {root['trace_id']}")
        assert "session.ensemble" in tree

    def test_cli_trace_pretty_prints_an_export(self, live_cluster_url, tmp_path,
                                               capsys):
        from repro.cli import main

        session = (
            SamplingSession(live_cluster_url, seed=3)
            .budget(40)
            .walker("srw", seed=3)
            .telemetry()
        )
        session.run(max_steps=20)
        out = tmp_path / "trace.jsonl"
        session.trace_export(out)
        assert main(["trace", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("trace ")
        assert "session.run" in printed
        assert main(["trace", str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Telemetry must not change results
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_traced_walk_is_bit_identical_to_untraced(self, obs_graph):
        def run(traced: bool):
            session = (
                SamplingSession(obs_graph, seed=11)
                .budget(120)
                .walker("cnrw", seed=11)
            )
            if traced:
                session.telemetry()
            result = session.run(max_steps=80)
            return result.path, result.unique_queries, result.total_queries

        untraced = run(False)
        traced = run(True)
        assert traced == untraced

    def test_trace_export_requires_telemetry(self, obs_graph):
        session = SamplingSession(obs_graph, seed=1)
        with pytest.raises(ValueError, match="telemetry"):
            session.trace_export()

    def test_session_telemetry_off_switch(self, obs_graph):
        session = SamplingSession(obs_graph, seed=1).telemetry()
        assert session.tracer is not None
        session.telemetry(False)
        assert session.tracer is None


# ----------------------------------------------------------------------
# Scheduler / engine metrics
# ----------------------------------------------------------------------
class TestEngineMetrics:
    def test_scalar_ensemble_reports_rounds_and_dedupe(self, obs_graph):
        with obs.telemetry() as registry:
            session = (
                SamplingSession(obs_graph, seed=5)
                .budget(100)
                .walker("cnrw", seed=5)
            )
            session.run_ensemble(num_walks=4, steps=40)
        rounds = registry.histogram("repro_scheduler_round_ms")
        assert rounds is not None and rounds["count"] >= 1
        frontier = registry.histogram("repro_scheduler_frontier_size")
        assert frontier["count"] == rounds["count"]
        total = registry.value("repro_scheduler_total_queries")
        unique = registry.value("repro_scheduler_unique_queries")
        assert total >= unique > 0
        assert registry.value("repro_scheduler_dedupe_ratio") == pytest.approx(
            1.0 - unique / total
        )

    def test_vector_ensemble_reports_walkers_and_rounds(self, obs_graph):
        with obs.telemetry() as registry:
            session = (
                SamplingSession(obs_graph, seed=5)
                .backend("csr")
                .walker("cnrw", seed=5)
            )
            session.run_ensemble(num_walks=64, steps=20, mode="vector")
        assert registry.value("repro_vector_walkers") == 64
        rounds = registry.histogram("repro_vector_round_ms")
        assert rounds is not None and rounds["count"] >= 1
        assert registry.value("repro_vector_total_queries") >= registry.value(
            "repro_vector_unique_queries"
        )

    def test_cache_and_warehouse_metrics(self, obs_graph, tmp_path):
        from repro.warehouse import CrawlWarehouse

        with obs.telemetry() as registry:
            session = (
                SamplingSession(obs_graph, seed=5)
                .budget(60)
                .walker("cnrw", seed=5)
            )
            session.run(max_steps=100)
            hits = registry.value("repro_cache_hits_total")
            misses = registry.value("repro_cache_misses_total")
            assert misses > 0
            # CNRW revisits: the cache must have absorbed some repeats.
            assert hits > 0
            warehouse = CrawlWarehouse.create(tmp_path / "wh.sqlite")
            try:
                report = warehouse.ingest(InMemoryBackend(obs_graph))
            finally:
                warehouse.close()
            assert registry.value("repro_warehouse_ingests_total") == 1
            assert registry.value(
                "repro_warehouse_ingest_records_total") == report.records
            assert registry.histogram("repro_warehouse_ingest_ms")["count"] == 1
