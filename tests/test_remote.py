"""HTTP client/server tests: wire protocol, fault injection, middleware composition.

The conformance suite (``tests/test_backend_conformance.py``) proves a clean
remote backend is indistinguishable from a local one; this module pins the
parts conformance cannot see:

* the wire encoding itself (node ids in URL paths, crawl-record JSON bodies),
* retry / backoff / error-mapping semantics under deterministically injected
  faults (timeouts, 5xx, malformed JSON, dropped connections) — walks either
  complete bit-identically after retries or fail with a typed error,
* middleware-over-remote composition: the cache makes revisit-heavy walks hit
  the network exactly ``unique_queries`` times, and budget exhaustion
  mid-retry never double-bills.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.api import (
    HTTPGraphBackend,
    InMemoryBackend,
    SamplingSession,
    build_api,
)
from repro.api.remote import (
    decode_node_id,
    encode_node_id,
    record_from_wire,
    record_to_wire,
)
from repro.api.backend import RawRecord
from repro.engine import WalkScheduler
from repro.exceptions import (
    NodeNotFoundError,
    QueryBudgetExceededError,
    RemoteBackendError,
)
from repro.graphs import load_dataset
from repro.walks import make_walker

from fakes import FlakyBackend, FlakyHTTPHandler


@pytest.fixture(scope="module")
def remote_graph():
    return load_dataset("facebook_like", seed=7, scale=0.12)


@pytest.fixture(scope="module")
def local_backend(remote_graph):
    return InMemoryBackend(remote_graph)


class RecordingSleep:
    """A sleep stand-in that records the requested delays instead of waiting."""

    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------
class TestWireEncoding:
    @pytest.mark.parametrize(
        "node", [0, -7, 10**12, "plain", "5", "with/slash", "sp ace", "café ☕", ""]
    )
    def test_node_id_url_round_trip(self, node):
        segment = encode_node_id(node)
        assert segment.isascii() and "/" not in segment
        decoded = decode_node_id(segment)
        assert decoded == node and type(decoded) is type(node)

    def test_int_and_str_ids_stay_distinguishable(self):
        assert encode_node_id(5) != encode_node_id("5")

    def test_record_round_trip_matches_crawl_schema(self):
        record = RawRecord(node="u", neighbors=("v", 3), attributes={"age": 1.5})
        wire = record_to_wire(record)
        assert wire == {"node": "u", "neighbors": ["v", 3], "attributes": {"age": 1.5}}
        assert record_from_wire(wire) == record
        # Empty attributes are omitted on the wire, exactly like a crawl dump.
        bare = RawRecord(node=1, neighbors=(2,))
        assert "attributes" not in record_to_wire(bare)
        assert record_from_wire(record_to_wire(bare)) == bare

    def test_malformed_record_raises_typed_error(self):
        with pytest.raises(RemoteBackendError, match="malformed"):
            record_from_wire({"neighbors": [1]})

    def test_unrepresentable_node_id_raises_typed_error(self):
        with pytest.raises(RemoteBackendError, match="wire"):
            encode_node_id(object())

    def test_composite_ids_rejected_before_any_network(self):
        """Tuple ids are valid locally but JSON would turn them into lists;
        the client fails fast and typed instead of burning retries on 500s.
        The unreachable URL proves no connection is even attempted."""
        client = HTTPGraphBackend("http://127.0.0.1:9", retries=0)
        with pytest.raises(RemoteBackendError, match="scalar"):
            client.fetch(("u", 1))
        with pytest.raises(RemoteBackendError, match="scalar"):
            client.fetch_many([0, ("u", 1)])


# ----------------------------------------------------------------------
# Client construction and service discovery
# ----------------------------------------------------------------------
class TestClientBasics:
    def test_rejects_non_http_urls(self):
        for bogus in ("ftp://host/x", "not-a-url", "http://"):
            with pytest.raises(ValueError):
                HTTPGraphBackend(bogus)
        with pytest.raises(ValueError):
            HTTPGraphBackend("http://localhost:1", retries=-1)

    @pytest.mark.parametrize("key", ["clé-1", "key\n1"])
    def test_rejects_keys_that_cannot_travel_as_a_header(self, key):
        # A non-ASCII key used to be accepted here and then fail every
        # request with an untyped UnicodeEncodeError at send time.
        with pytest.raises(ValueError, match="printable ASCII"):
            HTTPGraphBackend("http://localhost:1", api_key=key)

    def test_info_descriptor_and_len(self, graph_server, local_backend):
        server = graph_server(local_backend)
        with HTTPGraphBackend(server.url) as client:
            info = client.info()
            assert info["format"] == "repro-graph-http"
            assert info["version"] == 1
            assert info["nodes"] == len(local_backend)
            assert len(client) == len(local_backend)
            assert client.name == f"http:{server.url[len('http://'):]}"

    def test_info_rejects_foreign_service_and_version(self, graph_server, local_backend):
        server = graph_server(local_backend)
        client = HTTPGraphBackend(server.url)
        client._request = lambda method, path, body=None: {"format": "something-else"}
        with pytest.raises(RemoteBackendError, match="format"):
            client.info()
        client = HTTPGraphBackend(server.url)
        client._request = lambda method, path, body=None: {
            "format": "repro-graph-http",
            "version": 99,
        }
        with pytest.raises(RemoteBackendError, match="version"):
            client.info()

    def test_unknown_endpoint_raises_without_retry(self, graph_server, local_backend):
        # A bogus path prefix sends every request to a nonexistent endpoint:
        # that is a protocol error, not a transient fault — exactly one
        # request, no retries.
        server = graph_server(local_backend)
        sleep = RecordingSleep()
        with HTTPGraphBackend(server.url + "/no-such-prefix", sleep=sleep) as client:
            with pytest.raises(RemoteBackendError, match="endpoint"):
                client.fetch(0)
        assert sleep.delays == []
        assert server.service.endpoint_counts["/no-such-prefix"] == 1

    def test_node_miss_is_not_retried(self, graph_server, local_backend):
        server = graph_server(local_backend)
        server.service.reset_stats()
        sleep = RecordingSleep()
        with HTTPGraphBackend(server.url, sleep=sleep) as client:
            with pytest.raises(NodeNotFoundError) as excinfo:
                client.fetch("no-such-node")
        assert excinfo.value.node == "no-such-node"
        assert sleep.delays == []
        assert server.service.endpoint_counts["/node"] == 1

    def test_replay_server_info_carries_recorded_start(
        self, graph_server, local_backend, tmp_path
    ):
        from repro.storage import dump_crawl, load_crawl

        nodes = local_backend.node_ids()[:4]
        dump = dump_crawl(local_backend, tmp_path / "d.jsonl", nodes=nodes)
        server = graph_server(load_crawl(dump))
        with HTTPGraphBackend(server.url) as client:
            info = client.info()
            assert info["backend"] == "ReplayBackend"
            assert info["start"] == nodes[0]
        empty = dump_crawl(local_backend, tmp_path / "e.jsonl", nodes=[])
        empty_server = graph_server(load_crawl(empty))
        with HTTPGraphBackend(empty_server.url) as client:
            assert "start" not in client.info()

    def test_negative_content_length_is_dropped_promptly(
        self, graph_server, local_backend
    ):
        """A negative Content-Length must close the connection immediately —
        never block a handler thread in rfile.read(-1) until its timeout."""
        import http.client
        import time

        server = graph_server(local_backend)
        connection = http.client.HTTPConnection(
            server.url[len("http://"):], timeout=5
        )
        started = time.perf_counter()
        connection.putrequest("POST", "/nodes")
        connection.putheader("Content-Length", "-5")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        response.read()
        # And the poisoned connection is closed, not kept alive.
        assert response.will_close
        assert time.perf_counter() - started < 5
        connection.close()

    def test_connection_is_reused_across_requests(self, graph_server, local_backend):
        server = graph_server(local_backend)
        with HTTPGraphBackend(server.url) as client:
            client.fetch(local_backend.node_ids()[0])
            first = client._connection
            assert first is not None
            client.fetch(local_backend.node_ids()[1])
            client.fetch_many(local_backend.node_ids()[:3])
            assert client._connection is first


# ----------------------------------------------------------------------
# Fault injection: retries, backoff, typed failures
# ----------------------------------------------------------------------
class TestFaultInjection:
    def _flaky(self, graph_server, local_backend, plan, **client_options):
        server = graph_server(local_backend, handler_class=FlakyHTTPHandler)
        server.fault_plan = deque(plan)
        client = HTTPGraphBackend(server.url, **client_options)
        return server, client

    def test_5xx_retried_with_deterministic_backoff(self, graph_server, local_backend):
        sleep = RecordingSleep()
        server, client = self._flaky(
            graph_server, local_backend, ["500", "500", None],
            retries=3, backoff=0.05, sleep=sleep,
        )
        node = local_backend.node_ids()[0]
        with client:
            assert client.fetch(node) == local_backend.fetch(node)
        # Exponential and deterministic: base, then double.
        assert sleep.delays == [0.05, 0.1]
        assert server.service.endpoint_counts["/node"] == 3

    def test_retries_exhausted_raises_typed_error(self, graph_server, local_backend):
        sleep = RecordingSleep()
        server, client = self._flaky(
            graph_server, local_backend, ["500"] * 3,
            retries=2, backoff=0.05, sleep=sleep,
        )
        with client, pytest.raises(RemoteBackendError) as excinfo:
            client.fetch(local_backend.node_ids()[0])
        assert excinfo.value.attempts == 3
        assert "HTTP 500" in str(excinfo.value)
        assert sleep.delays == [0.05, 0.1]
        assert server.service.endpoint_counts["/node"] == 3

    def test_malformed_json_body_retried(self, graph_server, local_backend):
        server, client = self._flaky(
            graph_server, local_backend, ["garbage", None],
            retries=2, sleep=RecordingSleep(),
        )
        node = local_backend.node_ids()[0]
        with client:
            assert client.fetch(node) == local_backend.fetch(node)

    def test_malformed_json_exhausting_retries_is_typed(self, graph_server, local_backend):
        server, client = self._flaky(
            graph_server, local_backend, ["garbage"] * 2,
            retries=1, sleep=RecordingSleep(),
        )
        with client, pytest.raises(RemoteBackendError, match="malformed JSON"):
            client.fetch(local_backend.node_ids()[0])

    def test_dropped_connection_retried(self, graph_server, local_backend):
        server, client = self._flaky(
            graph_server, local_backend, ["close", None],
            retries=2, sleep=RecordingSleep(),
        )
        node = local_backend.node_ids()[0]
        with client:
            assert client.fetch(node) == local_backend.fetch(node)

    def test_socket_timeout_retried(self, graph_server, local_backend):
        server, client = self._flaky(
            graph_server, local_backend, ["timeout", None],
            retries=2, timeout=0.2, sleep=RecordingSleep(),
        )
        server.fault_stall = 0.6
        node = local_backend.node_ids()[0]
        with client:
            assert client.fetch(node) == local_backend.fetch(node)

    def test_backend_exception_surfaces_as_500_and_retries(
        self, graph_server, local_backend
    ):
        flaky = FlakyBackend(local_backend, plan=[RuntimeError("disk on fire"), None])
        server = graph_server(flaky)
        node = local_backend.node_ids()[0]
        with HTTPGraphBackend(server.url, retries=2, sleep=RecordingSleep()) as client:
            assert client.fetch(node) == local_backend.fetch(node)
        # And with no retry budget the server-side failure is reported.
        flaky.plan.extend([RuntimeError("still on fire")])
        with HTTPGraphBackend(server.url, retries=0) as client:
            with pytest.raises(RemoteBackendError, match="on fire"):
                client.fetch(node)

    def test_walk_over_flaky_server_is_bit_identical(
        self, graph_server, remote_graph, local_backend
    ):
        """Faults sprinkled through a crawl never change the walk, only cost it
        retries: the paths, counters and estimates come out bit-identical."""
        plan = ["500", None, None, "garbage", None, "close"] + [None] * 10 + ["500"]
        server, client = self._flaky(
            graph_server, local_backend, plan, retries=3, sleep=RecordingSleep(),
        )
        start = remote_graph.nodes()[0]

        def run(source):
            api = build_api(source, budget=40)
            result = make_walker("cnrw", api=api, seed=7).run(start, max_steps=None)
            return result.path, api.unique_queries, api.total_queries

        with client:
            assert run(client) == run(local_backend)

    def test_batched_fetch_retried_through_faults(self, graph_server, local_backend):
        server, client = self._flaky(
            graph_server, local_backend, ["500", "garbage", None],
            retries=3, sleep=RecordingSleep(),
        )
        nodes = local_backend.node_ids()[:6]
        with client:
            assert client.fetch_many(nodes) == local_backend.fetch_many(nodes)
        assert server.service.endpoint_counts["/nodes"] == 3


# ----------------------------------------------------------------------
# Middleware-over-remote composition
# ----------------------------------------------------------------------
class TestMiddlewareOverRemote:
    def test_cache_limits_network_to_unique_nodes(
        self, graph_server, remote_graph, local_backend
    ):
        """A revisit-heavy CNRW walk hits the network exactly once per unique
        node: every revisit is served by the client-side cache layer."""
        server = graph_server(local_backend)
        server.service.reset_stats()
        with HTTPGraphBackend(server.url) as client:
            api = build_api(client, budget=40)
            result = make_walker("cnrw", api=api, seed=7).run(
                remote_graph.nodes()[0], max_steps=None
            )
        assert api.total_queries > api.unique_queries  # CNRW revisits a lot
        assert server.service.endpoint_counts["/node"] == api.unique_queries
        assert server.service.nodes_served == api.unique_queries

    def test_scheduler_ensemble_batches_limit_network_to_unique_nodes(
        self, graph_server, remote_graph, local_backend
    ):
        server = graph_server(local_backend)
        server.service.reset_stats()
        with HTTPGraphBackend(server.url) as client:
            api = build_api(client, budget=200)
            walkers = [make_walker("cnrw", api=api, seed=seed) for seed in (1, 2, 3, 4)]
            starts = remote_graph.nodes()[:4]
            WalkScheduler(api).run(walkers, starts, steps=30)
        # The frontier travels as POST /nodes batches; dedup + cache keep the
        # record traffic at exactly the billable unique fetches.
        assert server.service.endpoint_counts["/node"] == 0
        assert server.service.nodes_served == api.unique_queries

    def test_metadata_peeks_hit_the_network_once_per_node(
        self, graph_server, remote_graph, local_backend
    ):
        """Peeks are free against local backends; remotely they must at least
        be free on revisit — MHRW re-checks neighbor degrees every step, and
        the client's metadata cache absorbs all but the first look."""
        server = graph_server(local_backend)
        server.service.reset_stats()
        with HTTPGraphBackend(server.url) as client:
            node = remote_graph.nodes()[0]
            for _ in range(5):
                assert client.metadata(node) == local_backend.metadata(node)
                assert client.contains(node)
            assert server.service.endpoint_counts["/meta"] == 1
            # A remote MHRW walk peeks hundreds of times; the wire sees each
            # distinct node at most once.
            api = build_api(client, budget=30)
            make_walker("mhrw", api=api, seed=7).run(node, max_steps=None)
            assert server.service.endpoint_counts["/meta"] <= len(local_backend)

    def test_budget_exhaustion_mid_retry_never_double_bills(
        self, graph_server, local_backend
    ):
        """A 500-and-retry inside the budget layer's sequential fallback must
        bill the node once: unique == budget, and the partial views fetched
        before exhaustion are cached, not re-billed."""
        server = graph_server(local_backend, handler_class=FlakyHTTPHandler)
        sleep = RecordingSleep()
        client = HTTPGraphBackend(server.url, retries=2, backoff=0.01, sleep=sleep)
        # Request script: n0 ok, n1 500 then ok on retry, n2 ok, n3 never sent.
        server.fault_plan = deque([None, "500", None, None])
        nodes = local_backend.node_ids()[:5]
        with client:
            api = build_api(client, budget=3)
            with pytest.raises(QueryBudgetExceededError):
                api.query_many(nodes)
            assert api.unique_queries == 3
            assert api.total_queries == 4  # 3 billed + the rejected attempt
            assert sleep.delays == [0.01]  # exactly one retry happened
            assert server.service.nodes_served == 3  # the 500'd request served nothing
            assert server.service.endpoint_counts["/node"] == 4  # 3 successes + 1 fault
            # The three fetched views were cached on the way out: re-reading
            # them is free and does not touch the exhausted budget.
            for node in nodes[:3]:
                assert api.query(node).node == node
            assert api.unique_queries == 3
            assert server.service.endpoint_counts["/node"] == 4


# ----------------------------------------------------------------------
# URL dispatch through the stack facades
# ----------------------------------------------------------------------
class TestURLDispatch:
    def test_build_api_accepts_urls(self, graph_server, remote_graph, local_backend):
        server = graph_server(local_backend)
        api = build_api(server.url, budget=10)
        node = remote_graph.nodes()[0]
        assert api.query(node).neighbors == tuple(remote_graph.neighbors(node))
        api.backend.close()

    def test_session_accepts_urls(self, graph_server, local_backend):
        server = graph_server(local_backend)
        session = SamplingSession(server.url, seed=1).budget(20).walker("srw", seed=1)
        result = session.run(max_steps=5)
        assert result.steps <= 5
        assert session.unique_queries > 0
        session.api.backend.close()

    def test_session_walk_matches_local_session(self, graph_server, remote_graph):
        """The same seeded session over a URL and over the graph are identical —
        including the random start pick, which goes through the remote
        node-id table."""
        server = graph_server(InMemoryBackend(remote_graph))

        def run(source):
            session = SamplingSession(source, seed=3).budget(30).walker("cnrw", seed=3)
            result = session.run(max_steps=None)
            return result.path, session.unique_queries, session.total_queries

        remote = run(server.url)
        local = run(remote_graph)
        assert remote == local
