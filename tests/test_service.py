"""Behavioural suite for the multi-tenant graph service.

The conformance matrix already proves the server bit-identical to every
other backend; this file covers the service's policy surface over a live
server (the ``serve_service`` fixture): tenants-file validation, API-key
auth, server-side budget and rate-limit enforcement with typed 429 round
trips, the ``POST /walk`` endpoint (one round trip, fingerprint-verified
against a client-driven walk, capped at ``MAX_WALK_STEPS``), the
``GET /stats`` usage surface and JSONL access logs.  The sans-IO
:class:`GraphService` is also driven directly, with no socket, and the
server's lifecycle is pinned last.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.api import HTTPGraphBackend, build_api
from repro.api.backend import InMemoryBackend
from repro.api.ratelimit import SimulatedClock
from repro.api.remote import encode_node_id
from repro.exceptions import (
    NodeNotFoundError,
    QueryBudgetExceededError,
    RateLimitExceededError,
    RemoteBackendError,
    TenantAuthError,
    TenantConfigError,
)
from repro.graphs import load_dataset
from repro.server import (
    MAX_WALK_STEPS,
    GraphHTTPServer,
    GraphService,
    TenantRegistry,
    WallClock,
    load_tenants,
    serve_backend,
)
from repro.server.tenants import parse_tenants
from repro.server.wire import LeanHeaders
from repro.walks import make_walker

GOLDEN_SEED = 7
GOLDEN_BUDGET = 60


def tenants_doc(**tenants):
    return {"format": "repro-graph-tenants", "version": 1, "tenants": tenants}


@pytest.fixture(scope="module")
def conformance_graph():
    return load_dataset("facebook_like", seed=7, scale=0.12)


@pytest.fixture(scope="module")
def backend(conformance_graph):
    return InMemoryBackend(conformance_graph)


# ----------------------------------------------------------------------
# tenants.json validation
# ----------------------------------------------------------------------
class TestTenantsConfig:
    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(TenantConfigError, match="does not exist"):
            load_tenants(tmp_path / "nowhere.json")

    def test_non_json_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text("{not json")
        with pytest.raises(TenantConfigError, match="not JSON"):
            load_tenants(path)

    @pytest.mark.parametrize("payload, match", [
        ([], "JSON object"),
        ({"format": "something-else"}, "format"),
        ({"format": "repro-graph-tenants", "version": 99}, "version"),
        ({"format": "repro-graph-tenants", "version": 1}, "tenants"),
        ({"format": "repro-graph-tenants", "version": 1, "tenants": {}}, "tenants"),
        (tenants_doc(**{"k": "not-an-object"}), "JSON object"),
        (tenants_doc(k={"budget": 5}), "name"),
        (tenants_doc(k={"name": "a", "budget": -1}), "budget"),
        (tenants_doc(k={"name": "a", "budget": "lots"}), "budget"),
        (tenants_doc(k={"name": "a", "budget": True}), "budget"),
        (tenants_doc(k={"name": "a", "budget": 2.5}), "budget"),
        (tenants_doc(k={"name": "a", "rate_limit": {"max_calls": 5}}), "rate_limit"),
        (tenants_doc(k={"name": "a", "typo": 1}), "unknown fields"),
        (tenants_doc(k={"name": "same"}, k2={"name": "same"}), "unique"),
    ])
    def test_malformed_documents_raise_typed_errors(self, payload, match):
        with pytest.raises(TenantConfigError, match=match):
            parse_tenants(payload)

    def test_valid_file_round_trips(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(tenants_doc(
            key_a={"name": "alice", "budget": 100,
                   "rate_limit": {"max_calls": 10, "window_seconds": 1.0}},
            key_b={"name": "bob"},
        )))
        registry = load_tenants(path)
        assert not registry.open
        assert len(registry) == 2
        assert registry.resolve("key_a").name == "alice"
        assert registry.resolve("key_b").budget.unlimited
        with pytest.raises(TenantAuthError, match="unknown"):
            registry.resolve("wrong")
        with pytest.raises(TenantAuthError, match="X-Api-Key"):
            registry.resolve(None)

    def test_open_registry_serves_anonymous_default(self):
        registry = TenantRegistry()
        assert registry.open
        assert registry.resolve(None).name == "public"
        assert registry.resolve("anything").name == "public"

    def test_wall_clock_refuses_to_advance(self):
        clock = WallClock()
        assert clock.now > 0
        with pytest.raises(RuntimeError, match="blocking=False"):
            clock.advance(1.0)


# ----------------------------------------------------------------------
# API-key auth and per-tenant enforcement over the wire
# ----------------------------------------------------------------------
class TestTenantEnforcement:
    @pytest.fixture()
    def clock(self):
        return SimulatedClock()

    @pytest.fixture()
    def server(self, backend, serve_service, clock):
        return serve_service(
            backend,
            tenants=tenants_doc(
                alice_key={"name": "alice", "budget": 5},
                bob_key={"name": "bob",
                         "rate_limit": {"max_calls": 2, "window_seconds": 10.0}},
            ),
            clock=clock,
        )

    def test_missing_and_unknown_keys_answer_401(self, server):
        for client in (
            HTTPGraphBackend(server.url, timeout=5.0, retries=0),
            HTTPGraphBackend(server.url, timeout=5.0, retries=0,
                             api_key="wrong"),
        ):
            with client:
                with pytest.raises(RemoteBackendError) as excinfo:
                    client.info()
                assert excinfo.value.status == 401

    def test_budget_bills_unique_nodes_only(self, server, backend):
        ids = backend.node_ids()
        with HTTPGraphBackend(server.url, timeout=5.0, retries=0,
                              api_key="alice_key") as alice:
            for node in ids[:5]:
                alice.fetch(node)
            # Revisits are free, exactly like the paper's unique-query cost.
            alice.fetch(ids[0])
            alice.fetch_many(ids[:5])
            with pytest.raises(QueryBudgetExceededError) as excinfo:
                alice.fetch(ids[5])
            assert excinfo.value.budget == 5
            assert excinfo.value.spent == 5
            # The denied fetch billed nothing and served nothing.
            stats = alice._request("GET", "/stats")["tenants"]["alice"]
            assert stats["budget"] == {"limit": 5, "spent": 5, "remaining": 0}
            assert stats["unique_nodes"] == 5
            assert stats["budget_denied"] == 1

    def test_batch_that_cannot_fit_bills_nothing(self, server, backend):
        ids = backend.node_ids()
        with HTTPGraphBackend(server.url, timeout=5.0, retries=0,
                              api_key="alice_key") as alice:
            with pytest.raises(QueryBudgetExceededError):
                alice.fetch_many(ids[:7])  # 7 fresh > budget 5, refused whole
            stats = alice._request("GET", "/stats")["tenants"]["alice"]
            assert stats["budget"]["spent"] == 0
            assert stats["nodes_served"] == 0

    def test_rate_limit_answers_typed_429(self, server, backend, clock):
        ids = backend.node_ids()
        with HTTPGraphBackend(server.url, timeout=5.0, retries=0,
                              api_key="bob_key") as bob:
            bob.fetch(ids[0])
            bob.fetch(ids[1])
            with pytest.raises(RateLimitExceededError) as excinfo:
                bob.fetch(ids[2])
            assert excinfo.value.retry_after == pytest.approx(10.0)
            # Free endpoints are never throttled.
            assert bob.contains(ids[2])
            assert bob.info()["nodes"] == len(backend)
            stats = bob._request("GET", "/stats")["tenants"]["bob"]
            assert stats["rate_limited"] == 1
            # The window rolls: advancing the simulated clock frees a slot.
            clock.advance(10.1)
            assert bob.fetch(ids[2]).node == ids[2]


# ----------------------------------------------------------------------
# POST /walk: whole walks in one round trip
# ----------------------------------------------------------------------
class TestServerSideWalks:
    @pytest.fixture()
    def server(self, backend, serve_service):
        return serve_service(backend)

    def test_remote_walk_matches_client_driven_walk(
        self, server, backend, conformance_graph
    ):
        start = conformance_graph.nodes()[0]
        with HTTPGraphBackend(server.url, timeout=10.0) as client:
            payload = client.remote_walk(
                "srw", start, seed=GOLDEN_SEED, budget=GOLDEN_BUDGET
            )
        api = build_api(backend, budget=GOLDEN_BUDGET)
        local = make_walker("srw", api=api, seed=GOLDEN_SEED).run(
            start, max_steps=None
        )
        assert payload["path"] == local.path
        assert payload["unique_queries"] == local.unique_queries
        assert payload["total_queries"] == local.total_queries
        assert payload["steps"] == local.steps
        assert payload["stopped_by_budget"] is local.stopped_by_budget

    def test_walk_collapses_round_trips(self, server, conformance_graph):
        start = conformance_graph.nodes()[0]
        server.service.reset_stats()
        with HTTPGraphBackend(server.url, timeout=10.0) as client:
            client.remote_walk("srw", start, seed=GOLDEN_SEED,
                               budget=GOLDEN_BUDGET)
        assert server.service.endpoint_counts["/walk"] == 1
        assert server.service.endpoint_counts.get("/node", 0) == 0

    def test_walk_validates_kernel_start_and_shape(self, server):
        with HTTPGraphBackend(server.url, timeout=5.0, retries=0) as client:
            with pytest.raises(RemoteBackendError) as excinfo:
                client.remote_walk("no-such-kernel", 0, budget=5)
            assert excinfo.value.status == 400
            with pytest.raises(RemoteBackendError) as excinfo:
                client.remote_walk("srw", 0, steps=-3)
            assert excinfo.value.status == 400
            # A missing start node round-trips as the same typed error a
            # local walk raises, node id intact.
            with pytest.raises(NodeNotFoundError) as node_info:
                client.remote_walk("srw", "missing-node", budget=5)
            assert node_info.value.node == "missing-node"

    @pytest.mark.parametrize("field", ["steps", "budget"])
    def test_walk_above_the_step_cap_is_refused(self, server, conformance_graph, field):
        start = conformance_graph.nodes()[0]
        server.service.reset_stats()
        with HTTPGraphBackend(server.url, timeout=5.0, retries=0) as client:
            with pytest.raises(RemoteBackendError) as excinfo:
                client.remote_walk("srw", start, **{field: MAX_WALK_STEPS + 1})
            assert excinfo.value.status == 400
            assert f"max_walk_steps={MAX_WALK_STEPS}" in str(excinfo.value)
            # A budget at the cap is admitted.
            payload = client.remote_walk("srw", start, steps=5, budget=MAX_WALK_STEPS)
            assert payload["steps"] == 5
        # The refusal ran no walk.
        assert server.service.endpoint_counts["/walk"] == 2
        assert server.service.stats_payload()["tenants"]["public"]["walks"] == 1

    def test_info_publishes_the_walk_step_cap(self, server):
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            assert client.info()["max_walk_steps"] == MAX_WALK_STEPS == 100_000

    def test_tenant_budget_above_the_cap_is_not_refused(
        self, backend, serve_service, conformance_graph
    ):
        """The cap bounds what one request asks for; a tenant's allowance is
        operator policy and may exceed it."""
        server = serve_service(
            backend, tenants=tenants_doc(key={"name": "ivy", "budget": MAX_WALK_STEPS + 1})
        )
        start = conformance_graph.nodes()[0]
        with HTTPGraphBackend(server.url, timeout=5.0, retries=0, api_key="key") as ivy:
            payload = ivy.remote_walk("srw", start, seed=GOLDEN_SEED, steps=10)
        assert payload["steps"] == 10

    def test_threaded_server_serves_walks(self, backend, graph_server, conformance_graph):
        threaded = graph_server(backend)
        start = conformance_graph.nodes()[0]
        with HTTPGraphBackend(threaded.url, timeout=10.0, retries=0) as client:
            payload = client.remote_walk("srw", start, seed=GOLDEN_SEED, budget=GOLDEN_BUDGET)
        assert payload["unique_queries"] == GOLDEN_BUDGET
        assert threaded.service.endpoint_counts["/walk"] == 1

    def test_walk_bills_the_tenant_and_respects_its_budget(
        self, backend, serve_service, conformance_graph
    ):
        server = serve_service(
            backend, tenants=tenants_doc(key={"name": "carol", "budget": 70})
        )
        start = conformance_graph.nodes()[0]
        with HTTPGraphBackend(server.url, timeout=10.0, retries=0,
                              api_key="key") as carol:
            first = carol.remote_walk("srw", start, seed=GOLDEN_SEED,
                                      budget=GOLDEN_BUDGET)
            assert first["unique_queries"] == GOLDEN_BUDGET
            stats = carol._request("GET", "/stats")["tenants"]["carol"]
            assert stats["walks"] == 1
            assert stats["budget"]["spent"] == GOLDEN_BUDGET
            assert stats["budget"]["remaining"] == 70 - GOLDEN_BUDGET
            # The next walk is capped by what's left (10), even though it
            # asks for 60 — the server clamps, walks, and bills the rest.
            second = carol.remote_walk("srw", start, seed=GOLDEN_SEED,
                                       budget=GOLDEN_BUDGET)
            assert second["unique_queries"] <= 10
            assert second["stopped_by_budget"] is True
            # Exhausted tenants get the typed 429 before any work happens.
            with pytest.raises(QueryBudgetExceededError):
                carol.remote_walk("srw", start, seed=GOLDEN_SEED)


# ----------------------------------------------------------------------
# GET /stats and the access log
# ----------------------------------------------------------------------
class TestObservability:
    def test_stats_shape_and_server_totals(self, backend, serve_service):
        server = serve_service(backend)
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            server.service.reset_stats()
            node = client.node_ids()[0]
            client.fetch(node)
            stats = client._request("GET", "/stats")
        assert stats["format"] == "repro-graph-http"
        assert stats["version"] == 1
        assert stats["server"] == "threaded"
        assert stats["endpoints"]["/node"] == 1
        assert stats["nodes_served"] == 1
        assert set(stats["tenants"]) == {"public"}
        public = stats["tenants"]["public"]
        assert public["budget"] is None and public["rate_limit"] is None

    def test_access_log_is_one_json_line_per_request(
        self, backend, serve_service, tmp_path
    ):
        log_path = tmp_path / "access.jsonl"
        server = serve_service(
            backend,
            tenants=tenants_doc(key={"name": "dora"}),
            access_log=log_path,
        )
        with HTTPGraphBackend(server.url, timeout=5.0, retries=0,
                              api_key="key") as client:
            node = client.node_ids()[0]
            client.fetch(node)
        bad = HTTPGraphBackend(server.url, timeout=5.0, retries=0)
        with pytest.raises(RemoteBackendError):
            bad.info()
        bad.close()
        lines = [json.loads(line) for line in
                 log_path.read_text().splitlines()]
        assert len(lines) == 3
        assert {line["tenant"] for line in lines} == {"dora", None}
        fetch_line = next(line for line in lines
                          if line["path"].startswith("/node/"))
        assert fetch_line["status"] == 200
        assert fetch_line["nodes"] == 1
        assert fetch_line["ms"] >= 0
        denied = next(line for line in lines if line["tenant"] is None)
        assert denied["status"] == 401


# ----------------------------------------------------------------------
# The sans-IO core, driven without a socket
# ----------------------------------------------------------------------
def _headers(**values):
    return LeanHeaders({
        name.replace("_", "-").lower().encode(): value.encode()
        for name, value in values.items()
    })


class TestGraphServiceSansIO:
    def test_handle_answers_without_a_socket(self, backend):
        service = GraphService(backend, tenants=tenants_doc(key={"name": "fay", "budget": 1}))
        ids = backend.node_ids()
        keyed = _headers(x_api_key="key")
        status, headers, body, close = service.handle(
            "GET", "/node/" + encode_node_id(ids[0]), keyed
        )
        assert (status, close) == (200, False)
        assert headers == [("Content-Type", "application/json")]
        assert json.loads(body)["node"] == ids[0]
        status, _, body, _ = service.handle("GET", "/node/" + encode_node_id(ids[1]), keyed)
        assert (status, json.loads(body)["error"]) == (429, "budget_exhausted")
        assert service.handle("GET", "/info", _headers())[0] == 401
        assert service.handle("PUT", "/info", keyed)[0] == 501
        assert service.handle("GET", "/info", _headers(x_api_key="key", connection="close"))[3]
        assert service.endpoint_counts == {"/node": 2, "/info": 3}
        assert service.nodes_served == 1
        service.close()

    def test_in_flight_requests_bill_a_fresh_node_once(self, backend):
        """Two requests for one fresh node whose fetches overlap: the first
        reservation bills it, the second finds it billed (free)."""
        both_in_flight = threading.Barrier(2, timeout=10)

        class OverlappingBackend(InMemoryBackend):
            def fetch_many(self, nodes):
                both_in_flight.wait()
                return super().fetch_many(nodes)

        service = GraphService(
            OverlappingBackend(backend.graph),
            tenants=tenants_doc(key={"name": "hal", "budget": 5}),
        )
        body = json.dumps({"nodes": [backend.node_ids()[0]]}).encode()
        statuses: list = []
        workers = [
            threading.Thread(target=lambda: statuses.append(
                service.handle("POST", "/nodes", _headers(x_api_key="key"), body)[0]))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert statuses == [200, 200]
        assert service.stats_payload()["tenants"]["hal"]["budget"]["spent"] == 1
        service.close()

    def test_concurrent_billing_never_loses_or_overspends(self, backend):
        """Threads racing one budgeted tenant (fresh, repeated and missing
        nodes): every distinct node served is billed exactly once, and the
        per-endpoint counts lose no request."""
        limit, threads, requests = 40, 8, 60
        service = GraphService(backend, tenants=tenants_doc(key={"name": "gus", "budget": limit}))
        ids = backend.node_ids()[:70]
        keyed = _headers(x_api_key="key")
        served: list = []
        errors: list = []

        def client(seed):
            try:
                for i in range(requests):
                    batch = [ids[(seed * 31 + i * 7 + k) % len(ids)] for k in range(3)]
                    if i % 5 == 0:
                        batch.append("missing-node")  # 404s the batch: refund
                    body = json.dumps({"nodes": batch}).encode()
                    status, _, payload, _ = service.handle("POST", "/nodes", keyed, body)
                    if status == 200:
                        served.extend(r["node"] for r in json.loads(payload)["records"])
            except Exception as error:  # pragma: no cover - diagnostics only
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client, args=(s,)) for s in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        stats = service.stats_payload()["tenants"]["gus"]
        assert stats["budget"]["spent"] == stats["unique_nodes"] == len(set(served))
        assert stats["budget"]["spent"] <= limit
        assert service.endpoint_counts["/nodes"] == threads * requests
        service.close()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_url_exists_before_start_and_close_is_idempotent(self, backend):
        server = serve_backend(backend)
        assert server.url.startswith("http://127.0.0.1:")
        assert server in GraphHTTPServer.live_servers()
        server.close()
        server.close()
        assert server.closed
        assert server not in GraphHTTPServer.live_servers()

    def test_context_manager_starts_and_closes(self, backend):
        with serve_backend(backend) as server:
            with HTTPGraphBackend(server.url, timeout=5.0) as client:
                assert client.info()["server"] == "threaded"
        assert server.closed

    def test_start_twice_is_refused(self, backend):
        with serve_backend(backend) as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()

    def test_closed_server_refuses_start(self, backend):
        server = serve_backend(backend)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.start()

    def test_close_with_open_keepalive_connection_does_not_hang(self, backend):
        server = serve_backend(backend).start()
        client = HTTPGraphBackend(server.url, timeout=5.0)
        assert client.info()["nodes"] == len(backend)
        # The client's keep-alive socket is still open; close() must force it
        # shut rather than wait for the peer.
        server.close()
        assert server.closed
        client.close()
