"""The sans-IO graph service: every rule above HTTP framing, in one place.

:class:`GraphService` answers one parsed request at a time through
:meth:`GraphService.handle` — ``(method, target, headers, body) -> (status,
headers, body, close)`` — and never touches a socket.  The HTTP frontend,
:mod:`repro.server.app` (a thread per connection), is a thin I/O adapter
around it: it parses with :mod:`repro.server.wire`, calls
:meth:`~GraphService.handle` and writes the bytes back.  Everything a client
can observe beyond framing lives here:

* routing for every endpoint of the ``repro-graph-http`` wire —
  ``GET /info``, ``GET /node/<id>``, ``POST /nodes``, ``GET /meta/<id>``,
  ``GET /node-ids``, ``POST /walk``, ``GET /stats`` and ``GET /metrics``;
* the ``/info`` descriptor, typed node-error payloads and node-id decoding;
* the ``POST /walk`` admission limit, :data:`MAX_WALK_STEPS`;
* per-tenant policy (:mod:`repro.server.tenants`): API-key resolution,
  unique-node billing and rate limits, answered as typed 401/429 bodies;
* accounting: per-endpoint counts, ``nodes_served``, the ``repro_server_*``
  and ``repro_tenant_*`` metrics rendered by ``GET /metrics``;
* the ``X-Repro-Span`` trace echo and the optional JSONL access log.

Every handler thread calls into one service, so one lock guards every
mutation of its counters and tenant state.  No I/O runs under that lock
except the opt-in access-log line.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.backend import GraphBackend, as_backend
from ..api.builder import build_api
from ..api.remote import (
    WIRE_FORMAT,
    WIRE_VERSION,
    decode_node_id,
    record_to_wire,
    walk_fingerprint,
)
from ..exceptions import (
    DeadEndError,
    InvalidConfigurationError,
    InvalidStartNodeError,
    NodeNotFoundError,
    QueryBudgetExceededError,
    RateLimitExceededError,
    ReplayMissError,
    TenantAuthError,
)
from ..obs import (
    SPAN_ECHO_HEADER,
    TRACE_HEADER,
    MetricsRegistry,
    format_span_echo,
    metrics as global_metrics,
    new_span_id,
    parse_trace_header,
    suppress_metrics,
)
from ..walks.factory import make_walker
from .tenants import API_KEY_HEADER, TenantPolicy, WallClock, build_registry

#: ``(status, headers, body, close)`` — one response, ready for framing.
Response = Tuple[int, List[Tuple[str, str]], bytes, bool]

#: Metric names the service reports into its per-server registry.
REQUESTS_TOTAL = "repro_server_requests_total"
REQUEST_MS = "repro_server_request_ms"
NODES_SERVED_TOTAL = "repro_server_nodes_served_total"
WALKS_TOTAL = "repro_server_walks_total"
TENANT_REQUEST_MS = "repro_tenant_request_ms"

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Endpoints billed against a tenant's rate limit: the ones that cost the
#: upstream service work per the paper's cost model (neighborhood queries and
#: server-side walks).  ``/info``, ``/meta``, ``/node-ids`` and ``/stats``
#: stay free, like profile peeks in the paper.
_BILLABLE = {"/node", "/nodes", "/walk"}

#: The most steps, or the largest ``budget``, one ``POST /walk`` may ask for
#: (published in ``/info`` as ``max_walk_steps``); larger requests answer a
#: typed 400.  It is also the step cap of a walk that names neither and runs
#: for an unlimited tenant, so no request can walk forever.  A budget that
#: comes from the tenant's allowance is operator policy and is not capped.
MAX_WALK_STEPS = 100_000

#: The ``"server"`` field of ``/info`` and ``/stats``: the name of the
#: frontend, which is always the thread-per-connection one.
FRONTEND = "threaded"


class _Refusal(Exception):
    """A request the service answers with a non-200 status and JSON body."""

    def __init__(self, status: int, error: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": error, "message": message}


def _bad_request(message: str) -> _Refusal:
    return _Refusal(400, "bad_request", message)


def _path_of(target: str) -> str:
    return urllib.parse.urlsplit(target).path


def _endpoint_of(path: str) -> str:
    """The first path segment (``/node/7`` -> ``/node``): the counting key."""
    return "/" + path.lstrip("/").split("/", 1)[0] if path.strip("/") else "/"


def _decode_node(segment: str):
    try:
        return decode_node_id(segment)
    except ValueError:
        raise _bad_request(
            f"node id path segment {segment!r} is not JSON "
            f"(ids travel JSON-encoded, percent-escaped)"
        ) from None


def _json_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise _bad_request(f"request body is not JSON: {error}") from None


def _node_error_payload(error: NodeNotFoundError) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "error": "replay_miss" if isinstance(error, ReplayMissError) else "not_found",
        "message": str(error),
    }
    try:
        json.dumps(error.node)
        payload["node"] = error.node
    except (TypeError, ValueError):
        # A non-JSON-able id can only have been produced server-side (the
        # wire always delivers JSON values); degrade to its repr.
        payload["node"] = repr(error.node)
    source = getattr(error, "source", None)
    if source is not None:
        payload["source"] = str(source)
    return payload


def _encode(payload) -> Tuple[str, bytes]:
    """``(content type, body)``: JSON, or the ``/metrics`` text exposition."""
    if isinstance(payload, str):
        return _PROMETHEUS, payload.encode("utf-8")
    return _JSON, json.dumps(payload).encode("utf-8")


def _error_response(error: Exception) -> Tuple[int, Dict[str, Any]]:
    """Map an exception raised while routing to its status and JSON body."""
    if isinstance(error, _Refusal):
        return error.status, error.payload
    if isinstance(error, TenantAuthError):
        return 401, {"error": "unauthorized", "message": str(error)}
    if isinstance(error, RateLimitExceededError):
        return 429, {
            "error": "rate_limited",
            "message": str(error),
            "retry_after": error.retry_after,
        }
    if isinstance(error, QueryBudgetExceededError):
        return 429, {
            "error": "budget_exhausted",
            "message": str(error),
            "limit": error.budget,
            "spent": error.spent,
        }
    if isinstance(error, NodeNotFoundError):
        return 404, _node_error_payload(error)
    return 500, {"error": "server_error", "message": f"{type(error).__name__}: {error}"}


class GraphService:
    """One graph backend behind the ``repro-graph-http`` wire, minus the I/O.

    Args:
        source: Anything :func:`~repro.api.backend.as_backend` accepts.
        tenants: ``None`` (open service), a ``tenants.json`` path, a decoded
            tenants document, or a :class:`~repro.server.tenants.TenantRegistry`.
        clock: Clock for rate-limit windows (defaults to the wall clock;
            tests inject a :class:`~repro.api.ratelimit.SimulatedClock`).
        access_log: Optional path; one JSON line is appended per request.

    The frontend that mounts the service calls :meth:`close` when it shuts
    down.
    """

    def __init__(self, source, *, tenants=None, clock=None, access_log=None) -> None:
        self.graph_backend: GraphBackend = as_backend(source)
        self.tenants = build_registry(tenants)
        self._clock = clock if clock is not None else WallClock()
        self.endpoint_counts: Counter = Counter()
        self._nodes_served = 0
        #: Per-service registry: isolated from other servers in the process,
        #: rendered by ``GET /metrics``, reset atomically by `reset_stats`.
        self.metrics = MetricsRegistry()
        #: The one lock over counters, tenant state and the access log.
        self._lock = threading.Lock()
        # Line-buffered so every entry lands on disk as soon as its line is
        # complete — ``tail -f`` on the log sees requests live.
        self._access_log = (
            Path(access_log).open("a", encoding="utf-8", buffering=1)
            if access_log is not None else None
        )

    def close(self) -> None:
        """Close the access log; later requests are answered but not logged."""
        with self._lock:
            log, self._access_log = self._access_log, None
        if log is not None:
            log.close()

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------
    def count_request(self, target: str) -> None:
        """Count one request that reached the service, answered or not."""
        endpoint = _endpoint_of(_path_of(target))
        with self._lock:
            self.endpoint_counts[endpoint] += 1

    def handle(self, method: str, target: str, headers, body: bytes = b"") -> Response:
        """Answer one request: ``(status, headers, body, close)``.

        ``headers`` is any case-insensitive mapping with ``get`` (the wire's
        :class:`~repro.server.wire.LeanHeaders`).  The returned headers carry
        content metadata only; framing (``Content-Length``,
        ``Connection: close`` when ``close`` is true) is the adapter's.
        Never raises for a request-level failure: every error is a response.
        """
        started = time.perf_counter()
        path = _path_of(target)
        endpoint = _endpoint_of(path)
        # Trace context travels as an additive header; malformed or absent
        # values leave tracing off for this request (never a refusal).
        trace_ctx = parse_trace_header(headers.get(TRACE_HEADER))
        tenant: Optional[TenantPolicy] = None
        served = 0
        try:
            with self._lock:
                self.endpoint_counts[endpoint] += 1
                tenant = self.tenants.resolve(headers.get(API_KEY_HEADER))
                tenant.charge_request(endpoint)
                if endpoint in _BILLABLE:
                    tenant.acquire_slot(self._clock)
            status, payload, served = self._route(method, path, body, tenant)
            content_type, data = _encode(payload)
        except Exception as error:  # noqa: BLE001 - every failure is a response
            status, payload = _error_response(error)
            served = 0
            content_type, data = _encode(payload)
        duration_ms = (time.perf_counter() - started) * 1000.0
        if served:
            with self._lock:
                self._nodes_served += served
            self.metrics.inc(NODES_SERVED_TOTAL, served)
        self.metrics.inc(REQUESTS_TOTAL, endpoint=endpoint, status=status)
        self.metrics.observe(REQUEST_MS, duration_ms, endpoint=endpoint)
        if tenant is not None:
            self.metrics.observe(TENANT_REQUEST_MS, duration_ms, tenant=tenant.name)
        out_headers = [("Content-Type", content_type)]
        trace_id = None
        if trace_ctx is not None:
            trace_id, parent_span = trace_ctx
            out_headers.append((SPAN_ECHO_HEADER, format_span_echo(
                trace_id, new_span_id(), parent_span, duration_ms, "server" + endpoint,
            )))
        if self._access_log is not None:
            self._log_access(
                tenant.name if tenant is not None else None,
                method, path, status, served, duration_ms, trace_id,
            )
        # An unknown method's framing expectations are unknown too (a HEAD
        # client reads no body), so its refusal also ends the connection.
        close = status == 501 or (headers.get("Connection") or "").lower() == "close"
        return status, out_headers, data, close

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes, tenant: TenantPolicy):
        """``(status, payload, nodes served)`` for one admitted request."""
        backend = self.graph_backend
        if method == "GET":
            if path == "/info":
                return 200, self._info(), 0
            if path == "/node-ids":
                return 200, {"nodes": backend.node_ids()}, 0
            if path == "/stats":
                return 200, self.stats_payload(), 0
            if path == "/metrics":
                return 200, self.metrics.render_prometheus(), 0
            if path.startswith("/node/"):
                node = _decode_node(path[len("/node/"):])
                record = self._fetch(tenant, [node], lambda: [backend.fetch(node)])[0]
                return 200, record_to_wire(record), 1
            if path.startswith("/meta/"):
                return 200, self._meta(_decode_node(path[len("/meta/"):])), 0
        elif method == "POST":
            if path == "/nodes":
                payload = _json_body(body)
                nodes = payload.get("nodes") if isinstance(payload, dict) else None
                if not isinstance(nodes, list):
                    raise _bad_request('request body must be {"nodes": [...]}')
                records = self._fetch(tenant, nodes, lambda: backend.fetch_many(nodes))
                return 200, {
                    "records": [record_to_wire(record) for record in records]
                }, len(records)
            if path == "/walk":
                return self._walk(_json_body(body), tenant)
        else:
            raise _Refusal(501, "not_implemented", f"unsupported method {method}")
        raise _Refusal(404, "unknown_endpoint", f"no endpoint at {path}")

    def _info(self) -> Dict[str, Any]:
        backend = self.graph_backend
        descriptor: Dict[str, Any] = {
            "format": WIRE_FORMAT,
            "version": WIRE_VERSION,
            "name": backend.name,
            "nodes": len(backend),
            "backend": type(backend).__name__,
            "server": FRONTEND,
            "max_walk_steps": MAX_WALK_STEPS,
        }
        # Replay-backed servers publish the dump's recorded start so a remote
        # client can restart the recorded crawl without pulling the whole id
        # table; shard slices publish their membership epoch and replica spec
        # so cluster clients can detect a stale manifest after a repartition,
        # and their primary count so a cluster's len() needs no id tables.
        for key in ("recorded_start", "epoch", "shard", "replicas", "primary"):
            value = getattr(backend, key, None)
            if value is not None:
                descriptor["start" if key == "recorded_start" else key] = value
        return descriptor

    def _meta(self, node) -> Dict[str, Any]:
        backend = self.graph_backend
        payload: Dict[str, Any] = {"meta": node, "contains": bool(backend.contains(node))}
        summary = backend.metadata(node)
        if summary is not None:
            payload["degree"] = summary.get("degree")
            payload["attributes"] = summary.get("attributes", {})
        return payload

    def _fetch(self, tenant: TenantPolicy, nodes: Sequence, fetch):
        """Bill ``nodes`` to ``tenant``, run ``fetch``, settle the bill.

        The bill is taken under the lock *before* the fetch, so a denied
        request is free and concurrent requests can never jointly overspend;
        the fetch itself runs unlocked.
        """
        with self._lock:
            held = tenant.reserve_nodes(nodes)
        try:
            records = fetch()
        except BaseException:
            with self._lock:
                tenant.settle_nodes(held, served=False)
            raise
        with self._lock:
            tenant.settle_nodes(held, served=True)
            tenant.nodes_served += len(records)
        return records

    # ------------------------------------------------------------------
    # Server-side walks
    # ------------------------------------------------------------------
    def _walk(self, payload: Any, tenant: TenantPolicy):
        if not isinstance(payload, dict):
            raise _bad_request('request body must be {"kernel": ..., "start": ...}')
        kernel = payload.get("kernel")
        if not isinstance(kernel, str):
            raise _bad_request('walk request needs a string "kernel"')
        if "start" not in payload:
            raise _bad_request('walk request needs a "start" node id')
        start = payload["start"]
        seed = payload.get("seed", 0)
        steps = payload.get("steps")
        budget = payload.get("budget")
        burn_in = payload.get("burn_in", 0)
        thinning = payload.get("thinning", 1)
        for name, value, optional in (
            ("steps", steps, True),
            ("budget", budget, True),
            ("burn_in", burn_in, False),
            ("thinning", thinning, False),
        ):
            if value is None and optional:
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise _bad_request(f'walk "{name}" must be a non-negative integer')
            if optional and value > MAX_WALK_STEPS:
                raise _bad_request(
                    f'walk "{name}" {value} exceeds max_walk_steps={MAX_WALK_STEPS}'
                )
        # Cap the walk's budget by what the tenant has left, so one request
        # cannot crawl past its allowance; billing happens after the walk
        # from its *unique* query count, matching the paper's cost model.
        with self._lock:
            remaining = tenant.budget.remaining
            if remaining is not None and remaining <= 0:
                raise QueryBudgetExceededError(tenant.budget.limit, spent=tenant.budget.spent)
        if remaining is not None:
            budget = remaining if budget is None else min(budget, remaining)
        if steps is None and budget is None:
            steps = MAX_WALK_STEPS
        try:
            result = self._run_walk(kernel, start, seed, steps, budget, burn_in, thinning)
        except (InvalidConfigurationError, InvalidStartNodeError, DeadEndError,
                ValueError) as error:
            raise _bad_request(str(error)) from error
        with self._lock:
            tenant.bill_walk(result.unique_queries)
        self.metrics.inc(WALKS_TOTAL)
        path = list(result.path)
        return 200, {
            "path": path,
            "fingerprint": walk_fingerprint(path),
            "steps": result.steps,
            "unique_queries": result.unique_queries,
            "total_queries": result.total_queries,
            "stopped_by_budget": result.stopped_by_budget,
            "samples": result.num_samples,
        }, result.unique_queries

    def _run_walk(self, kernel, start, seed, steps, budget, burn_in, thinning):
        """Run one walk under the default middleware stack a local crawl builds.

        :func:`~repro.api.builder.build_api` with a fresh budget makes a
        server-side walk bit-identical to the client-driven walk with the
        same kernel, seed and budget — the conformance suite pins this.
        """
        api = build_api(self.graph_backend, budget=budget)
        walker = make_walker(kernel, api=api, seed=seed)
        # Per-query registry adds would tax the walk by more than the graph
        # work itself; report the walk's cache traffic in aggregate instead
        # (every repeated query is a hit, every unique one a miss).
        with suppress_metrics():
            result = walker.run(start, max_steps=steps, burn_in=burn_in, thinning=thinning)
        registry = global_metrics()
        if registry is not None:
            registry.inc("repro_cache_hits_total", result.total_queries - result.unique_queries)
            registry.inc("repro_cache_misses_total", result.unique_queries)
        return result

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def nodes_served(self) -> int:
        """Total node records served across ``/node``, ``/nodes`` and ``/walk``."""
        with self._lock:
            return self._nodes_served

    def stats_payload(self) -> Dict[str, Any]:
        """The ``GET /stats`` body."""
        # Tenants are read under the same lock `reset_stats` holds, so a
        # stats read never interleaves with a reset (half-zeroed figures).
        with self._lock:
            endpoints = dict(self.endpoint_counts)
            nodes_served = self._nodes_served
            tenants = {policy.name: policy.stats_payload() for policy in self.tenants.policies()}
        return {
            "format": WIRE_FORMAT,
            "version": WIRE_VERSION,
            "server": FRONTEND,
            "endpoints": endpoints,
            "nodes_served": nodes_served,
            "tenants": tenants,
            "latency": {
                "endpoints": self.metrics.histogram_family(REQUEST_MS, "endpoint"),
                "tenants": self.metrics.histogram_family(TENANT_REQUEST_MS, "tenant"),
            },
        }

    def reset_stats(self) -> None:
        """Zero every reported figure atomically: counts, registry, tenants.

        Holding the service lock across all three makes the reset indivisible
        with respect to `stats_payload`; the registry's own lock makes it
        indivisible with respect to a concurrent ``/metrics`` scrape.  Tenant
        *enforcement* state (budget spent, rate windows) survives — only the
        reported usage counters are cleared.
        """
        with self._lock:
            self.endpoint_counts.clear()
            self._nodes_served = 0
            self.metrics.reset()
            for policy in self.tenants.policies():
                policy.reset_usage()

    def _log_access(self, tenant, method, path, status, nodes, duration_ms, trace_id) -> None:
        entry = {
            "ts": round(time.time(), 6),
            "tenant": tenant,
            "method": method,
            "path": path,
            "status": status,
            "nodes": nodes,
            "ms": round(duration_ms, 3),
            "duration_ms": round(duration_ms, 3),
        }
        if trace_id is not None:
            entry["trace_id"] = trace_id
        line = json.dumps(entry) + "\n"
        with self._lock:
            if self._access_log is not None:  # closed mid-shutdown
                self._access_log.write(line)


def as_service(source) -> GraphService:
    """``source`` itself when it is a :class:`GraphService`, else an open one over it."""
    return source if isinstance(source, GraphService) else GraphService(source)
