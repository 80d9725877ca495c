"""Deterministic fault-injection fakes for the remote access layer.

Two layers of misbehaviour, both driven by explicit scripts so every test is
exactly reproducible:

* :class:`FlakyBackend` wraps any :class:`~repro.api.backend.GraphBackend`
  and raises scripted exceptions from ``fetch`` / ``fetch_many``.  Mounted
  *inside* a graph server it makes the service answer HTTP 500 on schedule —
  the "storage tier hiccuped" failure mode.
* :class:`FlakyHTTPHandler` is a :class:`~repro.server.GraphRequestHandler`
  that consults the server's ``fault_plan`` deque before routing each
  request — the "transport misbehaved" failure modes: HTTP 500 bodies,
  malformed (non-JSON) 200 responses, dropped connections, and stalls that
  outlast the client's socket timeout.

Both consume their plan one entry per call/request, so a test pins the exact
interleaving of faults and retries: walks either complete bit-identically
after the client's bounded retries, or fail with a typed
:class:`~repro.exceptions.RemoteBackendError` — never silently diverge.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.api.backend import GraphBackend, RawRecord
from repro.server import GraphRequestHandler
from repro.obs import SPAN_ECHO_HEADER, TRACE_HEADER, format_span_echo, new_span_id, parse_trace_header
from repro.server.wire import render_response
from repro.types import NodeId

#: Fault tokens understood by :class:`FlakyHTTPHandler`.
FAULT_500 = "500"
FAULT_GARBAGE = "garbage"
FAULT_CLOSE = "close"
FAULT_TIMEOUT = "timeout"
FAULT_LONG_STATUS = "long-status"


class FlakyBackend(GraphBackend):
    """Raise scripted exceptions before delegating to a real backend.

    ``plan`` is consumed one entry per ``fetch`` / ``fetch_many`` call:
    ``None`` means "answer normally", an exception instance is raised.  Once
    the plan is exhausted every call succeeds.
    """

    def __init__(self, inner: GraphBackend, plan: Iterable[Optional[Exception]] = ()) -> None:
        self._inner = inner
        self.plan = deque(plan)
        self.name = f"flaky:{inner.name}"

    def _maybe_fail(self) -> None:
        if self.plan:
            fault = self.plan.popleft()
            if fault is not None:
                raise fault

    def fetch(self, node: NodeId) -> RawRecord:
        self._maybe_fail()
        return self._inner.fetch(node)

    def fetch_many(self, nodes: Sequence[NodeId]) -> List[RawRecord]:
        self._maybe_fail()
        return self._inner.fetch_many(nodes)

    def contains(self, node: NodeId) -> bool:
        return self._inner.contains(node)

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        return self._inner.metadata(node)

    def node_ids(self) -> List[NodeId]:
        return self._inner.node_ids()

    def sample_node(self, rng) -> NodeId:
        return self._inner.sample_node(rng)

    def __len__(self) -> int:
        return len(self._inner)


class FlakyHTTPHandler(GraphRequestHandler):
    """Inject transport-level faults from the server's ``fault_plan`` deque.

    Tests attach the script after booting the server::

        server = graph_server(backend, handler_class=FlakyHTTPHandler)
        server.fault_plan = deque(["500", None, "garbage"])
        server.fault_stall = 0.4   # seconds a "timeout" fault sleeps

    Each incoming request pops one token (``deque.popleft`` is atomic, and the
    serial client issues one request at a time, so consumption order is the
    request order).  An empty or exhausted plan serves normally.
    """

    JSON = [("Content-Type", "application/json")]

    def inject_fault(self) -> bool:
        plan = getattr(self.server, "fault_plan", None)
        fault = plan.popleft() if plan else None
        if fault is None:
            return False
        if fault == FAULT_500:
            # Like a real server error, the injected 500 echoes the caller's
            # trace context so the client's retry spans stay correlated.
            headers = list(self.JSON)
            trace_ctx = parse_trace_header(self.headers.get(TRACE_HEADER))
            if trace_ctx is not None:
                echo = format_span_echo(trace_ctx[0], new_span_id(), trace_ctx[1], 0.0, "server/fault")
                headers.append((SPAN_ECHO_HEADER, echo))
            body = b'{"error": "server_error", "message": "injected fault"}'
            self.wfile.write(render_response(500, headers, body, False))
            return True
        if fault == FAULT_GARBAGE:
            body = b"<html>this is not JSON</html>"
            self.wfile.write(render_response(200, self.JSON, body, False))
            return True
        if fault == FAULT_CLOSE:
            # Drop the connection without a response: the client sees the
            # socket close mid-exchange (RemoteDisconnected) and retries.
            self.close_connection = True
            return True
        if fault == FAULT_TIMEOUT:
            # Stall past the client's socket timeout, then give up on the
            # connection (the client has long since abandoned it).
            time.sleep(getattr(self.server, "fault_stall", 0.5))
            self.close_connection = True
            return True
        if fault == FAULT_LONG_STATUS:
            # A status line past the client's 64 KiB line cap, written raw:
            # the client must refuse it as "oversized status line" (and drop
            # the connection), never hand back a silent truncation.
            self.wfile.write(
                b"HTTP/1.1 200 " + b"x" * (64 * 1024 + 64) + b"\r\n\r\n"
            )
            self.close_connection = True
            return True
        raise AssertionError(f"unknown fault token {fault!r}")
