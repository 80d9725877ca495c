"""HTTP client backend: drive a remote graph service through the backend protocol.

The paper's whole premise is sampling a graph that is only reachable through a
remote, rate-limited API — yet until this module every backend was local.
:class:`HTTPGraphBackend` implements the two-method
:class:`~repro.api.backend.GraphBackend` protocol over a JSON-over-HTTP wire,
so every kernel, middleware layer and scheduler drives a graph served on
another machine *bit-identically* to a local run (the conformance suite in
``tests/test_backend_conformance.py`` asserts exactly that).

The wire format is the PR-3 crawl-record JSON — the same
``{"node": ..., "neighbors": [...], "attributes": {...}}`` lines a crawl dump
holds — served by :mod:`repro.server` from any existing backend:

========================  =====================================================
``GET /info``             service descriptor (format, version, name, nodes)
``GET /node/<id>``        one crawl record; 404 + error JSON when missing
``POST /nodes``           batched ``fetch_many``: ``{"nodes": [...]}`` in,
                          ``{"records": [...]}`` out (atomic: a missing node
                          404s the whole batch, mirroring a local batch fetch)
``GET /meta/<id>``        free profile summary (the crawl-dump ``meta`` line)
``GET /node-ids``         every node id, in backend order
========================  =====================================================

Node ids in URL paths are JSON-encoded then percent-encoded, so string ids
(unicode included) and integer ids stay distinguishable and round-trip losslessly.

The client keeps one persistent connection (HTTP/1.1 keep-alive), applies a
per-request timeout, and retries transient failures — timeouts, connection
resets, 5xx responses and malformed JSON bodies — a bounded number of times
with deterministic exponential backoff.  Failures map to typed exceptions:
node-level 404s become :class:`~repro.exceptions.NodeNotFoundError` (or
:class:`~repro.exceptions.ReplayMissError` when the server replays a crawl
dump), everything else becomes :class:`~repro.exceptions.RemoteBackendError`.

The transport is a purpose-built :class:`_LeanHTTPConnection` rather than
``http.client``: a crawl is thousands of tiny keep-alive exchanges, and
``http.client`` burns ~0.2 ms of pure CPU per response parsing headers
through ``email.parser`` — several times the cost of the fetch itself on
loopback, and the dominant term once a sharded cluster multiplies the
request count by the shard fan-out.  The lean connection also splits one
exchange into :meth:`~_LeanHTTPConnection.send_request` /
:meth:`~_LeanHTTPConnection.read_response`, which is what lets
:class:`~repro.cluster.ShardedBackend` *pipeline* a frontier batch: post
every shard's sub-batch first, then collect the responses while the shard
servers work concurrently.  Every request, plain or pipelined, is one
``_begin`` / ``_finish`` pair on :class:`HTTPGraphBackend`: begin sends
attempt 1, finish reads it and runs the one bounded retry loop, so both
kinds get the same attempt bound, spans and ``repro_http_*`` counts.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.parse
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import (
    NodeNotFoundError,
    QueryBudgetExceededError,
    RateLimitExceededError,
    RemoteBackendError,
    ReplayMissError,
    format_node_id,
)
from .. import obs
from ..obs import TRACE_HEADER, format_trace_header
from ..types import NodeId
from .backend import GraphBackend, RawRecord

#: Format identifier served by ``GET /info`` (and demanded by the client).
WIRE_FORMAT = "repro-graph-http"
#: Current wire-protocol version; bump on any incompatible change.
WIRE_VERSION = 1


# ----------------------------------------------------------------------
# Wire schema: the crawl-record JSON of repro.storage.replay, reused
# ----------------------------------------------------------------------
def record_to_wire(record: RawRecord) -> Dict[str, Any]:
    """Encode one :class:`RawRecord` as a crawl-record JSON object."""
    line: Dict[str, Any] = {"node": record.node, "neighbors": list(record.neighbors)}
    if record.attributes:
        line["attributes"] = record.attributes
    return line


def record_from_wire(payload: Any) -> RawRecord:
    """Decode a crawl-record JSON object back into a :class:`RawRecord`."""
    try:
        return RawRecord(
            payload["node"], tuple(payload["neighbors"]), dict(payload.get("attributes", ()))
        )
    except (KeyError, TypeError) as exc:
        raise RemoteBackendError(
            f"malformed node record on the wire ({exc}): {payload!r}"
        ) from exc


def _coerce_id(value):
    """JSON encoder default: numpy integers travel as plain ints."""
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(
        f"node id of type {type(value).__name__} is not JSON-representable"
    )


#: The one request-body encoder: ``json.dumps`` with keyword arguments builds
#: a fresh encoder on every call; this one encodes the same bytes.
_WIRE_JSON = json.JSONEncoder(default=_coerce_id)

_SCALAR_ID_TYPES = (str, int, float, bool, type(None), np.integer)


def _require_scalar_id(node: NodeId) -> None:
    """Reject node ids JSON would silently restructure.

    A tuple id is perfectly valid locally but JSON encodes it as a list, so
    it would come back unhashable and wrong-typed; failing fast with a typed
    error beats a confusing server-side 500 after the retries burn out.
    """
    if not isinstance(node, _SCALAR_ID_TYPES):
        raise RemoteBackendError(
            f"node id {format_node_id(node)} cannot travel over the wire: only scalar "
            f"JSON values (str, int, float, bool, null) survive the round "
            f"trip, not {type(node).__name__}"
        )


def encode_node_id(node: NodeId) -> str:
    """Return the URL path segment for ``node``: JSON, percent-encoded.

    JSON keeps integer and string ids distinguishable (``5`` vs ``"5"``);
    percent-encoding with no safe characters keeps slashes, quotes, spaces and
    non-ASCII out of the request line.
    """
    _require_scalar_id(node)
    try:
        encoded = _WIRE_JSON.encode(node)
    except (TypeError, ValueError) as exc:
        raise RemoteBackendError(
            f"node id {format_node_id(node)} cannot travel over the wire: {exc}"
        ) from exc
    return urllib.parse.quote(encoded, safe="")


def decode_node_id(segment: str) -> NodeId:
    """Invert :func:`encode_node_id` (raises ``ValueError`` on bad input)."""
    return json.loads(urllib.parse.unquote(segment))


def walk_fingerprint(path: Sequence[NodeId]) -> int:
    """CRC-32 fingerprint of a walk path (the conformance-suite formula).

    ``POST /walk`` returns this alongside the path so one integer proves a
    server-side walk step-for-step identical to a local run; the client
    recomputes it over the delivered path and refuses a mismatch.
    """
    return zlib.crc32(",".join(map(str, path)).encode("utf-8"))


# ----------------------------------------------------------------------
# HTTP/1.1 header-block rules, shared with the server frontend
# ----------------------------------------------------------------------
#: Hard cap on one request/status/header line (mirrors http.client).
MAX_LINE = 65536
#: Hard cap on header lines per message (mirrors http.client's _MAXHEADERS).
MAX_HEADERS = 100


class FramingError(Exception):
    """A message refused by the framing rules, with the status a server answers."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def read_header_block(readline) -> Optional[Dict[bytes, bytes]]:
    """Read one header block into a lowercased ``name -> value`` map.

    ``readline`` is a binary file's ``readline``.  Returns ``None`` at EOF
    before the blank line that ends the block: a peer that died mid-message
    never sent a complete block.  Raises :class:`FramingError` with 431 past
    :data:`MAX_LINE` bytes on one line or :data:`MAX_HEADERS` header *lines*
    (lines, not distinct names: a peer repeating one header would otherwise
    stream forever, as the socket timeout never fires while data arrives),
    and with 400 on a line without a colon and on *conflicting duplicates*
    — the same name twice with different values.  Two ``Content-Length``
    headers that disagree are a request-smuggling probe, not a bug to paper
    over; refusing every conflicting duplicate keeps the rule simple and
    the map canonical.  Repeats with the *same* value stay accepted, as
    retrying proxies occasionally produce them harmlessly.
    """
    raw: Dict[bytes, bytes] = {}
    for _ in range(MAX_HEADERS + 1):
        line = readline(MAX_LINE + 1)
        if not line:
            return None
        if len(line) > MAX_LINE:
            raise FramingError(431, "Line too long")
        if line in (b"\r\n", b"\n"):
            return raw
        name, separator, value = line.partition(b":")
        if not separator:
            raise FramingError(400, f"Malformed header line {line!r}")
        value = value.strip()
        if raw.setdefault(name.strip().lower(), value) != value:
            raise FramingError(
                400,
                f"Conflicting duplicate header {name.strip().decode('iso-8859-1')!r}",
            )
    raise FramingError(431, "Too many headers")


def content_length(value) -> int:
    """A ``Content-Length`` value (``str`` or ``bytes``) as a byte count.

    Only plain ASCII decimal digits frame a body: ``-1`` would read "until
    EOF" and pin the connection, and ``+2`` is a shape a lenient ``int()``
    accepts that another parser on the path may not.  Anything else raises
    :class:`FramingError` with 400.
    """
    if not (value.isascii() and value.isdigit()):
        raise FramingError(400, f"Content-Length {value!r} is not a non-negative integer")
    return int(value)


class _WireError(Exception):
    """A malformed or truncated HTTP response on the lean transport.

    Treated exactly like a dropped connection: the client closes the socket
    and retries (bounded, with backoff) — never parses on hopefully.
    """


class _TransientResponse(Exception):
    """A complete, well-framed response worth retrying (5xx, garbage JSON).

    Unlike :class:`_WireError` the connection itself is healthy — the body
    was fully read — so the retry reuses the keep-alive socket.
    """


class _LeanHTTPConnection:
    """Minimal HTTP/1.1 keep-alive connection tuned for the graph wire.

    Speaks exactly the subset of HTTP/1.1 the graph service emits — one
    status line, plain ``Name: value`` header lines, a ``Content-Length``
    framed body (the server never chunks) — and parses it with
    ``bytes.partition`` instead of ``email.parser``, which cuts the fixed
    per-response CPU cost by an order of magnitude.  The header block obeys
    the server's own rules (:func:`read_header_block`,
    :func:`content_length`).  Any response outside that subset raises
    :class:`_WireError` and the caller reconnects.

    One exchange is two calls — :meth:`send_request` then
    :meth:`read_response` — so several connections can have requests in
    flight at once (the sharded tier's pipelined fan-out) while each single
    connection stays strictly request/response.
    """

    def __init__(self, scheme: str, host: str, port: Optional[int],
                 timeout: float, host_header: str,
                 extra_headers: str = "") -> None:
        self._scheme = scheme
        self._host = host
        self._port = port if port is not None else (443 if scheme == "https" else 80)
        self._timeout = timeout
        self._host_header = host_header
        #: Preformatted ``Name: value\r\n`` lines sent with every request
        #: (the per-tenant ``X-Api-Key`` of the multi-tenant service).
        self._extra_headers = extra_headers
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._reusable = True
        #: Raw ``X-Repro-Span`` value of the last response (trace echo),
        #: ``None`` when the server sent none.
        self.span_echo: Optional[str] = None

    def _connect(self) -> None:
        sock = socket.create_connection((self._host, self._port), timeout=self._timeout)
        # Small request/response exchanges must not stall behind Nagle +
        # delayed ACK; a crawl is thousands of tiny round trips.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._scheme == "https":
            import ssl

            sock = ssl.create_default_context().wrap_socket(
                sock, server_hostname=self._host
            )
        self._sock = sock
        self._file = sock.makefile("rb")
        self._reusable = True

    @property
    def reusable(self) -> bool:
        """Whether the connection survives for another exchange."""
        return self._reusable and self._sock is not None

    def close(self) -> None:
        sock = self._sock
        self._sock = None
        file = self._file
        self._file = None
        for closable in (file, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def send_request(self, method: str, path: str, body: Optional[bytes],
                     headers: str = "") -> None:
        """Send one request (connecting lazily); does not read the response.

        ``headers`` is an optional preformatted per-request addition (the
        ``X-Repro-Trace`` propagation header), appended after the
        per-connection extras.
        """
        if self._sock is None:
            self._connect()
        # Minimal headers: every line costs parse time on both ends.
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self._host_header}\r\n"
                f"{self._extra_headers}{headers}")
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self._sock.sendall(head.encode("ascii") + b"\r\n" + (body or b""))

    def read_response(self) -> Tuple[int, bytes]:
        """Read one response; returns ``(status, body)``.

        Raises :class:`_WireError` on anything outside the service's HTTP
        subset and ``OSError`` (incl. timeouts) on transport failures.  After
        a ``Connection: close`` / HTTP/1.0 response :attr:`reusable` is
        False and the caller must drop the connection.
        """
        if self._file is None:
            raise _WireError("connection is not open")
        self.span_echo = None
        status_line = self._file.readline(MAX_LINE + 1)
        if not status_line:
            raise _WireError("connection closed before the status line")
        if len(status_line) > MAX_LINE:
            # Same cap as header lines: readline would otherwise hand back a
            # silent 64 KiB truncation whose remainder misparses as headers.
            raise _WireError("oversized status line")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise _WireError(f"malformed status line {status_line!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise _WireError(f"malformed status code in {status_line!r}") from None
        try:
            raw = read_header_block(self._file.readline)
            if raw is None:
                raise _WireError("connection closed inside the response headers")
            length = raw.get(b"content-length")
            length = None if length is None else content_length(length)
        except FramingError as error:
            raise _WireError(f"response refused: {error.message}") from None
        if b"transfer-encoding" in raw:
            # The graph service always frames with Content-Length; a
            # chunked body means this is not a graph service.
            raise _WireError("unsupported Transfer-Encoding response")
        connection = raw.get(b"connection", b"").lower()
        will_close = connection == b"close" or (
            parts[0] == b"HTTP/1.0" and connection != b"keep-alive"
        )
        echo = raw.get(b"x-repro-span")
        if echo is not None:
            # Trace echo: the server's completed span (repro-trace v1).
            self.span_echo = echo.decode("iso-8859-1")
        if length is None:
            if not will_close:
                raise _WireError("keep-alive response without Content-Length")
            body = self._file.read()
        else:
            body = self._file.read(length)
            if len(body) != length:
                raise _WireError(
                    f"response body truncated at {len(body)}/{length} bytes"
                )
        if will_close:
            self._reusable = False
        return status, body


class _Request:
    """One logical request across its attempts (the two-phase handle).

    :meth:`HTTPGraphBackend._begin` opens it and sends attempt 1;
    :meth:`HTTPGraphBackend._finish` reads each attempt's response and sends
    the next.  ``connection`` is the one the current attempt was sent on;
    ``error`` holds a send failure until the attempt is read.
    """

    __slots__ = ("method", "path", "body", "tracer", "span", "attempt_span",
                 "registry", "endpoint", "started", "connection", "error")

    def __init__(self, method: str, path: str, body: Optional[bytes]) -> None:
        self.method = method
        self.path = path
        self.body = body
        self.tracer = obs.current_tracer()
        self.span = None
        self.attempt_span = None
        self.registry = obs.metrics()
        self.endpoint = "/"
        self.started = 0.0
        self.connection: Optional[_LeanHTTPConnection] = None
        self.error: Optional[Exception] = None


class HTTPGraphBackend(GraphBackend):
    """Serve fetches from a remote graph service over JSON/HTTP.

    Args:
        base_url: Service root, e.g. ``"http://127.0.0.1:8000"``.  An optional
            path prefix is honoured (``"http://host/graphs/fb"``).
        timeout: Per-request socket timeout in seconds.
        retries: How many times a failed request is retried (transient
            failures only: timeouts, connection errors, 5xx, malformed JSON).
            ``retries=3`` means up to four attempts in total, for plain and
            pipelined (:meth:`begin_fetch_many`) requests alike.
        backoff: Base of the deterministic exponential backoff: retry ``k``
            (1-based) sleeps ``backoff * 2 ** (k - 1)`` seconds.
        sleep: The sleep callable (injectable so tests pin the exact backoff
            schedule without waiting it out).
        name: Backend name; defaults to ``http:<netloc>``.
        api_key: Optional tenant API key, sent as ``X-Api-Key`` with every
            request.  A service with tenants maps it to the tenant's
            server-side budget / rate-limit policy; servers without tenants
            ignore the header.  Server-side policy rejections come
            back typed: a 429 ``rate_limited`` raises
            :class:`~repro.exceptions.RateLimitExceededError` and a 429
            ``budget_exhausted`` raises
            :class:`~repro.exceptions.QueryBudgetExceededError`, exactly
            like the client-side middleware layers.

    The graph behind the service is treated as immutable for the lifetime of
    the client (like a snapshot or crawl dump): ``node_ids``, the ``/info``
    descriptor and the ``/meta`` profile summaries are fetched once and
    cached.  The metadata cache is what keeps ``peek_metadata``-hungry
    kernels (MHRW degree checks, GNRW grouping) from paying one network
    round trip per peek — peeks are free against local backends, so over the
    wire they must at least be free on revisit.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
        name: Optional[str] = None,
        api_key: Optional[str] = None,
    ) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ValueError(
                f"base_url must be an http:// or https:// URL, got {base_url!r}"
            )
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self._scheme = parsed.scheme
        self._netloc = parsed.netloc
        self._host = parsed.hostname or ""
        self._port = parsed.port
        self._prefix = parsed.path.rstrip("/")
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff = float(backoff)
        self._sleep = sleep
        self.api_key = api_key
        if api_key is not None and not (api_key.isascii() and api_key.isprintable()):
            # Header lines travel as ASCII: a non-ASCII key would fail every
            # request with an untyped UnicodeEncodeError at send time.
            raise ValueError("api_key must be a printable ASCII string")
        self._extra_headers = f"X-Api-Key: {api_key}\r\n" if api_key else ""
        self._connection: Optional[_LeanHTTPConnection] = None
        self._info: Optional[Dict[str, Any]] = None
        self._node_ids: Optional[List[NodeId]] = None
        self._meta_cache: Dict[NodeId, Dict[str, Any]] = {}
        self.name = name if name is not None else f"http:{parsed.netloc}"

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _live_connection(self) -> _LeanHTTPConnection:
        """The persistent connection, opened on first use."""
        if self._connection is None:
            self._connection = _LeanHTTPConnection(
                self._scheme, self._host, self._port, self._timeout, self._netloc,
                extra_headers=self._extra_headers,
            )
        return self._connection

    def _drop_connection(self) -> None:
        connection = self._connection
        self._connection = None
        if connection is not None:
            connection.close()

    def close(self) -> None:
        """Close the persistent connection (the client stays usable)."""
        self._drop_connection()

    def __enter__(self) -> "HTTPGraphBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _error_payload(data: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def _interpret(self, method: str, path: str, status: int, data: bytes):
        """Map one complete response to its payload or a typed error.

        Raises :class:`_TransientResponse` for conditions worth retrying on
        the still-healthy connection (5xx, malformed JSON body), the typed
        node errors for node-level 404s, and
        :class:`~repro.exceptions.RemoteBackendError` for everything
        protocol-fatal.
        """
        if status >= 500:
            raise _TransientResponse(
                f"HTTP {status}: {self._error_payload(data).get('message', 'server error')}"
            )
        if status == 404:
            payload = self._error_payload(data)
            if "node" in payload:
                # A node-level miss, not a transport problem: surface the
                # same typed error a local backend would raise, with the
                # original (JSON round-tripped) node id.
                if payload.get("error") == "replay_miss":
                    raise ReplayMissError(
                        payload["node"], source=payload.get("source", self.base_url)
                    )
                raise NodeNotFoundError(payload["node"])
            raise RemoteBackendError(
                f"{method} {path} is not an endpoint of {self.base_url}: "
                f"{payload.get('message', 'unknown endpoint')}",
                url=self.base_url,
                status=status,
            )
        if status == 429:
            # Server-side per-tenant policy rejections (a service with
            # tenants) surface as the exact typed errors the local
            # middleware layers raise, so remote enforcement is
            # indistinguishable from a client-side budget or rate limit.
            payload = self._error_payload(data)
            if payload.get("error") == "budget_exhausted":
                raise QueryBudgetExceededError(
                    payload.get("limit"), spent=payload.get("spent")
                )
            if payload.get("error") == "rate_limited":
                raise RateLimitExceededError(retry_after=payload.get("retry_after"))
        if status != 200:
            raise RemoteBackendError(
                f"{method} {path} returned HTTP {status}: "
                f"{self._error_payload(data).get('message', 'unexpected status')}",
                url=self.base_url,
                status=status,
            )
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise _TransientResponse(f"malformed JSON response body ({error})") from None

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        """One logical request: retries, backoff and error mapping live here."""
        return self._finish(self._begin(method, path, body))

    def _begin(self, method: str, path: str, body: Optional[bytes]) -> _Request:
        """Open one logical request and send its first attempt.

        Returns the handle :meth:`_finish` completes; no other request may
        use this client in between (the sharded tier's pipelined fan-out
        begins one request per shard client, then finishes each).

        Telemetry rides along without changing the schedule: when a tracer
        is active, the logical request gets one ``client.request`` span
        whose context the first attempt carries over the wire (the common
        case pays for exactly one span), and each *retry* gets its own
        ``client.attempt`` child span carrying that attempt's wire context
        — so a retried request keeps its trace id and every server echo
        hangs off the span that was on the wire for its attempt.  Echo
        values are buffered raw and parsed at export, off the hot path.
        When the global metrics registry is enabled, requests, retries,
        failures and latency are counted, pipelined or not.
        """
        request = _Request(method, path, body)
        if request.registry is not None:
            request.started = time.perf_counter()
            endpoint = path[len(self._prefix):].lstrip("/")
            if endpoint:
                request.endpoint = "/" + endpoint.split("/", 1)[0]
            request.registry.inc("repro_http_requests_total", endpoint=request.endpoint)
        if request.tracer is not None:
            request.span = request.tracer.start_span(
                "client.request", kind="client", method=method, path=path,
                backend=self.name,
            )
        self._send_attempt(request, 0)
        return request

    def _send_attempt(self, request: _Request, attempt: int) -> None:
        """Send attempt ``attempt + 1``; a failure surfaces when it is read."""
        headers = ""
        span = request.span
        if span is not None:
            wire_span_id = span.span_id
            if attempt:
                request.attempt_span = request.tracer.start_span(
                    "client.attempt", kind="client",
                    parent=(span.trace_id, span.span_id), attempt=attempt + 1,
                )
                wire_span_id = request.attempt_span.span_id
            headers = f"{TRACE_HEADER}: " + format_trace_header(
                span.trace_id, wire_span_id
            ) + "\r\n"
        request.connection = self._live_connection()
        try:
            request.connection.send_request(
                request.method, request.path, request.body, headers
            )
            request.error = None
        except (_WireError, OSError) as error:
            request.error = error

    def _finish(self, request: _Request):
        """Complete a :meth:`_begin` request: the one bounded attempt loop.

        Transient failures — timeouts, dropped or malformed connections,
        5xx, malformed JSON — are retried with deterministic exponential
        backoff, ``retries + 1`` attempts in total (attempt 1 was sent by
        :meth:`_begin`); everything else maps to a typed error at once.
        """
        tracer, span, registry = request.tracer, request.span, request.registry
        attempts = self._retries + 1
        failure = "no attempt made"
        try:
            for attempt in range(attempts):
                if attempt:
                    # Deterministic exponential backoff: 1x, 2x, 4x, ... the base.
                    self._sleep(self._backoff * (2 ** (attempt - 1)))
                    if registry is not None:
                        registry.inc("repro_http_retries_total", endpoint=request.endpoint)
                    self._send_attempt(request, attempt)
                connection = request.connection
                try:
                    if request.error is not None:
                        raise request.error
                    status, data = connection.read_response()
                except (_WireError, OSError) as error:
                    # Timeout, refused connection, reset mid-response, stale
                    # keep-alive socket, malformed framing: drop the
                    # connection and retry.
                    self._drop_connection()
                    failure = f"{type(error).__name__}: {error}"
                    if span is not None:
                        (request.attempt_span or span).tags["error"] = failure
                        if request.attempt_span is not None:
                            tracer.finish(request.attempt_span)
                    continue
                if not connection.reusable:
                    self._drop_connection()
                if span is not None:
                    if request.attempt_span is not None:
                        tracer.finish(request.attempt_span)
                    tracer.record_echo_raw(connection.span_echo)
                try:
                    result = self._interpret(request.method, request.path, status, data)
                except _TransientResponse as error:
                    failure = str(error)
                    if span is not None:
                        (request.attempt_span or span).tags["transient"] = failure
                    continue
                if registry is not None:
                    registry.observe(
                        "repro_http_request_ms",
                        (time.perf_counter() - request.started) * 1000.0,
                        endpoint=request.endpoint,
                    )
                return result
            if registry is not None:
                registry.inc("repro_http_failures_total", endpoint=request.endpoint)
            if span is not None:
                span.tags["failed"] = failure
            raise RemoteBackendError(
                f"{request.method} {request.path} failed after {attempts} attempt"
                f"{'s' if attempts != 1 else ''}: {failure}",
                url=self.base_url,
                attempts=attempts,
            )
        finally:
            # Non-transient outcomes (404 -> NodeNotFoundError, bad batch
            # payloads) propagate from _interpret; the request span must
            # still land in the trace.
            if span is not None:
                tracer.finish(span)

    # ------------------------------------------------------------------
    # GraphBackend interface
    # ------------------------------------------------------------------
    def fetch(self, node: NodeId) -> RawRecord:
        payload = self._request("GET", f"{self._prefix}/node/{encode_node_id(node)}")
        return record_from_wire(payload)

    def _encode_batch(self, nodes: Sequence[NodeId]) -> Tuple[List[NodeId], bytes]:
        order = list(nodes)
        for node in order:
            _require_scalar_id(node)
        try:
            body = _WIRE_JSON.encode({"nodes": order}).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise RemoteBackendError(
                f"batch contains a node id that cannot travel over the wire: {exc}"
            ) from exc
        return order, body

    def _decode_batch(self, payload, count: int) -> List[RawRecord]:
        records = payload.get("records") if isinstance(payload, dict) else None
        if not isinstance(records, list) or len(records) != count:
            raise RemoteBackendError(
                f"POST /nodes returned {len(records) if isinstance(records, list) else 'no'}"
                f" records for a {count}-node batch",
                url=self.base_url,
            )
        return [record_from_wire(record) for record in records]

    def fetch_many(self, nodes: Sequence[NodeId]) -> List[RawRecord]:
        return self.end_fetch_many(self.begin_fetch_many(nodes))

    # ------------------------------------------------------------------
    # Pipelined batched fetch (the sharded tier's fan-out primitive)
    # ------------------------------------------------------------------
    def begin_fetch_many(self, nodes: Sequence[NodeId]):
        """Post a batched fetch without waiting for the response.

        Returns an opaque handle that **must** be passed to
        :meth:`end_fetch_many` before any other request on this client.  A
        :class:`~repro.cluster.ShardedBackend` posts every shard's sub-batch
        first and collects the responses afterwards, so the shard servers
        work concurrently instead of one waiting on the next.
        """
        order, body = self._encode_batch(nodes)
        if not order:
            return order, None
        return order, self._begin("POST", f"{self._prefix}/nodes", body)

    def end_fetch_many(self, handle) -> List[RawRecord]:
        """Collect the response of a :meth:`begin_fetch_many` call.

        The request continues the same bounded retry loop as every other
        request: node-level misses raise the usual typed errors, transient
        failures re-send the batch, ``retries + 1`` attempts in total.
        """
        order, request = handle
        if request is None:
            return []
        return self._decode_batch(self._finish(request), len(order))

    # ------------------------------------------------------------------
    # Server-side walks (the service's POST /walk)
    # ------------------------------------------------------------------
    def remote_walk(
        self,
        kernel: str,
        start: NodeId,
        *,
        seed: int = 0,
        steps: Optional[int] = None,
        budget: Optional[int] = None,
        burn_in: int = 0,
        thinning: int = 1,
    ) -> Dict[str, Any]:
        """Run a whole walk *server-side* in one round trip.

        ``POST /walk`` moves the O(steps) per-walk request stream to the
        server: the response carries the full path, its query accounting and
        a CRC-32 :func:`walk_fingerprint`, which is recomputed locally over
        the delivered path — a mismatch means the wire corrupted the walk
        and raises :class:`~repro.exceptions.RemoteBackendError`.  Servers
        without the endpoint answer 404, which surfaces as the usual "not an
        endpoint" error.
        """
        _require_scalar_id(start)
        request: Dict[str, Any] = {"kernel": kernel, "start": start, "seed": seed}
        if steps is not None:
            request["steps"] = steps
        if budget is not None:
            request["budget"] = budget
        if burn_in:
            request["burn_in"] = burn_in
        if thinning != 1:
            request["thinning"] = thinning
        try:
            body = _WIRE_JSON.encode(request).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise RemoteBackendError(
                f"walk request cannot travel over the wire: {exc}"
            ) from exc
        payload = self._request("POST", f"{self._prefix}/walk", body=body)
        path = payload.get("path") if isinstance(payload, dict) else None
        if not isinstance(path, list):
            raise RemoteBackendError(
                f"malformed /walk response: {payload!r}", url=self.base_url
            )
        fingerprint = payload.get("fingerprint")
        if fingerprint != walk_fingerprint(path):
            raise RemoteBackendError(
                f"/walk fingerprint mismatch: server said {fingerprint}, the "
                f"delivered {len(path)}-node path hashes to "
                f"{walk_fingerprint(path)}",
                url=self.base_url,
            )
        return payload

    def _meta(self, node: NodeId) -> Dict[str, Any]:
        """The (cached) ``/meta`` payload of ``node``: one request, ever."""
        if node in self._meta_cache:
            return self._meta_cache[node]
        payload = self._request("GET", f"{self._prefix}/meta/{encode_node_id(node)}")
        if not isinstance(payload, dict):
            raise RemoteBackendError(f"malformed /meta response: {payload!r}")
        self._meta_cache[node] = payload
        return payload

    def metadata(self, node: NodeId) -> Optional[Dict[str, Any]]:
        payload = self._meta(node)
        if "degree" not in payload and "attributes" not in payload:
            return None
        return {
            "degree": payload.get("degree"),
            "attributes": dict(payload.get("attributes", {})),
        }

    def contains(self, node: NodeId) -> bool:
        return bool(self._meta(node).get("contains"))

    def info(self) -> Dict[str, Any]:
        """The cached ``GET /info`` service descriptor (validated once)."""
        if self._info is None:
            payload = self._request("GET", f"{self._prefix}/info")
            if not isinstance(payload, dict) or payload.get("format") != WIRE_FORMAT:
                raise RemoteBackendError(
                    f"{self.base_url} is not a {WIRE_FORMAT} service "
                    f"(format={payload.get('format') if isinstance(payload, dict) else payload!r})",
                    url=self.base_url,
                )
            if payload.get("version") != WIRE_VERSION:
                raise RemoteBackendError(
                    f"{self.base_url} speaks wire version {payload.get('version')!r}; "
                    f"this client speaks version {WIRE_VERSION}",
                    url=self.base_url,
                )
            self._info = payload
        return dict(self._info)

    def node_ids(self) -> List[NodeId]:
        if self._node_ids is None:
            payload = self._request("GET", f"{self._prefix}/node-ids")
            nodes = payload.get("nodes") if isinstance(payload, dict) else None
            if not isinstance(nodes, list):
                raise RemoteBackendError(
                    f"malformed /node-ids response: {payload!r}", url=self.base_url
                )
            self._node_ids = nodes
        return list(self._node_ids)

    def __len__(self) -> int:
        return int(self.info()["nodes"])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"HTTPGraphBackend(base_url={self.base_url!r}, name={self.name!r})"
