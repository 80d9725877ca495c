"""The HTTP frontend of the :class:`GraphService`: one thread per connection.

:func:`serve_backend` binds a :class:`GraphHTTPServer` (a
``http.server.ThreadingHTTPServer``) over any graph source — an in-memory
:class:`~repro.graphs.graph.Graph`, a CSR backend, a memory-mapped snapshot
directory, a crawl-dump replay — or over a ready
:class:`~repro.server.service.GraphService` (tenants, access log).
:class:`GraphRequestHandler` only frames: it parses each request with the
rules of :mod:`repro.server.wire`, hands it to the service and writes the
answer back.  Routing, tenants, accounting and the wire schema are the
service's.
"""

from __future__ import annotations

import socket
import threading
import weakref
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional

from ..api.remote import WIRE_FORMAT, WIRE_VERSION
from .service import GraphService, as_service
from .wire import (
    MAX_LINE,
    FramingError,
    LeanHeaders,
    body_length,
    interim_response,
    reachable_url,
    render_refusal,
    read_header_block,
    render_response,
)


class GraphRequestHandler(BaseHTTPRequestHandler):
    """Frame one connection's requests for the server's :class:`GraphService`.

    ``protocol_version = "HTTP/1.1"`` enables keep-alive, so a client reuses
    one connection for a whole crawl; every response carries an exact
    ``Content-Length``.  Subclasses may override :meth:`inject_fault` to
    simulate a misbehaving transport (the test suite's fault-injection layer).
    """

    protocol_version = "HTTP/1.1"
    server_version = f"{WIRE_FORMAT}/{WIRE_VERSION}"
    #: Idle keep-alive connections are dropped after this many seconds, so a
    #: vanished client can never pin a handler thread forever.
    timeout = 30
    #: TCP_NODELAY: with Nagle on, a response written after the previous
    #: one's delayed ACK stalls ~40ms, which would dominate a whole crawl of
    #: small responses.
    disable_nagle_algorithm = True
    #: Buffer response writes (stdlib default is unbuffered): each response
    #: goes out in one flush per request, one write syscall.
    wbufsize = -1

    def handle_one_request(self) -> None:
        """Read, frame and answer one request (every method goes to the service)."""
        try:
            self.raw_requestline = self.rfile.readline(MAX_LINE + 1)
            if not self.raw_requestline:
                self.close_connection = True
            elif len(self.raw_requestline) > MAX_LINE:
                self._refuse(FramingError(414, "Request line too long"))
            elif self.parse_request():
                self._serve()
            self.wfile.flush()
        except (TimeoutError, BrokenPipeError, ConnectionResetError):
            # A read or write timed out, or the peer vanished: discard this
            # connection.
            self.close_connection = True

    def parse_request(self) -> bool:
        """Parse one request, bypassing ``email.parser`` on the fast path.

        The stdlib parses every request's headers into an
        ``email.message.Message`` — ~0.1 ms of pure CPU per request, which
        out-costs the graph fetch itself on a loopback crawl and multiplies
        by the fan-out on a sharded tier.  A well-formed ``HTTP/1.1``
        request (every client of this wire) takes the lean path: split the
        request line, collect raw header lines into a :class:`LeanHeaders`
        map.  Anything else — other HTTP versions, malformed request lines —
        falls back to the stdlib parser for its full error handling.
        """
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or words[2] != "HTTP/1.1":
            return super().parse_request()
        self.requestline = requestline
        self.command, self.path, self.request_version = words
        self.close_connection = False
        try:
            raw = read_header_block(self.rfile.readline)
        except FramingError as error:
            self._refuse(error)
            return False
        if raw is None:
            # EOF mid-headers: the client died (or shut its write side)
            # before finishing the request.  This is *not* the blank line
            # that ends a header block — dispatching the half-sent request
            # would serve a response nobody can receive, and for a POST it
            # would misread whatever never arrived.  Drop the connection
            # without responding.
            self.close_connection = True
            return False
        self.headers = LeanHeaders(raw)
        if raw.get(b"connection", b"").lower() == b"close":
            self.close_connection = True
        return True

    def handle_expect_100(self) -> bool:
        """Defer ``Expect: 100-continue`` to :meth:`_serve` (one rule, in ``wire``)."""
        return True

    def _refuse(self, error: FramingError) -> None:
        self.close_connection = True
        self.wfile.write(render_refusal(error))

    def send_error(self, code, message=None, explain=None) -> None:
        """Answer the stdlib parser's refusals as JSON too, not HTML pages."""
        self._refuse(FramingError(code, message or HTTPStatus(code).phrase))

    def _serve(self) -> None:
        # The body is drained before any response: answering without
        # consuming it would leave it in the socket, where it poisons the
        # next keep-alive request's parse.  A refused framing (bad or
        # oversized Content-Length) reads no body and closes instead.
        try:
            length = body_length(self.headers)
        except FramingError as error:
            self._refuse(error)
            return
        interim = interim_response(self.headers, length)
        if interim:
            # Flush now: the client sends the body only once it sees this.
            self.wfile.write(interim)
            self.wfile.flush()
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            # EOF mid-body: nobody is left to receive a response.
            self.close_connection = True
            return
        service = self.server.service
        if self.inject_fault():
            service.count_request(self.path)
            return
        status, headers, payload, close = service.handle(
            self.command, self.path, self.headers, body
        )
        if close:
            self.close_connection = True
        self.wfile.write(render_response(status, headers, payload, self.close_connection))

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence the default per-request stderr logging."""

    def inject_fault(self) -> bool:
        """Hook for fault injection; return True to swallow the request."""
        return False


class GraphHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`GraphService`.

    Build one with :func:`serve_backend` (``source`` is a service, or
    anything an open service is built over).  :meth:`start` serves from a named
    daemon thread; :meth:`close` stops the accept loop, force-closes any
    still-open keep-alive connections (so no handler thread can linger on a
    blocked read) and joins every thread — the test suite asserts that no
    server outlives its fixture (:meth:`live_servers`).  Use as a context
    manager for the start/close pairing.  Counts, ``nodes_served``, the
    metrics registry and ``reset_stats`` live on the hosted :attr:`service`.
    """

    daemon_threads = True
    #: Every not-yet-closed server, so the test suite can assert zero leaks.
    _live: "weakref.WeakSet[GraphHTTPServer]" = weakref.WeakSet()

    def __init__(self, address, handler_class, source) -> None:
        # Build the service before binding, so a bad source leaves no
        # listening socket behind.
        self.service: GraphService = as_service(source)
        super().__init__(address, handler_class)
        self._connections_lock = threading.Lock()
        self._connections: set = set()
        self._handler_threads: List[threading.Thread] = []
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        GraphHTTPServer._live.add(self)

    # ------------------------------------------------------------------
    # Connection tracking (so close() never hangs on a keep-alive socket)
    # ------------------------------------------------------------------
    def get_request(self):
        request, client_address = super().get_request()
        with self._connections_lock:
            self._connections.add(request)
        return request, client_address

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def process_request(self, request, client_address) -> None:
        # ThreadingMixIn only records non-daemon threads before Python 3.11,
        # so close() could not join ours through server_close() everywhere;
        # spawn and track handler threads explicitly (named, so the test
        # suite's leak check can see them).
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-http-handler",
            daemon=True,
        )
        with self._connections_lock:
            self._handler_threads = [t for t in self._handler_threads if t.is_alive()]
            self._handler_threads.append(thread)
        thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """A client-connectable URL for the bound address.

        Wildcard binds (``0.0.0.0`` / ``::``) resolve to the matching
        loopback — the literal wildcard is not connectable — and IPv6 hosts
        are bracketed so the URL authority parses.
        """
        host, port = self.server_address[:2]
        return reachable_url(host, port)

    @property
    def closed(self) -> bool:
        return self._closed

    @classmethod
    def live_servers(cls) -> List["GraphHTTPServer"]:
        """Every server not yet closed (leak detection in the test suite)."""
        return list(cls._live)

    def __enter__(self) -> "GraphHTTPServer":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> "GraphHTTPServer":
        """Serve from a background daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server is already started")
        if self._closed:
            raise RuntimeError("server is closed")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-http-server", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving, unblock every open connection, join all threads."""
        if self._closed:
            return
        self._closed = True
        GraphHTTPServer._live.discard(self)
        if self._thread is not None:
            self.shutdown()
        with self._connections_lock:
            open_connections = list(self._connections)
        for connection in open_connections:
            # Wake handler threads blocked reading the next keep-alive
            # request; their readline returns EOF and the thread exits.
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.server_close()
        with self._connections_lock:
            handler_threads = list(self._handler_threads)
            self._handler_threads = []
        for thread in handler_threads:
            thread.join(timeout=10)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.service.close()


def serve_backend(
    source,
    host: str = "127.0.0.1",
    port: int = 0,
    handler_class=GraphRequestHandler,
) -> GraphHTTPServer:
    """Bind a :class:`GraphHTTPServer` over ``source`` and return it (not serving yet).

    ``source`` is a :class:`~repro.server.service.GraphService` or anything
    :func:`~repro.api.backend.as_backend` accepts (a graph, a backend, or a
    path to a snapshot directory / crawl dump), served as an open service.
    ``port=0`` binds an ephemeral port (read it back from ``server.url``).
    Call :meth:`~GraphHTTPServer.start` (or enter the context manager) to
    serve from a background thread, as the CLI does, or ``serve_forever()``
    to serve in the foreground.
    """
    return GraphHTTPServer((host, port), handler_class, source)
