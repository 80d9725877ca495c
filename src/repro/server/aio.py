"""Asyncio I/O adapter for the :class:`GraphService`.

:class:`AsyncGraphServer` puts the same
:class:`~repro.server.service.GraphService` the thread-per-connection
:class:`~repro.server.app.GraphHTTPServer` serves on one event loop instead
of one thread per connection, so thousands of idle keep-alive crawler
connections cost a coroutine each rather than a stack each.  It only frames:
requests are parsed with the rules of :mod:`repro.server.wire` and answered
by the service — inline on the loop, except the requests the service marks
as long-running (``POST /walk``), which run on the loop's default executor.

The server runs its event loop on one named daemon thread
(``repro-aio-server``); :meth:`start` / :meth:`close` and the stats surface
mirror the threaded server so fixtures, benchmarks and the CLI treat the two
interchangeably.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import weakref
from typing import Dict, List, Optional

from .service import GraphService, ServiceHost, as_service
from .wire import (
    MAX_LINE,
    FramingError,
    LeanHeaders,
    body_length,
    interim_response,
    render_refusal,
    render_response,
    store_header_line,
)


class AsyncGraphServer(ServiceHost):
    """An asyncio graph server bound to one :class:`GraphService`.

    The listening socket is bound eagerly in the constructor (so
    ``server_address`` / ``url`` exist before :meth:`start`), and the event
    loop runs on a named daemon thread once started.  :meth:`close` stops the
    loop, force-closes every open connection and joins the thread; the test
    suite asserts no server outlives its fixture, exactly as for the threaded
    frontend.

    Args:
        source: A :class:`~repro.server.service.GraphService`, or anything
            :func:`~repro.api.backend.as_backend` accepts.
        host / port: Bind address; ``port=0`` picks an ephemeral port.
        timeout: Seconds a started request may dawdle mid-headers/body.
    """

    #: Every not-yet-closed server, so the test suite can assert zero leaks.
    _live: "weakref.WeakSet[AsyncGraphServer]" = weakref.WeakSet()

    def __init__(
        self,
        source,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
    ) -> None:
        self.service: GraphService = as_service(source)
        self.service.frontend = "async"
        self.timeout = timeout
        family = socket.AF_INET6 if ":" in str(host) else socket.AF_INET
        self._socket = socket.create_server((host, port), family=family)
        self.server_address = self._socket.getsockname()[:2]
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._writers: set = set()
        self._closed = False
        AsyncGraphServer._live.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncGraphServer":
        """Run the event loop from a background daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server is already started")
        if self._closed:
            raise RuntimeError("server is closed")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-aio-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._boot_error is not None:
            error, self._boot_error = self._boot_error, None
            self.close()
            raise error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced by start()
            self._boot_error = error
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, sock=self._socket, limit=MAX_LINE + 2
        )
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            # Force-close open keep-alive connections first: since 3.12
            # wait_closed() really waits for every connection handler, and an
            # idle crawler socket would otherwise pin the shutdown.
            for writer in list(self._writers):
                writer.close()
            await server.wait_closed()

    def close(self) -> None:
        """Stop serving, close every open connection, join the loop thread."""
        if self._closed:
            return
        self._closed = True
        AsyncGraphServer._live.discard(self)
        if self._thread is not None:
            self._ready.wait(timeout=10)
            loop, stop = self._loop, self._stop_event
            if loop is not None and stop is not None:
                try:
                    loop.call_soon_threadsafe(stop.set)
                except RuntimeError:  # loop already gone
                    pass
            self._thread.join(timeout=10)
            self._thread = None
        else:
            self._socket.close()
        self.service.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        # asyncio's socket transports set TCP_NODELAY themselves.
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader, writer)
                except FramingError as error:
                    writer.write(render_refusal(error))
                    await writer.drain()
                    break
                if request is None:
                    # Clean EOF between requests, or EOF mid-request (the
                    # async port of the half-sent-request fix): nobody is
                    # left to receive a response, so send none.
                    break
                if not await self._respond(writer, request):
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown (asyncio.run cancelling leftover tasks)
            # caught us mid-read.  Exit through the close path below so the
            # task finishes normally instead of surfacing the cancellation
            # through the stream protocol's done-callback.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Shutdown cancelled us while draining the transport.  The
                # writer is already closed; finishing normally here keeps
                # the stream protocol's done-callback from logging a
                # spurious "Exception in callback ... CancelledError".
                pass

    async def _read_request(self, reader, writer):
        """Read one request; ``None`` on EOF, :class:`FramingError` on refuse.

        Returns ``(method, target, headers, body)``; an
        ``Expect: 100-continue`` request gets its interim ``100 Continue``
        on ``writer`` before the body is awaited.  The wait for the
        *first* byte is unbounded — an idle keep-alive connection costs this
        server nothing — but once a request line has arrived the rest of the
        request must land within ``timeout`` seconds, so a stalled
        half-request cannot pin parser state forever.
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            raise FramingError(431, "Line too long") from None
        if not request_line:
            return None
        try:
            return await asyncio.wait_for(
                self._read_rest(reader, writer, request_line), self.timeout
            )
        except (TimeoutError, asyncio.IncompleteReadError):
            return None

    async def _read_rest(self, reader, writer, request_line: bytes):
        words = request_line.decode("iso-8859-1").rstrip("\r\n").split()
        if len(words) != 3 or words[2] != "HTTP/1.1":
            raise FramingError(
                400, f"this server speaks HTTP/1.1 only, got {words!r}"
            )
        method, target, _version = words
        raw: Dict[bytes, bytes] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise FramingError(431, "Line too long") from None
            if not line:
                # EOF mid-headers: the client died before finishing the
                # request — not the blank line that ends a header block.
                # Dispatching the half-sent request would serve a response
                # nobody can receive; close without responding instead.
                return None
            if store_header_line(raw, line):
                break
        headers = LeanHeaders(raw)
        length = body_length(headers)
        interim = interim_response(headers, length)
        if interim:
            writer.write(interim)
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _respond(self, writer, request) -> bool:
        """Answer one request through the service; False ends the connection."""
        service = self.service
        if service.runs_long(request[0], request[1]):
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(None, service.handle, *request)
        else:
            response = service.handle(*request)
        status, headers, body, close = response
        writer.write(render_response(status, headers, body, close))
        await writer.drain()
        return not close


def serve_backend_async(
    source,
    host: str = "127.0.0.1",
    port: int = 0,
) -> AsyncGraphServer:
    """Bind an :class:`AsyncGraphServer` over ``source`` and return it (not serving).

    The asyncio twin of :func:`~repro.server.app.serve_backend`: ``source``
    is a :class:`~repro.server.service.GraphService` or anything
    :func:`~repro.api.backend.as_backend` accepts, ``port=0`` binds an
    ephemeral port, and :meth:`~AsyncGraphServer.start` (or the context
    manager) serves from a background thread.
    """
    return AsyncGraphServer(source, host, port)
