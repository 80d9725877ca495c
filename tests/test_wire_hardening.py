"""Socket-level regressions for the wire's framing rules.

Each test class pins one fix by reproducing the pre-fix failure mode at the
socket level, against a live server (the framing rules live in
:mod:`repro.server.wire`):

1. **EOF mid-headers** — a half-sent request (client shut its write side
   before the blank line) used to parse as a complete header block and get
   dispatched; now the server closes without responding and without counting
   an endpoint hit.
2. **Conflicting duplicate headers** — duplicate ``Content-Length`` lines
   used to be last-wins (the request-smuggling shape, and a phantom-body
   hang on a GET); now they answer 400 with ``Connection: close``.
3. **Reachable URLs** — ``server.url`` used to echo wildcard binds
   (``http://0.0.0.0:p``) and unbracketed IPv6 literals; now wildcards
   resolve to loopback and IPv6 hosts are bracketed.
4. **Oversized status line** — the lean client capped header lines but let
   ``readline`` silently truncate a 64 KiB+ *status* line, misparsing the
   remainder as headers; now it refuses with ``oversized status line``.
5. **Request Transfer-Encoding** — a chunked body used to be ignored, so a
   request smuggled inside it was dispatched as the next one on the
   connection; now any request ``Transfer-Encoding`` answers 501 + close.
6. **One framing rule** — a negative or non-integer ``Content-Length``
   answers 400 + close on every method, and an unsupported method answers
   501.  Every refusal is a JSON body whose ``error`` token names its status.
7. **Expect: 100-continue** — the server used to buffer its ``100 Continue``
   until the final response, so a client holding its body back waited out
   its own timeout; now it is sent before the body is read.
8. **Bounded body** — any ``Content-Length`` used to be read in full, so one
   request could pin a handler thread, and its memory, on a body of any
   declared size; now a length above ``MAX_BODY`` answers 413
   ``body_too_large`` + close before a single body byte is read.
9. **Client-side duplicate Content-Length** — the lean client kept the last
   of two disagreeing ``Content-Length`` response headers, read a body of
   the wrong length and left the socket reusable; now it raises its wire
   error, so the connection is dropped as for any malformed response.
10. **Header cap counts lines** — ``MAX_HEADERS`` used to cap distinct
    header *names*, so 5000 identical ``X-Pad`` lines were served; now the
    101st header line answers 431 + close, and the client keeps its own
    response cap, which already counted lines.
11. **Client Content-Length is digits only** — the client used to frame a
    response with ``int()``: ``-1`` read until the socket timeout and ``+2``
    was accepted; now any value that is not plain digits is a wire error,
    the server's own rule for requests.

Every socket-level probe runs twice (the ``connect`` fixture): as the first
request of a fresh connection, and as the request that follows a served
``GET /info`` on a keep-alive connection.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import deque

import pytest

from fakes import FAULT_LONG_STATUS, FlakyHTTPHandler
from repro.api import HTTPGraphBackend, InMemoryBackend
from repro.api.remote import _LeanHTTPConnection, _WireError
from repro.exceptions import RemoteBackendError
from repro.graphs import complete_graph
from repro.server import serve_backend
from repro.server.wire import (
    MAX_BODY,
    MAX_HEADERS,
    LeanHeaders,
    body_length,
    reachable_url,
)


@pytest.fixture(scope="module")
def backend_graph():
    return complete_graph(6)


@pytest.fixture(scope="module")
def server(backend_graph, graph_server):
    return graph_server(InMemoryBackend(backend_graph))


#: A complete keep-alive request, served before the probe on ``keepalive``
#: connections.
PRIMER = b"GET /info HTTP/1.1\r\nHost: x\r\n\r\n"


def _recv_until(sock, marker: bytes) -> bytes:
    data = b""
    while marker not in data:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


def _read_primer_response(sock) -> None:
    """Consume exactly one keep-alive response (head plus framed body)."""
    head, _, body = _recv_until(sock, b"\r\n\r\n").partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200"), head
    assert b"connection: close" not in head.lower()
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "server closed a keep-alive connection mid-body"
        body += chunk
    assert len(body) == length, "primer response over-ran its Content-Length"


@pytest.fixture(params=["fresh", "keepalive"])
def connect(request, server):
    """``connect() -> socket`` whose next request is the probe under test.

    ``fresh`` probes the first request of a new connection; ``keepalive``
    first completes one ``GET /info`` on the same connection, so every
    framing rule is also pinned mid-connection, where the handler has
    already served a request and reads the probe from a reused buffer.
    The primer's endpoint hit is wiped, so counters see only the probe.
    """

    def open_connection() -> socket.socket:
        host, port = server.server_address[:2]
        sock = socket.create_connection((host, port), timeout=5)
        if request.param == "keepalive":
            try:
                sock.sendall(PRIMER)
                _read_primer_response(sock)
            except BaseException:
                sock.close()
                raise
            server.service.reset_stats()
        return sock

    return open_connection


def _raw_exchange(connect, payload: bytes, *, shut_wr: bool = False) -> bytes:
    """Write raw bytes on a ``connect()`` socket, return its answer until EOF."""
    with connect() as sock:
        sock.sendall(payload)
        if shut_wr:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Fix 1: EOF mid-headers is not a blank line
# ----------------------------------------------------------------------
class TestHalfSentRequest:
    HALF_REQUEST = b"GET /info HTTP/1.1\r\nHost: x\r\n"  # no terminating CRLF

    def test_half_sent_request_gets_no_response_and_no_dispatch(self, server, connect):
        server.service.reset_stats()
        answer = _raw_exchange(connect, self.HALF_REQUEST, shut_wr=True)
        # Pre-fix the EOF parsed like the end-of-headers blank line: the
        # request was dispatched and a full /info response came back.
        assert answer == b""
        assert sum(server.service.endpoint_counts.values()) == 0

    def test_immediate_disconnect_is_silent_too(self, server, connect):
        server.service.reset_stats()
        answer = _raw_exchange(connect, b"", shut_wr=True)
        assert answer == b""
        assert sum(server.service.endpoint_counts.values()) == 0


# ----------------------------------------------------------------------
# Fix 2: conflicting duplicate headers answer 400 + Connection: close
# ----------------------------------------------------------------------
class TestDuplicateHeaders:
    def test_conflicting_content_length_is_refused(self, connect):
        # Pre-fix: last-wins kept Content-Length 5 and the server hung
        # reading a phantom body off a GET (the smuggling shape).  Post-fix
        # the refusal is immediate — the 5-second socket timeout in
        # _raw_exchange is the hang detector.
        probe = (
            b"GET /info HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 0\r\nContent-Length: 5\r\n\r\n"
        )
        answer = _raw_exchange(connect, probe)
        status_line = answer.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"connection: close" in answer.lower()

    def test_conflicting_duplicates_of_any_header_are_refused(self, connect):
        probe = (
            b"GET /info HTTP/1.1\r\nHost: x\r\n"
            b"X-Api-Key: alice\r\nX-Api-Key: bob\r\n\r\n"
        )
        answer = _raw_exchange(connect, probe)
        assert b"400" in answer.split(b"\r\n", 1)[0]

    def test_repeated_identical_headers_stay_accepted(self, connect):
        probe = (
            b"GET /info HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 0\r\nContent-Length: 0\r\n"
            b"Connection: close\r\n\r\n"
        )
        answer = _raw_exchange(connect, probe)
        assert b"200" in answer.split(b"\r\n", 1)[0]
        assert b"repro-graph-http" in answer


# ----------------------------------------------------------------------
# Fix 10: the header cap counts lines, not distinct names
# ----------------------------------------------------------------------
class TestHeaderLineCap:
    def test_repeated_header_lines_answer_431(self, server, connect):
        server.service.reset_stats()
        # Pre-fix these 5000 lines were one map entry and answered 200.
        probe = b"GET /info HTTP/1.1\r\nHost: x\r\n" + b"X-Pad: 1\r\n" * 5000 + b"\r\n"
        answer = _raw_exchange(connect, probe)
        assert _status_lines(answer)[0].startswith(b"HTTP/1.1 431")
        assert b"connection: close" in answer.lower()
        assert sum(server.service.endpoint_counts.values()) == 0

    def test_header_lines_at_the_cap_are_served(self, connect):
        pad = b"X-Pad: 1\r\n" * (MAX_HEADERS - 2)
        probe = b"GET /info HTTP/1.1\r\nHost: x\r\n" + pad + b"Connection: close\r\n\r\n"
        answer = _raw_exchange(connect, probe)
        assert _status_lines(answer)[0].startswith(b"HTTP/1.1 200")


# ----------------------------------------------------------------------
# Fix 3: server.url is always client-connectable
# ----------------------------------------------------------------------
class TestReachableUrl:
    def test_wildcard_ipv4_resolves_to_loopback(self):
        assert reachable_url("0.0.0.0", 8000) == "http://127.0.0.1:8000"

    def test_wildcard_ipv6_resolves_to_bracketed_loopback(self):
        assert reachable_url("::", 8000) == "http://[::1]:8000"

    def test_ipv6_literal_is_bracketed(self):
        assert reachable_url("::1", 8000) == "http://[::1]:8000"
        assert reachable_url("fe80::2", 80) == "http://[fe80::2]:80"

    def test_plain_hosts_pass_through(self):
        assert reachable_url("127.0.0.1", 1234) == "http://127.0.0.1:1234"
        assert reachable_url("example.org", 80) == "http://example.org:80"

    def test_wildcard_bound_server_publishes_connectable_url(
        self, backend_graph, graph_server
    ):
        server = graph_server(InMemoryBackend(backend_graph), host="0.0.0.0")
        assert server.url.startswith("http://127.0.0.1:")
        # The published URL must actually answer: pre-fix it embedded the
        # literal wildcard, which is not connectable on every platform.
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            assert client.info()["nodes"] == len(backend_graph.nodes())

    @pytest.mark.skipif(not socket.has_ipv6, reason="IPv6 unavailable")
    def test_ipv6_bound_server_publishes_bracketed_url(self, backend_graph, graph_server):
        try:
            server = graph_server(InMemoryBackend(backend_graph), host="::1")
        except OSError:
            pytest.skip("IPv6 loopback not bindable here")
        assert server.url.startswith("http://[::1]:")
        with HTTPGraphBackend(server.url, timeout=5.0) as client:
            assert client.info()["nodes"] == len(backend_graph.nodes())


# ----------------------------------------------------------------------
# Fix 4: oversized status lines are refused, not truncated
# ----------------------------------------------------------------------
class TestOversizedStatusLine:
    @pytest.fixture()
    def flaky_server(self, backend_graph, graph_server):
        server = graph_server(
            InMemoryBackend(backend_graph), handler_class=FlakyHTTPHandler
        )
        server.fault_plan = deque()
        return server

    def test_oversized_status_line_raises_typed_wire_error(self, flaky_server):
        flaky_server.fault_plan.clear()
        flaky_server.fault_plan.append(FAULT_LONG_STATUS)
        client = HTTPGraphBackend(flaky_server.url, timeout=5.0, retries=0)
        try:
            with pytest.raises(RemoteBackendError) as excinfo:
                client.fetch(0)
            # Pre-fix the 64 KiB readline truncation surfaced as a confusing
            # "malformed header line" on the *next* read; the refusal must
            # name the actual problem.
            assert "oversized status line" in str(excinfo.value)
        finally:
            client.close()

    def test_client_recovers_on_retry_after_oversized_status(self, flaky_server):
        flaky_server.fault_plan.clear()
        flaky_server.fault_plan.append(FAULT_LONG_STATUS)
        client = HTTPGraphBackend(
            flaky_server.url, timeout=5.0, retries=2, sleep=lambda _s: None
        )
        try:
            record = client.fetch(0)
            assert record.node == 0
        finally:
            client.close()


# ----------------------------------------------------------------------
# Fix 9: the client refuses a response with conflicting Content-Lengths
# ----------------------------------------------------------------------
def _serve_one_response(response: bytes):
    """Listen on loopback and answer one request with ``response`` verbatim.

    Returns ``(port, thread)``; the thread exits after one exchange.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def answer() -> None:
        with listener:
            conn, _ = listener.accept()
            with conn:
                _recv_until(conn, b"\r\n\r\n")
                conn.sendall(response)
                _recv_until(conn, b"never sent")  # hold open until the client hangs up

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return port, thread


class TestClientDuplicateContentLength:
    @staticmethod
    def exchange(response: bytes):
        port, thread = _serve_one_response(response)
        conn = _LeanHTTPConnection("http", "127.0.0.1", port, 5.0, "x")
        try:
            conn.send_request("GET", "/info", None)
            return conn.read_response(), conn.reusable
        finally:
            conn.close()
            thread.join(5)

    def test_conflicting_lengths_raise_a_wire_error(self):
        # Pre-fix this returned (200, b'{}AAAAA') on a still-reusable socket.
        with pytest.raises(_WireError, match="Content-Length"):
            self.exchange(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 7\r\n\r\n"
                b"{}AAAAA"
            )

    def test_identical_duplicate_lengths_still_frame_the_body(self):
        response, reusable = self.exchange(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}"
        )
        assert response == (200, b"{}")
        assert reusable


    @pytest.mark.parametrize("length", [b"-1", b"+2", b" 2 2"])
    def test_non_digit_length_is_a_wire_error(self, length):
        # Pre-fix ``-1`` made read(-1) wait out the whole socket timeout on
        # this held-open socket, and ``+2`` framed a body.
        with pytest.raises(_WireError, match="Content-Length"):
            self.exchange(b"HTTP/1.1 200 OK\r\nContent-Length: " + length + b"\r\n\r\n{}")

    def test_response_header_cap_counts_lines(self):
        pad = b"X-Pad: 1\r\n" * MAX_HEADERS
        with pytest.raises(_WireError, match="headers"):
            self.exchange(b"HTTP/1.1 200 OK\r\n" + pad + b"Content-Length: 2\r\n\r\n{}")


def _status_lines(answer: bytes):
    return [line for line in answer.split(b"\r\n") if line.startswith(b"HTTP/1.1 ")]


# ----------------------------------------------------------------------
# Fix 5: request Transfer-Encoding is refused, never dispatched
# ----------------------------------------------------------------------
class TestTransferEncoding:
    def test_chunked_body_cannot_smuggle_a_request(self, server, connect):
        server.service.reset_stats()
        # Pre-fix the chunked body was ignored (no Content-Length, so an
        # empty body): POST /nodes answered 400 and the smuggled GET /info
        # was then dispatched as the connection's next request.
        probe = (
            b"POST /nodes HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"GET /info HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        answer = _raw_exchange(connect, probe)
        assert len(_status_lines(answer)) == 1
        assert _status_lines(answer)[0].startswith(b"HTTP/1.1 501")
        assert b"connection: close" in answer.lower()
        assert sum(server.service.endpoint_counts.values()) == 0


# ----------------------------------------------------------------------
# Fix 6: one rule for bad framing and unknown methods
# ----------------------------------------------------------------------
class TestOneFramingRule:
    @pytest.mark.parametrize("method", ["GET", "POST"])
    @pytest.mark.parametrize("length", [b"-5", b"five"])
    def test_bad_content_length_is_refused_on_every_method(self, method, length, connect):
        # Pre-fix the server answered a GET carrying
        # ``Content-Length: -5`` with 200 (and the body rule ran per route).
        probe = (
            method.encode() + b" /info HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + length + b"\r\n\r\n"
        )
        answer = _raw_exchange(connect, probe)
        assert len(_status_lines(answer)) == 1
        assert _status_lines(answer)[0].startswith(b"HTTP/1.1 400")
        assert b"connection: close" in answer.lower()

    @pytest.mark.parametrize("method", ["DELETE", "PUT", "HEAD"])
    def test_unsupported_method_answers_501(self, method, connect):
        probe = method.encode() + b" /info HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        answer = _raw_exchange(connect, probe)
        assert _status_lines(answer)[0].startswith(b"HTTP/1.1 501")

    @pytest.mark.parametrize(
        "probe, token",
        [
            (b"POST /nodes HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "not_implemented"),
            (b"GET /info HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "bad_request"),
            (b"GET\r\n\r\n", "bad_request"),
        ],
        ids=["transfer-encoding", "content-length", "request-line"],
    )
    def test_refusals_are_json_naming_their_status(self, probe, token, connect):
        answer = _raw_exchange(connect, probe)
        body = answer.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body)["error"] == token
        assert b"connection: close" in answer.lower()


# ----------------------------------------------------------------------
# Fix 7: Expect: 100-continue gets its interim response before the body
# ----------------------------------------------------------------------
class TestExpectContinue:
    def test_100_continue_arrives_before_the_body_is_sent(self, connect):
        body = json.dumps({"nodes": [0, 1]}).encode()
        head = (
            b"POST /nodes HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Expect: 100-continue\r\nConnection: close\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
        )
        with connect() as sock:
            sock.sendall(head)
            # Pre-fix this read timed out: the client holds its body back
            # until the server answers.
            interim = _recv_until(sock, b"\r\n\r\n")
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            answer = _recv_until(sock, b"\x00")  # everything until EOF
        assert len(_status_lines(answer)) == 1
        assert _status_lines(answer)[0].startswith(b"HTTP/1.1 200")
        payload = json.loads(answer.split(b"\r\n\r\n", 1)[1])
        assert len(payload["records"]) == 2

    def test_no_interim_response_without_a_body(self, connect):
        probe = (
            b"GET /info HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Connection: close\r\n\r\n"
        )
        answer = _raw_exchange(connect, probe)
        assert [line[:12] for line in _status_lines(answer)] == [b"HTTP/1.1 200"]


# ----------------------------------------------------------------------
# Fix 8: a body above MAX_BODY is refused before it is read
# ----------------------------------------------------------------------
class TestBodyCap:
    @pytest.mark.parametrize("length", [MAX_BODY + 1, 10**15])
    def test_oversized_body_is_refused_unread(self, server, connect, length):
        server.service.reset_stats()
        # Only the head is sent.  Pre-fix the server started reading
        # ``length`` bytes that never come (allocating them first), and the
        # 5-second socket timeout in _raw_exchange expired with no answer.
        probe = (
            b"POST /nodes HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(length).encode() + b"\r\n\r\n"
        )
        answer = _raw_exchange(connect, probe)
        assert len(_status_lines(answer)) == 1
        assert _status_lines(answer)[0].startswith(b"HTTP/1.1 413")
        assert b"connection: close" in answer.lower()
        payload = json.loads(answer.split(b"\r\n\r\n", 1)[1])
        assert payload["error"] == "body_too_large"
        assert str(MAX_BODY) in payload["message"]
        assert sum(server.service.endpoint_counts.values()) == 0

    def test_oversized_expect_continue_gets_413_not_100(self, connect):
        """The refusal replaces the interim response, so a client holding
        its body back never sends a byte of it."""
        probe = (
            b"POST /nodes HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: " + str(MAX_BODY + 1).encode() + b"\r\n\r\n"
        )
        answer = _raw_exchange(connect, probe)
        assert [line[:12] for line in _status_lines(answer)] == [b"HTTP/1.1 413"]

    def test_body_at_the_cap_is_framed(self):
        headers = LeanHeaders({b"content-length": str(MAX_BODY).encode()})
        assert body_length(headers) == MAX_BODY


# ----------------------------------------------------------------------
# A source that cannot be opened leaves no listening socket behind
# ----------------------------------------------------------------------
def test_bad_source_leaves_its_port_free(tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(FileNotFoundError) as excinfo:
        serve_backend(str(tmp_path / "no-such-snapshot"), port=port)
    # The traceback keeps the half-built server alive: had it bound before
    # opening the source, its listening socket would still hold the port.
    assert excinfo.value is not None
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", port))
