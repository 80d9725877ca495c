"""HTTP/1.1 framing rules for the server frontend.

:mod:`repro.server.app` puts the :class:`~repro.server.service.GraphService`
on the wire; every framing rule that carries correctness weight lives here,
apart from the socket handling, so it can be read and tested on its own:

* :class:`LeanHeaders` — the case-insensitive raw-bytes header map the fast
  request path builds instead of an ``email.message.Message``;
* :func:`read_header_block` — one header block into that map, enforcing the
  size caps and rejecting malformed lines *and conflicting duplicates* (two different
  ``Content-Length`` values is the classic request-smuggling shape: whichever
  copy a proxy honours, this service must refuse rather than pick one);
* :func:`body_length` — how many body bytes follow the headers: only a
  plain non-negative ``Content-Length`` (:func:`content_length`) of at most
  :data:`MAX_BODY` frames a body, and any request ``Transfer-Encoding`` is
  refused (the CL/TE smuggling shape);
* :func:`interim_response` — the ``100 Continue`` an
  ``Expect: 100-continue`` client waits for, sent before the body is read;
* :func:`render_response` / :func:`render_refusal` — the bytes of one
  response, and of a refusal that closes the connection;
* :func:`reachable_url` — a client-connectable URL for a bound address
  (wildcard binds resolved to loopback, IPv6 hosts bracketed).

The request caps are :data:`MAX_LINE` bytes per line and
:data:`MAX_HEADERS` header lines (the stdlib's sanity caps), and
:data:`MAX_BODY` body bytes.

The header-block rules (:func:`read_header_block`, :func:`content_length`,
the line caps and :class:`FramingError`) frame responses on the client too,
so they are defined beside the client transport in :mod:`repro.api.remote`
and re-exported here: the client cannot import this package, whose
``__init__`` imports the service, which imports the client.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from typing import Dict, Iterable, Tuple

from ..api.remote import (  # noqa: F401 - re-exported framing rules
    MAX_HEADERS,
    MAX_LINE,
    FramingError,
    content_length,
    read_header_block,
)

#: Hard cap on one request body, checked before any body byte is read.  The
#: largest body an in-repo client builds is a ``POST /nodes`` id list: one id
#: per walker in a scheduler round, or at most a served graph's whole id
#: table (a warehouse ingest of a URL).  The largest graph an in-repo
#: workload serves has 100k nodes (perfbench, and the benchmarks at their
#: default scale); its id table encodes to at most
#: 100,000 x 7 B (``"99999, "``) = 0.7 MB, and a ``POST /walk`` body is under
#: 1 KB.  16 MiB is over 20x that worst case while still bounding what one
#: request can make a handler thread allocate.
MAX_BODY = 16 * 1024 * 1024

_REASONS = {status.value: status.phrase for status in HTTPStatus}
#: The JSON ``error`` token of each status: its lowercased ``HTTPStatus``
#: name (400 ``bad_request``, 501 ``not_implemented``), as the service uses.
#: 413 is pinned, because its name differs between Python versions.
_TOKENS = {status.value: status.name.lower() for status in HTTPStatus}
_TOKENS[413] = "body_too_large"


class LeanHeaders:
    """Case-insensitive header lookup over raw ``bytes`` pairs.

    The fast-path request parsers store headers as lowercased
    ``bytes -> bytes``; this wrapper answers the one call the handlers make
    — ``self.headers.get("Content-Length")`` — without ever building an
    ``email.message.Message``.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: Dict[bytes, bytes]) -> None:
        self._raw = raw

    def get(self, name: str, default=None):
        value = self._raw.get(name.lower().encode("iso-8859-1"))
        return value.decode("iso-8859-1") if value is not None else default


def body_length(headers) -> int:
    """The request body's length in bytes, or :class:`FramingError`.

    ``headers`` is any case-insensitive mapping with ``get``.  A request
    ``Transfer-Encoding`` answers 501: the lean parsers never decode chunked
    bodies, so dispatching one would read its chunks as the next request —
    the CL/TE smuggling shape.  A ``Content-Length`` that is not a plain
    non-negative decimal answers 400 on every method: a negative value would
    otherwise read "until EOF" and pin the connection.  One above
    :data:`MAX_BODY` answers 413 ``body_too_large`` before the body is read.
    """
    if headers.get("Transfer-Encoding") is not None:
        raise FramingError(501, "request Transfer-Encoding is not supported")
    value = headers.get("Content-Length")
    if value is None:
        return 0
    length = content_length(value)
    if length > MAX_BODY:
        raise FramingError(
            413, f"request body of {length} bytes exceeds the {MAX_BODY}-byte limit"
        )
    return length


#: The interim response that releases an ``Expect: 100-continue`` body.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def interim_response(headers, length: int) -> bytes:
    """What to send before reading a ``length``-byte body: ``100 Continue`` or nothing.

    Call it once :func:`body_length` has accepted the framing.  A client
    that sent ``Expect: 100-continue`` holds its body back until it sees
    the interim response, so the frontend must put it on the wire (flushed)
    *before* waiting for the body; buffered behind the final response it
    would leave the client waiting out its own timeout.  Nothing is sent
    when no body follows.
    """
    expect = headers.get("Expect")
    if length and expect is not None and expect.lower() == "100-continue":
        return CONTINUE
    return b""


def render_response(
    status: int, headers: Iterable[Tuple[str, str]], body: bytes, close: bool
) -> bytes:
    """One complete HTTP/1.1 response: status line, headers, framing, body."""
    head = f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
    for name, value in headers:
        head += f"{name}: {value}\r\n"
    head += f"Content-Length: {len(body)}\r\n"
    if close:
        # Tell the client the keep-alive ends here, so it reconnects cleanly
        # instead of discovering a dead socket on its next request.
        head += "Connection: close\r\n"
    return head.encode("iso-8859-1") + b"\r\n" + body


def render_refusal(error: FramingError) -> bytes:
    """The response to a request refused before routing; always closes.

    The JSON body's ``error`` token names the status (400 ``bad_request``,
    413 ``body_too_large``, 431 ``request_header_fields_too_large``, 501
    ``not_implemented``).
    ``Connection: close`` means a smuggling probe can never leave ambiguous
    framing on a kept-alive socket.
    """
    payload = {"error": _TOKENS.get(error.status, "bad_request"), "message": error.message}
    body = json.dumps(payload).encode("utf-8")
    return render_response(error.status, [("Content-Type", "application/json")], body, True)


def reachable_url(host, port) -> str:
    """A URL a client on this machine can actually connect to.

    A server bound to a wildcard address (``0.0.0.0`` / ``::``) reports that
    literal address back from ``getsockname``, but connecting to it is
    platform-dependent at best; resolve to the matching loopback.  IPv6
    literals must travel bracketed inside a URL authority, or the colons
    parse as a port separator.
    """
    host = str(host)
    if host == "0.0.0.0":
        host = "127.0.0.1"
    elif host == "::":
        host = "::1"
    if ":" in host:
        host = f"[{host}]"
    return f"http://{host}:{port}"
