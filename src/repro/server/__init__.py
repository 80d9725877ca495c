"""HTTP server tier: serve any :class:`GraphBackend` as a JSON graph service.

The server half of the client/server split is one sans-IO service behind one
I/O adapter:

* :class:`GraphService` (:mod:`repro.server.service`) — everything above
  HTTP framing: routing for every endpoint (``/info``, ``/node/<id>``,
  ``/nodes``, ``/meta/<id>``, ``/node-ids``, ``POST /walk``, ``/stats``,
  ``/metrics``), per-tenant API-key policy (:mod:`repro.server.tenants`),
  accounting, trace echoes and the access log;
* :func:`serve_backend` — the thread-per-connection stdlib ``http.server``
  frontend (:class:`GraphHTTPServer`), which frames requests with the rules
  of :mod:`repro.server.wire`.

:class:`~repro.api.remote.HTTPGraphBackend` (the client half, in
:mod:`repro.api`) drives it through the unchanged two-method backend
protocol.  ``python -m repro.cli serve --source PATH --port N`` is the
command-line entry point (``--tenants tenants.json`` for per-tenant policy).
"""

from .app import GraphHTTPServer, GraphRequestHandler, serve_backend
from .service import MAX_WALK_STEPS, GraphService
from .tenants import (
    TENANTS_FORMAT,
    TENANTS_VERSION,
    TenantPolicy,
    TenantRegistry,
    WallClock,
    load_tenants,
    parse_tenants,
)

__all__ = [
    "GraphHTTPServer",
    "GraphRequestHandler",
    "GraphService",
    "MAX_WALK_STEPS",
    "TENANTS_FORMAT",
    "TENANTS_VERSION",
    "TenantPolicy",
    "TenantRegistry",
    "WallClock",
    "load_tenants",
    "parse_tenants",
    "serve_backend",
]
