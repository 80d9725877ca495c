"""HTTP server tier: serve any :class:`GraphBackend` as a JSON graph service.

The client/server split of the access layer is one sans-IO service behind two
I/O adapters:

* :class:`GraphService` (:mod:`repro.server.service`) — everything above
  HTTP framing: routing for every endpoint (``/info``, ``/node/<id>``,
  ``/nodes``, ``/meta/<id>``, ``/node-ids``, ``POST /walk``, ``/stats``,
  ``/metrics``), per-tenant API-key policy (:mod:`repro.server.tenants`),
  accounting, trace echoes and the access log;
* :func:`serve_backend` — the thread-per-connection stdlib ``http.server``
  adapter (:class:`GraphHTTPServer`);
* :func:`serve_backend_async` — the asyncio adapter
  (:class:`AsyncGraphServer`): one event loop for every connection.

Both adapters frame with :mod:`repro.server.wire` and serve the same
endpoints, tenants included.  :class:`~repro.api.remote.HTTPGraphBackend`
(the client half, in :mod:`repro.api`) drives either through the unchanged
two-method backend protocol.  ``python -m repro.cli serve --source PATH
--port N`` is the command-line entry point (``--tenants tenants.json`` for
per-tenant policy, ``--async`` for the asyncio adapter).
"""

from .aio import AsyncGraphServer, serve_backend_async
from .app import GraphHTTPServer, GraphRequestHandler, serve_backend
from .service import GraphService
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
    "AsyncGraphServer",
    "GraphHTTPServer",
    "GraphRequestHandler",
    "GraphService",
    "TENANTS_FORMAT",
    "TENANTS_VERSION",
    "TenantPolicy",
    "TenantRegistry",
    "WallClock",
    "load_tenants",
    "parse_tenants",
    "serve_backend",
    "serve_backend_async",
]
