"""Server-side per-tenant policy for the multi-tenant graph service.

PR 1 built the budget / rate-limit middleware, but until this module it only
ever ran *client-side* — the paper's restrictive API was simulated inside the
crawler's own process.  Here the same policy objects
(:class:`~repro.api.budget.QueryBudget`,
:class:`~repro.api.ratelimit.RateLimitPolicy`) are promoted to the serving
tier: a ``tenants.json`` file maps API keys to named tenants, each carrying
its own budget, rate limit and usage counters, and the graph service
(:mod:`repro.server.service`, behind the HTTP frontend) enforces them per
request — a 429 with a typed JSON body instead of an in-process exception.

The tenants file is versioned like every other format in the tree::

    {
      "format": "repro-graph-tenants",
      "version": 1,
      "tenants": {
        "alice-key": {"name": "alice", "budget": 10000,
                       "rate_limit": {"max_calls": 100, "window_seconds": 1.0}},
        "bob-key":   {"name": "bob"}
      }
    }

``budget`` is the tenant's unique-node allowance (``null`` / absent =
unlimited) billed exactly like the paper's cost model: only *fresh* nodes the
tenant has never been served count, so a tenant's revisits are free just as
they are against a client-side cache.  ``rate_limit`` is a rolling
fixed-window policy over billable neighborhood requests (``GET /node``,
``POST /nodes``, ``POST /walk``) — the shape of the Twitter/Yelp limits the
paper cites.  Malformed files fail typed
(:class:`~repro.exceptions.TenantConfigError`); unknown or missing keys at
request time raise :class:`~repro.exceptions.TenantAuthError`, which the
server answers with HTTP 401.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..api.budget import QueryBudget
from ..api.ratelimit import FixedWindowPolicy, RateLimitPolicy
from ..exceptions import (
    InvalidConfigurationError,
    QueryBudgetExceededError,
    RateLimitExceededError,
    TenantAuthError,
    TenantConfigError,
)
from ..types import NodeId

#: Format identifier of a tenants policy file.
TENANTS_FORMAT = "repro-graph-tenants"
#: Current tenants-file version; bump on any incompatible change.
TENANTS_VERSION = 1

#: Header carrying the tenant API key on every request.
API_KEY_HEADER = "X-Api-Key"


class WallClock:
    """Real time behind the :class:`~repro.api.ratelimit.SimulatedClock` API.

    Server-side rate limits must roll with actual wall time, but the policy
    objects are written against the simulated clock's ``now`` / ``advance``
    interface.  ``now`` is ``time.monotonic()``; ``advance`` is refused
    because a *server* never blocks a request to wait a window out — it
    answers 429 with ``retry_after`` and lets the client decide.
    """

    @property
    def now(self) -> float:
        return time.monotonic()

    def advance(self, seconds: float) -> float:
        raise RuntimeError(
            "the wall clock cannot be advanced; server-side policies must "
            "acquire with blocking=False"
        )


class TenantPolicy:
    """One tenant's server-side policy state and usage counters.

    Not thread-safe on its own: the owning
    :class:`~repro.server.service.GraphService` calls every method under its
    one lock (handler threads and walk executors share a tenant).
    """

    def __init__(
        self,
        name: str,
        *,
        budget: Optional[int] = None,
        rate_limit: Optional[RateLimitPolicy] = None,
    ) -> None:
        self.name = name
        self.budget = QueryBudget(budget)
        self.rate_limit = rate_limit
        self.endpoint_counts: Counter = Counter()
        self.nodes_served = 0
        self.walks = 0
        self.rate_limited = 0
        self.budget_denied = 0
        #: Node ids already billed against the budget: the paper's cost model
        #: bills *unique* queries, so a tenant's revisits are free (bounded by
        #: the budget — an unlimited tenant skips the tracking entirely).
        self._seen: set = set()
        #: Billed nodes whose fetch has not yet succeeded, with the number of
        #: in-flight requests holding each (see `settle_nodes`).
        self._unsettled: Dict[NodeId, int] = {}

    # ------------------------------------------------------------------
    # Enforcement (called per request by the graph service)
    # ------------------------------------------------------------------
    def charge_request(self, endpoint: str) -> None:
        self.endpoint_counts[endpoint] += 1

    def acquire_slot(self, clock) -> None:
        """Take one rate-limit slot, or raise the typed 429 error."""
        if self.rate_limit is None:
            return
        try:
            self.rate_limit.acquire(clock, blocking=False)
        except RateLimitExceededError:
            self.rate_limited += 1
            raise

    def reserve_nodes(self, nodes: Sequence[NodeId]) -> List[NodeId]:
        """Bill the not-yet-billed subset of ``nodes``; raises when it cannot fit.

        Billing *before* the backend fetch keeps a denied request free (no
        partial billing, no records served) and lets concurrent requests see
        each other's bills, so a node is billed once however many requests
        race for it.  Returns the *held* ids — this request's fresh nodes
        plus billed nodes whose fetch is still in flight elsewhere — which
        :meth:`settle_nodes` resolves once the fetch is over.
        """
        if self.budget.unlimited:
            return []
        fresh: List[NodeId] = []
        held: List[NodeId] = []
        batch: set = set()
        for node in nodes:
            if node in batch:
                continue
            batch.add(node)
            if node not in self._seen:
                fresh.append(node)
            elif node in self._unsettled:
                held.append(node)
        if not self.budget.can_spend(len(fresh)):
            self.budget_denied += 1
            raise QueryBudgetExceededError(self.budget.limit, spent=self.budget.spent)
        self.budget.spend(len(fresh))
        self._seen.update(fresh)
        held.extend(fresh)
        unsettled = self._unsettled
        for node in held:
            unsettled[node] = unsettled.get(node, 0) + 1
        return held

    def settle_nodes(self, held: Sequence[NodeId], served: bool) -> None:
        """Close a :meth:`reserve_nodes` hold once its fetch is over.

        A served node's bill stands for good.  A failed fetch takes a bill
        back only when no other request has served the node or still holds
        it — otherwise a racing request would have been served it for free.
        """
        unsettled = self._unsettled
        if served:
            for node in held:
                unsettled.pop(node, None)
            return
        for node in held:
            refs = unsettled.get(node)
            if refs is None:
                continue  # another request served it: the bill stands
            if refs > 1:
                unsettled[node] = refs - 1
            else:
                del unsettled[node]
                self._seen.discard(node)
                self.budget.spent -= 1

    def bill_walk(self, unique_queries: int) -> None:
        """Bill one server-side walk's unique-query cost against the budget.

        The walk ran under its own fresh stack (so its accounting matches a
        local run bit-for-bit); here its cost lands on the tenant.  The spend
        is clamped to the remaining allowance: concurrent walks of one tenant
        may jointly overshoot the reservation made before they started, and a
        clamp (rather than an error after the work is done) keeps the budget
        a monotone gauge.
        """
        self.walks += 1
        self.nodes_served += unique_queries
        if not self.budget.unlimited:
            self.budget.spend(min(unique_queries, self.budget.remaining))

    @property
    def unique_nodes(self) -> int:
        return len(self._seen)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def reset_usage(self) -> None:
        """Zero the *reported* usage counters; enforcement state survives.

        Budget spend, billed-node tracking and rate-limit windows are policy
        — resetting them on a stats reset would hand a tenant its allowance
        back.  Only the figures `stats_payload` reports as usage are cleared.
        """
        self.endpoint_counts.clear()
        self.nodes_served = 0
        self.walks = 0
        self.rate_limited = 0
        self.budget_denied = 0

    def stats_payload(self) -> Dict[str, Any]:
        """The tenant's ``GET /stats`` entry (JSON-ready)."""
        payload: Dict[str, Any] = {
            "endpoints": dict(self.endpoint_counts),
            "nodes_served": self.nodes_served,
            "unique_nodes": self.unique_nodes,
            "walks": self.walks,
            "rate_limited": self.rate_limited,
            "budget_denied": self.budget_denied,
            "budget": None,
            "rate_limit": None,
        }
        if not self.budget.unlimited:
            payload["budget"] = {
                "limit": self.budget.limit,
                "spent": self.budget.spent,
                "remaining": self.budget.remaining,
            }
        if isinstance(self.rate_limit, FixedWindowPolicy):
            payload["rate_limit"] = {
                "max_calls": self.rate_limit.max_calls,
                "window_seconds": self.rate_limit.window_seconds,
            }
        elif self.rate_limit is not None:
            payload["rate_limit"] = {"policy": type(self.rate_limit).__name__}
        return payload


class TenantRegistry:
    """API key -> :class:`TenantPolicy` resolution for one server.

    An *open* registry (no tenants configured) resolves every request —
    keyed or not — to one shared unlimited ``public`` tenant, so a plain
    ``serve`` bills nothing and refuses nothing.  A
    registry built from a tenants file *requires* a known key and answers
    anything else with :class:`~repro.exceptions.TenantAuthError`.
    """

    def __init__(self, policies: Optional[Dict[str, TenantPolicy]] = None) -> None:
        self._by_key = dict(policies or {})
        names = [policy.name for policy in self._by_key.values()]
        if len(names) != len(set(names)):
            raise TenantConfigError(
                f"tenant names must be unique (stats are keyed by name), "
                f"got {sorted(names)}"
            )
        self._default = TenantPolicy("public") if not self._by_key else None

    @property
    def open(self) -> bool:
        """Whether the service accepts unkeyed requests (no tenants file)."""
        return self._default is not None

    def resolve(self, api_key: Optional[str]) -> TenantPolicy:
        if self._default is not None:
            return self._default
        if api_key is None:
            raise TenantAuthError(
                f"this service requires a tenant API key "
                f"({API_KEY_HEADER} header)"
            )
        policy = self._by_key.get(api_key)
        if policy is None:
            raise TenantAuthError("unknown API key")
        return policy

    def policies(self) -> List[TenantPolicy]:
        """Every tenant (the default one included), for ``/stats``."""
        if self._default is not None:
            return [self._default]
        return list(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key) if self._by_key else 1


def _build_policy(key: str, spec: Any) -> TenantPolicy:
    if not isinstance(spec, dict):
        raise TenantConfigError(
            f"tenant entry for key {key!r} must be a JSON object, "
            f"got {type(spec).__name__}"
        )
    unknown = set(spec) - {"name", "budget", "rate_limit"}
    if unknown:
        raise TenantConfigError(
            f"tenant entry for key {key!r} has unknown fields {sorted(unknown)}"
        )
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise TenantConfigError(
            f"tenant entry for key {key!r} needs a non-empty string 'name'"
        )
    budget = spec.get("budget")
    try:
        budget = QueryBudget(budget).limit
    except InvalidConfigurationError as error:
        raise TenantConfigError(
            f"tenant {name!r}: 'budget' must be a non-negative integer or null"
        ) from error
    rate_limit = None
    rate_spec = spec.get("rate_limit")
    if rate_spec is not None:
        if (not isinstance(rate_spec, dict)
                or set(rate_spec) != {"max_calls", "window_seconds"}):
            raise TenantConfigError(
                f"tenant {name!r}: 'rate_limit' must be "
                f'{{"max_calls": N, "window_seconds": S}} or null'
            )
        try:
            rate_limit = FixedWindowPolicy(
                max_calls=int(rate_spec["max_calls"]),
                window_seconds=float(rate_spec["window_seconds"]),
            )
        except (TypeError, ValueError) as error:
            raise TenantConfigError(
                f"tenant {name!r}: invalid rate limit: {error}"
            ) from error
    return TenantPolicy(name, budget=budget, rate_limit=rate_limit)


def parse_tenants(payload: Any, source: str = "tenants") -> TenantRegistry:
    """Build a :class:`TenantRegistry` from a decoded tenants document."""
    if not isinstance(payload, dict):
        raise TenantConfigError(f"{source} must be a JSON object")
    if payload.get("format") != TENANTS_FORMAT:
        raise TenantConfigError(
            f"{source} is not a {TENANTS_FORMAT} file "
            f"(format={payload.get('format')!r})"
        )
    if payload.get("version") != TENANTS_VERSION:
        raise TenantConfigError(
            f"{source} has version {payload.get('version')!r}; this server "
            f"reads version {TENANTS_VERSION}"
        )
    tenants = payload.get("tenants")
    if not isinstance(tenants, dict) or not tenants:
        raise TenantConfigError(
            f"{source} must map at least one API key under 'tenants'"
        )
    policies = {}
    for key, spec in tenants.items():
        if not isinstance(key, str) or not key:
            raise TenantConfigError(f"{source}: API keys must be non-empty strings")
        policies[key] = _build_policy(key, spec)
    return TenantRegistry(policies)


def load_tenants(path: Union[str, Path]) -> TenantRegistry:
    """Read and validate a ``tenants.json`` policy file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TenantConfigError(f"tenants file {path} does not exist") from None
    except OSError as error:
        raise TenantConfigError(f"cannot read tenants file {path}: {error}") from error
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise TenantConfigError(f"tenants file {path} is not JSON: {error}") from error
    return parse_tenants(payload, source=str(path))


def build_registry(tenants) -> TenantRegistry:
    """Coerce any accepted ``tenants=`` spec into a :class:`TenantRegistry`.

    Accepts ``None`` (open service), a path to a ``tenants.json`` file, a
    decoded tenants document (dict), or an existing registry.
    """
    if tenants is None:
        return TenantRegistry()
    if isinstance(tenants, TenantRegistry):
        return tenants
    if isinstance(tenants, dict):
        return parse_tenants(tenants)
    if isinstance(tenants, (str, Path)):
        return load_tenants(tenants)
    raise TenantConfigError(
        f"tenants must be None, a path, a tenants document or a "
        f"TenantRegistry, got {type(tenants).__name__}"
    )
