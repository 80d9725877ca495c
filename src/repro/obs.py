"""Unified telemetry: a metrics registry, span tracing, and wire propagation.

The serving stack spans client middleware, an HTTP frontend, a replicated
shard tier and a SQLite warehouse; before this module each layer kept its own
disjoint counters (``QueryStats``, ``endpoint_counts``, access-log lines)
with no shared request identity and no latency data.  ``repro.obs`` is the
one place all of them report into:

* :class:`MetricsRegistry` — process-local counters, gauges and fixed-bucket
  histograms behind one small lock, with an injectable clock and zero
  dependencies.  Rendered as Prometheus text exposition
  (:meth:`~MetricsRegistry.render_prometheus`, served at ``GET /metrics`` by
  the server) or as a JSON-ready snapshot (folded into ``GET /stats``).
* :class:`Tracer` / :class:`Span` — span-based tracing with parent/child
  links.  A tracer is *activated* (module-global with a thread-local
  override) and instrumented code opens spans through
  :func:`maybe_span`, which is a no-op when no tracer is active — telemetry
  is off by default and off-by-default-cheap.
* Wire propagation — the additive ``X-Repro-Trace`` request header
  (``repro-trace`` v1) carries ``trace id + parent span`` from the client
  through the server; servers answer with an ``X-Repro-Span`` echo
  carrying their own span id and measured duration, which the client folds
  back into its trace.  One remote ensemble therefore yields one correlated
  JSONL trace tree — client, server and shard spans under a single trace id
  — exportable via ``SamplingSession.trace_export()`` and pretty-printed by
  ``repro.cli trace``.

Nothing here touches the determinism contract: span/trace ids are seeded
from ``os.urandom`` (never the walk rng lineages), and no instrumentation
path bills, caches or reorders a query.

Header grammar (``repro-trace`` version 1, additive to ``repro-graph-http``
v1 — old peers ignore the headers entirely)::

    X-Repro-Trace: repro-trace/1; trace=<16 hex>; span=<16 hex>
    X-Repro-Span:  repro-trace/1; trace=<16 hex>; span=<16 hex>;
                   parent=<16 hex>; ms=<float>; op=<token>

Malformed or unknown-version values are ignored, never refused: telemetry
must not be able to fail a request.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TRACE_HEADER",
    "SPAN_ECHO_HEADER",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "activate_tracer",
    "current_tracer",
    "use_tracer",
    "maybe_span",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_enabled",
    "telemetry",
    "global_registry",
    "metrics",
    "suppress_metrics",
    "format_trace_header",
    "new_span_id",
    "parse_trace_header",
    "format_span_echo",
    "parse_span_echo",
    "render_trace_tree",
]

#: Trace header format name and version (additive to the graph wire).
TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1
#: Request header: trace id + parent span, client -> server.
TRACE_HEADER = "X-Repro-Trace"
#: Response header: the server's own completed span, server -> client.
SPAN_ECHO_HEADER = "X-Repro-Span"

#: Default latency buckets (milliseconds) for request/round histograms —
#: loopback microbenchmarks land in the sub-ms buckets, a WAN crawl in the
#: hundreds; the top bucket is open (+Inf) as Prometheus requires.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

_LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(name: str, labels: Dict[str, Any]) -> _LabelKey:
    if not labels:
        return (name, ())
    if len(labels) == 1:
        # The hot instrumentation sites all use a single label; skip the sort.
        ((key, value),) = labels.items()
        return (name, ((key, str(value)),))
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _format_float(value: float) -> str:
    """Prometheus-style number: integers render without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Histogram:
    """Fixed-bucket histogram state: cumulative counts, sum and count."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left: first bound >= value, i.e. the ``le`` bucket.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> Dict[str, Any]:
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            running += bucket_count
            cumulative[_format_float(bound)] = running
        cumulative["+Inf"] = running + self.counts[-1]
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "buckets": cumulative,
        }


class MetricsRegistry:
    """Process-local metrics: counters, gauges and fixed-bucket histograms.

    One plain ``threading.Lock`` guards every mutation and read — the
    operations inside are dict lookups and float adds, so the lock is held
    for nanoseconds and one registry serves a whole multi-threaded server.
    Holding the same lock across :meth:`render_prometheus`, :meth:`snapshot`
    and :meth:`reset` is what makes a reset *atomic against concurrent
    scrapes*: a scrape observes the registry entirely before or entirely
    after a reset, never a torn mix.

    Args:
        clock: Monotonic time source used by :meth:`time` (injectable so
            tests pin exact durations).
    """

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[_LabelKey, float] = {}
        self._gauges: Dict[_LabelKey, float] = {}
        self._histograms: Dict[_LabelKey, _Histogram] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Declaration (optional; metrics self-declare on first use)
    # ------------------------------------------------------------------
    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to ``name`` in the text exposition."""
        with self._lock:
            self._help[name] = help_text

    def declare_histogram(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> None:
        """Pin ``name``'s bucket bounds (defaults apply on first observe)."""
        with self._lock:
            self._buckets[name] = tuple(sorted(buckets))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to the counter ``name`` (label set included)."""
        key = (name, ()) if not labels else _label_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name`` to ``value``."""
        key = (name, ()) if not labels else _label_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into the histogram ``name``."""
        key = (name, ()) if not labels else _label_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                buckets = self._buckets.get(name, DEFAULT_LATENCY_BUCKETS_MS)
                histogram = self._histograms[key] = _Histogram(tuple(buckets))
            histogram.observe(float(value))

    @contextmanager
    def time(self, name: str, **labels: Any) -> Iterator[None]:
        """Observe the block's wall duration (milliseconds) into ``name``."""
        started = self._clock()
        try:
            yield
        finally:
            self.observe(name, (self._clock() - started) * 1000.0, **labels)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> float:
        """Current counter/gauge value (0.0 when never reported)."""
        key = _label_key(name, labels)
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, 0.0)

    def histogram(self, name: str, **labels: Any) -> Optional[Dict[str, Any]]:
        """One histogram's snapshot, or ``None`` when never observed."""
        key = _label_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            return histogram.snapshot() if histogram is not None else None

    def histogram_family(self, name: str, label: str) -> Dict[str, Dict[str, Any]]:
        """Snapshots of every ``name`` histogram, keyed by one label's value.

        The ``GET /stats`` fold-in: per-endpoint (and per-tenant) latency
        summaries come from one histogram family sliced along a label.
        """
        out: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            for (metric, labels), histogram in self._histograms.items():
                if metric != name:
                    continue
                for key, value in labels:
                    if key == label:
                        out[value] = histogram.snapshot()
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of everything (folded into ``GET /stats``)."""

        def fold(table: Dict[_LabelKey, Any], render) -> Dict[str, Any]:
            out: Dict[str, Any] = {}
            for (name, labels), value in sorted(table.items()):
                if labels:
                    label_text = ",".join(f"{k}={v}" for k, v in labels)
                    out.setdefault(name, {})[label_text] = render(value)
                else:
                    out[name] = render(value)
            return out

        with self._lock:
            return {
                "counters": fold(self._counters, lambda v: v),
                "gauges": fold(self._gauges, lambda v: v),
                "histograms": fold(self._histograms, lambda h: h.snapshot()),
            }

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition (format 0.0.4)."""
        lines: List[str] = []

        def labelled(name: str, labels, extra: str = "") -> str:
            parts = [f'{k}="{_escape_label(v)}"' for k, v in labels]
            if extra:
                parts.append(extra)
            return f"{name}{{{','.join(parts)}}}" if parts else name

        with self._lock:
            seen_types: set = set()

            def header(name: str, kind: str) -> None:
                if name in seen_types:
                    return
                seen_types.add(name)
                help_text = self._help.get(name)
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")

            for (name, labels), value in sorted(self._counters.items()):
                header(name, "counter")
                lines.append(f"{labelled(name, labels)} {_format_float(value)}")
            for (name, labels), value in sorted(self._gauges.items()):
                header(name, "gauge")
                lines.append(f"{labelled(name, labels)} {_format_float(value)}")
            for (name, labels), histogram in sorted(self._histograms.items()):
                header(name, "histogram")
                running = 0
                for bound, count in zip(histogram.buckets, histogram.counts):
                    running += count
                    bucket = 'le="' + _format_float(bound) + '"'
                    lines.append(f"{labelled(name + '_bucket', labels, bucket)} {running}")
                inf_bucket = 'le="+Inf"'
                lines.append(
                    f"{labelled(name + '_bucket', labels, inf_bucket)} {histogram.count}"
                )
                lines.append(
                    f"{labelled(name + '_sum', labels)} {_format_float(round(histogram.total, 6))}"
                )
                lines.append(f"{labelled(name + '_count', labels)} {histogram.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Drop every value (declared buckets and help text survive)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
            )


# ----------------------------------------------------------------------
# The process-wide registry and the off-by-default switch
# ----------------------------------------------------------------------
_GLOBAL_REGISTRY = MetricsRegistry()
_TELEMETRY_ENABLED = False
_STATE_LOCK = threading.Lock()


def global_registry() -> MetricsRegistry:
    """The process-wide registry client-side instrumentation reports into."""
    return _GLOBAL_REGISTRY


def telemetry_enabled() -> bool:
    return _TELEMETRY_ENABLED


def enable_telemetry() -> None:
    """Turn on client-side metrics reporting into :func:`global_registry`."""
    global _TELEMETRY_ENABLED
    with _STATE_LOCK:
        _TELEMETRY_ENABLED = True


def disable_telemetry() -> None:
    global _TELEMETRY_ENABLED
    with _STATE_LOCK:
        _TELEMETRY_ENABLED = False


@contextmanager
def telemetry() -> Iterator[MetricsRegistry]:
    """Scoped :func:`enable_telemetry` (restores the previous state)."""
    previous = _TELEMETRY_ENABLED
    enable_telemetry()
    try:
        yield _GLOBAL_REGISTRY
    finally:
        if not previous:
            disable_telemetry()


def metrics() -> Optional[MetricsRegistry]:
    """The global registry when telemetry is on, else ``None``.

    This is the hot-path guard every instrumentation site uses::

        m = obs.metrics()
        if m is not None:
            m.inc("repro_http_requests_total")

    Off-by-default cost: one module-global read and a ``None`` check.
    """
    if not _TELEMETRY_ENABLED or getattr(_METRICS_TLS, "suppressed", False):
        return None
    return _GLOBAL_REGISTRY


_METRICS_TLS = threading.local()


@contextmanager
def suppress_metrics() -> Iterator[None]:
    """Hide the global registry from this thread's instrumentation sites.

    For hot loops whose caller reports the same figures in aggregate
    afterwards: the graph service's ``POST /walk`` runs an entire
    client-grade middleware stack per walk, and paying a registry add per
    cache probe would tax the walk by more than the graph work itself —
    the service suppresses per-query reporting for the walk's thread and
    folds the walk result's exact totals in with two adds.
    """
    previous = getattr(_METRICS_TLS, "suppressed", False)
    _METRICS_TLS.suppressed = True
    try:
        yield
    finally:
        _METRICS_TLS.suppressed = previous


# ----------------------------------------------------------------------
# Spans and tracers
# ----------------------------------------------------------------------
_ID_TLS = threading.local()


def _new_id() -> str:
    """A fresh 64-bit hex id (never drawn from the walk rng lineages).

    One ``os.urandom`` syscall seeds a per-thread 32-bit prefix; every id
    after that is the prefix plus a counter, so minting — which happens
    several times per traced request on both ends of the wire — costs a
    format call rather than a syscall.  The prefix re-seeds when the
    counter wraps, keeping ids unique across threads and processes.
    """
    n = getattr(_ID_TLS, "counter", 0)
    low = n & 0xFFFFFFFF
    if low == 0:
        _ID_TLS.prefix = os.urandom(4).hex()
    _ID_TLS.counter = n + 1
    return f"{_ID_TLS.prefix}{low:08x}"


#: Public alias: servers mint their own span ids from the same entropy pool.
new_span_id = _new_id


class Span:
    """One timed operation in a trace tree.

    ``duration_ms`` is stamped by :meth:`Tracer.finish`; ``tags`` is a plain
    mutable dict the instrumented code annotates (attempt numbers, shard
    labels, replica lists).  ``kind`` groups spans for the pretty-printer:
    ``client`` / ``server`` / ``shard`` / ``session``.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "kind",
        "start_ms", "duration_ms", "tags",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        start_ms: float,
        tags: Dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start_ms = start_ms
        self.duration_ms: Optional[float] = None
        self.tags = tags

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": (
                round(self.duration_ms, 3) if self.duration_ms is not None else None
            ),
        }
        if self.tags:
            payload["tags"] = self.tags
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Span({self.name!r}, trace={self.trace_id}, span={self.span_id}, "
            f"parent={self.parent_id}, ms={self.duration_ms})"
        )


class _SpanScope:
    """Context manager pairing one pushed span with its pop-and-finish."""

    __slots__ = ("_tracer", "_span", "_stack")

    def __init__(self, tracer: "Tracer", span: Span, stack: list) -> None:
        self._tracer = tracer
        self._span = span
        self._stack = stack

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stack.pop()
        self._tracer.finish(self._span)
        return False


class Tracer:
    """Collects the spans of one or more traces.

    Span *context* (which span is the current parent) is a per-thread stack;
    the finished-span list is shared under a lock, so several threads may
    finish spans concurrently.  ``clock`` and ``idgen`` are injectable
    for deterministic tests.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        idgen: Callable[[], str] = _new_id,
    ) -> None:
        self._clock = clock
        self._idgen = idgen
        self._epoch = clock()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._raw_echoes: deque = deque()
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[str, str]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Optional[Tuple[str, str]]:
        """The active ``(trace_id, span_id)`` on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def scope(self, trace_id: str, span_id: str) -> Iterator[None]:
        """Adopt an existing context (cross-thread propagation) without a span."""
        stack = self._stack()
        stack.append((trace_id, span_id))
        try:
            yield
        finally:
            stack.pop()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        *,
        kind: str = "client",
        parent: Optional[Tuple[str, str]] = None,
        **tags: Any,
    ) -> Span:
        """Open a span (manual pairing with :meth:`finish`).

        ``parent`` overrides the ambient context; with neither, the span
        roots a fresh trace.  The span is *not* pushed as context — use
        :meth:`span` for the scoped form.
        """
        context = parent if parent is not None else self.current()
        if context is None:
            trace_id, parent_id = self._idgen(), None
        else:
            trace_id, parent_id = context
        return Span(
            trace_id=trace_id,
            span_id=self._idgen(),
            parent_id=parent_id,
            name=name,
            kind=kind,
            start_ms=(self._clock() - self._epoch) * 1000.0,
            tags=tags,
        )

    def finish(self, span: Span) -> Span:
        """Stamp ``duration_ms`` and collect the span."""
        span.duration_ms = max(
            0.0, (self._clock() - self._epoch) * 1000.0 - span.start_ms
        )
        with self._lock:
            self._spans.append(span)
        return span

    def span(
        self,
        name: str,
        *,
        kind: str = "client",
        parent: Optional[Tuple[str, str]] = None,
        **tags: Any,
    ) -> "_SpanScope":
        """Scoped span: opens, pushes as context, finishes on exit.

        Returns a slim hand-rolled context manager rather than a
        ``contextlib`` generator — this sits on the per-request hot path,
        where the generator machinery costs more than the span itself.
        """
        opened = self.start_span(name, kind=kind, parent=parent, **tags)
        stack = self._stack()
        stack.append((opened.trace_id, opened.span_id))
        return _SpanScope(self, opened, stack)

    def record(self, span: Span) -> Span:
        """Collect an externally-completed span (a server's echo)."""
        with self._lock:
            self._spans.append(span)
        return span

    def record_echo(
        self, echo: Dict[str, Any], *, kind: str = "server"
    ) -> Optional[Span]:
        """Fold a parsed ``X-Repro-Span`` echo into the trace tree."""
        trace_id = echo.get("trace")
        span_id = echo.get("span")
        if not trace_id or not span_id:
            return None
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=echo.get("parent"),
            name=str(echo.get("op", "server.request")),
            kind=kind,
            start_ms=0.0,
            tags={"remote": True},
        )
        span.duration_ms = float(echo.get("ms", 0.0))
        return self.record(span)

    def record_echo_raw(self, value: Optional[str]) -> None:
        """Buffer an unparsed ``X-Repro-Span`` value for deferred folding.

        This is the request hot path's form of :meth:`record_echo`: the
        wire value costs one thread-safe append at request time, and the
        parse plus span materialisation happen on the first export or
        read.  Malformed values are dropped there, exactly as the eager
        path drops them at the parse.
        """
        if value:
            self._raw_echoes.append(value)

    def _drain_echoes(self) -> None:
        """Materialise buffered wire echoes (deque ops are thread-safe)."""
        while True:
            try:
                value = self._raw_echoes.popleft()
            except IndexError:
                return
            echo = parse_span_echo(value)
            if echo is not None:
                self.record_echo(echo)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        self._drain_echoes()
        with self._lock:
            return list(self._spans)

    def trace_ids(self) -> List[str]:
        self._drain_echoes()
        with self._lock:
            seen: Dict[str, None] = {}
            for span in self._spans:
                seen.setdefault(span.trace_id, None)
            return list(seen)

    def export_jsonl(self) -> str:
        """One JSON object per span, parents before children where known."""
        spans = self.spans()
        return "".join(json.dumps(span.to_json()) + "\n" for span in spans)

    def clear(self) -> None:
        self._raw_echoes.clear()
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        self._drain_echoes()
        with self._lock:
            return len(self._spans)


# ----------------------------------------------------------------------
# Active-tracer plumbing
# ----------------------------------------------------------------------
#: Module-global active tracer: every thread sees the same tracer the main
#: thread activated, because a plain thread-local would leave spans opened
#: on other threads orphaned in a fresh trace.
_ACTIVE_TRACER: Optional[Tracer] = None
_TRACER_TLS = threading.local()


def current_tracer() -> Optional[Tracer]:
    """The tracer instrumentation should report to (``None`` = tracing off)."""
    override = getattr(_TRACER_TLS, "tracer", None)
    if override is not None:
        return override
    return _ACTIVE_TRACER


def activate_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` process-wide (``None`` deactivates)."""
    global _ACTIVE_TRACER
    with _STATE_LOCK:
        _ACTIVE_TRACER = tracer


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`activate_tracer` (restores the previous tracer)."""
    global _ACTIVE_TRACER
    with _STATE_LOCK:
        previous, _ACTIVE_TRACER = _ACTIVE_TRACER, tracer
    try:
        yield tracer
    finally:
        with _STATE_LOCK:
            _ACTIVE_TRACER = previous


@contextmanager
def maybe_span(name: str, *, kind: str = "client", **tags: Any) -> Iterator[Optional[Span]]:
    """Open a span on the active tracer, or do nothing when tracing is off."""
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, kind=kind, **tags) as span:
        yield span


# ----------------------------------------------------------------------
# Wire codec (repro-trace v1)
# ----------------------------------------------------------------------
_PREFIX = f"{TRACE_FORMAT}/{TRACE_VERSION}"
_ID_RE = re.compile(r"[0-9a-f]{1,32}$")
#: Fast paths for the exact canonical forms this module emits — the parse
#: happens once per request on both ends, so the lenient field-by-field
#: parser only runs for values some other producer formatted.
_TRACE_HEADER_RE = re.compile(
    rf"{_PREFIX}; trace=([0-9a-f]{{1,32}}); span=([0-9a-f]{{1,32}})$"
)
_SPAN_ECHO_RE = re.compile(
    rf"{_PREFIX}; trace=([0-9a-f]{{1,32}}); span=([0-9a-f]{{1,32}}); "
    r"parent=([0-9a-f]{1,32}); ms=([0-9.]+); op=([A-Za-z0-9._/-]*)$"
)
_OP_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._/-]+")


def _valid_id(value: Any) -> bool:
    return isinstance(value, str) and _ID_RE.match(value) is not None


def format_trace_header(trace_id: str, span_id: str) -> str:
    """The ``X-Repro-Trace`` request value for one outgoing request."""
    return f"{_PREFIX}; trace={trace_id}; span={span_id}"


def _parse_fields(value: str) -> Optional[Dict[str, str]]:
    parts = [part.strip() for part in value.split(";")]
    if not parts or parts[0] != _PREFIX:
        return None
    fields: Dict[str, str] = {}
    for part in parts[1:]:
        name, separator, field_value = part.partition("=")
        if separator:
            fields[name.strip()] = field_value.strip()
    return fields


def parse_trace_header(value: Optional[str]) -> Optional[Tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a request header, or ``None``.

    Anything malformed — wrong format token, future version, non-hex ids —
    returns ``None``: a server must serve the request untraced rather than
    refuse it over telemetry.
    """
    if not value:
        return None
    match = _TRACE_HEADER_RE.match(value)
    if match is not None:
        return match.group(1), match.group(2)
    fields = _parse_fields(value)
    if fields is None:
        return None
    trace_id, span_id = fields.get("trace"), fields.get("span")
    if not _valid_id(trace_id) or not _valid_id(span_id):
        return None
    return trace_id, span_id


def format_span_echo(
    trace_id: str, span_id: str, parent_id: str, duration_ms: float, op: str
) -> str:
    """The ``X-Repro-Span`` response value describing the server's span."""
    safe_op = _OP_UNSAFE_RE.sub("", op) or "request"
    return (
        f"{_PREFIX}; trace={trace_id}; span={span_id}; parent={parent_id}; "
        f"ms={duration_ms:.3f}; op={safe_op}"
    )


def parse_span_echo(value: Optional[str]) -> Optional[Dict[str, Any]]:
    """Decode an ``X-Repro-Span`` echo; ``None`` on anything malformed."""
    if not value:
        return None
    match = _SPAN_ECHO_RE.match(value)
    if match is not None:
        trace_id, span_id, parent, ms, op = match.groups()
        try:
            duration = float(ms)
        except ValueError:  # pragma: no cover - the pattern forbids this
            duration = 0.0
        return {"trace": trace_id, "span": span_id, "parent": parent,
                "ms": duration, "op": op or "server.request"}
    fields = _parse_fields(value)
    if fields is None:
        return None
    if not _valid_id(fields.get("trace")) or not _valid_id(fields.get("span")):
        return None
    echo: Dict[str, Any] = {
        "trace": fields["trace"],
        "span": fields["span"],
    }
    parent = fields.get("parent")
    if _valid_id(parent):
        echo["parent"] = parent
    try:
        echo["ms"] = float(fields.get("ms", "0"))
    except ValueError:
        echo["ms"] = 0.0
    echo["op"] = fields.get("op", "server.request")
    return echo


# ----------------------------------------------------------------------
# Trace-tree rendering (the `repro.cli trace` pretty-printer's engine)
# ----------------------------------------------------------------------
def render_trace_tree(spans: List[Dict[str, Any]]) -> str:
    """Render exported span dicts as an indented per-trace tree.

    Orphans (a parent id that never arrived, e.g. a server echo whose client
    span was lost) attach at the trace root rather than vanishing.
    """
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        trace_id = span.get("trace_id", "?")
        by_trace.setdefault(trace_id, []).append(span)

    lines: List[str] = []
    for trace_id, members in by_trace.items():
        ids = {span.get("span_id") for span in members}
        children: Dict[Optional[str], List[Dict[str, Any]]] = {}
        for span in members:
            parent = span.get("parent_id")
            if parent is not None and parent not in ids:
                parent = None  # orphan: attach at the root
            children.setdefault(parent, []).append(span)
        for siblings in children.values():
            siblings.sort(key=lambda s: (s.get("start_ms") or 0.0, s.get("span_id") or ""))
        lines.append(f"trace {trace_id} ({len(members)} spans)")

        def emit(parent: Optional[str], depth: int) -> None:
            for span in children.get(parent, []):
                duration = span.get("duration_ms")
                shown = f"{duration:.3f}ms" if isinstance(duration, (int, float)) else "?"
                tags = span.get("tags") or {}
                tag_text = (
                    " " + " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
                    if tags
                    else ""
                )
                lines.append(
                    f"{'  ' * (depth + 1)}[{span.get('kind', '?')}] "
                    f"{span.get('name', '?')} {shown}{tag_text}"
                )
                span_id = span.get("span_id")
                if span_id in ids:
                    emit(span_id, depth + 1)

        emit(None, 0)
    return "\n".join(lines) + ("\n" if lines else "")
