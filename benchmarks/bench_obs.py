"""Benchmark: enabled telemetry must not change the economics of a run.

Telemetry is opt-in, but opting in must stay cheap: the registry guard is
one module-global read, counters are dict adds under a nanosecond lock, and
spans only materialise where requests already cross a process boundary.
Three workloads pin the cost from three directions:

* ``vector_ensemble`` — a 1000-walker vector ensemble over a CSR graph, the
  tightest loop in the codebase; asserts the <= 10% ratio bar.
* ``remote_walk`` — whole walks served by ``POST /walk`` (the serving
  stack's remote flagship: one traced round trip per walk); asserts the
  <= 10% ratio bar.
* ``client_driven_fetches`` — a budgeted walk fetching node-by-node over
  loopback HTTP, where *every* request carries an ``X-Repro-Trace`` header
  and returns an ``X-Repro-Span`` echo.  The echo is a fixed per-request
  cost (span mint + header parse on the server, one extra header line each
  way), so the honest bound is absolute, not relative: the telemetry delta
  must stay under ``FETCH_BUDGET_US`` per wire request.  Against loopback's
  ~100 us round trip that fixed cost is a large *ratio*; against any real
  network RTT (>= 1 ms) it is under 3%.  The ratio is still recorded.

Interleaved timings (min-of-N for the ratio bars, median of paired
differences for the absolute bar) keep scheduler noise out of the verdict; the
bars are asserted at the default scale and recorded (never asserted) on
reduced ``REPRO_BENCH_SCALE`` smoke runs, where sub-millisecond baselines
turn ratios into coin flips.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.api import CSRBackend, HTTPGraphBackend, build_api
from repro.engine import VectorScheduler
from repro.obs import Tracer, disable_telemetry, enable_telemetry, global_registry
from repro.server import serve_backend
from repro.walks import make_walker
import repro.obs as obs

from conftest import bench_scale, record_bench_result

NUM_NODES = max(5_000, int(50_000 * bench_scale()))
OUT_DEGREE = 8
WALKERS = 1000
#: ~25 ms per sample at full scale: long enough that a single lucky
#: scheduler slice cannot move the min-of-N by the width of the bar.
VECTOR_STEPS = max(20, int(200 * bench_scale()))
REMOTE_BUDGET = max(100, int(400 * bench_scale()))
#: Walks per timed sample on the server-side path (one POST /walk each).
#: Long samples (~90 ms) average out thread-placement luck between the
#: server's handler thread and the client.
REMOTE_WALKS = 12
SEED = 0
REPEATS = 7
#: The ratio bar for the two flagship paths.  Reduced-scale smoke runs
#: record the ratio only.
MAX_OVERHEAD = 1.10 if bench_scale() >= 1.0 else None
#: The absolute bar for the per-fetch wire-echo cost, in microseconds per
#: traced request.  The full bill — one buffered client span, the wire
#: header each way, the server's echoed span, request counters, a latency
#: histogram observation and two cache-probe counters — measures ~30-40 us
#: after optimisation (deferred echo parsing, counter-based span ids,
#: fast-path label keys).  The verdict uses the *median of paired
#: interleaved differences*, which cancels load drift that min-of-N
#: cannot; 55 us on top of that still catches any reintroduction of
#: eager per-request parsing or per-id urandom (each ~20 us/request).
FETCH_BUDGET_US = 55.0 if bench_scale() >= 1.0 else None


def _make_backend() -> CSRBackend:
    rng = np.random.default_rng(SEED)
    sources = np.repeat(np.arange(NUM_NODES, dtype=np.int64), OUT_DEGREE)
    targets = rng.integers(0, NUM_NODES, size=sources.size, dtype=np.int64)
    edges = np.stack([sources, targets], axis=1)
    return CSRBackend.from_edges(edges, num_nodes=NUM_NODES, name="obs-bench-csr")


def _timed(function):
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        function()
        return time.perf_counter() - started
    finally:
        gc.enable()


def _race_samples(baseline, instrumented, repeats=REPEATS):
    """Interleaved timing pairs: (base_times, obs_times), one pair per repeat."""
    # One untimed warm-up pair: connections, allocator arenas and lazy
    # imports must not land in either side's first sample.
    baseline()
    _with_telemetry(instrumented)()
    base_times, obs_times = [], []
    for _ in range(repeats):
        base_times.append(_timed(baseline))
        obs_times.append(_timed(_with_telemetry(instrumented)))
    return base_times, obs_times


def _race(baseline, instrumented, repeats=REPEATS):
    """Interleaved min-of-N: (baseline_seconds, telemetry_seconds)."""
    base_times, obs_times = _race_samples(baseline, instrumented, repeats)
    return min(base_times), min(obs_times)


def _with_telemetry(function):
    def run():
        tracer = Tracer()
        enable_telemetry()
        try:
            with obs.use_tracer(tracer):
                function()
        finally:
            disable_telemetry()
            global_registry().reset()
    return run


def _record(name, baseline_seconds, telemetry_seconds, **fields):
    overhead = telemetry_seconds / baseline_seconds
    print(
        f"\n{name}: off {baseline_seconds * 1e3:.1f} ms, "
        f"on {telemetry_seconds * 1e3:.1f} ms ({(overhead - 1) * 100:+.1f}%)"
    )
    record_bench_result(
        name,
        baseline_seconds=baseline_seconds,
        telemetry_seconds=telemetry_seconds,
        overhead_ratio=overhead,
        **fields,
    )
    return overhead


def _assert_ratio(name, overhead, baseline_seconds, telemetry_seconds):
    if MAX_OVERHEAD is not None:
        assert overhead <= MAX_OVERHEAD, (
            f"{name}: enabled telemetry costs {(overhead - 1) * 100:.1f}% "
            f"(off {baseline_seconds:.4f}s vs on {telemetry_seconds:.4f}s); "
            f"the bar is {(MAX_OVERHEAD - 1) * 100:.0f}%"
        )


def test_obs_overhead_vector_ensemble():
    """A 1k-walker vector ensemble pays <= 10% for enabled telemetry."""
    backend = _make_backend()
    rng = np.random.default_rng(SEED)
    degrees = backend.indptr[1:] - backend.indptr[:-1]
    eligible = np.flatnonzero(degrees > 0)
    starts = [int(node) for node in rng.choice(eligible, size=WALKERS, replace=False)]

    def run():
        api = build_api(backend)
        VectorScheduler(api).run("srw", starts, steps=VECTOR_STEPS, seed=SEED)

    baseline_seconds, telemetry_seconds = _race(run, run)
    overhead = _record(
        "obs_overhead.vector_ensemble",
        baseline_seconds,
        telemetry_seconds,
        max_overhead=MAX_OVERHEAD,
        nodes=NUM_NODES,
        walkers=WALKERS,
        steps=VECTOR_STEPS,
    )
    _assert_ratio(
        "obs_overhead.vector_ensemble", overhead, baseline_seconds, telemetry_seconds
    )


def test_obs_overhead_remote_walk():
    """Server-side walks (``POST /walk``) pay <= 10% for enabled telemetry."""
    backend = _make_backend()
    start = int(np.flatnonzero(backend.indptr[1:] - backend.indptr[:-1] > 0)[0])
    with serve_backend(backend) as server:

        def run():
            with HTTPGraphBackend(server.url, timeout=30.0) as client:
                for walk in range(REMOTE_WALKS):
                    client.remote_walk(
                        "srw", start, seed=SEED + walk, budget=REMOTE_BUDGET
                    )

        baseline_seconds, telemetry_seconds = _race(run, run)
    overhead = _record(
        "obs_overhead.remote_walk",
        baseline_seconds,
        telemetry_seconds,
        max_overhead=MAX_OVERHEAD,
        nodes=NUM_NODES,
        walks=REMOTE_WALKS,
        budget=REMOTE_BUDGET,
    )
    _assert_ratio(
        "obs_overhead.remote_walk", overhead, baseline_seconds, telemetry_seconds
    )


def test_obs_overhead_client_driven_fetches():
    """Per-request wire tracing costs under ``FETCH_BUDGET_US`` per fetch."""
    backend = _make_backend()
    server = serve_backend(backend).start()
    try:
        start = int(np.flatnonzero(backend.indptr[1:] - backend.indptr[:-1] > 0)[0])

        def run():
            with HTTPGraphBackend(server.url, timeout=10.0) as client:
                api = build_api(client, budget=REMOTE_BUDGET)
                walker = make_walker("srw", api=api, seed=SEED)
                walker.run(start, max_steps=None)

        base_times, obs_times = _race_samples(run, run, repeats=11)
    finally:
        server.close()
    baseline_seconds, telemetry_seconds = min(base_times), min(obs_times)
    # The budget stops the walk after exactly REMOTE_BUDGET unique fetches,
    # each of which is one traced wire request.  Loopback RTT drifts with
    # box load, so the delta comes from the median of adjacent off/on pairs
    # (each pair shares the same load regime) rather than min(on) - min(off),
    # whose two mins can land in different regimes.
    diffs = sorted(on - off for off, on in zip(base_times, obs_times))
    per_request_us = diffs[len(diffs) // 2] / REMOTE_BUDGET * 1e6
    _record(
        "obs_overhead.client_driven_fetches",
        baseline_seconds,
        telemetry_seconds,
        per_request_us=per_request_us,
        fetch_budget_us=FETCH_BUDGET_US,
        nodes=NUM_NODES,
        budget=REMOTE_BUDGET,
    )
    print(f"per traced request: {per_request_us:+.1f} us")
    if FETCH_BUDGET_US is not None:
        assert per_request_us <= FETCH_BUDGET_US, (
            f"client_driven_fetches: tracing a wire request costs "
            f"{per_request_us:.1f} us (off {baseline_seconds:.4f}s vs on "
            f"{telemetry_seconds:.4f}s over {REMOTE_BUDGET} requests); "
            f"the budget is {FETCH_BUDGET_US:.0f} us"
        )
