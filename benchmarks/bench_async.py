"""Benchmark: server-side walks, and the asyncio adapter over the threaded one.

Two numbers, both asserted here so the claims stay CI-checkable:

1. **Server-side walks collapse round trips.**  A client-driven walk pays
   one ``GET /node/<id>`` per fresh node (O(budget) round trips); one
   ``POST /walk`` runs the whole walk next to the data and ships back the
   path (O(1)).  The collapse must be >= 5x — and the path must be
   bit-identical, because moving the walk server-side may only change *where*
   the kernel runs, never what it samples.
2. **One event loop beats a thread per connection.**  32 concurrent
   keep-alive clients hammering ``GET /node/<id>`` must see >= 1.5x the
   aggregate throughput from the asyncio frontend (lean parser, no
   per-connection thread) than from the threaded one.  The ratio is asserted
   at the default scale only; reduced-scale smoke runs (``REPRO_BENCH_SCALE``
   < 1) record it without asserting — tiny request counts make the race
   CI noise, not signal.

The servers are in-process (loopback), so both effects only grow with real
network latency between machines.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import CSRBackend, HTTPGraphBackend, build_api
from repro.server import serve_backend, serve_backend_async
from repro.walks import make_walker

from conftest import bench_scale, record_bench_result

#: Graph size: 20k nodes at the default scale.
NUM_NODES = max(4_000, int(20_000 * bench_scale()))
OUT_DEGREE = 8
#: Unique-node budget for the round-trip race (the walk the paper actually
#: buys: a budget-bounded crawl).
WALK_BUDGET = max(30, int(60 * min(1.0, bench_scale())))
WALK_KERNEL = "cnrw"
WALK_SEED = 7
#: Concurrency for the throughput race.
NUM_CONNECTIONS = 32
REQUESTS_PER_CONNECTION = max(10, int(40 * min(1.0, bench_scale())))
#: Acceptance thresholds.
MIN_ROUND_TRIP_COLLAPSE = 5.0
#: Calibrated locally at ~10x on loopback; asserted at full scale only.
MIN_THROUGHPUT_RATIO = 1.5 if NUM_NODES >= 20_000 else None
TIMING_REPEATS = 3


def _synthetic_edges(num_nodes: int, out_degree: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sources = np.repeat(np.arange(num_nodes, dtype=np.int64), out_degree)
    targets = rng.integers(0, num_nodes, size=sources.size, dtype=np.int64)
    return np.stack([sources, targets], axis=1)


def _best_of(function, *args, repeats=TIMING_REPEATS):
    times = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function(*args)
        times.append(time.perf_counter() - started)
    return min(times), result


@pytest.fixture(scope="module")
def graph_backend():
    return CSRBackend.from_edges(
        _synthetic_edges(NUM_NODES, OUT_DEGREE), num_nodes=NUM_NODES, name="aio-csr"
    )


@pytest.fixture(scope="module")
def async_server(graph_backend):
    with serve_backend_async(graph_backend).start() as live:
        yield live


# ----------------------------------------------------------------------
# Claim 1: POST /walk collapses round trips >= 5x
# ----------------------------------------------------------------------
def _client_driven_walk(url):
    """Drive the kernel from the client: one GET /node per fresh node."""
    with HTTPGraphBackend(url, timeout=30.0) as client:
        api = build_api(client, budget=WALK_BUDGET)
        walker = make_walker(WALK_KERNEL, api=api, seed=WALK_SEED)
        return walker.run(0).path


def _server_side_walk(url):
    """One POST /walk: the kernel runs next to the data."""
    with HTTPGraphBackend(url, timeout=30.0) as client:
        return client.remote_walk(
            WALK_KERNEL, 0, seed=WALK_SEED, budget=WALK_BUDGET
        )["path"]


def test_bench_server_side_walk(benchmark, async_server):
    path = benchmark(_server_side_walk, async_server.url)
    assert len(path) > 1


def test_server_side_walk_collapses_round_trips_5x(async_server):
    """Acceptance check: POST /walk >= 5x fewer round trips, bit-identical."""
    # Identical sampling first: the relocation must not change a single step.
    client_path = _client_driven_walk(async_server.url)
    server_path = _server_side_walk(async_server.url)
    assert server_path == client_path

    async_server.service.reset_stats()
    client_seconds, _ = _best_of(_client_driven_walk, async_server.url)
    client_requests = sum(async_server.service.endpoint_counts.values()) // TIMING_REPEATS
    async_server.service.reset_stats()
    server_seconds, _ = _best_of(_server_side_walk, async_server.url)
    server_requests = sum(async_server.service.endpoint_counts.values()) // TIMING_REPEATS
    collapse = client_requests / server_requests
    print(
        f"\n{WALK_KERNEL} walk, budget {WALK_BUDGET}, over {NUM_NODES} nodes: "
        f"client-driven {client_requests} round trips "
        f"({client_seconds * 1e3:.1f} ms), server-side {server_requests} "
        f"({server_seconds * 1e3:.1f} ms), {collapse:.0f}x fewer"
    )
    record_bench_result(
        "async.walk_round_trip_collapse",
        nodes=NUM_NODES,
        kernel=WALK_KERNEL,
        budget=WALK_BUDGET,
        client_requests=client_requests,
        server_requests=server_requests,
        client_seconds=client_seconds,
        server_seconds=server_seconds,
        collapse=collapse,
        required_collapse=MIN_ROUND_TRIP_COLLAPSE,
    )
    assert collapse >= MIN_ROUND_TRIP_COLLAPSE, (
        f"expected POST /walk to cut round trips >= {MIN_ROUND_TRIP_COLLAPSE}x "
        f"(client-driven {client_requests} vs server-side {server_requests} "
        f"= {collapse:.1f}x)"
    )


# ----------------------------------------------------------------------
# Claim 2: async frontend >= 1.5x threaded at 32 connections
# ----------------------------------------------------------------------
def _throughput(url):
    """Aggregate req/s: 32 keep-alive clients fetching nodes concurrently."""
    barrier = threading.Barrier(NUM_CONNECTIONS + 1)
    errors = []

    def worker(index):
        try:
            with HTTPGraphBackend(url, timeout=30.0) as client:
                barrier.wait()
                for i in range(REQUESTS_PER_CONNECTION):
                    client.fetch((index * 7919 + i * 104729) % NUM_NODES)
        except Exception as error:  # pragma: no cover - diagnostics only
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(NUM_CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors
    return NUM_CONNECTIONS * REQUESTS_PER_CONNECTION / elapsed


def test_async_frontend_beats_threaded_at_32_connections(graph_backend):
    """Acceptance check: one event loop >= 1.5x a thread per connection."""
    with serve_backend(graph_backend) as threaded:
        threaded_rps = max(_throughput(threaded.url) for _ in range(TIMING_REPEATS))
    with serve_backend_async(graph_backend).start() as aio:
        async_rps = max(_throughput(aio.url) for _ in range(TIMING_REPEATS))
    ratio = async_rps / threaded_rps
    print(
        f"\n{NUM_CONNECTIONS} connections x {REQUESTS_PER_CONNECTION} requests "
        f"over {NUM_NODES} nodes: threaded {threaded_rps:.0f} req/s, "
        f"async {async_rps:.0f} req/s ({ratio:.1f}x)"
    )
    record_bench_result(
        "async.throughput_vs_threaded",
        nodes=NUM_NODES,
        connections=NUM_CONNECTIONS,
        requests_per_connection=REQUESTS_PER_CONNECTION,
        threaded_rps=threaded_rps,
        async_rps=async_rps,
        ratio=ratio,
        required_ratio=MIN_THROUGHPUT_RATIO,
    )
    if MIN_THROUGHPUT_RATIO is not None:
        assert ratio >= MIN_THROUGHPUT_RATIO, (
            f"expected the asyncio frontend to serve >= {MIN_THROUGHPUT_RATIO}x "
            f"the threaded frontend's throughput at {NUM_CONNECTIONS} "
            f"connections (threaded {threaded_rps:.0f} req/s vs async "
            f"{async_rps:.0f} req/s = {ratio:.2f}x)"
        )
