"""Benchmark: server-side walks collapse round trips.

A client-driven walk pays one ``GET /node/<id>`` per fresh node (O(budget)
round trips); one ``POST /walk`` runs the whole walk next to the data and
ships back the path (O(1)).  The collapse must be >= 5x — and the path must
be bit-identical, because moving the walk server-side may only change
*where* the kernel runs, never what it samples.  Both are asserted here so
the claim stays CI-checkable.

The server is in-process (loopback), so the effect only grows with real
network latency between machines.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import CSRBackend, HTTPGraphBackend, build_api
from repro.server import serve_backend
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
#: Acceptance threshold.
MIN_ROUND_TRIP_COLLAPSE = 5.0
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
        _synthetic_edges(NUM_NODES, OUT_DEGREE), num_nodes=NUM_NODES, name="serve-csr"
    )


@pytest.fixture(scope="module")
def server(graph_backend):
    with serve_backend(graph_backend) as live:
        yield live


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


def test_bench_server_side_walk(benchmark, server):
    path = benchmark(_server_side_walk, server.url)
    assert len(path) > 1


def test_server_side_walk_collapses_round_trips_5x(server):
    """Acceptance check: POST /walk >= 5x fewer round trips, bit-identical."""
    # Identical sampling first: the relocation must not change a single step.
    client_path = _client_driven_walk(server.url)
    server_path = _server_side_walk(server.url)
    assert server_path == client_path

    server.service.reset_stats()
    client_seconds, _ = _best_of(_client_driven_walk, server.url)
    client_requests = sum(server.service.endpoint_counts.values()) // TIMING_REPEATS
    server.service.reset_stats()
    server_seconds, _ = _best_of(_server_side_walk, server.url)
    server_requests = sum(server.service.endpoint_counts.values()) // TIMING_REPEATS
    collapse = client_requests / server_requests
    print(
        f"\n{WALK_KERNEL} walk, budget {WALK_BUDGET}, over {NUM_NODES} nodes: "
        f"client-driven {client_requests} round trips "
        f"({client_seconds * 1e3:.1f} ms), server-side {server_requests} "
        f"({server_seconds * 1e3:.1f} ms), {collapse:.0f}x fewer"
    )
    record_bench_result(
        "serve.walk_round_trip_collapse",
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
