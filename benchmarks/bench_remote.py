"""Benchmark: batched remote fetches versus per-node GETs over a live server.

The remote access layer justifies its ``POST /nodes`` batch endpoint on one
number, asserted here so the claim stays CI-checkable: a 16-walker ensemble
driven through the batched :class:`~repro.engine.WalkScheduler` (one frontier
``POST /nodes`` per round) must beat the same 16 walks run sequentially (one
``GET /node/<id>`` per fresh step) by >= 2x wall clock — while producing
bit-identical paths, because batching may only change *how many requests*
cross the wire, never what any sampler sees.

The server is in-process (loopback), so the measured win is pure
per-request overhead amortisation — the effect only grows with real network
latency between machines.

Set ``REPRO_BENCH_SCALE`` < 1 (e.g. 0.25) for a quick smoke run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import CSRBackend, HTTPGraphBackend, build_api
from repro.engine import WalkScheduler
from repro.server import serve_backend
from repro.walks import make_walker

from conftest import bench_scale, record_bench_result

#: Graph size: 20k nodes at the default scale.
NUM_NODES = max(4_000, int(20_000 * bench_scale()))
OUT_DEGREE = 8
NUM_WALKERS = 16
WALK_STEPS = max(16, int(64 * min(1.0, bench_scale())))
#: Acceptance threshold: batched POST /nodes vs per-node GET /node/<id>.
MIN_BATCH_SPEEDUP = 2.0


def _synthetic_edges(num_nodes: int, out_degree: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sources = np.repeat(np.arange(num_nodes, dtype=np.int64), out_degree)
    targets = rng.integers(0, num_nodes, size=sources.size, dtype=np.int64)
    return np.stack([sources, targets], axis=1)


def _best_of(function, *args, repeats=3):
    times = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function(*args)
        times.append(time.perf_counter() - started)
    return min(times), result


@pytest.fixture(scope="module")
def server():
    backend = CSRBackend.from_edges(
        _synthetic_edges(NUM_NODES, OUT_DEGREE), num_nodes=NUM_NODES, name="remote-csr"
    )
    with serve_backend(backend) as live:
        yield live


def _walker_setup(url):
    client = HTTPGraphBackend(url)
    api = build_api(client)
    walkers = [make_walker("cnrw", api=api, seed=seed) for seed in range(NUM_WALKERS)]
    starts = [(seed * 7919) % NUM_NODES for seed in range(NUM_WALKERS)]
    return client, api, walkers, starts


def _batched_ensemble(url):
    """One scheduler round-trip: the frontier travels as POST /nodes batches."""
    client, api, walkers, starts = _walker_setup(url)
    try:
        results = WalkScheduler(api).run(walkers, starts, steps=WALK_STEPS)
        return [result.path for result in results], api.unique_queries
    finally:
        client.close()


def _sequential_walks(url):
    """The same 16 walks one after another: every fresh step is its own GET."""
    client, api, walkers, starts = _walker_setup(url)
    try:
        results = [
            walker.run(start, max_steps=WALK_STEPS)
            for walker, start in zip(walkers, starts)
        ]
        return [result.path for result in results], api.unique_queries
    finally:
        client.close()


def test_bench_batched_remote_ensemble(benchmark, server):
    paths, unique = benchmark(_batched_ensemble, server.url)
    assert len(paths) == NUM_WALKERS and unique > 0


def test_batched_posts_beat_per_node_gets_2x(server):
    """Acceptance check: batched POST /nodes >= 2x over per-node GETs."""
    batched_paths, batched_unique = _batched_ensemble(server.url)
    sequential_paths, sequential_unique = _sequential_walks(server.url)
    # Identical sampling first: batching must not change a single step.
    assert batched_paths == sequential_paths
    assert batched_unique == sequential_unique

    server.service.reset_stats()
    batched_seconds, _ = _best_of(_batched_ensemble, server.url)
    batched_requests = sum(server.service.endpoint_counts.values())
    server.service.reset_stats()
    sequential_seconds, _ = _best_of(_sequential_walks, server.url)
    sequential_requests = sum(server.service.endpoint_counts.values())
    speedup = sequential_seconds / batched_seconds
    print(
        f"\n{NUM_WALKERS}-walker x {WALK_STEPS}-step CNRW ensemble over "
        f"{NUM_NODES} nodes: sequential {sequential_seconds * 1e3:.1f} ms "
        f"({sequential_requests // 3} requests/run), batched "
        f"{batched_seconds * 1e3:.1f} ms ({batched_requests // 3} requests/run), "
        f"{speedup:.1f}x"
    )
    record_bench_result(
        "remote.batched_vs_per_node",
        nodes=NUM_NODES,
        walkers=NUM_WALKERS,
        steps=WALK_STEPS,
        sequential_seconds=sequential_seconds,
        batched_seconds=batched_seconds,
        sequential_requests=sequential_requests // 3,
        batched_requests=batched_requests // 3,
        speedup=speedup,
        required_speedup=MIN_BATCH_SPEEDUP,
    )
    assert batched_requests < sequential_requests
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"expected the batched scheduler to finish >= {MIN_BATCH_SPEEDUP}x faster "
        f"than sequential per-node fetches (sequential {sequential_seconds:.3f}s "
        f"vs batched {batched_seconds:.3f}s, {speedup:.2f}x)"
    )
