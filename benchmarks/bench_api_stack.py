"""Benchmark: access-layer middleware overhead and batched-query speedup.

The access layer is a storage backend under a middleware stack.  This
benchmark answers the questions that justify the split:

1. *What does the stack cost?*  Per-query overhead of the full canonical
   stack versus a bare ``BackendAPI``, measured on cache hits (the common
   case for a walking sampler).
2. *What does it buy?*  Throughput of the legacy single-query path
   (``query`` in a loop over an in-memory stack with the layers the original
   single-class API had: cache, an unlimited budget, an unlimited rate
   limit) versus the array-based :class:`~repro.api.backend.CSRBackend`
   driven through batched ``query_many`` calls, on a >= 100k-node
   synthetic graph.

3. *What does one billed fetch cost?*  Absolute microseconds on the scalar
   miss path for the in-memory, CSR and memory-mapped backends: a bare
   ``backend.fetch`` and a fresh ``query`` through
   ``build_api(backend, budget=...)`` (cache, budget and core layers), each
   recorded with ``--json``.

``test_csr_batched_beats_legacy_single_query`` asserts the speedup directly,
so the claim is CI-checkable rather than anecdotal.  Set
``REPRO_BENCH_SCALE`` < 1 (e.g. 0.1) for a quick smoke run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import CSRBackend, InMemoryBackend, QueryBudget, UnlimitedPolicy, build_api
from repro.graphs import Graph
from repro.storage import load_snapshot, save_snapshot

from conftest import bench_scale, record_bench_result

#: Graph size: 100k nodes at the default scale (the acceptance target).
NUM_NODES = max(10_000, int(100_000 * bench_scale()))
OUT_DEGREE = 8
BATCH_SIZE = 1024
#: How many distinct nodes each fresh-query sweep touches.
SWEEP_NODES = NUM_NODES // 2
#: Fresh nodes per timed miss-path pass, and passes (the fastest counts).
MISS_NODES = 2000
MISS_REPEATS = 25


def _synthetic_edges(num_nodes: int, out_degree: int, seed: int = 0) -> np.ndarray:
    """Random directed pairs (deduped and mirrored by the consumers)."""
    rng = np.random.default_rng(seed)
    sources = np.repeat(np.arange(num_nodes, dtype=np.int64), out_degree)
    targets = rng.integers(0, num_nodes, size=sources.size, dtype=np.int64)
    return np.stack([sources, targets], axis=1)


@pytest.fixture(scope="module")
def edges() -> np.ndarray:
    return _synthetic_edges(NUM_NODES, OUT_DEGREE)


@pytest.fixture(scope="module")
def big_graph(edges) -> Graph:
    graph = Graph(name=f"synthetic-{NUM_NODES}")
    for u, v in edges.tolist():
        if u != v:
            graph.add_edge(u, v)
    return graph


@pytest.fixture(scope="module")
def csr_backend(edges) -> CSRBackend:
    return CSRBackend.from_edges(edges, num_nodes=NUM_NODES, name="synthetic-csr")


@pytest.fixture(scope="module")
def sweep(big_graph):
    """Distinct node ids with degree >= 1, shared by every contender."""
    nodes = [node for node in big_graph.nodes() if big_graph.degree(node) > 0]
    return nodes[:SWEEP_NODES]


def _legacy_sweep(graph, nodes):
    api = build_api(graph, budget=QueryBudget(None), rate_limit=UnlimitedPolicy())
    query = api.query
    for node in nodes:
        query(node)
    return api.unique_queries


def _csr_batched_sweep(backend, nodes):
    api = build_api(backend)
    query_many = api.query_many
    for index in range(0, len(nodes), BATCH_SIZE):
        query_many(nodes[index:index + BATCH_SIZE])
    return api.unique_queries


def test_bench_legacy_single_query(benchmark, big_graph, sweep):
    unique = benchmark(_legacy_sweep, big_graph, sweep)
    assert unique == len(sweep)


def test_bench_csr_batched_query_many(benchmark, csr_backend, sweep):
    unique = benchmark(_csr_batched_sweep, csr_backend, sweep)
    assert unique == len(sweep)


def test_bench_stack_cache_hit_overhead(benchmark, big_graph):
    """Per-query cost of a cache hit through the full canonical stack."""
    from repro.api import twitter_policy

    api = build_api(big_graph, budget=10, rate_limit=twitter_policy())
    api.query(0)

    def hit_many():
        query = api.query
        for _ in range(10_000):
            query(0)
        return api.total_queries

    total = benchmark(hit_many)
    assert total >= 10_000


def test_bench_bare_backend_cache_hit(benchmark, big_graph):
    """Baseline for the overhead benchmark: cache layer over the backend only."""
    api = build_api(big_graph)
    api.query(0)

    def hit_many():
        query = api.query
        for _ in range(10_000):
            query(0)
        return api.total_queries

    total = benchmark(hit_many)
    assert total >= 10_000


def test_csr_batched_beats_legacy_single_query(big_graph, csr_backend, sweep):
    """Acceptance check: CSR + query_many outruns the legacy per-query path.

    Both contenders issue the same fresh unique queries over the same >=100k
    node graph; best-of-three wall-clock times are compared.
    """
    assert NUM_NODES >= 10_000
    assert len(sweep) >= NUM_NODES // 4

    def best_of(function, *args, repeats=3):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = function(*args)
            times.append(time.perf_counter() - started)
            assert result == len(sweep)
        return min(times)

    legacy_seconds = best_of(_legacy_sweep, big_graph, sweep)
    batched_seconds = best_of(_csr_batched_sweep, csr_backend, sweep)
    speedup = legacy_seconds / batched_seconds
    print(
        f"\nfresh sweep over {len(sweep)} of {NUM_NODES} nodes: "
        f"legacy {legacy_seconds * 1e3:.1f} ms, csr+query_many "
        f"{batched_seconds * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert batched_seconds < legacy_seconds, (
        f"expected the batched CSR path to beat the legacy single-query path "
        f"(legacy {legacy_seconds:.3f}s vs batched {batched_seconds:.3f}s)"
    )


@pytest.fixture(scope="module")
def miss_backends(big_graph, csr_backend, tmp_path_factory):
    snapshot = save_snapshot(csr_backend, tmp_path_factory.mktemp("miss-path") / "snap")
    return {
        "memory": InMemoryBackend(big_graph),
        "csr": csr_backend,
        "mmap": load_snapshot(snapshot),
    }


@pytest.mark.parametrize("kind", ["memory", "csr", "mmap"])
def test_scalar_miss_path_us(miss_backends, sweep, kind):
    """Microseconds per billed fetch: bare ``fetch`` and a fresh stacked ``query``.

    Every pass visits the same distinct nodes, the stacked pass on a new
    stack, so each query misses the cache and bills one unique query.  The
    two contenders alternate pass by pass and the fastest pass of each
    counts.  The difference is the middleware's share of a miss.
    """
    backend = miss_backends[kind]
    nodes = sweep[:MISS_NODES]

    def bare():
        fetch = backend.fetch
        started = time.perf_counter()
        for node in nodes:
            fetch(node)
        return time.perf_counter() - started

    def stacked():
        api = build_api(backend, budget=len(nodes))
        query = api.query
        started = time.perf_counter()
        for node in nodes:
            query(node)
        elapsed = time.perf_counter() - started
        assert api.unique_queries == len(nodes)
        return elapsed

    bare_s = stacked_s = float("inf")
    for _ in range(MISS_REPEATS):
        bare_s = min(bare_s, bare())
        stacked_s = min(stacked_s, stacked())
    fetch_us = bare_s * 1e6 / len(nodes)
    query_us = stacked_s * 1e6 / len(nodes)
    print(f"\n{kind}: fetch {fetch_us:.2f} us, fresh query {query_us:.2f} us "
          f"(middleware {query_us - fetch_us:.2f} us)")
    record_bench_result(
        f"api_stack.miss_path_us.{kind}",
        nodes=NUM_NODES,
        fresh_nodes=len(nodes),
        fetch_us=fetch_us,
        query_us=query_us,
        middleware_us=query_us - fetch_us,
    )
