"""The traced run: per-layer self times and the layer probes.

Everything is measured from outside ``repro``: wrappers time calls into
public classes and functions (``iter_layers`` layers, ``GraphBackend``
fetches, ``TransitionKernel.choose``/``observe``, the walk loops, the HTTP
client and ``ShardedBackend``), installed only for the traced phase and
removed afterwards.  Server time comes from the ``X-Repro-Span`` echo a
server sends back whenever a tracer is active, and request counts from
``GET /stats``.

A wrapper charges its elapsed time minus the time of nested wrapped calls
to its own layer, so each layer's figure is a self time, exactly like a
span's duration minus its children's.

:data:`CATALOG` names every per-layer metric with its unit, the end-to-end
metric it should move, and the workload that exercises it most — the
claim a later performance change states before it is measured.
"""

from __future__ import annotations

import json
import pickle
import shutil
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro
from repro import obs
from repro.api.middleware import iter_layers
from repro.api.remote import record_from_wire, record_to_wire
from repro.cluster.backend import cluster_from_urls
from repro.walks import kernels
from repro.warehouse import CrawlWarehouse
from repro.warehouse.backend import WarehouseBackend

from .common import KERNELS, ServerProcess, child_seed, percentile
from .inputs import Inputs
from .workloads import get_json

# ----------------------------------------------------------------------
# Catalog: name -> (unit, layer, should move, on)
# ----------------------------------------------------------------------
CATALOG: Dict[str, Tuple[str, str, str, str]] = {}


def _add(names, unit, layer, moves, on):
    for name in names:
        CATALOG[name] = (unit, layer, moves, on)


_add(["trace.walks_us_per_step"], "us", "walks", "steps_per_s", "this workload")
_add(["trace.loop_us_per_step"], "us", "walks/engine", "steps_per_s", "this workload")
_add(["trace.middleware_us_per_step"], "us", "api.middleware", "steps_per_s", "this workload")
_add(["trace.source_us_per_step"], "us", "api.backend/api.remote", "steps_per_s", "this workload")
_add(["trace.unattributed_pct"], "%", "(remainder)", "none", "this workload")
_add(["obs.traced_overhead_pct"], "%", "obs", "none (cost of tracing)", "this workload")
_add(["middleware.cache_hit_ratio", "middleware.unique_per_step"], "ratio", "api.middleware",
     "queries_per_s", "this workload")
_add([f"walks.transition_us.{k}" for k in KERNELS], "us", "walks",
     "steps_per_s", "ensemble-revisit; crawl-fresh")
_add(["walks.loop_us"], "us", "walks", "steps_per_s, job_p50_ms", "crawl-fresh")
_add(["middleware.cache.hit_us"], "us", "api.middleware", "steps_per_s", "ensemble-revisit")
_add(["middleware.cache.miss_us", "middleware.budget.query_us", "middleware.backend_api.query_us"],
     "us", "api.middleware", "steps_per_s, job_p50_ms", "crawl-fresh")
_add(["middleware.query_many_us_per_node"], "us", "api.middleware", "steps_per_s",
     "ensemble-revisit; cluster-fanout")
_add([f"backend.fetch_us.{b}" for b in ("memory", "csr", "mmap", "replay", "warehouse")],
     "us", "api.backend/storage/warehouse", "steps_per_s (mmap)", "crawl-fresh; serve-mix")
_add(["backend.fetch_us_p99.mmap"], "us", "storage", "job_p90_ms", "crawl-fresh")
_add(["backend.fetch_many_us_per_node.mmap", "backend.fetch_many_us_per_node.warehouse"], "us",
     "storage/warehouse", "steps_per_s", "serve-mix")
_add(["storage.snapshot_open_ms"], "ms", "storage", "setup_s", "crawl-fresh")
_add(["warehouse.ingest_us_per_node"], "us", "warehouse", "none (write path beside reads)",
     "crawl-fresh")
_add(["scheduler.round_us"], "us", "engine", "steps_per_s, job_p50_ms", "ensemble-revisit")
_add(["scheduler.fetch_share", "scheduler.frontier_dedupe_ratio"], "ratio", "engine",
     "steps_per_s", "ensemble-revisit; cluster-fanout")
_add([f"vector.round_us.{k}" for k in ("srw", "mhrw", "nbsrw", "cnrw")], "us", "engine",
     "steps_per_s", "ensemble-revisit")
_add(["estimation.estimate_us"], "us", "estimation", "job_p50_ms", "crawl-fresh")
_add([f"client.request_us.{e}" for e in ("node", "nodes", "meta", "walk")], "us", "api.remote",
     "job_p50_ms", "serve-mix")
_add([f"client.transport_us.{e}" for e in ("node", "nodes")], "us", "api.remote",
     "job_p50_ms, steps_per_s", "serve-mix")
_add(["codec.encode_us_per_record", "codec.decode_us_per_record"], "us", "api.remote/server.wire",
     "job_p50_ms", "serve-mix; cluster-fanout")
_add(["codec.bytes_per_record"], "B", "api.remote", "job_p50_ms", "serve-mix")
_add([f"server.handle_us.{e}" for e in ("node", "nodes", "meta", "walk")], "us", "server",
     "job_p50_ms", "serve-mix")
_add(["server.walk_us_per_step"], "us", "server", "job_p50_ms", "serve-mix")
_add(["server.requests_per_client_request"], "ratio", "server", "queries_per_s", "serve-mix")
_add([f"frontend.{f}.node_get_{q}_us.c{c}" for f in ("threaded", "async")
      for q in ("p50", "p99") for c in (1, 2)], "us", "server",
     "job_p50_ms (threaded rows: which frontend to keep)", "serve-mix")
_add(["cluster.fetch_many_us", "cluster.shard_fetch_many_us.0", "cluster.shard_fetch_many_us.1",
      "cluster.fanout_overhead_us", "cluster.route_us"], "us", "cluster",
     "job_p50_ms, steps_per_s", "cluster-fanout")
_add(["cluster.subbatches_per_batch"], "ratio", "cluster", "steps_per_s", "cluster-fanout")


# ----------------------------------------------------------------------
# Self-time instrumentation
# ----------------------------------------------------------------------
_MISSING = object()


class Instrument:
    """Install timing wrappers; accumulate self time per layer name."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._tables: List[Tuple[Dict[str, float], Dict[str, int]]] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _state(self):
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = ([], defaultdict(float), defaultdict(int))
            with self._lock:
                self._tables.append((state[1], state[2]))
        return state

    def timed(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        instrument = self

        def wrapper(*args, **kwargs):
            stack, self_time, calls = instrument._state()
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_time[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def patch(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (possibly inherited) until :meth:`restore`."""
        previous = cls.__dict__.get(attr, _MISSING)
        setattr(cls, attr, self.timed(name, getattr(cls, attr)))
        self._patches.append((cls, attr, previous))

    def restore(self) -> None:
        for cls, attr, previous in reversed(self._patches):
            if previous is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, previous)
        self._patches.clear()

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        with self._lock:
            for table, counts in self._tables:
                for key, value in table.items():
                    seconds[key] += value
                for key, value in counts.items():
                    calls[key] += value
        return seconds, calls

    def reset(self) -> None:
        with self._lock:
            for table, counts in self._tables:
                table.clear()
                counts.clear()

    def install_layers(self) -> None:
        """Wrap every layer of the canonical stack, the kernels and walk loops."""
        probe = repro.build_api(repro.CSRBackend.from_edges([(0, 1)]), budget=1)
        for layer in iter_layers(probe):
            cls = type(layer)
            name = "middleware." + {"CacheLayer": "cache", "BudgetLayer": "budget",
                                    "BackendAPI": "backend_api"}.get(cls.__name__, cls.__name__)
            self.patch(cls, "query", name)
            self.patch(cls, "query_many", name)
        for cls in (kernels.TransitionKernel, kernels.SRWKernel, kernels.WeightedChoiceKernel,
                    kernels.MHRWKernel, kernels.NBSRWKernel, kernels.CNRWKernel,
                    kernels.GNRWKernel, kernels.NBCNRWKernel):
            for attr in ("choose", "observe"):
                if attr in cls.__dict__:
                    self.patch(cls, attr, "walks")
        self.patch(repro.RandomWalk, "run", "loop")
        self.patch(repro.WalkScheduler, "run", "loop")
        self.patch(repro.VectorScheduler, "run", "loop")
        self.patch(repro.SamplingSession, "estimate", "estimation")
        for cls in (repro.InMemoryBackend, repro.CSRBackend):
            self.patch(cls, "fetch", "source")
            self.patch(cls, "fetch_many", "source")
        for attr in ("fetch", "fetch_many", "remote_walk", "metadata", "begin_fetch_many",
                     "end_fetch_many"):
            self.patch(repro.HTTPGraphBackend, attr, "source")
        self.patch(repro.ShardedBackend, "fetch_many", "cluster")


@contextmanager
def installed():
    instrument = Instrument()
    instrument.install_layers()
    try:
        yield instrument
    finally:
        instrument.restore()


def server_ms(tracer) -> float:
    """Total milliseconds the servers reported in ``X-Repro-Span`` echoes."""
    return sum(span.duration_ms or 0.0 for span in tracer.spans() if span.kind == "server")


def layer_rows(seconds: Dict[str, float], steps: int, job_seconds: float,
               echoed_ms: float) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-step self times of the workload's own traced phase.

    Returns the catalog rows and the extra table-only rows (layers that
    only some workloads cross: estimation, cluster fan-out, server and
    client transport split by the ``X-Repro-Span`` echo).
    """
    per_step = 1e6 / max(1, steps)
    middleware = sum(v for k, v in seconds.items() if k.startswith("middleware."))
    source = seconds.get("source", 0.0) + seconds.get("cluster", 0.0)
    rows = {
        "trace.walks_us_per_step": seconds.get("walks", 0.0) * per_step,
        "trace.loop_us_per_step": seconds.get("loop", 0.0) * per_step,
        "trace.middleware_us_per_step": middleware * per_step,
        "trace.source_us_per_step": source * per_step,
        "trace.unattributed_pct": 100.0 * (job_seconds - sum(seconds.values())) / job_seconds,
    }
    server = echoed_ms * 1e-3 * per_step
    extra = {
        "trace.estimation_us_per_step": seconds.get("estimation", 0.0) * per_step,
        "trace.cluster_self_us_per_step": seconds.get("cluster", 0.0) * per_step,
        "trace.server_us_per_step": server,
        "trace.transport_us_per_step": seconds.get("source", 0.0) * per_step - server if server else 0.0,
    }
    return rows, extra


# ----------------------------------------------------------------------
# Probes: one fixed-size measurement per layer, shared by every workload
# ----------------------------------------------------------------------
def _timed_calls(fn: Callable, items: Sequence) -> List[float]:
    clock = time.perf_counter
    samples = []
    for item in items:
        started = clock()
        fn(item)
        samples.append((clock() - started) * 1e6)
    return samples


def _p50(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def probe_storage(inputs: Inputs, seed: int, workdir) -> Tuple[Dict[str, float], List[int]]:
    """Backend fetch gap over one replayed crawl-fresh fetch sequence."""
    out: Dict[str, float] = {}
    mmap = repro.load_snapshot(inputs.plc_snapshot)
    budget = min(2000, len(mmap) // 4)
    session = repro.SamplingSession(mmap).budget(budget).trace().walker("srw", seed=child_seed(seed, 20))
    start = int(np.random.default_rng(child_seed(seed, 21)).integers(len(mmap)))
    session.run(start=start, max_steps=None)
    sequence = list(session.query_trace.fresh_nodes)
    dump = session.dump_crawl(workdir / "crawl.jsonl")

    started = time.perf_counter()
    with CrawlWarehouse.create(workdir / "crawl.sqlite") as warehouse:
        report = warehouse.ingest(dump)
    out["warehouse.ingest_us_per_node"] = (time.perf_counter() - started) * 1e6 / report.records

    opens = []
    for _ in range(7):
        started = time.perf_counter()
        repro.load_snapshot(inputs.plc_snapshot)
        opens.append((time.perf_counter() - started) * 1e3)
    out["storage.snapshot_open_ms"] = statistics.median(opens)

    with open(inputs.plc_graph, "rb") as handle:
        graph = pickle.load(handle)
    makers = {
        "memory": lambda: repro.InMemoryBackend(graph),
        "csr": lambda: repro.load_snapshot(inputs.plc_snapshot, mmap=False),
        "mmap": lambda: repro.load_snapshot(inputs.plc_snapshot),
        "replay": lambda: repro.load_crawl(dump),
        "warehouse": lambda: WarehouseBackend.open(workdir / "crawl.sqlite"),
    }
    for kind, make in makers.items():
        backend = make()
        backend.fetch(sequence[0])  # first-touch work (file opens) is set-up
        samples = _timed_calls(backend.fetch, sequence)
        out[f"backend.fetch_us.{kind}"] = _p50(samples)
        if kind == "mmap":
            out["backend.fetch_us_p99.mmap"] = percentile(samples, 99)
        if kind in ("mmap", "warehouse"):
            backend = make()
            batches = [sequence[i:i + 16] for i in range(0, len(sequence) - 15, 16)]
            per_node = [s / 16 for s in _timed_calls(backend.fetch_many, batches)]
            out[f"backend.fetch_many_us_per_node.{kind}"] = _p50(per_node)
        backend.close()
    del graph
    return out, sequence


def probe_walks(inputs: Inputs, seed: int, sequence: List[int]) -> Dict[str, float]:
    """Kernel choose+observe on replayed views, the walk loop and middleware."""
    out: Dict[str, float] = {}
    mmap = repro.load_snapshot(inputs.plc_snapshot)
    steps = 1500
    for kernel in KERNELS:
        api = repro.build_api(mmap)
        walker = repro.make_walker(kernel, api=api, seed=child_seed(seed, 22))
        walker.start(sequence[0])
        state, rng, rule = walker.state, walker.rng, walker.kernel
        clock = time.perf_counter
        samples = []
        for _ in range(steps):
            view = api.query(state.current)  # cached after the first visit
            started = clock()
            target = rule.choose(state, view, rng)
            rule.observe(state, target, view)
            samples.append((clock() - started) * 1e6)
            state.advance(target)
        out[f"walks.transition_us.{kernel}"] = _p50(samples)

    with installed() as instrument:
        # Walk loop: one crawl whose every query is a cache hit after warm-up.
        api = repro.build_api(mmap)
        walker = repro.make_walker("srw", api=api, seed=child_seed(seed, 23))
        walker.run(sequence[0], max_steps=steps)
        instrument.reset()
        walker.run(sequence[0], max_steps=steps)
        seconds, _ = instrument.totals()
        out["walks.loop_us"] = seconds["loop"] * 1e6 / steps

        # Middleware: a fresh budgeted stack, every query a miss, then hits.
        api = repro.build_api(mmap, budget=len(sequence) + 1)
        instrument.reset()
        for node in sequence:
            api.query(node)
        seconds, calls = instrument.totals()
        out["middleware.cache.miss_us"] = seconds["middleware.cache"] * 1e6 / calls["middleware.cache"]
        out["middleware.budget.query_us"] = seconds["middleware.budget"] * 1e6 / calls["middleware.budget"]
        out["middleware.backend_api.query_us"] = (
            seconds["middleware.backend_api"] * 1e6 / calls["middleware.backend_api"])
        instrument.reset()
        for node in sequence:
            api.query(node)
        seconds, calls = instrument.totals()
        out["middleware.cache.hit_us"] = seconds["middleware.cache"] * 1e6 / calls["middleware.cache"]

        api = repro.build_api(mmap, budget=len(sequence) + 1)
        instrument.reset()
        for i in range(0, len(sequence) - 15, 16):
            api.query_many(sequence[i:i + 16])
        seconds, _ = instrument.totals()
        middleware = sum(v for k, v in seconds.items() if k.startswith("middleware."))
        out["middleware.query_many_us_per_node"] = middleware * 1e6 / (len(sequence) // 16 * 16)

        # Estimation over one crawl's samples.
        session = repro.SamplingSession(mmap).budget(300).walker("srw", seed=child_seed(seed, 24))
        result = session.run(start=sequence[0], max_steps=None)
        query = repro.AggregateQuery.average_degree()
        estimates = _timed_calls(lambda _: session.estimate(query, result=result), range(20))
        out["estimation.estimate_us"] = _p50(estimates)

        # Scalar scheduler: one 16-walker CNRW ensemble on facebook_like.
        fb = repro.load_snapshot(inputs.fb_snapshot, mmap=False)
        live = np.flatnonzero(np.diff(np.asarray(fb.indptr)) > 0)
        starts = [int(n) for n in np.random.default_rng(child_seed(seed, 25)).choice(live, 16)]
        session = repro.SamplingSession(fb).walker("cnrw", seed=child_seed(seed, 26))
        lookups = 0
        original = session.api.query_many

        def counted(nodes):
            nonlocal lookups
            nodes = list(nodes)
            lookups += len(nodes)
            return original(nodes)

        session.api.query_many = counted
        rounds = 300
        instrument.reset()
        started = time.perf_counter()
        session.run_ensemble(16, steps=rounds, starts=starts)
        elapsed = time.perf_counter() - started
        seconds, _ = instrument.totals()
        fetch = sum(v for k, v in seconds.items() if k.startswith("middleware.")) + seconds["source"]
        out["scheduler.round_us"] = elapsed * 1e6 / rounds
        out["scheduler.fetch_share"] = fetch / elapsed
        out["scheduler.frontier_dedupe_ratio"] = 1.0 - lookups / (16 * (rounds + 1))

    for kernel in ("srw", "mhrw", "nbsrw", "cnrw"):
        scheduler = repro.VectorScheduler(repro.build_api(fb))
        vector_starts = [int(n) for n in np.random.default_rng(child_seed(seed, 27)).choice(live, 1000)]
        started = time.perf_counter()
        scheduler.run(kernel, vector_starts, steps=50, seed=child_seed(seed, 28))
        out[f"vector.round_us.{kernel}"] = (time.perf_counter() - started) * 1e6 / 50
    return out


def _get_latencies(url: str, nodes: Sequence[int], connections: int) -> List[float]:
    samples: List[List[float]] = [[] for _ in range(connections)]

    def drive(conn: int) -> None:
        client = repro.HTTPGraphBackend(url)
        try:
            client.fetch(nodes[0])
            samples[conn] = _timed_calls(client.fetch, nodes)
        finally:
            client.close()

    threads = [threading.Thread(target=drive, args=(c,)) for c in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [s for per_conn in samples for s in per_conn]


def probe_served(inputs: Inputs, seed: int, sequence: List[int]) -> Dict[str, float]:
    """Client, codec and server split of one async server; frontend gap."""
    out: Dict[str, float] = {}
    nodes = sequence[:400]
    mmap = repro.load_snapshot(inputs.plc_snapshot)

    records = mmap.fetch_many(sequence[:256])
    clock = time.perf_counter
    encode, decode, sizes = [], [], []
    for i in range(0, len(records) - 15, 16):
        batch = records[i:i + 16]
        started = clock()
        body = json.dumps({"records": [record_to_wire(r) for r in batch]}).encode("utf-8")
        encode.append((clock() - started) * 1e6 / 16)
        started = clock()
        [record_from_wire(r) for r in json.loads(body.decode("utf-8"))["records"]]
        decode.append((clock() - started) * 1e6 / 16)
        sizes.append(len(body) / 16)
    out["codec.encode_us_per_record"] = _p50(encode)
    out["codec.decode_us_per_record"] = _p50(decode)
    out["codec.bytes_per_record"] = float(np.mean(sizes))

    for frontend, flags in (("async", ["--async"]), ("threaded", [])):
        server = ServerProcess(["serve", *flags, "--source", str(inputs.plc_snapshot), "--port", "0"])
        try:
            for connections in (1, 2):
                samples = _get_latencies(server.url, nodes, connections)
                out[f"frontend.{frontend}.node_get_p50_us.c{connections}"] = percentile(samples, 50)
                out[f"frontend.{frontend}.node_get_p99_us.c{connections}"] = percentile(samples, 99)
            if frontend != "async":
                continue
            before = get_json(server.url, "/stats")["endpoints"]
            client = repro.HTTPGraphBackend(server.url)
            tracer = obs.Tracer()
            sent = 0
            with obs.use_tracer(tracer):
                for endpoint, call, items in (
                    ("node", client.fetch, nodes),
                    ("nodes", client.fetch_many, [sequence[i:i + 16] for i in range(0, 960, 16)]),
                    ("meta", client.metadata, sequence[400:700]),
                    ("walk", lambda s: client.remote_walk("cnrw", s, seed=seed, steps=1000),
                     sequence[:8]),
                ):
                    tracer.clear()
                    samples = _timed_calls(call, items)
                    # Eight walks: a mean, like the server side, not a p50.
                    out[f"client.request_us.{endpoint}"] = (
                        float(np.mean(samples)) if endpoint == "walk" else _p50(samples))
                    sent += len(items)
                    spans = tracer.spans()
                    server_ms = {s.parent_id: s.duration_ms for s in spans if s.kind == "server"}
                    # Echoes carry whole microseconds: a mean keeps the
                    # figure from reading identically run after run.
                    out[f"server.handle_us.{endpoint}"] = float(np.mean(list(server_ms.values()))) * 1e3
                    if endpoint in ("node", "nodes"):
                        transport = [s.duration_ms * 1e3 - server_ms[s.span_id] * 1e3
                                     for s in spans if s.name == "client.request" and s.span_id in server_ms]
                        out[f"client.transport_us.{endpoint}"] = _p50(transport)
            out["server.walk_us_per_step"] = out["server.handle_us.walk"] / 1000
            client.close()
            after = get_json(server.url, "/stats")["endpoints"]
            served = sum(after.get(e, 0) - before.get(e, 0) for e in ("/node", "/nodes", "/meta", "/walk"))
            out["server.requests_per_client_request"] = served / sent
        finally:
            server.stop()
    return out


def probe_cluster(inputs: Inputs, seed: int, sequence: List[int]) -> Dict[str, float]:
    """Sharded fan-out: whole batch vs each shard's sub-batch; routing."""
    out: Dict[str, float] = {}
    ring = repro.HashRing(2)
    route = _timed_calls(lambda n: ring.shards_of(n, 2), sequence)
    out["cluster.route_us"] = _p50(route)

    server = ServerProcess(["serve-cluster", "--source", str(inputs.plc_cluster), "--port", "0"],
                           banners=2)
    try:
        cluster = cluster_from_urls(server.urls, replicas=2)
        labels = {url: index for index, url in enumerate(server.urls)}
        batches = [sequence[i:i + 16] for i in range(0, min(len(sequence), 1600) - 15, 16)]
        cluster.fetch_many(batches[0])
        tracer = obs.Tracer()
        totals, shards, overhead, subbatches = [], defaultdict(list), [], []
        with obs.use_tracer(tracer):
            for batch in batches:
                with tracer.span("bench.batch") as scope:
                    started = time.perf_counter()
                    cluster.fetch_many(batch)
                    totals.append((time.perf_counter() - started) * 1e6)
                del scope
        spans = tracer.spans()
        roots = [s for s in spans if s.name == "bench.batch"]
        children = defaultdict(list)
        for span in spans:
            if span.name == "shard.fetch":
                children[span.parent_id].append(span)
        for root, total in zip(roots, totals):
            parts = children.get(root.span_id, [])
            subbatches.append(max(1, len(parts)))
            if len(parts) > 1:
                for part in parts:
                    shards[labels.get(part.tags.get("shard"), 0)].append(part.duration_ms * 1e3)
                overhead.append(total - max(part.duration_ms * 1e3 for part in parts))
        out["cluster.fetch_many_us"] = _p50(totals)
        for index in (0, 1):
            out[f"cluster.shard_fetch_many_us.{index}"] = _p50(shards[index])
        out["cluster.fanout_overhead_us"] = _p50(overhead)
        out["cluster.subbatches_per_batch"] = float(np.mean(subbatches))
        cluster.close()
    finally:
        server.stop()
    return out


def run_probes(inputs: Inputs, seed: int) -> Dict[str, float]:
    workdir = inputs.root.parent / f".probe-{inputs.root.name}-{seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        storage, sequence = probe_storage(inputs, seed, workdir)
        out = dict(storage)
        out.update(probe_walks(inputs, seed, sequence))
        out.update(probe_served(inputs, seed, sequence))
        out.update(probe_cluster(inputs, seed, sequence))
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
