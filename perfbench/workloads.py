"""The four benchmark workloads.

Each workload is a deterministic sequence of *jobs* (job ``i`` is fully
described by ``spec(i)``, a pure function of the run seed), run closed-loop
on one or two connections until the measuring window closes.  After the
window every job is checked, and a local *reference* pass re-executes job
specs through a :class:`CountingBackend` to check served results and to
derive the workload-property counts, which therefore repeat exactly at a
fixed seed no matter how many jobs the window fitted.

=================  ===========================================================
crawl-fresh        budget-bound single-walker crawls + ``estimate`` over a
                   100k-node mmap snapshot; ~90% of steps miss the cache.
ensemble-revisit   rounds of 16-walker scalar and 1000-walker vector
                   ensembles on ``facebook_like`` (775 nodes) in RAM CSR;
                   the crawl dwarfs the graph, so nearly every visit hits.
serve-mix          2 closed-loop connections to ``serve --async --tenants``;
                   each cycle is a client-driven crawl, a 16-walker
                   ``POST /nodes`` ensemble and a ``POST /walk``.
cluster-fanout     16-walker CNRW ensembles through ``ShardedBackend`` over a
                   2-shard, 2-replica ``serve-cluster`` subprocess.
=================  ===========================================================
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import urllib.parse
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

import repro
from repro.api.backend import GraphBackend
from repro.api.remote import record_to_wire
from repro.cluster.backend import cluster_from_urls

from .common import (
    KERNELS,
    UNIFORM_KERNELS,
    BusyClock,
    ReferenceClock,
    ServerProcess,
    child_seed,
    median,
    relative_error,
)
from .inputs import Inputs


# ----------------------------------------------------------------------
# Counting backend (reference passes only; never on a measured path)
# ----------------------------------------------------------------------
class CountingBackend(GraphBackend):
    """Delegate to a local backend, recording every source call."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = f"counting:{inner.name}"
        self.fetched: List[Any] = []
        self.singles = 0
        self.batches = 0
        self.peeked: set = set()

    @property
    def calls(self) -> int:
        return self.singles + self.batches

    def fetch(self, node):
        self.singles += 1
        self.fetched.append(node)
        return self.inner.fetch(node)

    def fetch_many(self, nodes):
        nodes = list(nodes)
        if nodes:
            self.batches += 1
            self.fetched.extend(nodes)
        return self.inner.fetch_many(nodes)

    def contains(self, node):
        self.peeked.add(node)
        return self.inner.contains(node)

    def metadata(self, node):
        self.peeked.add(node)
        return self.inner.metadata(node)

    def node_ids(self):
        return self.inner.node_ids()

    def sample_node(self, rng):
        return self.inner.sample_node(rng)

    def __len__(self):
        return len(self.inner)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one walk-level operation inside a job produced."""

    kind: str
    walkers: int
    steps: int
    unique: int
    total: int
    fingerprint: Any = None
    estimate: Optional[float] = None
    stopped_by_budget: bool = False

    @property
    def visits(self) -> int:
        """Node visits: every walker's start plus one per step."""
        return self.walkers + self.steps


@dataclass
class JobRecord:
    """One job: wall-clock and busy-clock (:class:`BusyClock`) start and end."""

    index: int
    conn: int
    started: float
    finished: float
    busy_started: float = 0.0
    busy_finished: float = 0.0
    #: Job time in seconds of the reference core (set by ``run_window``).
    latency: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)
    error: Optional[str] = None
    failed_checks: int = 0

    @property
    def seconds(self) -> float:
        return self.finished - self.started

    @property
    def steps(self) -> int:
        return sum(outcome.steps for outcome in self.outcomes)

    @property
    def unique(self) -> int:
        return sum(outcome.unique for outcome in self.outcomes)


def _fingerprint(results) -> tuple:
    return tuple(repro.walk_fingerprint(result.path) for result in results)


def _estimate(session, results, kernel: str) -> float:
    query = repro.AggregateQuery.average_degree()
    return float(session.estimate(query, result=results,
                                  uniform_samples=kernel in UNIFORM_KERNELS).value)


def _ensemble_steps(results) -> int:
    return sum(result.steps for result in results)


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------
class Workload:
    """A seeded job sequence with setup, a measured loop and checks."""

    name = "workload"
    connections = 1
    #: Jobs whose reference pass yields the workload-property counts.
    property_jobs = 6

    def __init__(self, inputs: Inputs, seed: int) -> None:
        self.inputs = inputs
        self.seed = seed
        self.order = [KERNELS[i] for i in np.random.default_rng(child_seed(seed, 1)).permutation(len(KERNELS))]
        #: Called with every fresh session (the property pass counts lookups).
        self.on_session: Optional[Callable[[Any], None]] = None
        #: Test hook: perturb each reference outcome (a wrong reference).
        self.corrupt_reference = False

    # -- lifecycle -------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def peak_rss_servers_mb(self) -> float:
        return 0.0

    def server_pids(self) -> List[int]:
        return []

    def begin_checks(self) -> None:
        pass

    # -- jobs ------------------------------------------------------------
    def starts(self, index: int, count: int, nodes: int, salt: int = 0) -> List[int]:
        rng = np.random.default_rng(child_seed(self.seed, 2, index, salt))
        return [int(node) for node in rng.integers(0, nodes, size=count)]

    def run_job(self, index: int, conn: int) -> List[Outcome]:
        raise NotImplementedError

    def reference(self, index: int, counter: Optional[CountingBackend]) -> List[Outcome]:
        """Re-execute job ``index`` locally (``counter`` wraps the source)."""
        raise NotImplementedError

    def check(self, record: JobRecord) -> int:
        """Number of failed checks of one measured job (0 = correct)."""
        failed = 0
        for outcome in record.outcomes:
            if outcome.estimate is not None and not math.isfinite(outcome.estimate):
                failed += 1
        return failed

    def session(self, source, budget=None):
        session = repro.SamplingSession(source)
        if budget is not None:
            session.budget(budget)
        if self.on_session is not None:
            self.on_session(session)
        return session

    # -- shared helpers --------------------------------------------------
    def _compare(self, measured: Sequence[Outcome], reference: Sequence[Outcome]) -> int:
        failed = 0
        for got, want in zip(measured, reference):
            if self.corrupt_reference:
                want = Outcome(want.kind, want.walkers, want.steps,
                               want.unique + 1, want.total, ("corrupt", want.fingerprint))
            if (got.fingerprint, got.unique, got.total) != (want.fingerprint, want.unique, want.total):
                failed += 1
        failed += abs(len(measured) - len(reference))
        return failed

    @property
    def hub_degree(self) -> int:
        return self.inputs.plc_hub_degree

    @property
    def truth(self) -> float:
        return self.inputs.plc_truth


# ----------------------------------------------------------------------
# crawl-fresh
# ----------------------------------------------------------------------
class CrawlFresh(Workload):
    name = "crawl-fresh"
    budget = 300
    property_jobs = 12  # two passes over the six kernels

    def setup(self) -> None:
        self.backend = repro.load_snapshot(self.inputs.plc_snapshot)
        self.nodes = len(self.backend)

    def _crawl(self, index: int, source) -> List[Outcome]:
        kernel = self.order[index % len(self.order)]
        seed = child_seed(self.seed, 3, index)
        (start,) = self.starts(index, 1, self.nodes)
        session = self.session(source, budget=self.budget).walker(kernel, seed=seed)
        result = session.run(start=start, max_steps=None)
        estimate = _estimate(session, result, kernel)
        return [Outcome("crawl", 1, result.steps, result.unique_queries,
                        result.total_queries, _fingerprint([result])[0], estimate,
                        result.stopped_by_budget)]

    def run_job(self, index: int, conn: int) -> List[Outcome]:
        return self._crawl(index, self.backend)

    def reference(self, index, counter):
        return self._crawl(index, self.backend if counter is None else counter)

    def check(self, record: JobRecord) -> int:
        failed = super().check(record)
        for outcome in record.outcomes:
            if outcome.unique != self.budget or not outcome.stopped_by_budget:
                failed += 1
        if self.corrupt_reference:
            failed += self._compare(record.outcomes, self.reference(record.index, None))
        return failed


# ----------------------------------------------------------------------
# ensemble-revisit
# ----------------------------------------------------------------------
class EnsembleRevisit(Workload):
    name = "ensemble-revisit"
    scalar_walkers, scalar_steps = 16, 200
    vector_walkers, vector_steps = 1000, 40
    property_jobs = 4

    def setup(self) -> None:
        self.backend = repro.load_snapshot(self.inputs.fb_snapshot, mmap=False)
        self.nodes = len(self.backend)
        self.degrees = np.diff(np.asarray(self.backend.indptr))
        self.live = np.flatnonzero(self.degrees > 0)

    @property
    def hub_degree(self) -> int:
        return self.inputs.fb_hub_degree

    @property
    def truth(self) -> float:
        return self.inputs.fb_truth

    def _starts(self, index: int, count: int, salt: int) -> List[int]:
        picks = self.starts(index, count, len(self.live), salt)
        return [int(self.live[pick]) for pick in picks]

    def _scalar(self, index: int, kernel: str, salt: int, source) -> Outcome:
        seed = child_seed(self.seed, 4, index, salt)
        session = self.session(source).walker(kernel, seed=seed)
        results = session.run_ensemble(self.scalar_walkers, steps=self.scalar_steps,
                                       starts=self._starts(index, self.scalar_walkers, salt))
        return Outcome("scalar", self.scalar_walkers, _ensemble_steps(results), session.unique_queries,
                       session.total_queries, _fingerprint(results),
                       _estimate(session, results, kernel))

    def _vector(self, index: int, kernel: str, salt: int) -> Outcome:
        seed = child_seed(self.seed, 5, index, salt)
        api = repro.build_api(self.backend)
        scheduler = repro.VectorScheduler(api)
        result = scheduler.run(kernel, self._starts(index, self.vector_walkers, salt),
                               steps=self.vector_steps, seed=seed)
        # SRW/CNRW visit nodes proportionally to degree: the reweighted
        # (harmonic-mean) estimator of the average degree.
        visited = self.degrees[result.paths.ravel()]
        estimate = float(visited.size / np.sum(1.0 / visited))
        return Outcome("vector", result.num_walkers, result.steps * result.num_walkers,
                       result.unique_queries, result.total_queries,
                       result.fingerprint(), estimate)

    def _round(self, index: int, source) -> List[Outcome]:
        return [
            self._scalar(index, "srw", 0, source),
            self._scalar(index, "cnrw", 1, source),
            self._vector(index, "srw", 2),
            self._vector(index, "cnrw", 3),
        ]

    def run_job(self, index: int, conn: int) -> List[Outcome]:
        return self._round(index, self.backend)

    def reference(self, index, counter):
        return self._round(index, self.backend if counter is None else counter)

    def check(self, record: JobRecord) -> int:
        failed = super().check(record)
        for outcome in record.outcomes:
            walkers = self.scalar_walkers if outcome.kind == "scalar" else self.vector_walkers
            steps = self.scalar_steps if outcome.kind == "scalar" else self.vector_steps
            if outcome.walkers != walkers or outcome.steps != walkers * steps or not 0 < outcome.unique <= self.nodes:
                failed += 1
        if self.corrupt_reference:
            failed += self._compare(record.outcomes, self.reference(record.index, None))
        return failed


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------
class _Served(Workload):
    """Shared plumbing: a server subprocess, clients, local re-runs.

    Checking a served job re-runs it on the local snapshot through one
    :class:`CountingBackend` per connection, so the same pass also yields
    the requests per endpoint the client must have sent — compared against
    the server's ``GET /stats`` to expose retries.
    """

    def _local(self):
        if getattr(self, "_local_backend", None) is None:
            self._local_backend = repro.load_snapshot(self.inputs.plc_snapshot)
        return self._local_backend

    def begin_checks(self) -> None:
        self.counters = {conn: CountingBackend(self._local()) for conn in range(self.connections)}
        self.expected = {"/node": 0, "/nodes": 0, "/walk": 0}

    def check(self, record: JobRecord) -> int:
        failed = super().check(record)
        counter = self.counters[record.conn]
        singles, batches = counter.singles, counter.batches
        reference = self.reference(record.index, counter)
        self.expected["/node"] += counter.singles - singles
        self.expected["/nodes"] += counter.batches - batches
        self.expected["/walk"] += sum(outcome.kind == "walk" for outcome in record.outcomes)
        return failed + self._compare(record.outcomes, reference)

    def requests(self) -> Dict[str, Dict[str, int]]:
        """Client-expected vs server-counted requests per walk endpoint."""
        expected = dict(self.expected)
        # Each client keeps its own /meta cache: one request per distinct
        # node that connection ever peeked at.
        expected["/meta"] = sum(len(counter.peeked) for counter in self.counters.values())
        served = self.stats()
        return {
            endpoint: {"client": expected[endpoint],
                       "server": served.get(endpoint, 0) - self.baseline.get(endpoint, 0)}
            for endpoint in ("/node", "/nodes", "/meta", "/walk")
        }

    def stats(self) -> Dict[str, int]:
        """Per-endpoint request totals from every server's ``GET /stats``."""
        totals: Dict[str, int] = {}
        for url in self.server.urls:
            for key, value in get_json(url, "/stats", self.stats_key)["endpoints"].items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    stats_key: Optional[str] = None

    def peak_rss_servers_mb(self) -> float:
        return self.server.peak_rss_mb() if getattr(self, "server", None) else 0.0

    def server_pids(self) -> List[int]:
        return [self.server.pid] if getattr(self, "server", None) else []


def get_json(url: str, path: str, api_key: Optional[str] = None) -> Any:
    """One plain ``GET`` against a graph service (a fresh connection)."""
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        connection.request("GET", path, headers={"X-Api-Key": api_key} if api_key else {})
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} returned HTTP {response.status}")
        return json.loads(body)
    finally:
        connection.close()


class ServeMix(_Served):
    name = "serve-mix"
    connections = 2
    stats_key = "key-0"
    crawl_budget = 60
    ensemble_walkers, ensemble_steps = 16, 12
    walk_steps = 1500

    def setup(self) -> None:
        self.server = ServerProcess([
            "serve", "--async", "--tenants", str(self.inputs.tenants),
            "--source", str(self.inputs.plc_snapshot), "--port", "0",
        ])
        self.clients = [
            repro.HTTPGraphBackend(self.server.url, api_key=f"key-{conn}")
            for conn in range(self.connections)
        ]
        for client in self.clients:
            client.info()
        self.nodes = len(self.clients[0])

    def after_warm_up(self) -> None:
        # Fresh clients (empty /meta caches) so the expected request counts
        # of the measured jobs start from zero, like the server baseline.
        for client in self.clients:
            client.close()
        self.clients = [
            repro.HTTPGraphBackend(self.server.url, api_key=f"key-{conn}")
            for conn in range(self.connections)
        ]
        for client in self.clients:
            client.info()
        self.baseline = self.stats()

    def teardown(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None

    def _cycle(self, index: int, source, walk: Callable[..., Dict[str, Any]]) -> List[Outcome]:
        # One kernel per cycle for the crawl and the walk, and the ensemble
        # kernel alternating per pass over the kernel order: every seed
        # runs the same mix of cycle shapes, only in a different order.
        crawl_kernel = walk_kernel = self.order[index % len(self.order)]
        ensemble_kernel = ("srw", "cnrw")[index // len(self.order) % 2]
        (crawl_start, walk_start) = self.starts(index, 2, self.nodes)
        crawl_seed, ensemble_seed, walk_seed = (child_seed(self.seed, 6, index, k) for k in range(3))

        session = self.session(source, budget=self.crawl_budget).walker(crawl_kernel, seed=crawl_seed)
        result = session.run(start=crawl_start, max_steps=None)
        outcomes = [Outcome("crawl", 1, result.steps, result.unique_queries,
                            result.total_queries, _fingerprint([result])[0],
                            _estimate(session, result, crawl_kernel))]

        session = self.session(source).walker(ensemble_kernel, seed=ensemble_seed)
        results = session.run_ensemble(
            self.ensemble_walkers, steps=self.ensemble_steps,
            starts=self.starts(index, self.ensemble_walkers, self.nodes, salt=1),
        )
        outcomes.append(Outcome("ensemble", self.ensemble_walkers, _ensemble_steps(results),
                                session.unique_queries, session.total_queries,
                                _fingerprint(results), _estimate(session, results, ensemble_kernel)))

        payload = walk(walk_kernel, walk_start, walk_seed)
        outcomes.append(Outcome("walk", 1, int(payload["steps"]),
                                int(payload["unique_queries"]), int(payload["total_queries"]),
                                payload["fingerprint"]))
        return outcomes

    def run_job(self, index: int, conn: int) -> List[Outcome]:
        client = self.clients[conn]

        def remote(kernel, start, seed):
            return client.remote_walk(kernel, start, seed=seed, steps=self.walk_steps)

        return self._cycle(index, client, remote)

    def reference(self, index, counter):
        source = self._local() if counter is None else counter

        def local(kernel, start, seed):
            # The server builds exactly this stack for POST /walk; its
            # fetches never cross the wire, so they are not counted.
            api = repro.build_api(self._local(), budget=10 ** 12)
            result = repro.make_walker(kernel, api=api, seed=seed).run(start, max_steps=self.walk_steps)
            return {"steps": result.steps, "unique_queries": result.unique_queries,
                    "total_queries": result.total_queries,
                    "fingerprint": repro.walk_fingerprint(result.path)}

        return self._cycle(index, source, local)


class ClusterFanout(_Served):
    name = "cluster-fanout"
    walkers, steps = 16, 30
    property_jobs = 8

    def setup(self) -> None:
        self.server = ServerProcess(
            ["serve-cluster", "--source", str(self.inputs.plc_cluster), "--port", "0"],
            banners=2,
        )
        self.cluster = cluster_from_urls(self.server.urls, replicas=2)
        self.nodes = len(self.cluster)

    def after_warm_up(self) -> None:
        self.baseline = self.stats()

    def teardown(self) -> None:
        if getattr(self, "cluster", None) is not None:
            self.cluster.close()
            self.cluster = None
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None

    def _ensemble(self, index: int, source) -> List[Outcome]:
        seed = child_seed(self.seed, 7, index)
        session = self.session(source).walker("cnrw", seed=seed)
        results = session.run_ensemble(self.walkers, steps=self.steps,
                                       starts=self.starts(index, self.walkers, self.nodes))
        return [Outcome("ensemble", self.walkers, _ensemble_steps(results), session.unique_queries,
                        session.total_queries, _fingerprint(results),
                        _estimate(session, results, "cnrw"))]

    def run_job(self, index: int, conn: int) -> List[Outcome]:
        return self._ensemble(index, self.cluster)

    def reference(self, index, counter):
        return self._ensemble(index, self._local() if counter is None else counter)


WORKLOADS = {
    cls.name: cls for cls in (CrawlFresh, EnsembleRevisit, ServeMix, ClusterFanout)
}


# ----------------------------------------------------------------------
# Driving a window
# ----------------------------------------------------------------------
#: Wall seconds between two CPU-speed calibrations (each takes ~3 ms).
CALIBRATION_PERIOD_S = 0.1


@dataclass
class Window:
    """The jobs of one measuring window and its length on the reference clock."""

    records: List[JobRecord]
    seconds: float
    slowness: float


def run_window(workload: Workload, seconds: float, first_index: int = 0,
               min_jobs: int = 0) -> Window:
    """Run jobs closed-loop on every connection until ``seconds`` elapse.

    Job ``i`` always runs on connection ``i % connections``, so the work a
    connection does is a function of the seed, not of timing.  Jobs that
    start inside the (wall-clock) window run to completion; each connection
    runs at least ``min_jobs``.  Every job is timed on the busy clock of this
    process and the workload's servers; connection 0 calibrates the CPU's
    speed between its jobs, and the job times are reported in seconds of
    the reference core (:class:`ReferenceClock`).
    """
    records: List[JobRecord] = []
    lock = threading.Lock()
    busy = BusyClock(workload.server_pids())
    clock = ReferenceClock(busy)
    deadline = time.perf_counter() + seconds

    def loop(conn: int) -> None:
        index = first_index + conn
        done = 0
        next_calibration = 0.0
        while time.perf_counter() < deadline or done < min_jobs:
            done += 1
            if conn == 0 and time.perf_counter() >= next_calibration:
                clock.calibrate()
                next_calibration = time.perf_counter() + CALIBRATION_PERIOD_S
            started = time.perf_counter()
            record = JobRecord(index, conn, started, started, busy(), 0.0)
            try:
                record.outcomes = workload.run_job(index, conn)
            except Exception as error:  # noqa: BLE001 - counted as a failed operation
                record.error = f"{type(error).__name__}: {error}"
            record.busy_finished = busy()
            record.finished = time.perf_counter()
            with lock:
                records.append(record)
            index += workload.connections
        if conn == 0:
            clock.calibrate()

    if workload.connections == 1:
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(conn,)) for conn in range(workload.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    records.sort(key=lambda record: record.index)
    starts = clock.seconds([record.busy_started for record in records])
    ends = clock.seconds([record.busy_finished for record in records])
    for record, begin, end in zip(records, starts, ends):
        record.latency = float(end - begin)
    return Window(records, float(ends.max() - starts.min()), clock.median_slowness)


def check_records(workload: Workload, records: Sequence[JobRecord]) -> None:
    """Fill ``failed_checks`` on every record (exceptions count once)."""
    workload.begin_checks()
    for record in records:
        if record.error is not None:
            record.failed_checks = 1
            continue
        try:
            record.failed_checks = workload.check(record)
        except Exception as error:  # noqa: BLE001
            record.error = f"check: {type(error).__name__}: {error}"
            record.failed_checks = 1


def properties(workload: Workload) -> Dict[str, float]:
    """Workload-property counts over the first ``property_jobs`` job specs."""
    local = workload._local() if isinstance(workload, _Served) else workload.backend
    counter = CountingBackend(local)
    outcomes: List[Outcome] = []
    lookups = 0

    def count_lookups(session) -> None:
        # Frontier dedupe: node lookups the scheduler sends down the stack,
        # against one lookup per walker per round.
        api = session.api
        original = api.query_many

        def counted(nodes):
            nonlocal lookups
            nodes = list(nodes)
            lookups += len(nodes)
            return original(nodes)

        api.query_many = counted

    previous = workload.on_session
    workload.on_session = count_lookups
    try:
        for index in range(workload.property_jobs):
            outcomes.extend(workload.reference(index, counter))
    finally:
        workload.on_session = previous
    degrees = np.diff(np.asarray(local.indptr))
    fetched = counter.fetched
    ensemble_visits = sum(o.visits for o in outcomes if o.kind in ("scalar", "ensemble"))
    visits = sum(o.visits for o in outcomes)
    unique = sum(o.unique for o in outcomes)
    indices = local.to_indices(fetched) if fetched else np.zeros(0, dtype=np.int64)
    sample = [record_to_wire(record) for record in local.fetch_many(fetched[:256])] if fetched else []
    estimates = [o.estimate for o in outcomes if o.estimate is not None]
    truth = workload.truth
    return {
        "cache_hit_ratio": 1.0 - unique / visits,
        "unique_per_step": unique / max(1, sum(o.steps for o in outcomes)),
        "frontier_dedupe_ratio": (1.0 - lookups / ensemble_visits) if ensemble_visits else 0.0,
        "mean_batch_size": len(fetched) / max(1, counter.calls),
        "bytes_per_record": (sum(len(json.dumps(r)) for r in sample) / len(sample)) if sample else 0.0,
        "hub_fetch_share": float(np.mean(degrees[indices] >= workload.hub_degree)) if len(indices) else 0.0,
        "estimate_rel_error": median([relative_error(e, truth) for e in estimates]),
        "jobs": float(workload.property_jobs),
    }
