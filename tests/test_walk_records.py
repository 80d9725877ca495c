"""Field-level pins of every walk driver's output.

Each case runs fixed-seed walks through one driver and folds every field of
the result into one CRC: each :class:`~repro.types.Sample` (node, degree,
sorted attribute items, step index, query cost), each
:class:`~repro.types.Transition` (source, target, step index), ``steps``
and the query counters.  The constants were recorded from the drivers that
built one ``Transition`` per step and one ``Sample`` per sample, before
walk results became columnar, so any drift in what the records expand to
fails here field by field rather than only through a path fingerprint.
The scheduler cases are named after the two round loops the scheduler once
had: ``lockstep/`` is a shared integer step count on the default stack and
``general/`` is everything else (budget-driven, mixed caps, cache-less and
LRU stacks, dead-end policies).  The ``general/cacheless``, ``lru``,
``mixed`` and ``stop`` pins were recorded from the separate general loop,
before the loops merged into one.

The second half pins the point of the columnar format: a crawl or an
ensemble followed by an estimate, and a server-side walk, construct no
``Sample`` and no ``Transition`` at all.  The last section pins that
NB-CNRW filters the backtracking edge out of a neighborhood once per step.
"""

from __future__ import annotations

import json
import pickle
import zlib

import pytest

from repro import SamplingSession, SchedulerPolicy, VectorScheduler, WalkScheduler, build_api
from repro.api.backend import CSRBackend, GraphBackend, RawRecord
from repro.estimation import DEGREE, AggregateKind, AggregateQuery, estimate
from repro.exceptions import NodeNotFoundError
from repro.experiments import CostSweepConfig, WalkerSpec, WalkTask, run_cost_sweep, run_walk_tasks
from repro.graphs import load_dataset
from repro.server import GraphService
from repro.server.wire import LeanHeaders
from repro.types import Sample, Transition
from repro.walks import make_walker
from repro.walks.kernels import NBCNRWKernel

KERNELS = ["srw", "mhrw", "nbsrw", "cnrw", "cnrw_node", "nbcnrw", "gnrw_by_degree", "gnrw_by_md5"]
VECTOR_KERNELS = ["srw", "mhrw", "nbsrw", "cnrw"]


def _fold(crc: int, *fields) -> int:
    return zlib.crc32("|".join(map(str, fields)).encode("utf-8"), crc)


def result_crc(results) -> int:
    """CRC over every sample field, every transition, steps and counters."""
    crc = 0
    for result in results:
        for sample in result.samples:
            assert type(sample.attributes) is dict
            crc = _fold(crc, "s", sample.node, sample.degree,
                        sorted(sample.attributes.items()), sample.step_index, sample.query_cost)
        for transition in result.transitions:
            crc = _fold(crc, "t", transition.source, transition.target, transition.step_index)
        crc = _fold(crc, "r", result.steps, len(result.path), result.unique_queries,
                    result.total_queries, result.stopped_by_budget)
    return crc


@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook_like", seed=3, scale=0.12)


class _DeadEndBackend(GraphBackend):
    """Directed-style adjacency with a dead end (node 3) and attributes."""

    name = "dead-end"

    def __init__(self):
        self._adjacency = {0: (1, 2, 5), 1: (2, 3), 2: (0, 3, 5), 3: (), 4: (0,), 5: (1, 4)}

    def _attributes(self, node):
        return {"age": 20 + node, "tag": f"n{node}"}

    def fetch(self, node):
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        return RawRecord(node=node, neighbors=self._adjacency[node],
                         attributes=self._attributes(node))

    def contains(self, node):
        return node in self._adjacency

    def metadata(self, node):
        if node not in self._adjacency:
            return None
        return {"degree": len(self._adjacency[node]), "attributes": self._attributes(node)}

    def node_ids(self):
        return list(self._adjacency)


# ----------------------------------------------------------------------
# The cases: one callable per (driver, configuration, kernel)
# ----------------------------------------------------------------------
RUN_CONFIGS = {
    "steps": dict(budget=None, max_steps=150, burn_in=10, thinning=3, max_samples=None),
    "budget": dict(budget=60, max_steps=None, burn_in=4, thinning=2, max_samples=None),
    "samples": dict(budget=None, max_steps=None, burn_in=7, thinning=4, max_samples=25),
}


def run_case(graph, kernel, config):
    options = dict(RUN_CONFIGS[config])
    api = build_api(graph, budget=options.pop("budget"))
    start = graph.nodes()[5]
    return [make_walker(kernel, api=api, seed=11).run(start, **options)]


def lockstep_case(graph, kernel):
    api = build_api(graph)
    walkers = [make_walker(kernel, api=api, seed=seed) for seed in range(4)]
    starts = [graph.nodes()[i] for i in (0, 9, 17, 9)]
    return WalkScheduler(api).run(walkers, starts, steps=60, burn_in=5, thinning=2)


#: Stack and step caps of each budgeted ``general/<config>`` case.
GENERAL_STACKS = {
    "budget": (dict(budget=50), None),
    "cacheless": (dict(budget=70, cache=False), 40),
    "lru": (dict(budget=90, cache_capacity=16), 50),
    "mixed": (dict(budget=50), [12, None, 30]),
}


def general_case(graph, kernel, config):
    if config in ("restart", "stop"):
        api = build_api(_DeadEndBackend())
        walkers = [make_walker(kernel, api=api, seed=seed) for seed in (2, 5, 8)]
        policy = SchedulerPolicy(on_dead_end=config)
        return WalkScheduler(api, policy=policy).run(
            walkers, [1, 3, 0], steps=[25, 40, 33], burn_in=2, thinning=2
        )
    stack, steps = GENERAL_STACKS[config]
    api = build_api(graph, **stack)
    walkers = [make_walker(kernel, api=api, seed=seed) for seed in (3, 4, 5)]
    starts = [graph.nodes()[i] for i in (1, 2, 40)]
    return WalkScheduler(api).run(walkers, starts, steps=steps, burn_in=3, thinning=1)


def vector_case(graph, kernel, config):
    backend = CSRBackend.from_graph(graph)
    starts = [graph.nodes()[i] for i in (0, 4, 4, 30, 61)]
    if config == "steps":
        api = build_api(backend)
        result = VectorScheduler(api).run(kernel, starts, steps=30, seed=5, burn_in=3, thinning=2)
    else:
        api = build_api(backend, budget=40)
        result = VectorScheduler(api).run(kernel, starts, steps=None, seed=6)
    return result.to_walk_results()


def fanned_out(graph):
    tasks = [
        WalkTask(spec=WalkerSpec.make(kernel), seed=seed, budget=30, burn_in=2, thinning=2)
        for kernel in ("srw", "cnrw", "mhrw", "gnrw_by_degree")
        for seed in (1, 2)
    ]
    return run_walk_tasks(tasks, jobs=2, graph=graph)


CASES = (
    [f"run/{config}/{kernel}" for config in RUN_CONFIGS for kernel in KERNELS]
    + [f"lockstep/{kernel}" for kernel in KERNELS]
    + [f"general/{config}/{kernel}" for config in ("restart", "budget") for kernel in KERNELS]
    + [f"general/{config}/{kernel}" for config in ("cacheless", "lru", "mixed", "stop")
       for kernel in ("srw", "mhrw", "cnrw", "gnrw_by_degree")]
    + [f"vector/{config}/{kernel}" for config in ("steps", "budget") for kernel in VECTOR_KERNELS]
)


def build_case(graph, name):
    driver, *rest = name.split("/")
    if driver == "run":
        return run_case(graph, rest[1], rest[0])
    if driver == "lockstep":
        return lockstep_case(graph, rest[0])
    if driver == "general":
        return general_case(graph, rest[1], rest[0])
    return vector_case(graph, rest[1], rest[0])


#: CRC of each case's results (see :func:`result_crc`).  Equal pins are equal
#: walks: CNRW draws exactly as SRW (NB-CNRW as NB-SRW) until a walker enters
#: some node through the same edge twice, which the short budget-bound
#: ``general/budget`` and ``vector/budget`` walks never do.
PINS = {
    "run/steps/srw": 0xC1DB05C3,
    "run/steps/mhrw": 0xA939C64C,
    "run/steps/nbsrw": 0x7869A0B9,
    "run/steps/cnrw": 0xF4B2AD90,
    "run/steps/cnrw_node": 0x60D736D4,
    "run/steps/nbcnrw": 0xE1873B1E,
    "run/steps/gnrw_by_degree": 0xA7166218,
    "run/steps/gnrw_by_md5": 0xB76F7BF6,
    "run/budget/srw": 0x9797219D,
    "run/budget/mhrw": 0x90346C82,
    "run/budget/nbsrw": 0x4A9DE17B,
    "run/budget/cnrw": 0xBF71AA09,
    "run/budget/cnrw_node": 0x0BAFEF00,
    "run/budget/nbcnrw": 0xBF6305C1,
    "run/budget/gnrw_by_degree": 0x4C1FB4CE,
    "run/budget/gnrw_by_md5": 0xF39B7FC6,
    "run/samples/srw": 0x9503F975,
    "run/samples/mhrw": 0xA7559E8F,
    "run/samples/nbsrw": 0x06A0ABF8,
    "run/samples/cnrw": 0xB23691DE,
    "run/samples/cnrw_node": 0xB60B2F40,
    "run/samples/nbcnrw": 0x4C479D01,
    "run/samples/gnrw_by_degree": 0xE186F796,
    "run/samples/gnrw_by_md5": 0x54D515F0,
    "lockstep/srw": 0xC1535FB4,
    "lockstep/mhrw": 0xDC985270,
    "lockstep/nbsrw": 0x33D83F27,
    "lockstep/cnrw": 0x75F9D5AA,
    "lockstep/cnrw_node": 0x4F85B394,
    "lockstep/nbcnrw": 0x3113F073,
    "lockstep/gnrw_by_degree": 0xD119956E,
    "lockstep/gnrw_by_md5": 0xA9B90E20,
    "general/restart/srw": 0xD4E964A9,
    "general/restart/mhrw": 0x72B832BD,
    "general/restart/nbsrw": 0x0BD474BE,
    "general/restart/cnrw": 0xD1E42E5B,
    "general/restart/cnrw_node": 0x4178ABCE,
    "general/restart/nbcnrw": 0x1CE14AC9,
    "general/restart/gnrw_by_degree": 0x59AA48D3,
    "general/restart/gnrw_by_md5": 0xE33880E3,
    "general/budget/srw": 0x6F4EB1A0,
    "general/budget/mhrw": 0xEF54937A,
    "general/budget/nbsrw": 0xB5B229D0,
    "general/budget/cnrw": 0x6F4EB1A0,
    "general/budget/cnrw_node": 0x9EF700F0,
    "general/budget/nbcnrw": 0xB5B229D0,
    "general/budget/gnrw_by_degree": 0xC4E767AD,
    "general/budget/gnrw_by_md5": 0x46BAA6C7,
    "general/cacheless/srw": 0x6FE09CF7,
    "general/cacheless/mhrw": 0x5121767B,
    "general/cacheless/cnrw": 0x6FE09CF7,
    "general/cacheless/gnrw_by_degree": 0xABA664F8,
    "general/lru/srw": 0xFF664B25,
    "general/lru/mhrw": 0xA6593597,
    "general/lru/cnrw": 0x3DCE9F66,
    "general/lru/gnrw_by_degree": 0x71347C6A,
    "general/mixed/srw": 0x9C432E15,
    "general/mixed/mhrw": 0x4C75C5AE,
    "general/mixed/cnrw": 0xE3EAE8CB,
    "general/mixed/gnrw_by_degree": 0x5C8378E6,
    "general/stop/srw": 0xDAF7FB46,
    "general/stop/mhrw": 0x3602EE9F,
    "general/stop/cnrw": 0x98DB295D,
    "general/stop/gnrw_by_degree": 0x501E8683,
    "vector/steps/srw": 0xB3490A71,
    "vector/steps/mhrw": 0xE765DB90,
    "vector/steps/nbsrw": 0x674D762D,
    "vector/steps/cnrw": 0x4314BB3F,
    "vector/budget/srw": 0x52F6EE36,
    "vector/budget/mhrw": 0xBD93E9F0,
    "vector/budget/nbsrw": 0x0923B2AA,
    "vector/budget/cnrw": 0x52F6EE36,
    "jobs2/walk_tasks": 0x877B02B5,
    "jobs2/cost_sweep": 0x2D3A0012,
}


class TestFieldPins:
    @pytest.mark.parametrize("name", CASES)
    def test_every_field_matches_its_pin(self, graph, name):
        results = build_case(graph, name)
        if name.startswith("general/restart/") and not name.endswith("/mhrw"):
            # A lane walked into the dead end and was replanted mid-walk
            # (MHRW never enters it here; its one restart is the dead start).
            assert any(len(result.path) > result.steps + 1 for result in results)
        assert result_crc(results) == PINS[name]

    def test_fanned_out_results_survive_pickle(self, graph):
        results = fanned_out(graph)
        assert result_crc(results) == PINS["jobs2/walk_tasks"]
        clone = pickle.loads(pickle.dumps(results))
        assert clone == results
        assert result_crc(clone) == PINS["jobs2/walk_tasks"]

    def test_cost_sweep_report_survives_pickle(self, graph):
        config = CostSweepConfig(
            walkers=(WalkerSpec.make("srw"), WalkerSpec.make("cnrw"), WalkerSpec.make("mhrw")),
            query=AggregateQuery.average_degree(),
            budgets=(20, 40),
            trials=3,
            seed=11,
            burn_in=2,
            thinning=2,
        )
        report = pickle.loads(pickle.dumps(run_cost_sweep(graph, config, jobs=2)))
        crc = 0
        for label, series in sorted(report.tables["relative_error"].series.items()):
            crc = _fold(crc, label, [repr(x) for x in series.x], [repr(y) for y in series.y])
        assert crc == PINS["jobs2/cost_sweep"]


# ----------------------------------------------------------------------
# No per-step objects on the hot paths
# ----------------------------------------------------------------------
@pytest.fixture
def constructions(monkeypatch):
    """Count ``Sample`` and ``Transition`` constructions while a test runs."""
    counts = {"Sample": 0, "Transition": 0}
    for cls in (Sample, Transition):
        def counting(self, *args, _name=cls.__name__, _init=cls.__init__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestNoPerStepObjects:
    def test_the_counter_sees_lazy_expansion(self, graph, constructions):
        result = run_case(graph, "srw", "steps")[0]
        assert constructions == {"Sample": 0, "Transition": 0}
        assert len(result.samples) == result.num_samples == 47
        assert len(result.transitions) == result.steps == 150
        assert constructions == {"Sample": 47, "Transition": 150}

    def test_crawl_then_estimate(self, graph, constructions):
        session = SamplingSession(graph, seed=1).budget(60).walker("cnrw", seed=1)
        result = session.run(max_steps=None)
        assert session.estimate(AggregateQuery.average_degree()).value > 0
        assert result.steps > 0 and result.num_samples > 0
        assert constructions == {"Sample": 0, "Transition": 0}

    def test_ensemble_then_estimate(self, graph, constructions):
        session = SamplingSession(graph, seed=2).walker("srw", seed=2)
        results = session.run_ensemble(16, steps=40)
        assert session.estimate(AggregateQuery.average_degree(), result=results).value > 0
        assert sum(result.steps for result in results) == 16 * 40
        assert constructions == {"Sample": 0, "Transition": 0}

    def test_server_side_walk(self, graph, constructions):
        service = GraphService(CSRBackend.from_graph(graph))
        body = json.dumps({"kernel": "cnrw", "start": graph.nodes()[0], "seed": 3,
                           "budget": 40, "thinning": 2}).encode()
        status, _, answer, _ = service.handle("POST", "/walk", LeanHeaders({}), body)
        assert status == 200
        payload = json.loads(answer)
        assert payload["steps"] > 0 and 0 < payload["samples"] <= payload["steps"] // 2 + 1
        assert constructions == {"Sample": 0, "Transition": 0}


class TestEstimatorReadsRecords:
    QUERIES = {
        "avg_degree": AggregateQuery.average_degree(),
        "avg_attr": AggregateQuery.average_attribute("age"),
        "proportion": AggregateQuery.proportion(lambda node, attrs: attrs.get("age", 0) > 1.0),
        "conditional": AggregateQuery(
            kind=AggregateKind.AVERAGE, measure=DEGREE,
            predicate=lambda node, attrs: attrs.get("activity", 0) > 20,
        ),
    }

    @pytest.mark.parametrize("uniform", [False, True], ids=["reweighted", "uniform"])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_records_and_samples_give_the_same_estimate(self, graph, query, uniform):
        session = SamplingSession(graph, seed=4).budget(50).walker("cnrw", seed=4)
        results = session.run_ensemble(3, steps=None)
        direct = session.estimate(self.QUERIES[query], uniform_samples=uniform)
        pooled = [sample for result in results for sample in result.samples]
        assert direct == estimate(pooled, self.QUERIES[query], uniform_samples=uniform)


# ----------------------------------------------------------------------
# NB-CNRW filters the backtracking edge once per step
# ----------------------------------------------------------------------
@pytest.fixture
def nb_filters(monkeypatch):
    """Count ``NBCNRWKernel._allowed`` calls while a test runs."""
    calls = []
    original = NBCNRWKernel._allowed

    def counting(state, view):
        calls.append(view.node)
        return original(state, view)

    monkeypatch.setattr(NBCNRWKernel, "_allowed", staticmethod(counting))
    return calls


class TestNBCNRWFiltersOncePerStep:
    def test_crawl(self, graph, nb_filters):
        walker = make_walker("nbcnrw", api=build_api(graph), seed=11)
        result = walker.run(graph.nodes()[5], max_steps=200)
        assert result.steps == 200
        assert len(nb_filters) == 200

    def test_schedule(self, graph, nb_filters):
        api = build_api(graph)
        walkers = [make_walker("nbcnrw", api=api, seed=seed) for seed in range(16)]
        starts = [graph.nodes()[i] for i in range(16)]
        results = WalkScheduler(api).run(walkers, starts, steps=50)
        assert sum(result.steps for result in results) == 16 * 50
        assert len(nb_filters) == 16 * 50

    @pytest.mark.parametrize("name", [case for case in CASES if case.endswith("/nbcnrw")])
    def test_pinned_cases(self, graph, nb_filters, name):
        results = build_case(graph, name)
        assert result_crc(results) == PINS[name]
        assert len(nb_filters) == sum(result.steps for result in results)
