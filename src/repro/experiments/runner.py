"""Experiment runner: turns configurations into result tables.

The runner owns the repetition / seeding / accounting logic shared by every
paper figure:

* :func:`run_cost_sweep` — error (and optionally KL / L2 bias) as a function
  of the unique-query budget (Figures 6, 7, 9, 10).
* :func:`run_distribution_study` — empirical sampling distribution vs the
  theoretical stationary distribution (Figure 8).
* :func:`run_size_sweep` — metrics as a function of graph size for a
  parametrised graph family (Figure 11).
* :func:`escape_probability_study` — the Theorem 3 barbell-crossing ablation.

Each trial gets its own :class:`~repro.api.session.SamplingSession` (and
therefore its own access-layer stack) over the same graph so query accounting
is isolated, and its own derived seed so the whole sweep is reproducible from
a single integer.  Walks execute through the
:class:`~repro.engine.scheduler.WalkScheduler` — the same batched driver the
multi-walker ensembles use — or, with ``engine="vector"``, through the
array-native :class:`~repro.engine.vector.VectorScheduler` over a per-process
CSR view of the graph (its own seed lineage; non-vectorisable specs fall back
to the scalar driver with a warning).  Whole sweeps fan out across a process
pool when ``jobs > 1``: trials are self-contained :class:`WalkTask` values
with pre-derived seeds, so the results are bit-identical for any ``jobs``
under either engine.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..api.session import SamplingSession
from ..engine.scheduler import WalkScheduler
from ..estimation.aggregates import AggregateQuery
from ..estimation.estimators import estimate_records
from ..estimation.ground_truth import ground_truth
from ..exceptions import InsufficientSamplesError
from ..graphs.graph import Graph
from ..metrics.bias import relative_error
from ..metrics.distributions import Distribution, empirical_distribution, theoretical_distribution
from ..metrics.divergence import l2_distance, symmetric_kl_divergence
from ..rng import derive_seed, make_rng
from ..walks.base import WalkResult
from .config import CostSweepConfig, DistributionStudyConfig, SizeSweepConfig, WalkerSpec
from .results import ExperimentReport, ResultTable


def _pick_start_node(graph: Graph, seed: Optional[int]) -> object:
    """Choose a start node uniformly (but never an isolated node).

    Scans a seeded permutation of the node list, so a usable start is found
    whenever one exists — sampling with replacement could retry the same
    isolated node over and over and spuriously give up.
    """
    rng = make_rng(seed)
    nodes = graph.nodes()
    if not nodes:
        raise InsufficientSamplesError("graph has no node with degree >= 1")
    for index in rng.permutation(len(nodes)):
        node = nodes[int(index)]
        if graph.degree(node) > 0:
            return node
    raise InsufficientSamplesError("graph has no node with degree >= 1")


def _make_session(graph: Graph, spec: WalkerSpec, seed: Optional[int], budget: Optional[int] = None) -> SamplingSession:
    """Build a fresh session for one trial of ``spec`` on ``graph``."""
    session = SamplingSession(graph)
    if budget is not None:
        session.budget(budget)
    return session.walker(spec.name, seed=seed, **spec.options_dict())


# ----------------------------------------------------------------------
# Trial execution (sequential or process-pool)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WalkTask:
    """One self-contained walk trial, executable in any process.

    The seed is pre-derived by the sweep that created the task, so executing
    tasks in any order — or on any number of workers — produces bit-identical
    walks.  ``graph=None`` means "use the worker's shared graph" (installed
    once per worker by the pool initialiser, so big graphs are pickled once
    per worker instead of once per trial).
    """

    spec: WalkerSpec
    seed: Optional[int]
    budget: Optional[int] = None
    steps: Optional[int] = None
    burn_in: int = 0
    thinning: int = 1
    graph: Optional[Graph] = None
    engine: str = "scalar"


_WORKER_GRAPH: Optional[Graph] = None

# Per-process CSR views for vector-engine trials: compiling the graph to CSR
# once per worker instead of once per trial.  Keyed by ``id(graph)`` with the
# graph itself pinned in the value, both to keep the key valid (no collection
# while cached) and to verify identity on lookup.
_CSR_CACHE: Dict[int, tuple] = {}


def _install_worker_graph(graph: Optional[Graph]) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph


def _csr_backend_for(graph: Graph):
    """Return (building if needed) this process's CSR view of ``graph``."""
    from ..api.backend import CSRBackend

    cached = _CSR_CACHE.get(id(graph))
    if cached is not None and cached[0] is graph:
        return cached[1]
    backend = CSRBackend.from_graph(graph)
    _CSR_CACHE[id(graph)] = (graph, backend)
    return backend


def _execute_walk_task(task: WalkTask) -> WalkResult:
    """Run one trial through the scheduler and return its raw result.

    Estimation happens on the caller's side (queries may hold non-picklable
    predicates; :class:`WalkResult` always travels cleanly).

    ``engine="vector"`` trials run through the array-native
    :class:`~repro.engine.vector.VectorScheduler` over a per-process CSR view
    of the graph (vector seed lineage); specs the vector engine cannot run
    fall back to the scalar scheduler with a warning, exactly as
    :meth:`SamplingSession.run_ensemble` documents.
    """
    graph = task.graph if task.graph is not None else _WORKER_GRAPH
    if graph is None:
        raise ValueError("walk task has no graph and no worker graph is installed")
    if task.engine == "vector":
        session = SamplingSession(_csr_backend_for(graph))
        if task.budget is not None:
            session.budget(task.budget)
        session.walker(task.spec.name, seed=derive_seed(task.seed, 1), **task.spec.options_dict())
        start = _pick_start_node(graph, derive_seed(task.seed, 2))
        return session.run_ensemble(
            1, steps=task.steps, starts=[start], seed=derive_seed(task.seed, 1),
            burn_in=task.burn_in, thinning=task.thinning, mode="vector",
        )[0]
    session = _make_session(graph, task.spec, derive_seed(task.seed, 1), budget=task.budget)
    start = _pick_start_node(graph, derive_seed(task.seed, 2))
    walker = session.build_walker()
    scheduler = WalkScheduler(session.api)
    return scheduler.run(
        [walker], [start], steps=task.steps, burn_in=task.burn_in, thinning=task.thinning
    )[0]


def run_walk_tasks(
    tasks: Sequence[WalkTask], jobs: int = 1, graph: Optional[Graph] = None
) -> List[WalkResult]:
    """Execute walk trials, fanning out over a process pool when ``jobs > 1``.

    Results come back in task order and are bit-identical for any ``jobs``
    because every task carries its own derived seed.  ``graph`` is the shared
    graph of tasks whose own ``graph`` field is ``None``.
    """
    tasks = list(tasks)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    jobs = min(jobs, len(tasks)) if tasks else 1
    if jobs <= 1:
        return [
            _execute_walk_task(task if task.graph is not None else replace(task, graph=graph))
            for task in tasks
        ]
    chunksize = max(1, len(tasks) // (jobs * 4))
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_install_worker_graph, initargs=(graph,)
    ) as pool:
        return list(pool.map(_execute_walk_task, tasks, chunksize=chunksize))


def _estimate_value(
    result: WalkResult, query: AggregateQuery, uniform_samples: bool
) -> Optional[float]:
    """Turn a walk's samples into an estimate (None when unusable)."""
    if not result.num_samples:
        return None
    try:
        return estimate_records(result.sample_records, query, uniform_samples=uniform_samples).value
    except InsufficientSamplesError:
        return None


def run_single_trial(
    graph: Graph,
    spec: WalkerSpec,
    query: AggregateQuery,
    budget: int,
    seed: Optional[int],
    burn_in: int = 0,
    thinning: int = 1,
) -> Dict[str, object]:
    """Run one walk under a query budget and return its estimate and path.

    Returns a dictionary with keys ``estimate`` (float or None when the walk
    produced no usable sample), ``samples`` (list of :class:`Sample`),
    ``path`` (visited nodes) and ``unique_queries``.
    """
    result = _execute_walk_task(
        WalkTask(spec=spec, seed=seed, budget=budget, burn_in=burn_in, thinning=thinning, graph=graph)
    )
    return {
        "estimate": _estimate_value(result, query, spec.uniform_samples),
        "samples": result.samples,
        "path": result.path,
        "unique_queries": result.unique_queries,
    }


def run_cost_sweep(
    graph: Graph,
    config: CostSweepConfig,
    title: str = "cost sweep",
    jobs: int = 1,
    engine: str = "scalar",
) -> ExperimentReport:
    """Run the error-versus-query-cost experiment of Figures 6, 7, 9 and 10.

    The report always contains a ``relative_error`` table; when
    ``config.compute_divergences`` is true it additionally contains
    ``kl_divergence`` and ``l2_distance`` tables computed from the visit
    distribution of the walks against the theoretical stationary
    distribution (the small-graph bias measures of the paper).  With
    ``jobs > 1`` the trials of the whole sweep fan out over a process pool;
    per-trial derived seeds keep the report bit-identical for any ``jobs``.
    """
    truth = ground_truth(graph, config.query)
    error_table = ResultTable(title=f"{title}: relative error", y_label="relative error")
    kl_table = ResultTable(title=f"{title}: KL divergence", y_label="KL divergence")
    l2_table = ResultTable(title=f"{title}: L2 distance", y_label="L2 distance")
    theoretical = theoretical_distribution(graph) if config.compute_divergences else None
    support = graph.nodes() if config.compute_divergences else None

    cells = [
        (budget_index, budget, walker_index, spec)
        for budget_index, budget in enumerate(config.budgets)
        for walker_index, spec in enumerate(config.walkers)
    ]
    tasks = [
        WalkTask(
            spec=spec,
            seed=derive_seed(config.seed, budget_index, walker_index, trial),
            budget=budget,
            burn_in=config.burn_in,
            thinning=config.thinning,
            engine=engine,
        )
        for budget_index, budget, walker_index, spec in cells
        for trial in range(config.trials)
    ]
    results = iter(run_walk_tasks(tasks, jobs=jobs, graph=graph))

    for budget_index, budget, walker_index, spec in cells:
        errors: List[float] = []
        kls: List[float] = []
        l2s: List[float] = []
        visits_all: List[object] = []
        for _ in range(config.trials):
            result = next(results)
            value = _estimate_value(result, config.query, spec.uniform_samples)
            if value is not None:
                errors.append(relative_error(value, truth))
            if config.compute_divergences:
                visits_all.extend(result.path)
        if errors:
            error_table.add_point(spec.display_label, budget, sum(errors) / len(errors))
        if config.compute_divergences and visits_all:
            empirical = empirical_distribution(
                visits_all, support=support, smoothing=config.divergence_smoothing
            )
            kls.append(symmetric_kl_divergence(theoretical, empirical, support=support))
            l2s.append(l2_distance(theoretical, empirical, support=support))
            kl_table.add_point(spec.display_label, budget, sum(kls) / len(kls))
            l2_table.add_point(spec.display_label, budget, sum(l2s) / len(l2s))

    report = ExperimentReport(name=title.replace(" ", "_"))
    report.metadata.update(
        {
            "graph": graph.name,
            "nodes": graph.number_of_nodes,
            "edges": graph.number_of_edges,
            "query": config.query.label,
            "ground_truth": truth,
            "trials": config.trials,
            "seed": config.seed,
        }
    )
    report.add_table("relative_error", error_table)
    if config.compute_divergences:
        report.add_table("kl_divergence", kl_table)
        report.add_table("l2_distance", l2_table)
    return report


def run_distribution_study(
    graph: Graph,
    config: DistributionStudyConfig,
    title: str = "distribution study",
    jobs: int = 1,
    engine: str = "scalar",
) -> ExperimentReport:
    """Run the sampling-distribution experiment of Figure 8.

    For each walker the report's ``distribution`` table holds, per node
    (ordered by degree, x = rank), the empirical visit probability; the
    ``theoretical`` series holds the stationary distribution.  A second table
    ``divergence`` summarises the distance of each walker's empirical
    distribution from the theoretical one.  ``jobs > 1`` fans the walks out
    over a process pool without changing any number in the report.
    """
    from ..metrics.distributions import nodes_by_degree

    ordering = nodes_by_degree(graph)
    support = graph.nodes()
    theoretical = theoretical_distribution(graph)

    distribution_table = ResultTable(
        title=f"{title}: sampling distribution",
        x_label="node rank (by degree)",
        y_label="probability",
    )
    theo_vector = theoretical.vector(ordering)
    for rank, probability in enumerate(theo_vector):
        distribution_table.add_point("Theoretical", rank, float(probability))

    divergence_table = ResultTable(
        title=f"{title}: distance to stationary distribution",
        x_label="walker",
        y_label="divergence",
    )

    tasks = [
        WalkTask(
            spec=spec,
            seed=derive_seed(config.seed, walker_index, walk_index),
            steps=config.steps,
            engine=engine,
        )
        for walker_index, spec in enumerate(config.walkers)
        for walk_index in range(config.num_walks)
    ]
    results = iter(run_walk_tasks(tasks, jobs=jobs, graph=graph))

    empirical_by_walker: Dict[str, Distribution] = {}
    for walker_index, spec in enumerate(config.walkers):
        visits: List[object] = []
        for _ in range(config.num_walks):
            visits.extend(next(results).path)
        empirical = empirical_distribution(visits, support=support)
        empirical_by_walker[spec.display_label] = empirical
        vector = empirical.vector(ordering)
        for rank, probability in enumerate(vector):
            distribution_table.add_point(spec.display_label, rank, float(probability))
        divergence_table.add_point(
            "KL", walker_index, symmetric_kl_divergence(theoretical, empirical, support=support)
        )
        divergence_table.add_point(
            "L2", walker_index, l2_distance(theoretical, empirical, support=support)
        )

    report = ExperimentReport(name=title.replace(" ", "_"))
    report.metadata.update(
        {
            "graph": graph.name,
            "walkers": [spec.display_label for spec in config.walkers],
            "num_walks": config.num_walks,
            "steps": config.steps,
        }
    )
    report.add_table("distribution", distribution_table)
    report.add_table("divergence", divergence_table)
    return report


def run_size_sweep(
    graph_builder: Callable[[int], Graph],
    config: SizeSweepConfig,
    title: str = "size sweep",
    jobs: int = 1,
    engine: str = "scalar",
) -> ExperimentReport:
    """Run a metric-versus-graph-size experiment (Figure 11).

    ``graph_builder`` maps a size parameter to a graph (e.g. a barbell graph
    with that clique size).  For each size the runner performs a single-budget
    cost experiment and records the mean relative error plus, optionally, the
    KL / L2 bias of the visit distribution.  ``jobs > 1`` fans all trials of
    all sizes out over one process pool (each task carries its own graph).
    """
    error_table = ResultTable(
        title=f"{title}: relative error", x_label="graph size", y_label="relative error"
    )
    kl_table = ResultTable(
        title=f"{title}: KL divergence", x_label="graph size", y_label="KL divergence"
    )
    l2_table = ResultTable(
        title=f"{title}: L2 distance", x_label="graph size", y_label="L2 distance"
    )

    graphs = {size: graph_builder(size) for size in config.sizes}
    tasks = [
        WalkTask(
            spec=spec,
            seed=derive_seed(config.seed, size_index, walker_index, trial),
            budget=config.budget,
            graph=graphs[size],
            engine=engine,
        )
        for size_index, size in enumerate(config.sizes)
        for walker_index, spec in enumerate(config.walkers)
        for trial in range(config.trials)
    ]
    results = iter(run_walk_tasks(tasks, jobs=jobs))

    for size_index, size in enumerate(config.sizes):
        graph = graphs[size]
        truth = ground_truth(graph, config.query)
        theoretical = theoretical_distribution(graph) if config.compute_divergences else None
        support = graph.nodes() if config.compute_divergences else None
        for walker_index, spec in enumerate(config.walkers):
            errors: List[float] = []
            visits_all: List[object] = []
            for _ in range(config.trials):
                result = next(results)
                value = _estimate_value(result, config.query, spec.uniform_samples)
                if value is not None:
                    errors.append(relative_error(value, truth))
                if config.compute_divergences:
                    visits_all.extend(result.path)
            if errors:
                error_table.add_point(spec.display_label, size, sum(errors) / len(errors))
            if config.compute_divergences and visits_all:
                empirical = empirical_distribution(visits_all, support=support)
                kl_table.add_point(
                    spec.display_label,
                    size,
                    symmetric_kl_divergence(theoretical, empirical, support=support),
                )
                l2_table.add_point(
                    spec.display_label, size, l2_distance(theoretical, empirical, support=support)
                )

    report = ExperimentReport(name=title.replace(" ", "_"))
    report.metadata.update({"sizes": list(config.sizes), "budget": config.budget, "trials": config.trials})
    report.add_table("relative_error", error_table)
    if config.compute_divergences:
        report.add_table("kl_divergence", kl_table)
        report.add_table("l2_distance", l2_table)
    return report


def escape_probability_study(
    clique_sizes: Sequence[int],
    walkers: Sequence[WalkerSpec],
    steps: int = 200,
    trials: int = 100,
    seed: Optional[int] = 0,
    title: str = "barbell escape",
) -> ExperimentReport:
    """Measure how often each walker crosses a barbell bridge within ``steps``.

    Theorem 3 of the paper lower-bounds the ratio of the CNRW and SRW
    bridge-crossing probabilities by ``|G1| ln|G1| / (|G1| - 1)``.  This study
    estimates the crossing probability empirically: a walk starts inside the
    first clique and we record whether it ever reaches the second clique
    within ``steps`` transitions.
    """
    from ..graphs.generators import barbell_graph

    table = ResultTable(
        title=f"{title}: crossing probability",
        x_label="clique size",
        y_label="crossing probability",
    )
    for size_index, clique_size in enumerate(clique_sizes):
        graph = barbell_graph(clique_size)
        other_side = set(range(clique_size, 2 * clique_size))
        for walker_index, spec in enumerate(walkers):
            crossings = 0
            for trial in range(trials):
                trial_seed = derive_seed(seed, size_index, walker_index, trial)
                session = _make_session(graph, spec, derive_seed(trial_seed, 1))
                start_rng = make_rng(derive_seed(trial_seed, 2))
                start = int(start_rng.integers(0, clique_size))
                result = session.run(start, max_steps=steps)
                if any(node in other_side for node in result.path):
                    crossings += 1
            table.add_point(spec.display_label, clique_size, crossings / trials)

    report = ExperimentReport(name=title.replace(" ", "_"))
    report.metadata.update({"steps": steps, "trials": trials, "seed": seed})
    report.add_table("crossing_probability", table)
    return report
