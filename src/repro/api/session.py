"""High-level fluent facade over the access-layer stack.

:class:`SamplingSession` wires the three layers of :mod:`repro.api` — storage
backends, policy middleware and the walkers of :mod:`repro.walks` — behind a
chainable configuration interface, so a complete budgeted crawl reads as one
sentence::

    from repro import SamplingSession, twitter_policy

    result = (
        SamplingSession(graph)
        .budget(500)
        .rate_limit(twitter_policy())
        .walker("cnrw", seed=1)
        .run(max_steps=None)
    )

The session owns the assembled API stack (lazily built, rebuilt whenever the
configuration changes) and the last walker, exposes query-cost counters and
the optional trace, and offers :meth:`estimate` to turn a walk's samples into
an unbiased aggregate estimate.  :meth:`run_ensemble` runs several
identically-configured walkers against one shared stack, prefetching each
round of current nodes through ``query_many`` so the per-query overhead is
amortised across walkers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import obs
from ..exceptions import VectorizationError
from ..graphs.graph import Graph
from ..rng import SeedLike, derive_seed, make_rng
from ..types import NodeId
from .backend import GraphBackend
from .budget import QueryBudget
from .builder import build_api
from .interface import SocialNetworkAPI
from .middleware import QueryTrace
from .ratelimit import RateLimitPolicy, SimulatedClock


def pick_start_node(api: SocialNetworkAPI, rng) -> NodeId:
    """Draw a random node with degree >= 1 through the API.

    Retries (bounded) over ``api.random_node`` using the free metadata peek,
    accepting blindly when the backend serves no metadata.  Shared by the
    session's start picker and the scheduler's restart policy.
    """
    node = api.random_node(seed=rng)
    for _ in range(1024):
        metadata = api.peek_metadata(node)
        if metadata is None or metadata.get("degree", 1) > 0:
            return node
        node = api.random_node(seed=rng)
    return node


class SamplingSession:
    """Fluent builder and driver for budgeted random-walk crawls.

    Every configuration method returns ``self`` so calls chain; the API stack
    is built on first use and invalidated by any later configuration change.
    ``source`` may also be a ``str`` / :class:`~pathlib.Path` naming on-disk
    storage (a CSR snapshot directory, a crawl-dump file or a crawl-warehouse
    ``.sqlite`` store, see :mod:`repro.storage` / :mod:`repro.warehouse`), an
    ``http(s)://`` URL of a graph service (see :mod:`repro.server`), or a
    ``cluster://`` shard list / ``cluster.json`` manifest (see
    :mod:`repro.cluster`), so a session can crawl a graph larger than RAM,
    replay a recorded crawl, query a merged warehouse, or drive a graph
    served on other machines with the same one-liner.
    """

    def __init__(
        self, source: Union[Graph, GraphBackend, str, Path], seed: SeedLike = None
    ) -> None:
        self._source = source
        self._backend_kind: Optional[str] = None
        self._budget: Union[QueryBudget, int, None] = None
        self._rate_limit: Optional[RateLimitPolicy] = None
        self._clock: Optional[SimulatedClock] = None
        self._cache = True
        self._cache_capacity: Optional[int] = None
        self._shuffle = False
        self._seed = seed
        self._trace: Union[bool, QueryTrace] = False
        self._walker_name = "srw"
        self._walker_seed: SeedLike = None
        self._walker_options: Dict[str, object] = {}
        self._api: Optional[SocialNetworkAPI] = None
        self._tracer: Optional[obs.Tracer] = None
        self.last_result = None

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------
    def backend(self, kind: str) -> "SamplingSession":
        """Choose the storage backend: ``"memory"`` (default) or ``"csr"``."""
        self._backend_kind = kind
        return self._invalidate()

    def budget(self, limit: Union[QueryBudget, int, None]) -> "SamplingSession":
        """Cap the number of unique (billable) queries.

        ``limit`` is a :class:`QueryBudget`, an integer (numpy integers
        included, ``bool`` refused) or ``None``; it is checked when the
        stack is built.
        """
        self._budget = limit
        return self._invalidate()

    def rate_limit(
        self, policy: RateLimitPolicy, clock: Optional[SimulatedClock] = None
    ) -> "SamplingSession":
        """Throttle billable queries with ``policy`` on a simulated clock."""
        self._rate_limit = policy
        if clock is not None:
            self._clock = clock
        return self._invalidate()

    def cache(self, capacity: Optional[int] = None, enabled: bool = True) -> "SamplingSession":
        """Configure the local cache (unbounded by default; LRU with a capacity)."""
        self._cache = enabled
        self._cache_capacity = capacity
        return self._invalidate()

    def shuffle_neighbors(self, enabled: bool = True) -> "SamplingSession":
        """Randomise the stored neighbor order of fresh queries."""
        self._shuffle = enabled
        return self._invalidate()

    def trace(self, enabled: Union[bool, QueryTrace] = True) -> "SamplingSession":
        """Record every query through an outermost trace layer."""
        self._trace = enabled
        return self._invalidate()

    def walker(self, name: str, seed: SeedLike = None, **options) -> "SamplingSession":
        """Choose the sampler by factory name (``srw``, ``cnrw``, ``gnrw``...)."""
        self._walker_name = name
        self._walker_seed = seed
        self._walker_options = options
        return self

    def telemetry(self, enabled: bool = True) -> "SamplingSession":
        """Turn end-to-end telemetry on for this session's runs.

        Enables the global metrics registry (:func:`repro.obs.metrics`) and
        gives the session a :class:`~repro.obs.Tracer`: every :meth:`run` /
        :meth:`run_ensemble` executes under that tracer, so client requests
        carry ``X-Repro-Trace`` headers and server span echoes fold back into
        one trace tree per run — export it with :meth:`trace_export`.  Does
        not touch the walk rng lineages or the stack's accounting: traced
        runs stay bit-identical to untraced ones.
        """
        if enabled:
            if self._tracer is None:
                self._tracer = obs.Tracer()
            obs.enable_telemetry()
        else:
            self._tracer = None
        return self

    def _invalidate(self) -> "SamplingSession":
        self._api = None
        return self

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    @property
    def api(self) -> SocialNetworkAPI:
        """The assembled middleware stack (built lazily)."""
        if self._api is None:
            self._api = build_api(
                self._source,
                backend=self._backend_kind,
                budget=self._budget,
                rate_limit=self._rate_limit,
                clock=self._clock,
                cache=self._cache,
                cache_capacity=self._cache_capacity,
                shuffle_neighbors=self._shuffle,
                seed=self._seed,
                trace=self._trace,
            )
        return self._api

    def build_walker(self, seed: SeedLike = None):
        """Build a fresh instance of the configured walker against the session API.

        ``run`` builds its own walker; use this for advanced flows that drive
        a walker directly (e.g. several independent repeats sharing one stack,
        each with a different ``seed``).
        """
        from ..walks.factory import make_walker

        return make_walker(
            self._walker_name,
            api=self.api,
            seed=seed if seed is not None else self._walker_seed,
            **self._walker_options,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        start: Optional[NodeId] = None,
        max_steps: Optional[int] = None,
        burn_in: int = 0,
        thinning: int = 1,
        max_samples: Optional[int] = None,
    ):
        """Run one walk and return its :class:`~repro.walks.base.WalkResult`.

        When ``start`` is omitted a uniformly random non-isolated node is
        drawn from the backend (seeded by the session seed, if any).  Each
        call builds a fresh walker from the configured spec, so a seeded run
        is reproducible no matter what ran before it; query counters, caches
        and budgets on the shared stack do accumulate across runs (call
        :meth:`reset` for a fresh crawl).
        """
        walker = self.build_walker()
        if start is None:
            start = self._pick_start()
        with self._traced("session.run", walker=self._walker_name):
            result = walker.run(
                start,
                max_steps=max_steps,
                burn_in=burn_in,
                thinning=thinning,
                max_samples=max_samples,
            )
        self.last_result = result
        return result

    def run_ensemble(
        self,
        num_walks: int,
        steps: Optional[int] = None,
        starts: Optional[Sequence[NodeId]] = None,
        seed: SeedLike = None,
        burn_in: int = 0,
        thinning: int = 1,
        policy=None,
        mode: str = "scalar",
    ) -> List:
        """Run ``num_walks`` walkers in lockstep against the shared stack.

        A thin delegate to :class:`~repro.engine.scheduler.WalkScheduler`:
        each round, the walkers' current nodes are deduplicated into one
        frontier and fetched in a single
        :meth:`~repro.api.interface.SocialNetworkAPI.query_many` batch, off
        which every walker's kernel then advances — no per-walker queries at
        all.  With the default ``burn_in=0, thinning=1`` every visited node
        is emitted as a sample (matching ``run``), so :meth:`estimate` works
        on the results.  Walker ``i`` is seeded with ``derive_seed(seed, i)``
        for reproducibility (``seed`` defaults to the walker seed).

        ``steps=None`` walks until the shared query budget is exhausted
        (requires a budgeted session), like ``run(max_steps=None)``.  Budget
        exhaustion is never an error: the partial results collected so far
        are returned with ``stopped_by_budget=True`` (walkers later in the
        interrupted round may be up to one step behind the others).  An
        optional :class:`~repro.engine.scheduler.SchedulerPolicy` configures
        dead-end handling (raise / stop / restart).

        ``mode="vector"`` opts into the array-native engine
        (:class:`~repro.engine.vector.VectorScheduler`): the whole ensemble
        advances per round in a handful of numpy vector ops over the CSR
        arrays, under an **explicitly separate seed lineage** — vector runs
        are bit-identical to each other under a fixed seed but intentionally
        differ from scalar runs (the conformance reference).  Configurations
        the vector engine cannot serve (non-CSR backends, trace / rate-limit
        / shuffle / bounded-cache layers, kernels without an array rule,
        non-default policies) fall back to this scalar path with a
        :class:`UserWarning`.
        """
        from ..engine.scheduler import WalkScheduler

        if num_walks < 1:
            raise ValueError("num_walks must be at least 1")
        if mode not in ("scalar", "vector"):
            raise ValueError(f"mode must be 'scalar' or 'vector', got {mode!r}")
        base_seed = seed if seed is not None else self._walker_seed
        with self._traced("session.ensemble", walks=num_walks, mode=mode):
            if mode == "vector":
                results = self._run_vector_ensemble(
                    num_walks, steps, starts, base_seed, burn_in, thinning, policy
                )
                if results is not None:
                    self.last_result = results
                    return results
                # Fell back (warning already emitted): continue on the
                # scalar path.
            if isinstance(base_seed, (int, np.integer)):
                walker_seeds = [
                    derive_seed(int(base_seed), index) for index in range(num_walks)
                ]
            else:
                # None (fresh entropy per walker) or a shared generator.
                walker_seeds = [base_seed] * num_walks
            walkers = [
                self.build_walker(seed=walker_seed) for walker_seed in walker_seeds
            ]
            if starts is None:
                start_nodes = [
                    self._pick_start(offset=index) for index in range(num_walks)
                ]
            else:
                start_nodes = list(starts)
                if len(start_nodes) != num_walks:
                    raise ValueError("starts must provide one node per walk")
            scheduler = WalkScheduler(self.api, policy=policy)
            results = scheduler.run(
                walkers, start_nodes, steps=steps, burn_in=burn_in, thinning=thinning
            )
        self.last_result = results
        return results

    def _run_vector_ensemble(
        self, num_walks, steps, starts, seed, burn_in, thinning, policy
    ) -> Optional[List]:
        """Try the array-native engine; ``None`` = fall back (already warned).

        Start nodes are picked exactly like the scalar path (session-seeded),
        so the two modes crawl from the same starts; only the transition
        draws live in the vector lineage.
        """
        import warnings

        from ..engine.scheduler import SchedulerPolicy
        from ..engine.vector import VectorScheduler, make_vector_kernel

        try:
            if policy is not None and policy != SchedulerPolicy():
                raise VectorizationError(
                    "custom SchedulerPolicy (dead-end stop/restart) is not "
                    "vectorisable"
                )
            kernel = make_vector_kernel(self._walker_name, **self._walker_options)
            scheduler = VectorScheduler(self.api)
            scheduler.check(kernel, num_walks)
        except VectorizationError as error:
            warnings.warn(
                f"vector mode unavailable ({error}); falling back to the "
                "scalar scheduler (scalar seed lineage)",
                stacklevel=3,
            )
            return None
        if starts is None:
            start_nodes = [self._pick_start(offset=index) for index in range(num_walks)]
        else:
            start_nodes = list(starts)
            if len(start_nodes) != num_walks:
                raise ValueError("starts must provide one node per walk")
        result = scheduler.run(
            kernel, start_nodes, steps=steps, seed=seed, burn_in=burn_in, thinning=thinning
        )
        return result.to_walk_results()

    def estimate(self, query, result=None, uniform_samples: bool = False):
        """Estimate an aggregate from a walk's samples (defaults to the last run).

        Accepts a single :class:`~repro.walks.base.WalkResult` or a sequence
        of them (e.g. the return value of :meth:`run_ensemble`, whose pooled
        samples are used after an ensemble run).
        """
        from ..estimation.estimators import estimate_records

        target = result if result is not None else self.last_result
        if target is None:
            raise ValueError("no walk result available; call run() first")
        if isinstance(target, (list, tuple)):
            records = [record for walk in target for record in walk.sample_records]
        else:
            records = target.sample_records
        return estimate_records(records, query, uniform_samples=uniform_samples)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_snapshot(self, directory, name: Optional[str] = None):
        """Persist the session's backend as a CSR snapshot directory.

        The snapshot reopens memory-mapped through ``SamplingSession(path)``
        (or :func:`repro.storage.load_snapshot`) and reproduces this
        session's walks bit for bit under the same seeds.
        """
        from ..storage import save_snapshot

        return save_snapshot(self.api.backend, directory, name=name)

    def dump_crawl(self, path, name: Optional[str] = None):
        """Dump every neighborhood this session's trace saw to a JSONL file.

        Requires tracing (``.trace()``); the dump replays offline through
        ``SamplingSession(path)`` (or :func:`repro.storage.load_crawl`).
        """
        from ..storage import dump_crawl

        trace = self.query_trace
        if trace is None:
            raise ValueError(
                "dump_crawl requires tracing; enable it with .trace() before "
                "running the crawl to be recorded"
            )
        if len(trace) == 0:
            raise ValueError(
                "the query trace is empty — run the crawl before dumping it"
            )
        return dump_crawl(self.api, path, name=name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _traced(self, name: str, **tags):
        """Run a block under the session tracer with a root span (or not)."""
        from contextlib import ExitStack

        stack = ExitStack()
        if self._tracer is not None:
            stack.enter_context(obs.use_tracer(self._tracer))
            stack.enter_context(self._tracer.span(name, kind="session", **tags))
        return stack

    @property
    def tracer(self) -> Optional[obs.Tracer]:
        """The session's span tracer (``None`` until :meth:`telemetry`)."""
        return self._tracer

    def trace_export(self, path: Union[str, Path, None] = None) -> str:
        """The collected trace as JSONL (one span per line).

        Requires :meth:`telemetry`.  With ``path`` the JSONL is also written
        to disk, ready for ``python -m repro.cli trace <path>``.
        """
        if self._tracer is None:
            raise ValueError(
                "trace_export requires telemetry; enable it with .telemetry() "
                "before the runs to be traced"
            )
        text = self._tracer.export_jsonl()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @property
    def query_trace(self) -> Optional[QueryTrace]:
        """The query trace, when tracing is enabled."""
        return getattr(self.api, "trace", None)

    @property
    def unique_queries(self) -> int:
        return self.api.unique_queries

    @property
    def total_queries(self) -> int:
        return self.api.total_queries

    def reset(self) -> "SamplingSession":
        """Reset counters, caches and policies for a fresh crawl."""
        self.api.reset_counters()
        self.last_result = None
        return self

    def close(self) -> None:
        """Close the session's backend (delegates to ``GraphBackend.close``).

        Remote and sharded backends hold real resources — keep-alive sockets,
        one per shard of a cluster — which this releases deterministically; local
        backends close as a no-op.  The session object stays usable (a later
        query reconnects), and sessions are context managers::

            with SamplingSession("cluster/cluster.json") as session:
                session.budget(500).walker("cnrw", seed=1).run()
        """
        if self._api is not None:
            backend = getattr(self._api, "backend", None)
            if backend is not None:
                backend.close()
        elif isinstance(self._source, GraphBackend):
            # Never built a stack: close a caller-provided backend directly
            # (a path / URL source only opens resources when the stack does).
            self._source.close()

    def __enter__(self) -> "SamplingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pick_start(self, offset: int = 0) -> NodeId:
        """Draw a uniformly random start node with degree >= 1."""
        if isinstance(self._seed, (int, np.integer)):
            seed = derive_seed(int(self._seed), 977, offset)
        else:
            seed = self._seed
        return pick_start_node(self.api, make_rng(seed))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        from .middleware import describe_stack

        return (
            f"SamplingSession(walker={self._walker_name!r}, "
            f"stack={describe_stack(self.api)!r})"
        )

