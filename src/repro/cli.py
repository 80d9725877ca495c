"""Command-line interface for the paper's experiments and ad-hoc crawls.

Every command is a sub-command that accepts only the flags it reads
(``python -m repro.cli <command> --help`` lists them); a flag the command
does not read is refused with exit code 2 instead of being silently
dropped::

    python -m repro.cli list                       # every command, one line each
    python -m repro.cli table1 --scale 0.3
    python -m repro.cli figure6 --trials 10 --scale 0.3 --out results/
    python -m repro.cli all --out results/

``table1``, the figure/ablation commands (one per entry of
:data:`EXPERIMENTS`) and ``all`` run the experiment definitions of
:mod:`repro.experiments.figures`, print the measured series in the paper's
layout and, with ``--out``, write one CSV per result table.  An experiment
command takes ``--scale``/``--trials`` exactly when its function has those
parameters (``figure11 --scale`` is refused).

Crawls run through the :class:`~repro.api.session.SamplingSession` facade::

    python -m repro.cli walk --dataset facebook_like --walker cnrw --budget 500
    python -m repro.cli walk --walker cnrw --walkers 8 --budget 500
    python -m repro.cli sweep --sweep-walkers srw,cnrw --budgets 100,200 --jobs 4

``walk`` reports the query cost, the estimate and the simulated crawl time
under ``--rate-limit``; ``--walkers N`` runs a batched
:class:`~repro.engine.scheduler.WalkScheduler` ensemble.  ``sweep`` runs an
error-versus-cost sweep, optionally over a process pool (``--jobs``).

Storage (:mod:`repro.storage`), serving (:mod:`repro.server`), the sharded
tier (:mod:`repro.cluster`) and the crawl warehouse (:mod:`repro.warehouse`)::

    python -m repro.cli snapshot --dataset facebook_like --out snapshots/fb
    python -m repro.cli walk --source snapshots/fb --walker cnrw --budget 500
    python -m repro.cli replay --record --dump crawl.jsonl --walker cnrw --budget 200
    python -m repro.cli replay --dump crawl.jsonl --walker cnrw --budget 200
    python -m repro.cli serve --source snapshots/fb --port 8642 --tenants tenants.json
    python -m repro.cli walk --source http://127.0.0.1:8642 --walker cnrw
    python -m repro.cli partition --source snapshots/fb --out cluster --shards 3 --replicas 2
    python -m repro.cli repartition --source cluster --shards 4
    python -m repro.cli serve-cluster --source cluster --port 8700
    python -m repro.cli walk --source cluster://127.0.0.1:8700,127.0.0.1:8701,127.0.0.1:8702
    python -m repro.cli warehouse ingest --store wh.sqlite crawl1.jsonl crawl2.jsonl
    python -m repro.cli warehouse stats --store wh.sqlite
    python -m repro.cli warehouse export --store wh.sqlite --out merged.jsonl
    python -m repro.cli trace ensemble-trace.jsonl

``walk --source`` takes a snapshot directory, crawl dump, warehouse store,
``http(s)://`` URL, ``cluster.json`` or ``cluster://`` shard list, and a
walk over any of them is bit-identical to the same walk over the local
files.  ``replay`` without ``--record`` is ``walk --source DUMP`` restarted
at the recorded start node; it ignores ``--dataset``/``--scale``, so the
command line that recorded a dump replays it once ``--record`` is dropped.
``serve`` and ``serve-cluster`` exit 0 on SIGTERM/SIGINT after draining
their keep-alive sockets.  ``trace`` pretty-prints a JSONL span trace from
:mod:`repro.obs` as an indented per-trace tree.

:func:`main` returns 0 on success and 2 on a usage error (unknown command,
missing required flag, flag the command does not read) or a library,
value or I/O error, printed as ``error: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import signal
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from .experiments import (
    ablation_recurrence,
    figure6,
    figure7_facebook,
    figure7_youtube,
    figure8,
    figure9,
    figure10,
    figure11,
    render_dataset_summaries,
    render_report,
    table1,
    theorem3_escape,
)
from .experiments.results import ExperimentReport

#: Experiment name -> callable returning a report or a list of reports.
EXPERIMENTS: Dict[str, Callable] = {
    "figure6": figure6,
    "figure7_facebook": figure7_facebook,
    "figure7_youtube": figure7_youtube,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "theorem3": theorem3_escape,
    "ablation_recurrence": ablation_recurrence,
}


def _print_and_save(reports, out_dir: Optional[Path]) -> None:
    if isinstance(reports, ExperimentReport):
        reports = [reports]
    for report in reports:
        print(render_report(report))
        print()
        if out_dir is not None:
            paths = report.to_csv_files(out_dir)
            for path in paths:
                print(f"wrote {path}")


def _run_table1(args: argparse.Namespace) -> None:
    summaries = table1(seed=args.seed, scale=args.scale if args.scale is not None else 0.5)
    print("Table 1: summary of the datasets")
    print(render_dataset_summaries(summaries))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "table1.csv"
        lines = ["name,nodes,edges,average_degree,average_clustering,triangles"]
        for summary in summaries:
            record = summary.as_dict()
            lines.append(
                ",".join(str(record[key]) for key in (
                    "name", "nodes", "edges", "average_degree", "average_clustering", "triangles"
                ))
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")


def _run_experiments(args: argparse.Namespace) -> None:
    """Run ``args.names`` in order, passing each the flags its signature takes."""
    for name in args.names:
        print(f"=== running {name} ===")
        if name == "table1":
            _run_table1(args)
            print()
            continue
        function = EXPERIMENTS[name]
        params = inspect.signature(function).parameters
        # A single experiment's parser has exactly the flags in its signature;
        # 'all' has every flag, and unset ones keep the experiment's default.
        kwargs = {key: getattr(args, key) for key in ("seed", "scale", "trials")
                  if key in params and getattr(args, key) is not None}
        _print_and_save(function(**kwargs), args.out)


def _run_list(args: argparse.Namespace) -> None:
    print("available commands:")
    for name, parser in args.commands.items():
        print(f"  {name:<20} {parser.description}")


def _policy_from_args(args: argparse.Namespace):
    """Resolve --rate-limit into a policy (shared by walk and replay --record)."""
    from .api import twitter_policy, yelp_policy

    return {"none": None, "twitter": twitter_policy(), "yelp": yelp_policy()}[args.rate_limit]


def _reject_source_conflicts(**flags) -> None:
    """Refuse dataset-shaping flags combined with --source.

    The backend kind, dataset and scale are baked into the served files, so a
    conflicting ask must error rather than be silently dropped (shared by
    'walk' and 'serve').
    """
    for flag, value in flags.items():
        if value is not None:
            raise ValueError(
                f"--{flag} does not apply to --source (the graph is read "
                f"as-is from the snapshot/dump files)"
            )


def _budget_from_args(args: argparse.Namespace) -> Optional[int]:
    """Resolve --budget, defaulting to a terminating 500 when --steps is unset."""
    if args.budget is None and args.steps is None:
        return 500  # matches the quickstart default
    return args.budget


def _start_from_args(args: argparse.Namespace):
    """Decode --start: JSON (5 is the int id, '"5"' the string), else a bare string."""
    if args.start is None:
        return None
    try:
        return json.loads(args.start)
    except ValueError:
        return args.start


def _load_graph(args: argparse.Namespace, default_scale: float = 1.0):
    from .graphs import load_dataset

    return load_dataset(args.dataset or "facebook_like", seed=args.seed,
                        scale=args.scale or default_scale)


def _run_walk(args: argparse.Namespace) -> None:
    """Run a budgeted crawl (single walk or scheduled ensemble)."""
    if args.source is not None:
        _reject_source_conflicts(backend=args.backend, dataset=args.dataset,
                                 scale=args.scale)
        _walk_source(args, args.source)
        return
    graph = _load_graph(args)
    print(f"Graph: {graph.name} with {graph.number_of_nodes} nodes, "
          f"{graph.number_of_edges} edges")
    _drive_walk(args, graph, graph, _start_from_args(args), args.backend or "memory")


def _walk_source(args: argparse.Namespace, location) -> None:
    """Walk a stored or remote source, restarting a replay at its recorded start."""
    from .api import HTTPGraphBackend, as_backend
    from .storage import ReplayBackend

    source = as_backend(location)
    try:
        start = None
        if isinstance(source, ReplayBackend):
            # The dump preserves first-query order, so starting at the first
            # record replays the recorded crawl (same walker + seed) instead
            # of straying straight into a ReplayMissError.
            start = source.recorded_start
            if start is None:
                raise ValueError(f"crawl dump {location} contains no records")
        elif isinstance(source, HTTPGraphBackend):
            # A remote server may itself be replay-backed; /info then carries
            # the dump's recorded start (duck-typed off recorded_start, so
            # wrappers work too) and the restart costs nothing beyond the
            # descriptor fetch.
            info = source.info()
            start = info.get("start")
            if start is None and info.get("backend") == "ReplayBackend":
                raise ValueError(f"replay served at {location} contains no records")
        print(f"Source: {source.name} from {location} with {len(source)} nodes")
        # An explicit start overrides even a replay's recorded start: the
        # user asked for this node, and a replay that never crawled it
        # reports the miss in the usual friendly way.
        if args.start is not None:
            start = _start_from_args(args)
        _drive_walk(args, source, None, start, source.name)
    finally:
        # Release whatever the source holds (remote keep-alive sockets,
        # one per shard of a cluster); local backends close as a no-op.
        source.close()


def _drive_walk(args: argparse.Namespace, source, graph, start, backend_label: str) -> None:
    """Drive the configured walk/ensemble over an already-resolved source.

    ``graph`` is the in-memory dataset (``None`` for a stored or remote
    source); for a dataset, ``backend_label`` is also the backend kind.
    """
    from .api import SamplingSession, estimate_crawl_time
    from .estimation import AggregateQuery, ground_truth
    from .exceptions import ReplayMissError
    from .metrics import relative_error

    policy = _policy_from_args(args)
    budget = _budget_from_args(args)
    session = SamplingSession(source, seed=args.seed).walker(args.walker, seed=args.seed)
    if graph is not None:
        session.backend(backend_label)
    if budget is not None:
        session.budget(budget)
    if policy is not None:
        session.rate_limit(policy)
    try:
        if args.walkers > 1:
            starts = [start] * args.walkers if start is not None else None
            results = session.run_ensemble(
                args.walkers, steps=args.steps, seed=args.seed, starts=starts,
                burn_in=args.burn_in, thinning=args.thinning, mode=args.engine,
            )
        else:
            result = session.run(
                start=start, max_steps=args.steps,
                burn_in=args.burn_in, thinning=args.thinning,
            )
    except ReplayMissError as error:
        # Walking past the edge of a recorded crawl is an expected way for a
        # replay to end (e.g. a larger budget than the recording); report how
        # far it got instead of failing.
        print(f"walk left the recorded crawl after "
              f"{session.unique_queries} unique queries: {error}")
        return
    if args.walkers > 1:
        steps = sum(result.steps for result in results)
        samples = sum(result.num_samples for result in results)
        stopped = any(result.stopped_by_budget for result in results)
        print(f"Ensemble ({args.walkers} x {args.walker} over {backend_label} backend, "
              f"batched {args.engine} scheduler): {steps} steps total, "
              f"{session.unique_queries} unique / {session.total_queries} total queries, "
              f"{samples} pooled samples"
              + (", stopped by budget" if stopped else ""))
        has_samples = samples > 0
    else:
        print(f"Walk ({args.walker} over {backend_label} backend): {result.steps} steps, "
              f"{result.unique_queries} unique / {result.total_queries} total queries, "
              f"{result.num_samples} samples"
              + (", stopped by budget" if result.stopped_by_budget else ""))
        has_samples = result.num_samples > 0

    query = AggregateQuery.average_degree()
    if has_samples:
        answer = session.estimate(query)
        print(f"Estimated average degree: {answer.value:.3f}")
        if graph is not None:
            truth = ground_truth(graph, query)
            print(f"True average degree:      {truth:.3f}")
            print(f"Relative error:           {relative_error(answer.value, truth):.2%}")
    else:
        print("No samples collected (budget too small to leave the start node); "
              "no estimate available.")
    if policy is not None:
        seconds = estimate_crawl_time(session.unique_queries, policy)
        print(f"Simulated crawl time under the {args.rate_limit} limit: "
              f"{seconds / 3600:.2f} hours")


@contextlib.contextmanager
def _graceful_signals():
    """Convert SIGTERM/SIGINT into a clean ``SystemExit(0)`` while serving.

    CI and process supervisors stop a server with SIGTERM; without a handler
    the process dies with exit code 143 and never drains its keep-alive
    sockets.  Raising ``SystemExit`` interrupts the main thread's sleep loop
    (the server runs on its own thread) and unwinds through the caller's
    ``finally`` (which closes the server: shutdown, drain, join),
    so termination is indistinguishable from a clean exit.  Previous
    handlers are restored on the way out.
    """
    def _handle(signum, frame):
        raise SystemExit(0)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handle)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _run_serve(args: argparse.Namespace) -> None:
    """Serve a graph source over JSON/HTTP until interrupted."""
    import time

    from .api import as_backend
    from .server import GraphService, serve_backend

    if args.async_server:
        print("note: --async is deprecated and ignored; serving the threaded "
              "frontend", file=sys.stderr, flush=True)

    if args.source is not None:
        _reject_source_conflicts(dataset=args.dataset, scale=args.scale)
        backend = as_backend(args.source)
    else:
        backend = as_backend(_load_graph(args))
    service = GraphService(backend, tenants=args.tenants, access_log=args.access_log)
    server = serve_backend(service, host=args.host, port=args.port).start()
    # Handlers go in before the readiness banner: a supervisor (or CI) may
    # send SIGTERM the moment the banner appears.
    with _graceful_signals():
        try:
            print(f"Serving {backend.name} ({len(backend)} nodes) at {server.url}",
                  flush=True)
            print("endpoints: GET /info  "
                  "GET /node/<id>  POST /nodes  GET /meta/<id>  GET /node-ids  "
                  "POST /walk  GET /stats  GET /metrics", flush=True)
            if args.tenants is not None:
                print(f"tenants: {len(service.tenants)} "
                      f"(requests need an X-Api-Key header)", flush=True)
            # A wildcard bind address is not connectable; suggest a URL that is.
            port = server.server_address[1]
            reach = (f"http://<this-host>:{port}"
                     if args.host in ("0.0.0.0", "::") else server.url)
            print(f"walk it remotely with: python -m repro.cli walk "
                  f"--source {reach}", flush=True)
            while True:
                time.sleep(3600)
        except (KeyboardInterrupt, SystemExit):
            print("\nstopping (draining connections)", flush=True)
        finally:
            server.close()


def _run_partition(args: argparse.Namespace) -> None:
    """Split a CSR snapshot into consistent-hashed per-shard snapshots."""
    from .cluster import (
        CLUSTER_MANIFEST_NAME,
        DEFAULT_VNODES,
        load_cluster,
        partition_snapshot,
    )

    shards = args.shards if args.shards is not None else 3
    if shards < 1:
        raise ValueError("--shards must be at least 1")
    replicas = args.replicas if args.replicas is not None else 1
    out_dir = partition_snapshot(
        args.source, args.out, shards,
        vnodes=args.vnodes if args.vnodes is not None else DEFAULT_VNODES,
        replicas=replicas,
    )
    # Reopen through the manifest to verify the round trip end to end.
    with load_cluster(out_dir) as cluster:
        sizes = [len(shard) for shard in cluster.shard_backends]
        print(f"Partitioned {cluster.name.removeprefix('cluster:')} into "
              f"{shards} shards x{replicas} replicas ({len(cluster)} nodes: "
              f"{', '.join(map(str, sizes))})")
    print(f"wrote {out_dir / CLUSTER_MANIFEST_NAME} (walk it with: "
          f"python -m repro.cli walk --source {out_dir / CLUSTER_MANIFEST_NAME}; "
          f"serve it with: python -m repro.cli serve-cluster --source {out_dir})")


def _run_repartition(args: argparse.Namespace) -> None:
    """Re-balance an on-disk cluster to a new shard count / replica factor."""
    from .cluster import repartition

    if args.shards is not None and args.shards < 1:
        raise ValueError("--shards must be at least 1")
    report = repartition(
        args.source,
        shards=args.shards,
        replicas=args.replicas,
        vnodes=args.vnodes,
    )
    rebuilt = (", ".join(map(str, report["rebuilt"]))
               if report["rebuilt"] else "none")
    print(f"Repartitioned to {report['shards']} shards "
          f"x{report['replicas']} replicas at epoch {report['epoch']} "
          f"({report['nodes']} nodes; moved {report['moved']} node copies; "
          f"rebuilt shards: {rebuilt})")
    print("restart the shard servers on the new directories; clients holding "
          "the old manifest now refuse with a stale-manifest error")


def _run_serve_cluster(args: argparse.Namespace) -> None:
    """Boot every shard of a cluster manifest as its own HTTP server."""
    import time

    from .cluster import HashRing, read_cluster_manifest
    from .api import as_backend
    from .server import serve_backend

    manifest, base_dir = read_cluster_manifest(args.source)
    ring = HashRing.from_spec(manifest.get("ring"))
    entries = sorted(manifest["shards"], key=lambda entry: entry["shard"])
    servers = []
    # Handlers go in before any shard banner: a supervisor (or CI) may send
    # SIGTERM the moment the cluster announces itself.
    with _graceful_signals():
        try:
            for entry in entries:
                source = entry["source"]
                if isinstance(source, str) and source.startswith(("http://", "https://")):
                    raise ValueError(
                        f"shard {entry['shard']} of {args.source} is already a "
                        f"remote service ({source}); serve-cluster boots local "
                        f"shard directories only"
                    )
                backend = as_backend(str(base_dir / source))
                port = 0 if args.port == 0 else args.port + int(entry["shard"])
                server = serve_backend(backend, host=args.host, port=port).start()
                servers.append(server)
                print(f"Serving shard {entry['shard']}/{ring.shards} "
                      f"({len(backend)} nodes) at {server.url}", flush=True)
            ports = [server.server_address[1] for server in servers]
            host = "<this-host>" if args.host in ("0.0.0.0", "::") else args.host
            shard_list = ",".join(f"{host}:{port}" for port in ports)
            print(f"walk the cluster with: python -m repro.cli walk "
                  f"--source cluster://{shard_list}", flush=True)
            while True:
                time.sleep(3600)
        except (KeyboardInterrupt, SystemExit):
            print("\nstopping cluster (draining connections)", flush=True)
        finally:
            for server in servers:
                server.close()


def _run_snapshot(args: argparse.Namespace) -> None:
    """Compile a dataset into an on-disk memory-mapped CSR snapshot."""
    from .storage import load_snapshot, save_snapshot

    graph = _load_graph(args)
    directory = save_snapshot(graph, args.out)
    backend = load_snapshot(directory)  # open mmapped to verify the round trip
    print(f"Snapshot of {graph.name}: {len(backend)} nodes, "
          f"{backend.number_of_edges} edges")
    print(f"wrote {directory} (reopen with: python -m repro.cli walk "
          f"--source {directory})")


def _run_replay(args: argparse.Namespace) -> None:
    """Record a traced crawl to a JSONL dump, or replay one offline."""
    if not args.record:
        # Replaying a dump is exactly 'walk --source DUMP' (restart at the
        # recorded start node, friendly out-of-dump reporting).  --dataset
        # and --scale described the recording run and are ignored here, so
        # the command line that recorded a dump replays it without --record.
        _walk_source(args, args.dump)
        return
    if args.walkers > 1:
        raise ValueError(
            "replay --record captures a single walk; --walkers is not "
            "supported (record one walk, or dump a full node set via the "
            "library's dump_crawl)"
        )
    from .api import SamplingSession, estimate_crawl_time

    policy = _policy_from_args(args)
    budget = _budget_from_args(args)
    graph = _load_graph(args)
    session = (
        SamplingSession(graph, seed=args.seed)
        .trace()
        .walker(args.walker, seed=args.seed)
    )
    if budget is not None:
        session.budget(budget)
    if policy is not None:
        session.rate_limit(policy)
    result = session.run(
        start=_start_from_args(args), max_steps=args.steps,
        burn_in=args.burn_in, thinning=args.thinning,
    )
    path = session.dump_crawl(args.dump, name=f"{graph.name}:{args.walker}")
    print(f"Recorded {args.walker} crawl over {graph.name}: "
          f"{result.steps} steps, {session.unique_queries} unique queries")
    print(f"wrote {path} ({session.unique_queries} records)")
    if policy is not None:
        seconds = estimate_crawl_time(session.unique_queries, policy)
        print(f"Simulated crawl time under the {args.rate_limit} limit: "
              f"{seconds / 3600:.2f} hours")


def _run_sweep(args: argparse.Namespace) -> None:
    """Run a custom cost sweep, optionally fanned out over a process pool."""
    from .estimation import AggregateQuery
    from .experiments.config import CostSweepConfig, WalkerSpec
    from .experiments.runner import run_cost_sweep

    walker_names = [name.strip() for name in args.sweep_walkers.split(",") if name.strip()]
    budgets = [int(value) for value in args.budgets.split(",") if value.strip()]
    graph = _load_graph(args, default_scale=0.5)
    config = CostSweepConfig(
        walkers=tuple(WalkerSpec.make(name) for name in walker_names),
        query=AggregateQuery.average_degree(),
        budgets=tuple(budgets),
        trials=args.trials if args.trials is not None else 10,
        seed=args.seed,
    )
    print(f"Sweep over {graph.name}: walkers={','.join(walker_names)} "
          f"budgets={budgets} trials={config.trials} jobs={args.jobs} "
          f"engine={args.engine}")
    report = run_cost_sweep(graph, config, title=f"sweep {args.dataset or 'facebook_like'}",
                            jobs=args.jobs, engine=args.engine)
    _print_and_save(report, args.out)


def _run_warehouse_ingest(args: argparse.Namespace) -> None:
    from .warehouse import CrawlWarehouse

    if args.store.exists():
        if args.name is not None:
            raise ValueError(
                f"--name only applies when creating a fresh store; "
                f"{args.store} already exists"
            )
        warehouse = CrawlWarehouse.open(args.store)
    else:
        warehouse = CrawlWarehouse.create(args.store, name=args.name)
    with warehouse:
        for source in args.sources:
            print(warehouse.ingest(source).describe())
        stats = warehouse.stats()
        print(f"store {args.store}: {stats['nodes']} nodes, "
              f"{stats['edge_rows']} edge rows, "
              f"{stats['meta_records']} boundary records, "
              f"{stats['crawls']} crawls")


def _run_warehouse_stats(args: argparse.Namespace) -> None:
    from .warehouse import CrawlWarehouse

    with CrawlWarehouse.open(args.store) as warehouse:
        stats = warehouse.stats()
        print(f"warehouse {stats['name']} at {args.store}")
        print(f"  nodes:            {stats['nodes']}")
        print(f"  edge rows:        {stats['edge_rows']}")
        print(f"  boundary records: {stats['meta_records']}")
        print(f"  crawls:           {stats['crawls']}")
        if stats["average_degree"] is not None:
            print(f"  average degree:   {stats['average_degree']:.3f}")
            print(f"  max degree:       {stats['max_degree']}")
        for report in warehouse.crawl_log():
            print(report.describe())


def _run_warehouse_export(args: argparse.Namespace) -> None:
    from .warehouse import CrawlWarehouse

    fmt = args.format
    if fmt is None:
        suffixes = {piece.lower() for piece in args.out.suffixes}
        fmt = "dump" if suffixes & {".jsonl", ".json", ".gz"} else "snapshot"
    with CrawlWarehouse.open(args.store) as warehouse:
        if fmt == "dump":
            path = warehouse.export_dump(args.out)
            print(f"wrote {path} ({len(warehouse)} records; replay "
                  f"with: python -m repro.cli walk --source {path})")
        else:
            path = warehouse.export_snapshot(args.out)
            print(f"wrote {path} ({len(warehouse)} nodes; reopen "
                  f"with: python -m repro.cli walk --source {path})")


def _run_trace(args: argparse.Namespace) -> None:
    from . import obs

    if str(args.path) == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = args.path.read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines if line.strip()]
    if not spans:
        raise ValueError(f"no spans in {args.path}")
    print(obs.render_trace_tree(spans))


#: The start of argparse's missing-required-flag message.
_MISSING = "the following arguments are required: "


class _Parser(argparse.ArgumentParser):
    """An argument parser whose missing-flag error reads '<command> requires --flag'."""

    def error(self, message):
        if message.startswith(_MISSING):
            message = f"{self.prog.rsplit(' ', 1)[-1]} requires {message[len(_MISSING):]}"
        super().error(message)


def _summary(function: Callable) -> str:
    """The first line of an experiment function's docstring (its command help)."""
    return (function.__doc__ or function.__name__).strip().splitlines()[0]


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A help-less parser holding a flag set that commands share via ``parents=``."""
    return _Parser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro.cli",
        description="Regenerate the tables and figures of the VLDB 2015 paper "
        "'Leveraging History for Faster Sampling of Online Social Networks'. "
        "'python -m repro.cli COMMAND --help' lists a command's flags.",
    )
    commands = parser.add_subparsers(dest="experiment", metavar="command", required=True)

    def command(name, run, summary, *parents, subcommands=commands):
        sub = subcommands.add_parser(name, help=summary, description=summary,
                                     parents=list(parents))
        sub.set_defaults(run=run)
        return sub

    seed = _flags()
    seed.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    scale = _flags()
    scale.add_argument("--scale", type=float, default=None,
                       help="dataset scale multiplier (default: the command's own)")
    trials = _flags()
    trials.add_argument("--trials", type=int, default=None,
                        help="independent trials per point (default: the command's own)")
    results = _flags()
    results.add_argument("--out", type=Path, default=None,
                         help="directory to write result CSV files into")
    dataset = _flags(seed, scale)
    dataset.add_argument("--dataset", default=None,
                         help="dataset name (default facebook_like)")
    engine = _flags()
    engine.add_argument(
        "--engine", choices=["scalar", "vector"], default="scalar",
        help="execution engine for ensembles and sweep trials (default scalar). "
        "'vector' advances the whole ensemble in array-native numpy kernels "
        "over a CSR backend under its own seed lineage; configurations it "
        "cannot run (non-CSR sources, gnrw/nbcnrw/weighted walkers, rate "
        "limits, traces) fall back to the scalar scheduler with a warning",
    )
    crawl = _flags(dataset, engine)
    crawl.add_argument("--walker", default="cnrw", help="sampler name (default cnrw)")
    crawl.add_argument("--budget", type=int, default=None,
                       help="unique-query budget (default 500 when --steps is unset)")
    crawl.add_argument("--steps", type=int, default=None, help="maximum walk steps")
    crawl.add_argument("--burn-in", type=int, default=0, help="burn-in steps")
    crawl.add_argument("--thinning", type=int, default=1, help="sample thinning")
    crawl.add_argument("--rate-limit", choices=["none", "twitter", "yelp"], default="none",
                       help="simulated rate-limit policy (default none)")
    crawl.add_argument(
        "--start", default=None,
        help="explicit start node, JSON-encoded (5 is the integer id, '\"5\"' "
        "the string id; bare words are taken as strings).  Default: a random "
        "non-isolated node, whose draw depends on the backend's node order, so "
        "comparing a walk across backends needs an explicit start",
    )
    crawl.add_argument(
        "--walkers", type=int, default=1,
        help="number of lockstep walkers (>1 runs a batched WalkScheduler "
        "ensemble and pools the samples; default 1)",
    )
    listen = _flags()
    listen.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    listen.add_argument(
        "--port", type=int, default=8000,
        help="port (default 8000; 0 binds an ephemeral port, printed at "
        "startup); for serve-cluster the base port: shard i binds port+i",
    )
    ring = _flags()
    ring.add_argument("--shards", type=int, default=None,
                      help="shard count (partition default 3; repartition keeps the current)")
    ring.add_argument("--vnodes", type=int, default=None,
                      help="virtual nodes per shard on the consistent-hash ring "
                      "(partition default 64; repartition keeps the current)")
    ring.add_argument("--replicas", type=int, default=None,
                      help="replica factor: every node is stored on its k ring-successor "
                      "shards so reads fail over (partition default 1; repartition "
                      "keeps the current)")
    source_help = (
        "graph source instead of --dataset: a CSR snapshot directory, a "
        "crawl-dump file, a warehouse .sqlite store, an http(s):// URL of a "
        "'serve' instance, or a cluster.json manifest / cluster://host:port,... "
        "shard list"
    )

    listing = command("list", _run_list, "print every command with a one-line summary")
    listing.set_defaults(commands=commands.choices)
    command("all", _run_experiments, "run table1 and every experiment in turn",
            seed, scale, trials, results).set_defaults(names=["table1", *EXPERIMENTS])
    command("table1", _run_experiments, _summary(table1),
            seed, scale, results).set_defaults(names=["table1"])
    for name, function in EXPERIMENTS.items():
        params = inspect.signature(function).parameters
        optional = [flags for key, flags in (("scale", scale), ("trials", trials))
                    if key in params]
        command(name, _run_experiments, _summary(function),
                seed, *optional, results).set_defaults(names=[name])

    walk = command("walk", _run_walk, "run a budgeted crawl (or --walkers N ensemble) "
                   "through the SamplingSession facade", crawl)
    walk.add_argument("--backend", choices=["memory", "csr"], default=None,
                      help="storage backend for a --dataset graph (default memory)")
    walk.add_argument("--source", default=None, help=source_help)
    sweep = command("sweep", _run_sweep, "run an error-versus-cost sweep, optionally "
                    "over --jobs worker processes", dataset, trials, results, engine)
    sweep.add_argument("--sweep-walkers", default="srw,cnrw,gnrw_by_degree",
                       help="comma-separated sampler names (default srw,cnrw,gnrw_by_degree)")
    sweep.add_argument("--budgets", default="100,200,400",
                       help="comma-separated unique-query budgets (default 100,200,400)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = in-process; derived "
                       "per-trial seeds keep any value bit-reproducible)")
    snapshot = command("snapshot", _run_snapshot,
                       "persist a dataset as a memory-mapped CSR snapshot directory", dataset)
    snapshot.add_argument("--out", type=Path, required=True,
                          help="snapshot directory to write")
    replay = command("replay", _run_replay, "record a traced crawl to a dump (--record), "
                     "or replay one offline like 'walk --source DUMP'", crawl)
    replay.add_argument("--dump", type=Path, required=True,
                        help="crawl-dump file ('.gz' compresses): written with "
                        "--record, replayed otherwise (--dataset/--scale then ignored)")
    replay.add_argument("--record", action="store_true",
                        help="run a traced crawl over --dataset and record every "
                        "fetched neighborhood to --dump")

    serve = command("serve", _run_serve, "expose a graph source as a JSON-over-HTTP "
                    "service that 'walk --source URL' drives", dataset, listen)
    serve.add_argument("--source", default=None, help=source_help)
    serve.add_argument(
        "--tenants", type=Path, default=None,
        help="tenants.json policy file mapping API keys to tenants with their "
        "own query budgets and rate limits (requests then need X-Api-Key)",
    )
    serve.add_argument("--access-log", type=Path, default=None,
                       help="append one JSON line per request to this file")
    # Accepted so existing launch scripts keep working; it names a removed
    # asyncio frontend and now only prints a deprecation notice.
    serve.add_argument("--async", dest="async_server", action="store_true",
                       help=argparse.SUPPRESS)
    partition = command("partition", _run_partition, "split a snapshot into "
                        "consistent-hashed shard snapshots plus a cluster.json", ring)
    partition.add_argument("--source", required=True, help="CSR snapshot directory to split")
    partition.add_argument("--out", type=Path, required=True, help="cluster directory to write")
    command("repartition", _run_repartition, "re-balance a cluster directory in place "
            "and bump its manifest epoch", ring).add_argument(
        "--source", required=True, help="cluster directory (or its cluster.json)")
    command("serve-cluster", _run_serve_cluster, "boot every shard of a cluster "
            "manifest as its own HTTP server", listen).add_argument(
        "--source", required=True, help="cluster directory (or its cluster.json)")

    warehouse = command("warehouse", None, "merge crawls into a queryable SQLite "
                        "store: warehouse {ingest,stats,export}")
    actions = warehouse.add_subparsers(dest="command", metavar="action", required=True)
    ingest = command("ingest", _run_warehouse_ingest, "merge graph sources into the "
                     "store (created on first use)", subcommands=actions)
    ingest.add_argument("--store", type=Path, required=True,
                        help="warehouse .sqlite file (created if missing)")
    ingest.add_argument("--name", default=None,
                        help="store name when creating a fresh warehouse "
                        "(default: the stem of the store path)")
    ingest.add_argument("sources", nargs="+",
                        help="crawl-dump files, CSR snapshot directories or other "
                        "warehouse stores, ingested in order")
    command("stats", _run_warehouse_stats, "print store aggregates and the "
            "per-crawl provenance log", subcommands=actions).add_argument(
        "--store", type=Path, required=True, help="warehouse .sqlite file")
    export = command("export", _run_warehouse_export, "write the merged store out "
                     "as a crawl dump or CSR snapshot", subcommands=actions)
    export.add_argument("--store", type=Path, required=True, help="warehouse .sqlite file")
    export.add_argument("--out", type=Path, required=True,
                        help="a .jsonl/.gz file for a dump, a directory for a snapshot")
    export.add_argument("--format", choices=["dump", "snapshot"], default=None,
                        help="output format (default: .jsonl/.json/.gz suffixes "
                        "mean dump, anything else snapshot)")
    command("trace", _run_trace, "pretty-print a JSONL span trace from "
            "SamplingSession.trace_export as a per-trace tree").add_argument(
        "path", type=Path, help="JSONL trace file ('-' for stdin)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .exceptions import ReproError

    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # --help (0) or a usage error (2), already printed
        return stop.code
    try:
        args.run(args)
    except (ReproError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
