"""Command-line interface for the paper's experiments and ad-hoc crawls.

Usage::

    python -m repro.cli list
    python -m repro.cli table1
    python -m repro.cli figure6 --trials 10 --scale 0.3
    python -m repro.cli figure9 --out results/
    python -m repro.cli all --out results/
    python -m repro.cli walk --dataset facebook_like --walker cnrw --budget 500
    python -m repro.cli walk --walker cnrw --walkers 8 --budget 500
    python -m repro.cli sweep --sweep-walkers srw,cnrw --budgets 100,200 --jobs 4
    python -m repro.cli snapshot --dataset facebook_like --out snapshots/fb
    python -m repro.cli walk --source snapshots/fb --walker cnrw --budget 500
    python -m repro.cli replay --record --dump crawl.jsonl --walker cnrw --budget 200
    python -m repro.cli replay --dump crawl.jsonl --walker cnrw --budget 200

Each figure command runs the corresponding experiment definition from
:mod:`repro.experiments.figures`, prints the measured series in the paper's
layout and, when ``--out`` is given, writes one CSV per result table into that
directory.  The ``walk`` command drives a budgeted crawl through the
:class:`~repro.api.session.SamplingSession` facade — the same access-layer
stack the experiments use — and reports the query cost, the estimate and the
simulated crawl time under the chosen rate limit; ``--walkers N`` runs an
N-walker ensemble through the batched
:class:`~repro.engine.scheduler.WalkScheduler` and pools the samples.  The
``sweep`` command runs a custom error-versus-cost sweep, optionally fanned out
over a process pool with ``--jobs``.

The storage commands persist graphs on disk (see :mod:`repro.storage`):
``snapshot`` compiles a dataset into a versioned memory-mapped CSR snapshot
directory that any later ``walk --source`` serves without rebuilding, and
``replay`` either records a traced crawl to a JSONL dump (``--record``) or
replays an existing dump offline as the walk's backend.

``serve`` exposes any graph source — a dataset, snapshot directory or crawl
dump — as a JSON-over-HTTP graph service (see :mod:`repro.server`)::

    python -m repro.cli serve --source snapshots/fb --port 8642
    python -m repro.cli walk --source http://127.0.0.1:8642 --walker cnrw --budget 500

A ``walk --source URL`` drives the remote service through
:class:`~repro.api.remote.HTTPGraphBackend` and is bit-identical to the same
walk over the served files locally.  The service also answers ``POST /walk``
(whole walks run server-side in one round trip) and ``GET /stats``;
``--tenants tenants.json`` maps API keys to per-tenant query budgets and
rate limits, and ``--access-log FILE`` appends one JSON line per request::

    python -m repro.cli serve --source snapshots/fb --port 8642 --tenants tenants.json

The cluster commands scale the service tier horizontally (see
:mod:`repro.cluster`): ``partition`` splits a CSR snapshot into N per-shard
snapshot directories plus a ``cluster.json`` manifest (consistent-hashed by
node id; ``--replicas k`` stores every node on its k successor shards so
reads survive a dead shard), ``repartition`` re-balances an existing
cluster directory to a new shard count / replica factor while bumping the
manifest epoch, and ``serve-cluster`` boots every shard of a manifest as
its own HTTP server::

    python -m repro.cli partition --source snapshots/fb --out cluster --shards 3 --replicas 2
    python -m repro.cli serve-cluster --source cluster --port 8700
    python -m repro.cli walk --source cluster/cluster.json --walker cnrw
    python -m repro.cli walk --source cluster://127.0.0.1:8700,127.0.0.1:8701,127.0.0.1:8702
    python -m repro.cli repartition --source cluster --shards 4

A sharded walk routes every fetch to the owning shard — round-robin across
live replicas when the layout is replicated, failing over on shard death —
and is bit-identical to the same walk over the unpartitioned graph.
``serve`` and ``serve-cluster`` shut down gracefully on SIGTERM/SIGINT:
keep-alive sockets are drained and the process exits 0.

The warehouse commands (see :mod:`repro.warehouse`) merge crawls into one
queryable WAL-mode SQLite store and take their own sub-arguments::

    python -m repro.cli warehouse ingest --store wh.sqlite crawl1.jsonl crawl2.jsonl
    python -m repro.cli warehouse stats --store wh.sqlite
    python -m repro.cli warehouse export --store wh.sqlite --out merged.jsonl
    python -m repro.cli walk --source wh.sqlite --walker cnrw --budget 500

``ingest`` creates the store on first use and accepts any graph source
(crawl dumps, CSR snapshots, even another warehouse), deduplicating nodes
across crawls and refusing contradictory ones; ``stats`` prints the
aggregates and the per-crawl provenance log; ``export`` writes the merged
store back out as a crawl dump or (for complete stores) a CSR snapshot.

``trace`` pretty-prints a JSONL span trace captured through the telemetry
layer (see :mod:`repro.obs`) as an indented per-trace tree::

    python -m repro.cli trace ensemble-trace.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

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


def _run_table1(args: argparse.Namespace, out_dir: Optional[Path]) -> None:
    summaries = table1(seed=args.seed, scale=args.scale)
    print("Table 1: summary of the datasets")
    print(render_dataset_summaries(summaries))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "table1.csv"
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


def _policy_from_args(args: argparse.Namespace):
    """Resolve --rate-limit into a policy (shared by walk and replay --record)."""
    from .api import twitter_policy, yelp_policy

    return {"none": None, "twitter": twitter_policy(), "yelp": yelp_policy()}[args.rate_limit]


def _reject_source_conflicts(args: argparse.Namespace) -> None:
    """Refuse dataset-shaping flags combined with --source.

    The backend kind, dataset and scale are baked into the served files, so a
    conflicting ask must error rather than be silently dropped (shared by
    'walk' and 'serve').
    """
    for flag, value in (("--backend", args.backend),
                        ("--dataset", args.dataset),
                        ("--scale", args.scale)):
        if value is not None:
            raise ValueError(
                f"{flag} does not apply to --source (the graph is read "
                f"as-is from the snapshot/dump files)"
            )


def _budget_from_args(args: argparse.Namespace) -> Optional[int]:
    """Resolve --budget, defaulting to a terminating 500 when --steps is unset."""
    if args.budget is None and args.steps is None:
        return 500  # matches the quickstart default
    return args.budget


def _run_walk(args: argparse.Namespace) -> None:
    """Run a budgeted crawl (single walk or scheduled ensemble)."""
    from .api import GraphBackend, as_backend
    from .graphs import load_dataset

    from .storage import ReplayBackend

    graph = None
    start = None
    if args.source is not None:
        _reject_source_conflicts(args)
        from .api import HTTPGraphBackend

        source = as_backend(args.source)
        if isinstance(source, ReplayBackend):
            # The dump preserves first-query order, so starting at the first
            # record replays the recorded crawl (same walker + seed) instead
            # of straying straight into a ReplayMissError.
            start = source.recorded_start
            if start is None:
                raise ValueError(f"crawl dump {args.source} contains no records")
        elif isinstance(source, HTTPGraphBackend):
            # A remote server may itself be replay-backed; /info then carries
            # the dump's recorded start (duck-typed off recorded_start, so
            # wrappers work too) and the restart costs nothing beyond the
            # descriptor fetch.
            info = source.info()
            start = info.get("start")
            if start is None and info.get("backend") == "ReplayBackend":
                raise ValueError(
                    f"replay served at {args.source} contains no records"
                )
        print(f"Source: {source.name} from {args.source} with {len(source)} nodes")
    else:
        graph = load_dataset(args.dataset or "facebook_like", seed=args.seed, scale=args.scale or 1.0)
        source = graph
        print(f"Graph: {graph.name} with {graph.number_of_nodes} nodes, "
              f"{graph.number_of_edges} edges")
    if args.start is not None:
        # An explicit start overrides even a replay's recorded start: the
        # user asked for this node, and a replay that never crawled it will
        # report the miss in the usual friendly way.
        import json

        try:
            start = json.loads(args.start)
        except ValueError:
            start = args.start  # bare word: treat as a string id
    try:
        _drive_walk(args, source, graph, start)
    finally:
        # Release whatever the source holds (remote keep-alive sockets,
        # one per shard of a cluster); local backends close as a no-op.
        if isinstance(source, GraphBackend):
            source.close()


def _drive_walk(args: argparse.Namespace, source, graph, start) -> None:
    """Drive the configured walk/ensemble over an already-resolved source."""
    from .api import SamplingSession, estimate_crawl_time
    from .estimation import AggregateQuery, ground_truth
    from .metrics import relative_error

    policy = _policy_from_args(args)
    budget = _budget_from_args(args)
    session = SamplingSession(source, seed=args.seed).walker(args.walker, seed=args.seed)
    if graph is not None:
        session.backend(args.backend or "memory")
    if budget is not None:
        session.budget(budget)
    if policy is not None:
        session.rate_limit(policy)
    from .exceptions import ReplayMissError

    backend_label = (args.backend or "memory") if graph is not None else source.name
    try:
        if args.walkers > 1:
            starts = [start] * args.walkers if start is not None else None
            results = session.run_ensemble(
                args.walkers, steps=args.steps, seed=args.seed, starts=starts,
                burn_in=args.burn_in, thinning=args.thinning,
                mode=getattr(args, "engine", "scalar"),
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
              f"batched {getattr(args, 'engine', 'scalar')} scheduler): {steps} steps total, "
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
    from .graphs import load_dataset
    from .server import GraphService, serve_backend

    if args.async_server:
        print("note: --async is deprecated and ignored; serving the threaded "
              "frontend", file=sys.stderr, flush=True)

    if args.source is not None:
        _reject_source_conflicts(args)
        backend = as_backend(args.source)
    else:
        graph = load_dataset(args.dataset or "facebook_like", seed=args.seed,
                             scale=args.scale or 1.0)
        backend = as_backend(graph)
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

    if args.source is None:
        raise ValueError("partition requires --source SNAPSHOT_DIR to split")
    if args.out is None:
        raise ValueError("partition requires --out DIRECTORY to write into")
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

    if args.source is None:
        raise ValueError(
            "repartition requires --source CLUSTER_DIR (or cluster.json)"
        )
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

    if args.source is None:
        raise ValueError(
            "serve-cluster requires --source CLUSTER_DIR (or cluster.json)"
        )
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
    from .graphs import load_dataset
    from .storage import load_snapshot, save_snapshot

    if args.out is None:
        raise ValueError("snapshot requires --out DIRECTORY to write into")
    graph = load_dataset(args.dataset or "facebook_like", seed=args.seed, scale=args.scale or 1.0)
    directory = save_snapshot(graph, args.out)
    backend = load_snapshot(directory)  # open mmapped to verify the round trip
    print(f"Snapshot of {graph.name}: {len(backend)} nodes, "
          f"{backend.number_of_edges} edges")
    print(f"wrote {directory} (reopen with: python -m repro.cli walk "
          f"--source {directory})")


def _run_replay(args: argparse.Namespace) -> None:
    """Record a traced crawl to a JSONL dump, or replay one offline."""
    from .api import SamplingSession
    from .graphs import load_dataset

    if args.dump is None:
        raise ValueError("replay requires --dump FILE (the crawl dump to "
                         "write with --record, or to replay)")
    if args.record:
        if args.walkers > 1:
            raise ValueError(
                "replay --record captures a single walk; --walkers is not "
                "supported (record one walk, or dump a full node set via the "
                "library's dump_crawl)"
            )
        from .api import estimate_crawl_time

        policy = _policy_from_args(args)
        budget = _budget_from_args(args)
        graph = load_dataset(args.dataset or "facebook_like", seed=args.seed, scale=args.scale or 1.0)
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
            max_steps=args.steps, burn_in=args.burn_in, thinning=args.thinning
        )
        path = session.dump_crawl(args.dump, name=f"{graph.name}:{args.walker}")
        print(f"Recorded {args.walker} crawl over {graph.name}: "
              f"{result.steps} steps, {session.unique_queries} unique queries")
        print(f"wrote {path} ({session.unique_queries} records)")
        if policy is not None:
            seconds = estimate_crawl_time(session.unique_queries, policy)
            print(f"Simulated crawl time under the {args.rate_limit} limit: "
                  f"{seconds / 3600:.2f} hours")
        return
    # Replaying a dump is exactly 'walk --source DUMP' (restart at the
    # recorded start node, friendly out-of-dump reporting); delegate so the
    # two paths cannot drift apart.  The dataset-shaping flags described the
    # *recording* run — drop them so the exact command line that recorded a
    # dump replays it by just removing --record.
    args.source = args.dump
    args.dataset = None
    args.scale = None
    args.backend = None
    _run_walk(args)


def _run_sweep(args: argparse.Namespace, out_dir: Optional[Path]) -> None:
    """Run a custom cost sweep, optionally fanned out over a process pool."""
    from .estimation import AggregateQuery
    from .experiments.config import CostSweepConfig, WalkerSpec
    from .experiments.runner import run_cost_sweep
    from .graphs import load_dataset

    walker_names = [name.strip() for name in args.sweep_walkers.split(",") if name.strip()]
    budgets = [int(value) for value in args.budgets.split(",") if value.strip()]
    graph = load_dataset(args.dataset or "facebook_like", seed=args.seed, scale=args.scale or 0.5)
    config = CostSweepConfig(
        walkers=tuple(WalkerSpec.make(name) for name in walker_names),
        query=AggregateQuery.average_degree(),
        budgets=tuple(budgets),
        trials=args.trials if args.trials is not None else 10,
        seed=args.seed,
    )
    engine = getattr(args, "engine", "scalar")
    print(f"Sweep over {graph.name}: walkers={','.join(walker_names)} "
          f"budgets={budgets} trials={config.trials} jobs={args.jobs} "
          f"engine={engine}")
    report = run_cost_sweep(graph, config, title=f"sweep {args.dataset or 'facebook_like'}",
                            jobs=args.jobs, engine=engine)
    _print_and_save(report, out_dir)


def _warehouse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli warehouse",
        description="Ingest, inspect and export a queryable crawl warehouse "
        "(a WAL-mode SQLite store merging any number of crawls; see "
        "repro.warehouse).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ingest = sub.add_parser(
        "ingest",
        help="merge one or more graph sources into the store "
        "(created on first use)",
    )
    ingest.add_argument(
        "--store", type=Path, required=True,
        help="warehouse .sqlite file (created if missing)",
    )
    ingest.add_argument(
        "--name", default=None,
        help="store name when creating a fresh warehouse (default: the stem "
        "of the store path)",
    )
    ingest.add_argument(
        "sources", nargs="+",
        help="graph sources to ingest, in order: crawl-dump files, CSR "
        "snapshot directories, or other warehouse .sqlite stores",
    )
    stats = sub.add_parser(
        "stats", help="print store aggregates and the per-crawl provenance log"
    )
    stats.add_argument("--store", type=Path, required=True,
                       help="warehouse .sqlite file to inspect")
    export = sub.add_parser(
        "export",
        help="write the merged store back out as a crawl dump or CSR snapshot",
    )
    export.add_argument("--store", type=Path, required=True,
                        help="warehouse .sqlite file to export from")
    export.add_argument("--out", type=Path, required=True,
                        help="output path: a .jsonl/.gz file for a dump, a "
                        "directory for a snapshot")
    export.add_argument(
        "--format", choices=["dump", "snapshot"], default=None,
        help="output format (default: inferred from --out — file-like "
        "suffixes .jsonl/.json/.gz mean dump, anything else snapshot)",
    )
    return parser


def _run_warehouse(argv: Sequence[str]) -> int:
    """Drive ``warehouse ingest|stats|export`` (own sub-parser, exit code)."""
    from .exceptions import ReproError
    from .warehouse import CrawlWarehouse

    args = _warehouse_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            if args.store.exists():
                if args.name is not None:
                    raise ValueError(
                        f"--name only applies when creating a fresh store; "
                        f"{args.store} already exists"
                    )
                warehouse = CrawlWarehouse.open(args.store)
            else:
                warehouse = CrawlWarehouse.create(args.store, name=args.name)
            try:
                for source in args.sources:
                    report = warehouse.ingest(source)
                    print(report.describe())
                stats = warehouse.stats()
                print(f"store {args.store}: {stats['nodes']} nodes, "
                      f"{stats['edge_rows']} edge rows, "
                      f"{stats['meta_records']} boundary records, "
                      f"{stats['crawls']} crawls")
            finally:
                warehouse.close()
        elif args.command == "stats":
            warehouse = CrawlWarehouse.open(args.store)
            try:
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
            finally:
                warehouse.close()
        else:  # export
            fmt = args.format
            if fmt is None:
                suffixes = {piece.lower() for piece in args.out.suffixes}
                fmt = ("dump" if suffixes & {".jsonl", ".json", ".gz"}
                       else "snapshot")
            warehouse = CrawlWarehouse.open(args.store)
            try:
                if fmt == "dump":
                    path = warehouse.export_dump(args.out)
                    print(f"wrote {path} ({len(warehouse)} records; replay "
                          f"with: python -m repro.cli walk --source {path})")
                else:
                    path = warehouse.export_snapshot(args.out)
                    print(f"wrote {path} ({len(warehouse)} nodes; reopen "
                          f"with: python -m repro.cli walk --source {path})")
            finally:
                warehouse.close()
    except (ReproError, ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli trace",
        description="Pretty-print a JSONL span trace exported by "
        "SamplingSession.trace_export() as an indented per-trace tree.",
    )
    parser.add_argument(
        "path", type=Path,
        help="JSONL trace file (one span object per line, '-' for stdin)",
    )
    return parser


def _run_trace(argv: Sequence[str]) -> int:
    """Drive ``trace FILE`` (own sub-parser, exit code)."""
    from . import obs

    args = _trace_parser().parse_args(argv)
    try:
        if str(args.path) == "-":
            lines = sys.stdin.read().splitlines()
        else:
            lines = args.path.read_text(encoding="utf-8").splitlines()
        spans = [json.loads(line) for line in lines if line.strip()]
        if not spans:
            raise ValueError(f"no spans in {args.path}")
        print(obs.render_trace_tree(spans))
    except (ValueError, FileNotFoundError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _experiment_kwargs(name: str, args: argparse.Namespace) -> Dict[str, object]:
    """Build the keyword arguments accepted by a given experiment function."""
    kwargs: Dict[str, object] = {"seed": args.seed}
    # figure11 / theorem3 have no scale parameter; everything else does.
    if name not in ("figure11", "theorem3"):
        kwargs["scale"] = args.scale
    if args.trials is not None and name not in ("figure8",):
        kwargs["trials"] = args.trials
    return kwargs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the tables and figures of the VLDB 2015 paper "
        "'Leveraging History for Faster Sampling of Online Social Networks'.",
    )
    parser.add_argument(
        "experiment",
        choices=["list", "all", "table1", "walk", "sweep", "snapshot", "replay",
                 "serve", "partition", "repartition", "serve-cluster",
                 *EXPERIMENTS.keys()],
        help="experiment to run ('list' prints the available names; 'walk' runs "
        "a budgeted crawl through the SamplingSession facade; 'sweep' runs a "
        "custom cost sweep, optionally across --jobs worker processes; "
        "'snapshot' persists a dataset as a memory-mapped CSR snapshot "
        "directory; 'replay' records a traced crawl to a JSONL dump or "
        "replays one offline; 'serve' exposes a graph source as a "
        "JSON-over-HTTP service that 'walk --source URL' drives remotely; "
        "'partition' splits a snapshot into consistent-hashed shard "
        "snapshots plus a cluster.json manifest; 'serve-cluster' boots every "
        "shard of a manifest as its own HTTP server)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale multiplier (default: each experiment's own default)",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="number of independent trials per point (default: experiment default)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory to write result CSV files into"
    )
    walk = parser.add_argument_group("walk options")
    walk.add_argument(
        "--dataset", default=None,
        help="dataset name for 'walk'/'sweep'/'snapshot'/'replay --record' "
        "(default facebook_like; not applicable with --source)",
    )
    walk.add_argument(
        "--walker", default="cnrw", help="sampler name for 'walk' (default cnrw)"
    )
    walk.add_argument(
        "--backend", choices=["memory", "csr"], default=None,
        help="storage backend for 'walk' over a --dataset (default memory; "
        "not applicable with --source, whose kind is baked into the files)",
    )
    walk.add_argument(
        "--budget", type=int, default=None,
        help="unique-query budget for 'walk' (default 500 when --steps is unset)",
    )
    walk.add_argument(
        "--steps", type=int, default=None, help="maximum walk steps for 'walk'"
    )
    walk.add_argument("--burn-in", type=int, default=0, help="burn-in steps for 'walk'")
    walk.add_argument("--thinning", type=int, default=1, help="sample thinning for 'walk'")
    walk.add_argument(
        "--rate-limit", choices=["none", "twitter", "yelp"], default="none",
        help="simulated rate-limit policy for 'walk' (default none)",
    )
    walk.add_argument(
        "--start", default=None,
        help="explicit start node for 'walk', JSON-encoded (5 is the integer "
        "id, '\"5\"' the string id; bare words are taken as strings). "
        "Default: a random non-isolated node — note that the random draw "
        "depends on the backend's node order, so comparing a walk across "
        "backends (local vs remote vs sharded) needs an explicit start",
    )
    walk.add_argument(
        "--walkers", type=int, default=1,
        help="number of lockstep walkers for 'walk' (>1 runs a batched "
        "WalkScheduler ensemble and pools the samples; default 1)",
    )
    walk.add_argument(
        "--engine", choices=["scalar", "vector"], default="scalar",
        help="execution engine for 'walk' ensembles and 'sweep' trials "
        "(default scalar). 'vector' advances the whole ensemble in "
        "array-native numpy kernels over a CSR backend under its own seed "
        "lineage; configurations the vector engine cannot run (non-CSR "
        "sources, gnrw/nbcnrw/weighted walkers, rate limits, traces) fall "
        "back to the scalar scheduler with a warning",
    )
    walk.add_argument(
        "--source", default=None,
        help="graph source for 'walk'/'serve'/'partition'/'serve-cluster' "
        "instead of --dataset: a CSR snapshot directory (served "
        "memory-mapped), a crawl-dump file (replayed offline), a crawl "
        "warehouse .sqlite store (served through its WAL readers), an "
        "http(s):// URL of a 'serve' instance (driven remotely), or a "
        "cluster.json manifest / cluster://host:port,... shard list "
        "(driven through the sharded tier)",
    )
    storage = parser.add_argument_group("snapshot / replay options")
    storage.add_argument(
        "--dump", type=Path, default=None,
        help="crawl-dump file for 'replay' ('.gz' suffix gzip-compresses); "
        "written when --record is given, replayed otherwise",
    )
    storage.add_argument(
        "--record", action="store_true",
        help="for 'replay': run a traced --walker crawl over --dataset and "
        "record every fetched neighborhood to --dump",
    )
    serve = parser.add_argument_group("serve options")
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for 'serve'/'serve-cluster' (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8000,
        help="port for 'serve' (default 8000; 0 binds an ephemeral port, "
        "printed at startup); for 'serve-cluster' the base port — shard i "
        "binds port+i (0 gives every shard its own ephemeral port)",
    )
    # Accepted so existing launch scripts keep working; it names a removed
    # asyncio frontend and now only prints a deprecation notice.
    serve.add_argument(
        "--async", dest="async_server", action="store_true", help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--tenants", type=Path, default=None,
        help="tenants.json policy file for 'serve': maps API keys to named "
        "tenants with per-tenant query budgets and rate limits (requests "
        "then need a matching X-Api-Key header)",
    )
    serve.add_argument(
        "--access-log", type=Path, default=None,
        help="append one JSON line per request here ('serve')",
    )
    cluster = parser.add_argument_group("partition options")
    cluster.add_argument(
        "--shards", type=int, default=None,
        help="number of shards for 'partition' (default 3); for "
        "'repartition' the new shard count (default: keep)",
    )
    cluster.add_argument(
        "--vnodes", type=int, default=None,
        help="virtual nodes per shard on the consistent-hash ring for "
        "'partition' (default 64; more vnodes = more even shard sizes); for "
        "'repartition' the new vnode count (default: keep)",
    )
    cluster.add_argument(
        "--replicas", type=int, default=None,
        help="replica factor for 'partition' (default 1): every node is "
        "written to its k ring-successor shards so reads fail over when a "
        "shard dies; for 'repartition' the new factor (default: keep)",
    )
    sweep = parser.add_argument_group("sweep options")
    sweep.add_argument(
        "--sweep-walkers", default="srw,cnrw,gnrw_by_degree",
        help="comma-separated sampler names for 'sweep' "
        "(default srw,cnrw,gnrw_by_degree)",
    )
    sweep.add_argument(
        "--budgets", default="100,200,400",
        help="comma-separated unique-query budgets for 'sweep' (default 100,200,400)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for 'sweep' trials (default 1 = in-process; "
        "derived per-trial seeds keep any value bit-reproducible)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "warehouse":
        # The warehouse sub-commands take their own positional arguments
        # (ingest SOURCE...), which the single-positional main parser cannot
        # express; route them to a dedicated parser before it runs.
        return _run_warehouse(list(argv[1:]))
    if argv and argv[0] == "trace":
        return _run_trace(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("available experiments:")
        for name in ("table1", *EXPERIMENTS.keys()):
            print(f"  {name}")
        print("  walk (ad-hoc SamplingSession crawl; see --dataset/--walker/--budget/--walkers)")
        print("  sweep (custom cost sweep; see --sweep-walkers/--budgets/--trials/--jobs)")
        print("  snapshot (persist a dataset as a mmap CSR snapshot; see --dataset/--out)")
        print("  replay (record a traced crawl to --dump with --record, or replay one)")
        print("  serve (expose a graph source over JSON/HTTP; see --source/--host/"
              "--port, --tenants/--access-log for per-tenant policy)")
        print("  partition (split a snapshot into consistent-hashed shards; "
              "see --source/--out/--shards/--replicas)")
        print("  repartition (re-balance an existing cluster dir and bump its "
              "epoch; see --source/--shards/--replicas)")
        print("  serve-cluster (boot every shard of a cluster.json manifest; "
              "see --source/--host/--port)")
        print("  warehouse (merge crawls into a queryable SQLite store; "
              "warehouse ingest|stats|export --help)")
        print("  trace (pretty-print a JSONL span trace exported by "
              "SamplingSession.trace_export)")
        return 0

    if args.experiment in ("walk", "snapshot", "replay", "serve", "partition",
                           "repartition", "serve-cluster"):
        from .exceptions import ReproError

        handler = {"walk": _run_walk, "snapshot": _run_snapshot,
                   "replay": _run_replay, "serve": _run_serve,
                   "partition": _run_partition,
                   "repartition": _run_repartition,
                   "serve-cluster": _run_serve_cluster}
        try:
            handler[args.experiment](args)
        except (ReproError, ValueError, FileNotFoundError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0

    if args.experiment == "sweep":
        from .exceptions import ReproError

        try:
            _run_sweep(args, args.out)
        except (ReproError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0

    out_dir: Optional[Path] = args.out
    names: List[str]
    if args.experiment == "all":
        names = ["table1", *EXPERIMENTS.keys()]
    else:
        names = [args.experiment]

    for name in names:
        print(f"=== running {name} ===")
        if name == "table1":
            table_args = argparse.Namespace(
                seed=args.seed, scale=args.scale if args.scale is not None else 0.5
            )
            _run_table1(table_args, out_dir)
            print()
            continue
        function = EXPERIMENTS[name]
        kwargs = _experiment_kwargs(name, args)
        if args.scale is None:
            kwargs.pop("scale", None)
        reports = function(**kwargs)
        _print_and_save(reports, out_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
