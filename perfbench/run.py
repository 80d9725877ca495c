"""The repo benchmark: one command, four workloads, end-to-end and per-layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload crawl-fresh --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with every probe off.
``--trace 1`` runs the workload half untraced and half traced (layer
wrappers plus an active span tracer), then the shared layer probes, and
prints the per-layer ledger.  The last stdout line is always one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are
the human-readable table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

# Run as a script: make the checkout root importable for ``perfbench.*``.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import SRC, BusyClock, client_peak_rss_mb, median, percentile, slowness  # noqa: E402

#: End-to-end metrics: name -> (unit, better).  Every workload reports all.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "steps_per_s": ("steps/s", "higher"),
    "queries_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "job_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Set-up repeats per run (the median is reported): opening a local source
#: takes about a millisecond, booting a server subprocess about half a second.
SETUP_REPEATS = {"crawl-fresh": 31, "ensemble-revisit": 31, "serve-mix": 7, "cluster-fanout": 7}
#: CPU-speed calibrations before and after a batch of local set-ups.
SETUP_CALIBRATIONS = 5
#: Operations (walk-level results) per job, for ``attempted``.
OPERATIONS = {"crawl-fresh": 1, "ensemble-revisit": 4, "serve-mix": 3, "cluster-fanout": 1}


def _print_table(title: str, rows) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def setup_workload(workload) -> float:
    """Set up several times (keeping the last); median reference seconds.

    Each set-up is timed on the busy clock of this process and the servers
    it booted, read once the workload is ready (a server's CPU clock counts
    from its start), and divided by the CPU's slowness.  A server boot takes
    about half a second, so each boot is divided by calibrations taken right
    after it.  Opening a local source takes about a millisecond, and a
    calibration between two openings would evict what the next one finds
    cached, so local set-ups are divided by calibrations taken before and
    after the whole batch.
    """
    factors = [slowness() for _ in range(SETUP_CALIBRATIONS)]
    timings = []
    repeats = SETUP_REPEATS[workload.name]
    for attempt in range(repeats):
        started = time.process_time()
        workload.setup()
        busy = BusyClock(workload.server_pids())() - started
        if workload.server_pids():
            busy /= median([slowness() for _ in range(3)])
        timings.append(busy)
        if attempt < repeats - 1:
            workload.teardown()
    if workload.server_pids():
        return median(timings)
    factors += [slowness() for _ in range(SETUP_CALIBRATIONS)]
    return median(timings) / median(factors)


def warm_up(workload) -> None:
    """One job per connection outside the window (lazy imports, first touch)."""
    from perfbench.workloads import run_window

    run_window(workload, 0.0, first_index=10 ** 6, min_jobs=1)
    if hasattr(workload, "after_warm_up"):
        workload.after_warm_up()


def tally(name: str, records):
    attempted = sum(OPERATIONS[name] for _ in records)
    failed = sum(min(OPERATIONS[name], record.failed_checks) for record in records)
    return attempted, failed


def throughput(window):
    """(steps/s, unique queries/s) over the whole window, in reference seconds."""
    records = window.records
    return (sum(r.steps for r in records) / window.seconds,
            sum(r.unique for r in records) / window.seconds)


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
            cache=None, corrupt_reference: bool = False) -> dict:
    """Run one workload and return the result (metrics plus table rows)."""
    from perfbench import inputs as inputs_module
    from perfbench.workloads import WORKLOADS, check_records, properties, run_window

    inputs = inputs_module.ensure(scale, cache or inputs_module.CACHE)
    workload = WORKLOADS[name](inputs, seed)
    workload.corrupt_reference = corrupt_reference
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        setup_s = setup_workload(workload)
        warm_up(workload)
        if not trace:
            window = run_window(workload, seconds)
            records = window.records
            rss = client_peak_rss_mb() + workload.peak_rss_servers_mb()
        else:
            records, layer = traced_window(workload, seconds)
        check_records(workload, records)
        requests = workload.requests() if hasattr(workload, "requests") else {}
        props = properties(workload)
    finally:
        workload.teardown()
    attempted, failed = tally(name, records)
    result.update(attempted=attempted, failed=failed, properties=props, requests=requests,
                  errors=sorted({r.error for r in records if r.error})[:5])
    if not trace:
        steps_per_s, queries_per_s = throughput(window)
        latencies = [r.latency * 1e3 for r in records]
        result["metrics"] = {
            "setup_s": setup_s,
            "steps_per_s": steps_per_s,
            "queries_per_s": queries_per_s,
            "job_p50_ms": percentile(latencies, 50),
            "job_p90_ms": percentile(latencies, 90),
            "peak_rss_mb": rss,
        }
        result["jobs"] = len(records)
        result["slowness"] = window.slowness
    else:
        from perfbench.ledger import run_probes

        layer["middleware.cache_hit_ratio"] = props["cache_hit_ratio"]
        layer["middleware.unique_per_step"] = props["unique_per_step"]
        layer.update(run_probes(inputs, seed))
        result["metrics"] = layer
        result["jobs"] = len(records)
    return result


def traced_window(workload, seconds: float):
    """Half the window untraced, half traced; layer rows and overhead."""
    from repro import obs

    from perfbench.ledger import installed, layer_rows, server_ms
    from perfbench.workloads import run_window

    half = seconds / 2
    untraced = run_window(workload, half)
    step = workload.connections
    next_index = (max(r.index for r in untraced.records) // step + 1) * step
    tracer = obs.Tracer()
    with installed() as instrument, obs.use_tracer(tracer):
        traced = run_window(workload, half, first_index=next_index)
        seconds_by_layer, _ = instrument.totals()
    steps = sum(r.steps for r in traced.records)
    job_seconds = sum(r.seconds for r in traced.records)
    rows, extra = layer_rows(seconds_by_layer, steps, job_seconds, server_ms(tracer))
    untraced_rate, _ = throughput(untraced)
    traced_rate, _ = throughput(traced)
    rows["obs.traced_overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    rows.update({"table." + key: value for key, value in extra.items()})
    return untraced.records + traced.records, rows


def render(result: dict) -> None:
    from perfbench.ledger import CATALOG

    name = result["workload"]
    print(f"perfbench {name}: seed={result['seed']} seconds={result['seconds']:g} "
          f"trace={int(result['trace'])}")
    error_rate = result["failed"] / max(1, result["attempted"])
    print(f"  jobs={result['jobs']} operations={result['attempted']} failed={result['failed']} "
          f"error_rate={error_rate:g}")
    if "slowness" in result:
        print(f"  cpu slowness={result['slowness']:.3f} (median calibration loop time / reference;"
              " times below are divided by it)")
    for error in result["errors"]:
        print(f"  error: {error}")
    metrics = result["metrics"]
    if not result["trace"]:
        _print_table("end-to-end (tracing off):", [
            (f"{key:<16}", f"{_fmt(value):>14}", END_TO_END[key][0]) for key, value in metrics.items()
        ] + [(f"{'error_rate':<16}", f"{_fmt(error_rate):>14}", "failed/attempted")])
    else:
        rows = []
        for key, value in metrics.items():
            if key.startswith("table."):
                if value:  # layers this workload does not cross stay out
                    rows.append((f"{key[6:]:<42}", f"{_fmt(value):>12}", "us", "(table only)"))
                continue
            unit, layer, moves, on = CATALOG[key]
            rows.append((f"{key:<42}", f"{_fmt(value):>12}", f"{unit:<5}", f"{layer:<24}",
                         f"moves {moves} on {name if on == 'this workload' else on}"))
        _print_table("per-layer ledger (traced run; self times):", rows)
    _print_table(f"workload properties (first {int(result['properties']['jobs'])} jobs; "
                 "exact at a fixed seed):",
                 [(f"{k:<22}", _fmt(v)) for k, v in result["properties"].items() if k != "jobs"])
    if result["requests"]:
        _print_table("requests per endpoint (client-expected vs server GET /stats):",
                     [(f"{k:<8}", f"client={v['client']}", f"server={v['server']}")
                      for k, v in result["requests"].items()])


def emit(result: dict) -> None:
    from perfbench.ledger import CATALOG

    if result["trace"]:
        units = {name: entry[0] for name, entry in CATALOG.items()}
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    metrics = {
        key: {"value": float(value), "unit": units[key]}
        for key, value in result["metrics"].items()
        if key in units
    }
    correct = result["failed"] == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="crawl-fresh")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the 100k-node graph (self-tests use ~0.02)")
    parser.add_argument("--cache", default=None, help="input cache directory")
    parser.add_argument("--prepare", action="store_true",
                        help="only generate the cached inputs for --scale")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import inputs as inputs_module
    from perfbench.workloads import WORKLOADS

    cache = Path(args.cache) if args.cache else inputs_module.CACHE
    if args.prepare:
        inputs_module.generate(args.scale, cache)
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # Pin this process, and by inheritance its server subprocesses, to one
    # CPU: on a small VM, waking a process on another vCPU for every request
    # costs more, and varies more from run to run, than the work measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, cache)
    render(result)
    sys.stdout.flush()
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
