"""Self-tests of the benchmark at a tiny scale.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ROOT, SCALE
from perfbench import run
from perfbench.ledger import CATALOG
from perfbench.workloads import WORKLOADS

SERVED = ("serve-mix", "cluster-fanout")


def measure(workload, cache, seed=3, trace=False, **options):
    return run.measure(workload, seed, 1.0, trace, SCALE, cache, **options)


def test_benchmark_json_matches_the_metric_catalogs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: entry[0] for name, entry in CATALOG.items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload, cache):
    result = measure(workload, cache)
    assert result["failed"] == 0, result["errors"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(cache, capsys):
    result = measure("cluster-fanout", cache, trace=True)
    assert result["failed"] == 0, result["errors"]
    assert set(CATALOG) <= set(result["metrics"])
    assert all(math.isfinite(result["metrics"][name]) for name in CATALOG)
    run.emit(result)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        name: entry[0] for name, entry in CATALOG.items()
    }


@pytest.mark.parametrize("workload", ["crawl-fresh", "ensemble-revisit", *SERVED])
def test_a_wrong_reference_raises_the_error_rate(workload, cache):
    result = measure(workload, cache, corrupt_reference=True)
    assert result["attempted"] > 0
    assert result["failed"] > 0


@pytest.mark.parametrize("workload", ["crawl-fresh", "serve-mix"])
def test_property_counts_repeat_exactly(workload, cache):
    first = measure(workload, cache, seed=5)
    second = measure(workload, cache, seed=5)
    assert first["properties"] == second["properties"]
    other = measure(workload, cache, seed=6)
    assert other["properties"] != first["properties"]


def _children():
    pid = os.getpid()
    tasks = Path(f"/proc/{pid}/task")
    found = set()
    for task in tasks.iterdir():
        text = (task / "children").read_text().split()
        found.update(int(child) for child in text)
    return found


def _sockets():
    count = 0
    for fd in Path("/proc/self/fd").iterdir():
        try:
            count += os.readlink(fd).startswith("socket:")
        except OSError:
            pass
    return count


@pytest.mark.parametrize("workload", SERVED)
def test_no_server_or_socket_outlives_a_run(workload, cache):
    measure(workload, cache)  # inputs exist; any lazy import is done
    sockets = _sockets()
    measure(workload, cache)
    assert _children() == set()
    assert _sockets() <= sockets


def test_served_requests_match_server_stats(cache):
    result = measure("serve-mix", cache)
    for endpoint, counts in result["requests"].items():
        assert counts["client"] == counts["server"], endpoint


def test_cli_prints_one_result_line(cache):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl-fresh", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--scale", str(SCALE), "--cache", str(cache)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl-fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
