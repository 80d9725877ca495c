"""Benchmark graphs, generated once and cached in the checkout.

Generating the 100k-node graph and partitioning it takes several seconds,
so the files live under ``.perfbench-cache/`` (git-ignored) and are built by
a child process (``run.py --prepare``) so the measuring process's peak RSS
never includes generation.  The graphs are the same for every run seed:
the seed decides the start nodes, kernel order and walker seeds, so runs
with different seeds do the same kind and amount of work on the same data.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import ROOT

CACHE = ROOT / ".perfbench-cache"
#: Generator seeds of the two graphs (fixed; see the module docstring).
PLC_SEED = 1000
FB_SEED = 0
#: Full-scale sizes; ``scale`` shrinks the node counts for self-tests.
PLC_NODES = 100_000
PLC_ATTACHMENT = 4
PLC_TRIANGLES = 0.3
SHARDS = 2
REPLICAS = 2


@dataclass(frozen=True)
class Inputs:
    """Paths of one input set plus the ground truth of each graph."""

    root: Path
    plc_snapshot: Path
    plc_graph: Path
    plc_cluster: Path
    fb_snapshot: Path
    tenants: Path
    plc_truth: float
    fb_truth: float
    plc_hub_degree: int
    fb_hub_degree: int


def input_dir(scale: float, cache: Path = CACHE) -> Path:
    return cache / f"s{scale:g}"


def _open(directory: Path) -> Inputs:
    meta = json.loads((directory / "inputs.json").read_text())
    return Inputs(
        root=directory,
        plc_snapshot=directory / "plc",
        plc_graph=directory / "plc-graph.pkl",
        plc_cluster=directory / "plc-cluster",
        fb_snapshot=directory / "fb",
        tenants=directory / "tenants.json",
        plc_truth=meta["plc_truth"],
        fb_truth=meta["fb_truth"],
        plc_hub_degree=meta["plc_hub_degree"],
        fb_hub_degree=meta["fb_hub_degree"],
    )


def _degree_stats(snapshot: Path):
    from repro import load_snapshot

    backend = load_snapshot(snapshot)
    degrees = np.diff(np.asarray(backend.indptr))
    truth = float(degrees.mean())
    hub = int(np.percentile(degrees, 99))
    return truth, hub


def generate(scale: float, cache: Path = CACHE) -> Path:
    """Build the input set for ``scale`` into the cache (atomic rename)."""
    from repro import load_dataset, partition_snapshot, save_snapshot
    from repro.graphs.generators import powerlaw_cluster_graph

    final = input_dir(scale, cache)
    if (final / "inputs.json").exists():
        return final
    staging = cache / f".staging-{final.name}-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    nodes = max(200, int(PLC_NODES * scale))
    graph = powerlaw_cluster_graph(nodes, PLC_ATTACHMENT, PLC_TRIANGLES, seed=PLC_SEED)
    save_snapshot(graph, staging / "plc")
    with open(staging / "plc-graph.pkl", "wb") as handle:
        pickle.dump(graph, handle, protocol=pickle.HIGHEST_PROTOCOL)
    del graph
    partition_snapshot(staging / "plc", staging / "plc-cluster", SHARDS, replicas=REPLICAS)
    fb = load_dataset("facebook_like", seed=FB_SEED, scale=max(0.1, min(1.0, scale * 50)))
    save_snapshot(fb, staging / "fb")
    tenants = {
        "format": "repro-graph-tenants",
        "version": 1,
        # Budgets exist on every tenant but never bind within a run.
        "tenants": {f"key-{i}": {"name": f"conn-{i}", "budget": 10 ** 12} for i in range(2)},
    }
    (staging / "tenants.json").write_text(json.dumps(tenants))
    plc_truth, plc_hub = _degree_stats(staging / "plc")
    fb_truth, fb_hub = _degree_stats(staging / "fb")
    (staging / "inputs.json").write_text(json.dumps({
        "plc_seed": PLC_SEED, "fb_seed": FB_SEED, "scale": scale,
        "plc_truth": plc_truth, "fb_truth": fb_truth,
        "plc_hub_degree": plc_hub, "fb_hub_degree": fb_hub,
    }))
    try:
        os.replace(staging, final)
    except OSError:
        # Another process won the race; its copy is identical.
        shutil.rmtree(staging, ignore_errors=True)
    return final


def ensure(scale: float, cache: Path = CACHE) -> Inputs:
    """Open the cached inputs, generating them in a child process if absent."""
    directory = input_dir(scale, cache)
    if not (directory / "inputs.json").exists():
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--prepare",
             "--scale", repr(scale), "--cache", str(cache)],
            check=True,
            cwd=str(ROOT),
            stdout=subprocess.DEVNULL,
        )
    return _open(directory)
