"""Shared helpers: timing statistics, memory readings, server subprocesses.

Everything here is plumbing for the workloads in ``workloads.py`` and the
per-layer ledger in ``ledger.py``; nothing in this package patches or
imports private parts of ``repro`` beyond its public functions.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The paper's estimation target on every workload: average degree.
KERNELS = ("srw", "mhrw", "nbsrw", "cnrw", "gnrw", "nbcnrw")
#: Kernels whose stationary distribution is uniform (plain sample mean).
UNIFORM_KERNELS = frozenset({"mhrw"})


def child_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from ``seed`` and a path of integers."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); NaN when empty."""
    if not values:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def relative_error(estimate: float, truth: float) -> float:
    return abs(estimate - truth) / abs(truth)


def client_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, 0 if unreadable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    return 0.0


def process_cpu_clock(pid: int) -> int:
    """Clock id of another process's CPU time (what ``clock_getcpuclockid`` gives)."""
    return (~pid << 3) | 2  # Linux MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)


class BusyClock:
    """CPU seconds used by this process plus the given server processes.

    The command pins itself and its servers to one CPU, so this clock runs
    exactly while the benchmark's own work runs: it is the wall clock of an
    unshared core.  Time the hypervisor takes the vCPU away (steal, which
    the kernel keeps out of task CPU time) and other tenants' turns on the
    CPU do not count, which keeps a noisy host out of the figures.
    """

    def __init__(self, pids: Iterable[int] = ()) -> None:
        self.clocks = [time.CLOCK_PROCESS_CPUTIME_ID, *(process_cpu_clock(pid) for pid in pids)]

    def __call__(self) -> float:
        return sum(time.clock_gettime(clock) for clock in self.clocks)


#: Thread CPU seconds the calibration loop takes on the reference core.  The
#: value only sets the scale of the reported times; it never changes.
REFERENCE_CALIBRATION_S = 0.0025
CALIBRATION_ROUNDS = 20_000


def _calibration_loop(rounds: int) -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(rounds):
        table[i & 255] = total
        total = (total + i * 7) % 1_000_003
    return total


def slowness() -> float:
    """How slow this CPU runs right now, relative to the reference core.

    A fixed pure-Python loop, timed on the calling thread's CPU clock.  On a
    shared host the vCPU runs up to ~1.6x slower for seconds at a time
    (presumably another tenant busy on the same physical core); the loop
    slows down with it, so dividing by this figure takes the host's phases out of
    the benchmark's times while leaving every change to the program in them.
    """
    started = time.thread_time()
    _calibration_loop(CALIBRATION_ROUNDS)
    return (time.thread_time() - started) / REFERENCE_CALIBRATION_S


class ReferenceClock:
    """Busy-clock readings converted to seconds of the reference core.

    :meth:`calibrate` is called between jobs; each call records the busy
    clock around one :func:`slowness` reading.  :meth:`seconds` maps busy
    readings onto a clock that advances at ``1 / slowness`` (smoothed over
    neighbouring readings) and stands still while the calibration itself runs.
    """

    SMOOTH = 2  # readings on each side in the running median

    def __init__(self, busy: BusyClock) -> None:
        self.busy = busy
        self.marks: List[tuple] = []

    def calibrate(self) -> None:
        before = self.busy()
        factor = slowness()
        self.marks.append((before, self.busy(), factor))

    @property
    def median_slowness(self) -> float:
        return median([mark[2] for mark in self.marks])

    def seconds(self, readings: Sequence[float]) -> np.ndarray:
        factors = [mark[2] for mark in self.marks]
        smooth = [statistics.median(factors[max(0, i - self.SMOOTH):i + self.SMOOTH + 1])
                  for i in range(len(factors))]
        xs, ns = [self.marks[0][0], self.marks[0][1]], [0.0, 0.0]
        for k in range(1, len(self.marks)):
            before, after, _ = self.marks[k]
            ns.append(ns[-1] + (before - xs[-1]) * 2.0 / (smooth[k - 1] + smooth[k]))
            xs.append(before)
            ns.append(ns[-1])
            xs.append(after)
        readings = np.asarray(readings, dtype=float)
        out = np.interp(readings, xs, ns)
        out = np.where(readings < xs[0], (readings - xs[0]) / smooth[0], out)
        return np.where(readings > xs[-1], ns[-1] + (readings - xs[-1]) / smooth[-1], out)


def repro_env() -> Dict[str, str]:
    """Environment for a ``python -m repro.cli`` child: the checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ServerProcess:
    """One ``repro.cli serve`` / ``serve-cluster`` subprocess.

    The constructor blocks until the banner naming the bound URL(s) is
    printed; :meth:`stop` sends SIGTERM (the CLI's graceful drain) and waits.
    """

    def __init__(self, args: Sequence[str], banners: int = 1, timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=repro_env(),
            cwd=str(ROOT),
        )
        self.urls: List[str] = []
        deadline = time.monotonic() + timeout
        try:
            while len(self.urls) < banners:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(f"server {' '.join(args)} exited before its banner")
                if " at http://" in line:
                    self.urls.append(line.rsplit(" at ", 1)[1].strip())
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server {' '.join(args)} printed no banner in {timeout}s")
        except BaseException:
            self.stop()
            raise

    @property
    def url(self) -> str:
        return self.urls[0]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def summarize_us(samples: Iterable[float]) -> Dict[str, float]:
    values = list(samples)
    return {"p50": percentile(values, 50), "p99": percentile(values, 99), "n": len(values)}
