"""Paths, child processes, speed probes and summary statistics shared by
the benchmark."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "mathieu_geom"
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_mb: float


def run_child(argv: list[str], cwd: Path, env: dict) -> Child:
    """Run one child interpreter to completion.  Wall time runs from just
    before the spawn to the reaping; the peak resident memory is the
    child's own, from wait4."""
    with tempfile.TemporaryFile(dir=cwd) as err_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err_file)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        err_file.seek(0)
        err = err_file.read().decode(errors="replace")
    return Child(proc.returncode, out.decode(errors="replace"), err, wall, usage.ru_maxrss / 1024.0)


def python_child(args: list[str], cwd: Path) -> Child:
    return run_child([sys.executable, *args], cwd, child_env())


# --- machine speed ----------------------------------------------------------
# On a shared machine the same work takes tens of percent longer or shorter
# from one few-second stretch to the next.  Every timing is therefore taken
# next to a probe, a fixed piece of benchmark-owned work that no change to
# the package can alter, and scaled to the reference speed at which the
# probe takes its *_REF_S.  A package change that makes a job 10 % slower
# still reads 10 % slower; a slow stretch of the machine mostly does not.

COMPUTE_REF_S = 0.7e-3      # compute_probe at reference speed
SPAWN_REF_S = 0.05          # spawn_probe at reference speed
_PROBE_ARRAY = np.arange(1.0, 513.0)


def compute_probe() -> float:
    """Seconds a fixed Python loop and small numpy operations take now;
    the probe for jobs run in this process."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(3000):
        x += math.sqrt(i + 1.0)
    for _ in range(40):
        y = np.exp(-1.5 * np.log(_PROBE_ARRAY))
        x += float(np.min(y[:-1] - y[1:]))
    return time.perf_counter() - t0


def spawn_probe(cwd: Path) -> float:
    """Seconds a bare interpreter takes from spawn to reaping; the probe
    for jobs run in child interpreters."""
    return python_child(["-c", "pass"], cwd).wall_s


def at_reference_speed(times: list[float], probes: list[float], ref_s: float, k: int) -> list[float]:
    """Scale times[i] by ref_s over the median of the probes around it.

    probes[0] was taken before the first job and probes[i + 1] right after
    job i; job i is scaled by the median of probes[i - k .. i + k + 1].
    """
    out = []
    for i, t in enumerate(times):
        out.append(t * ref_s / median(probes[max(0, i - k):i + k + 2]))
    return out


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(xs)
    if not s:
        return math.nan
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def tail_percentile(n_jobs: int) -> float:
    """The highest percentile on TAIL_LADDER with at least ten jobs beyond
    it; 100 (the maximum) when even the median has fewer than ten."""
    best = 100.0
    for q in TAIL_LADDER:
        if n_jobs * (1.0 - q / 100.0) >= 10.0 - 1e-9:
            best = q
    return best


def median(xs: list[float]) -> float:
    return percentile(xs, 50.0)
