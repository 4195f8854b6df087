"""Replay the benchmark's recorded jobs on two source trees and compare
their outputs bit for bit.

    python tools/replay.py [--against REV] [--workload W] [--sample K]

Every job of perfbench/reference.json (or K of each workload, drawn with a
fixed seed) runs in child processes on the working tree and on a second
tree: `git archive REV` unpacked into a temporary directory with
--against, else the working tree again, which shows whether the outputs
are deterministic.  Each tree runs a job the way its own
perfbench/workloads.py does.  An output is

* disk-ledger: the repr of the DiskReport or CriterionReport a job returns,
* sweep-sequence: a row's status and repr(empirical_r),
* cli-cold: the exit code and stdout of `python -m mathieu_geom.cli ARGV`,

or the name and message of the package error a job raised.  A job is
identical when both outputs are equal, moved when they differ, and failed
when either side crashed (an exception that is not a package error, a
traceback, or a child process that died or was killed).  Prints the
counts per workload and the first differences; exits 1 if anything moved
or failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"
WORKLOADS = ["disk-ledger", "sweep-sequence", "cli-cold"]
SHOWN = 3  # differences printed per workload
SAMPLE_SEED = 0  # draws --sample


# --- child side: one interpreter runs one in-process workload ---------------

def child(workload: str, tree: str) -> None:
    """Read jobs as JSON on stdin, run each through `tree`'s own benchmark
    workload, and write [kind, output] per job as JSON on stdout, kind "ok",
    "error" (a package error) or "crash"."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))  # the package comes from PYTHONPATH
    import workloads

    runner = workloads.make(workload, Path.cwd())
    outputs = []
    for job in json.load(sys.stdin):
        try:
            out = runner.run(job)
        except Exception as exc:  # noqa: BLE001 - a crash is an outcome to report
            outputs.append(["crash", f"{type(exc).__name__}: {exc}"])
            continue
        if out.raised:
            outputs.append(["error", f"{out.verdict['error']}: {out.detail}"])
        elif workload == "sweep-sequence":
            outputs.append(["ok", f"{out.payload.status} {out.payload.empirical_r!r}"])
        else:
            outputs.append(["ok", repr(out.payload)])
    json.dump(outputs, sys.stdout)


# --- parent side -------------------------------------------------------------

def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def run_workload(tree: Path, workload: str, jobs: list[dict], work_dir: str) -> list[list[str]]:
    """[kind, output] of each job on `tree`."""
    if workload == "cli-cold":
        outputs = []
        for job in jobs:
            proc = subprocess.run([sys.executable, "-m", "mathieu_geom.cli", *job["argv"]], cwd=work_dir,
                                  env=_env(tree), capture_output=True, text=True)
            crashed = proc.returncode < 0 or "Traceback (most recent call last)" in proc.stderr
            outputs.append(["crash" if crashed else "ok", f"exit {proc.returncode}\n{proc.stdout}"])
        return outputs
    proc = subprocess.run([sys.executable, __file__, "--child", workload, str(tree)], cwd=work_dir,
                          env=_env(tree), input=json.dumps(jobs), capture_output=True, text=True)
    if proc.returncode:
        return [["crash", f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]] * len(jobs)
    return json.loads(proc.stdout)


def compare(jobs: list[dict], left: list[list[str]], right: list[list[str]]):
    """(identical, moved, failed) counts and the differing (job, left, right)."""
    counts, diffs = {"identical": 0, "moved": 0, "failed": 0}, []
    for job, a, b in zip(jobs, left, right):
        if "crash" in (a[0], b[0]):
            counts["failed"] += 1
        elif a == b:
            counts["identical"] += 1
            continue
        else:
            counts["moved"] += 1
        diffs.append((job, a, b))
    return counts, diffs


def _archive(rev: str, into: str) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    os.mkdir(into)
    subprocess.run(["tar", "-x", "-C", into], input=tar, check=True)
    return Path(into)


def _shown(a: list[str], b: list[str], width: int = 300) -> tuple[str, str]:
    """Both outputs, each on one line, from a little before their first difference."""
    x, y = (f"[{o[0]}] " + " ".join(o[1].split()) for o in (a, b))
    first = next((i for i, (u, v) in enumerate(zip(x, y)) if u != v), min(len(x), len(y)))
    start = max(0, first - 60)

    def cut(text: str) -> str:
        return ("... " if start else "") + text[start:start + width] + (" ..." if len(text) > start + width else "")
    return cut(x), cut(y)


def _sample(jobs: list[dict], k: int | None) -> list[dict]:
    if k is None or k >= len(jobs):
        return jobs
    return [jobs[i] for i in sorted(random.Random(SAMPLE_SEED).sample(range(len(jobs)), k))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with (default: the working tree)")
    parser.add_argument("--workload", choices=WORKLOADS, help="workload to replay (default: all three)")
    parser.add_argument("--sample", type=int, metavar="K", help="replay K jobs of each workload (default: all)")
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "TREE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    reference = json.loads(REFERENCE.read_text())["workloads"]
    label = args.against or "working tree"
    clean = True
    with tempfile.TemporaryDirectory() as tmp:
        other = _archive(args.against, os.path.join(tmp, "tree")) if args.against else ROOT
        work_dir = os.path.join(tmp, "cwd")
        os.mkdir(work_dir)
        for workload in [args.workload] if args.workload else WORKLOADS:
            jobs = _sample(reference[workload], args.sample)
            counts, diffs = compare(jobs, run_workload(ROOT, workload, jobs, work_dir),
                                    run_workload(other, workload, jobs, work_dir))
            clean = clean and not diffs
            print(f"{workload}: {len(jobs)} jobs: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
            for job, a, b in diffs[:SHOWN]:
                print(f"  job {json.dumps(job, sort_keys=True)}")
                here, there = _shown(a, b)
                print(f"    working tree: {here}")
                print(f"    {label}: {there}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
