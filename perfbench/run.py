"""Benchmark of mathieu-geom: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/).  Workloads: cli-cold, sweep-sequence, disk-ledger (see
BENCHMARK.json and workloads.py).  The load is a closed loop with one
client: the next job starts when the previous one has finished.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same jobs
once untraced and once with spans around every call into the package's
layers, and prints the per-layer metrics.  Diagnostics go to stderr; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from common import (BENCH_DIR, PACKAGE, ROOT, SPAWN_REF_S, SRC, at_reference_speed, median, percentile,
                    python_child, spawn_probe)

SETUP_REPS = 5          # fresh interpreters per run for setup_s (median)
IMPORTTIME_REPS = 3     # python -X importtime runs per traced run (median)
MODULES = ["series", "criteria", "thresholds", "diskcheck", "explorer", "cli", "params"]
IMPORTS = {"import.total_ms": "mathieu_geom", "import.numpy_ms": "numpy",
           "import.scipy_integrate_ms": "scipy.integrate", "import.scipy_stats_ms": "scipy.stats"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def timed_loop(wl, pool, jobs, seconds):
    """Run (round, pool index) jobs in order until `seconds` have passed,
    with a speed probe before the first job and after each one.  Returns
    [(round, pool index, outcome, seconds at reference speed)], the
    measured seconds of each job, and the elapsed seconds."""
    recs, raw, probes = [], [], [wl.probe()]
    start = time.perf_counter()
    deadline = start + seconds
    for rnd, idx in jobs:
        t0 = time.perf_counter()
        out = wl.run(pool[idx])
        t1 = time.perf_counter()
        probes.append(wl.probe())
        recs.append((rnd, idx, out))
        raw.append(t1 - t0)
        if t1 >= deadline:
            break
    scaled = at_reference_speed(raw, probes, wl.probe_ref_s, wl.probe_window)
    return [(*r, dt) for r, dt in zip(recs, scaled)], raw, time.perf_counter() - start


def complete_rounds(recs, round_len):
    """The records of the rounds the run finished.  All records, with a
    warning, when not even one round finished."""
    last = recs[-1][0]
    keep = [r for r in recs if r[0] < last]
    if sum(1 for r in recs if r[0] == last) == round_len:
        keep = recs
    if not keep:
        log(f"warning: no round of {round_len} jobs finished; summarising {len(recs)} jobs")
        return recs
    return keep


def judge(wl, pool, recs, n_checks):
    """(failed jobs, jobs without a good verdict, incorrect outputs).

    A job fails when its outcome is unlike the one recorded for it: an
    unexpected exception, exit code or verdict.  A job has no good
    verdict when it fails or raises; the recorded TruncationError jobs
    (the coefficient cap, a known defect) count here, in ok_share, and
    not among the failed.  Incorrect outputs are failed jobs and failed
    independent checks, which run on the first n_checks jobs and on
    every job that answers where the reference recorded an error."""
    failed, no_verdict, wrong = 0, 0, []
    for k, (_, idx, out, _) in enumerate(recs):
        job = pool[idx]
        same = wl.matches(job["verdict"], out)
        failed += not same
        no_verdict += out.raised or not same
        if not same:
            wrong.append(f"job {idx}: verdict {out.verdict!r}, reference {job['verdict']!r} {out.detail}")
        recorded_error = isinstance(job["verdict"], dict) and "error" in job["verdict"]
        if k < n_checks or (recorded_error and not out.raised):
            wrong += [f"job {idx}: {e}" for e in wl.check(job, out)]
    return failed, no_verdict, wrong


def readme_ok(work_dir) -> int:
    """README CLI examples, documented form, one interpreter: how many do
    not exit 2 (domain or usage error)."""
    child = python_child([str(BENCH_DIR / "child.py"), "readme", str(ROOT / "README.md")], work_dir)
    if child.code != 0:
        raise RuntimeError(f"README runner failed: {child.err}")
    results = json.loads(child.out)
    for r in results:
        if r["code"] == 2:
            log(f"README example exits 2: mathieu-geom {' '.join(r['argv'])}")
    log(f"README examples: {len(results)}")
    return sum(r["code"] != 2 for r in results)


def setup_seconds(name, work_dir) -> float:
    """Median over SETUP_REPS fresh interpreters, each scaled to reference
    speed by the spawn probes taken just before and just after it."""
    walls, scaled = [], []
    for _ in range(SETUP_REPS):
        probes = [spawn_probe(work_dir) for _ in range(2)]
        child = python_child([str(BENCH_DIR / "child.py"), "setup", name], work_dir)
        if child.code != 0:
            raise RuntimeError(f"setup child failed: {child.err}")
        probes += [spawn_probe(work_dir) for _ in range(2)]
        walls.append(child.wall_s)
        scaled.append(child.wall_s * SPAWN_REF_S / median(probes))
    log(f"setup_s runs: measured {[round(w, 4) for w in walls]}, "
        f"at reference speed {[round(w, 4) for w in scaled]}")
    return median(scaled)


def module_import_ms(importtime_log: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime`
    output.  A module loaded through a package's lazy __getattr__ (scipy
    does this) has no line of its own; its submodules' lines at the
    shallowest depth are summed instead.  0 when it was not imported."""
    lines = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)$", line)
        if m:
            lines.append((len(m.group(2)), m.group(3), int(m.group(1))))
    exact = [us for _, name, us in lines if name == module]
    if exact:
        return exact[0] / 1e3
    subs = [(depth, us) for depth, name, us in lines if name.startswith(module + ".")]
    if not subs:
        return 0.0
    top = min(depth for depth, _ in subs)
    return sum(us for depth, us in subs if depth == top) / 1e3


def import_times(work_dir) -> dict:
    """Import time of the package and its heavy dependencies (median of
    IMPORTTIME_REPS fresh interpreters)."""
    logs = [python_child(["-X", "importtime", "-c", "import mathieu_geom"], work_dir).err
            for _ in range(IMPORTTIME_REPS)]
    return {metric: median([module_import_ms(text, mod) for text in logs]) for metric, mod in IMPORTS.items()}


def src_lines() -> dict:
    out = {}
    for mod in MODULES:
        path = PACKAGE / f"{mod}.py"
        out[f"{mod}.src_lines"] = len(path.read_text().splitlines()) if path.exists() else 0
    out["package.src_lines"] = sum(len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py"))
    return out


def traced_loop(wl, pool, jobs, seconds, work_dir):
    """Run each job twice, untraced and traced, in alternating order, until
    `seconds` have passed; pairing the runs keeps drift in machine speed
    out of the tracing overhead.  Both sides of a cli-cold job run in a
    child through child.py cli, which installs the span wrappers only on
    the traced side.  Returns the untraced records, the tracer, the
    untraced and traced seconds, and the traced runs that disagreed with
    the reference."""
    from tracing import Span, Tracer

    tracer = Tracer()
    recs, wrong = [], []
    busy = {False: 0.0, True: 0.0}
    span_file = work_dir / "spans.json"
    start = time.perf_counter()
    for n, (rnd, idx) in enumerate(jobs):
        job = pool[idx]
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if wl.in_process:
                if traced:
                    tracer.install()
                    tracer.job = n
                t0 = time.perf_counter()
                out = wl.run(job)
                dt = time.perf_counter() - t0
                tracer.uninstall()
            else:
                t0 = time.perf_counter()
                out = wl.run(job, spans=str(span_file) if traced else "-")
                dt = time.perf_counter() - t0
            busy[traced] += dt
            if not traced:
                recs.append((rnd, idx, out, dt))
                continue
            if not wl.matches(job["verdict"], out):
                wrong.append(f"traced job {idx}: verdict {out.verdict!r}, reference {job['verdict']!r}")
            if not wl.in_process:
                base = len(tracer.spans)
                tracer.spans.extend(Span(name, t0, t1, parent + base if parent >= 0 else -1, n, attrs)
                                    for name, t0, t1, parent, _, attrs in json.loads(span_file.read_text()))
        if time.perf_counter() - start >= seconds:
            break
    return recs, tracer, busy[False], busy[True], wrong


def run(args, work_dir) -> dict:
    import pools
    import tracing
    import workloads

    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    pool = ref["workloads"][args.workload]
    wl = workloads.make(args.workload, work_dir)
    jobs = pools.schedule(args.workload, pool, args.seed)
    metrics = {}

    if not args.trace:
        metrics["setup_s"] = (setup_seconds(args.workload, work_dir), "s")
        wl.warmup()
        recs, raw, elapsed = timed_loop(wl, pool, jobs, args.seconds)
        summary = complete_rounds(recs, len(pools.PATTERNS[args.workload]))
        if wl.in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rss = max(out.maxrss_mb for _, _, out, _ in summary)
        times_ms = [dt * 1e3 for *_, dt in summary]
        failed, no_verdict, wrong = judge(wl, pool, recs, wl.checks_per_run)
        metrics.update({
            "jobs_per_s": (len(summary) / sum(times_ms) * 1e3, "1/s"),
            "job_p50_ms": (median(times_ms), "ms"),
            "job_tail_ms": (percentile(times_ms, wl.tail_pct), "ms"),
            "ok_share": (1.0 - no_verdict / len(recs), "share"),
            "peak_rss_mb": (rss, "MB"),
            "readme_cmds_ok": (readme_ok(work_dir), "count"),
        })
        beyond = len(times_ms) * (1 - wl.tail_pct / 100)
        log(f"{args.workload}: {len(recs)} jobs in {elapsed:.2f} s, {len(summary)} in "
            f"{len({r[0] for r in summary})} whole rounds; job_tail_ms is p{wl.tail_pct:g} "
            f"of those ({beyond:.0f} jobs beyond it); median job {median(raw) * 1e3:.3f} ms "
            f"measured, {metrics['job_p50_ms'][0]:.3f} ms at reference speed")
        attempted = len(recs)
    else:
        metrics.update({k: (v, "ms") for k, v in import_times(work_dir).items()})
        wl.warmup()
        recs, tracer, untraced_s, traced_s, wrong = traced_loop(wl, pool, jobs, args.seconds, work_dir)
        # the spans of the last traced run of each workload stay for inspection
        (ROOT / f".perfbench-spans-{args.workload}.json").write_text(
            json.dumps([s.as_list() for s in tracer.spans]))
        metrics.update(tracing.layer_metrics(tracer.spans, len(recs)))
        metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
        metrics.update({k: (v, "count") for k, v in src_lines().items()})
        failed, _, wrong_untraced = judge(wl, pool, recs, wl.checks_per_run)
        wrong += wrong_untraced
        attempted = len(recs)
        log(f"{args.workload}: {len(recs)} jobs, untraced {untraced_s:.2f} s, traced {traced_s:.2f} s")

    for w in wrong:
        log(f"INCORRECT {w}")
    if failed:
        log(f"{failed} of {attempted} jobs failed (exception, exit code or verdict unlike the reference)")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cli-cold", "sweep-sequence", "disk-ledger"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file() or not (ROOT / "README.md").is_file():
        log(f"error: no package source under {SRC} (run from a checkout of the repository)")
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
