"""Regenerate reference.json: the job pools and the verdict the package
returns for each job at the current commit.

    PYTHONPATH=src python3 perfbench/record.py

Every pool job also goes through its independent-route check; any
disagreement is listed on stderr and makes the exit code 1.  Record only
on a commit whose verdicts are meant to be the reference; later commits
are compared against it.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import time
from pathlib import Path

import pools
import workloads
from common import BENCH_DIR, ROOT

from mathieu_geom.thresholds import threshold

REFERENCE = BENCH_DIR / "reference.json"


def build_pools() -> dict[str, list[dict]]:
    rng = random.Random(pools.POOL_SEED)
    rounds = pools.DISK_LEDGER_ROUNDS_IN_POOL
    return {
        "cli-cold": pools.cli_pool(rng, threshold),
        "sweep-sequence": pools.sweep_pool(rng),
        "disk-ledger": (pools.disk_pool(rng, threshold, rounds * pools.DISK_LATTICE_PER_GRID,
                                        rounds * pools.DISK_LONG)
                        + pools.ledger_pool(rng, rounds)),
    }


def dump(ref: dict) -> str:
    """JSON with one job per line, so a re-recorded verdict shows as a
    one-line diff."""
    def job_lines(pool):
        return ",\n".join(json.dumps(job, sort_keys=True, separators=(",", ":")) for job in pool)

    body = ",\n".join(f'"{name}": [\n{job_lines(pool)}\n]' for name, pool in ref["workloads"].items())
    return f'{{"pool_seed": {ref["pool_seed"]}, "workloads": {{\n{body}\n}}}}\n'


def main() -> int:
    out = {"pool_seed": pools.POOL_SEED, "workloads": {}}
    bad = 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work_dir:
        for name, pool in build_pools().items():
            wl = workloads.make(name, Path(work_dir))
            t0 = time.perf_counter()
            for job in pool:
                outcome = wl.run(job)
                job["verdict"] = outcome.verdict
                for err in wl.check(job, outcome):
                    bad += 1
                    print(f"{name}: {err}", file=sys.stderr)
            out["workloads"][name] = pool
            print(f"{name}: {len(pool)} jobs in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    REFERENCE.write_text(dump(out))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
