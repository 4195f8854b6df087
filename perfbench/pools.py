"""Job pools and seeded schedules for the three workloads.

Each workload draws its jobs from a fixed pool, generated once from
POOL_SEED and stored with the verdicts the package returned for it in
reference.json (see record.py).  The run's --seed decides which pool jobs
a run takes and in what order, so every job a run executes has a recorded
verdict, the same seed gives the same job list, and different seeds give
different ones.

A schedule walks a fixed pattern of strata.  Each stratum is consumed in
a seeded shuffle of its whole pool before it is reshuffled.  The pools
hold about three times what a run takes of each stratum, so a run takes
a seeded subset of each, while every round still has the same stratum
mix.  That keeps jobs_per_s steady across seeds while the inputs differ.
"""

from __future__ import annotations

import itertools
import math
import random

POOL_SEED = 20210908

FAMILY_OF_KIND = {
    "F_CloseToConvex": "F", "F_Starlike": "F", "F_HalfPlaneRatio": "F",
    "F_HalfPlaneDeriv": "F", "Q_CloseToConvex": "Q", "Q_Starlike": "Q",
    "Q_HalfPlaneRatio": "Q", "Q_HalfPlaneDeriv": "Q",
}
KINDS = list(FAMILY_OF_KIND)
# kind -> disk functional, as paired in the explorer
FUNCTIONAL_OF_KIND = {
    "F_CloseToConvex": "CloseToConvex", "F_Starlike": "Starlike",
    "F_HalfPlaneRatio": "RatioHalfPlane", "F_HalfPlaneDeriv": "DerivHalfPlane",
    "Q_CloseToConvex": "CloseToConvex", "Q_Starlike": "Starlike",
    "Q_HalfPlaneRatio": "RatioHalfPlane", "Q_HalfPlaneDeriv": "DerivHalfPlane",
}
# theorem hypotheses: mu >= MU_MIN (thresholds.MU_MIN at this commit)
MU_MIN = {"Q_Starlike": 2.0, "Q_HalfPlaneDeriv": 2.0}
MU_LO, MU_HI = 0.1, 10.0

INEQUALITY_IDS = [
    "eq-r-mu-c", "eq-psi-upper", "eq-psi-lower", "eq-trigamma", "eq-sqrt",
    "eq-19-10", "eq-total", "eq-r-mu-ineq", "eq-log-ineq", "eq-frac-ineq",
    "eq-c-mu-ineq",
]
CRITERIA = ["ozaki", "fejer-starlike", "fejer-halfplane", "fejer-halfplane-deriv", "goodman"]
# `verify --functional` name -> diskcheck.Functional value
CLI_FUNCTIONALS = {"ratio-halfplane": "RatioHalfPlane", "deriv-halfplane": "DerivHalfPlane",
                   "starlike": "Starlike", "close-to-convex": "CloseToConvex"}
CLI_TYPES = [
    "eval", "coeffs", "verify-criterion", "verify-functional", "verify-inequality",
    "thresholds", "examples", "theorems-sequence", "theorems-disk", "sweep",
]


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_mu(rng: random.Random, kind: str) -> float:
    return log_uniform(rng, max(MU_LO, MU_MIN.get(kind, 0.0)), MU_HI)


def mu_grid(rng: random.Random, k: int) -> list[float]:
    return sorted(round(log_uniform(rng, MU_LO, MU_HI), 4) for _ in range(k))


# --- pool generators --------------------------------------------------------
# Each returns a list of job dicts with a "stratum" key; threshold values
# needed for radii are computed by the caller (record.py), which has the
# package imported.

def sweep_pool(rng: random.Random, per_kind: int = 400) -> list[dict]:
    return [{"stratum": kind, "kind": kind, "mu": draw_mu(rng, kind)}
            for kind in KINDS for _ in range(per_kind)]


# (n_radii, n_angles) of the lattice jobs, and the ledger's sample counts:
# eight steps spread log-evenly over 1e3-1e5.  Each is a stratum of its
# own, so that every round has the same grid and sample-count mix.
DISK_GRIDS = [(32, 128), (32, 256), (64, 128), (64, 256)]
LEDGER_SAMPLES = [round(10 ** (3 + 2 * (j + 0.5) / 8)) for j in range(8)]


def lattice_stratum(grid: tuple[int, int]) -> str:
    return "lattice-{}x{}".format(*grid)


def ledger_stratum(case: str, samples: int) -> str:
    return f"{case}@{samples}"


def disk_pool(rng: random.Random, threshold, lattice_per_grid: int, long_each: int) -> list[dict]:
    """Lattice jobs at the default max_radius, plus long-series jobs with
    max_radius near 1 (F and Q kept apart: only F needs 1e5+ terms)."""
    jobs = []

    def job(stratum, kind, grid, max_radius):
        mu = draw_mu(rng, kind)
        factor = log_uniform(rng, 0.5, 3.0)
        return {
            "stratum": stratum, "kind": kind, "family": FAMILY_OF_KIND[kind],
            "functional": FUNCTIONAL_OF_KIND[kind], "mu": mu, "factor": factor,
            "r": threshold(kind, mu) * factor,
            "n_radii": grid[0], "n_angles": grid[1],
            "max_radius": max_radius,
        }

    for grid in DISK_GRIDS:
        for _ in range(lattice_per_grid):
            jobs.append(job(lattice_stratum(grid), rng.choice(KINDS), grid, 0.995))
    for fam in ("F", "Q"):
        kinds = [k for k in KINDS if FAMILY_OF_KIND[k] == fam]
        for _ in range(long_each):
            jobs.append(job(f"long-{fam}", rng.choice(kinds), rng.choice(DISK_GRIDS),
                            rng.choice([0.999, 0.9999])))
    return jobs


def ledger_pool(rng: random.Random, per_step: int) -> list[dict]:
    return [{"stratum": ledger_stratum(case, samples), "case": case,
             "samples": samples, "seed": rng.randrange(2**31)}
            for case in INEQUALITY_IDS for samples in LEDGER_SAMPLES for _ in range(per_step)]


def _fmt(x: float) -> str:
    return repr(round(x, 6))


def cli_argv(rng: random.Random, kind: str, threshold) -> list[str]:
    """One README-style command line of the given type, parameters drawn
    from rng.  Every drawn command is valid input."""
    fam = rng.choice(["F", "Q"])
    kinds = [k for k in KINDS if FAMILY_OF_KIND[k] == fam]
    tk = rng.choice(kinds)
    mu = draw_mu(rng, tk)
    r = threshold(tk, mu) * log_uniform(rng, 0.5, 2.0)
    fam_flags = ["--family", fam, "--mu", _fmt(mu), "--r", _fmt(r)]
    if kind == "eval":
        route = rng.choice(["series", "S", "S-integral"])
        if route == "series":
            rho, th = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)
            z = f"{rho * math.cos(th):.6f}{rho * math.sin(th):+.6f}i"
            # "--z=" form: argparse would read a leading "-" as an option
            return ["eval", *fam_flags, f"--z={z}", "--format", "json"]
        return ["eval", "--family", route, "--r", _fmt(log_uniform(rng, 0.1, 10.0)), "--format", "json"]
    if kind == "coeffs":
        return ["coeffs", *fam_flags, "--n", str(rng.randrange(5, 200)), "--format", "json"]
    if kind == "verify-criterion":
        return ["verify", "--criterion", rng.choice(CRITERIA), *fam_flags,
                "--terms", str(rng.choice([100, 200, 500])), "--format", "json"]
    if kind == "verify-functional":
        return ["verify", "--functional", rng.choice(list(CLI_FUNCTIONALS)), *fam_flags,
                "--radii", str(rng.choice([32, 64])), "--angles", str(rng.choice([128, 256])),
                "--format", "json"]
    if kind == "verify-inequality":
        return ["verify", "--inequality", rng.choice(INEQUALITY_IDS),
                "--samples", str(int(log_uniform(rng, 1e3, 1e5))),
                "--seed", str(rng.randrange(1000)), "--format", "json"]
    grid = ",".join(repr(m) for m in mu_grid(rng, rng.randrange(2, 5)))
    if kind == "thresholds":
        return ["thresholds", "--mu-grid", grid, "--format", "json"]
    if kind == "examples":
        return ["examples", "--terms", str(rng.choice([1000, 10000])), "--format", "json"]
    if kind.startswith("theorems"):
        return ["theorems", "--level", kind.split("-")[1], "--mu-grid", grid, "--format", "json"]
    if kind == "sweep":
        picked = sorted(rng.sample(KINDS, 2), key=KINDS.index)
        return ["sweep", "--kinds", ",".join(picked), "--mu-grid", grid, "--format", "json"]
    raise ValueError(f"unknown command type {kind}")


def cli_pool(rng: random.Random, threshold, per_type: int = 12) -> list[dict]:
    return [{"stratum": kind, "argv": cli_argv(rng, kind, threshold)}
            for kind in CLI_TYPES for _ in range(per_type)]


# One round of each schedule: the strata in the order a round takes them.
# Summaries cover whole rounds only, so every run summarises the same
# stratum mix.  For disk-ledger a round takes DISK_LATTICE_PER_GRID jobs
# of each lattice grid, DISK_LONG long jobs of each family and one job of
# each inequality at each sample count, a third of the pool, because job
# costs there vary 100-fold; for sweep-sequence and cli-cold it is one
# job of each stratum.  Long-series disk jobs are a small minority, so
# they set the tail while the lattice path and the ledger set the median.
DISK_LATTICE_PER_GRID, DISK_LONG = 48, 12
DISK_LEDGER_ROUNDS_IN_POOL = 3


def interleave(*patterns: list[str]) -> list[str]:
    """Merge patterns so that each is spread evenly over the result."""
    keyed = [((i + 0.5) / len(p), k, s) for k, p in enumerate(patterns) for i, s in enumerate(p)]
    return [s for *_, s in sorted(keyed)]


PATTERNS = {
    "cli-cold": CLI_TYPES,
    "sweep-sequence": KINDS,
    "disk-ledger": interleave(
        ([lattice_stratum(g) for g in DISK_GRIDS] * (DISK_LATTICE_PER_GRID // DISK_LONG)
         + ["long-F", "long-Q"]) * DISK_LONG,
        [ledger_stratum(c, n) for n in LEDGER_SAMPLES for c in INEQUALITY_IDS]),
}


def schedule(workload: str, pool: list[dict], seed: int):
    """Yield (round, pool index) forever, in the seeded order described
    above: each stratum's jobs are taken in a seeded shuffle, and a
    stratum is reshuffled only once all of its jobs have been taken."""
    rng = random.Random(f"{workload}:{seed}")
    by_stratum: dict[str, list[int]] = {}
    for i, job in enumerate(pool):
        by_stratum.setdefault(job["stratum"], []).append(i)
    queues: dict[str, list[int]] = {s: [] for s in by_stratum}
    for rnd in itertools.count():
        for stratum in PATTERNS[workload]:
            if not queues[stratum]:
                queues[stratum] = rng.sample(by_stratum[stratum], len(by_stratum[stratum]))
            yield rnd, queues[stratum].pop()


def job_list(workload: str, pool: list[dict], seed: int, n: int) -> list[tuple[int, int]]:
    """The first n (round, pool index) pairs of a seed's schedule."""
    return list(itertools.islice(schedule(workload, pool, seed), n))
