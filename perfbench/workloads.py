"""The three workloads: how a pool job runs, what its verdict is, and the
independent-route check of its output.

Every job returns an Outcome.  A job *fails* when its outcome is unlike
the one recorded in reference.json: an exception, exit code or verdict
other than the recorded one.  A job whose reference is the coefficient
cap's TruncationError may also answer with a verdict, which the
independent check then confirms, so that raising the cap later does not
read as a failure.  The independent checks recompute each
result by a route that does not go through the code under test; any
disagreement makes the run incorrect.

The package is called through module attributes (explorer.bisect_failure_r,
diskcheck.verify_functional, thresholds.verify_inequality) so that the
tracing wrappers, when installed, see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (BENCH_DIR, COMPUTE_REF_S, SPAWN_REF_S, compute_probe, python_child,
                    spawn_probe, tail_percentile)
from pools import CLI_FUNCTIONALS

from mathieu_geom import diskcheck, explorer, series, thresholds
from mathieu_geom.criteria import run_criterion
from mathieu_geom.diskcheck import DiskGrid
from mathieu_geom.params import MathieuGeomError, ParamSet
from mathieu_geom.series import CoefficientSeq

BISECT_TOL = explorer.DEFAULT_BISECT_TOL
EXPLORE_TERMS = explorer.EXPLORE_TERMS
SLACK_REL = 1e-12           # criteria.comparison_slack
SERIES_TOL = 1e-12          # diskcheck cuts each series where its tail bound drops below this
SUM_ROUNDING = 1e-13        # rounding of a sum, relative to the sum of its terms' moduli
UNDERFLOW = 1e-280          # below this the criteria order by log magnitude
TRUNCATED = {"error": "TruncationError"}    # a series needed more terms than the cap


@dataclass
class Outcome:
    verdict: object             # compared with the recorded verdict
    raised: bool = False
    payload: object = None      # what the independent check needs
    maxrss_mb: float = 0.0      # cli-cold: the child's peak RSS
    detail: str = ""


def _error_outcome(exc: Exception) -> Outcome:
    return Outcome({"error": type(exc).__name__}, raised=True, detail=str(exc))


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= abs_ + rel * max(1.0, abs(a), abs(b))


# --- independent coefficient route -----------------------------------------

def log_coeffs(family: str, mu: float, r: float, n: np.ndarray) -> np.ndarray:
    """log a_n from the closed forms, with scipy's gammaln for log n!."""
    from scipy.special import gammaln

    r2 = r * r
    if family == "F":
        return np.log(n) + (mu + 1.0) * (np.log1p(r2) - np.log(n * n + r2))
    lf = gammaln(n + 1.0)
    return lf + (mu + 1.0) * (np.log1p(r2) - (2.0 * lf + np.log1p(r2 * np.exp(-2.0 * lf))))


def _slack(a, b):
    return SLACK_REL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _chain_ok(v: np.ndarray, logs=None, increasing: bool = False) -> bool:
    """Vectorised scan of v[k] >= v[k+1] (or <=), with the criteria's
    slack and its log-magnitude rule where both neighbours underflow."""
    lhs, rhs = (v[1:], v[:-1]) if increasing else (v[:-1], v[1:])
    bad = (lhs - rhs) < -_slack(lhs, rhs)
    if logs is not None:
        both = (lhs < UNDERFLOW) & (rhs < UNDERFLOW)
        log_bad = (logs[:-1] > logs[1:] + 1e-9) if increasing else (logs[1:] > logs[:-1] + 1e-9)
        bad = np.where(both, log_bad, bad)
    return not bool(np.any(bad))


def sequence_probe(kind: str, mu: float, r: float, n_terms: int = EXPLORE_TERMS) -> bool:
    """The paired sequence criterion of a threshold kind, by numpy scans."""
    family, prop = kind.split("_", 1)
    n = np.arange(1, n_terms + 1, dtype=float)
    logs = log_coeffs(family, mu, r, n)
    vals = np.exp(logs)
    t, tlogs = n * vals, logs + np.log(n)
    if prop == "CloseToConvex":          # Ozaki: either branch
        dec = _chain_ok(t, tlogs) and t[-1] >= -SLACK_REL * max(1.0, abs(t[-1]))
        inc = (_chain_ok(t, tlogs, increasing=True)
               and float(np.min(2.0 - t)) >= -SLACK_REL * max(2.0, float(np.max(t))))
        return dec or inc
    if prop == "Starlike":               # Fejer: t and its differences
        return _chain_ok(t, tlogs) and _chain_ok(t[:-1] - t[1:])
    if prop == "HalfPlaneDeriv":
        vals, logs = t, tlogs
    # Fejer half-plane: non-negative, non-increasing, convex
    neg = float(np.min(vals))
    if neg < -SLACK_REL * max(1.0, abs(neg)):
        return False
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    k = int(np.argmin(second))
    convex = second[k] >= -SLACK_REL * max(1.0, abs(vals[k]), abs(2.0 * vals[k + 1]))
    return _chain_ok(vals, logs) and bool(convex)


def functional_at(functional: str, family: str, mu: float, r: float, z: complex) -> tuple[float, float]:
    """A disk functional at one point by direct summation of the series,
    carried until the terms are below 1e-20 of the first.  Returns the
    value and how far the package's value may lie from it: each series
    may be off by SERIES_TOL plus rounding, and the functional carries
    that error on, which near a zero of f(z)/z magnifies it many times."""
    rho = abs(z)
    n_terms = 64 if rho == 0 else int(min(2_000_000, max(64, math.ceil(math.log(1e-20) / math.log(rho)))))
    n = np.arange(1, n_terms + 1, dtype=float)
    a = np.exp(log_coeffs(family, mu, r, n))
    moduli = rho ** (n - 1)
    powers = moduli * np.exp(1j * math.atan2(z.imag, z.real) * (n - 1))
    p = complex(np.sum(a * powers))         # f(z)/z
    d = complex(np.sum(n * a * powers))     # f'(z)
    err_p = SERIES_TOL + SUM_ROUNDING * float(np.sum(a * moduli))
    err_d = SERIES_TOL + SUM_ROUNDING * float(np.sum(n * a * moduli))
    if functional == "RatioHalfPlane":
        return p.real, err_p
    if functional == "DerivHalfPlane":
        return d.real, err_d
    if functional == "Starlike":
        return (d / p).real, (err_d + abs(d / p) * err_p) / abs(p)
    return ((1.0 - z) * d).real, abs(1.0 - z) * err_d       # CloseToConvex


# --- independent inequality route ------------------------------------------

def _digamma(x):
    from scipy.special import digamma
    return digamma(x)


def _trigamma(x):
    from scipy.special import polygamma
    return polygamma(1, x)


def _total(p):
    x, mu, r, c = p["x"], p["mu"], p["r"], p["c"]
    c1, r2 = 2.0 * mu + 1.0, r * r
    return (2.0 * (r2 + c) * (r2 - c1 * c) * np.sqrt(x)
            + x * (r2 * r2 - 2.0 * r2 * (4.0 * mu + 3.0) * c + c1 * c1 * c * c) * 1.9
            + x * (r2 + c) * (r2 - c1 * c) * (1.0 / (x + 1.0) + 1.0 / (x + 1.0) ** 2))


# The eleven ledger inequalities as array expressions (margin >= 0 means
# the inequality holds at the point).
MARGINS = {
    "eq-r-mu-c": lambda p: -2.0 * p["r"] ** 2 * (4.0 * p["mu"] + 3.0) * p["c"]
    + (2.0 * p["mu"] + 1.0) ** 2 * p["c"] ** 2,
    "eq-psi-upper": lambda p: np.log(p["x"]) - 0.5 / p["x"] - _digamma(p["x"]),
    "eq-psi-lower": lambda p: _digamma(p["x"]) - np.log(p["x"]) + 1.0 / p["x"],
    "eq-trigamma": lambda p: 1.0 / p["x"] + 1.0 / p["x"] ** 2 - _trigamma(p["x"]),
    "eq-sqrt": lambda p: np.sqrt(p["x"]) - np.log(p["x"] + 1.0) + 0.5 / (p["x"] + 1.0),
    "eq-19-10": lambda p: (np.log(p["x"] + 1.0) - 1.0 / (p["x"] + 1.0)) ** 2 - 1.9,
    "eq-total": _total,
    "eq-r-mu-ineq": lambda p: -2.0 * p["r"] ** 2 * (4.0 * p["mu"] + 3.0)
    + (2.0 * p["mu"] + 1.0) ** 2 * p["c"],
    "eq-log-ineq": lambda p: (np.log(p["x"] + 1.0) - 1.0 / (p["x"] + 1.0)) ** 2 - 1.0,
    "eq-frac-ineq": lambda p: 0.5 - 1.0 / (p["x"] + 1.0) - 1.0 / (p["x"] + 1.0) ** 2,
    "eq-c-mu-ineq": lambda p: (2.0 * p["mu"] + 1.0) ** 2
    - 2.0 * p["r"] ** 2 * (4.0 * p["mu"] + 3.0) / p["c"]
    - 0.5 * (2.0 * p["mu"] + 1.0) * (1.0 + p["r"] ** 2 / p["c"]),
}


def ledger_points(dims: list, n_interior: int, seed: int) -> dict:
    """The sampler's documented point set: box corners, each face filled
    with scrambled Sobol points, then the Sobol interior; scaled per
    dimension (log or linear), with r = t sqrt(mu)."""
    from scipy.stats import qmc

    d = len(dims)
    parts = [np.array(list(itertools.product((0.0, 1.0), repeat=d)), dtype=float)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sobol = qmc.Sobol(d, scramble=True, seed=seed)
        n_face = max(1, n_interior // (8 * d)) if d > 1 else 0
        for k in range(d):
            for bound in (0.0, 1.0):
                if n_face:
                    pts = sobol.random(n_face)
                    pts[:, k] = bound
                    parts.append(pts)
        parts.append(sobol.random(n_interior))
    unit = np.vstack(parts)
    out = {}
    for k, (name, lo, hi, logscale) in enumerate(dims):
        u = unit[:, k]
        out[name] = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))) if logscale else lo + u * (hi - lo)
    if "t" in out:
        out["r"] = out["t"] * np.sqrt(out["mu"])
    return out


# --- workloads --------------------------------------------------------------

class Workload:
    in_process = True
    # The fewest jobs a 30 s run summarised at the commit that defined the
    # benchmark, on a shared machine in a slow stretch.  job_tail_ms is
    # reported at tail_percentile(summary_jobs), fixed here so that the
    # percentile does not move when a later commit runs more jobs in the
    # same time, and so that every run has ten jobs beyond it.
    summary_jobs = 0
    checks_per_run = 100        # independent checks on the first jobs of a run
    # speed probe run after every timed job, and the probes on each side of
    # a job whose median scales it (common.at_reference_speed)
    probe_ref_s = COMPUTE_REF_S
    probe_window = 1

    @property
    def tail_pct(self) -> float:
        return tail_percentile(self.summary_jobs)

    def probe(self) -> float:
        return compute_probe()

    def run(self, job: dict) -> Outcome:
        raise NotImplementedError

    def warmup(self) -> None:
        """One fixed job of each kind, run untimed before the loop and in
        setup_s."""

    def matches(self, ref, out: Outcome) -> bool:
        return ref == out.verdict

    def check(self, job: dict, out: Outcome) -> list[str]:
        return []


class SweepSequence(Workload):
    # 844-1276 rows; at p99 a few preempted rows set the tail, which then
    # spread by a third between runs
    summary_jobs = 840

    def run(self, job):
        try:
            rec = explorer.bisect_failure_r(job["kind"], job["mu"], probe="sequence")
        except MathieuGeomError as exc:
            return _error_outcome(exc)
        return Outcome({"status": rec.status, "empirical_r": rec.empirical_r}, payload=rec)

    def warmup(self):
        explorer.bisect_failure_r("F_Starlike", 1.0, probe="sequence")

    def matches(self, ref, out):
        v = out.verdict
        if "error" in ref or "error" in v:
            return ref == v
        return ref["status"] == v["status"] and abs(ref["empirical_r"] - v["empirical_r"]) <= 10 * BISECT_TOL

    def check(self, job, out):
        rec = out.payload
        if rec is None:
            return []
        kind, mu, r = job["kind"], job["mu"], rec.empirical_r
        errs = []
        if not sequence_probe(kind, mu, r):
            errs.append(f"{kind} mu={mu}: criterion fails at empirical_r={r}")
        if rec.status == "ok" and sequence_probe(kind, mu, r + BISECT_TOL):
            errs.append(f"{kind} mu={mu}: criterion still holds at empirical_r + tol")
        return errs


class DiskJobs:
    """diskcheck.verify_functional on one (family, functional, mu, r, grid)."""

    def run(self, job):
        grid = DiskGrid(job["n_radii"], job["n_angles"], job["max_radius"])
        try:
            rep = diskcheck.verify_functional(job["functional"], job["family"],
                                              ParamSet(job["mu"], job["r"]), grid)
        except MathieuGeomError as exc:
            return _error_outcome(exc)
        return Outcome(rep.status.value, payload=rep)

    def warmup(self):
        diskcheck.verify_functional("Starlike", "F", ParamSet(1.0, 0.6), DiskGrid())

    def check(self, job, out):
        rep = out.payload
        if rep is None:
            return []
        direct, err = functional_at(job["functional"], job["family"], job["mu"], job["r"], rep.argmin)
        errs = []
        if not _close(direct, rep.min_value, 1e-8, err):
            errs.append(f"{job['functional']} at {rep.argmin}: direct sum {direct!r} "
                        f"!= reported min {rep.min_value!r} (series error up to {err:.3g})")
        holds = rep.min_value > rep.bound - diskcheck.DEFAULT_TOLERANCE
        if holds != rep.holds:
            errs.append(f"verdict {rep.status.value} disagrees with min {rep.min_value!r}")
        return errs


class LedgerJobs:
    """thresholds.verify_inequality on one (case, samples, Sobol seed)."""

    def run(self, job):
        try:
            rep = thresholds.verify_inequality(job["case"], job["samples"], job["seed"])
        except MathieuGeomError as exc:
            return _error_outcome(exc)
        return Outcome(rep.status.value, payload=rep)

    def warmup(self):
        thresholds.verify_inequality("eq-total", 10**4, 0)

    def check(self, job, out):
        rep = out.payload
        if rep is None:
            return []
        case = thresholds.INEQUALITY_CASES[job["case"]]
        pts = ledger_points(case.dims, job["samples"], job["seed"])
        margins = MARGINS[job["case"]](pts)
        m = float(np.min(margins))
        errs = []
        if not _close(m, rep.min_margin, 1e-9, 1e-12):
            errs.append(f"{job['case']}: scipy min margin {m!r} != reported {rep.min_margin!r}")
        if (m > -1e-12) != rep.ok:
            errs.append(f"{job['case']}: status {rep.status.value} disagrees with min margin {m!r}")
        if len(margins) != rep.terms_checked:
            errs.append(f"{job['case']}: {rep.terms_checked} points checked, expected {len(margins)}")
        return errs


class DiskLedger(Workload):
    """Disk functionals and ledger inequalities, interleaved in process."""

    summary_jobs = 2 * 304      # two rounds
    checks_per_run = 80

    def __init__(self):
        self.disk, self.ledger = DiskJobs(), LedgerJobs()

    def _jobs(self, job):
        return self.ledger if "case" in job else self.disk

    def run(self, job):
        return self._jobs(job).run(job)

    def warmup(self):
        self.disk.warmup()
        self.ledger.warmup()

    def matches(self, ref, out):
        if ref == TRUNCATED and not out.raised:
            return True
        return ref == out.verdict

    def check(self, job, out):
        return self._jobs(job).check(job, out)


class CliCold(Workload):
    """One fresh interpreter per command: python -m mathieu_geom.cli."""

    in_process = False
    summary_jobs = 2 * 10       # two rounds: the rule gives the median
    checks_per_run = 10**6
    probe_ref_s = SPAWN_REF_S
    probe_window = 2

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def probe(self):
        return spawn_probe(self.work_dir)

    def run(self, job, spans: str | None = None):
        """Without `spans`, the command as users run it.  With it, through
        child.py cli, which traces into the file `spans` unless it is "-";
        the traced run uses that entry point for both of its sides."""
        if spans is None:
            entry = ["-m", "mathieu_geom.cli"]
        else:
            entry = [str(BENCH_DIR / "child.py"), "cli", spans]
        child = python_child([*entry, *job["argv"]], self.work_dir)
        try:
            payload = json.loads(child.out)
        except json.JSONDecodeError:
            payload = None
        return Outcome(child.code, payload=payload, maxrss_mb=child.maxrss_mb,
                       detail=child.err.strip())

    def check(self, job, out):
        expected_code, compare = cli_expected(job["argv"])
        errs = []
        if out.verdict != expected_code:
            errs.append(f"{job['argv']}: exit {out.verdict}, library gives {expected_code}")
        if out.payload is None:
            if expected_code != 2:
                errs.append(f"{job['argv']}: no JSON on stdout")
            return errs
        return errs + [f"{job['argv'][0]}: {e}" for e in compare(out.payload)]


def make(name: str, work_dir: Path) -> Workload:
    table = {"sweep-sequence": SweepSequence, "disk-ledger": DiskLedger}
    return CliCold(work_dir) if name == "cli-cold" else table[name]()


WORKLOADS = ["cli-cold", "sweep-sequence", "disk-ledger"]


# --- cli-cold: the in-process library result for a command line ------------

def _status_code(status: str) -> int:
    return {"Verified": 0, "Holds": 0, "Inconclusive": 3}.get(status, 1)


def _fields(expected: dict, rel: float = 1e-12):
    def compare(payload: dict) -> list[str]:
        errs = []
        for key, want in expected.items():
            got = payload.get(key)
            if isinstance(want, float):
                ok = isinstance(got, (int, float)) and _close(float(got), want, rel)
            else:
                ok = got == want
            if not ok:
                errs.append(f"{key}={got!r}, library gives {want!r}")
        return errs
    return compare


def _rows_compare(key: str, rows: list[dict]):
    def compare(payload: dict) -> list[str]:
        got = payload.get(key)
        if not isinstance(got, list) or len(got) != len(rows):
            return [f"{key}: {len(got) if isinstance(got, list) else got!r} rows, library gives {len(rows)}"]
        errs = []
        for g, want in zip(got, rows):
            errs += _fields(want)(g)
        return errs
    return compare


def _seq(flags: dict) -> CoefficientSeq:
    return CoefficientSeq(flags["--family"], ParamSet(float(flags["--mu"]), float(flags["--r"])))


def _grid(flags: dict) -> DiskGrid:
    return DiskGrid(int(flags.get("--radii", 64)), int(flags.get("--angles", 256)),
                    float(flags.get("--max-radius", 0.995)))


def _mu_grid(flags: dict) -> list[float]:
    return [float(m) for m in flags["--mu-grid"].split(",")]


def cli_expected(argv: list[str]):
    """(exit code, payload comparer) from calling the library directly."""
    tokens = [t for arg in argv[1:] for t in arg.split("=", 1)]
    cmd, flags = argv[0], dict(zip(tokens[::2], tokens[1::2]))
    try:
        return _cli_expected(cmd, flags)
    except MathieuGeomError:
        return 2, lambda payload: []


def _cli_expected(cmd: str, flags: dict):
    if cmd == "eval":
        fam = flags["--family"]
        if fam == "S":
            res = series.eval_S(float(flags["--r"]))
            return 0, _fields({"value": res.value, "truncation_index": res.truncation_index})
        if fam == "S-integral":
            return 0, _fields({"value": series.eval_S_integral(float(flags["--r"]), 1e-12)})
        res = series.eval_series(_seq(flags), complex(flags["--z"].replace("i", "j")))
        return 0, _fields({"value_re": res.value.real, "value_im": res.value.imag,
                           "truncation_index": res.truncation_index})
    if cmd == "coeffs":
        rows = [{"n": n, "value": v, "log_value": lv} for n, v, lv in _seq(flags).prefix(int(flags["--n"]))]
        return 0, _rows_compare("coefficients", rows)
    if cmd == "verify" and "--criterion" in flags:
        rep = run_criterion(flags["--criterion"], _seq(flags), int(flags["--terms"]))
        return _status_code(rep.status.value), _fields(
            {"status": rep.status.value, "min_margin": rep.min_margin, "terms_checked": rep.terms_checked})
    if cmd == "verify" and "--functional" in flags:
        functional = CLI_FUNCTIONALS[flags["--functional"]]
        rep = diskcheck.verify_functional(functional, _seq(flags), grid=_grid(flags))
        return _status_code(rep.status.value), _fields(
            {"status": rep.status.value, "min_value": rep.min_value})
    if cmd == "verify":
        rep = thresholds.verify_inequality(flags["--inequality"], int(flags["--samples"]), int(flags["--seed"]))
        return _status_code(rep.status.value), _fields(
            {"status": rep.status.value, "min_margin": rep.min_margin, "terms_checked": rep.terms_checked})
    if cmd == "thresholds":
        rows = [{"kind": k.value, "mu": mu, "sufficient_r": thresholds.threshold(k, mu)}
                for k in thresholds.ThresholdKind for mu in _mu_grid(flags)
                if mu >= thresholds.MU_MIN.get(k, 0.0)]
        return 0, _rows_compare("thresholds", rows)
    if cmd == "examples":
        terms = int(flags["--terms"])
        shat = run_criterion("goodman", CoefficientSeq("SHat"), terms)
        dfac = run_criterion("goodman", CoefficientSeq("DoubleFactorial"), terms)
        s1 = series.eval_S(1.0, 1e-12).value

        def compare(payload):
            errs = _fields({"S_at_1": s1})(payload)
            for key, rep in (("SHat_goodman", shat), ("DoubleFactorial_goodman", dfac)):
                errs += _fields({"status": rep.status.value, "min_margin": rep.min_margin})(payload.get(key, {}))
            return errs
        return (0 if shat.ok and dfac.ok else 1), compare
    if cmd == "theorems":
        level = flags["--level"]
        rows = []
        for k in thresholds.ThresholdKind:
            for mu in _mu_grid(flags):
                if mu < thresholds.MU_MIN.get(k, 0.0):
                    continue
                r = 0.99 * thresholds.threshold(k, mu)
                ok = explorer.probe_passes(k, mu, r, probe=level, n_terms=200, grid=DiskGrid())
                rows.append({"kind": k.value, "mu": mu, "r": r, level: ok, "pass": ok})
        return (0 if all(row["pass"] for row in rows) else 1), _rows_compare("matrix", rows)
    if cmd == "sweep":
        rows = []
        for k in flags["--kinds"].split(","):
            for mu in sorted(_mu_grid(flags)):
                try:
                    rec = explorer.bisect_failure_r(k, mu, "sequence")
                    rows.append({"kind": k, "mu": mu, "empirical_r": rec.empirical_r, "status": rec.status})
                except MathieuGeomError as exc:
                    rows.append({"kind": k, "mu": mu, "status": f"error: {exc}"})
        return 0, lambda payload: _rows_compare("rows", rows)({"rows": payload})
    raise ValueError(f"unknown command {cmd}")
