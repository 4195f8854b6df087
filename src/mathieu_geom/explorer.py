"""Sharpness exploration: for each sufficient radius, bisect in r for
the empirical failure point of the paired criterion and tabulate the gap.

A sufficient condition can never fail below its own threshold, so every
row must satisfy gap = empirical_r - sufficient_r >= -tolerance; a probe
failing at the sufficient radius itself is surfaced loudly as a
CoherenceError (it would indicate a bug or a tolerance problem).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from .criteria import (
    check_fejer_halfplane,
    check_fejer_starlike,
    check_ozaki,
)
from .diskcheck import DiskGrid, Functional, verify_functional
from .params import CoherenceError, ConfigurationError, MathieuGeomError, ParamSet
from .series import CoefficientSeq, Family
from .thresholds import MU_MIN, ThresholdKind, threshold

EXPLORE_TERMS = 500  # larger than the verification default, to reduce
                     # false "no failure" plateaus
DEFAULT_BISECT_TOL = 1e-6

# kind -> (family, sequence probe, disk functional)
_SEQ_PROBES = {
    ThresholdKind.F_CLOSE_TO_CONVEX: (Family.F, lambda c, n: check_ozaki(c, n)),
    ThresholdKind.F_STARLIKE: (Family.F, lambda c, n: check_fejer_starlike(c, n)),
    ThresholdKind.F_HALFPLANE_RATIO: (Family.F, lambda c, n: check_fejer_halfplane(c, n)),
    ThresholdKind.F_HALFPLANE_DERIV: (
        Family.F, lambda c, n: check_fejer_halfplane(c, n, index_weighted=True)),
    ThresholdKind.Q_CLOSE_TO_CONVEX: (Family.Q, lambda c, n: check_ozaki(c, n)),
    ThresholdKind.Q_STARLIKE: (Family.Q, lambda c, n: check_fejer_starlike(c, n)),
    ThresholdKind.Q_HALFPLANE_RATIO: (Family.Q, lambda c, n: check_fejer_halfplane(c, n)),
    ThresholdKind.Q_HALFPLANE_DERIV: (
        Family.Q, lambda c, n: check_fejer_halfplane(c, n, index_weighted=True)),
}

_DISK_FUNCTIONALS = {
    ThresholdKind.F_CLOSE_TO_CONVEX: Functional.CLOSE_TO_CONVEX,
    ThresholdKind.F_STARLIKE: Functional.STARLIKE,
    ThresholdKind.F_HALFPLANE_RATIO: Functional.RATIO_HALFPLANE,
    ThresholdKind.F_HALFPLANE_DERIV: Functional.DERIV_HALFPLANE,
    ThresholdKind.Q_CLOSE_TO_CONVEX: Functional.CLOSE_TO_CONVEX,
    ThresholdKind.Q_STARLIKE: Functional.STARLIKE,
    ThresholdKind.Q_HALFPLANE_RATIO: Functional.RATIO_HALFPLANE,
    ThresholdKind.Q_HALFPLANE_DERIV: Functional.DERIV_HALFPLANE,
}


@dataclass
class ThresholdRecord:
    kind: ThresholdKind
    mu: float
    sufficient_r: float
    empirical_r: float
    gap: float
    probe: str
    status: str  # "ok", "no_failure_found", or "error: ..."


def probe_passes(
    kind: ThresholdKind,
    mu: float,
    r: float,
    probe: str = "sequence",
    n_terms: int = EXPLORE_TERMS,
    grid: DiskGrid | None = None,
) -> bool:
    """Run the paired criterion/functional for one (kind, mu, r)."""
    kind = ThresholdKind(kind)
    family, seq_probe = _SEQ_PROBES[kind]
    p = ParamSet(mu, r)
    if probe == "sequence":
        return seq_probe(CoefficientSeq(family, p), n_terms).ok
    if probe == "disk":
        grid = grid or DiskGrid()
        return verify_functional(_DISK_FUNCTIONALS[kind], family, p, grid).holds
    raise ConfigurationError(f"unknown probe: {probe}")


def bisect_failure_r(
    kind: ThresholdKind | str,
    mu: float,
    probe: str = "sequence",
    r_hi: float | None = None,
    tol: float = DEFAULT_BISECT_TOL,
    n_terms: int = EXPLORE_TERMS,
    grid: DiskGrid | None = None,
) -> ThresholdRecord:
    """Bisect r over [sufficient_r, r_hi] for the first failing verdict."""
    kind = ThresholdKind(kind)
    if tol <= 0:
        raise ConfigurationError(f"tol must be > 0, got {tol}")
    sufficient_r = threshold(kind, mu)
    if r_hi is None:
        r_hi = 4.0 * sufficient_r
    if r_hi <= sufficient_r:
        raise ConfigurationError(f"r_hi {r_hi} must exceed sufficient_r {sufficient_r}")

    def passes(r: float) -> bool:
        return probe_passes(kind, mu, r, probe, n_terms, grid)

    if not passes(sufficient_r):
        raise CoherenceError(
            f"{kind.value} probe ({probe}) fails at its own sufficient radius "
            f"r={sufficient_r} for mu={mu}"
        )
    if passes(r_hi):
        return ThresholdRecord(kind, mu, sufficient_r, r_hi, r_hi - sufficient_r,
                               probe, "no_failure_found")
    lo, hi = sufficient_r, r_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdRecord(kind, mu, sufficient_r, lo, lo - sufficient_r, probe, "ok")


def theorem_matrix(mu_grid, n_terms=200, grid=None, levels=("sequence", "disk")):
    """Rows of the acceptance matrix: each (kind, mu) at r = 0.99 *
    threshold, checked at the sequence and/or disk level."""
    grid = grid or DiskGrid()
    rows = []
    for kind in ThresholdKind:
        for mu in mu_grid:
            if mu < MU_MIN.get(kind, 0.0):
                continue
            r = 0.99 * threshold(kind, mu)
            row = {"kind": kind.value, "mu": mu, "r": r}
            for level in levels:
                row[level] = probe_passes(kind, mu, r, probe=level,
                                          n_terms=n_terms, grid=grid)
            row["pass"] = all(row[level] for level in levels)
            rows.append(row)
    return rows


def sweep(
    kinds,
    mu_grid,
    probe: str = "sequence",
    r_hi: float | None = None,
    tol: float = DEFAULT_BISECT_TOL,
    n_terms: int = EXPLORE_TERMS,
    grid: DiskGrid | None = None,
) -> list[ThresholdRecord]:
    """One ThresholdRecord per (kind, mu); row order is (kind, mu asc).

    Per-row package errors (e.g. mu below a hypothesis minimum) do not
    abort the sweep; the row is marked errored with NaN radii.  Any other
    exception is a bug and propagates.
    """
    kinds = [ThresholdKind(k) for k in kinds]
    mu_grid = sorted(float(m) for m in mu_grid)
    if not kinds or not mu_grid:
        raise ConfigurationError("kinds and mu_grid must be non-empty")
    records = []
    for kind in kinds:
        for mu in mu_grid:
            try:
                records.append(
                    bisect_failure_r(kind, mu, probe, r_hi, tol, n_terms, grid)
                )
            except MathieuGeomError as exc:  # row-local: mark and continue
                records.append(ThresholdRecord(
                    kind, mu, math.nan, math.nan, math.nan, probe,
                    f"error: {exc}",
                ))
    return records


CSV_COLUMNS = ["kind", "mu", "sufficient_r", "empirical_r", "gap", "probe", "status"]


def record_to_dict(rec: ThresholdRecord) -> dict:
    return {
        "kind": rec.kind.value,
        "mu": rec.mu,
        "sufficient_r": rec.sufficient_r,
        "empirical_r": rec.empirical_r,
        "gap": rec.gap,
        "probe": rec.probe,
        "status": rec.status,
    }


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        d = record_to_dict(rec)
        writer.writerow([
            d["kind"], repr(d["mu"]), repr(d["sufficient_r"]),
            repr(d["empirical_r"]), repr(d["gap"]), d["probe"], d["status"],
        ])
    return buf.getvalue()


def records_to_json(records) -> str:
    return json.dumps([record_to_dict(r) for r in records], indent=2)
