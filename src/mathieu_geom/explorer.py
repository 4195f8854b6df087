"""Sharpness exploration: for each sufficient radius, bisect in r for
the empirical failure point of the paired criterion and tabulate the gap.

A sufficient condition can never fail below its own threshold, so every
row must satisfy gap = empirical_r - sufficient_r >= -tolerance; a probe
failing at the sufficient radius itself is surfaced loudly as a
CoherenceError (it would indicate a bug or a tolerance problem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .criteria import (
    DEFAULT_TERMS,
    MIN_CHAIN_TERMS,
    check_fejer_halfplane,
    check_fejer_starlike,
    check_ozaki,
)
from .diskcheck import DiskGrid, Functional, verify_functional
from .params import CoherenceError, ConfigurationError, MathieuGeomError, ParamSet
from .series import CoefficientSeq, Family
from .thresholds import ThresholdKind, hypothesis_pairs, threshold

EXPLORE_TERMS = 500  # larger than the verification default, to reduce
                     # false "no failure" plateaus
DEFAULT_BISECT_TOL = 1e-6

# property (the part of a kind's value after the family) -> (sequence
# criterion, disk functional).  The lambdas look the criteria up by this
# module's names at call time.
_PROBES = {
    "CloseToConvex": (lambda c, n: check_ozaki(c, n), Functional.CLOSE_TO_CONVEX),
    "Starlike": (lambda c, n: check_fejer_starlike(c, n), Functional.STARLIKE),
    "HalfPlaneRatio": (lambda c, n: check_fejer_halfplane(c, n), Functional.RATIO_HALFPLANE),
    "HalfPlaneDeriv": (lambda c, n: check_fejer_halfplane(c, n, index_weighted=True),
                       Functional.DERIV_HALFPLANE),
}


@dataclass(slots=True)  # one per sweep row, kept by whoever collects them
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
    family, prop = ThresholdKind(kind).value.split("_")
    criterion, functional = _PROBES[prop]
    p = ParamSet(mu, r)
    if probe == "sequence":
        return criterion(CoefficientSeq(family, p), n_terms).ok
    if probe == "disk":
        return verify_functional(functional, Family(family), p, grid or DiskGrid()).holds
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
    if not tol > 0:  # also NaN
        raise ConfigurationError(f"tol must be > 0, got {tol}")
    sufficient_r = threshold(kind, mu)
    if r_hi is None:
        r_hi = 4.0 * sufficient_r
    if not r_hi > sufficient_r:
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
        if not lo < mid < hi:  # no double lies between them: tol is below their spacing
            break
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdRecord(kind, mu, sufficient_r, lo, lo - sufficient_r, probe, "ok")


def theorem_matrix(mu_grid, n_terms=DEFAULT_TERMS, grid=None, levels=("sequence", "disk")):
    """Rows of the acceptance matrix: each (kind, mu) at r = 0.99 *
    threshold, checked at the sequence and/or disk level."""
    grid = grid or DiskGrid()
    rows = []
    for kind, mu in hypothesis_pairs(ThresholdKind, mu_grid):
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

    A package error of one row (mu below its hypothesis minimum, r_hi below
    its threshold) marks that row errored with NaN radii; arguments that fail
    every row alike raise first.  Any other exception is a bug and propagates.
    """
    kinds = [ThresholdKind(k) for k in kinds]
    mu_grid = sorted((float(m) for m in mu_grid), key=lambda m: (math.isnan(m), m))
    if not kinds or not mu_grid:
        raise ConfigurationError("kinds and mu_grid must be non-empty")
    if not tol > 0:  # not row-local: every row would fail alike
        raise ConfigurationError(f"tol must be > 0, got {tol}")
    if r_hi is not None and not 0.0 < r_hi < math.inf:
        raise ConfigurationError(f"r_hi must be finite and > 0, got {r_hi}")
    if probe not in ("sequence", "disk"):
        raise ConfigurationError(f"unknown probe: {probe}")
    if probe == "sequence" and n_terms < MIN_CHAIN_TERMS:
        raise ConfigurationError(f"n_terms must be >= {MIN_CHAIN_TERMS}, got {n_terms}")
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
