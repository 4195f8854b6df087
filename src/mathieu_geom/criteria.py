"""Coefficient-sequence criteria for close-to-convexity and starlikeness.

Each criterion is a finite-prefix check on a normalized sequence
(a_1 = 1): an ordered list of inequalities lhs_n >= rhs_n, one scan
each, combined into a report with the minimum margin and, on failure,
the witness of the first failing scan.

Every condition is scanned per element with its own slack, 1e-12 *
max(1, |lhs_n|, |rhs_n|): the monotone chains, Ozaki's end t_N >= 0 and
cap t_n <= 2, the half-plane positivity and convexity, and Goodman's
partial sum 1 >= sum_{2<=n<=N} n |a_n|.  The slack
keeps borderline sequences (e.g. a_n = 1/n, where the chains hold with
equality) Verified rather than flipping on rounding noise.  It is the
one rule: values below 1e-12, underflowed ones included, compare equal
within it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import (
    ConfigurationError,
    NormalizationError,
    ParameterDomainError,
    comparison_slack,
)
from .series import CoefficientSeq, Family, SequenceBase, prefix_arrays

DEFAULT_TERMS = 200
MIN_CHAIN_TERMS = 3  # least prefix of a chain criterion: a second difference needs a_1..a_3


class Criterion(str, enum.Enum):
    OZAKI_DECREASING = "OzakiDecreasing"
    OZAKI_INCREASING = "OzakiIncreasing"
    FEJER_STARLIKE = "FejerStarlike"
    FEJER_HALFPLANE = "FejerHalfPlane"
    GOODMAN_SUM = "GoodmanSum"


class Status(str, enum.Enum):
    VERIFIED = "Verified"
    FALSIFIED = "Falsified"
    INCONCLUSIVE = "Inconclusive"


@dataclass(slots=True)
class Witness:
    n: int
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


@dataclass(slots=True)  # one per check, kept by whoever collects them
class CriterionReport:
    criterion: str
    status: Status
    terms_checked: int
    min_margin: float
    witness: Optional[Witness] = None
    argmin_point: Optional[dict] = None  # used by the inequality sampler
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status is Status.VERIFIED


def _prefix(c: SequenceBase, n_terms: int, least: int, weighted: bool):
    """(t_n, log a_n) for n <= N from one read of a normalized sequence:
    t_n = n a_n if weighted, else a_n."""
    if n_terms < least:
        raise ParameterDomainError(f"N must be >= {least}, got {n_terms}")
    vals, logs = c.read(n_terms)
    if not abs(vals[0] - 1.0) <= 1e-12:  # NaN is not normalized either
        raise NormalizationError(f"sequence is not normalized: a_1 = {vals[0]}")
    return (prefix_arrays(n_terms)[0] * vals if weighted else vals), logs


def _chain_scan(lhs, rhs, first: int = 1):
    """Scan lhs[k] >= rhs[k] for all k; return (min_margin, witness).

    Either side may be a scalar.  A chain on one sequence is scanned
    through shifted views of it: (v[:-1], v[1:]) for non-increasing,
    (v[1:], v[:-1]) for non-decreasing.  witness is the first of the
    worst slack-exceeding violations, or None; element k is index n =
    first + k.  Only a negative margin can be a witness, so only those
    get a slack.
    """
    margin = lhs - rhs
    # min_margin as a running min() would give it: NaNs never win, and
    # of equal minima (0.0 and -0.0) the first one is kept, as by argmin
    min_margin = float(margin[margin.argmin()])
    if math.isnan(min_margin):
        comparable = margin[~np.isnan(margin)]
        min_margin = float(comparable[comparable.argmin()]) if comparable.size else math.inf
    if not min_margin < 0.0:
        return min_margin, None
    neg = (margin < 0.0).nonzero()[0]
    lhs_neg, rhs_neg = (side[neg] if np.ndim(side) else side for side in (lhs, rhs))
    worst = neg[margin[neg] < -comparison_slack(lhs_neg, rhs_neg)]
    if not worst.size:
        return min_margin, None
    k = int(worst[margin[worst].argmin()])
    lhs_k, rhs_k = (float(side[k] if np.ndim(side) else side) for side in (lhs, rhs))
    return min_margin, Witness(first + k, lhs_k, rhs_k)


def _report(criterion: Criterion, n_terms: int, scans: list, detail: str = "") -> CriterionReport:
    """Combine an ordered list of scans into one report: min_margin is the
    least over all scans, and the first scan with a witness makes the
    report Falsified and names that witness."""
    witness = next((w for _, w in scans if w), None)
    status = Status.VERIFIED if witness is None else Status.FALSIFIED
    return CriterionReport(criterion.value, status, n_terms, min(m for m, _ in scans),
                           witness=witness, detail=detail)


def check_ozaki(c: CoefficientSeq, n_terms: int = DEFAULT_TERMS) -> CriterionReport:
    """Ozaki chain condition on (n+1) a_{n+1}: either the decreasing
    chain 1 >= 2 a_2 >= ... >= 0 or the increasing chain bounded by 2.

    A Verified report names the branch in ``detail``; a Falsified one
    carries the decreasing branch's witness.
    """
    t, _ = _prefix(c, n_terms, MIN_CHAIN_TERMS, weighted=True)  # t_1 = 1 by normalization

    # decreasing branch: t non-increasing and t_N >= 0
    dec = [_chain_scan(t[:-1], t[1:]),
           _chain_scan(t[-1:], 0.0, first=n_terms)]
    report = _report(Criterion.OZAKI_DECREASING, n_terms, dec, "decreasing branch")
    if report.ok:
        return report
    # increasing branch: t non-decreasing and t_n <= 2
    inc = [_chain_scan(t[1:], t[:-1]), _chain_scan(2.0, t)]
    report = _report(Criterion.OZAKI_INCREASING, n_terms, inc, "increasing branch")
    if report.ok:
        return report
    return _report(Criterion.OZAKI_DECREASING, n_terms, dec + inc, "both branches violated")


def check_fejer_starlike(c: CoefficientSeq, n_terms: int = DEFAULT_TERMS) -> CriterionReport:
    """Fejer starlikeness: {n a_n} and {n a_n - (n+1) a_{n+1}} both
    non-increasing."""
    t, _ = _prefix(c, n_terms, MIN_CHAIN_TERMS, weighted=True)
    d = t[:-1] - t[1:]
    scans = [_chain_scan(t[:-1], t[1:]), _chain_scan(d[:-1], d[1:])]
    (_, w1), (_, w2) = scans
    detail = "first chain" if w1 else "difference chain" if w2 else ""
    return _report(Criterion.FEJER_STARLIKE, n_terms, scans, detail)


def check_fejer_halfplane(c: CoefficientSeq, n_terms: int = DEFAULT_TERMS,
                          index_weighted: bool = False) -> CriterionReport:
    """Fejer half-plane lemma hypotheses: the sequence is non-negative,
    non-increasing and convex (v_n + v_{n+2} >= 2 v_{n+1}).

    With index_weighted=True the check applies to {n a_n} (the
    derivative-series coefficients) instead of {a_n}.
    """
    v, _ = _prefix(c, n_terms, MIN_CHAIN_TERMS, index_weighted)
    return _report(Criterion.FEJER_HALFPLANE, n_terms, [
        _chain_scan(v, 0.0),
        _chain_scan(v[:-1], v[1:]),
        _chain_scan(v[:-2] + v[2:], 2.0 * v[1:-1]),
    ])


def _goodman_tail(c: CoefficientSeq, n_terms: int, log_last: float):
    """Rigorous majorant for sum_{n > N} n |a_n| and its rule, or (None, "")
    for F, a FunctionSequence and Q with q(N) >= 1; log_last is log a_N."""
    big_n = float(n_terms)
    if c.family is Family.SHAT:
        # sum_{n>N} 8n/(n^2+1)^3 <= int_N^inf 8x/(x^2+1)^3 dx
        return 2.0 / (big_n * big_n + 1.0) ** 2, "integral"
    if c.family is Family.DOUBLE_FACTORIAL:
        # telescoping: each term 4n(2n-1)!!/[(2n+1)!!+1]^2 is below
        # 2[1/((2n-1)!!+1) - 1/((2n+1)!!+1)], so the tail collapses to
        # 2/((2N+1)!!+1)
        log_dfact = math.lgamma(2 * n_terms + 2) - (n_terms * math.log(2.0) + math.lgamma(n_terms + 1))
        return 2.0 * math.exp(-log_dfact), "telescoping"
    if c.family is not Family.Q:
        return None, ""
    # (n+1) C_(n+1) / (n C_n) <= q(n) = ((n+1)/n) (n+1)^(-2 mu - 1) (1 + r^2/(n!)^2)^(mu+1),
    # as ((n+1)!)^2 + r^2 >= ((n+1)!)^2, and q decreases in n: the tail is at
    # most N C_N q/(1 - q) at q = q(N) < 1, formed in logs (C_N may underflow)
    mu, r, lf = c.params.mu, c.params.r, math.lgamma(big_n + 1.0)
    spill = math.log1p(r * r * math.exp(-2.0 * lf))
    shrink = (2.0 * mu + 1.0) * math.log(big_n + 1.0)
    log_q = math.log1p(1.0 / big_n) - shrink + (mu + 1.0) * spill
    # rounding: computed log C_n were within 7 eps of the size of their terms (mpmath)
    slack = 1e-13 * (1.0 + lf + shrink + (mu + 1.0) * (math.log1p(r * r) + 2.0 * lf + spill))
    log_q += slack
    if not log_q < 0.0:
        return None, ""
    log_tail = math.log(big_n) + log_last + slack + log_q - math.log1p(-math.exp(log_q))
    return math.nextafter(math.exp(log_tail), math.inf), "ratio"  # up: exp may underflow to 0


def check_goodman(c: CoefficientSeq, n_terms: int = DEFAULT_TERMS) -> CriterionReport:
    """Goodman sum criterion: sum_{n>=2} n |a_n| <= 1 implies starlikeness.

    The partial sum over n <= N is scanned as 1 >= sum n |a_n|, a chain
    condition of one element; a prefix that passes is completed with a
    family-specific rigorous tail majorant, and without one the result is
    Inconclusive.
    """
    t, logs = _prefix(c, n_terms, 2, weighted=True)
    partial = float(np.sum(np.abs(t[1:])))
    report = _report(Criterion.GOODMAN_SUM, n_terms, [_chain_scan(1.0, np.array([partial]), first=n_terms)],
                     "partial sum exceeds 1")
    if not report.ok:
        return report
    tail, how = _goodman_tail(c, n_terms, float(logs[-1]))
    if tail is None:
        report.status, report.detail = Status.INCONCLUSIVE, "no rigorous tail majorant for this prefix"
        return report
    report.min_margin = 1.0 - partial - tail
    report.status = Status.VERIFIED if report.min_margin > 0 else Status.INCONCLUSIVE
    report.detail = f"tail bound: {how} ({tail:.3e})"
    return report


def fejer_kernel_sigma(n: int, theta: float) -> float:
    """Closed form of the Fejer kernel partial sums:
    sigma_n = (1/2) (sin((n+1)theta/2) / sin(theta/2))^2,
    which equals sum_{k=0}^n s_k with s_k = 1/2 + sum_{j=1}^k cos(j theta).
    """
    if n < 0:
        raise ParameterDomainError(f"n must be >= 0, got {n}")
    if not (0.0 < theta < 2.0 * math.pi):
        raise ParameterDomainError(f"theta must be in (0, 2*pi), got {theta}")
    s = math.sin(0.5 * (n + 1) * theta) / math.sin(0.5 * theta)
    return 0.5 * s * s


# CLI-friendly name -> criterion, in the order the CLI lists them
CRITERIA = {
    "ozaki": check_ozaki,
    "fejer-starlike": check_fejer_starlike,
    "fejer-halfplane": check_fejer_halfplane,
    "fejer-halfplane-deriv": lambda s, n: check_fejer_halfplane(s, n, index_weighted=True),
    "goodman": check_goodman,
}


def run_criterion(name: str, c: CoefficientSeq, n_terms: int = DEFAULT_TERMS) -> CriterionReport:
    """Dispatch a criterion by CLI-friendly name."""
    if name not in CRITERIA:
        raise ConfigurationError(f"unknown criterion: {name}")
    return CRITERIA[name](c, n_terms)
