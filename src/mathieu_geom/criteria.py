"""Coefficient-sequence criteria for close-to-convexity and starlikeness.

Each criterion is a finite-prefix check on a normalized sequence
(a_1 = 1): a chain of inequalities is scanned for n <= N and the result
is reported with the minimum margin and, on failure, a witness.

Chain comparisons use slack = 1e-12 * max(1, |lhs|, |rhs|) so that
borderline sequences (e.g. a_n = 1/n, where the chains hold with
equality) are reported Verified rather than flipping on rounding noise.
Where both compared values underflow to 0, log magnitudes decide the
order instead.
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
    ParamSet,
    ParameterDomainError,
    comparison_slack,
)
from .series import CoefficientSeq, Family, SequenceBase

DEFAULT_TERMS = 200
_UNDERFLOW = 1e-280


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


@dataclass
class Witness:
    n: int
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


@dataclass
class CriterionReport:
    criterion: str
    status: Status
    terms_checked: int
    min_margin: float
    witness: Optional[Witness] = None
    detail: str = ""
    argmin_point: Optional[dict] = None  # used by the inequality sampler

    @property
    def ok(self) -> bool:
        return self.status is Status.VERIFIED


def _prefix(c: SequenceBase, n_terms: int, least: int, weighted: bool):
    """(t, log t) for n <= N from one read of a normalized sequence: t_n =
    n a_n if weighted, else a_n."""
    if n_terms < least:
        raise ParameterDomainError(f"N must be >= {least}, got {n_terms}")
    vals, logs = c.read(n_terms)
    if abs(vals[0] - 1.0) > 1e-12:
        raise NormalizationError(f"sequence is not normalized: a_1 = {vals[0]}")
    if not weighted:
        return vals, logs
    n = np.arange(1, n_terms + 1)
    return n * vals, logs + np.log(n)


def _chain_scan(lhs: np.ndarray, rhs: np.ndarray,
                lhs_log: Optional[np.ndarray] = None,
                rhs_log: Optional[np.ndarray] = None):
    """Scan lhs[k] >= rhs[k] for all k; return (min_margin, witness).

    A chain on one sequence is scanned through shifted views of it:
    (v[:-1], v[1:]) for non-increasing, (v[1:], v[:-1]) for
    non-decreasing.  witness is the first of the worst slack-exceeding
    violations, or None.  Where both sides are below the underflow
    threshold the order of the log magnitudes decides (their linear
    margin is an uninformative 0.0), and a violation there has margin
    -exp(rhs_log).
    """
    margin = lhs - rhs
    violated = margin < -comparison_slack(lhs, rhs)
    if lhs_log is not None:
        under = (lhs < _UNDERFLOW) & (rhs < _UNDERFLOW)
        log_violated = rhs_log > lhs_log + 1e-9
        violated = np.where(under, log_violated, violated)
        margin = np.where(under, 0.0, margin)
        hit = np.flatnonzero(under & log_violated)
        margin[hit] = [-math.exp(x) for x in rhs_log[hit]]

    # min_margin as a running min() would give it: NaNs never win, and
    # of equal minima (0.0 and -0.0) the first one is kept.
    comparable = margin[~np.isnan(margin)]
    min_margin = (float(comparable[np.argmax(comparable == comparable.min())])
                  if comparable.size else math.inf)
    worst = np.flatnonzero(violated & (margin < 0.0))
    if not worst.size:
        return min_margin, None
    k = int(worst[np.argmin(margin[worst])])
    return min_margin, Witness(k + 1, float(lhs[k]), float(rhs[k]))


def check_ozaki(c: CoefficientSeq, n_terms: int = DEFAULT_TERMS) -> CriterionReport:
    """Ozaki chain condition on (n+1) a_{n+1}: either the decreasing
    chain 1 >= 2 a_2 >= ... >= 0 or the increasing chain bounded by 2.

    A Verified report names the branch in ``detail``.
    """
    t, logs = _prefix(c, n_terms, 3, weighted=True)  # t_1 = 1 by normalization

    # decreasing branch: t non-increasing and t_N >= 0
    dec_margin, dec_witness = _chain_scan(t[:-1], t[1:], logs[:-1], logs[1:])
    last = float(t[-1])
    if last < -comparison_slack(last, 0.0):
        dec_margin = min(dec_margin, last)
        dec_witness = dec_witness or Witness(n_terms, last, 0.0)
        dec_ok = False
    else:
        dec_ok = dec_witness is None
    if dec_ok:
        return CriterionReport(
            Criterion.OZAKI_DECREASING.value, Status.VERIFIED, n_terms,
            dec_margin, detail="decreasing branch",
        )

    # increasing branch: t non-decreasing and t_n <= 2
    inc_margin, inc_witness = _chain_scan(t[1:], t[:-1], logs[1:], logs[:-1])
    cap_margin = float(np.min(2.0 - t))
    inc_ok = inc_witness is None and cap_margin >= -comparison_slack(2.0, float(np.max(t)))
    inc_margin = min(inc_margin, cap_margin)
    if inc_ok:
        return CriterionReport(
            Criterion.OZAKI_INCREASING.value, Status.VERIFIED, n_terms,
            inc_margin, detail="increasing branch",
        )

    # the decreasing branch failed, so dec_witness is set
    return CriterionReport(
        Criterion.OZAKI_DECREASING.value, Status.FALSIFIED, n_terms,
        min(dec_margin, inc_margin), witness=dec_witness, detail="both branches violated",
    )


def check_fejer_starlike(c: CoefficientSeq, n_terms: int = DEFAULT_TERMS) -> CriterionReport:
    """Fejer starlikeness: {n a_n} and {n a_n - (n+1) a_{n+1}} both
    non-increasing."""
    t, logs = _prefix(c, n_terms, 3, weighted=True)

    m1, w1 = _chain_scan(t[:-1], t[1:], logs[:-1], logs[1:])
    d = t[:-1] - t[1:]
    m2, w2 = _chain_scan(d[:-1], d[1:])
    min_margin = min(m1, m2)
    witness = w1 or w2
    status = Status.VERIFIED if witness is None else Status.FALSIFIED
    detail = "" if witness is None else ("first chain" if w1 else "difference chain")
    return CriterionReport(
        Criterion.FEJER_STARLIKE.value, status, n_terms, min_margin,
        witness=witness, detail=detail,
    )


def check_fejer_halfplane(
    c: CoefficientSeq,
    n_terms: int = DEFAULT_TERMS,
    index_weighted: bool = False,
) -> CriterionReport:
    """Fejer half-plane lemma hypotheses: the sequence is non-negative,
    non-increasing and convex.

    With index_weighted=True the check applies to {n a_n} (the
    derivative-series coefficients) instead of {a_n}.
    """
    vals, logs = _prefix(c, n_terms, 3, index_weighted)

    neg_margin = float(np.min(vals))
    neg_witness = None
    if neg_margin < -comparison_slack(neg_margin, 0.0):
        k = int(np.argmin(vals))
        neg_witness = Witness(k + 1, float(vals[k]), 0.0)

    m1, w1 = _chain_scan(vals[:-1], vals[1:], logs[:-1], logs[1:])
    second_diff = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    conv_margin = float(np.min(second_diff))
    conv_witness = None
    k = int(np.argmin(second_diff))
    if conv_margin < -comparison_slack(float(vals[k]), float(2.0 * vals[k + 1])):
        conv_witness = Witness(
            k + 1, float(vals[k] + vals[k + 2]), float(2.0 * vals[k + 1])
        )

    min_margin = min(neg_margin, m1, conv_margin)
    witness = neg_witness or w1 or conv_witness
    status = Status.VERIFIED if witness is None else Status.FALSIFIED
    return CriterionReport(
        Criterion.FEJER_HALFPLANE.value, status, n_terms, min_margin,
        witness=witness,
    )


def _goodman_tail(c: CoefficientSeq, n_terms: int, weighted: np.ndarray):
    """Rigorous majorant for sum_{n > N} n a_n, or None if unavailable."""
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
    # generic: geometric ratio bound from the tip, valid when the tip
    # ratios of {n a_n} are below 1 and non-increasing
    k = min(6, len(weighted) - 1)
    tip = weighted[-(k + 1):]
    if np.any(tip <= 0.0):
        return 0.0, "zero tail"  # sequence already identically 0 at the tip
    ratios = tip[1:] / tip[:-1]
    q = float(np.max(ratios))
    if q < 1.0 and np.all(np.diff(ratios) <= 1e-12):
        return float(weighted[-1]) * q / (1.0 - q), "geometric"
    return None, ""


def check_goodman(c: CoefficientSeq, n_terms: int = DEFAULT_TERMS) -> CriterionReport:
    """Goodman sum criterion: sum_{n>=2} n a_n < 1 implies starlikeness.

    The partial sum over n <= N is completed with a family-specific
    rigorous tail majorant; without one the result is Inconclusive.
    """
    weighted, _ = _prefix(c, n_terms, 2, weighted=True)
    partial = float(np.sum(weighted[1:]))

    if partial >= 1.0:
        k = int(n_terms)
        return CriterionReport(
            Criterion.GOODMAN_SUM.value, Status.FALSIFIED, n_terms,
            1.0 - partial, witness=Witness(k, partial, 1.0),
            detail="partial sum already >= 1",
        )

    tail, how = _goodman_tail(c, n_terms, weighted)
    if tail is None:
        return CriterionReport(
            Criterion.GOODMAN_SUM.value, Status.INCONCLUSIVE, n_terms,
            1.0 - partial, detail="no rigorous tail majorant for this prefix",
        )
    margin = 1.0 - partial - tail
    status = Status.VERIFIED if margin > 0 else Status.INCONCLUSIVE
    return CriterionReport(
        Criterion.GOODMAN_SUM.value, status, n_terms, margin,
        detail=f"tail bound: {how} ({tail:.3e})",
    )


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


def ozaki_bernoulli_margin(n: int, p: ParamSet) -> float:
    """Sign-carrying log-domain margin of the Bernoulli-inequality step
    behind the close-to-convexity theorem for the F family:
    b_n = n^2 ((n+1)^2+r^2)^(mu+1) - (n+1)^2 (n^2+r^2)^(mu+1),
    which is >= 0 whenever r <= sqrt(mu).

    Returns log(n^2 ((n+1)^2+r^2)^(mu+1)) - log((n+1)^2 (n^2+r^2)^(mu+1));
    b_n >= 0 iff the returned value is >= 0.
    """
    if n < 1:
        raise ParameterDomainError(f"n must be >= 1, got {n}")
    mu, r = p.mu, p.r
    lhs = 2.0 * math.log(n) + (mu + 1.0) * math.log((n + 1.0) ** 2 + r * r)
    rhs = 2.0 * math.log(n + 1.0) + (mu + 1.0) * math.log(n * n + r * r)
    return lhs - rhs


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
