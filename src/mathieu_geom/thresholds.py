"""Closed-form sufficient radii, digamma/trigamma machinery, and
falsification-search for the inequality ledger.

Every theorem hypothesis has the form "r below a closed-form function of
mu"; `threshold` returns that radius.  The convexity analysis of the
factorial family rests on the auxiliary functions A(x) and A~(x) (log
domain with sign tracking) and on eleven scalar/polynomial inequalities,
each checked here by dense stratified sampling of its constraint box.
The sampler reports the minimum margin and its location so the sharpness
of each estimate is visible; it verifies, it does not prove.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .criteria import CriterionReport, Status
from .params import (
    ConfigurationError,
    HypothesisError,
    NumericError,
    ParamSet,
    ParameterDomainError,
)
from .series import CoefficientSeq, Family


class ThresholdKind(str, enum.Enum):
    F_CLOSE_TO_CONVEX = "F_CloseToConvex"
    F_STARLIKE = "F_Starlike"
    F_HALFPLANE_RATIO = "F_HalfPlaneRatio"
    F_HALFPLANE_DERIV = "F_HalfPlaneDeriv"
    Q_CLOSE_TO_CONVEX = "Q_CloseToConvex"
    Q_STARLIKE = "Q_Starlike"
    Q_HALFPLANE_RATIO = "Q_HalfPlaneRatio"
    Q_HALFPLANE_DERIV = "Q_HalfPlaneDeriv"


# minimum mu for the theorem hypothesis; inclusive where nonzero
MU_MIN = {
    ThresholdKind.Q_STARLIKE: 2.0,
    ThresholdKind.Q_HALFPLANE_DERIV: 2.0,
}

SQRT_MU_KINDS = frozenset({
    ThresholdKind.F_CLOSE_TO_CONVEX,
    ThresholdKind.Q_CLOSE_TO_CONVEX,
    ThresholdKind.Q_STARLIKE,
    ThresholdKind.Q_HALFPLANE_RATIO,
    ThresholdKind.Q_HALFPLANE_DERIV,
})


def threshold(kind: ThresholdKind | str, mu: float, strict: bool = True) -> float:
    """Closed-form sufficient radius for the given property and mu.

    With strict=True (default), mu below the hypothesis minimum raises;
    strict=False evaluates the formula anyway for exploration outside
    the theorem hypotheses.
    """
    kind = ThresholdKind(kind)
    mu_min = MU_MIN.get(kind, 0.0)
    if mu <= 0:
        raise HypothesisError(f"mu must be > 0, got {mu}")
    if strict and mu < mu_min:
        raise HypothesisError(f"{kind.value} requires mu >= {mu_min}, got {mu}")
    if kind in SQRT_MU_KINDS:
        return math.sqrt(mu)
    if kind in (ThresholdKind.F_STARLIKE, ThresholdKind.F_HALFPLANE_DERIV):
        return math.sqrt((5.0 * mu + 3.0 - math.sqrt(17.0 * mu * mu + 26.0 * mu + 9.0)) / 2.0)
    # F_HALFPLANE_RATIO
    return math.sqrt((2.0 * mu + 1.0) / 3.0)


def f_decrease_only_radius(mu: float) -> float:
    """Wider radius sqrt(1+2mu) under which the F coefficients merely
    decrease (without the convexity needed for the half-plane bound).
    Exploratory only; not a sufficient radius for any mapping property.
    """
    if mu <= 0:
        raise HypothesisError(f"mu must be > 0, got {mu}")
    return math.sqrt(1.0 + 2.0 * mu)


# --- digamma / trigamma -----------------------------------------------------

# asymptotic tail coefficients in y = x^-2:
# psi(x) ~ ln x - 1/(2x) - sum B_2k/(2k) x^(-2k)
_PSI_TAIL = (-1.0 / 12, 1.0 / 120, -1.0 / 252, 1.0 / 240,
             -1.0 / 132, 691.0 / 32760, -1.0 / 12)
# psi'(x) ~ 1/x + 1/(2x^2) + x^-3 * sum B_2k x^(-2(k-1))
_TRI_TAIL = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
             5.0 / 66, -691.0 / 2730, 7.0 / 6)

_RECURRENCE_CUTOFF = 8.0


def digamma(x: float) -> float:
    """psi(x) for x > 0, by upward recurrence to x >= 8 plus the
    asymptotic series (absolute error below 1e-12)."""
    if not (x > 0):
        raise ParameterDomainError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < _RECURRENCE_CUTOFF:
        acc -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_PSI_TAIL):
        tail = tail * y + c
    return acc + math.log(x) - 0.5 / x + tail * y


def trigamma(x: float) -> float:
    """psi'(x) for x > 0, same scheme as `digamma`."""
    if not (x > 0):
        raise ParameterDomainError(f"trigamma requires x > 0, got {x}")
    acc = 0.0
    while x < _RECURRENCE_CUTOFF:
        acc += 1.0 / (x * x)
        x += 1.0
    y = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_TRI_TAIL):
        tail = tail * y + c
    return acc + 1.0 / x + 0.5 * y + tail * y / x


def psi_bounds_check(x: float) -> tuple[bool, bool]:
    """Check log x - 1/x < psi(x) < log x - 1/(2x) for x > 1.

    Returns (lower_ok, upper_ok).
    """
    if not (x > 1):
        raise ParameterDomainError(f"psi bounds require x > 1, got {x}")
    psi = digamma(x)
    lower_ok = psi > math.log(x) - 1.0 / x
    upper_ok = psi < math.log(x) - 0.5 / x
    return lower_ok, upper_ok


def trigamma_bound_check(x: float) -> bool:
    """Check psi'(x) < 1/x + 1/x^2 for x > 0."""
    if not (x > 0):
        raise ParameterDomainError(f"trigamma bound requires x > 0, got {x}")
    return trigamma(x) < 1.0 / x + 1.0 / (x * x)


# --- auxiliary functions of the factorial-family convexity proofs ----------


def _bracket_terms(x: float, p: ParamSet):
    """Common scaled quantities: u = r^2/Gamma(x+1)^2, c1 = 2mu+1,
    psi = psi(x+1), psi1 = psi'(x+1), log_g = log Gamma(x+1)."""
    if not (x > 0):
        raise ParameterDomainError(f"x must be > 0, got {x}")
    log_g = math.lgamma(x + 1.0)
    u = math.exp(2.0 * (math.log(p.r) - log_g)) if math.log(p.r) - log_g > -350 else 0.0
    return log_g, u, 2.0 * p.mu + 1.0, digamma(x + 1.0), trigamma(x + 1.0)


def _exp_signed(log_mag: float, sign: float) -> float:
    if log_mag > 700.0:
        raise NumericError(f"value exceeds representable range: exp({log_mag})")
    return sign * math.exp(log_mag)


def A_of_x(x: float, p: ParamSet) -> float:
    """The second-derivative factor A(x) of the weighted factorial-family
    sequence, i.e. g''(x) = Gamma(x+1) (Gamma(x+1)^2+r^2)^(-mu-3)
    (1+r^2)^(mu+1) A(x) for g(x) = x Gamma(x+1) (1+r^2)^(mu+1) /
    (Gamma(x+1)^2+r^2)^(mu+1).

    Computed as Gamma(x+1)^4 times an O(1) bracket, so only the single
    Gamma power is exponentiated (log domain, sign tracked).
    """
    log_g, u, c1, psi, psi1 = _bracket_terms(x, p)
    mu = p.mu
    quad = u * u - 2.0 * (4.0 * mu + 3.0) * u + c1 * c1
    bracket = (2.0 * (u + 1.0) * (u - c1) * psi
               + x * quad * psi * psi
               + x * (u + 1.0) * (u - c1) * psi1)
    if bracket == 0.0:
        return 0.0
    return _exp_signed(4.0 * log_g + math.log(abs(bracket)), math.copysign(1.0, bracket))


def A_tilde_of_x(x: float, p: ParamSet) -> float:
    """The two-term analogue of A(x) governing convexity of the
    unweighted factorial-family sequence."""
    log_g, u, c1, psi, psi1 = _bracket_terms(x, p)
    mu = p.mu
    quad = u * u - 2.0 * (4.0 * mu + 3.0) * u + c1 * c1
    bracket = quad * psi * psi + (u + 1.0) * (u - c1) * psi1
    if bracket == 0.0:
        return 0.0
    return _exp_signed(4.0 * log_g + math.log(abs(bracket)), math.copysign(1.0, bracket))


def g_of_x(x: float, p: ParamSet) -> float:
    """g(x) = x Gamma(x+1) (1+r^2)^(mu+1) / (Gamma(x+1)^2+r^2)^(mu+1);
    interpolates the index-weighted factorial-family coefficients n C_n."""
    log_g, u, _, _, _ = _bracket_terms(x, p)
    log_val = (math.log(x) + log_g
               + (p.mu + 1.0) * (math.log1p(p.r ** 2) - (2.0 * log_g + math.log1p(u))))
    return math.exp(log_val)


def g_second_derivative(x: float, p: ParamSet) -> float:
    """g''(x) assembled from A(x); cross-checked in tests against a
    finite difference of g."""
    log_g, u, _, _, _ = _bracket_terms(x, p)
    a_val = A_of_x(x, p)
    if a_val == 0.0:
        return 0.0
    log_pref = (log_g + (-p.mu - 3.0) * (2.0 * log_g + math.log1p(u))
                + (p.mu + 1.0) * math.log1p(p.r ** 2))
    return _exp_signed(log_pref + math.log(abs(a_val)), math.copysign(1.0, a_val))


def h_diff(n: int, p: ParamSet) -> float:
    """h(n) = n C_n - (n+1) C_{n+1} for the factorial family."""
    seq = CoefficientSeq(Family.Q, p)
    return n * seq.value(n) - (n + 1) * seq.value(n + 1)


def h_tilde_diff(n: int, p: ParamSet) -> float:
    """h~(n) = C_n - C_{n+1} for the factorial family."""
    seq = CoefficientSeq(Family.Q, p)
    return seq.value(n) - seq.value(n + 1)


def phi_of_x(x: float, p: ParamSet) -> float:
    """Quartic phi(x) = x^4 (mu + 2 mu^2) - x^2 (3+5mu) r^2 + r^4 whose
    positivity (with phi' >= 0) certifies convexity of the starlikeness
    comparison function for the F family."""
    mu, r = p.mu, p.r
    return x ** 4 * (mu + 2.0 * mu * mu) - x * x * (3.0 + 5.0 * mu) * r * r + r ** 4


def phi_convexity_check(p: ParamSet, n_samples: int = 500) -> bool:
    """phi(1) >= 0 and phi'(x) >= 0 sampled on x in [1, 50]."""
    if phi_of_x(1.0, p) < -1e-12 * max(1.0, p.r ** 4):
        return False
    mu, r = p.mu, p.r
    x = np.linspace(1.0, 50.0, n_samples)
    dphi = 4.0 * x ** 3 * (2.0 * mu * mu + mu) - 2.0 * (3.0 + 5.0 * mu) * r * r * x
    return bool(np.all(dphi >= -1e-12 * np.maximum(1.0, np.abs(dphi))))


# --- inequality ledger ------------------------------------------------------


@dataclass
class InequalityCase:
    """One inequality with its constraint box.

    dims: (name, lo, hi, logscale).  The dimensionless coordinate "t"
    parameterizes the coupled constraint 0 <= r <= sqrt(mu) via
    r = t sqrt(mu).
    """
    id: str
    dims: list
    margin: Callable[[dict], float]
    description: str = ""

    def point(self, coords) -> dict:
        params = {name: float(v) for (name, *_), v in zip(self.dims, coords)}
        if "t" in params:
            params["r"] = params["t"] * math.sqrt(params["mu"])
        return params


def _gamma5_sq() -> float:
    return math.gamma(5.0) ** 2  # 576


def _margin_rmuc(p: dict) -> float:
    mu, r, c = p["mu"], p["r"], p["c"]
    return -2.0 * r * r * (4.0 * mu + 3.0) * c + (2.0 * mu + 1.0) ** 2 * c * c


def _margin_psi_upper(p: dict) -> float:
    x = p["x"]
    return math.log(x) - 0.5 / x - digamma(x)


def _margin_psi_lower(p: dict) -> float:
    x = p["x"]
    return digamma(x) - math.log(x) + 1.0 / x


def _margin_trigamma(p: dict) -> float:
    x = p["x"]
    return 1.0 / x + 1.0 / (x * x) - trigamma(x)


def _margin_sqrt(p: dict) -> float:
    x = p["x"]
    return math.sqrt(x) - math.log(x + 1.0) + 0.5 / (x + 1.0)


def _margin_19_10(p: dict) -> float:
    x = p["x"]
    return (math.log(x + 1.0) - 1.0 / (x + 1.0)) ** 2 - 1.9


def _margin_total(p: dict) -> float:
    x, mu, r, c = p["x"], p["mu"], p["r"], p["c"]
    c1 = 2.0 * mu + 1.0
    r2 = r * r
    return (2.0 * (r2 + c) * (r2 - c1 * c) * math.sqrt(x)
            + x * (r2 * r2 - 2.0 * r2 * (4.0 * mu + 3.0) * c + c1 * c1 * c * c) * 1.9
            + x * (r2 + c) * (r2 - c1 * c) * (1.0 / (x + 1.0) + 1.0 / (x + 1.0) ** 2))


def _margin_rmu(p: dict) -> float:
    mu, r, c = p["mu"], p["r"], p["c"]
    return -2.0 * r * r * (4.0 * mu + 3.0) + (2.0 * mu + 1.0) ** 2 * c


def _margin_log(p: dict) -> float:
    x = p["x"]
    return (math.log(x + 1.0) - 1.0 / (x + 1.0)) ** 2 - 1.0


def _margin_frac(p: dict) -> float:
    x = p["x"]
    return 0.5 - 1.0 / (x + 1.0) - 1.0 / (x + 1.0) ** 2


def _margin_cmu(p: dict) -> float:
    mu, r, c = p["mu"], p["r"], p["c"]
    r2 = r * r
    return ((2.0 * mu + 1.0) ** 2 - 2.0 * r2 * (4.0 * mu + 3.0) / c
            - 0.5 * (2.0 * mu + 1.0) * (1.0 + r2 / c))


INEQUALITY_CASES = {
    case.id: case
    for case in [
        InequalityCase(
            "eq-r-mu-c",
            [("mu", 1e-6, 100.0, True), ("t", 0.0, 1.0, False), ("c", 2.0, 1e4, True)],
            _margin_rmuc,
            "-2 r^2 (4mu+3) c + (2mu+1)^2 c^2 >= 0 on 0<=r<=sqrt(mu), c>=2",
        ),
        InequalityCase(
            "eq-psi-upper",
            [("x", 1.0 + 1e-9, 1e4, True)],
            _margin_psi_upper,
            "psi(x) < log x - 1/(2x) for x > 1",
        ),
        InequalityCase(
            "eq-psi-lower",
            [("x", 1.0 + 1e-9, 1e4, True)],
            _margin_psi_lower,
            "psi(x) > log x - 1/x for x > 1",
        ),
        InequalityCase(
            "eq-trigamma",
            [("x", 1e-6, 1e4, True)],
            _margin_trigamma,
            "psi'(x) < 1/x + 1/x^2 for x > 0",
        ),
        InequalityCase(
            "eq-sqrt",
            [("x", 1.0, 1e6, True)],
            _margin_sqrt,
            "log(x+1) - 1/(2(x+1)) <= sqrt(x) for x >= 1",
        ),
        InequalityCase(
            "eq-19-10",
            [("x", 4.0, 1e4, True)],
            _margin_19_10,
            "(log(x+1) - 1/(x+1))^2 >= 19/10 for x >= 4",
        ),
        InequalityCase(
            "eq-total",
            [("x", 4.0, 200.0, True), ("mu", 1e-6, 100.0, True),
             ("t", 0.0, 1.0, False), ("c", _gamma5_sq(), 1e8, True)],
            _margin_total,
            "combined convexity estimate on x>=4, c>=Gamma(5)^2, 0<=r<=sqrt(mu)",
        ),
        InequalityCase(
            "eq-r-mu-ineq",
            [("mu", 1e-6, 100.0, True), ("t", 0.0, 1.0, False), ("c", 2.0, 1e4, True)],
            _margin_rmu,
            "-2 r^2 (4mu+3) + (2mu+1)^2 c >= 0 on 0<=r<=sqrt(mu), c>=2",
        ),
        InequalityCase(
            "eq-log-ineq",
            [("x", 3.0, 1e4, True)],
            _margin_log,
            "(log(x+1) - 1/(x+1))^2 >= 1 for x >= 3",
        ),
        InequalityCase(
            "eq-frac-ineq",
            [("x", 3.0, 1e4, True)],
            _margin_frac,
            "1/(x+1) + 1/(x+1)^2 <= 1/2 for x >= 3",
        ),
        InequalityCase(
            "eq-c-mu-ineq",
            [("mu", 1e-6, 100.0, True), ("t", 0.0, 1.0, False), ("c", 5.0, 1e4, True)],
            _margin_cmu,
            "(2mu+1)^2 - 2r^2(4mu+3)/c - (2mu+1)/2 (1+r^2/c) > 0 on c>=5",
        ),
    ]
}


def _unit_samples(case: InequalityCase, n_interior: int, seed: int) -> np.ndarray:
    """Stratified samples in the unit cube: corners, boundary faces with
    Sobol fill, and Sobol interior."""
    # Imported here, not at module top: scipy.stats takes longer to import
    # than the rest of the package, and the ledger sampler is its only caller.
    from scipy.stats import qmc

    d = len(case.dims)
    blocks = [np.array(list(itertools.product((0.0, 1.0), repeat=d)))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sobol = qmc.Sobol(d, scramble=True, seed=seed)
        n_face = max(1, n_interior // (8 * d)) if d > 1 else 0
        for k in range(d):
            for bound in (0.0, 1.0):
                if n_face:
                    pts = sobol.random(n_face)
                    pts[:, k] = bound
                    blocks.append(pts)
        blocks.append(sobol.random(n_interior))
    return np.vstack(blocks)


def _scale(case: InequalityCase, unit: np.ndarray) -> np.ndarray:
    out = np.empty_like(unit)
    for k, (_, lo, hi, logscale) in enumerate(case.dims):
        if logscale:
            out[:, k] = np.exp(np.log(lo) + unit[:, k] * (np.log(hi) - np.log(lo)))
        else:
            out[:, k] = lo + unit[:, k] * (hi - lo)
    return out


def verify_inequality(
    case: InequalityCase | str,
    samples: int = 10**5,
    seed: int = 0,
    slack: float = 1e-12,
) -> CriterionReport:
    """Search the constraint box of one ledger inequality for a
    counterexample.  Verified means no sampled margin fell at or below
    -slack; the minimum margin and its location are always reported.
    """
    if isinstance(case, str):
        if case not in INEQUALITY_CASES:
            raise ConfigurationError(f"unknown inequality id: {case}")
        case = INEQUALITY_CASES[case]
    if samples < 10**3:
        raise ConfigurationError(f"samples must be >= 1000, got {samples}")

    unit = _unit_samples(case, samples, seed)
    coords = _scale(case, unit)
    min_margin = math.inf
    argmin_point = None
    for row in coords:
        point = case.point(row)
        m = case.margin(point)
        if m < min_margin:
            min_margin = m
            argmin_point = point
    status = Status.VERIFIED if min_margin > -slack else Status.FALSIFIED
    return CriterionReport(
        criterion=f"inequality:{case.id}",
        status=status,
        terms_checked=len(coords),
        min_margin=min_margin,
        detail=f"min margin at {argmin_point}",
        argmin_point=argmin_point,
    )
