"""Closed-form sufficient radii, digamma/trigamma machinery, and
falsification-search for the inequality ledger.

Every theorem hypothesis has the form "r below a closed-form function of
mu"; `threshold` returns that radius.  The convexity analysis of the
factorial family rests on the auxiliary functions A(x) and A~(x) (log
domain with sign tracking) and on eleven scalar/polynomial inequalities,
each checked here by dense stratified sampling of its constraint box.
`digamma`, `trigamma` and the auxiliary functions take a float or an
array; the ledger margins (the psi and psi' bounds among them) map
a dict of column arrays to an array, so all sampled points of a box are
scored in one numpy pass.  The sampler reports the minimum margin and its
location so the sharpness of each estimate is visible; it verifies, it
does not prove.
"""

from __future__ import annotations

import enum
import functools
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
from .series import CoefficientSeq, Family, log_coeff_Q, log_factorial


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

def threshold(kind: ThresholdKind | str, mu: float) -> float:
    """Closed-form sufficient radius for the given property and mu.

    mu must be finite, > 0 and at least the kind's hypothesis minimum.
    """
    kind = ThresholdKind(kind)
    if not mu < math.inf:  # NaN or +inf
        raise HypothesisError(f"mu must be finite, got {mu}")
    if mu <= 0:
        raise HypothesisError(f"mu must be > 0, got {mu}")
    mu_min = MU_MIN.get(kind, 0.0)
    if mu < mu_min:
        raise HypothesisError(f"{kind.value} requires mu >= {mu_min}, got {mu}")
    if kind in (ThresholdKind.F_STARLIKE, ThresholdKind.F_HALFPLANE_DERIV):
        return math.sqrt((5.0 * mu + 3.0 - math.sqrt(17.0 * mu * mu + 26.0 * mu + 9.0)) / 2.0)
    if kind is ThresholdKind.F_HALFPLANE_RATIO:
        return math.sqrt((2.0 * mu + 1.0) / 3.0)
    return math.sqrt(mu)  # F close-to-convex and every Q kind


def hypothesis_pairs(kinds, mu_grid) -> list[tuple[ThresholdKind, float]]:
    """(kind, mu) pairs of kinds x mu_grid, kind-major, minus those whose mu
    is below the kind's MU_MIN.  Only that rule drops a pair: a NaN or
    non-positive mu is kept for `threshold` to reject."""
    return [(kind, mu) for kind in kinds for mu in mu_grid
            if not mu < MU_MIN.get(kind, 0.0)]


def f_decrease_only_radius(mu: float) -> float:
    """Wider radius sqrt(1+2mu) under which the F coefficients merely
    decrease (without the convexity needed for the half-plane bound).
    Exploratory only; not a sufficient radius for any mapping property.
    """
    if not mu < math.inf:  # NaN or +inf
        raise HypothesisError(f"mu must be finite, got {mu}")
    if mu <= 0:
        raise HypothesisError(f"mu must be > 0, got {mu}")
    return math.sqrt(1.0 + 2.0 * mu)


# --- digamma / trigamma -----------------------------------------------------

# asymptotic tail coefficients in y = x^-2, highest power first:
# psi(x) ~ ln x - 1/(2x) - sum B_2k/(2k) x^(-2k)
_PSI_TAIL = (-1.0 / 12, 691.0 / 32760, -1.0 / 132, 1.0 / 240,
             -1.0 / 252, 1.0 / 120, -1.0 / 12)
# psi'(x) ~ 1/x + 1/(2x^2) + x^-3 * sum B_2k x^(-2(k-1))
_TRI_TAIL = (7.0 / 6, -691.0 / 2730, 5.0 / 66, -1.0 / 30,
             1.0 / 42, -1.0 / 30, 1.0 / 6)

_RECURRENCE_CUTOFF = 8.0


def _elementwise(fn):
    """Let fn(x, ...), written for a float array x, take a float (Python
    float out) or an array (elementwise); any x <= 0 or NaN raises
    ParameterDomainError."""
    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        arr = np.array(x, dtype=float, ndmin=1)
        if not np.all(arr > 0):
            raise ParameterDomainError(
                f"{fn.__name__} requires x > 0, got {arr[~(arr > 0)].flat[0]}")
        val = fn(arr, *args, **kwargs)
        return float(val[0]) if np.ndim(x) == 0 else val
    return wrapper


def _shift_up(x: np.ndarray, term):
    """Shift x up to >= 8 by the recurrence, in place: returns x and the
    sum of term(x), term(x+1), ... per element."""
    acc = np.zeros_like(x)
    low = np.flatnonzero(x < _RECURRENCE_CUTOFF)
    while low.size:
        v = x[low]
        acc[low] += term(v)
        v += 1.0
        x[low] = v
        low = low[v < _RECURRENCE_CUTOFF]
    return x, acc


@_elementwise
def digamma(x: float | np.ndarray) -> float | np.ndarray:
    """psi(x) for x > 0, a float (Python float out) or an array
    (elementwise), by upward recurrence to x >= 8 plus the asymptotic
    series (absolute error below 1e-12)."""
    x, acc = _shift_up(x, lambda v: -1.0 / v)
    y = 1.0 / (x * x)
    return acc + np.log(x) - 0.5 / x + np.polyval(_PSI_TAIL, y) * y


@_elementwise
def trigamma(x: float | np.ndarray) -> float | np.ndarray:
    """psi'(x) for x > 0, same scheme and types as `digamma`."""
    x, acc = _shift_up(x, lambda v: 1.0 / (v * v))
    y = 1.0 / (x * x)
    return acc + 1.0 / x + 0.5 * y + np.polyval(_TRI_TAIL, y) * y / x


# --- auxiliary functions of the factorial-family convexity proofs ----------


def _brackets(x: np.ndarray, p: ParamSet):
    """log Gamma(x+1), u = r^2/Gamma(x+1)^2 and the O(1) brackets of A and
    A~: with c1 = 2mu+1 and psi, psi' at x+1, A~'s is quad psi^2 + (u+1)
    (u-c1) psi' and A's is 2(u+1)(u-c1) psi + x (A~'s)."""
    log_g = log_factorial(x)
    u = np.exp(2.0 * (math.log(p.r) - log_g))
    c1 = 2.0 * p.mu + 1.0
    psi = digamma(x + 1.0)
    quad = u * u - 2.0 * (4.0 * p.mu + 3.0) * u + c1 * c1
    tilde = quad * psi * psi + (u + 1.0) * (u - c1) * trigamma(x + 1.0)
    return log_g, u, 2.0 * (u + 1.0) * (u - c1) * psi + x * tilde, tilde


def _signed_exp(log_mag: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b exp(log_mag), formed as sign(b) exp(log_mag + log|b|); raises
    NumericError past exp(700)."""
    with np.errstate(divide="ignore"):  # b = 0 gives exp(-inf) = 0
        log_mag = log_mag + np.log(np.abs(b))
    if np.any(log_mag > 700.0):
        raise NumericError(
            f"value exceeds representable range: exp({float(np.max(log_mag))})")
    return np.sign(b) * np.exp(log_mag)


@_elementwise
def A_of_x(x, p: ParamSet):
    """The second-derivative factor A(x) of the weighted factorial-family
    sequence, i.e. g''(x) = Gamma(x+1) (Gamma(x+1)^2+r^2)^(-mu-3)
    (1+r^2)^(mu+1) A(x) for g = `g_of_x`; Gamma(x+1)^4 times an O(1)
    bracket, so only the Gamma power is exponentiated."""
    log_g, _, bracket, _ = _brackets(x, p)
    return _signed_exp(4.0 * log_g, bracket)


@_elementwise
def A_tilde_of_x(x, p: ParamSet):
    """The two-term analogue of A(x) governing convexity of the
    unweighted factorial-family sequence."""
    log_g, _, _, bracket = _brackets(x, p)
    return _signed_exp(4.0 * log_g, bracket)


@_elementwise
def g_of_x(x, p: ParamSet):
    """g(x) = x Gamma(x+1) (1+r^2)^(mu+1) / (Gamma(x+1)^2+r^2)^(mu+1);
    interpolates the index-weighted factorial-family coefficients n C_n."""
    return _signed_exp(log_coeff_Q(x, p.mu, p.r), x)


@_elementwise
def g_second_derivative(x, p: ParamSet):
    """g''(x) from the prefactor of `A_of_x` and A's bracket, exponentiated
    together (so g'' underflows to 0 where A alone would overflow);
    cross-checked in tests against a finite difference of g."""
    log_g, u, bracket, _ = _brackets(x, p)
    log_pref = (5.0 * log_g - (p.mu + 3.0) * (2.0 * log_g + np.log1p(u))
                + (p.mu + 1.0) * math.log1p(p.r ** 2))
    return _signed_exp(log_pref, bracket)


def h_diff(n: int, p: ParamSet) -> float:
    """h(n) = n C_n - (n+1) C_{n+1} for the factorial family."""
    c_n, c_next = CoefficientSeq(Family.Q, p).values_at(np.array([n, n + 1]))
    return float(n * c_n - (n + 1) * c_next)


def h_tilde_diff(n: int, p: ParamSet) -> float:
    """h~(n) = C_n - C_{n+1} for the factorial family."""
    c_n, c_next = CoefficientSeq(Family.Q, p).values_at(np.array([n, n + 1]))
    return float(c_n - c_next)


def phi_of_x(x: float, p: ParamSet) -> float:
    """Quartic phi(x) = x^4 (mu + 2 mu^2) - x^2 (3+5mu) r^2 + r^4 whose
    positivity (with phi' >= 0) certifies convexity of the starlikeness
    comparison function for the F family."""
    mu, r = p.mu, p.r
    return x ** 4 * (mu + 2.0 * mu * mu) - x * x * (3.0 + 5.0 * mu) * r * r + r ** 4


def phi_convexity_check(p: ParamSet) -> bool:
    """phi(1) >= 0 and phi'(x) >= 0 sampled at 500 points of x in [1, 50]."""
    if phi_of_x(1.0, p) < -1e-12 * max(1.0, p.r ** 4):
        return False
    mu, r = p.mu, p.r
    x = np.linspace(1.0, 50.0, 500)
    dphi = 4.0 * x ** 3 * (2.0 * mu * mu + mu) - 2.0 * (3.0 + 5.0 * mu) * r * r * x
    return bool(np.all(dphi >= -1e-12 * np.maximum(1.0, np.abs(dphi))))


# --- inequality ledger ------------------------------------------------------


@dataclass
class InequalityCase:
    """One inequality with its constraint box.

    dims: (name, lo, hi, logscale).  The dimensionless coordinate "t"
    parameterizes the coupled constraint 0 <= r <= sqrt(mu) via
    r = t sqrt(mu).  margin (>= 0 where the inequality holds) maps a dict
    of coordinate columns, r included, to an array; it is written in
    numpy operations, so a dict of floats gives the margin at one point.
    """
    id: str
    dims: list
    margin: Callable[[dict[str, np.ndarray]], np.ndarray]
    description: str = ""

    def columns(self, coords: np.ndarray) -> dict:
        """Columns of sample coordinates (one row per point), with r."""
        cols = {name: coords[..., k] for k, (name, *_) in enumerate(self.dims)}
        if "t" in cols:
            cols["r"] = cols["t"] * np.sqrt(cols["mu"])
        return cols

    def point(self, coords) -> dict:
        return {name: float(v)
                for name, v in self.columns(np.asarray(coords, dtype=float)).items()}


# Squares are products: a scalar ** 2 goes through pow(), not correctly
# rounded, while arrays are squared exactly; a point must match its column.

def _margin_rmuc(p: dict) -> np.ndarray:
    mu, r, c = p["mu"], p["r"], p["c"]
    c1 = 2.0 * mu + 1.0
    return -2.0 * r * r * (4.0 * mu + 3.0) * c + c1 * c1 * c * c


def _log_term_sq(x) -> np.ndarray:
    v = np.log(x + 1.0) - 1.0 / (x + 1.0)
    return v * v


def _margin_total(p: dict) -> np.ndarray:
    x, mu, r, c = p["x"], p["mu"], p["r"], p["c"]
    c1 = 2.0 * mu + 1.0
    r2 = r * r
    xp1 = x + 1.0
    return (2.0 * (r2 + c) * (r2 - c1 * c) * np.sqrt(x)
            + x * (r2 * r2 - 2.0 * r2 * (4.0 * mu + 3.0) * c + c1 * c1 * c * c) * 1.9
            + x * (r2 + c) * (r2 - c1 * c) * (1.0 / xp1 + 1.0 / (xp1 * xp1)))


def _margin_rmu(p: dict) -> np.ndarray:
    mu, r, c = p["mu"], p["r"], p["c"]
    c1 = 2.0 * mu + 1.0
    return -2.0 * r * r * (4.0 * mu + 3.0) + c1 * c1 * c


def _margin_cmu(p: dict) -> np.ndarray:
    mu, r, c = p["mu"], p["r"], p["c"]
    c1 = 2.0 * mu + 1.0
    r2 = r * r
    return c1 * c1 - 2.0 * r2 * (4.0 * mu + 3.0) / c - 0.5 * c1 * (1.0 + r2 / c)


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
            lambda p: np.log(p["x"]) - 0.5 / p["x"] - digamma(p["x"]),
            "psi(x) < log x - 1/(2x) for x > 1",
        ),
        InequalityCase(
            "eq-psi-lower",
            [("x", 1.0 + 1e-9, 1e4, True)],
            lambda p: digamma(p["x"]) - np.log(p["x"]) + 1.0 / p["x"],
            "psi(x) > log x - 1/x for x > 1",
        ),
        InequalityCase(
            "eq-trigamma",
            [("x", 1e-6, 1e4, True)],
            lambda p: 1.0 / p["x"] + 1.0 / (p["x"] * p["x"]) - trigamma(p["x"]),
            "psi'(x) < 1/x + 1/x^2 for x > 0",
        ),
        InequalityCase(
            "eq-sqrt",
            [("x", 1.0, 1e6, True)],
            lambda p: np.sqrt(p["x"]) - np.log(p["x"] + 1.0) + 0.5 / (p["x"] + 1.0),
            "log(x+1) - 1/(2(x+1)) <= sqrt(x) for x >= 1",
        ),
        InequalityCase(
            "eq-19-10",
            [("x", 4.0, 1e4, True)],
            lambda p: _log_term_sq(p["x"]) - 1.9,
            "(log(x+1) - 1/(x+1))^2 >= 19/10 for x >= 4",
        ),
        InequalityCase(
            "eq-total",
            [("x", 4.0, 200.0, True), ("mu", 1e-6, 100.0, True),
             ("t", 0.0, 1.0, False), ("c", math.gamma(5.0) ** 2, 1e8, True)],
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
            lambda p: _log_term_sq(p["x"]) - 1.0,
            "(log(x+1) - 1/(x+1))^2 >= 1 for x >= 3",
        ),
        InequalityCase(
            "eq-frac-ineq",
            [("x", 3.0, 1e4, True)],
            lambda p: 0.5 - 1.0 / (p["x"] + 1.0) - 1.0 / ((p["x"] + 1.0) * (p["x"] + 1.0)),
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
        u = unit[:, k]
        inner = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))) if logscale else lo + u * (hi - lo)
        # u = 0 and u = 1 land exactly on the ends: exp(log(lo)) can miss lo by an ulp
        out[:, k] = np.select([u == 0.0, u == 1.0], [lo, hi], inner)
    return out


def verify_inequality(
    case: InequalityCase | str,
    samples: int = 10**5,
    seed: int = 0,
) -> CriterionReport:
    """Search the constraint box of one ledger inequality for a
    counterexample.  Verified means no sampled margin fell at or below
    -1e-12; a NaN margin makes the result Inconclusive, located at the
    first NaN.  The minimum margin and its location are always reported.
    """
    if isinstance(case, str):
        if case not in INEQUALITY_CASES:
            raise ConfigurationError(f"unknown inequality id: {case}")
        case = INEQUALITY_CASES[case]
    if samples < 10**3:
        raise ConfigurationError(f"samples must be >= 1000, got {samples}")

    unit = _unit_samples(case, samples, seed)
    coords = _scale(case, unit)
    margins = np.broadcast_to(
        np.asarray(case.margin(case.columns(coords)), dtype=float), len(coords))
    nan = np.isnan(margins)
    n_nan = int(nan.sum())
    k = int(np.argmax(nan)) if n_nan else int(np.argmin(margins))
    min_margin = float(margins[k])
    argmin_point = case.point(coords[k])
    if n_nan:
        status = Status.INCONCLUSIVE
        found = f"margin NaN at {n_nan} of {len(coords)} points, first at {argmin_point}"
    else:
        status = Status.VERIFIED if min_margin > -1e-12 else Status.FALSIFIED
        found = f"min margin at {argmin_point}"
    corners = 2 ** len(case.dims)
    return CriterionReport(
        criterion=f"inequality:{case.id}",
        status=status,
        terms_checked=len(coords),
        min_margin=min_margin,
        detail=(f"{found}; Sobol seed {seed}: {corners} corner, "
                f"{len(coords) - corners - samples} face and {samples} interior points"),
        argmin_point=argmin_point,
    )
