"""Closed-form sufficient radii, digamma/trigamma machinery, and
falsification-search for the inequality ledger.

Every theorem hypothesis has the form "r below a closed-form function of
mu"; `threshold` returns that radius.  The convexity analysis of the
factorial family rests on the auxiliary functions A(x) and A~(x) (log
domain with sign tracking) and on eleven scalar/polynomial inequalities,
each checked here by dense stratified sampling of its constraint box
(corners, faces and a scrambled Sobol design, generated in numpy).
`digamma`, `trigamma` and the auxiliary functions take a float or an
array; the ledger margins (the psi and psi' bounds among them) map
a dict of column arrays to an array, so the sampled points of a box are
scored in blocks of 2^14, a few numpy passes each, with array memory near
2.0 MiB whatever the sample count.  The sampler reports the minimum margin
and its location so the sharpness of each estimate is visible; it
verifies, it does not prove.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
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
    count,
)
from .series import Q_parts, log_coeff_Q, log_factorial


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
        if mu > 1e150:  # 17 mu^2 overflows past about 3.25e153: factor mu out of the root
            return math.sqrt(mu) * math.sqrt((5.0 + 3.0 / mu - math.sqrt(17.0 + (26.0 + 9.0 / mu) / mu)) / 2.0)
        return math.sqrt((5.0 * mu + 3.0 - math.sqrt(17.0 * mu * mu + 26.0 * mu + 9.0)) / 2.0)
    if kind is ThresholdKind.F_HALFPLANE_RATIO:
        return math.sqrt((2.0 * mu + 1.0) / 3.0)
    return math.sqrt(mu)  # F close-to-convex and every Q kind


def hypothesis_pairs(kinds, mu_grid) -> list[tuple[ThresholdKind, float]]:
    """(kind, mu) pairs of kinds x mu_grid, kind-major, minus those whose mu
    is > 0 but below the kind's MU_MIN.  Only that rule drops a pair: a NaN,
    infinite or non-positive mu is kept for `threshold` to reject."""
    return [(kind, mu) for kind in kinds for mu in mu_grid
            if not 0 < mu < MU_MIN.get(kind, 0.0)]


# --- digamma / trigamma -----------------------------------------------------

# asymptotic tail coefficients in y = x^-2, highest power first:
# psi(x) ~ ln x - 1/(2x) - sum B_2k/(2k) x^(-2k)
_PSI_TAIL = (-1.0 / 12, 691.0 / 32760, -1.0 / 132, 1.0 / 240,
             -1.0 / 252, 1.0 / 120, -1.0 / 12)
# psi'(x) ~ 1/x + 1/(2x^2) + x^-3 * sum B_2k x^(-2(k-1))
_TRI_TAIL = (7.0 / 6, -691.0 / 2730, 5.0 / 66, -1.0 / 30,
             1.0 / 42, -1.0 / 30, 1.0 / 6)


def _elementwise(fn):
    """Let fn(x, ...), written for a float array x, take a float (Python
    float out) or an array (elementwise); any x that is not finite and
    > 0 raises ParameterDomainError."""
    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        arr = np.array(x, dtype=float, ndmin=1)
        bad = ~((arr > 0) & (arr < math.inf))
        if bad.any():
            raise ParameterDomainError(
                f"{fn.__name__} requires finite x > 0, got {arr[bad].flat[0]}")
        val = fn(arr, *args, **kwargs)
        return float(val[0]) if np.ndim(x) == 0 else val
    return wrapper


def _shift_up(x: np.ndarray, power: int):
    """Shift every element of x up by 8 with the recurrence, in place and
    without gathers, so x >= 8.  Returns x, inv = 1/x and the sum of
    v^-power over the eight values v passed."""
    acc, inv = np.zeros_like(x), np.empty_like(x)
    for _ in range(8):
        np.divide(1.0, x, out=inv)
        if power == 2:
            inv *= inv  # not 1/(v*v), which overflows for huge v
        acc += inv
        x += 1.0
    return x, np.divide(1.0, x, out=inv), acc


def _horner(coeffs, y: np.ndarray) -> np.ndarray:
    """The polynomial of coeffs (highest power first) at y, in place in one
    array: np.polyval's operations without its two arrays per coefficient."""
    out = np.full_like(y, coeffs[0])
    for c in coeffs[1:]:
        out *= y
        out += c
    return out


@_elementwise
def digamma(x: float | np.ndarray) -> float | np.ndarray:
    """psi(x) for x > 0, a float (Python float out) or an array
    (elementwise), by eight steps of the recurrence psi(x) = psi(x+1) - 1/x
    plus the asymptotic series at x + 8 (DLMF 5.5.2, 5.11.2): error within
    1e-12 max(1, |psi|), since near 0, where psi ~ -1/x, 1/x rounds by more."""
    x, inv, acc = _shift_up(x, 1)
    y = inv * inv
    return np.log(x) - acc - 0.5 * inv + _horner(_PSI_TAIL, y) * y


@_elementwise
def trigamma(x: float | np.ndarray) -> float | np.ndarray:
    """psi'(x) for x > 0, same scheme and types as `digamma` (DLMF 5.15.5,
    5.15.8): relative error within 1e-13."""
    x, inv, acc = _shift_up(x, 2)
    y = inv * inv
    return acc + inv + 0.5 * y + _horner(_TRI_TAIL, y) * (y * inv)


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
    return _signed_exp(log_coeff_Q(*Q_parts(x), p.mu, p.r), x)


@_elementwise
def g_second_derivative(x, p: ParamSet):
    """g''(x) from the prefactor of `A_of_x` and A's bracket, exponentiated
    together (so g'' underflows to 0 where A alone would overflow);
    cross-checked in tests against a finite difference of g."""
    log_g, u, bracket, _ = _brackets(x, p)
    log_pref = (5.0 * log_g - (p.mu + 3.0) * (2.0 * log_g + np.log1p(u))
                + (p.mu + 1.0) * math.log1p(p.r ** 2))
    return _signed_exp(log_pref, bracket)


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


# Sobol points in at most four dimensions, bit for bit those of scipy's
# `qmc.Sobol(d, scramble=True, seed=seed)` (30 bits): Joe-Kuo direction
# numbers (Joe & Kuo, SIAM J. Sci. Comput. 30, 2008), scrambled by a
# random linear matrix and a digital shift (Matousek, J. Complexity 14, 1998).
_SOBOL_BITS = 30
# primitive polynomial (coefficient bits) and initial m_1..m_s of
# dimensions 2-4; dimension 1 has m_k = 1 throughout
_JOE_KUO = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)))
# Sobol points per block of the ledger pass: its arrays stay near 2.0 MiB
# (eq-total, 4 dimensions) whatever the sample count.  A power of two, since
# gray(w + j) = gray(w) xor gray(j) for j < _BLOCK needs w a multiple of it
_BLOCK = 2**14


def _direction_numbers() -> np.ndarray:
    """v[j, k] = m_k 2^(29-k) for dimension j, counting k from 0, with m
    from the Bratley-Fox recurrence m_k = m_(k-s) xor sum_i a_i 2^i m_(k-i)
    (a_i the polynomial's coefficients, a_s = 1)."""
    m = np.ones((1 + len(_JOE_KUO), _SOBOL_BITS), dtype=np.uint32)
    for j, (poly, init) in enumerate(_JOE_KUO, start=1):
        s = len(init)
        row = list(init)
        for k in range(s, _SOBOL_BITS):
            new = row[k - s]
            for i in range(1, s + 1):
                if poly >> (s - i) & 1:
                    new ^= row[k - i] << i
            row.append(new)
        m[j] = row
    return m << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS, dtype=np.uint32))


_SOBOL_V = _direction_numbers()


def _scramble(d: int, seed: int):
    """The digital shift (d,) and the scrambled direction numbers (d, 30)
    of the d-dimensional sequence, uint32, drawn from
    `np.random.default_rng(seed)` in scipy's order and dtype: the shift
    bits (bit k in column k), then the lower-triangular matrices."""
    rng = np.random.default_rng(seed)
    bits = np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = (rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) << bits).sum(
        axis=1, dtype=np.uint32)
    ltm = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    # row i of the matrix, packed msb-first, gives bit 29-i of each scrambled
    # direction number as the parity of (row & number), folded by xor-shifts
    msb_first = _SOBOL_BITS - 1 - bits
    rows = (ltm << msb_first).sum(axis=2, dtype=np.uint32)
    par = rows[:, :, None] & _SOBOL_V[:d, None, :]
    for s in (16, 8, 4, 2, 1):
        par ^= par >> s
    return shift, ((par & 1) << msb_first[:, None]).sum(axis=1, dtype=np.uint32)


def _gray_xor(v: np.ndarray, k: int) -> np.ndarray:
    """The xor of the direction numbers of the set bits of gray(k) =
    k xor (k >> 1): point k of the sequence, times 2^30, is the shift xor
    this."""
    g = k ^ (k >> 1)
    out = np.zeros(len(v), dtype=np.uint32)
    for b in range(g.bit_length()):
        if g >> b & 1:
            out ^= v[:, b]
    return out


def _unit_blocks(d: int, n_face: int, seed: int, total: int):
    """The `total` rows of the stratified sample of the unit d-cube: the
    2^d corners, then one scrambled Sobol run that fills the faces (dim k
    pinned to 0, then to 1, n_face points each, for each k in turn) and
    then the interior.  Yields one (n, d) block per window of _BLOCK points
    of the run, the corners ahead of the first and the last window maybe
    shorter; every block is a view of one buffer, with contiguous columns,
    that the next block overwrites.

    Points come from one table of points 0..min(_BLOCK, n)-1 of the run:
    for j < _BLOCK and w a multiple of it, gray(w + j) = gray(w) xor
    gray(j), so window w is that table xor one constant."""
    corners, n = 2 ** d, total - 2 ** d
    if n > 2 ** _SOBOL_BITS:
        raise ConfigurationError(
            f"the Sobol generator gives at most 2**{_SOBOL_BITS} points, "
            f"{n} were asked for")
    if d > len(_SOBOL_V):
        raise ConfigurationError(
            f"the Sobol generator has {len(_SOBOL_V)} dimensions, {d} were asked for")
    shift, v = _scramble(d, seed)
    # point k is point k-1 xor the direction number of bit ctz(k), and
    # ctz(k) = b exactly at k = 2^b mod 2^(b+1)
    base = np.empty((d, min(_BLOCK, n)), dtype=np.uint32)
    base[:, :1] = shift[:, None]
    for b in range(base.shape[1].bit_length()):
        base[:, 1 << b::2 << b] = v[:, b, None]
    np.bitwise_xor.accumulate(base, axis=1, out=base)
    unit = np.empty((d, corners + base.shape[1]))
    unit[:, :corners] = np.array(list(itertools.product((0.0, 1.0), repeat=d))).T
    for w in range(0, n, _BLOCK):
        seg, c = base[:, :n - w], _gray_xor(v, w)[:, None]
        out = unit[:, corners:corners + seg.shape[1]]
        seg ^= c  # the window's points, in place; the second xor restores the table
        np.multiply(seg, 2.0 ** -_SOBOL_BITS, out=out)
        seg ^= c
        for f in range(2 * d):  # face f pins dim f // 2 to f % 2
            out[f // 2, max(f * n_face - w, 0):max((f + 1) * n_face - w, 0)] = f % 2
        yield unit[:, corners if w else 0:corners + seg.shape[1]].T  # the corners lead window 0


def _scale(case: InequalityCase, block: np.ndarray) -> np.ndarray:
    """Move each unit sample of block to its box point, in place; returns block."""
    for k, (_, lo, hi, logscale) in enumerate(case.dims):
        col = block[:, k]
        # u = 0 and u = 1 land exactly on the ends: exp(log(lo)) can miss lo by an ulp
        at_lo, at_hi = col == 0.0, col == 1.0
        a, b = (np.log(lo), np.log(hi)) if logscale else (lo, hi)
        col *= b - a
        col += a
        if logscale:
            np.exp(col, out=col)
        col[at_lo] = lo
        col[at_hi] = hi
    return block


def verify_inequality(
    case: InequalityCase | str,
    samples: int = 10**5,
    seed: int = 0,
) -> CriterionReport:
    """Search the constraint box of one ledger inequality for a
    counterexample.  Verified means no sampled margin fell at or below
    -1e-12; a NaN margin makes the result Inconclusive, located at the
    first NaN.  The minimum margin and its location are always reported.
    The points are scored in blocks of `_BLOCK`, so memory does not grow
    with samples.
    """
    if isinstance(case, str):
        if case not in INEQUALITY_CASES:
            raise ConfigurationError(f"unknown inequality id: {case}")
        case = INEQUALITY_CASES[case]
    samples = count("samples", samples, 10**3)
    seed = count("seed", seed, 0)

    d = len(case.dims)
    corners = 2 ** d
    n_face = max(1, samples // (8 * d)) if d > 1 else 0
    total = corners + 2 * d * n_face + samples
    # the least margin (the first of equal ones) or the first NaN, and its point
    min_margin, argmin_point, n_nan = math.inf, None, 0
    for block in _unit_blocks(d, n_face, seed, total):
        _scale(case, block)
        margins = np.broadcast_to(
            np.asarray(case.margin(case.columns(block)), dtype=float), len(block))
        i = int(np.argmin(margins))  # the first NaN, if there is one
        nan = math.isnan(margins[i])
        if not n_nan and (argmin_point is None or nan or margins[i] < min_margin):
            min_margin, argmin_point = float(margins[i]), case.point(block[i])
        if nan:
            n_nan += int(np.count_nonzero(np.isnan(margins)))
    if n_nan:
        status = Status.INCONCLUSIVE
        found = f"margin NaN at {n_nan} of {total} points, first at {argmin_point}"
    else:
        status = Status.VERIFIED if min_margin > -1e-12 else Status.FALSIFIED
        found = f"min margin at {argmin_point}"
    return CriterionReport(
        criterion=f"inequality:{case.id}",
        status=status,
        terms_checked=total,
        min_margin=min_margin,
        detail=(f"{found}; Sobol seed {seed}: {corners} corner, "
                f"{total - corners - samples} face and {samples} interior points"),
        argmin_point=argmin_point,
    )
