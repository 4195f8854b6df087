"""Coefficient generation and evaluation of Mathieu-type power series.

Two normalized parametric families are supported:

* F family:  a_n = n (r^2+1)^(mu+1) / (n^2+r^2)^(mu+1)
* Q family:  C_n = n! (r^2+1)^(mu+1) / ((n!)^2+r^2)^(mu+1)

plus two fixed example families (SHat, DoubleFactorial).  All magnitudes
are computed in the log domain first: (n!)^2 overflows double precision
near n = 86 while the coefficient itself underflows gracefully, so the
log form is the only faithful representation at large n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import (
    EvalDomainError,
    NumericError,
    ParamSet,
    ParameterDomainError,
    TruncationError,
)

DEFAULT_TOL = 1e-12
N_MAX = 10**6
_UNIT_ROUNDOFF = 2.0**-53

# Apery's constant zeta(3); regenerated by a test from the defining series.
ZETA3 = 1.2020569031595942


class Family(str, enum.Enum):
    F = "F"
    Q = "Q"
    SHAT = "SHat"
    DOUBLE_FACTORIAL = "DoubleFactorial"


def _log_coeff_F(log_n: np.ndarray, n_sq: np.ndarray, mu: float, r: float) -> np.ndarray:
    return log_n + (mu + 1.0) * (math.log1p(r * r) - np.log(n_sq + r * r))


def log_factorial(x: float | np.ndarray) -> float | np.ndarray:
    """log Gamma(x+1) elementwise, log x! at integer x.  A scalar (a Python
    number or 0-d array) gives math.lgamma(x + 1.0) as a float, an array
    math.lgamma per element: the same bits."""
    if np.ndim(x) == 0:
        return math.lgamma(x + 1.0)
    shifted = np.asarray(x) + 1.0
    return np.fromiter(map(math.lgamma, shifted.ravel().tolist()), float,
                       shifted.size).reshape(shifted.shape)


def Q_parts(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log n!, (n!)^-2): what `log_coeff_Q` needs of n."""
    lf = log_factorial(n)
    return lf, np.exp(-2.0 * lf)


def log_coeff_Q(lf: np.ndarray, inv_sq: np.ndarray, mu: float, r: float) -> np.ndarray:
    """log C_n of the Q family from ``Q_parts(n)``; at real n > 0 it
    interpolates them.  log((n!)^2 + r^2) is 2 log n! + log1p(r^2 (n!)^-2)."""
    return lf + (mu + 1.0) * (math.log1p(r * r) - (2.0 * lf + np.log1p(r * r * inv_sq)))


# family -> ((mu, r)-free parts of log a_n at n, log a_n from those parts); None: the indices
_PARTS = {None: (lambda n: (n,), None),
          Family.F: (lambda n: (np.log(n), np.square(n, dtype=float)), _log_coeff_F),
          Family.Q: (Q_parts, log_coeff_Q)}


_PREFIX_CAP = 2**13  # longest cached prefix: every disk cut at rho = 0.995 fits
_PREFIXES: dict = {}  # family (None: the indices) -> its cached_prefix entry


def cached_prefix(cache: dict, key, n_terms: int, build, keep: int) -> tuple[np.ndarray, ...]:
    """build(n) at n = 1..N.  Up to N = _PREFIX_CAP: read-only views of an
    entry [arrays, N, views] built at the least power of two >= N (so grown
    by doubling) and kept for the last `keep` keys; a longer N builds its own."""
    if n_terms > _PREFIX_CAP:
        return build(np.arange(1, n_terms + 1))
    entry = cache.get(key)
    if entry is None or len(entry[0][0]) < n_terms:
        arrays = build(np.arange(1, (1 << (n_terms - 1).bit_length()) + 1))
        for a in arrays:
            a.flags.writeable = False
        entry = cache[key] = [arrays, 0, ()]
        if len(cache) > keep:
            del cache[next(iter(cache))]
    entry[1:] = n_terms, tuple([a[:n_terms] for a in entry[0]])
    return entry[2]


def prefix_arrays(n_terms: int, family: Optional[Family] = None) -> tuple[np.ndarray, ...]:
    """(1..N,), or with a family the (mu, r)-free parts of its log a_n at
    n = 1..N: up to 2^13 terms, read-only prefixes of one array per family
    (`cached_prefix`), for every prefix read and every block of a series cut."""
    entry = _PREFIXES.get(family)  # the last views, without a call: a probe reads one N over and over
    if entry and entry[1] == n_terms:
        return entry[2]
    return cached_prefix(_PREFIXES, family, n_terms, _PARTS[family][0], 3)


def _log_coeff_shat(n: np.ndarray) -> np.ndarray:
    out = math.log(8.0) - 3.0 * np.log(n * n + 1.0)
    return np.where(n == 1, 0.0, out)


def _log_double_factorial_odd(m_max: int) -> np.ndarray:
    """log((2k-1)!!) for k = 0..m_max, with (-1)!! = 1."""
    logs = np.zeros(m_max + 1)
    if m_max >= 1:
        logs[1:] = np.cumsum(np.log(2.0 * np.arange(1, m_max + 1) - 1.0))
    return logs


def _log_coeff_double_factorial(n: np.ndarray) -> np.ndarray:
    n = np.asarray(n)
    m_max = int(n.max())
    ldf = _log_double_factorial_odd(m_max + 1)
    num = math.log(4.0) + ldf[n]  # 4 (2n-1)!!
    ldf_p = ldf[n + 1]  # log (2n+1)!!
    denom = 2.0 * (ldf_p + np.log1p(np.exp(-ldf_p)))  # log [(2n+1)!!+1]^2
    out = num - denom
    return np.where(n == 1, 0.0, out)


class SequenceBase:
    """Common access paths for a coefficient sequence a_1, a_2, ...

    Subclasses provide vectorized ``log_values_at`` over 1-based index
    arrays; everything else derives from it.
    """

    def log_values_at(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def read(self, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, logs) of a_1..a_N from one ``log_values_at`` pass."""
        logs = self.log_values_at(prefix_arrays(n_terms)[0])
        return np.exp(logs), logs

    def values_at(self, n: np.ndarray) -> np.ndarray:
        return np.exp(self.log_values_at(n))

    def value(self, n: int) -> float:
        return float(self.values_at(np.array([n]))[0])

    def prefix(self, n_terms: int) -> list[tuple[int, float, float]]:
        if n_terms < 1:
            raise ParameterDomainError(f"n_terms must be >= 1, got {n_terms}")
        vals, logs = self.read(n_terms)
        return list(zip(range(1, n_terms + 1), vals.tolist(), logs.tolist()))


class CoefficientSeq(SequenceBase):
    """Lazily evaluated normalized family coefficient sequence.

    Values are exposed both linearly and as log magnitudes.  All family
    coefficients are non-negative and a_1 = 1.
    """

    def __init__(self, family: Family | str, params: Optional[ParamSet] = None):
        self.family = Family(family)
        if self.family in (Family.F, Family.Q):
            if params is None:
                raise ParameterDomainError(f"family {self.family.value} requires (mu, r)")
            self.params = params
        else:
            if params is not None:
                raise ParameterDomainError(
                    f"family {self.family.value} takes no (mu, r) parameters"
                )
            self.params = None

    def log_values_at(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.int64)
        # a contiguous slice of the cached indices needs no check, and its parts are cached too
        cached, start = _PREFIXES.get(None), None
        if cached and n is cached[2][0]:  # read()'s prefix
            start = 0
        elif cached and n.base is cached[0][0] and n.strides == (8,) and n.size:
            start = int(n[0]) - 1
        if start is None and n.size and n.min() < 1:
            raise ParameterDomainError("coefficient index must be >= 1")
        if self.family in _PARTS:
            parts, log_coeff = _PARTS[self.family]
            known = parts(n) if start is None else prefix_arrays(start + n.size, self.family)
            if start:  # a later block of a cut
                known = [p[start:] for p in known]
            return log_coeff(*known, self.params.mu, self.params.r)
        if self.family is Family.SHAT:
            return _log_coeff_shat(n.astype(float))
        return _log_coeff_double_factorial(n)


class FunctionSequence(SequenceBase):
    """Coefficient sequence a_n = fn(n) for a vectorized fn of finite
    values, handy for fixtures like a_n = 1/n; a negative a_n has log nan."""

    family = None
    params = None

    def __init__(self, fn):
        self.fn = fn

    def values_at(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.int64)
        if n.size and n.min() < 1:
            raise ParameterDomainError("coefficient index must be >= 1")
        vals = np.asarray(self.fn(n.astype(float)), dtype=float)
        if not np.isfinite(vals).all():
            k = int(np.isfinite(vals).argmin())
            raise NumericError(f"coefficient a_{n.flat[k]} is {vals.flat[k]}, not finite")
        return vals

    def log_values_at(self, n: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.values_at(n))

    def read(self, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
        """The fn values as given, not exp of their logs, and their logs."""
        vals = self.values_at(prefix_arrays(n_terms)[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            return vals, np.log(vals)


@dataclass
class EvalResult:
    value: complex
    truncation_index: int
    tail_bound: float


def truncated_coeffs(
    seq: SequenceBase,
    rho: float,
    tol: float,
    n_max: int,
    index_weighted: bool = False,
) -> tuple[np.ndarray, float]:
    """a_1..a_N, cut so the tail of sum c_n z^(n-1) at |z| = rho is below
    tol, where c_n = a_n, or n a_n when index_weighted.

    Terms come in whole blocks of 256, doubling up to 16384.  The cut is
    at the first block end N whose block of c_n is non-increasing and continues
    the previous block, where c_N >= 0, and where the geometric majorant
    c_N rho^N / (1 - rho) of the tail is below tol.  Returns (a_1..a_N,
    that majorant).  A cut by n a_n also meets the rule for a_n: a block
    of n a_n >= 0 non-increasing from at most the previous one's last
    gives such a block of a_n, with a_N <= N a_N.  Raises TruncationError
    if no block end up to the first one at or past n_max qualifies.
    """
    n_done = 0
    block = 256
    chunks = []
    prev_last = math.inf
    while n_done < n_max:
        start, n_done = n_done, n_done + block
        idx = prefix_arrays(n_done)[0][start:] if n_done <= _PREFIX_CAP else np.arange(start + 1, n_done + 1)
        vals = seq.values_at(idx)
        chunks.append(vals)
        if index_weighted:
            vals = idx * vals
        qualifies = bool((vals[1:] - vals[:-1] <= 0.0).all() and vals[0] <= prev_last and vals[-1] >= 0.0)
        prev_last = float(vals[-1])
        bound = prev_last * rho**n_done / (1.0 - rho) if qualifies else math.inf
        if bound < tol:
            return np.concatenate(chunks), bound
        block = min(2 * block, 16384)
    raise TruncationError(
        f"series tail below {tol} not reached within {n_done} terms at |z|={rho}")


def eval_series(c: SequenceBase, z: complex, tol: float = DEFAULT_TOL) -> EvalResult:
    """Evaluate sum_{n>=1} a_n z^n with a certified truncation tail bound.

    The terms are those of ``truncated_coeffs`` at rho = |z|, called with
    tol/rho: the sum stops at the first block end N whose block is
    non-increasing and continues the previous one, where a_N >= 0, and
    where the geometric majorant a_N rho^(N+1) / (1-rho) of the tail,
    reported as ``tail_bound``, is below tol.  Raises TruncationError if
    no such N lies within N_MAX terms, rounded up to a block end; that
    includes every sequence whose tail never turns non-increasing.
    """
    if not tol > 0:  # also NaN
        raise ParameterDomainError(f"tol must be > 0, got {tol}")
    z = complex(z)
    rho = abs(z)
    if not rho < 1.0:  # also NaN
        raise EvalDomainError(f"|z| must be < 1, got |z| = {rho}")
    if rho == 0.0:
        return EvalResult(0j, 0, 0.0)
    coeffs, bound = truncated_coeffs(c, rho, tol / rho, N_MAX)
    idx = np.arange(1, len(coeffs) + 1)
    return EvalResult(complex(np.sum(coeffs * z**idx)), len(coeffs), rho * bound)


def _S_rounding(n: int, value: float) -> float:
    return _UNIT_ROUNDOFF * (n.bit_length() + 48) * value + 2.0**-1070


def eval_S(r: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """S(r) = sum 2n/(n^2+r^2)^2 with |value - S(r)| <= ``tail_bound`` <= tol: the
    midpoint of 1/(r^2+1/(2 zeta(3))) < S(r) < 1/(r^2+1/6) (Alzer, Brenner &
    Ruehr 1998), formed in 1/r, if that fits in tol, with truncation_index 0;
    else N = max(ceil r, ceil (2 tol)^(-1/4), ceil (3/(8 (tol - R)))^(1/4)) terms
    plus the midpoint of the tail's bracket [1/D - f(N)/2, 1/((N+1/2)^2+r^2)],
    D = N^2+r^2, from the trapezoid and midpoint rules for f(x) = 2x/(x^2+r^2)^2,
    convex on x >= r; its half-width is at most 3/(8 N^4).  ``tail_bound`` adds
    (bit_length(N) + 48) u value for rounding, u = 2^-53 (np.sum's pairwise order
    passes each term through at most bit_length(N) + 17 additions; forming the
    terms, the brackets and their sum takes under 31 roundings more), and
    2^-1070 for underflow: R is that at N_MAX and value = S + tol, where S <
    min(2 zeta(3), 1/(r^2+1/6)).  NumericError if R >= tol."""
    if not 0.0 < r < math.inf:
        raise ParameterDomainError(f"r must be finite and > 0, got {r}")
    if not tol > 0:  # also NaN
        raise ParameterDomainError(f"tol must be > 0, got {tol}")
    s, c0, c1 = 1.0 / r, 1.0 / 6.0, 0.5 / ZETA3
    # at subnormal r, 1/r overflows and half is NaN: the sum answers
    lower, upper = s / (r + c1 * s), s / (r + c0 * s)
    half = 0.5 * (c1 - c0) * lower * upper
    n = 0
    if not half + _S_rounding(0, lower + half) <= tol:
        rounding = _S_rounding(N_MAX, min(2.0 * ZETA3, upper) + tol)  # min drops a NaN upper
        if not rounding < tol:
            raise NumericError(f"rounding alone may reach {rounding:.3g} in S({r}), over tol {tol}")
        n = max(math.ceil(r), math.ceil((2.0 * tol) ** -0.25),
                math.ceil((0.375 / (tol - rounding)) ** 0.25))
        if n > N_MAX:
            raise TruncationError(f"tolerance {tol} needs {n} terms, over {N_MAX}")
        r2 = r * r
        idx, d = np.arange(1.0, n + 1.0), n * n + r2
        half = (3.0 * n * n + n - r2) / (8.0 * d * d * (d + n + 0.25))
        lower = float(np.sum(2.0 * idx / (idx * idx + r2) ** 2)) + (d - n) / (d * d)
    value = lower + half
    return EvalResult(value, n, half + _S_rounding(n, value))


# S(r) by its integral form: composite Gauss-Legendre rule on panels of
# width h = min(1, 1/r).  Each panel's Bernstein ellipse has rho - 1/rho = 4:
# semi-minor axis h, reaching _REACH h beyond either end of the panel.
_GAUSS_N = 24
# The positive nodes of the 24-point rule and their weights, correctly
# rounded (regenerated by a test at 50 digits); numpy's leggauss puts its
# end weights up to 1100 ulp off, past what the rounding term allows.
_GAUSS_NODES = (0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
                0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
                0.7401241915785544, 0.820001985973903, 0.8864155270044011,
                0.9382745520027328, 0.9747285559713095, 0.9951872199970213)
_GAUSS_WEIGHTS = (0.12793819534675216, 0.1258374563468283, 0.12167047292780339,
                  0.1155056680537256, 0.10744427011596563, 0.09761865210411388,
                  0.08619016153195327, 0.0733464814110803, 0.05929858491543678,
                  0.04427743881741981, 0.028531388628933663, 0.0123412297999872)
_RHO = 2.0 + math.sqrt(5.0)
_REACH = 0.5 * (math.sqrt(5.0) - 1.0)
_PANEL_CHUNK = 4096
_MAX_PANELS = 1 << 22


@dataclass(frozen=True)
class PanelRule:
    """The composite Gauss-Legendre rule `eval_S_integral` uses at (r, tol):
    ``panels`` panels of ``width`` covering [0, panels * width], and a
    bound on |S(r) - value| for the value it returns."""

    width: float
    panels: int
    error_bound: float

    @property
    def nodes(self) -> int:
        return self.panels * _GAUSS_N


def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the 24-point rule on [-1, 1]."""
    x, w = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def _S_remainder(r: float, big_t: float) -> float:
    """Bound on (1/r) int_T^inf t |sin rt| / (e^t-1) dt: |sin rt| <= min(1, rt)
    and 1/(e^t-1) <= e^-t / (1-e^-T) for t >= T give min(T^2+2T+2, (T+1)/r)
    e^-T / (1-e^-T)."""
    poly = min(big_t * big_t + 2.0 * big_t + 2.0, (big_t + 1.0) / r)
    return poly * math.exp(-big_t) / -math.expm1(-big_t)


def _panel_majorant(r: float, width: float, start: float, radius: float) -> float:
    """M >= |t sin(rt) / (r (e^t-1))| on the Bernstein ellipse E_rho of the
    panel [start, start + width], width <= 1, for an ellipse inside
    |t| <= radius.  There |Im t| <= width and Re t >= start - _REACH width;
    |t / (e^t-1)| <= 1.043 max(1, e^-Re t) for |Im t| <= 1 follows from
    |e^x-1| >= |x| min(1, e^x) and sin(y/2)/(y/2) >= 0.9589, and
    |sin rt| <= cosh(r Im t), or |sin rt| <= r|t| cosh(r|t|) where r|t| <= 1."""
    sin_over_r = math.cosh(r * width) / r
    if r * radius <= 1.0:
        sin_over_r = min(sin_over_r, radius * math.cosh(1.0))
    return 1.043 * sin_over_r * max(1.0, math.exp(_REACH * width - start))


def S_integral_rule(r: float, tol: float = 1e-10) -> PanelRule:
    """The panel rule `eval_S_integral(r, tol)` evaluates, with the error
    bound documented there.  Raises NumericError if that bound exceeds tol
    or the rule would need more than _MAX_PANELS panels."""
    if not 0.0 < r < math.inf:
        raise ParameterDomainError(f"r must be finite and > 0, got {r}")
    if not tol > 0:
        raise ParameterDomainError(f"tol must be > 0, got {tol}")
    width = min(1.0, 1.0 / r)
    big_t = 1.0
    while _S_remainder(r, big_t) > _UNIT_ROUNDOFF:
        big_t += 1.0
    if big_t / width > _MAX_PANELS:
        raise NumericError(
            f"S({r}) needs {big_t / width:.3g} panels, over {_MAX_PANELS}; "
            "use eval_S, which answers every r")
    panels = math.ceil(big_t / width)
    big_t = panels * width
    radius = big_t + (1.0 + _REACH) * width
    majorants = (_panel_majorant(r, width, 0.0, radius)
                 + (panels - 1) * _panel_majorant(r, width, width, radius))
    quadrature = (0.5 * width * (64.0 / 15.0) * _RHO ** (-2 * _GAUSS_N)
                  / (_RHO**2 - 1.0) * majorants)
    depth = _GAUSS_N + 12 + min(panels, _PANEL_CHUNK) + -(-panels // _PANEL_CHUNK)
    abs_sum = min(2.0 * ZETA3, math.pi**2 / (6.0 * r))
    rounding = _UNIT_ROUNDOFF * (2.0 * depth * abs_sum + 104.0)
    bound = _S_remainder(r, big_t) + quadrature + rounding
    if bound > tol:
        raise NumericError(
            f"the panel rule certifies S({r}) only to {bound:.3g}, above tol {tol}")
    return PanelRule(width, panels, bound)


def eval_S_integral(r: float, tol: float = 1e-10) -> float:
    """S(r) via its integral representation (1/r) int_0^inf t sin(rt)/(e^t-1) dt,
    by the 24-point Gauss-Legendre rule `_gauss_rule` on each of the panels of
    `S_integral_rule(r, tol)`, whose ``error_bound`` (at most tol, else
    NumericError) bounds |S(r) - value| as the sum of three terms:

    * the dropped remainder past T = panels * width, `_S_remainder`,
      below the unit roundoff u = 2^-53 (T does not depend on tol);
    * the quadrature error, (64/15) (h/2) M rho^(-48) / (rho^2-1) per
      panel of width h = min(1, 1/r) (Trefethen, Approximation Theory and
      Approximation Practice, Thm 19.3), with rho = 2+sqrt5 and M the
      `_panel_majorant` of the integrand on the panel's ellipse;
    * floating-point rounding: 2 K u sum|w f| for the computed integrand
      values and their weighted sum, where K counts the roundings along
      any one summand's path (24 per panel sum, one per panel and chunk
      summed, 12 in the integrand, weights and scaling) and
      sum|w f| <= min(2 zeta(3), pi^2/(6r)); plus 104 u for nodes off by
      up to 8u (t+h), which moves the weighted sum by at most
      8u int (t+1)^2 t/(e^t-1) dt < 104u.

    The integrand is evaluated in chunks of _PANEL_CHUNK panels, so every
    temporary holds at most 4096 x 24 = 98304 doubles (768 KiB) whatever r.
    """
    rule = S_integral_rule(r, tol)
    x, w = _gauss_rule()
    offsets = 0.5 * rule.width * (x + 1.0)
    total = 0.0
    for first in range(0, rule.panels, _PANEL_CHUNK):
        starts = rule.width * np.arange(first, min(first + _PANEL_CHUNK, rule.panels))
        t = starts[:, None] + offsets
        total += float(np.sum((t / np.expm1(t) * np.sin(r * t)) @ w))
    return 0.5 * rule.width * total / r
