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
import functools
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

# Apery's constant zeta(3); regenerated by a test from the defining series.
ZETA3 = 1.2020569031595942


class Family(str, enum.Enum):
    F = "F"
    Q = "Q"
    SHAT = "SHat"
    DOUBLE_FACTORIAL = "DoubleFactorial"


def _log_coeff_F(n: np.ndarray, mu: float, r: float) -> np.ndarray:
    return np.log(n) + (mu + 1.0) * (math.log1p(r * r) - np.log(n * n + r * r))


_LOG_FACTORIAL_TABLE = 4096


@functools.cache
def _log_factorials() -> np.ndarray:
    """log k! = math.lgamma(k + 1.0) for k < _LOG_FACTORIAL_TABLE."""
    return np.array([math.lgamma(k + 1.0) for k in range(_LOG_FACTORIAL_TABLE)])


def log_factorial(x: np.ndarray) -> np.ndarray:
    """log Gamma(x+1) elementwise, log x! at integer x.  An integer array
    with 0 <= x < _LOG_FACTORIAL_TABLE reads a table built at first use;
    any other x calls math.lgamma per element.  Both give the same bits."""
    x = np.asarray(x)
    if x.dtype.kind in "iu" and x.min(initial=0) >= 0 and x.max(initial=0) < _LOG_FACTORIAL_TABLE:
        return _log_factorials()[x]
    return np.vectorize(math.lgamma, otypes=[float])(x + 1.0)


def log_coeff_Q(n: np.ndarray, mu: float, r: float) -> np.ndarray:
    """log C_n of the Q family; at real n > 0 it interpolates them."""
    lf = log_factorial(n)
    # log((n!)^2 + r^2) without forming (n!)^2
    log_denom = 2.0 * lf + np.log1p(r * r * np.exp(-2.0 * lf))
    return lf + (mu + 1.0) * (math.log1p(r * r) - log_denom)


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
        logs = self.log_values_at(np.arange(1, n_terms + 1))
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
        if n.size and n.min() < 1:
            raise ParameterDomainError("coefficient index must be >= 1")
        if self.family is Family.F:
            return _log_coeff_F(n.astype(float), self.params.mu, self.params.r)
        if self.family is Family.Q:
            return log_coeff_Q(n, self.params.mu, self.params.r)
        if self.family is Family.SHAT:
            return _log_coeff_shat(n.astype(float))
        return _log_coeff_double_factorial(n)


class FunctionSequence(SequenceBase):
    """Coefficient sequence a_n = fn(n) for a vectorized fn, handy for
    synthetic fixtures like a_n = 1/n; a negative a_n has log nan."""

    family = None
    params = None

    def __init__(self, fn):
        self.fn = fn

    def values_at(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.int64)
        if n.size and n.min() < 1:
            raise ParameterDomainError("coefficient index must be >= 1")
        return np.asarray(self.fn(n.astype(float)), dtype=float)

    def log_values_at(self, n: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.values_at(n))

    def read(self, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
        """The fn values as given, not exp of their logs, and the logs."""
        n = np.arange(1, n_terms + 1)
        return self.values_at(n), self.log_values_at(n)


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
    """Coefficients c_1..c_N of sum c_n z^(n-1) (c_n = a_n, or n a_n when
    index_weighted), cut so the tail at |z| = rho is below tol.

    Terms come in blocks of 256, doubling up to 16384, the last block
    clipped to n_max.  The cut is at the first block end N whose block
    is non-increasing and continues the previous block, and where the
    geometric majorant c_N rho^N / (1 - rho) of the tail is below tol.
    Returns (coefficients, that majorant).  Raises TruncationError with
    the same pair as ``partial`` if no block end within n_max qualifies;
    its majorant is inf unless the last block was non-increasing.
    """
    n_done = 0
    block = 256
    chunks = []
    prev_last = math.inf
    bound = math.inf
    while n_done < n_max:
        idx = np.arange(n_done + 1, min(n_done + block, n_max) + 1)
        vals = seq.values_at(idx)
        if index_weighted:
            vals = idx * vals
        chunks.append(vals)
        n_done += len(idx)
        monotone = bool(np.all(np.diff(vals) <= 0.0) and vals[0] <= prev_last)
        prev_last = float(vals[-1])
        bound = prev_last * rho**n_done / (1.0 - rho) if monotone else math.inf
        if bound < tol:
            return np.concatenate(chunks), bound
        block = min(2 * block, 16384)
    raise TruncationError(
        f"series tail below {tol} not reached within {n_max} terms at |z|={rho}",
        partial=(np.concatenate(chunks), bound),
    )


def eval_series(
    c: SequenceBase,
    z: complex,
    tol: float = DEFAULT_TOL,
    n_max: int = N_MAX,
) -> EvalResult:
    """Evaluate sum_{n>=1} a_n z^n with a certified truncation tail bound.

    The terms are those of ``truncated_coeffs`` at rho = |z|, called with
    tol/rho: the sum stops at the first block end N whose block is
    non-increasing and continues the previous one, and where the
    geometric majorant a_N rho^(N+1) / (1-rho) of the tail, reported as
    ``tail_bound``, is below tol.  Raises TruncationError, with the
    partial EvalResult, if no such N lies within n_max terms; that
    includes every sequence whose tail never turns non-increasing.
    """
    if tol <= 0:
        raise ParameterDomainError(f"tol must be > 0, got {tol}")
    if n_max < 1:
        raise ParameterDomainError(f"n_max must be >= 1, got {n_max}")
    z = complex(z)
    rho = abs(z)
    if not rho < 1.0:  # also NaN
        raise EvalDomainError(f"|z| must be < 1, got |z| = {rho}")
    if rho == 0.0:
        return EvalResult(0j, 0, 0.0)

    def result(coeffs: np.ndarray, bound: float) -> EvalResult:
        idx = np.arange(1, len(coeffs) + 1)
        return EvalResult(complex(np.sum(coeffs * z**idx)), len(coeffs), rho * bound)

    try:
        return result(*truncated_coeffs(c, rho, tol / rho, n_max))
    except TruncationError as exc:
        raise TruncationError(
            f"tolerance {tol} not reached within {n_max} terms",
            partial=result(*exc.partial),
        ) from None


def eval_S(r: float, tol: float = DEFAULT_TOL, n_max: int = N_MAX) -> EvalResult:
    """Classical Mathieu series S(r) = sum 2n/(n^2+r^2)^2.

    The tail after N terms is bounded by the integral comparison
    int_N^inf 2x/(x^2+r^2)^2 dx = 1/(N^2+r^2).
    """
    if not (r > 0):
        raise ParameterDomainError(f"r must be > 0, got {r}")
    if tol <= 0:
        raise ParameterDomainError(f"tol must be > 0, got {tol}")
    total = 0.0
    n_done = 0
    chunk = 1 << 16
    r2 = r * r
    while n_done < n_max:
        m = min(chunk, n_max - n_done)
        idx = np.arange(n_done + 1, n_done + m + 1, dtype=float)
        total += float(np.sum(2.0 * idx / (idx * idx + r2) ** 2))
        n_done += m
        bound = 1.0 / (float(n_done) ** 2 + r2)
        if bound < tol:
            return EvalResult(total, n_done, bound)
    raise TruncationError(
        f"tolerance {tol} not reached within {n_max} terms",
        partial=EvalResult(total, n_done, bound),
    )


def eval_S_integral(r: float, tol: float = 1e-10) -> float:
    """S(r) via its integral representation (1/r) int_0^inf t sin(rt)/(e^t-1) dt.

    Integrates over [0, T] with T chosen so the dropped remainder is
    below tol/2: for t >= T >= 1 the integrand is at most
    2 t e^{-t}, whose tail integral is 2(T+1)e^{-T}.
    """
    if not (r > 0):
        raise ParameterDomainError(f"r must be > 0, got {r}")
    if tol <= 0:
        raise ParameterDomainError(f"tol must be > 0, got {tol}")
    # Imported here, not at module top: scipy.integrate takes longer to
    # import than the rest of the package, and this is its only caller.
    from scipy import integrate

    big_t = max(50.0, 40.0 / r)
    while 2.0 * (big_t + 1.0) * math.exp(-big_t) >= tol / 2:
        big_t *= 1.5

    def integrand(t: float) -> float:
        if t == 0.0:
            return 0.0
        return t * math.sin(r * t) / math.expm1(t)

    limit = max(200, int(4.0 * r * big_t / math.pi) + 50)
    val, abserr, info, *rest = integrate.quad(
        integrand, 0.0, big_t, epsabs=tol / 2, epsrel=1e-13,
        limit=limit, full_output=1,
    )
    if rest:  # non-empty message => quadrature warning
        raise NumericError(f"quadrature did not converge: {rest[0]}")
    if abserr > 100 * tol:
        raise NumericError(f"quadrature error estimate {abserr} exceeds tolerance {tol}")
    return val / r
