"""Certified disk check: four functionals of f(z) = z + sum a_n z^n must
stay above a bound on the closed disk |z| <= rho:

* RatioHalfPlane:  Re(f(z)/z)        must stay above 1/2
* DerivHalfPlane:  Re(f'(z))         must stay above 1/2
* Starlike:        Re(z f'(z)/f(z))  must stay above 0
* CloseToConvex:   Re((1-z) f'(z))   must stay above 0 (against z/(1-z))

Each is the real part of a function analytic on |z| <= rho (for Starlike
while f/z has no zero there), so its minimum lies on |z| = rho.  Samples at
m points of that circle, less the dip between them and the series error,
bound it from below (Holds); a sample at or below bound - tolerance is
Violated; m doubles up to 2^20, where a check still open is Inconclusive.
Starlike certifies Re(f' conj(f/z)), of the sign of Re(z f'/f), and shows
f/z zero-free by its winding number on the circle (argument principle).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .params import ConfigurationError, DegeneratePointError, ParamSet
from .series import CoefficientSeq, Family, SequenceBase, truncated_coeffs

DEFAULT_TOLERANCE = 1e-9
_SERIES_TAIL_TOL = 1e-12
# truncated_coeffs' first block end past 200_000 (16128 + 12 * 16384 terms):
# series near |z| = 1 that the check answers need the terms past 200_000.
_COEFF_CAP = 212_736
# Rounding of one fold + FFT evaluation, relative to sum |c_n| rho^(n-1)
_ROUNDING = 1e-13
_MAX_POINTS = 2**20  # most circle points; a check undecided there is Inconclusive
_MAX_SLICE = 2**13   # most points per FFT: larger slices ran slower and use more memory


class Functional(str, enum.Enum):
    RATIO_HALFPLANE = "RatioHalfPlane"
    DERIV_HALFPLANE = "DerivHalfPlane"
    STARLIKE = "Starlike"
    CLOSE_TO_CONVEX = "CloseToConvex"


FUNCTIONAL_BOUND = {Functional.RATIO_HALFPLANE: 0.5, Functional.DERIV_HALFPLANE: 0.5,
                    Functional.STARLIKE: 0.0, Functional.CLOSE_TO_CONVEX: 0.0}


class DiskStatus(str, enum.Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DiskGrid:
    """The disk |z| <= max_radius and the first number of circle points,
    n_angles.  n_radii shapes only the interior lattice r_i e^{i theta_j}
    (radii sine-spaced toward the boundary, the n_angles angles uniform on
    [0, 2pi)) of dump_grid_csv and of the Starlike zero witness."""

    n_radii: int = 64
    n_angles: int = 256
    max_radius: float = 0.995

    def __post_init__(self):
        if self.n_radii < 1 or self.n_angles < 4:
            raise ConfigurationError("grid must have >= 1 radii and >= 4 angles")
        if not (0.0 < self.max_radius < 1.0):
            raise ConfigurationError(f"max_radius must be in (0,1), got {self.max_radius}")

    def radii(self) -> np.ndarray:
        i = np.arange(1, self.n_radii + 1)
        return self.max_radius * np.sin(0.5 * math.pi * i / self.n_radii)

    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_angles) / self.n_angles


@dataclass
class DiskReport:
    functional: Functional
    min_value: float    # least sample of the functional, at argmin
    argmin: complex
    grid: DiskGrid
    status: DiskStatus
    bound: float
    terms: int          # longest coefficient array used
    tail_bound: float   # largest tail majorant of the series cuts used
    m: int              # circle points of the deciding pass
    discretisation_bound: float  # K pi^2 / (2 m^2)
    lower_bound: float  # least certified sample minus both error terms
    winding: Optional[int] = None  # Starlike: discrete winding number of f/z on the circle

    @property
    def holds(self) -> bool:
        return self.status is DiskStatus.HOLDS


def as_sequence(family: Union[SequenceBase, Family, str], p: Optional[ParamSet] = None) -> SequenceBase:
    return family if isinstance(family, SequenceBase) else CoefficientSeq(family, p)


def _turn(num, den: int):
    """e^(2 pi i num/den), num reduced modulo den in integers first."""
    return np.exp(2j * math.pi * (np.asarray(num) % den) / den)


def _fold_eval(coeffs: np.ndarray, radii, m: int, of: int = 1):
    """Yield, for j < of, sum_n c_n z^(n-1) for each row c of coeffs (real,
    shape (S, N)) at z = rad e^(2 pi i (k + j/of) / m), k < m, for each
    radius: shape (S, len(radii), m); the slices cover of*m points.  With
    C[q, k] = c_(qm+k+1) (zero-padded) and w = rad e^(2 pi i j/(of m)) the
    terms folded modulo m are (w^(mq) @ C) w^k: one real matmul, one FFT."""
    c = np.pad(coeffs, ((0, 0), (0, (-coeffs.shape[1]) % m))).reshape(len(coeffs), -1, m)
    q, k = np.arange(c.shape[1]), np.arange(m)
    rad = np.asarray(radii, dtype=float)[:, None]
    rad_q, cols, step = rad ** (m * q), rad ** k, _turn(k, of * m)
    for j in range(of):
        rows = rad_q * _turn(j * q, of)
        yield np.fft.ifft((rows.real @ c + 1j * (rows.imag @ c)) * cols, axis=-1) * m
        cols = cols * step


def _series(functional: Functional, seq: SequenceBase, rho: float):
    """Coefficient rows c_n of the series sum c_n z^(n-1) the functional is
    built from: f/z and f' (Starlike), (1-z) f' (CloseToConvex, c_n =
    n a_n - (n-1) a_(n-1)), or f/z or f' alone.  Returns (rows, tail bound
    of each row at |z| = rho, (longest cut, largest tail majorant))."""
    weighted = ((False, True) if functional is Functional.STARLIKE
                else (functional is not Functional.RATIO_HALFPLANE,))
    cuts = [truncated_coeffs(seq, rho, _SERIES_TAIL_TOL, _COEFF_CAP, w) for w in weighted]
    budget = (max(len(c) for c, _ in cuts), max(tail for _, tail in cuts))
    if functional is Functional.CLOSE_TO_CONVEX:
        (d, tail), = cuts
        cuts = [(np.diff(d, prepend=0.0, append=0.0), (1.0 + rho) * tail)]
    n = max(len(c) for c, _ in cuts)
    rows = np.array([np.pad(c, (0, n - len(c))) for c, _ in cuts])
    return rows, np.array([tail for _, tail in cuts]), budget


def _values(functional: Functional, series: np.ndarray, z_abs, point):
    """The functional and the quantity certified for it, from its series'
    values at points of modulus z_abs.  Starlike raises DegeneratePointError
    at point(i), i the flat index of the least |f| = |z| |f/z|, if below 1e-14."""
    if functional is not Functional.STARLIKE:
        return series[0].real, series[0].real
    p, d = series
    f_abs = z_abs * np.abs(p)
    i = int(np.argmin(f_abs))
    if f_abs.flat[i] < 1e-14:
        raise DegeneratePointError("function vanishes at a sample point; "
                                   "starlikeness ratio undefined", point=complex(point(i)))
    return (d / p).real, (d * p.conj()).real


def _circle_pass(functional: Functional, rows: np.ndarray, rho: float, m: int):
    """Sample at z_k = rho e^(2 pi i k/m), k < m, in `of` interleaved slices
    (slice j holds k = j, j + of, ...) keeping running minima.  Returns
    (least value, its z_k, least certified value, least |f/z| (inf unless
    Starlike), winding number of f/z); the winding sum adds each slice's
    step to the next."""
    s = m
    while s > _MAX_SLICE and s % 2 == 0:
        s //= 2
    of = m // s
    low, k_low, cert, p_low, turns = math.inf, 0, math.inf, math.inf, 0.0
    for j, series in enumerate(_fold_eval(rows, [rho], s, of)):
        series = series[:, 0]
        vals, certified = _values(functional, series, rho, lambda i: rho * _turn(j + of * i, m))
        i = int(np.argmin(vals))
        if vals[i] < low:
            low, k_low = float(vals[i]), j + of * i
        cert = min(cert, float(np.min(certified)))
        if functional is Functional.STARLIKE:
            p = series[0]
            p_low = min(p_low, float(np.min(np.abs(p))))
            if j:
                turns += float(np.sum(np.angle(p * prev.conj())))
            else:
                first = p
            prev = p
    if functional is Functional.STARLIKE:
        turns += float(np.sum(np.angle(np.roll(first, -1) * prev.conj())))
    return low, rho * complex(_turn(k_low, m)), cert, p_low, round(turns / (2.0 * math.pi))


def _lattice(functional: Functional, rows: np.ndarray, grid: DiskGrid):
    """The functional on the lattice grid.radii() x grid.angles(), its points."""
    z = grid.radii()[:, None] * np.exp(1j * grid.angles())[None, :]
    series = next(_fold_eval(rows, grid.radii(), grid.n_angles))
    return _values(functional, series, np.abs(z), lambda i: z.flat[i])[0], z


def verify_functional(functional: Functional | str, family: Union[SequenceBase, Family, str],
                      p: Optional[ParamSet] = None, grid: Optional[DiskGrid] = None,
                      tolerance: float = DEFAULT_TOLERANCE) -> DiskReport:
    """Decide one functional against its half-plane/positivity bound on
    |z| <= grid.max_radius from its boundary circle, sampled first at
    grid.n_angles points (see the module docstring).  A Starlike winding
    number other than 0 is Violated, reported at the least lattice value."""
    functional = Functional(functional)
    grid = grid or DiskGrid()
    rho, bound = grid.max_radius, FUNCTIONAL_BOUND[functional]
    starlike = functional is Functional.STARLIKE
    rows, tails, (terms, tail_bound) = _series(functional, as_sequence(family, p), rho)
    n = np.arange(rows.shape[1], dtype=float)  # n - 1
    weights = np.abs(rows) * rho**n
    # M_0, M_1, M_2 by elementwise sums: as a BLAS product (weights @ n) this
    # stalled for ~0.3 s in fresh processes under multi-threaded OpenBLAS
    m0, m1, m2 = ((weights * n**j).sum(axis=1) for j in range(3))
    err = tails + _ROUNDING * m0  # each row's sampled sum against the series
    if starlike:  # Re(D conj(P)), P = f/z and D = f' the two rows
        k2 = float(m2[1] * m0[0] + 2.0 * m1[1] * m1[0] + m0[1] * m2[0])
        err_all = float(m0[1] * err[0] + m0[0] * err[1] + err[0] * err[1])
    else:
        k2, err_all = float(m2[0]), float(err[0])

    m = grid.n_angles
    cap = m * 2 ** max(0, int(math.log2(_MAX_POINTS / m)))
    while True:
        min_value, argmin, cert, p_low, winding = _circle_pass(functional, rows, rho, m)
        disc = k2 * (math.pi / m) ** 2 / 2.0
        lower = cert - disc - err_all
        # Starlike: |f/z| > 0 on the circle, and no zero slips between samples
        zero_free = p_low - err[0] > 2.0 * math.pi * m1[0] / m
        if min_value <= bound - tolerance:
            status = DiskStatus.VIOLATED
        elif zero_free and winding != 0:
            status = DiskStatus.VIOLATED
            vals, z = _lattice(functional, rows, grid)
            i = np.unravel_index(int(np.argmin(vals)), vals.shape)
            min_value, argmin = float(vals[i]), complex(z[i])
        elif zero_free and lower > bound:
            status = DiskStatus.HOLDS
        elif m >= cap:
            status = DiskStatus.INCONCLUSIVE
        else:  # the least m at which the measured margins would pass
            margin, gap = cert - err_all - bound, p_low - err[0]
            need = max(math.pi * math.sqrt(k2 / (2.0 * margin)) if margin > 0 else math.inf,
                       2.0 * math.pi * m1[0] / gap if gap > 0 else math.inf)
            m *= 2
            while m <= need and m < cap:
                m *= 2
            continue
        return DiskReport(functional, min_value, argmin, grid, status, bound, terms, tail_bound,
                          m, disc, lower, winding if starlike else None)


def dump_grid_csv(functional: Functional | str, family, p, grid, path) -> None:
    """Write the functional on the interior lattice as CSV (radius, angle,
    re_functional)."""
    functional = Functional(functional)
    seq = as_sequence(family, p)
    grid = grid or DiskGrid()
    vals, _ = _lattice(functional, _series(functional, seq, grid.max_radius)[0], grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "angle", "re_functional"])
        for i, rad in enumerate(grid.radii()):
            for j, th in enumerate(grid.angles()):
                writer.writerow([repr(float(rad)), repr(float(th)), repr(float(vals[i, j]))])
