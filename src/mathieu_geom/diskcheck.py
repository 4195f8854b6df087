"""Direct numerical certification on a sampled unit disk.

Four functionals of a normalized power series f(z) = z + sum a_n z^n are
minimized over a polar lattice:

* RatioHalfPlane:  Re(f(z)/z)        must stay above 1/2
* DerivHalfPlane:  Re(f'(z))         must stay above 1/2
* Starlike:        Re(z f'(z)/f(z))  must stay above 0
* CloseToConvex:   Re((1-z) f'(z))   must stay above 0

All four are harmonic or smooth and extremal near the boundary circle,
so radii are spaced densely near |z| = max_radius.  The verdict is a
certified-sampling one, never a proof.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .params import (
    ConfigurationError,
    DegeneratePointError,
    ParamSet,
)
from .series import CoefficientSeq, Family, SequenceBase, truncated_coeffs

DEFAULT_TOLERANCE = 1e-9
_SERIES_TAIL_TOL = 1e-12
# The first block end of truncated_coeffs at or past 200_000: 16128 terms
# in the doubling blocks 256..8192, then 12 blocks of 16384.  The disk
# check once cut its last block only there, and series near |z| = 1 that
# it answered need the terms past 200_000.
_COEFF_CAP = 212_736
# _point_eval's Horner block length, a power of two: powers come by doubling
_HORNER_BLOCK = 256


class Functional(str, enum.Enum):
    RATIO_HALFPLANE = "RatioHalfPlane"
    DERIV_HALFPLANE = "DerivHalfPlane"
    STARLIKE = "Starlike"
    CLOSE_TO_CONVEX = "CloseToConvex"


FUNCTIONAL_BOUND = {
    Functional.RATIO_HALFPLANE: 0.5,
    Functional.DERIV_HALFPLANE: 0.5,
    Functional.STARLIKE: 0.0,
    Functional.CLOSE_TO_CONVEX: 0.0,
}


class DiskStatus(str, enum.Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"


@dataclass(frozen=True)
class DiskGrid:
    """Polar lattice r_i e^{i theta_j}: radii sine-spaced toward the
    boundary (so a 2x refinement contains the coarse lattice), angles
    uniform on [0, 2pi)."""

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

    def refined(self, factor: int = 2) -> "DiskGrid":
        return DiskGrid(self.n_radii * factor, self.n_angles * factor, self.max_radius)


@dataclass
class DiskReport:
    functional: Functional
    min_value: float
    argmin: complex
    grid: DiskGrid
    status: DiskStatus
    bound: float
    terms: int          # longest coefficient array used
    tail_bound: float   # largest tail majorant of the series cuts used

    @property
    def holds(self) -> bool:
        return self.status is DiskStatus.HOLDS


def as_sequence(family: Union[SequenceBase, Family, str], p: Optional[ParamSet] = None) -> SequenceBase:
    if isinstance(family, SequenceBase):
        return family
    fam = Family(family)
    if fam in (Family.F, Family.Q):
        return CoefficientSeq(fam, p)
    return CoefficientSeq(fam)


def _grid_eval(coeffs: np.ndarray, grid: DiskGrid) -> np.ndarray:
    """Evaluate sum_n c_n z^(n-1) on the whole lattice.

    At fixed radius the angle dependence is a Fourier sum.  With
    C[q, k] = c_(qm+k+1) (zero-padded, m = n_angles) the terms folded modulo
    m are (rad^(mq) @ C) rad^k: one matmul for all radii, then one FFT.
    """
    m = grid.n_angles
    c = np.pad(coeffs, (0, (-len(coeffs)) % m)).reshape(-1, m)
    rad = grid.radii()[:, None]
    folded = (rad ** (m * np.arange(len(c))) @ c) * rad ** np.arange(m)
    return np.fft.ifft(folded, axis=1) * m


def _point_eval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum c_n z^(n-1), c_n real, at arbitrary points: block sums of B terms
    are one real matmul against the real and imaginary parts of
    z^0..z^(B-1), B = _HORNER_BLOCK; then Horner in z^B over the blocks."""
    b = _HORNER_BLOCK
    zf = np.asarray(z, dtype=complex).reshape(-1)
    powers = np.empty((b, zf.size), dtype=complex)
    powers[0] = 1.0
    k = 1
    while k < b:  # z^k..z^(2k-1) = z^0..z^(k-1) times z^k
        powers[k : 2 * k] = powers[:k] * (powers[k - 1] * zf)
        k *= 2
    blocks = np.pad(coeffs, (0, (-len(coeffs)) % b)).reshape(-1, b)
    sums = (blocks @ powers.view(float)).view(complex)
    z_b = powers[-1] * zf
    res = np.zeros(zf.size, dtype=complex)
    for s in sums[::-1]:
        res = res * z_b + s
    return res.reshape(np.shape(z))


def _grid_points(grid: DiskGrid) -> np.ndarray:
    return grid.radii()[:, None] * np.exp(1j * grid.angles())[None, :]


def _functional_on_grid(functional: Functional, seq: SequenceBase, grid: DiskGrid, z_grid):
    """Returns (values over the lattice z_grid, point evaluator for the
    same functional at arbitrary z, (terms, tail_bound)): the longest
    coefficient array used and the largest tail majorant of its cuts."""
    rho = grid.max_radius
    weighted = ((False, True) if functional is Functional.STARLIKE
                else (functional is not Functional.RATIO_HALFPLANE,))
    cuts = [truncated_coeffs(seq, rho, _SERIES_TAIL_TOL, _COEFF_CAP, w) for w in weighted]
    budget = (max(len(c) for c, _ in cuts), max(tail for _, tail in cuts))
    c = cuts[-1][0]
    if functional in (Functional.RATIO_HALFPLANE, Functional.DERIV_HALFPLANE):
        vals = _grid_eval(c, grid).real

        def at(z):
            return _point_eval(c, z).real

        return vals, at, budget

    if functional is Functional.CLOSE_TO_CONVEX:
        vals = ((1.0 - z_grid) * _grid_eval(c, grid)).real

        def at(z):
            return ((1.0 - z) * _point_eval(c, z)).real

        return vals, at, budget

    # Starlike: Re(z f'/f) = Re(D/P) with D = sum n a_n z^(n-1), P = f/z
    cp, cd = cuts[0][0], c
    p_vals = _grid_eval(cp, grid)
    f_abs = np.abs(z_grid * p_vals)
    if np.any(f_abs < 1e-14):
        i, j = np.unravel_index(int(np.argmin(f_abs)), f_abs.shape)
        raise DegeneratePointError(
            "function vanishes on the grid; starlikeness ratio undefined",
            point=complex(z_grid[i, j]),
        )
    d_vals = _grid_eval(cd, grid)
    vals = (d_vals / p_vals).real

    def at(z):
        p = _point_eval(cp, z)
        bad = np.abs(z * p) < 1e-14
        if np.any(bad):
            raise DegeneratePointError(
                "function vanishes at refined point", point=complex(np.asarray(z)[bad][0])
            )
        return (_point_eval(cd, z) / p).real

    return vals, at, budget


def _polish(grid: DiskGrid, at, i: int, j: int, min_value: float, argmin: complex):
    """Local refinement (3 levels of ~4x zoom) around a violating lattice
    cell, deepening the reported minimum."""
    radii = grid.radii()
    r_lo = radii[i - 1] if i > 0 else radii[0] / 2.0
    r_hi = radii[i + 1] if i + 1 < len(radii) else grid.max_radius
    dth = 2.0 * math.pi / grid.n_angles
    th = 2.0 * math.pi * j / grid.n_angles
    th_lo, th_hi = th - dth, th + dth
    for _ in range(3):
        rs = np.linspace(r_lo, r_hi, 17)
        ths = np.linspace(th_lo, th_hi, 17)
        z = rs[:, None] * np.exp(1j * ths)[None, :]
        vals = at(z)
        k, l = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[k, l] < min_value:
            min_value = float(vals[k, l])
            argmin = complex(z[k, l])
        dr = (r_hi - r_lo) / 4.0
        dt = (th_hi - th_lo) / 4.0
        r_lo = max(rs[k] - dr / 2.0, 0.0)
        r_hi = min(rs[k] + dr / 2.0, grid.max_radius)
        th_lo, th_hi = ths[l] - dt / 2.0, ths[l] + dt / 2.0
    return min_value, argmin


def verify_functional(
    functional: Functional | str,
    family: Union[SequenceBase, Family, str],
    p: Optional[ParamSet] = None,
    grid: Optional[DiskGrid] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> DiskReport:
    """Minimize one functional over the lattice and compare with its
    half-plane/positivity bound.  Holds iff min > bound - tolerance."""
    functional = Functional(functional)
    seq = as_sequence(family, p)
    grid = grid or DiskGrid()

    z_grid = _grid_points(grid)
    vals, at, (terms, tail_bound) = _functional_on_grid(functional, seq, grid, z_grid)
    flat = int(np.argmin(vals))  # row-major: ties break on (radius, angle)
    i, j = np.unravel_index(flat, vals.shape)
    min_value = float(vals[i, j])
    argmin = complex(z_grid[i, j])

    bound = FUNCTIONAL_BOUND[functional]
    if min_value <= bound - tolerance:
        min_value, argmin = _polish(grid, at, int(i), int(j), min_value, argmin)

    status = DiskStatus.HOLDS if min_value > bound - tolerance else DiskStatus.VIOLATED
    return DiskReport(functional, min_value, argmin, grid, status, bound, terms, tail_bound)


def verify_ratio_halfplane(family, p=None, grid=None, tolerance=DEFAULT_TOLERANCE) -> DiskReport:
    """Re(f(z)/z) > 1/2 on the sampled disk."""
    return verify_functional(Functional.RATIO_HALFPLANE, family, p, grid, tolerance)


def verify_deriv_halfplane(family, p=None, grid=None, tolerance=DEFAULT_TOLERANCE) -> DiskReport:
    """Re(f'(z)) > 1/2 on the sampled disk."""
    return verify_functional(Functional.DERIV_HALFPLANE, family, p, grid, tolerance)


def verify_starlike(family, p=None, grid=None, tolerance=DEFAULT_TOLERANCE) -> DiskReport:
    """Re(z f'(z)/f(z)) > 0 on the sampled disk."""
    return verify_functional(Functional.STARLIKE, family, p, grid, tolerance)


def verify_close_to_convex(family, p=None, grid=None, tolerance=DEFAULT_TOLERANCE) -> DiskReport:
    """Re((1-z) f'(z)) > 0 on the sampled disk (comparison function
    z/(1-z), rotation angle fixed to 0)."""
    return verify_functional(Functional.CLOSE_TO_CONVEX, family, p, grid, tolerance)


def dump_grid_csv(functional: Functional | str, family, p, grid, path) -> None:
    """Write per-point functional values as CSV (radius, angle, re_functional)."""
    import csv

    functional = Functional(functional)
    seq = as_sequence(family, p)
    grid = grid or DiskGrid()
    vals, _, _ = _functional_on_grid(functional, seq, grid, _grid_points(grid))
    radii = grid.radii()
    angles = grid.angles()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "angle", "re_functional"])
        for i, rad in enumerate(radii):
            for j, th in enumerate(angles):
                writer.writerow([repr(float(rad)), repr(float(th)), repr(float(vals[i, j]))])
