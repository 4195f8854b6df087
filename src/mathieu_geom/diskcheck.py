"""Certified disk check: four functionals of f(z) = z + sum a_n z^n must
stay above a bound on the closed disk |z| <= rho:

* RatioHalfPlane:  Re(f(z)/z)        must stay above 1/2
* DerivHalfPlane:  Re(f'(z))         must stay above 1/2
* Starlike:        Re(z f'(z)/f(z))  must stay above 0
* CloseToConvex:   Re((1-z) f'(z))   must stay above 0 (against z/(1-z))

Each is the real part of a function analytic on |z| <= rho (for Starlike
while f/z has no zero there), so its minimum lies on |z| = rho.  Samples at
m points of that circle, each arc's lesser one less the arc's dip and the
series error, bound it from below (Holds); a sample at or below bound - 1e-9
is Violated; m doubles up to 2^20, where a check still open is Inconclusive.
Starlike certifies Re(f' conj(f/z)), of the sign of Re(z f'/f), and shows
f/z zero-free by its winding number on the circle (argument principle).

Each arc's dip bound B >= |g''| starts as the global M_2, but the series
peak at z = 1 near |z| = 1; once a pass is undecided and its next would
exceed the N terms, B is lowered per arc from S(w) = T(w) (1-w)^(-k), T the
k-th differences of c (summation by parts; Zygmund, Trigonometric Series, ch. I).
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .params import ConfigurationError, DegeneratePointError, ParamSet, count
from .series import CoefficientSeq, Family, SequenceBase, cached_prefix, prefix_arrays, truncated_coeffs

DEFAULT_TOLERANCE = 1e-9
_SERIES_TAIL_TOL = 1e-12
_COEFF_CAP = 200_000  # most series terms, rounded up to a block end by truncated_coeffs
# Rounding of one fold + FFT evaluation, relative to sum |c_n| rho^(n-1)
_ROUNDING = 1e-13
_MAX_POINTS = 2**20  # most circle points; a check undecided there is Inconclusive
_WEIGHTS: dict = {}  # rho -> (n-1, (n-1)^2, rho^(n-1)) at n = 1..2^k, for the last 4 radii


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
    n_angles, at most _MAX_POINTS.  n_radii shapes only the interior lattice
    r_i e^{i theta_j} (radii sine-spaced toward the boundary, the n_angles
    angles uniform on [0, 2pi)) of dump_grid_csv and of the Starlike zero
    witness."""

    n_radii: int = 64
    n_angles: int = 256
    max_radius: float = 0.995

    def __post_init__(self):
        count("n_radii", self.n_radii, 1)
        if count("n_angles", self.n_angles, 4) > _MAX_POINTS:
            raise ConfigurationError(f"n_angles must be at most {_MAX_POINTS}, got {self.n_angles}")
        if (isinstance(self.max_radius, bool) or not isinstance(self.max_radius, numbers.Real)
                or not 0.0 < self.max_radius < 1.0):
            raise ConfigurationError(
                f"max_radius must be a real number in (0,1), got {self.max_radius!r}")

    def radii(self) -> np.ndarray:
        i = np.arange(1, self.n_radii + 1)
        return self.max_radius * np.sin(0.5 * math.pi * i / self.n_radii)

    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_angles) / self.n_angles


@dataclass
class DiskReport:
    functional: Functional
    status: DiskStatus
    min_value: float    # least sample of the functional, at argmin
    bound: float
    argmin: complex
    grid: DiskGrid
    terms: int          # coefficients a_1..a_N of the check's one series cut
    tail_bound: float   # that cut's tail majorant, by its rule (see _series)
    m: int              # circle points of the deciding pass
    discretisation_bound: float  # B (pi/m)^2 / 2 of the arc setting lower_bound, B <= global M_2
    lower_bound: float  # least certified sample minus both error terms (Starlike: rows scaled by 2^-e)
    winding: Optional[int]  # Starlike: discrete winding number of f/z on the circle

    @property
    def holds(self) -> bool:
        return self.status is DiskStatus.HOLDS


def as_sequence(family: Union[SequenceBase, Family, str], p: Optional[ParamSet] = None) -> SequenceBase:
    if isinstance(family, SequenceBase) and p is not None:
        raise ConfigurationError("a coefficient sequence carries its own parameters; got p too")
    return family if isinstance(family, SequenceBase) else CoefficientSeq(family, p)


def _turn(num, den: int):
    """e^(2 pi i num/den), num reduced modulo den in integers first."""
    return np.exp(2j * math.pi * (np.asarray(num) % den) / den)


def _fold_eval(coeffs: np.ndarray, radii, m: int) -> np.ndarray:
    """sum_n c_n z^(n-1) for each row c of coeffs (real, shape (S, N)) at
    z = rad e^(2 pi i k/m), k < m, for each radius: shape (S, len(radii), m).
    With C[q, k] = c_(qm+k+1) (zero-padded) the terms folded modulo m are
    (rad^(mq) @ C) rad^k: one real matmul, then one m-point FFT.  The matmul
    reads a strided real view, so numpy runs its own loop, not OpenBLAS,
    which stalled in fresh processes and rounds differently."""
    rows_n, n = coeffs.shape
    c = np.zeros((rows_n, -(-n // m), m))  # zero-padded to whole rows of m
    c.reshape(rows_n, -1)[:, :n] = coeffs
    rad = np.asarray(radii, dtype=float)[:, None]
    folded = (rad ** (m * np.arange(c.shape[1]))).astype(complex).real @ c
    del c  # before the FFT's complex copy of folded and its output
    folded *= rad ** np.arange(m)
    out = np.fft.ifft(folded, axis=-1)
    out *= m
    return out


def _series(functional: Functional, seq: SequenceBase, rho: float):
    """Rows c_n of the series sum c_n z^(n-1) the functional is built from,
    all from one cut of a_n, by the rule for n a_n but in RatioHalfPlane:
    f/z (a_n) and f' (n a_n) for Starlike, (1-z) f' (n a_n - (n-1) a_(n-1))
    for CloseToConvex, else one of f/z, f' (a view).  Starlike's rows and
    tails are scaled exactly by 2^-e, e = round(log2 max |a_n|) (0 if that
    is 0 or not finite), so Re(f' conj(f/z)) neither overflows nor
    underflows with the scale of f.  Returns (rows, the tail bound of each
    row at |z| = rho, (terms, tail majorant) of the cut)."""
    ratio = functional is Functional.RATIO_HALFPLANE
    a, tail = truncated_coeffs(seq, rho, _SERIES_TAIL_TOL, _COEFF_CAP, not ratio)
    n, tails = len(a), [tail]
    c = a if ratio else prefix_arrays(n)[0] * a
    if functional is Functional.STARLIKE:
        top = float(np.abs(a).max())
        e = round(math.log2(top)) if 0.0 < top < math.inf else 0
        rows = np.ldexp(np.stack([a, c]), -e)
        tails = [math.ldexp(t, -e) for t in (a[-1] * rho**n / (1.0 - rho), tail)]
    elif functional is Functional.CLOSE_TO_CONVEX:  # c_1, c_2 - c_1, ..., -c_N as np.diff forms them
        rows, tails = np.empty((1, n + 1)), [(1.0 + rho) * tail]
        rows[0, 0], rows[0, n] = c[0], 0.0 - c[-1]
        np.subtract(c[1:], c[:-1], out=rows[0, 1:n])
    else:
        rows = c[None]
    return rows, np.array(tails), (n, tail)


def _moments(rows: np.ndarray, rho: float):
    """M_j = sum_n |c_n| rho^(n-1) (n-1)^j of each row, for j = 0, 1, 2, and
    the weights rho^(n-1) for _arc_polynomials.  n-1, (n-1)^2 (exact) and
    rho^(n-1) are read-only prefixes kept per radius (`cached_prefix`); the
    two products share one scratch array."""
    n1, n1_sq, pw = cached_prefix(_WEIGHTS, rho, rows.shape[1],
                                  lambda n: ((k := n - 1.0), k * k, rho**k), 4)
    weights = np.abs(rows)
    weights *= pw
    # elementwise sums: as a BLAS product (weights @ n) this stalled for
    # ~0.3 s in fresh processes under multi-threaded OpenBLAS
    scratch = weights * n1
    m1 = scratch.sum(axis=1)
    return (weights.sum(axis=1), m1, np.multiply(weights, n1_sq, out=scratch).sum(axis=1)), pw


def _arc_polynomials(rows: np.ndarray, pw: np.ndarray, moments, rho: float):
    """A_p (axis 1) of d^-k (A_0 + A_1/d + A_2/d^2) >= the i-th theta
    derivative (axis 2) of each row's S where |1-w| >= d, k = 1, 2, 3 (axis
    0): Leibniz on S = T (1-w)^(-k), with T^(i) <= M_i(T) and (1-w)^(-k)'s
    d^-k, k rho d^-(k+1), k rho d^-(k+1) + k(k+1) rho^2 d^-(k+2).  A computed
    k-th difference is within k 2^-53 sum_l C(k,l) |c_(n-l)|; 8e-15 (M_0,
    M_1 + 3 M_0, M_2 + 6 M_1 + 9 M_0) of c bounds 1e-15 times that in M_i."""
    s, n = rows.shape
    t = np.zeros((4, s, n + 3))
    t[0, :, :n] = rows
    for k in (1, 2, 3):
        t[k, :, 0] = t[k - 1, :, 0]
        np.subtract(t[k - 1, :, 1:], t[k - 1, :, :-1], out=t[k, :, 1:])
    w = np.abs(t[1:], out=t[1:])
    w *= np.append(pw, rho ** np.arange(n, n + 3.0))
    idx, sums = np.arange(n + 3.0), [w.sum(axis=2)]
    for _ in (1, 2):
        w *= idx
        sums.append(w.sum(axis=2))
    m0, m1, m2 = moments
    t0, t1, t2 = np.array(sums) + 8e-15 * np.array([m0, m1 + 3.0 * m0, m2 + 6.0 * m1 + 9.0 * m0])[:, None]
    kr = np.arange(1.0, 4.0)[:, None] * rho  # k rho
    return np.array([[t0, t1, t2], [0.0 * t0, kr * t0, kr * (2.0 * t1 + t0)],
                     [0.0 * t0, 0.0 * t0, kr * (kr + rho) * t0]]).transpose(2, 0, 1, 3)[..., None]


def _arc_bounds(poly, glob, rho: float, m: int):
    """B_i >= the i-th theta derivative of S, shape (orders, rows, arcs), on
    the arcs [theta_j, theta_(j+1)], j <= (m-1)/2, of m (arc m-1-j mirrors
    arc j): the least of glob (the global M_i) and, over k, _arc_polynomials
    at d = |1-w| at the arc's end nearer theta = 0, 1/d raised by 2e-15."""
    dist = np.hypot(1.0 - rho, 2.0 * math.sqrt(rho) * np.sin(math.pi / m * np.arange((m + 1) // 2 + 1)))
    inv = (1.0 + 2e-15) / np.minimum(dist[:-1], dist[1:])
    bound, scale = glob, 1.0
    for a0, a1, a2 in poly:
        scale = scale * inv
        bound = np.minimum(bound, ((a2 * inv + a1) * inv + a0) * scale)
    return bound


def _values(functional: Functional, series: np.ndarray, point=None):
    """The functional, the quantity certified for it and |f/z| (Starlike,
    else None), from its series' values.  Starlike divides by f/z, which is
    degenerate where |f/z| is below 1e-14 times its largest, whatever the
    scale of f: there both values are NaN if point is None, else it raises
    DegeneratePointError at point(i), i the flat index of the least |f/z|."""
    if functional is not Functional.STARLIKE:
        return series[0].real, series[0].real, None
    p, d = series
    p_abs = np.abs(p)
    i, small = int(np.argmin(p_abs)), 1e-14 * p_abs.max()
    if p_abs.flat[i] < small:
        if point is not None:
            raise DegeneratePointError("function vanishes at a sample point; "
                                       "starlikeness ratio undefined", point=complex(point(i)))
        zero = p_abs < small
        p, d = np.where(zero, 1.0, p), np.where(zero, math.nan, d)  # NaN / 1 raises no warning
    return (d / p).real, (d * p.conj()).real, p_abs


def _circle_pass(functional: Functional, rows: np.ndarray, rho: float, m: int):
    """Sample at z_k = rho e^(2 pi i k/m), k < m.  Returns (least value, its
    z_k (the first of equal minima), certified value and |f/z| (Starlike,
    else None) at each z_k, winding number of f/z: the sum of arg(p_(k+1)
    conj(p_k)) over all m pairs, k + 1 mod m).  The winding sum comes before
    Starlike's complex values, and no complex array outlives the pass: at
    2^20 points a Starlike pass then peaks at 80 MiB (tracemalloc), under its
    per-arc bounds' 84, and a one-row pass at 40 MiB, over their 24."""
    series = _fold_eval(rows, [rho], m)[:, 0]
    turns = 0.0
    if functional is Functional.STARLIKE:
        p = series[0]
        turns = float(np.sum(np.angle(np.roll(p, -1) * p.conj())))
    vals, cert, p_abs = _values(functional, series, lambda i: rho * _turn(i, m))
    k = int(np.argmin(vals))
    return float(vals[k]), rho * complex(_turn(k, m)), cert.copy(), p_abs, round(turns / (2.0 * math.pi))


def _lattice(functional: Functional, rows: np.ndarray, grid: DiskGrid):
    """The functional on the lattice grid.radii() x grid.angles(), NaN where
    Starlike's f/z is degenerate, and its points."""
    z = grid.radii()[:, None] * np.exp(1j * grid.angles())[None, :]
    return _values(functional, _fold_eval(rows, grid.radii(), grid.n_angles))[0], z


def _arc_certificate(starlike: bool, bounds, cert, p_abs, err, err_all: float, bound: float, m: int):
    """(lower bound, its dip term, f/z zero-free, need() the m the margins
    ask for) from bounds B_i of shape (orders, rows, arcs), or one arc for
    all arcs: each arc's lesser end sample less B (pi/m)^2/2, B >= |g''|
    there (Starlike: the product rule over f/z and f'), and |f/z| at it
    above its error plus 2 pi B_1(f/z)/m."""
    half = (m + 1) // 2

    def lesser_end(x):  # of each arc, then of it and its mirror arc
        ends = np.minimum(x, np.roll(x, -1))
        return np.minimum(ends[:half], ends[::-1][:half])

    if bounds.shape[-1] == 1:  # one bound for every arc: each lesser end is the least sample
        bounds, lesser_end = bounds[..., 0], np.ndarray.min
    if starlike:
        b0, b1, b2 = bounds
        k2 = b2[1] * b0[0] + 2.0 * b1[1] * b1[0] + b0[1] * b2[0]
    else:
        k2 = bounds[0, 0]
    ends, dips = lesser_end(cert), k2 * (math.pi / m) ** 2 / 2.0
    low = ends - dips
    j = int(low.argmin())
    zero_free = True
    if starlike:
        gap, step = lesser_end(p_abs) - err[0], 2.0 * math.pi * b1[0]
        zero_free = bool((gap > step / m).all())

    def need() -> float:  # only an undecided pass asks
        margin = ends - err_all - bound
        asked = math.pi * math.sqrt((k2 / (2.0 * margin)).max()) if (margin > 0).all() else math.inf
        if starlike:
            asked = max(asked, float((step / gap).max()) if (gap > 0).all() else math.inf)
        return asked
    return float(low.flat[j]) - err_all, float(dips.flat[j]), zero_free, need


def _next_m(m: int, need: float, cap: int) -> int:
    """The pass after m: m doubled until above need, at most cap."""
    m *= 2
    while m <= need and m < cap:
        m *= 2
    return m


def verify_functional(functional: Functional | str, family: Union[SequenceBase, Family, str],
                      p: Optional[ParamSet] = None, grid: Optional[DiskGrid] = None) -> DiskReport:
    """Decide one functional against its half-plane/positivity bound on
    |z| <= grid.max_radius from its boundary circle, sampled first at
    grid.n_angles points (see the module docstring).  A Starlike winding
    number other than 0 is Violated, reported at the least lattice value
    off the zeros of f/z."""
    functional, grid = Functional(functional), grid or DiskGrid()
    rho, bound = grid.max_radius, FUNCTIONAL_BOUND[functional]
    starlike = functional is Functional.STARLIKE
    rows, tails, (terms, tail_bound) = _series(functional, as_sequence(family, p), rho)
    moments, pw = _moments(rows, rho)
    m0 = moments[0]
    err = tails + _ROUNDING * m0  # each row's sampled sum against the series
    # Starlike: Re(D conj(P)), P = f/z and D = f' the two rows
    err_all = float(m0[1] * err[0] + m0[0] * err[1] + err[0] * err[1]) if starlike else float(err[0])
    orders = slice(None) if starlike else slice(2, None)  # Starlike needs B_0, B_1 and B_2, the others B_2
    glob = np.array(moments)[orders, :, None]

    m, poly, certs = grid.n_angles, None, None
    cap = m * 2 ** int(math.log2(_MAX_POINTS / m))
    while True:
        if certs is None:  # a new pass
            min_value, argmin, certs, p_abs, winding = _circle_pass(functional, rows, rho, m)
        bounds = glob if poly is None else _arc_bounds(poly, glob, rho, m)
        lower, disc, zero_free, need = _arc_certificate(starlike, bounds, certs, p_abs, err, err_all, bound, m)
        if min_value <= bound - DEFAULT_TOLERANCE:
            status = DiskStatus.VIOLATED
        elif zero_free and winding != 0:
            status = DiskStatus.VIOLATED
            vals, z = _lattice(functional, rows, grid)
            i = np.unravel_index(int(np.nanargmin(vals)), vals.shape)  # not at the zero of f/z
            min_value, argmin = float(vals[i]), complex(z[i])
        elif zero_free and lower > bound:
            status = DiskStatus.HOLDS
        elif poly is None and _next_m(m, need(), cap) > rows.shape[1]:
            # the next pass would exceed the N terms: bound each arc, from this pass on
            poly = _arc_polynomials(rows, pw, moments, rho)[:, :, orders]
            continue
        elif m >= cap:
            status = DiskStatus.INCONCLUSIVE
        else:
            m, certs = _next_m(m, need(), cap), None
            continue
        return DiskReport(functional, status, min_value, bound, argmin, grid, terms, tail_bound,
                          m, disc, lower, winding if starlike else None)


def dump_grid_csv(functional: Functional | str, family, p, grid, path) -> None:
    """Write the functional on the interior lattice as CSV (radius, angle,
    re_functional), re_functional nan where Starlike's f/z is degenerate."""
    functional, grid = Functional(functional), grid or DiskGrid()
    rows = _series(functional, as_sequence(family, p), grid.max_radius)[0]
    vals, _ = _lattice(functional, rows, grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "angle", "re_functional"])
        for i, rad in enumerate(grid.radii()):
            for j, th in enumerate(grid.angles()):
                writer.writerow([repr(float(rad)), repr(float(th)), repr(float(vals[i, j]))])
