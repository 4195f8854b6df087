"""Disk check: grid geometry, the circle certificate, functional values,
theorem fixtures."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_geom.diskcheck import (
    _COEFF_CAP,
    _MAX_POINTS,
    FUNCTIONAL_BOUND,
    DiskGrid,
    DiskStatus,
    Functional,
    _fold_eval,
    _series,
    dump_grid_csv,
    verify_functional,
)
from mathieu_geom.params import (
    ConfigurationError,
    DegeneratePointError,
    ParameterDomainError,
    ParamSet,
    TruncationError,
)
from mathieu_geom.series import (
    CoefficientSeq,
    Family,
    FunctionSequence,
    eval_series,
    truncated_coeffs,
)

IDENTITY = FunctionSequence(lambda n: np.where(n == 1, 1.0, 0.0))
SMALL_GRID = DiskGrid(16, 64, 0.99)


def test_example_family_with_params_is_rejected():
    # SHat takes no (mu, r); they are not dropped silently
    with pytest.raises(ParameterDomainError):
        verify_functional(Functional.RATIO_HALFPLANE, Family.SHAT, ParamSet(1.0, 1.0), SMALL_GRID)


class TestDiskGrid:
    def test_radii_spacing(self):
        g = DiskGrid(8, 16, 0.9)
        r = g.radii()
        assert len(r) == 8
        assert r[-1] == pytest.approx(0.9)
        assert np.all(np.diff(r) > 0)
        # sine spacing clusters points near the rim
        assert r[-1] - r[-2] < r[1] - r[0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiskGrid(0, 16)
        with pytest.raises(ConfigurationError):
            DiskGrid(4, 2)
        with pytest.raises(ConfigurationError):
            DiskGrid(4, 16, 1.0)


class TestIdentityFunction:
    def test_starlike_exactly_one(self):
        # f(z) = z: z f'/f = 1 identically
        rep = verify_functional(Functional.STARLIKE, IDENTITY, grid=SMALL_GRID)
        assert rep.holds
        assert rep.min_value == pytest.approx(1.0, abs=1e-13)

    def test_close_to_convex_minimum(self):
        # Re((1-z) * 1) minimized at z = max_radius on the real axis
        rep = verify_functional(Functional.CLOSE_TO_CONVEX, IDENTITY, grid=SMALL_GRID)
        assert rep.holds
        assert rep.min_value == pytest.approx(1.0 - SMALL_GRID.max_radius, abs=1e-13)
        assert rep.argmin == pytest.approx(SMALL_GRID.max_radius)

    def test_halfplane_functionals(self):
        assert verify_functional(Functional.RATIO_HALFPLANE, IDENTITY, grid=SMALL_GRID).min_value == \
            pytest.approx(1.0, abs=1e-13)
        assert verify_functional(Functional.DERIV_HALFPLANE, IDENTITY, grid=SMALL_GRID).min_value == \
            pytest.approx(1.0, abs=1e-13)


class TestSmallRadiusOracle:
    def test_F_tiny_r_brute_force(self):
        # at r = 1e-6 the F coefficients are essentially n^(-2mu-1);
        # brute-force Horner on a handful of points must agree with the
        # FFT lattice evaluation
        p = ParamSet(1.0, 1e-6)
        seq = CoefficientSeq(Family.F, p)
        grid = DiskGrid(4, 8, 0.9)
        rep = verify_functional(Functional.RATIO_HALFPLANE, seq, grid=grid)
        n = np.arange(1, 400)
        a = seq.values_at(n)
        worst = math.inf
        for rad in grid.radii():
            for th in grid.angles():
                z = rad * complex(math.cos(th), math.sin(th))
                val = complex(np.sum(a * z ** (n - 1))).real
                worst = min(worst, val)
        assert rep.min_value == pytest.approx(worst, abs=1e-10)


class TestTheoremFixtures:
    CASES = [
        (Functional.RATIO_HALFPLANE, Family.F, 1.0, 1.0),          # r = sqrt((2mu+1)/3)
        (Functional.DERIV_HALFPLANE, Family.F, 1.0, 0.628051),     # F starlike radius
        (Functional.STARLIKE, Family.F, 1.0, 0.628051),
        (Functional.CLOSE_TO_CONVEX, Family.F, 1.0, 1.0),          # sqrt(mu)
        (Functional.RATIO_HALFPLANE, Family.Q, 2.0, math.sqrt(2.0)),
        (Functional.DERIV_HALFPLANE, Family.Q, 2.0, math.sqrt(2.0)),
        (Functional.STARLIKE, Family.Q, 2.0, math.sqrt(2.0)),
        (Functional.CLOSE_TO_CONVEX, Family.Q, 2.0, math.sqrt(2.0)),
    ]

    @pytest.mark.parametrize("functional,family,mu,r", CASES)
    def test_holds_at_sufficient_radius(self, functional, family, mu, r):
        rep = verify_functional(functional, family, ParamSet(mu, r), SMALL_GRID)
        assert rep.status is DiskStatus.HOLDS
        assert rep.min_value > rep.bound - 1e-9

    def test_violation_far_above_threshold(self):
        # F family derivative half-plane clearly fails at r = 4 sqrt(mu)
        rep = verify_functional(Functional.DERIV_HALFPLANE, Family.F, ParamSet(1.0, 4.0), SMALL_GRID)
        assert rep.status is DiskStatus.VIOLATED
        assert rep.min_value <= 0.5 - 1e-9


class TestGridRobustness:
    def test_conjugate_symmetry(self):
        # real coefficients: values at theta and 2pi - theta coincide, so
        # the minimum over the upper half grid equals the full minimum
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        grid = DiskGrid(16, 64, 0.99)
        rows, _, _ = _series(Functional.RATIO_HALFPLANE, seq, grid.max_radius)
        vals = next(_fold_eval(rows, grid.radii(), grid.n_angles))[0].real
        upper = vals[:, : 64 // 2 + 1]
        assert float(upper.min()) == pytest.approx(float(vals.min()), abs=1e-13)
        assert np.allclose(vals[:, 1:], vals[:, :0:-1], atol=1e-12)

    def test_stability_near_boundary(self):
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        rep = verify_functional(Functional.RATIO_HALFPLANE, seq, grid=DiskGrid(32, 64, 0.999))
        assert np.isfinite(rep.min_value)
        assert rep.holds

    def test_degenerate_point_raises(self):
        # f(z) = z - 2 z^2 vanishes at z = 1/2, a sample of this circle
        seq = FunctionSequence(
            lambda n: np.where(n == 1, 1.0, np.where(n == 2, -2.0, 0.0)))
        with pytest.raises(DegeneratePointError) as exc_info:
            verify_functional(Functional.STARLIKE, seq, grid=DiskGrid(1, 4, 0.5))
        assert exc_info.value.point == pytest.approx(0.5)


class TestCsvDump:
    def test_columns_and_shape(self, tmp_path):
        path = tmp_path / "grid.csv"
        grid = DiskGrid(4, 8, 0.9)
        dump_grid_csv(Functional.RATIO_HALFPLANE, Family.F, ParamSet(1.0, 1.0),
                      grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["radius", "angle", "re_functional"]
        assert len(rows) == 1 + 4 * 8
        # values parse back as floats and match the lattice minimum
        vals = [float(r[2]) for r in rows[1:]]
        rep = verify_functional(Functional.RATIO_HALFPLANE, Family.F, ParamSet(1.0, 1.0), grid)
        assert min(vals) == pytest.approx(rep.min_value, abs=1e-13)


def _direct(functional: Functional, seq, z: np.ndarray, n_terms: int):
    """The functional and, for Starlike, Re(f' conj(f/z)) at the points z, by
    np.polyval on the first n_terms coefficients."""
    n = np.arange(1, n_terms + 1)
    a = seq.values_at(n)
    p, d = np.polyval(a[::-1], z), np.polyval((n * a)[::-1], z)
    value = {Functional.RATIO_HALFPLANE: p, Functional.DERIV_HALFPLANE: d,
             Functional.STARLIKE: d / p, Functional.CLOSE_TO_CONVEX: (1.0 - z) * d}[functional]
    return value.real, (d * p.conj()).real


def _terms_for(p: ParamSet, rho: float) -> int:
    """Terms past which the tail of sum n a_n rho^(n-1) is below 1e-15 for F
    and Q: there n a_n <= (r^2 + 1)^(mu + 1)."""
    scale = (p.r**2 + 1.0) ** (p.mu + 1.0)
    return int(math.ceil(math.log(1e-15 * (1.0 - rho) / scale) / math.log(rho))) + 1


class TestCircleCertificate:
    def test_violation_between_lattice_points_is_found(self):
        # The functional dips to -6.2e-6 near z = -0.559 - 0.823i on the rim,
        # between the points of the 64 x 256 lattice, whose least value is +6.4e-6
        p = ParamSet(1.0, 3.301644683)
        rep = verify_functional(Functional.CLOSE_TO_CONVEX, Family.F, p)
        assert rep.status is DiskStatus.VIOLATED
        assert rep.min_value < -6e-6
        assert abs(rep.argmin) == pytest.approx(DiskGrid().max_radius)
        direct, _ = _direct(Functional.CLOSE_TO_CONVEX, CoefficientSeq(Family.F, p),
                            np.array([rep.argmin]), _terms_for(p, 0.995))
        assert rep.min_value == pytest.approx(direct[0], rel=1e-8)

    def test_zero_of_f_over_z_inside_is_violated(self):
        # f(z) = z - 2 z^2: f/z = 1 - 2z vanishes at 1/2 inside |z| < 0.9,
        # while Re(z f'/f) = Re((1 - 4z)/(1 - 2z)) >= 1.6 on the circle
        seq = FunctionSequence(lambda n: np.where(n == 1, 1.0, np.where(n == 2, -2.0, 0.0)))
        grid = DiskGrid(64, 256, 0.9)
        rep = verify_functional(Functional.STARLIKE, seq, grid=grid)
        assert rep.status is DiskStatus.VIOLATED
        assert rep.winding == 1
        assert rep.min_value < 0.0 and abs(rep.argmin) < grid.max_radius
        z = rep.argmin
        assert rep.min_value == pytest.approx(((1 - 4 * z) / (1 - 2 * z)).real, rel=1e-8)

    def test_holds_reports_zero_winding(self):
        rep = verify_functional(Functional.STARLIKE, Family.F, ParamSet(1.0, 0.6), SMALL_GRID)
        assert rep.holds and rep.winding == 0
        assert rep.lower_bound > 0.0 and rep.m == SMALL_GRID.n_angles
        assert verify_functional(Functional.RATIO_HALFPLANE, Family.F, ParamSet(1.0, 0.6), SMALL_GRID).winding is None

    @pytest.mark.parametrize("functional", list(Functional))
    def test_radii_only_shape_the_lattice(self, functional):
        p = ParamSet(1.0, 1.0)
        one = verify_functional(functional, Family.F, p, DiskGrid(1, 64, 0.99))
        many = verify_functional(functional, Family.F, p, DiskGrid(40, 64, 0.99))
        assert vars(one) | {"grid": None} == vars(many) | {"grid": None}

    @settings(max_examples=25)
    @given(family=st.sampled_from([Family.F, Family.Q]), functional=st.sampled_from(list(Functional)),
           mu=st.floats(0.2, 3.0), r=st.floats(0.05, 3.0), rho=st.floats(0.3, 0.995),
           seed=st.integers(0, 2**32 - 1))
    def test_holds_is_a_lower_bound(self, family, functional, mu, r, rho, seed):
        # Holds bounds the functional (Starlike: Re(f' conj(f/z))) from below
        # on the circle, so no point of a direct sum may lie under it
        p = ParamSet(mu, r)
        seq = CoefficientSeq(family, p)
        rep = verify_functional(functional, seq, grid=DiskGrid(8, 64, rho))
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, 20_000)
        z = np.append(rho * np.exp(1j * theta), rep.argmin)
        value, certified = _direct(functional, seq, z, _terms_for(p, rho))
        if functional is not Functional.STARLIKE:
            certified = value
        assert rep.min_value == pytest.approx(value[-1], rel=1e-8, abs=1e-12)
        if rep.holds:
            assert rep.lower_bound <= certified.min() + 1e-12
            assert value.min() > FUNCTIONAL_BOUND[functional]


def _geometric(log_q: float) -> FunctionSequence:
    return FunctionSequence(lambda n: np.exp(log_q * (n - 1.0)))


class TestCoefficientCap:
    # At |z| = 0.9999 the tail bound of a_n = q^(n-1) at a block end N is
    # q^(N-1) 0.9999^N / 1e-4.  With q = exp(-8e-5) it is above 1e-12 at
    # the block end 196352 and first below it at 212736, the cap.
    GRID = DiskGrid(2, 8, 0.9999)

    def test_cap_is_a_block_end(self):
        assert _COEFF_CAP == 256 * (2**6 - 1) + 12 * 16384

    def test_tail_clearing_in_the_last_block_answers(self):
        seq = _geometric(-8e-5)
        coeffs, _ = truncated_coeffs(seq, 0.9999, 1e-12, _COEFF_CAP)
        assert len(coeffs) == _COEFF_CAP
        rep = verify_functional(Functional.RATIO_HALFPLANE, seq, grid=self.GRID)
        # f(z)/z = 1/(1 - q z), whose real part stays above 1/2, here by
        # 4.5e-5; the dip bound at 2^20 points is still about 1.5
        assert rep.status is DiskStatus.INCONCLUSIVE
        assert rep.m == _MAX_POINTS and rep.discretisation_bound > 1.0
        assert 0.5 < rep.min_value < 0.5 + 1e-4
        z = rep.argmin
        assert rep.min_value == pytest.approx((1.0 / (1.0 - math.exp(-8e-5) * z)).real, rel=1e-9)

    def test_tail_needing_more_than_the_cap_raises(self):
        with pytest.raises(TruncationError):
            verify_functional(Functional.RATIO_HALFPLANE, _geometric(-6e-5), grid=self.GRID)


class TestSeriesBudget:
    def test_identity_needs_one_block(self):
        rep = verify_functional(Functional.RATIO_HALFPLANE, IDENTITY, grid=SMALL_GRID)
        assert rep.terms == 256
        assert rep.tail_bound == 0.0

    def test_starlike_reports_the_larger_of_its_two_cuts(self):
        # Starlike cuts sum a_n z^(n-1) and sum n a_n z^(n-1) separately; here
        # the longer cut is the weighted one and the larger majorant the other
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        cp, tail_p = truncated_coeffs(seq, SMALL_GRID.max_radius, 1e-12, _COEFF_CAP)
        cd, tail_d = truncated_coeffs(seq, SMALL_GRID.max_radius, 1e-12, _COEFF_CAP,
                                      index_weighted=True)
        assert len(cd) > len(cp) and tail_p > tail_d
        rep = verify_functional(Functional.STARLIKE, seq, grid=SMALL_GRID)
        assert rep.terms == len(cd)
        assert rep.tail_bound == tail_p
        assert 0.0 < rep.tail_bound < 1e-12

    @pytest.mark.parametrize("functional", list(Functional))
    def test_every_functional_reports_its_cut(self, functional):
        seq = CoefficientSeq(Family.Q, ParamSet(2.0, 1.0))
        rep = verify_functional(functional, seq, grid=SMALL_GRID)
        weighted = functional is not Functional.RATIO_HALFPLANE
        c, tail = truncated_coeffs(seq, SMALL_GRID.max_radius, 1e-12, _COEFF_CAP,
                                   index_weighted=weighted)
        if functional is Functional.STARLIKE:
            c0, tail0 = truncated_coeffs(seq, SMALL_GRID.max_radius, 1e-12, _COEFF_CAP)
            c, tail = max(c, c0, key=len), max(tail, tail0)
        assert (rep.terms, rep.tail_bound) == (len(c), tail)


# The lattice evaluator as it was before the folded matmul, kept verbatim
# as an oracle.
def _grid_eval_per_radius(coeffs: np.ndarray, grid: DiskGrid) -> np.ndarray:
    n_terms = len(coeffs)
    m = grid.n_angles
    powers = np.arange(n_terms)
    out = np.empty((grid.n_radii, m), dtype=complex)
    pad = (-n_terms) % m
    for i, rad in enumerate(grid.radii()):
        w = coeffs * rad**powers
        folded = np.pad(w, (0, pad)).reshape(-1, m).sum(axis=0)
        out[i] = np.fft.ifft(folded) * m
    return out


# Lengths from 1 to 5000, with the edges of blocks of 256 and 4096 drawn often.
_LENGTHS = st.one_of(
    st.integers(1, 5000),
    st.sampled_from([1, 2, 3, 255, 256, 257, 511, 512, 513, 4095, 4096, 4097]),
)


def _coeffs(length: int, seed: int, decay: float) -> np.ndarray:
    """Gaussian coefficients times n^-decay: flat to fast-decaying."""
    n = np.arange(1, length + 1)
    return np.random.default_rng(seed).standard_normal(length) * n**-decay


class TestEvaluatorOracles:
    @settings(max_examples=60)
    @given(length=_LENGTHS, seed=st.integers(0, 2**32 - 1), decay=st.floats(0.0, 3.0),
           n_radii=st.integers(1, 6), n_angles=st.integers(4, 600),
           max_radius=st.one_of(st.floats(0.01, 0.9999), st.sampled_from([0.999, 0.9999])))
    def test_grid_eval_matches_per_radius_loop(self, length, seed, decay, n_radii, n_angles,
                                               max_radius):
        coeffs = _coeffs(length, seed, decay)
        grid = DiskGrid(n_radii, n_angles, max_radius)
        got = next(_fold_eval(coeffs[None], grid.radii(), n_angles))[0]
        want = _grid_eval_per_radius(coeffs, grid)
        assert got.shape == want.shape == (n_radii, n_angles)
        scale = np.abs(coeffs) @ grid.radii()[None, :] ** np.arange(length)[:, None]
        assert np.all(np.abs(got - want) <= 1e-13 * scale[:, None])

    @settings(max_examples=40)
    @given(length=_LENGTHS, seed=st.integers(0, 2**32 - 1), decay=st.floats(0.0, 3.0),
           log_m=st.integers(2, 10), log_of=st.integers(1, 5),
           rho=st.one_of(st.floats(0.01, 0.9999), st.sampled_from([0.999, 0.9999])))
    def test_slices_cover_the_whole_circle(self, length, seed, decay, log_m, log_of, rho):
        # slice j of `of` holds the points j, j + of, ... of the whole circle
        coeffs = _coeffs(length, seed, decay)
        m, of = 2**log_m, 2**log_of
        whole = next(_fold_eval(coeffs[None], [rho], m * of))[0, 0]
        scale = np.abs(coeffs) @ rho ** np.arange(length)
        slices = list(_fold_eval(coeffs[None], [rho], m, of))
        assert len(slices) == of
        for j, part in enumerate(slices):
            assert part.shape == (1, 1, m)
            assert np.all(np.abs(part[0, 0] - whole[j::of]) <= 1e-13 * scale)


class TestPolishedLongSeries:
    # Violated at max_radius 0.999 with a cut of 32512 terms
    GRID = DiskGrid(32, 128, 0.999)

    @pytest.mark.parametrize("functional,r", [
        (Functional.RATIO_HALFPLANE, 4.0),
        (Functional.DERIV_HALFPLANE, 2.5),
    ])
    def test_minimum_agrees_with_direct_sum(self, functional, r):
        seq = CoefficientSeq(Family.F, ParamSet(0.3, r))
        rep = verify_functional(functional, seq, grid=self.GRID)
        assert rep.status is DiskStatus.VIOLATED
        assert rep.terms == 32512
        z = rep.argmin
        if functional is Functional.RATIO_HALFPLANE:
            direct = (eval_series(seq, z).value / z).real
        else:
            n = np.arange(1, 80_001)
            direct = np.polyval((n * seq.values_at(n))[::-1], z).real
        assert rep.min_value == pytest.approx(direct, rel=1e-8)
