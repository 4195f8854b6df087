"""Disk check: grid geometry, the circle certificate, functional values,
theorem fixtures."""

import csv
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathieu_geom import diskcheck, series
from mathieu_geom.diskcheck import (
    _COEFF_CAP,
    _MAX_POINTS,
    _ROUNDING,
    FUNCTIONAL_BOUND,
    DiskGrid,
    DiskStatus,
    Functional,
    _arc_bounds,
    _arc_certificate,
    _arc_polynomials,
    _circle_pass,
    _fold_eval,
    _moments,
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


def test_sequence_with_params_is_rejected(tmp_path):
    # a sequence carries its own (mu, r): a second ParamSet was once dropped
    # silently, answering for F(1, 1) where F(5, 9) was asked
    seq, p = CoefficientSeq(Family.F, ParamSet(1.0, 1.0)), ParamSet(5.0, 9.0)
    with pytest.raises(ConfigurationError):
        verify_functional(Functional.RATIO_HALFPLANE, seq, p, SMALL_GRID)
    with pytest.raises(ConfigurationError):
        dump_grid_csv(Functional.RATIO_HALFPLANE, seq, p, SMALL_GRID, tmp_path / "grid.csv")
    assert not (tmp_path / "grid.csv").exists()
    by_name = verify_functional(Functional.RATIO_HALFPLANE, Family.F, p, SMALL_GRID)
    assert by_name == verify_functional(Functional.RATIO_HALFPLANE, CoefficientSeq(Family.F, p), grid=SMALL_GRID)


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

    @pytest.mark.parametrize("sizes", [(64, 256.0), (2.5, 256), (64, "256"), (64, 3), (0, 256),
                                       (True, 256)])
    def test_sizes_must_be_integers(self, sizes):
        # a float count once passed, then failed in numpy or was rounded up
        with pytest.raises(ConfigurationError, match=r"^n_(radii|angles) must be an integer >= "):
            DiskGrid(*sizes)

    @pytest.mark.parametrize("radius", [True, "0.5", None, 0.5 + 0j])
    def test_max_radius_must_be_real(self, radius):
        # "0.5" raised a bare TypeError from the comparison
        with pytest.raises(ConfigurationError, match=r"^max_radius must be a real number "):
            DiskGrid(64, 256, radius)

    def test_numpy_integer_sizes_are_accepted(self):
        grid = DiskGrid(np.int64(8), np.int32(16), 0.9)
        assert len(grid.radii()) == 8 and len(grid.angles()) == 16

    def test_angles_capped_at_max_points(self):
        # a first pass runs at m = n_angles, so more would bypass the cap
        assert DiskGrid(64, _MAX_POINTS, 0.995).n_angles == _MAX_POINTS
        with pytest.raises(ConfigurationError):
            DiskGrid(64, 2 * _MAX_POINTS, 0.995)


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
        vals = _fold_eval(rows, grid.radii(), grid.n_angles)[0].real
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

    @pytest.mark.parametrize("s", [1e-15, 1e300, 1e200, 1e-300, 5e-324])
    def test_scaled_function_is_not_a_zero(self, s):
        # f(z) = s z has z f'/f = 1, as f(z) = z does.  An absolute 1e-14 once
        # called s = 1e-15 degenerate, and Re(f' conj(f/z)) = s^2 once
        # overflowed (1e300, 1e200) or underflowed (1e-300, 5e-324) to an
        # Inconclusive check at 2^20 points
        seq = FunctionSequence(lambda n: np.where(n == 1, s, 0.0))
        rep = verify_functional(Functional.STARLIKE, seq, grid=DiskGrid(4, 16, 0.5))
        assert rep.status is DiskStatus.HOLDS and (rep.m, rep.winding) == (16, 0)
        assert rep.min_value == pytest.approx(1.0, abs=1e-13)
        # lower_bound is in the units of the rows scaled by 2^-e, e = round(log2 s)
        unit = math.ldexp(s, -round(math.log2(s)))
        assert rep.lower_bound == pytest.approx(unit * unit, rel=1e-12)

    @settings(max_examples=20)
    @given(a2=st.sampled_from([-2.0, 0.3]), s=st.floats(1e-300, 1e300))
    @example(a2=-2.0, s=1e-300).via("the smallest scale")
    @example(a2=0.3, s=1e300).via("the largest scale")
    def test_starlike_does_not_depend_on_the_scale(self, a2, s):
        # f/z = 1 - 2z has a zero inside |z| = 0.9 (winding 1, Violated);
        # f/z = 1 + 0.3z has none (Holds)
        def check(scale):
            seq = FunctionSequence(lambda n: scale * np.where(n == 1, 1.0, np.where(n == 2, a2, 0.0)))
            return verify_functional(Functional.STARLIKE, seq, grid=DiskGrid(16, 64, 0.9))
        one, scaled = check(1.0), check(s)
        assert one.status is (DiskStatus.VIOLATED if a2 < 0 else DiskStatus.HOLDS)
        assert (scaled.status, scaled.winding) == (one.status, one.winding)
        assert scaled.min_value == pytest.approx(one.min_value, rel=1e-12)

    @pytest.mark.parametrize("family", [Family.F, Family.Q])
    def test_tiny_radius_is_not_a_zero(self, family):
        # |f| = |z| |f/z| is below 1e-14 on |z| = 1e-15, but the Starlike
        # ratio divides by f/z, which is about 1 there
        grid = DiskGrid(max_radius=1e-15)
        rep = verify_functional(Functional.STARLIKE, family, ParamSet(1.0, 0.6), grid)
        assert rep.status is DiskStatus.HOLDS and rep.winding == 0
        assert rep.min_value == pytest.approx(1.0, abs=1e-13)


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

    def test_zero_of_f_over_z_is_nan(self, tmp_path):
        # f/z = 1 - z/z0 vanishes at the lattice point z0 = 0.9 sin(pi/4)
        path, grid = tmp_path / "grid.csv", DiskGrid(64, 256, 0.9)
        z0 = grid.radii()[31]
        seq = FunctionSequence(lambda n: np.where(n == 1, 1.0, np.where(n == 2, -1.0 / z0, 0.0)))
        dump_grid_csv(Functional.STARLIKE, seq, None, grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r for r in rows if r[2] == "nan"] == [[repr(float(z0)), "0.0", "nan"]]


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

    @pytest.mark.parametrize("a2", [-2.0, -1.0 / DiskGrid(64, 256, 0.9).radii()[31]])
    def test_zero_of_f_over_z_inside_is_violated(self, a2):
        # f(z) = z + a2 z^2: f/z = 1 + a2 z vanishes at -1/a2 inside |z| < 0.9,
        # while Re(z f'/f) = Re((1 + 2 a2 z)/(1 + a2 z)) >= 1.5 on the circle;
        # the second a2 puts the zero on the lattice point 0.9 sin(pi/4),
        # where f/z is degenerate and the witness search passes it by
        seq = FunctionSequence(lambda n: np.where(n == 1, 1.0, np.where(n == 2, a2, 0.0)))
        grid = DiskGrid(64, 256, 0.9)
        rep = verify_functional(Functional.STARLIKE, seq, grid=grid)
        assert rep.status is DiskStatus.VIOLATED
        assert rep.winding == 1
        assert rep.min_value < 0.0 and abs(rep.argmin) < grid.max_radius
        z = rep.argmin
        assert rep.min_value == pytest.approx(((1 + 2 * a2 * z) / (1 + a2 * z)).real, rel=1e-8)

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
    # the block end 196352 and first below it at 212736, the first block
    # end past the cap of 200_000 terms.
    GRID = DiskGrid(2, 8, 0.9999)

    def test_last_block_is_read_whole(self):
        coeffs, tail = truncated_coeffs(_geometric(-8e-5), 0.9999, 1e-12, 200_000)
        assert len(coeffs) == 212_736 and tail < 1e-12

    def test_tail_clearing_in_the_last_block_answers(self):
        seq = _geometric(-8e-5)
        rep = verify_functional(Functional.RATIO_HALFPLANE, seq, grid=self.GRID)
        # f(z)/z = 1/(1 - q z), whose real part stays above 1/2, here by
        # 4.5e-5; the global dip bound at 2^20 points is still about 1.5, the
        # per-arc one is 2e-11 on the arc of the least sample
        q, rho = math.exp(-8e-5), self.GRID.max_radius
        assert rep.status is DiskStatus.HOLDS and rep.terms == 212_736
        assert rep.m == _MAX_POINTS and rep.discretisation_bound < 1e-10
        assert 0.5 < rep.lower_bound <= 1.0 / (1.0 + q * rho) < 0.5 + 1e-4
        z = rep.argmin
        assert rep.min_value == pytest.approx((1.0 / (1.0 - q * z)).real, rel=1e-9)
        theta = np.linspace(0.0, 2.0 * math.pi, 100_001)
        assert (1.0 / (1.0 - q * rho * np.exp(1j * theta))).real.min() >= rep.lower_bound

    def test_tail_needing_more_than_the_cap_raises(self):
        with pytest.raises(TruncationError):
            verify_functional(Functional.RATIO_HALFPLANE, _geometric(-6e-5), grid=self.GRID)

    def test_negative_tail_is_no_bound(self):
        # a_n = -6e-5 n past a_1 = 1: Re f(z)/z at z = 0.99 is 0.400, below
        # 1/2, which a negative tail majorant once turned into Holds
        seq = FunctionSequence(lambda n: np.where(n == 1, 1.0, -6e-5 * n))
        z = 0.99
        assert 1.0 - 6e-5 * z * (2.0 - z) / (1.0 - z) ** 2 == pytest.approx(0.400, abs=1e-3)
        with pytest.raises(TruncationError):
            verify_functional(Functional.RATIO_HALFPLANE, seq, grid=DiskGrid(4, 256, 0.99))


class TestSeriesBudget:
    def test_identity_needs_one_block(self):
        rep = verify_functional(Functional.RATIO_HALFPLANE, IDENTITY, grid=SMALL_GRID)
        assert rep.terms == 256
        assert rep.tail_bound == 0.0

    def test_starlike_reports_its_weighted_cut(self):
        # Starlike cuts once, by the rule for n a_n, and builds f/z and f'
        # from that one cut; the rule for a_n alone would stop a block
        # earlier, with a larger majorant
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        cp, tail_p = truncated_coeffs(seq, SMALL_GRID.max_radius, 1e-12, _COEFF_CAP)
        cd, tail_d = truncated_coeffs(seq, SMALL_GRID.max_radius, 1e-12, _COEFF_CAP,
                                      index_weighted=True)
        assert len(cd) > len(cp) and tail_p > tail_d
        assert np.array_equal(cd[:len(cp)], cp)
        rep = verify_functional(Functional.STARLIKE, seq, grid=SMALL_GRID)
        assert (rep.terms, rep.tail_bound) == (len(cd), tail_d)
        assert 0.0 < rep.tail_bound < 1e-12

    @pytest.mark.parametrize("functional", list(Functional))
    def test_every_functional_reports_its_cut(self, functional):
        seq = CoefficientSeq(Family.Q, ParamSet(2.0, 1.0))
        rep = verify_functional(functional, seq, grid=SMALL_GRID)
        weighted = functional is not Functional.RATIO_HALFPLANE
        c, tail = truncated_coeffs(seq, SMALL_GRID.max_radius, 1e-12, _COEFF_CAP,
                                   index_weighted=weighted)
        assert (rep.terms, rep.tail_bound) == (len(c), tail)

    @pytest.mark.parametrize("functional", list(Functional))
    def test_one_coefficient_read_per_check(self, functional, monkeypatch):
        # every row of a check comes from one cut: the indices read sum to
        # its terms (F(1, 1) at 0.99 cuts a_n a block before n a_n)
        reads = []
        original = CoefficientSeq.log_values_at

        def spy(self, n):
            reads.append(len(n))
            return original(self, n)

        monkeypatch.setattr(CoefficientSeq, "log_values_at", spy)
        rep = verify_functional(functional, CoefficientSeq(Family.F, ParamSet(1.0, 1.0)), grid=SMALL_GRID)
        assert rep.holds and sum(reads) == rep.terms


# The series cut, the rows and the moments as they were before the arrays
# that (mu, r) does not change were kept across checks, kept verbatim as
# oracles: each block builds its own indices and parts, each check its own
# rho^(n-1).
def _truncated_coeffs_blockwise(seq, rho, tol, n_max, index_weighted=False):
    n_done = 0
    block = 256
    chunks = []
    prev_last = math.inf
    while n_done < n_max:
        idx = np.arange(n_done + 1, n_done + block + 1)
        vals = seq.values_at(idx)
        chunks.append(vals)
        if index_weighted:
            vals = idx * vals
        n_done += block
        qualifies = bool(np.all(np.diff(vals) <= 0.0) and vals[0] <= prev_last and vals[-1] >= 0.0)
        prev_last = float(vals[-1])
        bound = prev_last * rho**n_done / (1.0 - rho) if qualifies else math.inf
        if bound < tol:
            return np.concatenate(chunks), bound
        block = min(2 * block, 16384)
    raise TruncationError(
        f"series tail below {tol} not reached within {n_done} terms at |z|={rho}")


def _rows_per_check(functional, a):
    c = a if functional is Functional.RATIO_HALFPLANE else np.arange(1, len(a) + 1) * a
    rows = [c]
    if functional is Functional.STARLIKE:  # both rows times 2^-e, e the exponent of max |a_n|
        scale = 2.0 ** -round(math.log2(np.abs(a).max()))
        rows = [a * scale, c * scale]
    elif functional is Functional.CLOSE_TO_CONVEX:
        rows = [np.diff(c, prepend=0.0, append=0.0)]
    return np.array(rows)


def _moments_per_check(rows, rho):
    n = np.arange(rows.shape[1], dtype=float)  # n - 1
    pw = rho**n
    weights = np.abs(rows)
    weights *= pw
    m0, m1 = weights.sum(axis=1), (weights * n).sum(axis=1)
    n *= n  # exact, as n**2
    return (m0, m1, (weights * n).sum(axis=1)), pw


class TestSharedPrefixes:
    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from([Family.F, Family.Q]), functional=st.sampled_from(list(Functional)),
           mu=st.floats(0.1, 10.0), r=st.floats(0.05, 10.0),
           rho=st.one_of(st.floats(0.3, 0.9999), st.sampled_from([0.995, 0.999, 0.9999])))
    @example(Family.F, Functional.CLOSE_TO_CONVEX, 0.7, 0.6, 0.9999)  # 212,736 terms
    @example(Family.F, Functional.RATIO_HALFPLANE, 0.5, 0.5, 0.9999)  # 147,200 terms
    @example(Family.F, Functional.RATIO_HALFPLANE, 0.1, 0.1, 0.9999)  # no cut within the cap
    def test_cached_arrays_give_the_oracles_bits(self, family, functional, mu, r, rho):
        seq = CoefficientSeq(family, ParamSet(mu, r))
        weighted = functional is not Functional.RATIO_HALFPLANE
        try:
            want, want_tail = _truncated_coeffs_blockwise(seq, rho, 1e-12, _COEFF_CAP, weighted)
        except TruncationError as exc:
            with pytest.raises(TruncationError, match=re.escape(str(exc))):
                truncated_coeffs(seq, rho, 1e-12, _COEFF_CAP, weighted)
            return
        a, tail = truncated_coeffs(seq, rho, 1e-12, _COEFF_CAP, weighted)
        assert a.tobytes() == want.tobytes() and repr(tail) == repr(want_tail)
        rows = _series(functional, seq, rho)[0]
        old_rows = _rows_per_check(functional, want)
        assert rows.shape == old_rows.shape and rows.tobytes() == old_rows.tobytes()
        (moments, pw), (old_moments, old_pw) = _moments(rows, rho), _moments_per_check(old_rows, rho)
        assert pw.tobytes() == old_pw.tobytes()
        assert all(got.tobytes() == old.tobytes() for got, old in zip(moments, old_moments))

    CHECKS = [(Functional.DERIV_HALFPLANE, Family.F, 1.0, 0.6), (Functional.STARLIKE, Family.Q, 3.2, 1.5),
              (Functional.CLOSE_TO_CONVEX, Family.F, 0.4, 0.25), (Functional.RATIO_HALFPLANE, Family.Q, 1.0, 1.0)]

    @pytest.mark.parametrize("functional,family,mu,r", CHECKS)
    def test_cold_caches_give_the_warm_report(self, functional, family, mu, r):
        series._PREFIXES.clear()
        diskcheck._WEIGHTS.clear()
        cold = verify_functional(functional, family, ParamSet(mu, r), DiskGrid(8, 128, 0.995))
        assert repr(verify_functional(functional, family, ParamSet(mu, r), DiskGrid(8, 128, 0.995))) == repr(cold)

    def test_caches_stay_capped_and_read_only(self):
        rep = verify_functional(Functional.CLOSE_TO_CONVEX, Family.F, ParamSet(0.7, 0.6), DiskGrid(4, 256, 0.9999))
        assert rep.holds and rep.terms > 200_000
        for rho in (0.5, 0.6, 0.7, 0.8, 0.9, 0.995):
            verify_functional(Functional.STARLIKE, Family.Q, ParamSet(1.0, 1.0), DiskGrid(4, 64, rho))
        assert len(diskcheck._WEIGHTS) <= 4 and 0.9999 not in diskcheck._WEIGHTS
        entries = (*series._PREFIXES.values(), *diskcheck._WEIGHTS.values())
        cached = [a for arrays, _, views in entries for a in (*arrays, *views)]
        assert cached and all(len(a) <= 2**13 and not a.flags.writeable for a in cached)


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
           n_radii=st.integers(1, 6),
           n_angles=st.one_of(st.integers(4, 600), st.sampled_from([8193, 16384, 32768])),
           max_radius=st.one_of(st.floats(0.01, 0.9999), st.sampled_from([0.999, 0.9999])))
    def test_grid_eval_matches_per_radius_loop(self, length, seed, decay, n_radii, n_angles,
                                               max_radius):
        coeffs = _coeffs(length, seed, decay)
        grid = DiskGrid(n_radii, n_angles, max_radius)
        got = _fold_eval(coeffs[None], grid.radii(), n_angles)[0]
        want = _grid_eval_per_radius(coeffs, grid)
        assert got.shape == want.shape == (n_radii, n_angles)
        scale = np.abs(coeffs) @ grid.radii()[None, :] ** np.arange(length)[:, None]
        assert np.all(np.abs(got - want) <= 1e-13 * scale[:, None])

    @settings(max_examples=40)
    @given(length=_LENGTHS, seed=st.integers(0, 2**32 - 1), decay=st.floats(0.0, 3.0),
           n_radii=st.integers(1, 4), log_m=st.integers(2, 15), zeros=st.booleans())
    @example(length=5000, seed=0, decay=0.0, n_radii=2, log_m=14, zeros=False).via("2^14 points")
    @example(length=4097, seed=1, decay=1.0, n_radii=1, log_m=15, zeros=True).via("2^15 points")
    def test_one_pass_has_the_bits_of_both_products(self, length, seed, decay, n_radii,
                                                    log_m, zeros):
        # the imaginary product of the real powers is exactly zero and skipped;
        # reference: both products on strided views, summed with 1j
        coeffs = np.vstack([_coeffs(length, seed, decay), -_coeffs(length, seed + 1, decay)])
        if zeros:
            coeffs[:, ::3] = -0.0
        radii, m = np.linspace(0.3, 0.9999, n_radii), 2**log_m
        c = np.zeros((2, -(-length // m), m))
        c.reshape(2, -1)[:, :length] = coeffs
        rows = radii[:, None] ** (m * np.arange(c.shape[1])) * np.exp(0j)
        want = np.fft.ifft((rows.real @ c + 1j * (rows.imag @ c)) * radii[:, None] ** np.arange(m),
                           axis=-1) * m
        got = _fold_eval(coeffs, radii, m)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("log_m", [14, 17, 20])
    def test_one_pass_matches_the_geometric_closed_form(self, log_m):
        # c_n = q^(n-1) for n <= 3m/2 + 3 folds into two rows of m; the sum
        # at w = q rad e^(2 pi i k/m) is (1 - w^N)/(1 - w), taken in mpmath
        # at a sample of points, up to the cap of _MAX_POINTS
        m = 2**log_m
        n = 3 * m // 2 + 3
        q, rad = 1.0 - 2.0 ** (2 - log_m), 1.0 - 2.0 ** (1 - log_m)
        got = _fold_eval(q ** np.arange(n, dtype=float)[None], [rad], m)
        assert got.shape == (1, 1, m)
        ks = {0, 1, m // 4, m // 2, m - 1, *np.random.default_rng(log_m).integers(0, m, 40).tolist()}
        with mpmath.workdps(40):
            w0 = mpmath.mpf(q) * mpmath.mpf(rad)
            scale = float((1 - w0**n) / (1 - w0))
            want = {k: complex((1 - w**n) / (1 - w))
                    for k in ks for w in [w0 * mpmath.expjpi(mpmath.mpf(2 * k) / m)]}
        assert max(abs(complex(got[0, 0, k]) - want[k]) for k in ks) <= 1e-14 * scale


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

    @pytest.mark.parametrize("functional,mu,r,rho,n_radii,n_angles,terms,min_value,lower_bound", [
        (Functional.STARLIKE, 0.6688602884846191, 0.4927736520208266, 0.9999, 64, 256, 212736,
         0.8291694750015367, 0.3821659036936449),
        (Functional.STARLIKE, 0.12576745605092846, 0.568231354144598, 0.999, 32, 256, 32512,
         0.6856793793115012, 0.3081652185906779),
        (Functional.STARLIKE, 0.10889803611477844, 0.5494284020421915, 0.999, 32, 256, 48896,
         0.6851068809779634, 0.30677462792351),
        (Functional.DERIV_HALFPLANE, 0.1603548098389045, 0.21162316709687495, 0.999, 32, 128, 32512,
         0.5548937617062819, 0.5548936594610896),
    ])
    def test_checks_decided_at_16384_points(self, functional, mu, r, rho, n_radii, n_angles,
                                            terms, min_value, lower_bound):
        # perfbench disk-ledger jobs whose deciding pass has 2^14 points; the
        # expected figures are those of an evaluator with FFT slices of 2^13
        # points, so the one-FFT pass keeps status, m, argmin and terms and
        # moves the values by a few ulps at most
        rep = verify_functional(functional, Family.F, ParamSet(mu, r), DiskGrid(n_radii, n_angles, rho))
        assert rep.status is DiskStatus.HOLDS
        assert (rep.m, rep.terms) == (16384, terms)
        assert rep.argmin == pytest.approx(-rho, abs=1e-12)
        assert rep.min_value == pytest.approx(min_value, rel=1e-14)
        assert rep.lower_bound == pytest.approx(lower_bound, rel=1e-14)


def _global_certificate(starlike, moments, certs, p_abs, err, err_all, bound, m):
    """The scalar rule verify_functional once ran beside the per-arc one:
    one K over the whole circle, from the global moments M_0..M_2."""
    m0, m1, m2 = moments
    if starlike:
        k2 = float(m2[1] * m0[0] + 2.0 * m1[1] * m1[0] + m0[1] * m2[0])
    else:
        k2 = float(m2[0])
    cert, p_low = float(np.min(certs)), float(np.min(p_abs)) if starlike else math.inf
    disc = k2 * (math.pi / m) ** 2 / 2.0
    lower = cert - disc - err_all
    zero_free = p_low - err[0] > 2.0 * math.pi * m1[0] / m
    margin, gap = cert - err_all - bound, p_low - err[0]
    need = max(math.pi * math.sqrt(k2 / (2.0 * margin)) if margin > 0 else math.inf,
               2.0 * math.pi * m1[0] / gap if gap > 0 else math.inf)
    return lower, disc, bool(zero_free), need


class TestArcBound:
    # Inconclusive at 2^20 points under the one global dip bound
    NEAR_KOEBE = [
        (Functional.DERIV_HALFPLANE, 0.5, 0.84367, 0.999),
        (Functional.STARLIKE, 0.5, 5.0, 0.995),
        (Functional.STARLIKE, 1.0, 10.0, 0.995),
        (Functional.STARLIKE, 1.0, 40.0, 0.995),
        (Functional.STARLIKE, 5.0, 40.0, 0.995),
    ]

    @pytest.mark.parametrize("functional,mu,r,rho", NEAR_KOEBE)
    def test_near_koebe_cases_hold(self, functional, mu, r, rho):
        p = ParamSet(mu, r)
        seq = CoefficientSeq(Family.F, p)
        rep = verify_functional(functional, seq, grid=DiskGrid(64, 256, rho))
        bound = FUNCTIONAL_BOUND[functional]
        assert rep.status is DiskStatus.HOLDS and rep.m <= 4096
        assert bound < rep.lower_bound < rep.min_value
        # dense direct sums around the least sample and around theta = 0
        h = 2.0 * math.pi / rep.m
        theta = np.concatenate([np.angle(rep.argmin) + np.linspace(-4.0 * h, 4.0 * h, 101),
                                np.linspace(-0.02, 0.02, 101)])
        z = np.append(rho * np.exp(1j * theta), rep.argmin)
        value, certified = _direct(functional, seq, z, _terms_for(p, rho))
        if functional is not Functional.STARLIKE:
            certified = value
        assert rep.min_value == pytest.approx(value[-1], rel=1e-8)
        assert value.min() > bound and certified.min() >= rep.lower_bound - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from([Family.F, Family.Q]), functional=st.sampled_from(list(Functional)),
           mu=st.floats(0.2, 3.0), r=st.floats(0.05, 3.0),
           rho=st.one_of(st.floats(0.3, 0.999), st.just(0.999)),
           m=st.integers(4, 1024), arc=st.floats(0.0, 1.0))
    def test_arc_bounds_dominate_finite_differences(self, family, functional, mu, r, rho, m, arc):
        # On [theta_j, theta_(j+1)], central differences of S at step delta
        # are averages of S' and S'' over points of the arc, so B_1 and B_2
        # bound them, and so does each k's Leibniz bound alone; the samples
        # are within 1e-13 M_0 of S.  Arc m-1-j shares the bounds of arc j.
        dense = 32
        rows, _, _ = _series(functional, CoefficientSeq(family, ParamSet(mu, r)), rho)
        moments, pw = _moments(rows, rho)
        poly = _arc_polynomials(rows, pw, moments, rho)
        bounds = _arc_bounds(poly, np.array(moments)[:, :, None], rho, m)
        circle = _fold_eval(rows, [rho], dense * m)[:, 0]
        delta, err = 2.0 * math.pi / (dense * m), 1e-13 * moments[0][:, None]
        for j in (min(int(arc * m), m - 1), 1, m - 2):  # a random arc and the two next to theta = 0
            s = circle[:, (dense * j + np.arange(dense + 1)) % (dense * m)]
            measured = (np.abs(s).max(axis=1), np.abs(s[:, 2:] - s[:, :-2]).max(axis=1) / (2.0 * delta),
                        np.abs(s[:, 2:] - 2.0 * s[:, 1:-1] + s[:, :-2]).max(axis=1) / delta**2)
            d = np.abs(1.0 - rho * np.exp(2j * math.pi * np.array([j, j + 1]) / m)).min()
            for i, (got, b) in enumerate(zip(measured, bounds)):
                slack = (1.0, 1.0 / delta, 4.0 / delta**2)[i] * err[:, 0]
                assert np.all(got <= b[:, min(j, m - 1 - j)] + slack)
                for k, (a0, a1, a2) in enumerate(poly, 1):  # each k alone, at this arc's d
                    alone = (a0[i, :, 0] + (a1[i, :, 0] + a2[i, :, 0] / d) / d) / d**k
                    assert np.all(got <= alone + slack)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from([Family.F, Family.Q]),
           functional=st.sampled_from([Functional.STARLIKE, Functional.CLOSE_TO_CONVEX]),
           mu=st.floats(0.2, 3.0), r=st.floats(0.05, 3.0), rho=st.floats(0.3, 0.995),
           m=st.sampled_from([4, 5, 128, 16384]))
    def test_global_moments_for_every_arc_give_the_global_rule(self, family, functional, mu, r, rho, m):
        # the global moments as every arc's bound reproduce the scalar rule
        # bit for bit, the m request (a function) included; the per-arc
        # bounds of the same pass certify no less and ask for no more points
        starlike = functional is Functional.STARLIKE
        rows, tails, _ = _series(functional, CoefficientSeq(family, ParamSet(mu, r)), rho)
        moments, pw = _moments(rows, rho)
        m0 = moments[0]
        err = tails + _ROUNDING * m0
        err_all = float(m0[1] * err[0] + m0[0] * err[1] + err[0] * err[1]) if starlike else float(err[0])
        _, _, certs, p_abs, _ = _circle_pass(functional, rows, rho, m)
        orders = slice(None) if starlike else slice(2, None)
        glob = np.array(moments)[orders, :, None]
        args = (certs, p_abs, err, err_all, FUNCTIONAL_BOUND[functional], m)
        *got, need = _arc_certificate(starlike, glob, *args)
        got.append(need())
        assert tuple(got) == _global_certificate(starlike, moments, *args)
        poly = _arc_polynomials(rows, pw, moments, rho)[:, :, orders]
        lower, _, zero_free, need = _arc_certificate(starlike, _arc_bounds(poly, glob, rho, m), *args)
        assert lower >= got[0] and need() <= got[3] and (zero_free or not got[2])

    def test_lower_bound_takes_each_arc_at_its_lesser_end(self):
        # m = 4 arcs: arcs 0 and 3 (which wraps round to sample 0) share the
        # dip 1, arcs 1 and 2 the dip 0; arc 0 sets the bound at its lesser
        # end, 0.5, less 1
        h = 2.0 * math.pi / 4
        bounds = np.array([[[8.0, 0.0]]]) / h**2
        cert = np.array([2.0, 0.5, 2.0, 0.6])
        assert _arc_certificate(False, bounds, cert, None, None, 0.0, 0.0, 4)[:3] == (-0.5, 1.0, True)

    def test_bounds_are_local_away_from_one(self):
        # at rho = 0.995 the global M_2 is set near z = 1; half a circle away
        # the per-arc bound is more than 100 times below it
        rows, _, _ = _series(Functional.DERIV_HALFPLANE, CoefficientSeq(Family.F, ParamSet(1.0, 1.0)), 0.995)
        moments, pw = _moments(rows, 0.995)
        b2 = _arc_bounds(_arc_polynomials(rows, pw, moments, 0.995)[:, :, 2:],
                         moments[2][None, :, None], 0.995, 256)[0, 0]
        assert b2.shape == (128,) and b2[0] == b2.max() and b2[-1] < 0.01 * b2[0]

    # (functional, mu, r, rho, n_angles) -> m, min_value, lower_bound,
    # discretisation_bound: decided at the first m, and escalated 128 -> 4096
    # within the 7936 terms of its row
    GLOBAL = [
        ((Functional.RATIO_HALFPLANE, 1.0, 1.0, 0.995, 128),
         (128, 0.7643144306927536, 0.7605068780848405, 0.0038075526077549116)),
        ((Functional.DERIV_HALFPLANE, 0.4, 0.25, 0.995, 128),
         (4096, 0.641166367485619, 0.6008064046269869, 0.040359962857680065)),
    ]

    @pytest.mark.parametrize("case,want", GLOBAL)
    def test_passes_within_the_terms_keep_the_global_bound(self, case, want):
        functional, mu, r, rho, n_angles = case
        seq = CoefficientSeq(Family.F, ParamSet(mu, r))
        rep = verify_functional(functional, seq, grid=DiskGrid(8, n_angles, rho))
        assert rep.holds and rep.terms == {128: 3840, 4096: 7936}[rep.m]
        assert (rep.m, rep.min_value, rep.lower_bound, rep.discretisation_bound) == want
        rows, _, _ = _series(functional, seq, rho)
        m2 = _moments(rows, rho)[0][2][0]
        assert rep.discretisation_bound == m2 * (math.pi / rep.m) ** 2 / 2.0
