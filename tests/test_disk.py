"""Disk sampling: grid geometry, functional values, theorem fixtures."""

import csv
import math

import numpy as np
import pytest

from mathieu_geom.diskcheck import (
    _COEFF_CAP,
    DiskGrid,
    DiskStatus,
    Functional,
    dump_grid_csv,
    verify_close_to_convex,
    verify_deriv_halfplane,
    verify_functional,
    verify_ratio_halfplane,
    verify_starlike,
)
from mathieu_geom.params import (
    ConfigurationError,
    DegeneratePointError,
    ParamSet,
    TruncationError,
)
from mathieu_geom.series import CoefficientSeq, Family, FunctionSequence, truncated_coeffs

IDENTITY = FunctionSequence(lambda n: np.where(n == 1, 1.0, 0.0))
SMALL_GRID = DiskGrid(16, 64, 0.99)


class TestDiskGrid:
    def test_radii_spacing(self):
        g = DiskGrid(8, 16, 0.9)
        r = g.radii()
        assert len(r) == 8
        assert r[-1] == pytest.approx(0.9)
        assert np.all(np.diff(r) > 0)
        # sine spacing clusters points near the rim
        assert r[-1] - r[-2] < r[1] - r[0]

    def test_refinement_contains_coarse_lattice(self):
        g = DiskGrid(8, 16, 0.9)
        fine = g.refined()
        assert set(np.round(g.radii(), 14)) <= set(np.round(fine.radii(), 14))
        assert set(np.round(g.angles(), 14)) <= set(np.round(fine.angles(), 14))

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
        rep = verify_starlike(IDENTITY, grid=SMALL_GRID)
        assert rep.holds
        assert rep.min_value == pytest.approx(1.0, abs=1e-13)

    def test_close_to_convex_minimum(self):
        # Re((1-z) * 1) minimized at z = max_radius on the real axis
        rep = verify_close_to_convex(IDENTITY, grid=SMALL_GRID)
        assert rep.holds
        assert rep.min_value == pytest.approx(1.0 - SMALL_GRID.max_radius, abs=1e-13)
        assert rep.argmin == pytest.approx(SMALL_GRID.max_radius)

    def test_halfplane_functionals(self):
        assert verify_ratio_halfplane(IDENTITY, grid=SMALL_GRID).min_value == \
            pytest.approx(1.0, abs=1e-13)
        assert verify_deriv_halfplane(IDENTITY, grid=SMALL_GRID).min_value == \
            pytest.approx(1.0, abs=1e-13)


class TestSmallRadiusOracle:
    def test_F_tiny_r_brute_force(self):
        # at r = 1e-6 the F coefficients are essentially n^(-2mu-1);
        # brute-force Horner on a handful of points must agree with the
        # FFT lattice evaluation
        p = ParamSet(1.0, 1e-6)
        seq = CoefficientSeq(Family.F, p)
        grid = DiskGrid(4, 8, 0.9)
        rep = verify_ratio_halfplane(seq, grid=grid)
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
        rep = verify_deriv_halfplane(Family.F, ParamSet(1.0, 4.0), SMALL_GRID)
        assert rep.status is DiskStatus.VIOLATED
        assert rep.min_value <= 0.5 - 1e-9


class TestGridRobustness:
    def test_conjugate_symmetry(self):
        # real coefficients: values at theta and 2pi - theta coincide, so
        # the minimum over the upper half grid equals the full minimum
        from mathieu_geom.diskcheck import _functional_on_grid

        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        grid = DiskGrid(16, 64, 0.99)
        vals, _ = _functional_on_grid(Functional.RATIO_HALFPLANE, seq, grid)
        upper = vals[:, : 64 // 2 + 1]
        assert float(upper.min()) == pytest.approx(float(vals.min()), abs=1e-13)
        assert np.allclose(vals[:, 1:], vals[:, :0:-1], atol=1e-12)

    def test_refinement_never_raises_minimum(self):
        seq = CoefficientSeq(Family.Q, ParamSet(2.0, math.sqrt(2.0)))
        coarse = DiskGrid(8, 32, 0.99)
        lo = verify_starlike(seq, grid=coarse).min_value
        hi = verify_starlike(seq, grid=coarse.refined()).min_value
        assert hi <= lo + 1e-12

    def test_stability_near_boundary(self):
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        rep = verify_ratio_halfplane(seq, grid=DiskGrid(32, 64, 0.999))
        assert np.isfinite(rep.min_value)
        assert rep.holds

    def test_degenerate_point_raises(self):
        # f(z) = z - 2 z^2 vanishes at z = 1/2, a lattice point of this grid
        seq = FunctionSequence(
            lambda n: np.where(n == 1, 1.0, np.where(n == 2, -2.0, 0.0)))
        with pytest.raises(DegeneratePointError) as exc_info:
            verify_starlike(seq, grid=DiskGrid(1, 4, 0.5))
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
        rep = verify_ratio_halfplane(Family.F, ParamSet(1.0, 1.0), grid)
        assert min(vals) == pytest.approx(rep.min_value, abs=1e-13)


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
        rep = verify_ratio_halfplane(seq, grid=self.GRID)
        # f(z)/z = 1/(1 - q z), whose real part stays above 1/2
        assert rep.holds
        z = rep.argmin
        assert rep.min_value == pytest.approx((1.0 / (1.0 - math.exp(-8e-5) * z)).real, rel=1e-9)

    def test_tail_needing_more_than_the_cap_raises(self):
        with pytest.raises(TruncationError):
            verify_ratio_halfplane(_geometric(-6e-5), grid=self.GRID)
