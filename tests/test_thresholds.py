"""Sufficient radii, digamma/trigamma, auxiliary convexity functions,
and the inequality ledger."""

import functools
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from mathieu_geom.criteria import (
    Criterion,
    Status,
    check_fejer_halfplane,
    check_ozaki,
)
from mathieu_geom.params import (
    ConfigurationError,
    HypothesisError,
    NumericError,
    ParameterDomainError,
    ParamSet,
    comparison_slack,
)
from mathieu_geom.series import CoefficientSeq, Family
from mathieu_geom.thresholds import (
    INEQUALITY_CASES,
    A_of_x,
    InequalityCase,
    A_tilde_of_x,
    ThresholdKind,
    digamma,
    g_of_x,
    g_second_derivative,
    hypothesis_pairs,
    threshold,
    trigamma,
    _scale,
    _unit_blocks,
    verify_inequality,
)
from mathieu_geom import thresholds

EULER_GAMMA = 0.5772156649015329


def phi_at_1(mu, r):
    """The paper's quartic phi(x) = (2mu^2+mu) x^4 - (5mu+3) r^2 x^2 + r^4
    at x = 1."""
    return (mu + 2.0 * mu * mu) - (3.0 + 5.0 * mu) * r * r + r ** 4


def phi_oracle(mu, r):
    """phi(1) >= 0 and phi' >= 0 sampled densely on [1, 1e4], each with
    the relative slack: the convexity certificate of the F starlikeness
    comparison function."""
    x = np.concatenate([np.linspace(1.0, 10.0, 20001), np.geomspace(10.0, 1e4, 2000)])
    dphi = 4.0 * x ** 3 * (2.0 * mu * mu + mu) - 2.0 * (3.0 + 5.0 * mu) * r * r * x
    return bool(phi_at_1(mu, r) >= -1e-12 * max(1.0, r ** 4)
                and np.all(dphi >= -1e-12 * np.maximum(1.0, np.abs(dphi))))


class TestThresholdValues:
    def test_sqrt_mu_kinds(self):
        for kind in ["F_CloseToConvex", "Q_CloseToConvex", "Q_HalfPlaneRatio"]:
            assert threshold(kind, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert threshold("Q_Starlike", 4.0) == 2.0
        assert threshold("Q_HalfPlaneDeriv", 9.0) == 3.0

    def test_F_starlike_oracle(self):
        # mu=1: sqrt((8 - sqrt(52))/2), also the root of the quadratic
        # y^2 - (5mu+3) y + mu(2mu+1), y = r^2
        expected = math.sqrt((8.0 - math.sqrt(52.0)) / 2.0)
        assert threshold("F_Starlike", 1.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.628051530159756, rel=1e-12)
        y = threshold("F_Starlike", 1.0) ** 2
        assert y * y - 8.0 * y + 3.0 == pytest.approx(0.0, abs=1e-13)
        assert threshold("F_HalfPlaneDeriv", 1.0) == threshold("F_Starlike", 1.0)

    @pytest.mark.parametrize("kind", ["F_Starlike", "F_HalfPlaneDeriv"])
    def test_F_starlike_past_the_square_overflow(self, kind):
        # 17 mu^2 overflows from about 3.25e153: on log-spaced mu up to the
        # largest doubles the root stays within 4 ulps of 50 digits
        import mpmath

        for mu in np.geomspace(1e150, 1.7e308, 60):
            with mpmath.workdps(50):
                m = mpmath.mpf(float(mu))
                true = float(mpmath.sqrt((5 * m + 3 - mpmath.sqrt(17 * m * m + 26 * m + 9)) / 2))
            assert abs(threshold(kind, float(mu)) - true) <= 4 * math.ulp(true)

    def test_F_halfplane_ratio(self):
        assert threshold("F_HalfPlaneRatio", 1.0) == pytest.approx(1.0, rel=1e-15)
        assert threshold("F_HalfPlaneRatio", 4.0) == pytest.approx(
            math.sqrt(3.0), rel=1e-15)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 5.0, 20.0])
    def test_orderings(self, mu):
        # starlike radius sits strictly inside both sqrt(mu) and the
        # half-plane ratio radius
        star = threshold("F_Starlike", mu)
        assert star < math.sqrt(mu)
        assert star < threshold("F_HalfPlaneRatio", mu)
        assert threshold("F_CloseToConvex", mu) == math.sqrt(mu)

    def test_hypothesis_minimum(self):
        with pytest.raises(HypothesisError):
            threshold("Q_Starlike", 1.0)
        with pytest.raises(HypothesisError):
            threshold("Q_HalfPlaneDeriv", 1.9)
        assert threshold(ThresholdKind.Q_STARLIKE, 2.0) == math.sqrt(2.0)

    def test_invalid_mu(self):
        with pytest.raises(HypothesisError):
            threshold("F_Starlike", 0.0)
        with pytest.raises(HypothesisError):
            threshold("F_Starlike", -1.0)

    @pytest.mark.parametrize("kind", list(ThresholdKind))
    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu(self, kind, mu):
        with pytest.raises(HypothesisError):
            threshold(kind, mu)

    def test_hypothesis_pairs_skip_only_below_minimum(self):
        pairs = hypothesis_pairs(ThresholdKind, [1.0, 2.0, math.nan, -1.0, 0.0, -math.inf])
        assert len(pairs) == 8 * 6 - 2
        assert (ThresholdKind.Q_STARLIKE, 1.0) not in pairs
        assert (ThresholdKind.Q_STARLIKE, 2.0) in pairs
        # NaN and a non-positive mu are not in (0, minimum): each is kept,
        # for every kind, for threshold to reject
        assert sum(math.isnan(mu) for _, mu in pairs) == 8
        for mu in (-1.0, 0.0, -math.inf):
            assert [k for k, m in pairs if m == mu] == list(ThresholdKind)
            with pytest.raises(HypothesisError, match="mu must be > 0"):
                threshold(ThresholdKind.Q_STARLIKE, mu)

    def test_decrease_only_radius(self):
        # inside r = sqrt(1+2mu), wider than the half-plane ratio radius, the
        # F coefficients merely decrease; the radius is sufficient, not sharp
        for mu in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
            radius = math.sqrt(1.0 + 2.0 * mu)
            assert radius > threshold("F_HalfPlaneRatio", mu)
            for scale, decreasing in [(1.0 - 1e-9, True), (1.01, True), (1.5, False)]:
                a = CoefficientSeq(Family.F, ParamSet(mu, scale * radius)).values_at(
                    np.arange(1, 1001))
                ok = np.all(a[:-1] - a[1:] >= -comparison_slack(a[:-1], a[1:]))
                assert ok == decreasing, (mu, scale)


class TestDigammaTrigamma:
    def test_special_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0),
                                             abs=1e-12)
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)
        assert trigamma(0.5) == pytest.approx(math.pi ** 2 / 2.0, abs=1e-12)

    def test_harmonic_recurrence_oracle(self):
        # psi(n) = -gamma + H_{n-1}
        for n in [3, 10, 25, 100]:
            harmonic = sum(1.0 / k for k in range(1, n))
            assert digamma(float(n)) == pytest.approx(-EULER_GAMMA + harmonic,
                                                      abs=1e-12)

    def test_trigamma_recurrence_oracle(self):
        # psi'(n) = pi^2/6 - sum_{k<n} 1/k^2
        for n in [2, 5, 50]:
            partial = sum(1.0 / k**2 for k in range(1, n))
            assert trigamma(float(n)) == pytest.approx(
                math.pi ** 2 / 6.0 - partial, abs=1e-12)

    def test_scipy_cross_check(self):
        from scipy.special import polygamma, psi

        xs = np.exp(np.linspace(math.log(0.1), math.log(1e4), 200))
        for x in xs:
            assert digamma(float(x)) == pytest.approx(float(psi(x)), abs=1e-12)
            assert trigamma(float(x)) == pytest.approx(
                float(polygamma(1, x)), rel=1e-12, abs=1e-14)

    def test_psi_bounds_on_log_grid(self):
        xs = np.exp(np.linspace(math.log(1.0 + 1e-6), math.log(1e4), 1000))
        assert np.all(INEQUALITY_CASES["eq-psi-lower"].margin({"x": xs}) > 0)
        assert np.all(INEQUALITY_CASES["eq-psi-upper"].margin({"x": xs}) > 0)

    def test_trigamma_bound(self):
        xs = np.exp(np.linspace(math.log(1e-3), math.log(1e4), 500))
        assert np.all(INEQUALITY_CASES["eq-trigamma"].margin({"x": xs}) > 0)

    @pytest.mark.parametrize("fn,xs", [
        pytest.param(fn, np.exp(np.linspace(math.log(1e-6), math.log(1e4), 2001)),
                     id=fn.__name__) for fn in (digamma, trigamma)] + [
        pytest.param(functools.partial(fn, p=ParamSet(mu, math.sqrt(mu))),
                     np.linspace(0.05, 40.0, 401), id=f"{fn.__name__}-mu{mu}")
        for fn in (A_of_x, A_tilde_of_x, g_of_x, g_second_derivative) for mu in (0.5, 2.0)])
    def test_array_equals_scalar(self, fn, xs):
        got = fn(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert type(fn(float(xs[0]))) is float
        assert np.array_equal(got, [fn(float(x)) for x in xs])

    def test_scipy_cross_check_on_arrays(self):
        from scipy.special import polygamma, psi

        xs = np.exp(np.linspace(math.log(0.1), math.log(1e4), 2000))
        np.testing.assert_allclose(digamma(xs), psi(xs), rtol=0, atol=1e-12)
        np.testing.assert_allclose(trigamma(xs), polygamma(1, xs), rtol=1e-12, atol=1e-14)

    def test_mpmath_oracle(self):
        # psi within 1e-12 max(1, |psi|) (near 0 one ulp of 1/x is more than
        # 1e-12), psi' within 1e-13 relative, on [1e-6, 1e6]
        import mpmath

        xs = np.exp(np.linspace(math.log(1e-6), math.log(1e6), 400))
        with mpmath.workdps(40):
            psi = np.array([float(mpmath.psi(0, float(x))) for x in xs])
            tri = np.array([float(mpmath.psi(1, float(x))) for x in xs])
        assert np.all(np.abs(digamma(xs) - psi) <= 1e-12 * np.maximum(1.0, np.abs(psi)))
        assert np.all(np.abs(trigamma(xs) - tri) <= 1e-13 * tri)

    @pytest.mark.parametrize("x", [1e200, 1e300, sys.float_info.max])
    def test_huge_x_does_not_overflow(self, x):
        # 1/(x*x) overflowed; x + 8 rounds to x, so the leading terms remain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert digamma(x) == math.log(x) - 0.5 / x
            assert trigamma(x) == 1.0 / x + 0.5 / x / x
            assert np.array_equal(digamma(np.array([x, 2.0])), [digamma(x), digamma(2.0)])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_array_domain(self, bad):
        xs = np.array([0.5, 2.0, bad, 10.0])
        with pytest.raises(ParameterDomainError):
            digamma(xs)
        with pytest.raises(ParameterDomainError):
            trigamma(xs)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            digamma(0.0)
        with pytest.raises(ParameterDomainError):
            trigamma(-1.0)


class TestAuxiliaryFunctions:
    @pytest.mark.parametrize("mu", [2.0, 3.0, 5.0])
    def test_A_positive_on_hypothesis_region(self, mu):
        p = ParamSet(mu, math.sqrt(mu))
        for x in np.linspace(4.0, 20.0, 33):
            assert A_of_x(float(x), p) > 0.0

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_A_tilde_positive(self, mu):
        p = ParamSet(mu, math.sqrt(mu))
        for x in np.linspace(3.0, 20.0, 35):
            assert A_tilde_of_x(float(x), p) > 0.0

    def test_g_interpolates_weighted_coefficients(self):
        from mathieu_geom.series import CoefficientSeq, Family

        p = ParamSet(2.0, 1.0)
        seq = CoefficientSeq(Family.Q, p)
        for n in [1, 2, 5, 10]:
            assert g_of_x(float(n), p) == pytest.approx(n * seq.value(n), rel=1e-12)

    def test_g_second_derivative_vs_finite_difference(self):
        # Richardson-extrapolated central difference at (x, mu, r) = (5, 2, 1)
        p = ParamSet(2.0, 1.0)
        x = 5.0

        def fd(h):
            return (g_of_x(x + h, p) - 2.0 * g_of_x(x, p) + g_of_x(x - h, p)) / (h * h)

        rich = (4.0 * fd(1e-4) - fd(2e-4)) / 3.0
        analytic = g_second_derivative(x, p)
        assert analytic == pytest.approx(rich, rel=1e-6)

    def test_A_tilde_vs_finite_difference_of_C(self):
        # C(x) = g(x)/x has C'' = Gamma(x+1) (Gamma(x+1)^2+r^2)^(-mu-3)
        # (1+r^2)^(mu+1) A~(x), the prefactor g'' has with A
        p = ParamSet(2.0, 1.0)
        x = 5.0

        def fd(h):
            c = [g_of_x(t, p) / t for t in (x - h, x, x + h)]
            return (c[0] - 2.0 * c[1] + c[2]) / (h * h)

        rich = (4.0 * fd(1e-4) - fd(2e-4)) / 3.0
        log_g = math.lgamma(x + 1.0)
        pref = math.exp(log_g - (p.mu + 3.0) * math.log(math.exp(2.0 * log_g) + p.r ** 2)
                        + (p.mu + 1.0) * math.log1p(p.r ** 2))
        assert pref * A_tilde_of_x(x, p) == pytest.approx(rich, rel=1e-6)

    def test_g_second_derivative_sign_matches_A(self):
        p = ParamSet(2.0, math.sqrt(2.0))
        for x in [4.0, 8.0, 15.0]:
            assert math.copysign(1.0, g_second_derivative(x, p)) == \
                math.copysign(1.0, A_of_x(x, p))

    @pytest.mark.parametrize("mu", [2.0, 3.0])
    def test_h_chain_nonnegative(self, mu):
        # n C_n decreasing for r <= sqrt(mu), mu >= 2
        rep = check_ozaki(CoefficientSeq(Family.Q, ParamSet(mu, math.sqrt(mu))), 60)
        assert rep.ok and rep.criterion == Criterion.OZAKI_DECREASING.value

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_h_tilde_chain_nonnegative(self, mu):
        # C_n non-negative, decreasing and convex already for r <= sqrt(mu),
        # any mu > 0
        assert check_fejer_halfplane(
            CoefficientSeq(Family.Q, ParamSet(mu, math.sqrt(mu))), 60).ok

    def test_phi_fixtures(self):
        assert phi_oracle(1.0, 0.6) and 0.6 <= threshold("F_Starlike", 1.0)
        assert not phi_oracle(1.0, 0.7) and 0.7 > threshold("F_Starlike", 1.0)

    @settings(max_examples=300)
    @given(mu=st.floats(0.01, 100.0), r=st.floats(0.01, 100.0),
           near=st.sampled_from(["", "phi", "dphi"]), eps=st.floats(-1e-6, 1e-6))
    def test_phi_check_matches_dense_sample(self, mu, r, near, eps):
        # r <= r* decides the phi certificate; near puts r within 1e-6 of r*
        # (phi(1) = 0) or of where phi'(1) = 0.  Within 1e-9 of r* the two
        # may differ by the slack, so there only r <= r* => oracle holds.
        r_star = threshold("F_Starlike", mu)
        if near == "phi":
            r = r_star * (1.0 + eps)
        elif near == "dphi":
            r = math.sqrt(2.0 * (2.0 * mu * mu + mu) / (5.0 * mu + 3.0)) * (1.0 + eps)
        expected = phi_oracle(mu, r)
        if abs(r / r_star - 1.0) >= 1e-9:
            assert (r <= r_star) is expected
        elif r <= r_star:
            assert expected

    def test_phi_coherent_with_starlike_threshold(self):
        for mu in [0.5, 1.0, 2.0, 5.0]:
            r_star = threshold("F_Starlike", mu)
            assert phi_oracle(mu, r_star - 1e-9)
            assert phi_at_1(mu, r_star) == pytest.approx(
                0.0, abs=1e-10 * max(1.0, r_star ** 4))

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            A_of_x(0.0, ParamSet(1.0, 1.0))
        # x = inf used to reach inf - inf inside the bracket
        with pytest.raises(ParameterDomainError, match="finite x > 0, got inf"):
            A_of_x(math.inf, ParamSet(1.0, 1.0))

    @pytest.mark.parametrize("fn", [A_of_x, A_tilde_of_x, g_of_x, g_second_derivative])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_array_domain(self, fn, bad):
        with pytest.raises(ParameterDomainError):
            fn(np.array([0.5, 2.0, bad, 10.0]), ParamSet(1.0, 1.0))

    @pytest.mark.parametrize("fn", [A_of_x, A_tilde_of_x])
    def test_array_overflow(self, fn):
        # Gamma(201)^4 is past exp(700): one such element fails the array
        with pytest.raises(NumericError):
            fn(np.array([5.0, 200.0]), ParamSet(1.0, 1.0))

    def test_g_second_derivative_underflows_where_A_overflows(self):
        p = ParamSet(2.0, math.sqrt(2.0))
        with pytest.raises(NumericError):
            A_of_x(60.0, p)
        assert g_second_derivative(60.0, p) == 0.0


def _layout(case, samples):
    """(d, points per face, rows) of the stratified sample for samples."""
    d = len(case.dims)
    n_face = max(1, samples // (8 * d)) if d > 1 else 0
    return d, n_face, 2**d + 2 * d * n_face + samples


def _rows(d, n_face, seed, total):
    """The sampler's whole run of total rows, each block copied out of the
    generator's buffer before the next overwrites it: the corners and one
    window of _BLOCK points, then one window each, the last maybe shorter."""
    blocks = [block.copy() for block in _unit_blocks(d, n_face, seed, total)]
    sizes = [2**d + thresholds._BLOCK] + [thresholds._BLOCK] * (len(blocks) - 1)
    assert [len(block) for block in blocks[:-1]] == sizes[:-1]
    assert 0 < len(blocks[-1]) <= sizes[-1]
    got = np.concatenate(blocks)
    assert got.shape == (total, d)
    return got


def _unit_samples(case, samples, seed):
    """The whole unit sample of one verify_inequality call."""
    d, n_face, total = _layout(case, samples)
    return _rows(d, n_face, seed, total)


def _coords(case, samples, seed):
    return _scale(case, _unit_samples(case, samples, seed))


class TestInequalityLedger:
    ALL_IDS = [
        "eq-r-mu-c", "eq-psi-upper", "eq-psi-lower", "eq-trigamma",
        "eq-sqrt", "eq-19-10", "eq-total", "eq-r-mu-ineq",
        "eq-log-ineq", "eq-frac-ineq", "eq-c-mu-ineq",
    ]

    def test_registry_complete(self):
        assert sorted(INEQUALITY_CASES) == sorted(self.ALL_IDS)

    @pytest.mark.parametrize("case_id", ALL_IDS)
    def test_all_verified_at_1e4_samples(self, case_id):
        rep = verify_inequality(case_id, samples=10**4, seed=0)
        assert rep.status is Status.VERIFIED
        assert rep.min_margin > -1e-12
        assert rep.argmin_point is not None

    def test_rmuc_reduction_oracle(self):
        # eq-r-mu-c with c factored out reduces to
        # c (2mu+1)^2 >= 2 r^2 (4mu+3); tightest at r = sqrt(mu), c = 2
        rep = verify_inequality("eq-r-mu-c", samples=10**4, seed=0)
        pt = rep.argmin_point
        mu = pt["mu"]
        one_d = pt["c"] * ((2.0 * mu + 1.0) ** 2 * pt["c"]
                           - 2.0 * pt["r"] ** 2 * (4.0 * mu + 3.0))
        assert rep.min_margin == pytest.approx(one_d, rel=1e-12)
        # minimum margin 4(mu+1) -> 4 as mu -> 0 at the c = 2 face
        assert rep.min_margin == pytest.approx(4.0, abs=0.05)
        assert pt["c"] == pytest.approx(2.0, rel=1e-12)
        assert pt["t"] == pytest.approx(1.0, rel=1e-12)

    def test_19_10_minimum_at_left_endpoint(self):
        rep = verify_inequality("eq-19-10", samples=10**4, seed=0)
        assert rep.argmin_point["x"] == pytest.approx(4.0, rel=1e-12)
        expected = (math.log(5.0) - 0.2) ** 2 - 1.9
        assert rep.min_margin == pytest.approx(expected, rel=1e-12)

    def test_seed_determinism(self):
        a = verify_inequality("eq-total", samples=2000, seed=7)
        b = verify_inequality("eq-total", samples=2000, seed=7)
        assert a.min_margin == b.min_margin
        assert a.argmin_point == b.argmin_point

    def test_falsification_path(self):
        # artificial case: flip eq-frac-ineq so it genuinely fails
        bad = InequalityCase(
            "bad", [("x", 3.0, 1e4, True)], lambda p: -1.0 / (p["x"] + 1.0))
        rep = verify_inequality(bad, samples=10**3)
        assert rep.status is Status.FALSIFIED
        assert rep.min_margin < 0

    def test_all_nan_margins_are_inconclusive(self):
        # before the vectorized pass this case reported Verified with
        # min_margin inf and no argmin: `m < min_margin` is False for NaN
        case = InequalityCase("nan", [("x", 3.0, 1e4, True)], lambda p: p["x"] * math.nan)
        rep = verify_inequality(case, samples=10**3)
        assert rep.status is Status.INCONCLUSIVE
        assert math.isnan(rep.min_margin)
        assert rep.argmin_point == case.point(_coords(case, 10**3, 0)[0])
        assert rep.argmin_point["x"] == pytest.approx(3.0, rel=1e-15)
        assert "margin NaN at 1002 of 1002 points" in rep.detail

    def test_some_nan_margins_are_inconclusive_at_the_first(self):
        case = InequalityCase(
            "some-nan", [("x", 3.0, 1e4, True)],
            lambda p: np.where(p["x"] > 100.0, math.nan, -1.0 / p["x"]))
        rep = verify_inequality(case, samples=10**3, seed=3)
        coords = _coords(case, 10**3, 3)[:, 0]
        first = int(np.argmax(coords > 100.0))
        assert rep.status is Status.INCONCLUSIVE
        assert rep.argmin_point == {"x": float(coords[first])}
        assert f"margin NaN at {int(np.sum(coords > 100.0))} of 1002 points" in rep.detail

    def test_first_nan_in_the_second_block(self, monkeypatch):
        # NaN on a band of x in (0.5, 0.51), and the least margin at x = 0,
        # the first row: the first NaN wins over the earlier, smaller margin
        case = InequalityCase(
            "band-nan", [("x", 0.0, 1.0, False)],
            lambda p: np.where((p["x"] > 0.5) & (p["x"] < 0.51), math.nan, p["x"] - 2.0))
        x = _coords(case, 10**3, 11)[:, 0]
        band = (x > 0.5) & (x < 0.51)
        first = int(np.argmax(band))
        assert 3 <= first and band.sum() > 1
        # block 1 is the 2 corners and _BLOCK points: the first NaN falls in block 2
        monkeypatch.setattr(thresholds, "_BLOCK", 1 << (first - 2).bit_length() - 1)
        assert 2 + thresholds._BLOCK <= first < 2 + 2 * thresholds._BLOCK
        rep = verify_inequality(case, samples=10**3, seed=11)
        assert rep.status is Status.INCONCLUSIVE and math.isnan(rep.min_margin)
        assert rep.argmin_point == {"x": float(x[first])}
        assert f"margin NaN at {int(band.sum())} of {len(x)} points, first at" in rep.detail

    @pytest.mark.parametrize("margin", [lambda p: 1.5, lambda p: np.full_like(p["a"], 1.5)],
                             ids=["scalar", "array"])
    @pytest.mark.parametrize("block", [1, 8, 2**14])
    def test_constant_margin_keeps_the_first_corner(self, monkeypatch, margin, block):
        case = InequalityCase("flat", [("a", 2.0, 3.0, False), ("b", 5.0, 6.0, True)], margin)
        monkeypatch.setattr(thresholds, "_BLOCK", block)
        rep = verify_inequality(case, samples=10**3, seed=4)
        assert rep.status is Status.VERIFIED and rep.min_margin == 1.5
        assert rep.argmin_point == {"a": 2.0, "b": 5.0}

    def test_detail_gives_provenance(self):
        # eq-total has 4 dims: 16 corners, 8 faces of 2000 // 32 points each
        rep = verify_inequality("eq-total", samples=2000, seed=7)
        assert "Sobol seed 7: 16 corner, 496 face and 2000 interior points" in rep.detail
        assert rep.terms_checked == 16 + 496 + 2000
        assert f"min margin at {rep.argmin_point}" in rep.detail
        assert all(type(v) is float for v in rep.argmin_point.values())

    @staticmethod
    def _loop_oracle(case, samples, seed, slack=1e-12):
        # reference: the per-point loop the vectorized pass replaced
        min_margin = math.inf
        argmin_point = None
        coords = _coords(case, samples, seed)
        for row in coords:
            point = case.point(row)
            m = case.margin(point)
            if m < min_margin:
                min_margin = m
                argmin_point = point
        status = Status.VERIFIED if min_margin > -slack else Status.FALSIFIED
        return status, float(min_margin), argmin_point, len(coords)

    @pytest.mark.parametrize("case_id", ALL_IDS)
    @settings(max_examples=4)
    @given(samples=st.integers(1000, 4000), seed=st.integers(0, 2**31 - 1))
    def test_vectorized_matches_loop_oracle(self, case_id, samples, seed):
        case = INEQUALITY_CASES[case_id]
        status, min_margin, argmin_point, n = self._loop_oracle(case, samples, seed)
        rep = verify_inequality(case, samples=samples, seed=seed)
        assert rep.status is status
        assert repr(rep.min_margin) == repr(min_margin)
        assert rep.argmin_point == argmin_point
        assert rep.terms_checked == n

    @pytest.mark.parametrize("case_id", ALL_IDS)
    @pytest.mark.parametrize("block", [1, 8, 64])
    def test_any_block_size_matches_loop_oracle(self, monkeypatch, case_id, block):
        case = INEQUALITY_CASES[case_id]
        status, min_margin, argmin_point, n = self._loop_oracle(case, 1000, 5)
        whole = verify_inequality(case, samples=1000, seed=5)
        monkeypatch.setattr(thresholds, "_BLOCK", block)
        rep = verify_inequality(case, samples=1000, seed=5)
        assert rep.status is status
        assert repr(rep.min_margin) == repr(min_margin)
        assert rep.argmin_point == argmin_point
        assert rep.terms_checked == n
        assert rep == whole

    def test_memory_does_not_grow_with_samples(self):
        verify_inequality("eq-total", 10**3)
        tracemalloc.start()
        try:
            verify_inequality("eq-total", 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4e6

    @pytest.mark.parametrize("case_id", ALL_IDS)
    def test_faces_land_exactly_on_the_box_ends(self, case_id):
        case = INEQUALITY_CASES[case_id]
        unit = _unit_samples(case, 1000, 3)
        coords = _scale(case, unit.copy())
        corners = 2 ** len(case.dims)
        for k, (_, lo, hi, _) in enumerate(case.dims):
            assert set(coords[:corners, k]) == {lo, hi}
            assert np.all(coords[unit[:, k] == 0.0, k] == lo)
            assert np.all(coords[unit[:, k] == 1.0, k] == hi)
            assert np.all((coords[:, k] >= lo) & (coords[:, k] <= hi))

    @pytest.mark.parametrize("case_id", ALL_IDS)
    def test_margin_takes_one_point_of_floats(self, case_id):
        case = INEQUALITY_CASES[case_id]
        coords = _coords(case, 1000, 5)
        margins = case.margin(case.columns(coords))
        for k in range(0, len(coords), 97):
            m = case.margin(case.point(coords[k]))
            assert np.ndim(m) == 0
            assert float(m) == margins[k]

    @staticmethod
    def _list_built_samples(case, n_interior, seed):
        # reference: the sampler built row by row in a Python list
        d = len(case.dims)
        rows = [np.array(corner, dtype=float)
                for corner in itertools.product((0.0, 1.0), repeat=d)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sobol = qmc.Sobol(d, scramble=True, seed=seed)
            n_face = max(1, n_interior // (8 * d)) if d > 1 else 0
            for k in range(d):
                for bound in (0.0, 1.0):
                    if n_face:
                        pts = sobol.random(n_face)
                        pts[:, k] = bound
                        rows.extend(pts)
            rows.extend(sobol.random(n_interior))
        return np.asarray(rows)

    @pytest.mark.parametrize("case_id", ALL_IDS)
    @pytest.mark.parametrize("samples,seed", [(1000, 0), (1500, 7), (4096, 123)])
    def test_unit_samples_match_list_built_reference(self, case_id, samples, seed):
        case = INEQUALITY_CASES[case_id]
        got = _unit_samples(case, samples, seed)
        want = self._list_built_samples(case, samples, seed)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
           sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=5).filter(any))
    def test_sobol_matches_scipy(self, d, seed, sizes):
        # scipy's engine is the oracle: the same points over any sequence of
        # draws; with no faces the Sobol run starts right after the corners
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # draw sizes that are not powers of 2
            sobol = qmc.Sobol(d, scramble=True, seed=seed)
            want = np.vstack([sobol.random(n) for n in sizes])
        got = _rows(d, 0, seed, 2**d + sum(sizes))
        assert np.array_equal(got[2**d:], want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sobol_deep_in_the_run_across_windows(self, monkeypatch, d):
        # windows of 1024 points: the last 3000 points of a run to index
        # 2**22 + 1500 cross window edges and the 2**22 edge, where gray(k)
        # gains its top bit; only the blocks that hold them are kept
        k0, seed = 2**22 - 1500, 1000 + d
        monkeypatch.setattr(thresholds, "_BLOCK", 1024)
        kept, row = [], 0  # row: the run's rows before the block
        for block in _unit_blocks(d, 0, seed, 2**d + k0 + 3000):
            row += len(block)
            if row > 2**d + k0:
                kept.append(block.copy())
        got = np.concatenate(kept)[-3000:]
        want = qmc.Sobol(d, scramble=True, seed=seed).fast_forward(k0).random(3000)
        assert np.array_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
           samples=st.integers(1000, 3000), block=st.sampled_from([1, 4, 64, 1024, 2**14]))
    def test_blocks_match_the_whole_run(self, d, seed, samples, block):
        # every power-of-two block size gives the run of blocks of 2**14
        n_face = max(1, samples // (8 * d)) if d > 1 else 0
        total = 2**d + 2 * d * n_face + samples
        whole = _rows(d, n_face, seed, total)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thresholds, "_BLOCK", block)
            got = _rows(d, n_face, seed, total)
        assert np.array_equal(got, whole)

    @pytest.mark.parametrize("case_id", ALL_IDS)
    def test_sample_columns_are_contiguous(self, case_id):
        # the margins read one column per coordinate
        case = INEQUALITY_CASES[case_id]
        d, n_face, total = _layout(case, 1000)
        for unit in _unit_blocks(d, n_face, 3, total):
            for arr in (unit, _scale(case, unit)):
                assert arr.shape == (len(unit), d)
                assert all(arr[:, k].flags.c_contiguous for k in range(d))

    @staticmethod
    def _select_scale(case, unit):
        # reference: each column built whole, the box ends placed by np.select
        out = np.empty_like(unit)
        for k, (_, lo, hi, logscale) in enumerate(case.dims):
            u = unit[:, k]
            inner = (np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))) if logscale
                     else lo + u * (hi - lo))
            out[:, k] = np.select([u == 0.0, u == 1.0], [lo, hi], inner)
        return out

    @pytest.mark.parametrize("case_id", ALL_IDS)
    @settings(max_examples=25)
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1))
    def test_scale_matches_select_oracle(self, case_id, data, seed):
        case = INEQUALITY_CASES[case_id]
        d = len(case.dims)
        u = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        drawn = np.array(data.draw(st.lists(st.lists(u, min_size=d, max_size=d),
                                            min_size=1, max_size=40)))
        for unit in (drawn, np.array(drawn, order="F"), _unit_samples(case, 1000, seed)):
            want = self._select_scale(case, unit)
            got = _scale(case, unit)  # in place, after the oracle read unit
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("case_id", ["eq-sqrt", "eq-total"])
    def test_past_the_generators_range(self, case_id):
        # the fewest interior samples whose Sobol run (faces included)
        # passes 2**30 points; the error comes before any point is drawn
        d = len(INEQUALITY_CASES[case_id].dims)

        def n_sobol(samples):
            return samples + (2 * d * max(1, samples // (8 * d)) if d > 1 else 0)

        samples = int(2**30 / (1.25 if d > 1 else 1.0)) - 64
        while n_sobol(samples) <= 2**30:
            samples += 1
        assert n_sobol(samples - 1) <= 2**30 < n_sobol(samples)
        with pytest.raises(ConfigurationError, match=r"at most 2\*\*30 points"):
            verify_inequality(case_id, samples=samples)

    def test_too_many_dimensions(self):
        case = InequalityCase("5d", [(name, 1.0, 2.0, False) for name in "abcde"],
                              lambda p: p["a"])
        with pytest.raises(ConfigurationError, match="4 dimensions"):
            verify_inequality(case, samples=10**3)

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            verify_inequality("no-such-id")
        with pytest.raises(ConfigurationError):
            verify_inequality("eq-sqrt", samples=10)

    @pytest.mark.parametrize("kwargs,name", [
        ({"samples": 1e5}, "samples"), ({"samples": 999}, "samples"),
        ({"samples": "1000"}, "samples"), ({"samples": None}, "samples"),
        ({"seed": -1}, "seed"), ({"seed": 0.5}, "seed"), ({"seed": 1.0}, "seed"),
        ({"seed": True}, "seed"), ({"seed": False}, "seed"),  # a bool is an Integral
    ])
    def test_argument_errors_name_the_argument(self, monkeypatch, kwargs, name):
        # checked before any point is drawn
        monkeypatch.setattr(thresholds, "_unit_blocks", None)
        with pytest.raises(ConfigurationError, match=rf"^{name} must be an integer >= "):
            verify_inequality("eq-sqrt", **kwargs)

    def test_numpy_integer_arguments(self):
        assert (verify_inequality("eq-total", np.int64(1000), np.uint32(9))
                == verify_inequality("eq-total", 1000, 9))
