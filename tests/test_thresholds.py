"""Sufficient radii, digamma/trigamma, auxiliary convexity functions,
and the inequality ledger."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from mathieu_geom.criteria import Status
from mathieu_geom.params import (
    HypothesisError,
    NumericError,
    ParameterDomainError,
    ParamSet,
)
from mathieu_geom.thresholds import (
    INEQUALITY_CASES,
    A_of_x,
    InequalityCase,
    A_tilde_of_x,
    ThresholdKind,
    digamma,
    f_decrease_only_radius,
    g_of_x,
    g_second_derivative,
    h_diff,
    h_tilde_diff,
    hypothesis_pairs,
    phi_convexity_check,
    phi_of_x,
    threshold,
    trigamma,
    _scale,
    _unit_samples,
    verify_inequality,
)

EULER_GAMMA = 0.5772156649015329


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
        pairs = hypothesis_pairs(ThresholdKind, [1.0, 2.0, math.nan])
        assert len(pairs) == 8 * 3 - 2
        assert (ThresholdKind.Q_STARLIKE, 1.0) not in pairs
        assert (ThresholdKind.Q_STARLIKE, 2.0) in pairs
        # NaN is not below any minimum: it is kept for threshold to reject
        assert sum(math.isnan(mu) for _, mu in pairs) == 8

    def test_decrease_only_radius(self):
        assert f_decrease_only_radius(1.0) == pytest.approx(math.sqrt(3.0))
        assert f_decrease_only_radius(0.5) > threshold("F_HalfPlaneRatio", 0.5)
        with pytest.raises(HypothesisError):
            f_decrease_only_radius(0.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_decrease_only_radius_non_finite_mu(self, mu):
        with pytest.raises(HypothesisError):
            f_decrease_only_radius(mu)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
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
        p = ParamSet(mu, math.sqrt(mu))
        for n in range(1, 60):
            assert h_diff(n, p) >= -1e-15

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_h_tilde_chain_nonnegative(self, mu):
        # C_n decreasing already for r <= sqrt(mu), any mu > 0
        p = ParamSet(mu, math.sqrt(mu))
        for n in range(1, 60):
            assert h_tilde_diff(n, p) >= -1e-15

    def test_phi_fixtures(self):
        assert phi_convexity_check(ParamSet(1.0, 0.6)) is True
        assert phi_convexity_check(ParamSet(1.0, 0.7)) is False

    def test_phi_coherent_with_starlike_threshold(self):
        for mu in [0.5, 1.0, 2.0, 5.0]:
            r_star = threshold("F_Starlike", mu)
            assert phi_convexity_check(ParamSet(mu, r_star - 1e-9))
            assert phi_of_x(1.0, ParamSet(mu, r_star)) == pytest.approx(
                0.0, abs=1e-10 * max(1.0, r_star ** 4))

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            A_of_x(0.0, ParamSet(1.0, 1.0))

    @pytest.mark.parametrize("fn", [A_of_x, A_tilde_of_x, g_of_x, g_second_derivative])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
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
        assert rep.argmin_point == case.point(_scale(case, _unit_samples(case, 10**3, 0))[0])
        assert rep.argmin_point["x"] == pytest.approx(3.0, rel=1e-15)
        assert "margin NaN at 1002 of 1002 points" in rep.detail

    def test_some_nan_margins_are_inconclusive_at_the_first(self):
        case = InequalityCase(
            "some-nan", [("x", 3.0, 1e4, True)],
            lambda p: np.where(p["x"] > 100.0, math.nan, -1.0 / p["x"]))
        rep = verify_inequality(case, samples=10**3, seed=3)
        coords = _scale(case, _unit_samples(case, 10**3, 3))[:, 0]
        first = int(np.argmax(coords > 100.0))
        assert rep.status is Status.INCONCLUSIVE
        assert rep.argmin_point == {"x": float(coords[first])}
        assert f"margin NaN at {int(np.sum(coords > 100.0))} of 1002 points" in rep.detail

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
        unit = _unit_samples(case, samples, seed)
        coords = _scale(case, unit)
        min_margin = math.inf
        argmin_point = None
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
    def test_faces_land_exactly_on_the_box_ends(self, case_id):
        case = INEQUALITY_CASES[case_id]
        unit = _unit_samples(case, 1000, 3)
        coords = _scale(case, unit)
        corners = 2 ** len(case.dims)
        for k, (_, lo, hi, _) in enumerate(case.dims):
            assert set(coords[:corners, k]) == {lo, hi}
            assert np.all(coords[unit[:, k] == 0.0, k] == lo)
            assert np.all(coords[unit[:, k] == 1.0, k] == hi)
            assert np.all((coords[:, k] >= lo) & (coords[:, k] <= hi))

    @pytest.mark.parametrize("case_id", ALL_IDS)
    def test_margin_takes_one_point_of_floats(self, case_id):
        case = INEQUALITY_CASES[case_id]
        coords = _scale(case, _unit_samples(case, 1000, 5))
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

    def test_configuration_errors(self):
        from mathieu_geom.params import ConfigurationError

        with pytest.raises(ConfigurationError):
            verify_inequality("no-such-id")
        with pytest.raises(ConfigurationError):
            verify_inequality("eq-sqrt", samples=10)
