"""Series core: coefficients, evaluation, classical Mathieu series."""

import decimal
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_geom.criteria import check_fejer_starlike
from mathieu_geom.params import (
    EvalDomainError,
    NumericError,
    ParameterDomainError,
    TruncationError,
)
from mathieu_geom.series import (
    _GAUSS_N,
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    _PANEL_CHUNK,
    _REACH,
    _RHO,
    ZETA3,
    CoefficientSeq,
    Family,
    FunctionSequence,
    ParamSet,
    S_integral_rule,
    _gauss_rule,
    _panel_majorant,
    eval_S,
    eval_S_integral,
    eval_series,
    log_factorial,
    truncated_coeffs,
)

MU_GRID = [0.5, 1.0, 2.0, 5.0]


def brute_force_sum(seq, z, n_terms):
    n = np.arange(1, n_terms + 1)
    return complex(np.sum(seq.values_at(n) * np.asarray(z) ** n))


class TestCoefficients:
    def test_coeff_F_normalization(self):
        assert CoefficientSeq(Family.F, ParamSet(1.0, 1.0)).value(1) == pytest.approx(1.0, abs=1e-15)

    def test_coeff_F_direct_substitution(self):
        # 2 * (r^2+1)^2 / (4+r^2)^2 at mu=1
        assert CoefficientSeq(Family.F, ParamSet(1.0, 1.0)).value(2) == pytest.approx(8.0 / 25.0, rel=1e-14)
        expected = 2.0 * 1.25**2 / 4.25**2
        assert CoefficientSeq(Family.F, ParamSet(1.0, 0.5)).value(2) == pytest.approx(expected, rel=1e-14)

    def test_coeff_Q_direct_substitution(self):
        assert CoefficientSeq(Family.Q, ParamSet(1.0, 1.0)).value(1) == pytest.approx(1.0, abs=1e-15)
        assert CoefficientSeq(Family.Q, ParamSet(1.0, 1.0)).value(2) == pytest.approx(8.0 / 25.0, rel=1e-13)
        assert CoefficientSeq(Family.Q, ParamSet(1.0, 1.0)).value(3) == pytest.approx(24.0 / 1369.0, rel=1e-13)

    def test_coeff_Q_no_overflow_past_factorial_limit(self):
        # (n!)^2 overflows floats near n=86; the log path must survive
        seq = CoefficientSeq(Family.Q, ParamSet(1.0, 1.0))
        logs = seq.log_values_at(np.array([90, 150, 500]))
        assert np.all(np.isfinite(logs))
        assert np.all(np.diff(logs) < 0)

    def test_coeff_examples(self):
        assert CoefficientSeq("SHat").value(1) == pytest.approx(1.0, abs=1e-15)
        assert CoefficientSeq("SHat").value(2) == pytest.approx(8.0 / 125.0, rel=1e-14)
        # (2*2-1)!! = 3, (2*2+1)!! = 15
        assert CoefficientSeq("DoubleFactorial").value(2) == pytest.approx(12.0 / 256.0, rel=1e-13)
        assert CoefficientSeq("DoubleFactorial").value(1) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("mu", MU_GRID)
    def test_normalization_grid(self, mu):
        for r in [0.1, 0.5, 1.0, math.sqrt(mu)]:
            p = ParamSet(mu, r)
            assert abs(CoefficientSeq(Family.F, p).value(1) - 1.0) <= 1e-15
            assert abs(CoefficientSeq(Family.Q, p).value(1) - 1.0) <= 1e-15

    @pytest.mark.parametrize("family,params", [
        (Family.F, ParamSet(2.0, 1.0)),
        (Family.Q, ParamSet(2.0, 1.0)),
        (Family.SHAT, None),
        (Family.DOUBLE_FACTORIAL, None),
    ])
    def test_log_linear_consistency(self, family, params):
        seq = CoefficientSeq(family, params)
        for n, value, log_value in seq.prefix(300):
            if value > 1e-280:
                assert math.exp(log_value) == pytest.approx(value, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ParameterDomainError):
            ParamSet(0.0, 1.0)
        with pytest.raises(ParameterDomainError):
            ParamSet(1.0, -0.5)
        with pytest.raises(ParameterDomainError):
            CoefficientSeq(Family.F, ParamSet(1.0, 1.0)).value(0)
        # True once passed as 1, and "1", a complex number or a list raised a bare TypeError
        for bad in (True, "1", 1 + 0j, [1.0], None):
            for mu, r, name in ((bad, 1.0, "mu"), (1.0, bad, "r")):
                with pytest.raises(ParameterDomainError, match=f"^{name} must be a real number"):
                    ParamSet(mu, r)
        assert ParamSet(1, np.float64(0.5)) == ParamSet(1.0, 0.5)

    @pytest.mark.parametrize("n_terms", [0, -3])
    def test_empty_prefix_is_a_domain_error(self, n_terms):
        with pytest.raises(ParameterDomainError):
            CoefficientSeq(Family.SHAT).prefix(n_terms)

    @pytest.mark.parametrize("mu,r", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
    ])
    def test_non_finite_params_are_a_domain_error(self, mu, r):
        with pytest.raises(ParameterDomainError):
            ParamSet(mu, r)

    @pytest.mark.parametrize("mu,r,name", [
        (1.0, 1.4e154, "r"), (1.0, 1e200, "r"), (1e308, 1e10, "mu"), (1e306, 1e150, "mu"),
        (1e300, 1e10, "mu"), (1e20, 1e-9, "mu"),
    ])
    def test_overflowing_params_are_a_domain_error(self, mu, r, name):
        # r^2 is infinite, or the rounding of log a_n, (mu + 1) 2^-53 (1 +
        # log(1 + r^2)), exceeds 1: at (1e300, 1e10) Q's a_2 overflowed
        with pytest.raises(ParameterDomainError, match=f"^{name} "):
            ParamSet(mu, r)

    @pytest.mark.parametrize("family", [Family.F, Family.Q])
    @pytest.mark.parametrize("mu,r", [(1.0, 1.3e154), (1e14, 1e10), (1e15, 1e-9)])
    def test_largest_params_give_finite_coefficients(self, family, mu, r):
        # finite, with log a_1 = 0 to within 1 (it is 1e-3 for F at r = 1e-9)
        vals, logs = CoefficientSeq(family, ParamSet(mu, r)).read(50)
        assert np.all(np.isfinite(vals)) and not np.any(np.isnan(logs)) and abs(logs[0]) < 1.0

    def test_prefix_keeps_negative_terms(self):
        seq = FunctionSequence(lambda n: np.where(n == 3, -0.25, 1.0 / n))
        rows = seq.prefix(4)
        assert [n for n, _, _ in rows] == [1, 2, 3, 4]
        assert [v for _, v, _ in rows] == [1.0, 0.5, -0.25, 0.25]
        assert math.isnan(rows[2][2]) and rows[1][2] == math.log(0.5)

    def test_read_calls_fn_once(self):
        # the logs are taken of the values already read, not of a second fn pass
        calls = []
        seq = FunctionSequence(lambda n: calls.append(len(n)) or 1.0 / n)
        vals, logs = seq.read(10)
        assert calls == [10]
        assert logs.tolist() == np.log(vals).tolist()
        check_fejer_starlike(seq, 10)
        assert calls == [10, 10]


class TestEvalSeries:
    def test_zero_point(self):
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        res = eval_series(seq, 0j)
        assert res.value == 0j and res.tail_bound == 0.0

    def test_matches_brute_force_F(self):
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        res = eval_series(seq, 0.5)
        assert res.value.real == pytest.approx(
            brute_force_sum(seq, 0.5, 10**4).real, abs=1e-10)
        assert res.value.imag == 0.0

    def test_matches_brute_force_Q(self):
        # Q coefficients fall below 1e-300 past n ~ 25
        seq = CoefficientSeq(Family.Q, ParamSet(1.0, 1.0))
        res = eval_series(seq, 0.9)
        assert res.value.real == pytest.approx(
            brute_force_sum(seq, 0.9, 200).real, abs=1e-12)

    def test_truncation_soundness_random_points(self):
        rng = np.random.default_rng(42)
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        for _ in range(100):
            rho = 0.99 * math.sqrt(rng.uniform())
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = rho * complex(math.cos(theta), math.sin(theta))
            res = eval_series(seq, z, tol=1e-10)
            doubled = brute_force_sum(seq, z, 2 * res.truncation_index)
            assert abs(res.value - doubled) <= res.tail_bound + 1e-15

    def test_domain_errors(self):
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        with pytest.raises(EvalDomainError):
            eval_series(seq, 1.5)
        with pytest.raises(EvalDomainError):
            eval_series(seq, complex(0.8, 0.8))

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_non_finite_point_is_a_domain_error(self, z):
        # a NaN modulus fails every comparison; it must not reach the sum
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        with pytest.raises(EvalDomainError):
            eval_series(seq, z)

    def test_never_monotone_tail_raises(self):
        # a_n = 2 + (-1)^n alternates 1, 3, 1, 3, ...: no block is ever
        # non-increasing, so no geometric majorant applies at any N
        seq = FunctionSequence(lambda n: 2.0 + (-1.0) ** n)
        with pytest.raises(TruncationError):
            eval_series(seq, 0.5)

    def test_negative_tail_is_no_bound(self):
        # a_n = -n decreases, but c_N rho^N / (1 - rho) < 0 bounds nothing:
        # the cut would give -7210 with tail_bound -1934 for -0.99/0.01^2 = -9900
        with pytest.raises(TruncationError):
            eval_series(FunctionSequence(lambda n: -n), 0.99)

    def test_term_cap_is_the_first_block_end_past_N_MAX(self):
        # blocks of 256, 512, ..., 16384, 16384, ...: 10^6 is no block end,
        # and the last block is read whole, up to 1,015,552
        read = []
        seq = FunctionSequence(lambda n: read.append(n.max()) or 2.0 + (-1.0) ** n)
        with pytest.raises(TruncationError):
            eval_series(seq, 0.5)
        assert max(read) == 256 * (2**6 - 1) + 61 * 16384 == 1_015_552

    def test_cut_at_block_end_with_sound_bound(self):
        # blocks of 256, 512, 1024, ...: every cut falls on a block end
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        res = eval_series(seq, 0.99, tol=1e-12)
        assert res.truncation_index in (256, 768, 1792, 3840, 7936, 16128)
        assert res.tail_bound < 1e-12
        longer = brute_force_sum(seq, 0.99, 2 * res.truncation_index)
        assert abs(res.value - longer) <= res.tail_bound + 1e-15


def _cut(seq, rho, weighted):
    try:
        return truncated_coeffs(seq, rho, 1e-12, 20_000, weighted)
    except TruncationError:
        return None


_CUT_FIXTURES = [FunctionSequence(lambda n: 1.0 / n**2), FunctionSequence(lambda n: 0.9 ** (n - 1)),
                 FunctionSequence(lambda n: np.where(n == 1, 1.0, 0.0))]
_CUT_SEQUENCES = st.one_of(
    st.builds(CoefficientSeq, st.sampled_from([Family.F, Family.Q]),
              st.builds(ParamSet, st.floats(0.05, 8.0), st.floats(0.05, 8.0))),
    st.sampled_from(_CUT_FIXTURES))


class TestTruncatedCoeffs:
    def test_returns_the_coefficients_it_read(self):
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        a, tail = truncated_coeffs(seq, 0.9, 1e-12, 20_000, index_weighted=True)
        n = np.arange(1, len(a) + 1)
        assert np.array_equal(a, seq.values_at(n))
        assert tail == len(a) * a[-1] * 0.9 ** len(a) / (1.0 - 0.9)

    @settings(max_examples=80)
    @given(seq=_CUT_SEQUENCES, rho=st.floats(0.05, 0.99))
    def test_weighted_cut_meets_the_plain_rule(self, seq, rho):
        # n a_n >= 0 non-increasing on a block, from at most the previous
        # block's last, makes a_n so too; and a_N <= N a_N
        plain, weighted = _cut(seq, rho, False), _cut(seq, rho, True)
        if weighted is None:
            return
        assert plain is not None
        (a, tail), (a0, _) = weighted, plain
        assert len(a) >= len(a0) and np.array_equal(a[:len(a0)], a0)
        assert a[-1] * rho ** len(a) / (1.0 - rho) <= tail < 1e-12


class TestClassicalMathieu:
    def test_zeta3_constant_regenerated(self):
        # sum 1/n^3 to 1e6 terms; true tail between the integral bounds
        n_max = 10**6
        n = np.arange(1, n_max + 1, dtype=float)
        partial = float(np.sum(1.0 / n**3))
        # true tail lies between the integral bounds 1/(2(N+1)^2) and
        # 1/(2N^2), which agree to ~5e-19 here
        assert ZETA3 == pytest.approx(partial + 0.5 / n_max**2, abs=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_alzer_sandwich(self, r):
        s = eval_S(r).value
        lower = 1.0 / (r * r + 1.0 / (2.0 * ZETA3))
        upper = 1.0 / (r * r + 1.0 / 6.0)
        assert lower < s < upper

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_series_integral_agreement(self, r):
        s_series = eval_S(r, tol=1e-12).value
        s_integral = eval_S_integral(r, tol=1e-10)
        assert abs(s_series - s_integral) <= 1e-8

    @staticmethod
    def mpmath_S(r):
        """S(r) = -Im psi'(1+ir) / r at 40 digits."""
        with mpmath.workdps(40):
            return -mpmath.im(mpmath.psi(1, 1 + 1j * mpmath.mpf(r))) / r

    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-15])
    def test_within_bound_of_mpmath_oracle(self, tol):
        # the bracket's half-width (c1-c0)/(2(x+c0)(x+c1)) at x = r^2 is tol at r_switch
        c0, c1 = 1.0 / 6.0, 0.5 / ZETA3
        b, k = c0 + c1, c0 * c1 - 0.5 * (c1 - c0) / tol
        r_switch = math.sqrt(0.5 * (math.sqrt(b * b - 4.0 * k) - b))
        # the bracket's rounding term, 48 u value < 48 u / r^2, must fit in tol
        # too: that moves the switch up by under 2e-7 relative at these tols
        n_terms = math.ceil((2.0 * tol) ** -0.25)
        grid = [*np.geomspace(1e-3, 1e9, 25).tolist(), r_switch * (1.0 - 1e-6),
                r_switch * (1.0 + 1e-6), n_terms - 0.5, n_terms + 0.5, 1.5e154, 1e160]
        for r in grid:
            try:
                res = eval_S(r, tol)
            except NumericError:
                # rounding alone, about 68 u S, is then above tol
                assert tol == 1e-15 and r < 3.0, r
                continue
            exact = self.mpmath_S(r)
            assert abs(res.value - exact) <= res.tail_bound <= tol, r
            if r > r_switch:
                assert res.truncation_index == 0, r
            elif tol >= 1e-12:  # rounding takes under a quarter of tol: N as stated
                assert res.truncation_index == n_terms, r
            else:
                assert res.truncation_index >= n_terms, r

    def test_tail_bound_within_default_tol(self):
        # N = max(ceil r, 841) at tol 1e-12 leaves room for the rounding term
        for r in np.geomspace(1e-3, 1e9, 400).tolist():
            res = eval_S(r, 1e-12)
            assert res.tail_bound <= 1e-12, r
            assert res.truncation_index in (0, max(math.ceil(r), 841)), r

    @pytest.mark.parametrize("r,tol", [(0.02, 1e-15), (1.0, 1e-15), (1e-3, 1e-14)])
    def test_tol_below_rounding_floor_raises(self, r, tol):
        # about 68 u S(r), S(0.02) = 2.4, S(1) = 0.6: rounding alone exceeds tol
        with pytest.raises(NumericError, match="rounding"):
            eval_S(r, tol)

    def test_term_cap_raises_without_partial(self):
        # N = (2 tol)^(-1/4) passes N_MAX = 10^6 once tol < 5e-25; at r = 10^6
        # the rounding term, about 68 u S = 7.5e-27, still fits in tol, and the
        # bracket's half-width 1.25e-25 does not
        with pytest.raises(TruncationError):
            eval_S(1e6, tol=1e-25)

    def test_S_tail_bound_is_sound(self):
        res = eval_S(1.0, tol=1e-8)
        better = eval_S(1.0, tol=1e-12)
        assert abs(res.value - better.value) <= res.tail_bound

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            eval_S(-1.0)
        with pytest.raises(ParameterDomainError, match="finite"):
            eval_S(math.inf)  # once summed to 0.0 with tail bound 0.0
        with pytest.raises(ParameterDomainError):
            eval_S_integral(0.0)


class TestSIntegral:
    """The panel rule for S(r) and its error bound."""

    @settings(max_examples=40)
    @given(log_r=st.floats(math.log(1e-3), math.log(1e3)))
    def test_within_bound_of_quad(self, log_r):
        from scipy import integrate

        r = math.exp(log_r)
        # QAWO on [0, 60]; the remainder past 60 is below 1e-22
        val, abserr = integrate.quad(lambda t: t / math.expm1(t) if t else 1.0, 0.0, 60.0,
                                     weight="sin", wvar=r, epsabs=1e-15, epsrel=1e-13)
        rule = S_integral_rule(r)
        assert abs(eval_S_integral(r) - val / r) <= rule.error_bound + abserr / r + 1e-22

    @pytest.mark.parametrize("r,start", [(1e-3, 0.0), (0.05, 0.0), (0.5, 3.0),
                                         (1.0, 0.0), (2.0, 0.5), (40.0, 0.0), (1e4, 7.0)])
    def test_majorant_bounds_integrand_on_ellipse(self, r, start):
        # sanity oracle: by the maximum principle the boundary decides
        width = min(1.0, 1.0 / r)
        theta = np.linspace(0.0, 2.0 * np.pi, 20001)
        s = 0.5 * (_RHO * np.exp(1j * theta) + np.exp(-1j * theta) / _RHO)
        t = start + 0.5 * width * (1.0 + s)
        assert np.max(np.abs(t.imag)) == pytest.approx(width)
        f = np.abs(t * np.sin(r * t) / (r * np.expm1(t)))
        radius = start + (1.0 + _REACH) * width
        assert np.max(np.abs(t)) <= radius * (1.0 + 1e-15)
        assert np.max(f) <= _panel_majorant(r, width, start, radius)

    def test_large_r_within_bound_of_series(self):
        r = 1e4
        rule = S_integral_rule(r, 1e-12)
        series = eval_S(r, 1e-14)
        tracemalloc.start()
        try:
            value = eval_S_integral(r, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(value - series.value) <= rule.error_bound + series.tail_bound
        # chunked: a few temporaries of one chunk, not the 59 MB of all nodes
        chunk_bytes = 8 * _PANEL_CHUNK * _GAUSS_N
        assert rule.nodes * 8 > 50 * chunk_bytes
        assert peak < 8 * chunk_bytes

    def test_gauss_table_regenerated(self):
        # Newton's method at 50 digits from numpy's nodes, then the weights
        # 2 (1-x^2) / (n P_(n-1)(x))^2; the table is these, correctly rounded
        def legendre(x):
            p_prev, p = decimal.Decimal(1), x
            for k in range(2, _GAUSS_N + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            return p, p_prev

        start, numpy_weights = np.polynomial.legendre.leggauss(_GAUSS_N)
        nodes, weights = [], []
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for x0 in start[_GAUSS_N // 2:].tolist():
                x = decimal.Decimal(x0)
                for _ in range(3):
                    p, p_prev = legendre(x)
                    x -= p * (x * x - 1) / (_GAUSS_N * (x * p - p_prev))
                p, p_prev = legendre(x)
                nodes.append(float(x))
                weights.append(float(2 * (1 - x * x) / (_GAUSS_N * p_prev) ** 2))
        assert tuple(nodes) == _GAUSS_NODES
        assert tuple(weights) == _GAUSS_WEIGHTS
        x, w = _gauss_rule()
        assert np.allclose(x, start, rtol=0, atol=1e-15)
        assert np.allclose(w, numpy_weights, rtol=1e-12, atol=0)

    def test_value_does_not_depend_on_tol(self):
        assert eval_S_integral(2.0, 1e-6) == eval_S_integral(2.0, 1e-13)

    @pytest.mark.parametrize("r,tol", [(2.0, 1e-15), (1e9, 1e-12)])
    def test_uncertifiable_tol_raises(self, r, tol):
        with pytest.raises(NumericError):
            eval_S_integral(r, tol)

    @pytest.mark.parametrize("r", [math.inf, math.nan, -1.0])
    def test_domain_errors(self, r):
        with pytest.raises(ParameterDomainError):
            S_integral_rule(r)
        with pytest.raises(ParameterDomainError):
            S_integral_rule(1.0, math.nan)


class TestLogFactorial:
    @pytest.mark.parametrize("x", [0, 7, 4095, 4096, 0.5, 5.0, 170.25])
    def test_scalar_matches_array_paths(self, x):
        # the integer and float arrays and the scalar path agree bitwise
        got = log_factorial(x)
        assert isinstance(got, float)
        assert got == math.lgamma(x + 1.0)
        assert log_factorial(np.array(x)) == got
        assert log_factorial(np.array([x]))[0] == got
        assert log_factorial(np.array([float(x)]))[0] == got

    def test_integer_array_equals_lgamma(self):
        n = np.arange(4096)
        assert log_factorial(n).tolist() == [math.lgamma(k + 1.0) for k in range(n.size)]

    def test_array_shape_kept(self):
        x = np.array([[0.5, 2.5], [3.5, 4.5]])
        assert log_factorial(x).shape == (2, 2)


class TestExampleSums:
    def test_diananda_sum_below_half(self):
        # sum 2n/(n^2+1)^3 < 1/2: partial to 1e4 plus integral tail
        n = np.arange(1, 10**4 + 1, dtype=float)
        partial = float(np.sum(2.0 * n / (n * n + 1.0) ** 3))
        tail = 0.5 / (10.0**8 + 1.0) ** 2  # int_N^inf 2x/(x^2+1)^3 dx
        assert partial + tail < 0.5

    def test_double_factorial_telescoping(self):
        # partial sums of 4n (2n-1)!!/[(2n+1)!!+1]^2 stay below the
        # telescoped total 2/((2*1-1)!!+1) = 1
        seq = CoefficientSeq(Family.DOUBLE_FACTORIAL)
        n = np.arange(1, 101)
        weighted = n * seq.values_at(n)
        # replace the normalized first term by the raw series term
        weighted[0] = 4.0 * 1.0 / (3.0 + 1.0) ** 2
        partials = np.cumsum(weighted)
        assert np.all(partials < 1.0)
        # tail from n >= 2 is below 3/4
        assert float(np.sum(weighted[1:])) < 0.75
