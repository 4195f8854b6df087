"""Series core: coefficients, evaluation, classical Mathieu series."""

import math

import numpy as np
import pytest

from mathieu_geom.params import (
    EvalDomainError,
    ParameterDomainError,
    TruncationError,
)
from mathieu_geom.series import (
    ZETA3,
    CoefficientSeq,
    Family,
    FunctionSequence,
    ParamSet,
    coeff_F,
    coeff_Q,
    coeff_example,
    eval_S,
    eval_S_integral,
    eval_series,
)

MU_GRID = [0.5, 1.0, 2.0, 5.0]


def brute_force_sum(seq, z, n_terms):
    n = np.arange(1, n_terms + 1)
    return complex(np.sum(seq.values_at(n) * np.asarray(z) ** n))


class TestCoefficients:
    def test_coeff_F_normalization(self):
        assert coeff_F(1, ParamSet(1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_coeff_F_direct_substitution(self):
        # 2 * (r^2+1)^2 / (4+r^2)^2 at mu=1
        assert coeff_F(2, ParamSet(1.0, 1.0)) == pytest.approx(8.0 / 25.0, rel=1e-14)
        expected = 2.0 * 1.25**2 / 4.25**2
        assert coeff_F(2, ParamSet(1.0, 0.5)) == pytest.approx(expected, rel=1e-14)

    def test_coeff_Q_direct_substitution(self):
        assert coeff_Q(1, ParamSet(1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)
        assert coeff_Q(2, ParamSet(1.0, 1.0)) == pytest.approx(8.0 / 25.0, rel=1e-13)
        assert coeff_Q(3, ParamSet(1.0, 1.0)) == pytest.approx(24.0 / 1369.0, rel=1e-13)

    def test_coeff_Q_no_overflow_past_factorial_limit(self):
        # (n!)^2 overflows floats near n=86; the log path must survive
        seq = CoefficientSeq(Family.Q, ParamSet(1.0, 1.0))
        logs = seq.log_values_at(np.array([90, 150, 500]))
        assert np.all(np.isfinite(logs))
        assert np.all(np.diff(logs) < 0)

    def test_coeff_examples(self):
        assert coeff_example("SHat", 1) == pytest.approx(1.0, abs=1e-15)
        assert coeff_example("SHat", 2) == pytest.approx(8.0 / 125.0, rel=1e-14)
        # (2*2-1)!! = 3, (2*2+1)!! = 15
        assert coeff_example("DoubleFactorial", 2) == pytest.approx(12.0 / 256.0, rel=1e-13)
        assert coeff_example("DoubleFactorial", 1) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("mu", MU_GRID)
    def test_normalization_grid(self, mu):
        for r in [0.1, 0.5, 1.0, math.sqrt(mu)]:
            p = ParamSet(mu, r)
            assert abs(coeff_F(1, p) - 1.0) <= 1e-15
            assert abs(coeff_Q(1, p) - 1.0) <= 1e-15

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
            coeff_F(0, ParamSet(1.0, 1.0))

    @pytest.mark.parametrize("n_terms", [0, -3])
    def test_empty_prefix_is_a_domain_error(self, n_terms):
        with pytest.raises(ParameterDomainError):
            CoefficientSeq(Family.SHAT).prefix(n_terms)


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

    def test_truncation_error_carries_partial(self):
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        with pytest.raises(TruncationError) as exc_info:
            eval_series(seq, 0.999, tol=1e-12, n_max=50)
        partial = exc_info.value.partial
        assert partial is not None and partial.truncation_index == 50

    def test_n_max_must_be_positive(self):
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        with pytest.raises(ParameterDomainError):
            eval_series(seq, 0.5, n_max=0)

    def test_never_monotone_tail_raises(self):
        # a_n = 2 + (-1)^n alternates 1, 3, 1, 3, ...: no block is ever
        # non-increasing, so no geometric majorant applies at any N
        seq = FunctionSequence(lambda n: 2.0 + (-1.0) ** n)
        with pytest.raises(TruncationError) as exc_info:
            eval_series(seq, 0.5, n_max=1000)
        partial = exc_info.value.partial
        assert partial.truncation_index == 1000
        assert partial.tail_bound == math.inf
        assert partial.value == pytest.approx(brute_force_sum(seq, 0.5, 1000), abs=1e-14)

    def test_cut_at_block_end_with_sound_bound(self):
        # blocks of 256, 512, 1024, ...: every cut falls on a block end
        seq = CoefficientSeq(Family.F, ParamSet(1.0, 1.0))
        res = eval_series(seq, 0.99, tol=1e-12)
        assert res.truncation_index in (256, 768, 1792, 3840, 7936, 16128)
        assert res.tail_bound < 1e-12
        longer = brute_force_sum(seq, 0.99, 2 * res.truncation_index)
        assert abs(res.value - longer) <= res.tail_bound + 1e-15


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

    def test_S_tail_bound_is_sound(self):
        res = eval_S(1.0, tol=1e-8)
        better = eval_S(1.0, tol=1e-12)
        assert abs(res.value - better.value) <= res.tail_bound

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            eval_S(-1.0)
        with pytest.raises(ParameterDomainError):
            eval_S_integral(0.0)


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
