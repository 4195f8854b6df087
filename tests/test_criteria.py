"""Sequence criteria: Ozaki, Fejer (both), Goodman, kernel identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_geom.criteria import (
    CRITERIA,
    Status,
    Witness,
    _chain_scan,
    check_fejer_halfplane,
    check_fejer_starlike,
    check_goodman,
    check_ozaki,
    fejer_kernel_sigma,
    ozaki_bernoulli_margin,
)
from mathieu_geom.diskcheck import DiskGrid, Functional, verify_functional
from mathieu_geom.params import (
    NormalizationError,
    ParameterDomainError,
    ParamSet,
    comparison_slack,
)
from mathieu_geom.series import CoefficientSeq, Family, FunctionSequence

INV_N = FunctionSequence(lambda n: 1.0 / n)


def seq_F(mu, r):
    return CoefficientSeq(Family.F, ParamSet(mu, r))


def seq_Q(mu, r):
    return CoefficientSeq(Family.Q, ParamSet(mu, r))


class TestOzaki:
    def test_constant_chain_is_verified(self):
        # a_n = 1/n makes (n+1) a_{n+1} identically 1: borderline
        rep = check_ozaki(INV_N)
        assert rep.status is Status.VERIFIED
        assert abs(rep.min_margin) <= 1e-14

    def test_F_at_sqrt_mu_verified_decreasing(self):
        rep = check_ozaki(seq_F(1.0, 1.0))
        assert rep.status is Status.VERIFIED
        assert rep.detail == "decreasing branch"

    def test_F_above_sqrt_mu_falsified(self):
        # oracle scan first: n a_n actually increases at n=1 -> 2
        seq = seq_F(0.25, 1.0)
        n = np.arange(1, 11)
        t = n * seq.values_at(n)
        assert t[1] > t[0]
        rep = check_ozaki(seq)
        assert rep.status is Status.FALSIFIED
        assert rep.witness is not None and rep.witness.n <= 3
        assert rep.witness.margin < 0

    def test_increasing_branch(self):
        # (n) a_n = 2 - 1/n increases towards 2
        rep = check_ozaki(FunctionSequence(lambda n: (2.0 - 1.0 / n) / n))
        assert rep.status is Status.VERIFIED
        assert rep.detail == "increasing branch"

    def test_normalization_required(self):
        with pytest.raises(NormalizationError):
            check_ozaki(FunctionSequence(lambda n: 2.0 / n))

    def test_terms_validation(self):
        with pytest.raises(ParameterDomainError):
            check_ozaki(INV_N, 2)


class TestFejerStarlike:
    def test_inverse_n_borderline(self):
        rep = check_fejer_starlike(INV_N)
        assert rep.status is Status.VERIFIED

    def test_F_below_starlike_threshold(self):
        rep = check_fejer_starlike(seq_F(1.0, 0.6))
        assert rep.status is Status.VERIFIED

    def test_Q_mu2_within_sqrt_mu(self):
        rep = check_fejer_starlike(seq_Q(2.0, 1.4), 200)
        assert rep.status is Status.VERIFIED

    def test_monotone_in_r(self):
        # empirical: once the criterion fails for some r, it fails for
        # every larger r on the sampled grid
        for mu in [0.5, 1.0, 2.0]:
            verdicts = [check_fejer_starlike(seq_F(mu, r)).ok
                        for r in np.linspace(0.05, 3.0, 40)]
            first_fail = verdicts.index(False) if False in verdicts else len(verdicts)
            assert all(verdicts[:first_fail])
            assert not any(verdicts[first_fail:])


class TestFejerHalfPlane:
    def test_inverse_n_convex_decreasing(self):
        rep = check_fejer_halfplane(INV_N)
        assert rep.status is Status.VERIFIED

    def test_F_coefficients_at_ratio_threshold(self):
        # r = 1 = sqrt((2*1+1)/3)
        rep = check_fejer_halfplane(seq_F(1.0, 1.0))
        assert rep.status is Status.VERIFIED

    def test_Q_index_weighted(self):
        rep = check_fejer_halfplane(seq_Q(2.0, 1.0), index_weighted=True)
        assert rep.status is Status.VERIFIED

    def test_falsified_with_witness(self):
        rep = check_fejer_halfplane(seq_F(0.5, 3.0))
        assert rep.status is Status.FALSIFIED
        assert rep.witness is not None

    def test_q_large_n_underflow_handled(self):
        # beyond n ~ 25 the Q coefficients underflow to 0.0; the
        # log-domain comparison must still certify monotonicity
        rep = check_fejer_halfplane(seq_Q(2.0, 1.0), 500)
        assert rep.status is Status.VERIFIED

    def test_lemma_end_to_end(self):
        # Verified hypotheses imply Re(f(z)/z) > 1/2 on the sampled disk
        grid = DiskGrid(64, 128, 0.995)
        for seq in [INV_N, seq_F(1.0, 1.0), seq_Q(2.0, 1.0)]:
            assert check_fejer_halfplane(seq, 200).ok
            report = verify_functional(Functional.RATIO_HALFPLANE, seq, grid=grid)
            assert report.min_value > 0.5 - 1e-9


class TestGoodman:
    def test_shat_verified(self):
        rep = check_goodman(CoefficientSeq(Family.SHAT), 10**4)
        assert rep.status is Status.VERIFIED

    def test_double_factorial_verified(self):
        rep = check_goodman(CoefficientSeq(Family.DOUBLE_FACTORIAL), 50)
        assert rep.status is Status.VERIFIED
        assert rep.min_margin >= 0.25  # telescoped total is below 1 - 1/4

    def test_identity_function(self):
        rep = check_goodman(FunctionSequence(lambda n: np.where(n == 1, 1.0, 0.0)))
        assert rep.status is Status.VERIFIED
        assert rep.min_margin == pytest.approx(1.0)

    def test_generic_geometric_tail(self):
        rep = check_goodman(seq_Q(1.0, 1.0), 100)
        assert rep.status is Status.VERIFIED

    def test_falsified_when_sum_exceeds_one(self):
        rep = check_goodman(FunctionSequence(lambda n: np.where(n <= 2, 1.0, 0.0)))
        assert rep.status is Status.FALSIFIED


@pytest.mark.parametrize("read", [*CRITERIA.values(), lambda c, n: c.prefix(n)],
                         ids=[*CRITERIA, "prefix"])
def test_one_coefficient_pass_per_call(read, monkeypatch):
    # each call reads its prefix once, through the one family coefficient producer
    calls = []
    original = CoefficientSeq.log_values_at

    def spy(self, n):
        calls.append(len(n))
        return original(self, n)

    monkeypatch.setattr(CoefficientSeq, "log_values_at", spy)
    read(seq_F(1.0, 0.5), 120)
    assert calls == [120]


class TestFejerKernel:
    def brute_sigma(self, n, theta):
        # compensated summation: the O(n^2) cosine sum would otherwise
        # accumulate roundoff beyond the 1e-12 comparison tolerance
        terms = [0.5 * (n + 1)]
        for j in range(1, n + 1):
            terms.append((n + 1 - j) * math.cos(j * theta))
        return math.fsum(terms)

    def test_closed_form_fixtures(self):
        assert fejer_kernel_sigma(1, math.pi) == pytest.approx(0.0, abs=1e-15)
        assert fejer_kernel_sigma(0, math.pi / 2) == pytest.approx(0.5, rel=1e-15)
        assert fejer_kernel_sigma(5, 1.0) == pytest.approx(
            self.brute_sigma(5, 1.0), abs=1e-13)

    def test_identity_500_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(0, 101))
            theta = float(rng.uniform(1e-6, 2.0 * math.pi - 1e-6))
            val = fejer_kernel_sigma(n, theta)
            assert val >= 0.0
            ref = self.brute_sigma(n, theta)
            # near theta = 0 or 2 pi the kernel grows like (n+1)^2 / 2,
            # so compare with magnitude-scaled slack
            assert abs(val - ref) <= 10.0 * comparison_slack(val, ref)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            fejer_kernel_sigma(3, 0.0)
        with pytest.raises(ParameterDomainError):
            fejer_kernel_sigma(3, 2.0 * math.pi)
        with pytest.raises(ParameterDomainError):
            fejer_kernel_sigma(-1, 1.0)


class TestSlackAndBernoulli:
    def test_slack_definition(self):
        assert comparison_slack(0.0, 0.0) == 1e-12
        assert comparison_slack(3.0, -5.0) == 5e-12

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 5.0])
    def test_bernoulli_step_nonnegative(self, mu):
        # b_n >= 0 for r <= sqrt(mu): the alternative route to the
        # decreasing chain of the close-to-convexity theorem
        for r in [0.5 * math.sqrt(mu), math.sqrt(mu)]:
            p = ParamSet(mu, r)
            for n in range(1, 101):
                assert ozaki_bernoulli_margin(n, p) >= -1e-12

    def test_bernoulli_margin_matches_direct(self):
        # cross-check the log-domain margin sign against direct b_n
        p = ParamSet(1.0, 1.0)
        for n in range(1, 11):
            direct = (n**2 * ((n + 1) ** 2 + 1.0) ** 2
                      - (n + 1) ** 2 * (n**2 + 1.0) ** 2)
            assert (ozaki_bernoulli_margin(n, p) >= 0) == (direct >= 0)


# The two per-orientation chain loops that _chain_scan replaced, kept
# verbatim as oracles.
_UNDERFLOW = 1e-280


def _chain_nonincreasing(vals, logs=None):
    min_margin = math.inf
    witness = None
    worst = 0.0
    for k in range(len(vals) - 1):
        lhs, rhs = float(vals[k]), float(vals[k + 1])
        margin = lhs - rhs
        violated = margin < -comparison_slack(lhs, rhs)
        if logs is not None and lhs < _UNDERFLOW and rhs < _UNDERFLOW:
            # both underflowed: order by log magnitude
            violated = logs[k + 1] > logs[k] + 1e-9
            margin = 0.0 if not violated else -math.exp(logs[k + 1])
        min_margin = min(min_margin, margin)
        if violated and margin < worst:
            worst = margin
            witness = Witness(k + 1, lhs, rhs)
    return min_margin, witness


def _chain_nondecreasing(vals, logs=None):
    min_margin = math.inf
    witness = None
    worst = 0.0
    for k in range(len(vals) - 1):
        lhs, rhs = float(vals[k + 1]), float(vals[k])
        margin = lhs - rhs
        violated = margin < -comparison_slack(lhs, rhs)
        if logs is not None and lhs < _UNDERFLOW and rhs < _UNDERFLOW:
            violated = logs[k] > logs[k + 1] + 1e-9
            margin = 0.0 if not violated else -math.exp(logs[k])
        min_margin = min(min_margin, margin)
        if violated and margin < worst:
            worst = margin
            witness = Witness(k + 1, lhs, rhs)
    return min_margin, witness


# Few distinct values so that ties are common, values below the underflow
# threshold (subnormals and 0 too), inf (whose margins are NaN) and logs
# that exp() underflows (< -745).
_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-13, 1.0 - 1e-13, 2.0, 1e-290, 1e-300, math.inf]),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 1e-279, allow_subnormal=True),
)
_LOGS = st.one_of(
    st.sampled_from([-800.0, -745.5, -745.0, -700.0, -644.0, 0.0]),
    st.floats(-1000.0, 10.0),
)


class TestChainScan:
    # inf - inf in the margins warns; the loops ignored those NaNs silently
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=400)
    @given(vals=st.lists(_VALUES, min_size=2, max_size=30), data=st.data(),
           with_logs=st.booleans())
    def test_matches_per_orientation_loops(self, vals, data, with_logs):
        v = np.array(vals)
        logs = None
        if with_logs:
            logs = np.array(data.draw(st.lists(_LOGS, min_size=len(v), max_size=len(v))))
        dec_logs = () if logs is None else (logs[:-1], logs[1:])
        inc_logs = () if logs is None else (logs[1:], logs[:-1])
        # repr: exact floats, and 0.0 is told apart from -0.0
        assert repr(_chain_scan(v[:-1], v[1:], *dec_logs)) == repr(_chain_nonincreasing(v, logs))
        assert repr(_chain_scan(v[1:], v[:-1], *inc_logs)) == repr(_chain_nondecreasing(v, logs))

    def test_underflowed_log_margin_gives_no_witness(self):
        # both sides underflowed and the chain is broken in the logs, but
        # -exp(-800) is -0.0: the margin records it, no witness is named
        v = np.array([0.0, 0.0])
        margin, witness = _chain_scan(v[:-1], v[1:], np.array([-900.0]), np.array([-800.0]))
        assert witness is None and repr(margin) == "-0.0"

    def test_first_of_equal_worst_violations(self):
        v = np.array([1.0, 2.0, 1.0, 2.0])
        margin, witness = _chain_scan(v[:-1], v[1:])
        assert margin == -1.0 and witness == Witness(1, 1.0, 2.0)
