"""Sequence criteria: Ozaki, Fejer (both), Goodman, kernel identity."""

import ast
import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_geom import criteria
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
)
from mathieu_geom.diskcheck import DiskGrid, Functional, verify_functional
from mathieu_geom.params import (
    NormalizationError,
    ParameterDomainError,
    ParamSet,
    comparison_slack,
)
from mathieu_geom.series import (
    CoefficientSeq,
    Family,
    FunctionSequence,
    prefix_arrays,
)

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

    def test_negative_coefficients_break_the_chain(self):
        # a = (1, -2, -1, 0, ...): 2 a_2 = -4 < 3 a_3 = -3 breaks the
        # decreasing chain and 2 a_2 < a_1 the increasing one
        a = np.array([1.0, -2.0, -1.0] + [0.0] * 10)
        rep = check_ozaki(FunctionSequence(lambda n: a[n.astype(int) - 1]), len(a))
        assert rep.status is Status.FALSIFIED
        assert rep.detail == "both branches violated"

    def test_normalization_required(self):
        with pytest.raises(NormalizationError):
            check_ozaki(FunctionSequence(lambda n: 2.0 / n))

    def test_nan_first_coefficient_is_not_normalized(self):
        # abs(nan - 1) > 1e-12 is False, which once let NaN coefficients verify
        with pytest.raises(NormalizationError):
            check_ozaki(FunctionSequence(lambda n: np.full(n.shape, np.nan)))

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

    def test_convexity_checks_every_second_difference(self):
        # the least second difference (-1.8e-12 at n = 1) is within its
        # slack, but at n = 699 a smaller one (-1.5e-12) exceeds its own
        # slack of 1.0e-12: testing only the least one missed it
        seq = FunctionSequence(lambda n: 1 - 7e-4 * (n - 1) + 9e-13 * (n == 2)
                               + 7.5e-13 * (n == 700))
        rep = check_fejer_halfplane(seq, 1000)
        assert rep.status is Status.FALSIFIED
        assert rep.witness.n == 699
        assert rep.witness.lhs == pytest.approx(1.0214, abs=1e-12)
        assert rep.witness.margin < -comparison_slack(rep.witness.lhs, rep.witness.rhs)

    def test_q_large_n_underflow_handled(self):
        # from n = 51 on the Q coefficients underflow to 0.0; equal or
        # subnormal neighbours meet each chain within the slack, so
        # monotonicity is still certified
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
        # a FunctionSequence has no tail majorant: zeros up to N bound nothing past it
        rep = check_goodman(FunctionSequence(lambda n: np.where(n == 1, 1.0, 0.0)))
        assert rep.status is Status.INCONCLUSIVE
        assert rep.min_margin == pytest.approx(1.0)

    def test_spike_past_the_prefix_is_inconclusive(self):
        # n |a_n| is 0 on 2..200 and 2.5 at n = 250: the sum is 2.5, not below 1
        spike = FunctionSequence(lambda n: np.where(n == 1, 1.0, np.where(n == 250, 0.01, 0.0)))
        rep = check_goodman(spike, 200)
        assert rep.status is Status.INCONCLUSIVE
        assert rep.detail == "no rigorous tail majorant for this prefix"

    def test_generic_geometric_tail(self):
        rep = check_goodman(seq_Q(1.0, 1.0), 100)
        assert rep.status is Status.VERIFIED

    def test_underflowed_Q_tail_is_a_positive_bound(self):
        # C_n underflows to 0 long before n = 200; the ratio rule still
        # bounds the tail, rounded up to the least positive double
        rep = check_goodman(seq_Q(1.0, 1.0), 200)
        assert rep.status is Status.VERIFIED
        assert rep.detail == f"tail bound: ratio ({math.ulp(0.0):.3e})"

    def test_F_has_no_tail_majorant(self):
        rep = check_goodman(seq_F(3.0, 1.0), 200)
        assert rep.status is Status.INCONCLUSIVE and rep.min_margin > 0.8

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(0.1, 10.0), r=st.floats(0.05, 100.0), big_n=st.integers(2, 40))
    def test_Q_ratio_tail_bounds_the_true_tail(self, mu, r, big_n):
        # against sum_{n > N} n C_n at 40 digits; where q(N) >= 1 there is no bound
        seq = seq_Q(mu, r)
        tail, how = criteria._goodman_tail(seq, big_n, float(seq.read(big_n)[1][-1]))
        if tail is None:
            r2, lf = mpmath.mpf(r) ** 2, mpmath.loggamma(big_n + 1)
            q = (1 + mpmath.mpf(1) / big_n) * (big_n + 1) ** (-2 * mu - 1) * (1 + r2 * mpmath.exp(-2 * lf)) ** (mu + 1)
            assert q > 1 - 1e-9
            return
        with mpmath.workdps(40):
            r2 = mpmath.mpf(r) ** 2

            def term(n):
                lf = mpmath.loggamma(n + 1)
                return n * mpmath.exp(lf + (mu + 1) * (mpmath.log1p(r2) - mpmath.log(mpmath.exp(2 * lf) + r2)))

            true = mpmath.nsum(term, [big_n + 1, mpmath.inf])
        assert how == "ratio" and 0.0 < true <= tail

    def test_falsified_when_sum_exceeds_one(self):
        rep = check_goodman(FunctionSequence(lambda n: np.where(n <= 2, 1.0, 0.0)))
        assert rep.status is Status.FALSIFIED
        assert rep.witness == Witness(200, 1.0, 2.0) and rep.witness.margin == rep.min_margin
        assert rep.detail == "partial sum exceeds 1"

    @pytest.mark.parametrize("a2", [0.5, (1.0 + 1e-13) / 2])
    def test_partial_sum_within_slack_of_one_is_not_falsified(self, a2):
        # f = z + z^2/2 has sum n |a_n| = 1, which Goodman's hypothesis
        # allows, and 1 + 1e-13 is within the slack: both go to the tail
        rep = check_goodman(FunctionSequence(lambda n: np.where(n == 1, 1.0, np.where(n == 2, a2, 0.0))))
        assert rep.status is Status.INCONCLUSIVE and rep.witness is None
        assert rep.detail == "no rigorous tail majorant for this prefix"

    def test_sum_of_moduli(self):
        # a = (1, -0.9, -0.9, 0, ...): the signed sum 2 a_2 + 3 a_3 = -4.5 is
        # below 1, the criterion's sum of n |a_n| = 4.5 is not, and f'(z) =
        # 1 - 1.8 z - 2.7 z^2 vanishes at z = 0.361 inside the disk
        a = np.array([1.0, -0.9, -0.9] + [0.0] * 10)
        rep = check_goodman(FunctionSequence(lambda n: a[n.astype(int) - 1]), len(a))
        assert rep.status is Status.FALSIFIED
        assert rep.witness == Witness(len(a), 1.0, 4.5)
        assert np.polyval([-2.7, -1.8, 1.0], 0.361) == pytest.approx(0.0, abs=1e-2)


@pytest.mark.parametrize("report", [
    lambda: check_ozaki(seq_F(0.25, 1.0)),
    lambda: check_fejer_halfplane(seq_F(0.5, 3.0)),
    lambda: check_goodman(FunctionSequence(lambda n: np.where(n <= 2, 1.0, 0.0))),
], ids=["ozaki", "fejer-halfplane", "goodman"])
def test_witness_reads_lhs_below_rhs(report):
    # every witness of a chain scan reads lhs >= rhs, so its margin is negative
    rep = report()
    assert rep.status is Status.FALSIFIED
    assert rep.witness.margin < -comparison_slack(rep.witness.lhs, rep.witness.rhs)
    assert rep.min_margin <= rep.witness.margin


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
        # b_n = n^2 ((n+1)^2+r^2)^(mu+1) - (n+1)^2 (n^2+r^2)^(mu+1) >= 0 for
        # r <= sqrt(mu) is Ozaki's decreasing chain n a_n >= (n+1) a_(n+1)
        # of the close-to-convexity theorem, here for n <= 100
        for r in [0.5 * math.sqrt(mu), math.sqrt(mu)]:
            rep = check_ozaki(seq_F(mu, r), 101)
            assert rep.ok and rep.criterion == "OzakiDecreasing"

    def test_bernoulli_margin_matches_direct(self):
        # the sign of direct b_n at mu = 1 is the sign of t_n - t_(n+1),
        # t_n = n a_n; at r = 3 > sqrt(mu) it is negative for n = 1, 2
        for r in [1.0, 3.0]:
            vals, _ = seq_F(1.0, r).read(11)
            t = np.arange(1, 12) * vals
            direct = [n**2 * ((n + 1) ** 2 + r * r) ** 2 - (n + 1) ** 2 * (n**2 + r * r) ** 2
                      for n in range(1, 11)]
            assert [d >= 0 for d in direct] == list(t[:-1] - t[1:] >= 0)
            assert all(d >= 0 for d in direct) == (r == 1.0)


# The two per-orientation chain loops that _chain_scan replaced, kept
# as oracles over values.
def _chain_nonincreasing(vals):
    min_margin = math.inf
    witness = None
    worst = 0.0
    for k in range(len(vals) - 1):
        lhs, rhs = float(vals[k]), float(vals[k + 1])
        margin = lhs - rhs
        min_margin = min(min_margin, margin)
        if margin < -comparison_slack(lhs, rhs) and margin < worst:
            worst = margin
            witness = Witness(k + 1, lhs, rhs)
    return min_margin, witness


def _chain_nondecreasing(vals):
    min_margin = math.inf
    witness = None
    worst = 0.0
    for k in range(len(vals) - 1):
        lhs, rhs = float(vals[k + 1]), float(vals[k])
        margin = lhs - rhs
        min_margin = min(min_margin, margin)
        if margin < -comparison_slack(lhs, rhs) and margin < worst:
            worst = margin
            witness = Witness(k + 1, lhs, rhs)
    return min_margin, witness


# Few distinct values so that ties are common, values far below the slack
# (subnormals and 0 too) and inf (whose margins are NaN).
_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-13, 1.0 - 1e-13, 2.0, 1e-290, 1e-300, math.inf]),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 1e-279, allow_subnormal=True),
)


class TestChainScan:
    # inf - inf in the margins warns; the loops ignored those NaNs silently
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=400)
    @given(vals=st.lists(_VALUES, min_size=2, max_size=30))
    def test_matches_per_orientation_loops(self, vals):
        v = np.array(vals)
        # repr: exact floats, and 0.0 is told apart from -0.0
        assert repr(_chain_scan(v[:-1], v[1:])) == repr(_chain_nonincreasing(v))
        assert repr(_chain_scan(v[1:], v[:-1])) == repr(_chain_nondecreasing(v))

    def test_first_of_equal_worst_violations(self):
        v = np.array([1.0, 2.0, 1.0, 2.0])
        margin, witness = _chain_scan(v[:-1], v[1:])
        assert margin == -1.0 and witness == Witness(1, 1.0, 2.0)


def _scan_loop(pairs, first=1):
    """(min_margin, witness) of lhs >= rhs over (lhs, rhs) pairs, one n at a
    time from n = first."""
    min_margin, witness, worst = math.inf, None, 0.0
    for k, (lhs, rhs) in enumerate(pairs):
        margin = lhs - rhs
        min_margin = min(min_margin, margin)
        if margin < -comparison_slack(lhs, rhs) and margin < worst:
            worst, witness = margin, Witness(first + k, lhs, rhs)
    return min_margin, witness


def _combined(scans):
    """(status, witness, min_margin): the first failing condition names the
    witness, the margin is the least of all."""
    witness = next((w for _, w in scans if w), None)
    status = Status.VERIFIED if witness is None else Status.FALSIFIED
    return status, witness, min(m for m, _ in scans)


def _ozaki_loop(a):
    t = [float(x) for x in np.arange(1, len(a) + 1) * a]
    dec = [_chain_nonincreasing(t), _scan_loop([(t[-1], 0.0)], first=len(t))]
    inc = [_chain_nondecreasing(t), _scan_loop([(2.0, x) for x in t])]
    if _combined(dec)[0] is Status.VERIFIED:
        return (*_combined(dec), "decreasing branch")
    if _combined(inc)[0] is Status.VERIFIED:
        return (*_combined(inc), "increasing branch")
    return (*_combined(dec + inc), "both branches violated")


def _starlike_loop(a):
    t = [float(x) for x in np.arange(1, len(a) + 1) * a]
    d = [t[k] - t[k + 1] for k in range(len(t) - 1)]
    scans = [_chain_nonincreasing(t), _chain_nonincreasing(d)]
    names = ["first chain", "difference chain"]
    detail = next((name for name, (_, w) in zip(names, scans) if w), "")
    return (*_combined(scans), detail)


def _halfplane_loop(a, weighted=False):
    if weighted:
        a = np.arange(1, len(a) + 1) * a
    v = [float(x) for x in a]
    scans = [
        _scan_loop([(x, 0.0) for x in v]),
        _chain_nonincreasing(v),
        _scan_loop([(v[k] + v[k + 2], 2.0 * v[k + 1]) for k in range(len(v) - 2)]),
    ]
    return (*_combined(scans), "")


def _reports_and_loops(seq, big_n):
    """Each chain criterion's report on seq's first big_n terms, paired
    with what the per-n loops give on the same values."""
    a, _ = seq.read(big_n)
    return [
        (check_ozaki(seq, big_n), _ozaki_loop(a)),
        (check_fejer_starlike(seq, big_n), _starlike_loop(a)),
        (check_fejer_halfplane(seq, big_n), _halfplane_loop(a)),
        (check_fejer_halfplane(seq, big_n, index_weighted=True), _halfplane_loop(a, weighted=True)),
    ]


# perturbations around the slack of 1e-12, mostly 0 so that a few stand
# alone; steps that make ties, or one step throughout, whose second
# differences are then the perturbations' alone
_NUDGE = st.sampled_from([0.0] * 10 + [4e-13, -4e-13, 9e-13, -9e-13, 1.5e-12, -1.5e-12,
                                       3e-12, -3e-12])
_STEP = st.one_of(st.sampled_from([0.0, 1e-3, 0.05]), st.floats(0.0, 0.2))
_STEPS = st.one_of(
    st.lists(_STEP, min_size=2, max_size=60),
    st.tuples(st.floats(0.005, 0.05), st.integers(2, 60)).map(lambda c: [c[0]] * c[1]),
)


class TestOneScanRule:
    @settings(max_examples=300)
    @given(steps=_STEPS, data=st.data(), per_n=st.booleans())
    def test_criteria_match_per_n_loops(self, steps, data, per_n):
        # a_n = 1 - s_n, falling below 0 once the partial step sums s_n
        # pass 1, or a_n = (1 + s_n/4)/n, whose n a_n rises past 2 (Ozaki's
        # increasing branch and its cap); then a_2.. nudged by about the slack
        nudges = data.draw(st.lists(_NUDGE, min_size=len(steps), max_size=len(steps)))
        s = np.concatenate([[0.0], np.cumsum(steps)])
        a = (1.0 + s / 4.0) / np.arange(1, len(s) + 1) if per_n else 1.0 - s
        a[1:] += nudges
        seq = FunctionSequence(lambda n: a[n.astype(int) - 1])
        for rep, (status, witness, min_margin, detail) in _reports_and_loops(seq, len(a)):
            assert (rep.status, rep.witness, rep.detail) == (status, witness, detail)
            assert rep.min_margin == pytest.approx(min_margin, abs=1e-14)


# far below the slack: a chain there holds within it whatever the order
_UNDERFLOW = 1e-280


@pytest.mark.parametrize("mu,r", [(0.5, 1.0), (0.5, 3.0), (2.0, 1.0), (2.0, 3.0)])
def test_underflowing_Q_prefix_matches_per_n_loops(mu, r):
    # C_n is below 1e-280 from n = 92 (mu = 0.5) or 46 (mu = 2) on, and 0.0
    # from n = 103 or 51: the chains there compare values like any others
    seq = seq_Q(mu, r)
    a, _ = seq.read(500)
    assert np.count_nonzero(a < _UNDERFLOW) > 300
    for rep, (status, witness, min_margin, detail) in _reports_and_loops(seq, 500):
        assert (rep.status, rep.witness, rep.detail) == (status, witness, detail)
        assert repr(rep.min_margin) == repr(min_margin)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from([Family.F, Family.Q]), mu=st.floats(0.1, 100.0),
       r=st.floats(0.05, 60.0), big_n=st.one_of(st.integers(3, 2000), st.just(2000)))
def test_drawn_family_prefix_matches_per_n_loops(family, mu, r, big_n):
    # F at large mu and Q at most (mu, r) fall below 1e-280 within the prefix
    seq = CoefficientSeq(family, ParamSet(mu, r))
    for rep, (status, witness, min_margin, detail) in _reports_and_loops(seq, big_n):
        assert (rep.status, rep.witness, rep.detail) == (status, witness, detail)
        assert repr(rep.min_margin) == repr(min_margin)


def test_cached_prefix_arrays_are_read_only():
    for n_terms in (3, 500):
        for array in (*prefix_arrays(n_terms), *prefix_arrays(n_terms, Family.F),
                      *prefix_arrays(n_terms, Family.Q)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_slack_applied_only_in_chain_scan():
    # every condition goes through _chain_scan: no other code in the
    # module compares against its own slack
    tree = ast.parse(inspect.getsource(criteria))
    scan = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_chain_scan")
    inside = {id(node) for node in ast.walk(scan)}
    uses = [node.lineno for node in ast.walk(tree)
            if id(node) not in inside
            and ("comparison_slack" == getattr(node, "id", None)
                 or "comparison_slack" == getattr(node, "attr", None))]
    assert uses == []
