"""Acceptance suite: one check per top-level requirement, each emitting
a single PASS/FAIL line (run with -s or check the captured output)."""

import math
import time

import numpy as np
import pytest

from mathieu_geom.cli import main, theorem_matrix
from mathieu_geom.criteria import (
    Criterion,
    Status,
    check_fejer_halfplane,
    check_goodman,
    check_ozaki,
    fejer_kernel_sigma,
)
from mathieu_geom.diskcheck import DiskGrid
from mathieu_geom.explorer import sweep
from mathieu_geom.params import ParamSet
from mathieu_geom.series import (
    ZETA3,
    CoefficientSeq,
    Family,
    eval_S,
    eval_S_integral,
)
from mathieu_geom.thresholds import (
    INEQUALITY_CASES,
    A_of_x,
    A_tilde_of_x,
    ThresholdKind,
    digamma,
    g_of_x,
    trigamma,
    verify_inequality,
)

MU_GRID = [0.5, 1.0, 2.0, 5.0]


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_01_sequence_matrix():
    """All theorem rows verify at the sequence level within 5 seconds."""
    t0 = time.perf_counter()
    rows = theorem_matrix(MU_GRID, n_terms=200, levels=("sequence",))
    elapsed = time.perf_counter() - t0
    ok = (len(rows) == 28 and all(r["pass"] for r in rows) and elapsed < 5.0)
    report("01 sequence theorem matrix (<5s)", ok)


def test_02_disk_matrix():
    """All theorem rows hold on the default 64x256 disk lattice within
    60 seconds."""
    t0 = time.perf_counter()
    rows = theorem_matrix(MU_GRID, levels=("disk",), grid=DiskGrid(64, 256))
    elapsed = time.perf_counter() - t0
    ok = (len(rows) == 28 and all(r["pass"] for r in rows) and elapsed < 60.0)
    report("02 disk theorem matrix 64x256 (<60s)", ok)


def test_03_classical_mathieu():
    """Classical series respects the Alzer sandwich and agrees with the
    integral representation to 1e-8."""
    ok = True
    for r in [0.1, 0.5, 1.0, 2.0, 10.0]:
        s = eval_S(r, tol=1e-12).value
        ok = ok and 1.0 / (r * r + 1.0 / (2.0 * ZETA3)) < s < 1.0 / (r * r + 1.0 / 6.0)
        ok = ok and abs(s - eval_S_integral(r, tol=1e-10)) <= 1e-8
    report("03 classical series: Alzer bounds + integral agreement 1e-8", ok)


def test_04_shat_example():
    """First example family passes the coefficient-sum criterion and its
    underlying sum stays below 1/2."""
    rep = check_goodman(CoefficientSeq(Family.SHAT), 10**4)
    n = np.arange(1, 10**4 + 1, dtype=float)
    partial = float(np.sum(2.0 * n / (n * n + 1.0) ** 3))
    tail = 0.5 / (10.0**8 + 1.0) ** 2
    ok = rep.status is Status.VERIFIED and partial + tail < 0.5
    report("04 example family 1: criterion verified, sum < 1/2", ok)


def test_05_double_factorial_example():
    """Second example family verifies with margin at least 1/4 (the
    telescoped bound of its weighted sum)."""
    rep = check_goodman(CoefficientSeq(Family.DOUBLE_FACTORIAL), 50)
    ok = rep.status is Status.VERIFIED and rep.min_margin >= 0.25
    report("05 example family 2: criterion margin >= 1/4", ok)


def test_06_inequality_ledger():
    """All eleven ledger inequalities survive 1e5 stratified samples at
    seed 0 with min margin > -1e-12; argmin locations are logged."""
    ok = len(INEQUALITY_CASES) == 11
    for case_id in sorted(INEQUALITY_CASES):
        rep = verify_inequality(case_id, samples=10**5, seed=0)
        print(f"  {case_id}: min_margin={rep.min_margin:.6g} at {rep.argmin_point}")
        ok = ok and rep.status is Status.VERIFIED and rep.min_margin > -1e-12
    report("06 inequality ledger: 11/11 verified at 1e5 samples", ok)


def test_07_auxiliary_functions():
    """A and A~ positive on their hypothesis regions, the Q coefficients
    pass Ozaki's decreasing chain and Fejer's half-plane hypotheses there,
    analytic second derivative matches a finite difference to 1e-6
    relative."""
    ok = True
    for mu in [2.0, 3.0, 5.0]:
        p = ParamSet(mu, math.sqrt(mu))
        ok = ok and all(A_of_x(float(x), p) > 0 for x in np.linspace(4.0, 20.0, 33))
        rep = check_ozaki(CoefficientSeq(Family.Q, p), 60)
        ok = ok and rep.ok and rep.criterion == Criterion.OZAKI_DECREASING.value
    for mu in [0.5, 1.0, 2.0]:
        p = ParamSet(mu, math.sqrt(mu))
        ok = ok and all(A_tilde_of_x(float(x), p) > 0
                        for x in np.linspace(3.0, 20.0, 35))
        ok = ok and check_fejer_halfplane(CoefficientSeq(Family.Q, p), 60).ok
    p = ParamSet(2.0, 1.0)
    x = 5.0

    def fd(h):
        return (g_of_x(x + h, p) - 2.0 * g_of_x(x, p) + g_of_x(x - h, p)) / (h * h)

    rich = (4.0 * fd(1e-4) - fd(2e-4)) / 3.0
    # g'' = Gamma(x+1) (Gamma(x+1)^2+r^2)^(-mu-3) (1+r^2)^(mu+1) A(x)
    log_g = math.lgamma(x + 1.0)
    pref = math.exp(log_g - (p.mu + 3.0) * math.log(math.exp(2.0 * log_g) + p.r ** 2)
                    + (p.mu + 1.0) * math.log1p(p.r ** 2))
    analytic = pref * A_of_x(x, p)
    ok = ok and abs(analytic - rich) <= 1e-6 * abs(rich)
    report("07 auxiliary functions: positivity, chains, g'' FD check", ok)


def test_08_kernel_identity():
    """Kernel closed form matches the cosine double sum on 500 random
    (n, theta) pairs and is always non-negative."""
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(500):
        n = int(rng.integers(0, 101))
        theta = float(rng.uniform(1e-6, 2.0 * math.pi - 1e-6))
        val = fejer_kernel_sigma(n, theta)
        terms = [0.5 * (n + 1)]
        terms += [(n + 1 - j) * math.cos(j * theta) for j in range(1, n + 1)]
        ref = math.fsum(terms)
        slack = 1e-11 * max(1.0, abs(val), abs(ref))
        ok = ok and val >= 0.0 and abs(val - ref) <= slack
    report("08 kernel identity: 500 random pairs, sigma >= 0", ok)


def test_09_sweep_soundness_and_determinism(capsys):
    """Sharpness sweep: no empirical failure radius falls below its
    sufficient radius (beyond bisection tolerance), hypothesis-violating
    mu rows are marked errored, and two seed-0 runs of `mathieu-geom
    sweep` emit byte-identical CSV."""
    kinds = [ThresholdKind.F_CLOSE_TO_CONVEX, ThresholdKind.F_STARLIKE,
             ThresholdKind.F_HALFPLANE_RATIO, ThresholdKind.Q_STARLIKE]
    records = sweep(kinds, [0.5, 1.0, 2.0])
    ok = len(records) == 12
    for rec in records:
        if rec.kind is ThresholdKind.Q_STARLIKE and rec.mu < 2.0:
            ok = ok and rec.status.startswith("error:")
        else:
            ok = ok and rec.status in ("ok", "no_failure_found")
            ok = ok and rec.gap >= -1e-6
    argv = ["sweep", "--kinds", ",".join(k.value for k in kinds),
            "--mu-grid", "0.5,1,2", "--format", "csv"]
    codes, outs = zip(*[(main(argv), capsys.readouterr().out) for _ in range(2)])
    ok = ok and codes == (0, 0) and outs[0].encode() == outs[1].encode()
    report("09 sweep: gaps >= -1e-6, mu filtering, byte-identical CSV", ok)


def test_10_digamma_contract():
    """Digamma bound pair holds on a 1000-point log grid in (1, 1e4];
    psi(1) and psi'(1) reproduce their classical values to 1e-12."""
    xs = np.exp(np.linspace(math.log(1.0 + 1e-6), math.log(1e4), 1000))
    ok = all(np.all(INEQUALITY_CASES[case].margin({"x": xs}) > 0)
             for case in ("eq-psi-lower", "eq-psi-upper"))
    ok = ok and abs(digamma(1.0) + 0.5772156649015329) <= 1e-12
    ok = ok and abs(trigamma(1.0) - math.pi ** 2 / 6.0) <= 1e-12
    report("10 digamma: bounds on log grid, psi(1), psi'(1)", ok)
