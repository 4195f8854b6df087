"""CLI: argument handling, output formats, exit codes."""

import argparse
import ast
import csv
import enum
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import mathieu_geom
from mathieu_geom import cli
from mathieu_geom.cli import (
    _FUNCTIONAL_NAMES,
    build_parser,
    main,
    parse_complex,
    report_dict,
    theorem_matrix,
)
from mathieu_geom.explorer import sweep
from mathieu_geom.params import ParamSet
from mathieu_geom.series import CoefficientSeq, Family, FunctionSequence, eval_S
from mathieu_geom.thresholds import MU_MIN, ThresholdKind, threshold


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseComplex:
    @pytest.mark.parametrize("text,expected", [
        ("0.5", 0.5 + 0j),
        ("-2", -2 + 0j),
        ("0.5+0.25i", 0.5 + 0.25j),
        ("1-0.5i", 1 - 0.5j),
        ("0.3i", 0.3j),
        ("-i", -1j),
        ("1e-2+1e-3i", 0.01 + 0.001j),
        (" 0.1 + 0.2i ", 0.1 + 0.2j),
        ("1+2j", 1 + 2j),
        ("-j", -1j),
    ])
    def test_accepted(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1+2j+3i"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)


class TestEval:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "F", "--mu", "1",
                           "--r", "1", "--z", "0.5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["value_im"] == 0.0
        assert 0.0 < data["value_re"] < 1.0
        assert data["tail_bound"] < 1e-10

    def test_point_outside_disk_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "F", "--mu", "1",
                             "--r", "1", "--z", "1.5")
        assert code == 2
        assert "error" in err

    def test_Q_at_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "Q", "--mu", "1",
                           "--r", "1", "--z", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["value_re"] == 0.0

    @pytest.mark.parametrize("z", ["nan", "inf", "nan+0.1i"])
    def test_non_finite_point_exits_2(self, capsys, z):
        code, _, err = run(capsys, "eval", "--family", "F", "--mu", "1",
                           "--r", "1", f"--z={z}")
        assert code == 2
        assert "|z| must be < 1" in err

    def test_missing_z_exits_2(self, capsys):
        code, *_ = run(capsys, "eval", "--family", "F", "--mu", "1", "--r", "1")
        assert code == 2

    def test_classical_S(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "S", "--r", "1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        # Alzer bounds at r = 1
        assert 1.0 / (1.0 + 1.0 / 1.2) < data["value"] < 1.0 / (1.0 + 1.0 / 6.0)

    def test_classical_S_small_r(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "S", "--r", "0.005",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["tail_bound"] <= 1e-12

    def test_S_integral_reports_its_bound(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "S-integral", "--r", "2",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"value", "error_bound", "nodes"}
        assert data["error_bound"] <= 1e-12
        assert data["nodes"] % 24 == 0

    @pytest.mark.parametrize("r", ["1e-3", "1e-2", "0.05"])
    def test_S_integral_small_r(self, capsys, r):
        # r below about 0.056 once overflowed math.expm1 with a traceback
        code, out, _ = run(capsys, "eval", "--family", "S-integral", "--r", r,
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        series = eval_S(float(r), 1e-10)
        assert abs(data["value"] - series.value) <= data["error_bound"] + series.tail_bound

    def test_S_integral_uncertifiable_tol_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "S-integral", "--r", "2",
                             "--tol", "1e-16")
        assert code == 2
        assert out == ""
        assert "certifies" in err

    @pytest.mark.parametrize("family", ["S", "S-integral"])
    def test_both_S_routes_refuse_an_uncertifiable_tol(self, capsys, family):
        # S(0.02) = 2.4 carries rounding near 1.5e-14 on either route
        code, out, err = run(capsys, "eval", "--family", family, "--r", "0.02",
                             "--tol", "1e-15")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_S_requires_r(self, capsys):
        code, *_ = run(capsys, "eval", "--family", "S")
        assert code == 2


class TestCoeffs:
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_empty_prefix_exits_2(self, capsys, n):
        code, out, err = run(capsys, "coeffs", "--family", "SHat", f"--n={n}")
        assert code == 2
        assert out == "" and "n_terms must be >= 1" in err

    def test_example_family_rejects_mu_r(self, capsys):
        code, out, err = run(capsys, "coeffs", "--family", "SHat", "--mu", "1", "--r", "1",
                             "--n", "3")
        assert code == 2
        assert out == "" and "takes no (mu, r)" in err

    @pytest.mark.parametrize("family,flag", [("F", "--mu"), ("Q", "--r"), ("SHat", "--mu")])
    def test_lone_mu_or_r_exits_2(self, capsys, family, flag):
        code, out, err = run(capsys, "coeffs", "--family", family, flag, "1", "--n", "3")
        assert code == 2
        assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--criterion", "ozaki", "--family", "F", "--mu", "1", "--r", "inf"],
    ["eval", "--family", "F", "--mu", "inf", "--r", "1", "--z", "0.5"],
    ["coeffs", "--family", "Q", "--mu", "1", "--r", "inf", "--n", "3"],
    ["eval", "--family", "S", "--r", "inf"],
])
def test_non_finite_mu_or_r_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "must be finite" in err


@pytest.mark.parametrize("argv,name", [
    (["verify", "--criterion", "ozaki", "--family", "Q", "--mu", "1", "--r", "1e200"], "r"),
    (["verify", "--criterion", "ozaki", "--family", "F", "--mu", "1", "--r", "1e200"], "r"),
    (["coeffs", "--family", "Q", "--mu", "1", "--r", "1e200", "--n", "3"], "r"),
    (["eval", "--family", "F", "--mu", "1", "--r", "1e160", "--z", "0.5"], "r"),
    (["verify", "--functional", "starlike", "--family", "F", "--mu", "1", "--r", "1e200"], "r"),
    (["coeffs", "--family", "F", "--mu", "1e308", "--r", "1e10", "--n", "3"], "mu"),
    (["verify", "--functional", "deriv-halfplane", "--family", "Q", "--mu", "1e306",
      "--r", "1e150"], "mu"),
])
def test_overflowing_mu_or_r_exits_2(capsys, argv, name):
    # finite, but r^2 or (r^2 + 1)^(mu + 1) overflows: the coefficients were
    # NaN, which the criteria verified and coeffs printed, with exit 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} ")


@pytest.mark.parametrize("argv", [
    ["sweep", "--kinds", "F_Starlike,F_CloseToConvex", "--mu-grid", "1", "--tol", "nan"],
    ["eval", "--family", "F", "--mu", "1", "--r", "1", "--z", "0.5", "--tol", "nan"],
    ["eval", "--family", "S", "--r", "2", "--tol", "nan"],
], ids=["sweep-nan", "eval-F-nan", "eval-S-nan"])
def test_bad_tolerance_exits_2(capsys, argv):
    # a NaN tolerance once passed every comparison it met: sweep returned
    # empirical_r = sufficient_r, eval summed 10^6 terms
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "must be" in err


class TestVerify:
    def test_criterion_pass_and_fail_exit_codes(self, capsys):
        code_ok, out, _ = run(capsys, "verify", "--criterion", "fejer-starlike",
                              "--family", "F", "--mu", "1", "--r", "0.6",
                              "--format", "json")
        assert code_ok == 0
        assert json.loads(out)["status"] == "Verified"
        code_bad, out, _ = run(capsys, "verify", "--criterion", "fejer-starlike",
                               "--family", "F", "--mu", "1", "--r", "2.5",
                               "--format", "json")
        assert code_bad == 1
        data = json.loads(out)
        assert data["status"] == "Falsified"
        assert "witness" in data

    def test_functional_starlike_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "--functional", "starlike",
                           "--family", "F", "--mu", "1", "--r", "0.9",
                           "--radii", "16", "--angles", "64", "--format", "json")
        assert code in (0, 1)
        data = json.loads(out)
        assert data["status"] in ("Holds", "Violated")
        assert (code == 0) == (data["status"] == "Holds")

    def test_functional_json_carries_series_budget(self, capsys):
        from mathieu_geom.diskcheck import DiskGrid, Functional, verify_functional
        from mathieu_geom.params import ParamSet

        _, out, _ = run(capsys, "verify", "--functional", "starlike",
                        "--family", "F", "--mu", "1", "--r", "0.9",
                        "--radii", "16", "--angles", "64", "--format", "json")
        data = json.loads(out)
        rep = verify_functional(Functional.STARLIKE, "F", ParamSet(1.0, 0.9), DiskGrid(16, 64))
        assert (data["terms"], data["tail_bound"]) == (rep.terms, rep.tail_bound)
        assert data["terms"] >= 256 and 0.0 <= data["tail_bound"] < 1e-12

    def test_functional_json_carries_certificate(self, capsys):
        from mathieu_geom.diskcheck import DiskGrid, verify_functional
        from mathieu_geom.params import ParamSet

        for name, functional in (("starlike", "Starlike"), ("ratio-halfplane", "RatioHalfPlane")):
            _, out, _ = run(capsys, "verify", "--functional", name,
                            "--family", "F", "--mu", "1", "--r", "0.9",
                            "--radii", "16", "--angles", "64", "--format", "json")
            data = json.loads(out)
            rep = verify_functional(functional, "F", ParamSet(1.0, 0.9), DiskGrid(16, 64))
            assert (data["m"], data["discretisation_bound"], data["lower_bound"], data["winding"]) == \
                (rep.m, rep.discretisation_bound, rep.lower_bound, rep.winding)
            assert data["m"] >= 64 and data["discretisation_bound"] > 0.0
        assert rep.winding is None  # only Starlike counts the winding of f/z

    def test_functional_near_the_bound_holds(self, capsys):
        # above 1/2 by 6e-6 at z = -0.999; the global dip bound was still 1e-5
        # at 2^20 circle points, the per-arc one certifies it at a few thousand
        code, out, _ = run(capsys, "verify", "--functional", "deriv-halfplane",
                           "--family", "F", "--mu", "0.5", "--r", "0.84367",
                           "--max-radius", "0.999", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["status"] == "Holds" and data["m"] <= 4096
        assert 0.5 < data["lower_bound"] < data["min_value"] < 0.5 + 1e-5
        z = complex(data["argmin_re"], data["argmin_im"])
        n = np.arange(1, 60_001)
        a = CoefficientSeq(Family.F, ParamSet(0.5, 0.84367)).values_at(n)
        assert data["min_value"] == pytest.approx(np.polyval((n * a)[::-1], z).real, rel=1e-9)

    def test_inconclusive_functional_exits_3(self, capsys, monkeypatch):
        # Re(f/z) = 1 + cos(theta)/2 on |z| = 0.9 touches 1/2 at z = -0.9, so
        # no number of circle points proves it stays above
        seq = FunctionSequence(lambda n: np.where(n == 1, 1.0, np.where(n == 2, 1.0 / 1.8, 0.0)))
        monkeypatch.setattr(cli, "_seq_from_flags", lambda args: seq)
        code, out, _ = run(capsys, "verify", "--functional", "ratio-halfplane", "--family", "F",
                           "--mu", "1", "--r", "1", "--max-radius", "0.9", "--format", "json")
        data = json.loads(out)
        assert code == 3
        assert data["status"] == "Inconclusive" and data["m"] == 2**20
        assert data["lower_bound"] < 0.5 and data["min_value"] == pytest.approx(0.5, abs=1e-12)

    def test_inequality(self, capsys):
        code, out, _ = run(capsys, "verify", "--inequality", "eq-frac-ineq",
                           "--samples", "2000", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["criterion"] == "inequality:eq-frac-ineq"
        assert data["min_margin"] > 0

    @pytest.mark.parametrize("argv,err", [
        (["--samples", "1000", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["--samples", "999"], "samples must be an integer >= 1000, got 999"),
    ])
    def test_inequality_argument_errors_name_the_flag(self, capsys, argv, err):
        code, out, got = run(capsys, "verify", "--inequality", "eq-sqrt", *argv)
        assert (code, out, got) == (2, "", f"error: {err}\n")

    def test_nan_margin_exits_3(self, capsys, monkeypatch):
        from mathieu_geom.thresholds import INEQUALITY_CASES, InequalityCase

        case = InequalityCase("nan-case", [("x", 1.0, 2.0, False)], lambda p: p["x"] * math.nan)
        monkeypatch.setitem(INEQUALITY_CASES, case.id, case)
        code, out, _ = run(capsys, "verify", "--inequality", "nan-case",
                           "--samples", "1000", "--format", "json")
        assert code == 3
        assert json.loads(out)["status"] == "Inconclusive"

    def test_angles_above_the_point_cap_exit_2(self, capsys):
        # rejected before any evaluation: the first pass runs at m = --angles
        code, out, err = run(capsys, "verify", "--functional", "starlike", "--family", "F",
                             "--mu", "1", "--r", "0.6", "--angles", "2097152")
        assert code == 2
        assert out == "" and "angles" in err

    def test_tolerance_flag_is_gone(self, capsys):
        # Violated is min_value <= bound - DEFAULT_TOLERANCE for every caller
        code, out, err = run(capsys, "verify", "--functional", "starlike", "--family", "F",
                             "--mu", "1", "--r", "0.6", "--tolerance", "1e-9")
        assert (code, out) == (2, "")
        assert "--tolerance" in err

    def test_exactly_one_mode_required(self, capsys):
        code, *_ = run(capsys, "verify", "--family", "F", "--mu", "1", "--r", "1")
        assert code == 2
        code, *_ = run(capsys, "verify", "--criterion", "ozaki",
                       "--inequality", "eq-sqrt",
                       "--family", "F", "--mu", "1", "--r", "1")
        assert code == 2


class TestThresholdsAndSweep:
    def test_thresholds_row_count(self, capsys):
        # 8 kinds x 4 default mu values, minus the mu < 2 rows of the two
        # hypothesis-restricted kinds (2 kinds x 2 excluded mu each)
        code, out, _ = run(capsys, "thresholds", "--format", "json")
        assert code == 0
        rows = json.loads(out)["thresholds"]
        assert len(rows) == 8 * 4 - 2 * 2
        by_key = {(r["kind"], r["mu"]): r["sufficient_r"] for r in rows}
        assert by_key[("F_CloseToConvex", 1.0)] == pytest.approx(1.0)
        assert ("Q_Starlike", 0.5) not in by_key

    def test_sweep_csv_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--kinds", "F_CloseToConvex,F_Starlike",
                "--mu-grid", "1,2"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "kind,mu,sufficient_r,empirical_r,gap,probe,status"
        assert len(lines) == 5

    def test_sweep_has_no_seed_option(self, capsys):
        # the sweep is deterministic; a seed would change nothing
        code, out, err = run(capsys, "sweep", "--kinds", "F_Starlike", "--mu-grid", "1",
                             "--seed", "0")
        assert (code, out) == (2, "")
        assert "--seed" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kinds", "F_Starlike", "--mu-grid", "1"],
        ["theorems", "--mu-grid", "1", "--level", "sequence"],
    ])
    def test_radii_only_on_verify(self, capsys, argv):
        # no sweep or theorem verdict reads the interior lattice
        code, out, err = run(capsys, *argv, "--radii", "16")
        assert (code, out) == (2, "")
        assert "--radii" in err

    @pytest.mark.parametrize("mu_grid", ["nan", "1,inf"])
    def test_thresholds_non_finite_mu_exits_2(self, capsys, mu_grid):
        code, out, err = run(capsys, "thresholds", "--mu-grid", mu_grid)
        assert code == 2
        assert out == "" and "mu must be finite" in err

    @pytest.mark.parametrize("command", ["thresholds", "theorems"])
    @pytest.mark.parametrize("mu", ["-1", "-inf", "0"])
    def test_non_positive_mu_exits_2(self, capsys, command, mu):
        # a negative mu was once dropped from the grid: an empty table, exit 0
        code, out, err = run(capsys, command, f"--mu-grid={mu}", "--format", "json")
        assert (code, out) == (2, "")
        assert "mu must be > 0" in err

    @pytest.mark.parametrize("flag,value", [
        ("--r-hi", "nan"), ("--r-hi", "inf"), ("--r-hi", "-1"), ("--terms", "2"),
    ], ids=["r-hi-nan", "r-hi-inf", "r-hi-negative", "terms-2"])
    def test_sweep_argument_failing_every_row_exits_2(self, capsys, flag, value):
        # these once printed one error row per (kind, mu) and exited 0
        code, out, err = run(capsys, "sweep", "--kinds", "F_Starlike", "--mu-grid", "1",
                             flag, value)
        assert code == 2
        assert out == "" and "must be" in err

    def test_sweep_r_hi_below_one_threshold_is_row_local(self, capsys):
        # r_hi = 0.8 is above F_Starlike's threshold at mu = 1 (0.628) and
        # below F_CloseToConvex's (1.0)
        code, out, _ = run(capsys, "sweep", "--kinds", "F_Starlike,F_CloseToConvex",
                           "--mu-grid", "1", "--r-hi", "0.8", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["status"] for row in rows] == [
            "no_failure_found", "error: r_hi 0.8 must exceed sufficient_r 1.0"]

    def test_mu_past_the_square_overflow(self, capsys):
        # 17 mu^2 is infinite at mu = 1e200: `thresholds` once ended in a
        # math domain error and `sweep` crashed with it; the coefficient
        # formula then rejects mu, one error row
        code, out, _ = run(capsys, "thresholds", "--mu-grid", "1e200", "--format", "json")
        assert code == 0
        radii = [row["sufficient_r"] for row in json.loads(out)["thresholds"]]
        assert len(radii) == len(ThresholdKind) and all(math.isfinite(x) for x in radii)
        code, out, _ = run(capsys, "sweep", "--kinds", "F_Starlike", "--mu-grid", "1e200",
                           "--format", "json")
        assert code == 0
        [row] = json.loads(out)
        assert row["status"].startswith("error: mu ")

    def test_mu_near_zero(self, capsys):
        # (a - b)/2 once cancelled to 0.0 here, so the sequence matrix
        # exited 2 with "r must be > 0, got 0.0"
        code, out, _ = run(capsys, "thresholds", "--mu-grid", "1e-300",
                           "--kinds", "F_Starlike,F_HalfPlaneDeriv")
        assert code == 0 and out.count("'sufficient_r': 5.773502691896258e-151") == 2
        code, out, _ = run(capsys, "theorems", "--mu-grid", "1e-300", "--level", "sequence")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6 and all(line.startswith("PASS") for line in lines)

    def test_sweep_default_kinds_all(self, capsys):
        code, out, _ = run(capsys, "sweep", "--kinds", "all", "--mu-grid", "1",
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 8

    def test_examples(self, capsys):
        code, out, _ = run(capsys, "examples", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["SHat_goodman"]["status"] == "Verified"
        assert data["DoubleFactorial_goodman"]["status"] == "Verified"

    def test_examples_csv(self, capsys):
        # the S_at_1 row has a value column the report rows lack
        code, out, err = run(capsys, "examples", "--format", "csv")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["check"] for row in rows] == [
            "SHat_goodman", "DoubleFactorial_goodman", "S_at_1"]
        assert rows[0]["status"] == "Verified" and rows[0]["value"] == ""
        assert rows[2]["status"] == "" and 0.79 < float(rows[2]["value"]) < 0.80


class TestUsageErrors:
    """Usage errors, argparse's own among them, are package errors printed as
    one line that names the flag; any other exception is a bug, and main lets
    it through."""

    @pytest.mark.parametrize("argv,flag", [
        (["coeffs", "--n", "abc"], "--n"),
        (["eval", "--mu", "abc"], "--mu"),
        (["verify", "--format", "xml", "--inequality", "eq-sqrt"], "--format"),
        (["coeffs", "--bogus", "1"], "--bogus"),
        ([], "command"),
        (["verify", "--criterion", "ozaki", "--functional", "starlike"], "--functional"),
        (["verify", "--family", "F", "--mu", "1", "--r", "1"], "--criterion"),
        (["eval", "--family", "S", "--r", "2", "--z", "junk"], "--z"),
        (["eval", "--family", "F", "--mu", "1", "--r", "1", "--z=abc"], "--z"),
        (["eval", "--family", "F", "--mu", "1", "--r", "1", "--z", "1+2j+3i"], "--z"),
        (["thresholds", "--kinds", "F_Bogus"], "--kinds"),
        (["sweep", "--kinds", ","], "--kinds"),
        (["sweep", "--mu-grid", "1,x"], "--mu-grid"),
        (["thresholds", "--mu-grid", ",1"], "--mu-grid"),
        (["theorems", "--mu-grid", "one"], "--mu-grid"),
        (["coeffs", "--family", "S"], "--family"),
        (["coeffs", "--family", "S-integral", "--r", "1"], "--family"),
        (["verify", "--family", "S", "--criterion", "ozaki"], "--family"),
        (["verify", "--family", "S-integral", "--functional", "starlike"], "--family"),
        (["coeffs", "--family", "DoubleFactorial", "--r", "1"], "takes no --mu or --r, got --r"),
        (["verify", "--criterion", "ozaki", "--family", "SHat", "--mu", "2"], "takes no --mu or --r, got --mu"),
        (["eval", "--family", "SHat", "--z", "0.5", "--mu", "1"], "takes no --mu or --r, got --mu"),
        (["eval", "--family", "S", "--r", "2", "--mu", "5"], "--family S takes no --mu or --z, got --mu"),
        (["eval", "--family", "S", "--r", "2", "--z", "0.5"], "--family S takes no --mu or --z, got --z"),
        (["eval", "--family", "S-integral", "--r", "2", "--mu", "5"], "takes no --mu or --z, got --mu"),
        (["eval", "--family", "S-integral", "--r", "2", "--z", "0.5"], "takes no --mu or --z, got --z"),
        (["coeffs", "--family", "F", "--mu", "1"], "family F requires (mu, r)"),
        (["verify", "--family", "Q", "--r", "1", "--functional", "starlike"], "family Q requires (mu, r)"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize("argv,flag", [
        (["coeffs", "--family", "SHat", "--n", "3"], "--out"),
        (["sweep", "--kinds", "F_Starlike", "--mu-grid", "1"], "--out"),
        (["verify", "--functional", "starlike", "--family", "F", "--mu", "1", "--r", "0.6"],
         "--dump-grid"),
    ], ids=["coeffs-out", "sweep-out", "verify-dump-grid"])
    def test_unwritable_path_is_a_usage_error(self, capsys, tmp_path, argv, flag):
        # this once raised FileNotFoundError with exit 1, which verify uses for Violated
        path = str(tmp_path / "missing" / "x.csv")
        code, out, err = run(capsys, *argv, flag, path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
        assert repr(path) in err

    def test_a_bare_value_error_is_a_bug(self, capsys, monkeypatch):
        def broken(r, tol):
            raise ValueError("a bug, not a usage error")

        monkeypatch.setattr(cli, "eval_S", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["eval", "--family", "S", "--r", "2"])


class _Colour(enum.Enum):
    RED = "red"


@dataclass
class _Inner:
    a: int = 1
    b: str = ""


@dataclass
class _Report:
    z: complex
    colour: _Colour
    inner: _Inner
    unset: Optional[int]
    extra: Optional[int] = None
    note: str = ""
    tail: float = 0.0


class TestReportDict:
    """Every printed report goes through one rule: declared field order, an
    Enum as its value, complex x as x_re and x_im, a nested dataclass whole,
    and a field with a default left out while it holds the default."""

    def test_each_clause_of_the_rule(self):
        d = report_dict(_Report(1 + 2j, _Colour.RED, _Inner(), None, tail=3.0))
        assert list(d.items()) == [
            ("z_re", 1.0), ("z_im", 2.0), ("colour", "red"),
            ("inner", {"a": 1, "b": ""}), ("unset", None), ("tail", 3.0)]
        d = report_dict(_Report(0j, _Colour.RED, _Inner(2, "x"), 5, extra=0, note="n"))
        assert list(d) == ["z_re", "z_im", "colour", "inner", "unset", "extra", "note"]
        assert d["inner"] == {"a": 2, "b": "x"} and d["extra"] == 0

    WITNESS, GRID = ["n", "lhs", "rhs"], ["n_radii", "n_angles", "max_radius"]
    DISK = ["functional", "status", "min_value", "bound", "argmin_re", "argmin_im", "grid",
            "terms", "tail_bound", "m", "discretisation_bound", "lower_bound", "winding"]
    F_ARGS = ["--family", "F", "--mu", "1"]

    @pytest.mark.parametrize("argv,keys,nested", [
        (["verify", "--criterion", "ozaki", *F_ARGS, "--r", "3"],
         ["criterion", "status", "terms_checked", "min_margin", "witness", "detail"],
         {"witness": WITNESS}),
        (["verify", "--inequality", "eq-sqrt", "--samples", "1000"],
         ["criterion", "status", "terms_checked", "min_margin", "argmin_point", "detail"], {}),
        (["verify", "--functional", "starlike", *F_ARGS, "--r", "0.6"], DISK, {"grid": GRID}),
        (["verify", "--functional", "ratio-halfplane", *F_ARGS, "--r", "0.6"], DISK,
         {"grid": GRID}),
        (["sweep", "--kinds", "F_Starlike", "--mu-grid", "1"],
         ["kind", "mu", "sufficient_r", "empirical_r", "gap", "probe", "status"], {}),
        (["eval", *F_ARGS, "--r", "1", "--z", "0.5+0.25i"],
         ["value_re", "value_im", "truncation_index", "tail_bound"], {}),
        (["eval", "--family", "S", "--r", "2"], ["value", "truncation_index", "tail_bound"], {}),
    ], ids=["falsified-criterion", "inequality", "starlike", "ratio-halfplane", "sweep",
            "eval-series", "eval-S"])
    def test_json_key_order(self, capsys, argv, keys, nested):
        _, out, _ = run(capsys, *argv, "--format", "json")
        data = json.loads(out)
        data = data[0] if argv[0] == "sweep" else data
        assert list(data) == keys
        for key, inner in nested.items():
            assert list(data[key]) == inner
        if "winding" in data:  # Starlike counts the winding of f/z; the others print null
            assert data["winding"] == (0 if "starlike" in argv else None)
        if argv[0] == "sweep":
            assert data["kind"] == "F_Starlike"


class TestTheorems:
    def test_matrix_helper_row_count(self):
        rows = theorem_matrix([0.5, 1.0, 2.0, 5.0],
                              levels=("sequence",))
        # 8 kinds x 4 mu minus 2 kinds x 2 sub-hypothesis mu
        assert len(rows) == 28
        assert all(row["pass"] for row in rows)
        r_values = {row["kind"]: row["r"] for row in rows if row["mu"] == 1.0}
        assert r_values["F_CloseToConvex"] == pytest.approx(0.99)

    def test_cli_theorems_sequence_level(self, capsys):
        code, out, _ = run(capsys, "theorems", "--mu-grid", "1,2",
                           "--level", "sequence", "--format", "json")
        assert code == 0
        rows = json.loads(out)["matrix"]
        assert all(row["sequence"] for row in rows)

    def test_human_format(self, capsys):
        code, out, _ = run(capsys, "theorems", "--mu-grid", "1",
                           "--level", "sequence")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_human_format_out_file(self, capsys, tmp_path):
        # --out was once ignored in the human format
        argv = ["theorems", "--mu-grid", "1", "--level", "sequence"]
        _, printed, _ = run(capsys, *argv)
        path = tmp_path / "matrix.txt"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == printed
        assert len(printed.splitlines()) == 6


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The `mathieu-geom ...` lines of the README's sh blocks, as argv
    lists without the program name."""
    cmds, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            continue
        if in_sh and line.startswith("mathieu-geom "):
            cmds.append(shlex.split(line, comments=True)[1:])
    return cmds


class TestReadme:
    def test_commands_found(self):
        # an empty list would silently parametrize the next test away
        assert readme_commands()

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_documented_command_is_not_a_usage_error(self, argv, capsys,
                                                     tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # `--out sweep.csv` writes here
        code = main(argv)
        capsys.readouterr()
        assert code != 2

    def test_every_flag_named_is_accepted(self):
        # a flag the parser dropped must not linger in the prose
        text = "\n".join(line for line in README.read_text().splitlines()
                         if "pip install" not in line)
        named = set(re.findall(r"--[a-z][a-z-]*", text))
        sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {flag for p in sub.choices.values() for flag in p._option_string_actions}
        assert named and named <= accepted, sorted(named - accepted)


class TestColdImport:
    @staticmethod
    def _scipy_modules_after(code):
        # the scipy modules loaded by a fresh interpreter that ran code
        src = str(Path(mathieu_geom.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code += ("; import sys; print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')), file=sys.stderr)")
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stderr.strip()

    def test_package_and_cli_import_no_scipy(self):
        assert self._scipy_modules_after("import mathieu_geom, mathieu_geom.cli") == "[]"

    def test_verify_inequality_loads_no_scipy(self):
        # the ledger's Sobol points come from numpy alone
        code = ("from mathieu_geom.cli import main; "
                "assert main(['verify', '--inequality', 'eq-total', '--samples', '1000']) == 0")
        assert self._scipy_modules_after(code) == "[]"

    def test_eval_S_integral_loads_no_scipy(self):
        code = ("from mathieu_geom.cli import main; "
                "assert main(['eval', '--family', 'S-integral', '--r', '2', '--format', 'json']) == 0")
        assert self._scipy_modules_after(code) == "[]"

    @pytest.mark.parametrize("path", sorted(Path(mathieu_geom.__file__).parent.glob("*.py")),
                             ids=lambda p: p.name)
    def test_no_module_imports_scipy(self, path):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        assert not {m for m in imported if m.split(".")[0] == "scipy"}


def test_closed_stdout_exits_quietly():
    # the reader takes one line and closes the pipe: print once ended in a
    # BrokenPipeError traceback, then "Exception ignored" at exit
    env = dict(os.environ, PYTHONPATH=str(Path(mathieu_geom.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "mathieu_geom.cli", "coeffs", "--family", "F", "--mu", "1",
            "--r", "1", "--n", "200000", "--format", "json"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert code == 141


@pytest.mark.parametrize("path", sorted(Path(mathieu_geom.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_handler_catches_bugs(path):
    # package errors are typed; a bare or broader handler would also catch bugs
    broad = {"Exception", "BaseException", "ValueError", "ArithmeticError"}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler):
            where = f"{path.name}:{node.lineno}"
            assert node.type is not None, f"bare except at {where}"
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
            assert not names & broad, where


class TestDerivedTables:
    """The CLI's names and rows come from the library's tables; the
    benchmark's command pools rely on these exact names."""

    def test_help_choices(self, capsys):
        with pytest.raises(SystemExit) as exc_info:  # --help alone leaves main this way
            main(["verify", "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert set(_FUNCTIONAL_NAMES) == {"ratio-halfplane", "deriv-halfplane",
                                          "starlike", "close-to-convex"}
        assert "--functional {close-to-convex,deriv-halfplane,ratio-halfplane,starlike}" in out
        assert ("--criterion {ozaki,fejer-starlike,fejer-halfplane,"
                "fejer-halfplane-deriv,goodman}") in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_prints_the_records(self, capsys, fmt):
        kinds, mu_grid = ["F_Starlike", "Q_Starlike"], [1.0, 2.0]
        code, out, _ = run(capsys, "sweep", "--kinds", ",".join(kinds),
                           "--mu-grid", "2,1", "--format", fmt)
        assert code == 0
        rows = [report_dict(rec) for rec in sweep(kinds, mu_grid)]
        if fmt == "json":
            assert out == json.dumps(rows, indent=2) + "\n"
        else:
            assert out.endswith("\n") and not out.endswith("\n\n")
            assert list(csv.DictReader(io.StringIO(out))) == [
                {k: str(v) for k, v in row.items()} for row in rows]

    def test_thresholds_prints_the_threshold_rows(self, capsys):
        rows = [{"kind": k.value, "mu": mu, "sufficient_r": threshold(k, mu)}
                for k in ThresholdKind for mu in (0.5, 2.0) if not mu < MU_MIN.get(k, 0.0)]
        _, out, _ = run(capsys, "thresholds", "--mu-grid", "0.5,2", "--format", "json")
        assert json.loads(out) == {"thresholds": rows}
        _, out, _ = run(capsys, "thresholds", "--mu-grid", "0.5,2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "kind,mu,sufficient_r"
        assert lines[1:] == [f"{r['kind']},{r['mu']!r},{r['sufficient_r']!r}" for r in rows]
