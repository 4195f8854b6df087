"""CLI: argument handling, output formats, exit codes."""

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mathieu_geom
from mathieu_geom.cli import _FUNCTIONAL_NAMES, main, parse_complex, theorem_matrix
from mathieu_geom.explorer import records_to_csv, records_to_json, sweep
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
])
def test_non_finite_mu_or_r_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "must be finite" in err


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

    def test_inconclusive_functional_exits_3(self, capsys):
        # above 1/2 by 6e-6, while the dip bound at 2^20 circle points is 1e-5
        code, out, _ = run(capsys, "verify", "--functional", "deriv-halfplane",
                           "--family", "F", "--mu", "0.5", "--r", "0.84367",
                           "--max-radius", "0.999", "--format", "json")
        data = json.loads(out)
        assert code == 3
        assert data["status"] == "Inconclusive" and data["m"] == 2**20
        assert data["lower_bound"] < 0.5 < data["min_value"]

    def test_inequality(self, capsys):
        code, out, _ = run(capsys, "verify", "--inequality", "eq-frac-ineq",
                           "--samples", "2000", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["criterion"] == "inequality:eq-frac-ineq"
        assert data["min_margin"] > 0

    def test_nan_margin_exits_3(self, capsys, monkeypatch):
        from mathieu_geom.thresholds import INEQUALITY_CASES, InequalityCase

        case = InequalityCase("nan-case", [("x", 1.0, 2.0, False)], lambda p: p["x"] * math.nan)
        monkeypatch.setitem(INEQUALITY_CASES, case.id, case)
        code, out, _ = run(capsys, "verify", "--inequality", "nan-case",
                           "--samples", "1000", "--format", "json")
        assert code == 3
        assert json.loads(out)["status"] == "Inconclusive"

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
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--kinds", "F_Starlike", "--mu-grid", "1", "--seed", "0"])
        assert exc_info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kinds", "F_Starlike", "--mu-grid", "1"],
        ["theorems", "--mu-grid", "1", "--level", "sequence"],
    ])
    def test_radii_only_on_verify(self, capsys, argv):
        # no sweep or theorem verdict reads the interior lattice
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--radii", "16"])
        assert exc_info.value.code == 2
        assert "--radii" in capsys.readouterr().err

    @pytest.mark.parametrize("mu_grid", ["nan", "1,inf"])
    def test_thresholds_non_finite_mu_exits_2(self, capsys, mu_grid):
        code, out, err = run(capsys, "thresholds", "--mu-grid", mu_grid)
        assert code == 2
        assert out == "" and "mu must be finite" in err

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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects unknown flags this way
            code = exc.code
        capsys.readouterr()
        assert code != 2


class TestColdImport:
    def test_package_and_cli_import_no_scipy(self):
        src = str(Path(mathieu_geom.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, mathieu_geom, mathieu_geom.cli; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestDerivedTables:
    """The CLI's names and rows come from the library's tables; the
    benchmark's command pools rely on these exact names."""

    def test_help_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert set(_FUNCTIONAL_NAMES) == {"ratio-halfplane", "deriv-halfplane",
                                          "starlike", "close-to-convex"}
        assert "--functional {close-to-convex,deriv-halfplane,ratio-halfplane,starlike}" in out
        assert ("--criterion {ozaki,fejer-starlike,fejer-halfplane,"
                "fejer-halfplane-deriv,goodman}") in out

    @pytest.mark.parametrize("fmt,render", [("csv", records_to_csv), ("json", records_to_json)])
    def test_sweep_prints_the_records(self, capsys, fmt, render):
        kinds, mu_grid = ["F_Starlike", "Q_Starlike"], [1.0, 2.0]
        code, out, _ = run(capsys, "sweep", "--kinds", ",".join(kinds),
                           "--mu-grid", "2,1", "--format", fmt)
        assert code == 0
        assert out == render(sweep(kinds, mu_grid)).rstrip("\n") + "\n"

    def test_thresholds_prints_the_threshold_rows(self, capsys):
        rows = [{"kind": k.value, "mu": mu, "sufficient_r": threshold(k, mu)}
                for k in ThresholdKind for mu in (0.5, 2.0) if not mu < MU_MIN.get(k, 0.0)]
        _, out, _ = run(capsys, "thresholds", "--mu-grid", "0.5,2", "--format", "json")
        assert json.loads(out) == {"thresholds": rows}
        _, out, _ = run(capsys, "thresholds", "--mu-grid", "0.5,2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "kind,mu,sufficient_r"
        assert lines[1:] == [f"{r['kind']},{r['mu']!r},{r['sufficient_r']!r}" for r in rows]
