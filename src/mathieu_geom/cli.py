"""Command-line interface.

Subcommands: eval, coeffs, verify, thresholds, sweep, examples, theorems.
stdout carries data, stderr carries diagnostics.  Exit codes:
0 verified/holds/pass, 1 falsified/violated, 2 domain or usage error,
3 inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .criteria import CRITERIA, DEFAULT_TERMS, CriterionReport, Status, check_goodman, run_criterion
from .diskcheck import (
    DEFAULT_TOLERANCE,
    DiskGrid,
    DiskReport,
    DiskStatus,
    Functional,
    dump_grid_csv,
    verify_functional,
)
from .explorer import DEFAULT_BISECT_TOL, EXPLORE_TERMS, record_to_dict, sweep, theorem_matrix
from .params import MathieuGeomError, ParamSet
from .series import (
    DEFAULT_TOL,
    CoefficientSeq,
    Family,
    eval_S,
    eval_S_integral,
    eval_series,
)
from .thresholds import (
    INEQUALITY_CASES,
    ThresholdKind,
    hypothesis_pairs,
    threshold,
    verify_inequality,
)

_FUNCTIONAL_NAMES = {f.name.lower().replace("_", "-"): f for f in Functional}


def parse_complex(text: str) -> complex:
    """Parse Python complex syntax, with a trailing i also read as j:
    'a+bi', 'a', 'bi', '-i'; spaces are ignored."""
    text = text.replace(" ", "")
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def _seq_from_flags(args) -> CoefficientSeq:
    if args.mu is None and args.r is None:
        return CoefficientSeq(args.family)
    return CoefficientSeq(args.family, ParamSet(args.mu, args.r))


def _grid_from_flags(args) -> DiskGrid:
    # only verify shapes the interior lattice; elsewhere it never changes a verdict
    return DiskGrid(getattr(args, "radii", DiskGrid.n_radii), args.angles, args.max_radius)


def _emit(payload: dict | list, rows: list[dict], args) -> None:
    """Render one result: json payload, csv rows, or human key: value lines."""
    fmt = args.format
    if fmt == "json":
        out = json.dumps(payload, indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            # union of the rows' keys, first seen first
            fieldnames = list(dict.fromkeys(k for row in rows for k in row))
            writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        out = buf.getvalue().rstrip("\n")
    else:
        out = "\n".join(f"{k}: {v}" for k, v in payload.items())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def criterion_report_dict(rep: CriterionReport) -> dict:
    d = {
        "criterion": rep.criterion,
        "status": rep.status.value,
        "terms_checked": rep.terms_checked,
        "min_margin": rep.min_margin,
    }
    if rep.witness is not None:
        d["witness"] = {"n": rep.witness.n, "lhs": rep.witness.lhs,
                        "rhs": rep.witness.rhs}
    if rep.argmin_point is not None:
        d["argmin_point"] = rep.argmin_point
    if rep.detail:
        d["detail"] = rep.detail
    return d


def disk_report_dict(rep: DiskReport) -> dict:
    return {
        "functional": rep.functional.value,
        "status": rep.status.value,
        "min_value": rep.min_value,
        "bound": rep.bound,
        "argmin_re": rep.argmin.real,
        "argmin_im": rep.argmin.imag,
        "grid": {"n_radii": rep.grid.n_radii, "n_angles": rep.grid.n_angles,
                 "max_radius": rep.grid.max_radius},
        "terms": rep.terms,
        "tail_bound": rep.tail_bound,
        "m": rep.m, "discretisation_bound": rep.discretisation_bound,
        "lower_bound": rep.lower_bound, "winding": rep.winding,
    }


def _status_exit(status) -> int:
    if status in (Status.VERIFIED, DiskStatus.HOLDS):
        return 0
    if status in (Status.INCONCLUSIVE, DiskStatus.INCONCLUSIVE):
        return 3
    return 1


def cmd_eval(args) -> int:
    if args.family in ("S", "S-integral"):
        if args.r is None:
            raise MathieuGeomError("classical Mathieu series requires --r")
        if args.family == "S":
            res = eval_S(args.r, args.tol)
            payload = {"value": res.value, "truncation_index": res.truncation_index,
                       "tail_bound": res.tail_bound}
        else:
            payload = {"value": eval_S_integral(args.r, max(args.tol, 1e-12))}
        _emit(payload, [payload], args)
        return 0
    if args.z is None:
        raise MathieuGeomError("power-series families require --z")
    res = eval_series(_seq_from_flags(args), parse_complex(args.z), args.tol)
    payload = {
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "truncation_index": res.truncation_index,
        "tail_bound": res.tail_bound,
    }
    _emit(payload, [payload], args)
    return 0


def cmd_coeffs(args) -> int:
    seq = _seq_from_flags(args)
    rows = [{"n": n, "value": v, "log_value": lv} for n, v, lv in seq.prefix(args.n)]
    _emit({"family": args.family, "coefficients": rows}, rows, args)
    return 0


def cmd_verify(args) -> int:
    chosen = [bool(args.criterion), bool(args.functional), bool(args.inequality)]
    if sum(chosen) != 1:
        raise MathieuGeomError(
            "choose exactly one of --criterion, --functional, --inequality")
    if args.criterion:
        rep = run_criterion(args.criterion, _seq_from_flags(args), args.terms)
        payload = criterion_report_dict(rep)
    elif args.functional:
        seq = _seq_from_flags(args)
        grid = _grid_from_flags(args)
        functional = _FUNCTIONAL_NAMES[args.functional]
        rep = verify_functional(functional, seq, grid=grid, tolerance=args.tolerance)
        if args.dump_grid:
            dump_grid_csv(functional, seq, None, grid, args.dump_grid)
        payload = disk_report_dict(rep)
    else:
        rep = verify_inequality(args.inequality, args.samples, args.seed)
        payload = criterion_report_dict(rep)
    _emit(payload, [payload], args)
    return _status_exit(rep.status)


def _parse_kinds(text: str) -> list[ThresholdKind]:
    """'all' or a comma-separated list of ThresholdKind values."""
    if text == "all":
        return list(ThresholdKind)
    return [ThresholdKind(k) for k in text.split(",")]


def _parse_mu_grid(args) -> list[float]:
    return [float(m) for m in args.mu_grid.split(",")]


def cmd_thresholds(args) -> int:
    pairs = hypothesis_pairs(_parse_kinds(args.kinds), _parse_mu_grid(args))
    rows = [{"kind": kind.value, "mu": mu, "sufficient_r": threshold(kind, mu)}
            for kind, mu in pairs]
    _emit({"thresholds": rows}, rows, args)
    return 0


def cmd_sweep(args) -> int:
    records = sweep(_parse_kinds(args.kinds), _parse_mu_grid(args), probe=args.probe,
                    r_hi=args.r_hi, tol=args.tol, n_terms=args.terms,
                    grid=_grid_from_flags(args))
    rows = [record_to_dict(rec) for rec in records]
    _emit(rows, rows, args)
    return 0


def cmd_examples(args) -> int:
    reports = {
        "SHat_goodman": check_goodman(CoefficientSeq(Family.SHAT), args.terms),
        "DoubleFactorial_goodman": check_goodman(
            CoefficientSeq(Family.DOUBLE_FACTORIAL), args.terms),
    }
    payload = {}
    rows = []
    all_ok = True
    for name, rep in reports.items():
        payload[name] = criterion_report_dict(rep)
        rows.append({"check": name, **criterion_report_dict(rep)})
        all_ok = all_ok and rep.ok
    s1 = eval_S(1.0, 1e-12)
    payload["S_at_1"] = s1.value
    rows.append({"check": "S_at_1", "value": s1.value})
    _emit(payload, rows, args)
    return 0 if all_ok else 1


def cmd_theorems(args) -> int:
    levels = ("sequence", "disk") if args.level == "both" else (args.level,)
    rows = theorem_matrix(_parse_mu_grid(args), n_terms=args.terms,
                          grid=_grid_from_flags(args), levels=levels)
    if args.format == "human":
        for row in rows:
            mark = "PASS" if row["pass"] else "FAIL"
            print(f"{mark} {row['kind']:>18s} mu={row['mu']:<6g} r={row['r']:.6f}")
    else:
        _emit({"matrix": rows}, rows, args)
    return 0 if all(row["pass"] for row in rows) else 1


def _add_common_output(p):
    p.add_argument("--format", choices=["json", "csv", "human"], default="human")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_family_flags(p):
    p.add_argument("--family", default="F",
                   choices=["F", "Q", "SHat", "DoubleFactorial", "S", "S-integral"])
    p.add_argument("--mu", type=float)
    p.add_argument("--r", type=float)


def _add_grid_flags(p):
    p.add_argument("--angles", type=int, default=DiskGrid.n_angles,
                   help="first number of circle points")
    p.add_argument("--max-radius", type=float, default=DiskGrid.max_radius)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathieu-geom",
        description="Evaluate generalized Mathieu power series and verify "
                    "their geometric mapping properties on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a series at a point")
    _add_family_flags(p)
    p.add_argument("--z", help="evaluation point, e.g. 0.5+0.25i")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_common_output(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coeffs", help="print a coefficient prefix")
    _add_family_flags(p)
    p.add_argument("--n", type=int, default=20)
    _add_common_output(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("verify", help="run one criterion/functional/inequality")
    _add_family_flags(p)
    p.add_argument("--criterion", choices=list(CRITERIA))
    p.add_argument("--functional", choices=sorted(_FUNCTIONAL_NAMES))
    p.add_argument("--inequality", choices=sorted(INEQUALITY_CASES))
    p.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--dump-grid", help="CSV path for per-point functional values")
    p.add_argument("--radii", type=int, default=DiskGrid.n_radii,
                   help="interior lattice radii (--dump-grid)")
    _add_grid_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("thresholds", help="closed-form sufficient radii")
    p.add_argument("--kinds", default="all")
    p.add_argument("--mu-grid", default="0.5,1,2,5")
    _add_common_output(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("sweep", help="bisect empirical failure radii")
    p.add_argument("--kinds", default="all")
    p.add_argument("--mu-grid", default="0.5,1,2,5")
    p.add_argument("--probe", choices=["sequence", "disk"], default="sequence")
    p.add_argument("--r-hi", type=float)
    p.add_argument("--tol", type=float, default=DEFAULT_BISECT_TOL)
    p.add_argument("--terms", type=int, default=EXPLORE_TERMS)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("examples", help="run the fixed example-family checks")
    p.add_argument("--terms", type=int, default=10**4)
    _add_common_output(p)
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("theorems", help="run the full theorem matrix")
    p.add_argument("--mu-grid", default="0.5,1,2,5")
    p.add_argument("--level", choices=["sequence", "disk", "both"], default="both")
    p.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    _add_grid_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_theorems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MathieuGeomError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
