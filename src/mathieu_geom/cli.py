"""Command-line interface.

Subcommands: eval, coeffs, verify, thresholds, sweep, examples, theorems.
stdout carries data, stderr diagnostics.  Exit codes: 0 verified/holds/pass,
1 falsified/violated, 2 domain or usage error, 3 inconclusive, 141 stdout
closed by its reader.  Every report is rendered by report_dict: its fields
in declared order, and a field that has a default only when it is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, is_dataclass
from enum import Enum

from .criteria import CRITERIA, DEFAULT_TERMS, check_goodman, run_criterion
from .diskcheck import DiskGrid, Functional, dump_grid_csv, verify_functional
from .explorer import DEFAULT_BISECT_TOL, EXPLORE_TERMS, sweep, theorem_matrix
from .params import ConfigurationError, MathieuGeomError, ParamSet
from .series import (
    DEFAULT_TOL,
    CoefficientSeq,
    Family,
    S_integral_rule,
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


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigurationError, which main prints as one line."""

    def error(self, message):
        raise ConfigurationError(message)


def parse_complex(text: str) -> complex:
    """Parse --z in Python complex syntax, with a trailing i also read as j:
    'a+bi', 'a', 'bi', '-i'; spaces are ignored."""
    z = text.replace(" ", "")
    return complex(z[:-1] + "j" if z.endswith("i") else z)


def float_list(text: str) -> list[float]:
    """Parse --mu-grid: comma-separated numbers."""
    return [float(m) for m in text.split(",")]


def kind_list(text: str) -> list[ThresholdKind]:
    """Parse --kinds: 'all' or a comma-separated list of ThresholdKind values."""
    names = [k.value for k in ThresholdKind]
    chosen = names if text == "all" else text.split(",")
    if not set(chosen) <= set(names):
        raise argparse.ArgumentTypeError(f"takes all or some of {','.join(names)}, got {text!r}")
    return [ThresholdKind(k) for k in chosen]


@contextmanager
def _writing(flag: str):
    """An OSError while writing the path of flag is a usage error."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"argument {flag}: {exc}") from exc


def _seq_from_flags(args) -> CoefficientSeq:
    if args.mu is None or args.r is None:
        seq = CoefficientSeq(args.family)  # F and Q raise: they require both
        if args.mu is None and args.r is None:
            return seq
        given = "--r" if args.mu is None else "--mu"
        raise ConfigurationError(f"--family {args.family} takes no --mu or --r, got {given}")
    return CoefficientSeq(args.family, ParamSet(args.mu, args.r))


def _grid_from_flags(args) -> DiskGrid:
    # only verify shapes the interior lattice; elsewhere it never changes a verdict
    return DiskGrid(getattr(args, "radii", DiskGrid.n_radii), args.angles, args.max_radius)


def _emit(payload: dict | list, rows: list[dict], args) -> None:
    """Render one result to --out or stdout: json payload, csv rows, or human lines."""
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
    elif isinstance(payload, dict):
        out = "\n".join(f"{k}: {v}" for k, v in payload.items())
    else:  # human lines the command rendered itself
        out = "\n".join(payload)
    if args.out:
        with _writing("--out"), open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out, flush=True)  # a closed pipe raises here, inside main


def report_dict(rep) -> dict:
    """A report dataclass as its output dict: fields in declared order, an
    Enum as its value, a complex field x as x_re and x_im, a nested dataclass
    whole; a field that has a default is left out while it holds it."""
    out = {}
    for f in fields(rep):
        v = getattr(rep, f.name)
        if f.default is not MISSING and v == f.default:
            continue
        if isinstance(v, Enum):
            v = v.value
        if isinstance(v, complex):
            out[f"{f.name}_re"], out[f"{f.name}_im"] = v.real, v.imag
        else:
            out[f.name] = asdict(v) if is_dataclass(v) else v
    return out


def cmd_eval(args) -> int:
    if args.family in ("S", "S-integral"):
        if args.mu is not None or args.z is not None:
            given = "--mu" if args.mu is not None else "--z"
            raise ConfigurationError(f"--family {args.family} takes no --mu or --z, got {given}")
        if args.r is None:
            raise MathieuGeomError("classical Mathieu series requires --r")
        if args.family == "S":
            payload = report_dict(eval_S(args.r, args.tol))
        else:
            rule = S_integral_rule(args.r, args.tol)
            payload = {"value": eval_S_integral(args.r, args.tol),
                       "error_bound": rule.error_bound, "nodes": rule.nodes}
    elif args.z is None:
        raise MathieuGeomError("power-series families require --z")
    else:
        payload = report_dict(eval_series(_seq_from_flags(args), args.z, args.tol))
    _emit(payload, [payload], args)
    return 0


def cmd_coeffs(args) -> int:
    seq = _seq_from_flags(args)
    rows = [{"n": n, "value": v, "log_value": lv} for n, v, lv in seq.prefix(args.n)]
    _emit({"family": args.family, "coefficients": rows}, rows, args)
    return 0


def cmd_verify(args) -> int:
    if args.criterion:
        rep = run_criterion(args.criterion, _seq_from_flags(args), args.terms)
    elif args.functional:
        seq = _seq_from_flags(args)
        grid = _grid_from_flags(args)
        functional = _FUNCTIONAL_NAMES[args.functional]
        rep = verify_functional(functional, seq, grid=grid)
        if args.dump_grid:
            with _writing("--dump-grid"):
                dump_grid_csv(functional, seq, None, grid, args.dump_grid)
    else:
        rep = verify_inequality(args.inequality, args.samples, args.seed)
    payload = report_dict(rep)
    _emit(payload, [payload], args)
    return {"Verified": 0, "Holds": 0, "Inconclusive": 3}.get(rep.status.value, 1)


def cmd_thresholds(args) -> int:
    rows = [{"kind": kind.value, "mu": mu, "sufficient_r": threshold(kind, mu)}
            for kind, mu in hypothesis_pairs(args.kinds, args.mu_grid)]
    _emit({"thresholds": rows}, rows, args)
    return 0


def cmd_sweep(args) -> int:
    records = sweep(args.kinds, args.mu_grid, probe=args.probe, r_hi=args.r_hi, tol=args.tol,
                    n_terms=args.terms, grid=_grid_from_flags(args))
    rows = [report_dict(rec) for rec in records]
    _emit(rows, rows, args)
    return 0


def cmd_examples(args) -> int:
    reports = {
        "SHat_goodman": check_goodman(CoefficientSeq(Family.SHAT), args.terms),
        "DoubleFactorial_goodman": check_goodman(
            CoefficientSeq(Family.DOUBLE_FACTORIAL), args.terms),
    }
    payload = {name: report_dict(rep) for name, rep in reports.items()}
    rows = [{"check": name, **d} for name, d in payload.items()]
    payload["S_at_1"] = eval_S(1.0, 1e-12).value
    rows.append({"check": "S_at_1", "value": payload["S_at_1"]})
    _emit(payload, rows, args)
    return 0 if all(rep.ok for rep in reports.values()) else 1


def cmd_theorems(args) -> int:
    levels = ("sequence", "disk") if args.level == "both" else (args.level,)
    rows = theorem_matrix(args.mu_grid, n_terms=args.terms,
                          grid=_grid_from_flags(args), levels=levels)
    human = [f"{'PASS' if row['pass'] else 'FAIL'} {row['kind']:>18s} "
             f"mu={row['mu']:<6g} r={row['r']:.6f}" for row in rows]
    _emit(human if args.format == "human" else {"matrix": rows}, rows, args)
    return 0 if all(row["pass"] for row in rows) else 1


def _add_common_output(p):
    p.add_argument("--format", choices=["json", "csv", "human"], default="human")
    p.add_argument("--out", help="write output to this path instead of stdout")


def _add_family_flags(p, *extra):
    p.add_argument("--family", default="F", choices=[f.value for f in Family] + list(extra))
    p.add_argument("--mu", type=float)
    p.add_argument("--r", type=float)


def _add_grid_flags(p):
    p.add_argument("--angles", type=int, default=DiskGrid.n_angles,
                   help="first number of circle points")
    p.add_argument("--max-radius", type=float, default=DiskGrid.max_radius)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mathieu-geom",
        description="Evaluate generalized Mathieu power series and verify "
                    "their geometric mapping properties on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a series at a point")
    _add_family_flags(p, "S", "S-integral")
    p.add_argument("--z", type=parse_complex, help="evaluation point, e.g. 0.5+0.25i")
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
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--criterion", choices=list(CRITERIA))
    mode.add_argument("--functional", choices=sorted(_FUNCTIONAL_NAMES))
    mode.add_argument("--inequality", choices=sorted(INEQUALITY_CASES))
    p.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-grid", help="CSV path for per-point functional values")
    p.add_argument("--radii", type=int, default=DiskGrid.n_radii,
                   help="interior lattice radii (--dump-grid)")
    _add_grid_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("thresholds", help="closed-form sufficient radii")
    p.add_argument("--kinds", type=kind_list, default="all")
    p.add_argument("--mu-grid", type=float_list, default="0.5,1,2,5")
    _add_common_output(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("sweep", help="bisect empirical failure radii")
    p.add_argument("--kinds", type=kind_list, default="all")
    p.add_argument("--mu-grid", type=float_list, default="0.5,1,2,5")
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
    p.add_argument("--mu-grid", type=float_list, default="0.5,1,2,5")
    p.add_argument("--level", choices=["sequence", "disk", "both"], default="both")
    p.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    _add_grid_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_theorems)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MathieuGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: what is left goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
