"""Spans around the calls into each layer of the package, recorded from
outside the package.

Tracer.install replaces public functions and methods at the names the
calling modules look them up by (explorer.verify_functional,
CoefficientSeq.log_values_at, cli.run_criterion, ...) with wrappers that
record a span per call.  Spans stay in memory; the caller writes them out
at the end.  No `_`-prefixed name of the package is touched.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

LAYERS = ("series", "criteria", "diskcheck", "thresholds", "explorer", "cli")


@dataclass
class Span:
    name: str           # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: int = -1    # index of the enclosing span, -1 at the root
    job: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job, self.attrs]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and merged, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


# What each wrapped call adds to the span's attributes, from its
# arguments and result.
def _n_indices(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"coeffs": int(getattr(n, "size", 1))}


def _truncation(args, kwargs, result):
    return {"eval_terms": int(result.truncation_index)}


def _terms(args, kwargs, result):
    return {"terms": int(result.terms_checked)}


def _disk(args, kwargs, result):
    return {"grid_points": result.grid.n_radii * result.grid.n_angles,
            "verdict": result.status.value}


def _samples(args, kwargs, result):
    return {"samples": int(result.terms_checked)}


def _row(args, kwargs, result):
    return {"status": result.status}


# (module attribute path, layer, attrs extractor).  The owner is found by
# import path; the last component is the attribute replaced on it.
WRAP_POINTS = [
    ("mathieu_geom.series:CoefficientSeq.log_values_at", "series", _n_indices),
    ("mathieu_geom.cli:eval_series", "series", _truncation),
    ("mathieu_geom.cli:eval_S", "series", _truncation),
    ("mathieu_geom.cli:eval_S_integral", "series", None),
    ("mathieu_geom.explorer:check_ozaki", "criteria", _terms),
    ("mathieu_geom.explorer:check_fejer_starlike", "criteria", _terms),
    ("mathieu_geom.explorer:check_fejer_halfplane", "criteria", _terms),
    ("mathieu_geom.cli:run_criterion", "criteria", _terms),
    ("mathieu_geom.cli:check_goodman", "criteria", _terms),
    ("mathieu_geom.diskcheck:verify_functional", "diskcheck", _disk),
    ("mathieu_geom.explorer:verify_functional", "diskcheck", _disk),
    ("mathieu_geom.cli:verify_functional", "diskcheck", _disk),
    ("mathieu_geom.cli:dump_grid_csv", "diskcheck", None),
    ("mathieu_geom.thresholds:verify_inequality", "thresholds", _samples),
    ("mathieu_geom.cli:verify_inequality", "thresholds", _samples),
    ("mathieu_geom.cli:threshold", "thresholds", None),
    ("mathieu_geom.explorer:threshold", "thresholds", None),
    ("mathieu_geom.explorer:bisect_failure_r", "explorer", _row),
    ("mathieu_geom.explorer:probe_passes", "explorer", None),
    ("mathieu_geom.cli:sweep", "explorer", None),
    ("mathieu_geom.cli:main", "cli", None),
]


class Tracer:
    """Collects spans of one process.  Single-threaded: spans nest on a
    stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, extract=None) -> None:
        fn = getattr(owner, attr)
        name = f"{layer}.{attr}"
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1, job=tracer.job)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extract is not None:
                span.attrs.update(extract(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def install(self) -> "Tracer":
        import importlib

        for path, layer, extract in WRAP_POINTS:
            module, _, attr_path = path.partition(":")
            owner = importlib.import_module(module)
            *owners, attr = attr_path.split(".")
            for o in owners:
                owner = getattr(owner, o)
            self.wrap(owner, attr, layer, extract)
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def layer_metrics(spans: list[Span], n_jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised per job so that runs of different
    length compare.  Returns name -> (value, unit)."""
    selfs = self_times(spans)
    per = 1.0 / max(n_jobs, 1)
    self_ms = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    sums: dict[str, float] = {}
    verdict_ms: dict[str, list[float]] = {"Holds": [], "Violated": []}
    explorer_rows = explorer_ok = 0
    for s, st in zip(spans, selfs):
        layer = s.layer
        self_ms[layer] += st * 1e3
        calls[layer] += 1
        for key in ("coeffs", "eval_terms", "terms", "grid_points", "samples"):
            if key in s.attrs:
                sums[key] = sums.get(key, 0) + s.attrs[key]
        if "verdict" in s.attrs:
            verdict_ms[s.attrs["verdict"]].append(st * 1e3)
        if s.name == "explorer.bisect_failure_r":
            explorer_rows += 1
            explorer_ok += s.attrs.get("status") == "ok"
    probes = sum(1 for s in spans if s.name == "explorer.probe_passes")
    disk_calls = len(verdict_ms["Holds"]) + len(verdict_ms["Violated"])

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    m = {
        "series.calls": (calls["series"] * per, "1/job"),
        "series.coeffs_generated": (sums.get("coeffs", 0) * per, "1/job"),
        "series.self_ms": (self_ms["series"] * per, "ms/job"),
        "series.eval_terms": (sums.get("eval_terms", 0) * per, "1/job"),
        "criteria.calls": (calls["criteria"] * per, "1/job"),
        "criteria.terms_checked": (sums.get("terms", 0) * per, "1/job"),
        "criteria.self_ms": (self_ms["criteria"] * per, "ms/job"),
        "diskcheck.calls": (calls["diskcheck"] * per, "1/job"),
        "diskcheck.self_ms": (self_ms["diskcheck"] * per, "ms/job"),
        "diskcheck.grid_points": (sums.get("grid_points", 0) * per, "1/job"),
        "diskcheck.violated_share": (len(verdict_ms["Violated"]) / disk_calls if disk_calls else 0.0, "share"),
        "diskcheck.holds_ms": (mean(verdict_ms["Holds"]), "ms"),
        "diskcheck.violated_ms": (mean(verdict_ms["Violated"]), "ms"),
        "thresholds.calls": (calls["thresholds"] * per, "1/job"),
        "thresholds.samples": (sums.get("samples", 0) * per, "1/job"),
        "thresholds.self_ms": (self_ms["thresholds"] * per, "ms/job"),
        "thresholds.samples_per_s": (
            sums.get("samples", 0) / (self_ms["thresholds"] / 1e3) if self_ms["thresholds"] else 0.0, "1/s"),
        "explorer.rows": (explorer_rows * per, "1/job"),
        "explorer.probes": (probes * per, "1/job"),
        "explorer.probes_per_row": (probes / explorer_rows if explorer_rows else 0.0, "count"),
        "explorer.self_ms": (self_ms["explorer"] * per, "ms/job"),
        "explorer.useful_share": (explorer_ok / explorer_rows if explorer_rows else 0.0, "share"),
        "cli.self_ms": (self_ms["cli"] * per, "ms/job"),
        "cli.commands": (calls["cli"] * per, "1/job"),
    }
    return m
