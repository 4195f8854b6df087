"""Tests of the benchmark itself (not of the package).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import child  # noqa: E402
import pools  # noqa: E402
import record  # noqa: E402
import workloads  # noqa: E402
from common import BENCH_DIR, ROOT, at_reference_speed, percentile, tail_percentile  # noqa: E402
from run import complete_rounds, judge, module_import_ms  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

REF = json.loads((BENCH_DIR / "reference.json").read_text())


# --- job lists --------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_job_list_depends_only_on_seed(name):
    pool = REF["workloads"][name]
    n = 3 * len(pools.PATTERNS[name])
    a = pools.job_list(name, pool, 7, n)
    assert a == pools.job_list(name, pool, 7, n)
    assert a != pools.job_list(name, pool, 8, n)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rounds_follow_the_pattern(name):
    pool = REF["workloads"][name]
    pattern = pools.PATTERNS[name]
    jobs = pools.job_list(name, pool, 3, 2 * len(pattern))
    for k, (rnd, idx) in enumerate(jobs):
        assert rnd == k // len(pattern)
        assert pool[idx]["stratum"] == pattern[k % len(pattern)]
    # a stratum repeats a job only after all of its jobs have been taken
    first = [idx for rnd, idx in jobs if rnd == 0]
    for stratum in set(pattern):
        taken = [i for i in first if pool[i]["stratum"] == stratum]
        assert len(set(taken)) == len(taken)


@pytest.mark.parametrize("name,n", [("sweep-sequence", 1300), ("disk-ledger", 608)])
def test_seeds_take_different_subsets_of_the_pool(name, n):
    # n: about the jobs a run takes; the pool holds more, without repeats
    pool = REF["workloads"][name]
    a = {idx for _, idx in pools.job_list(name, pool, 5, n)}
    b = {idx for _, idx in pools.job_list(name, pool, 6, n)}
    assert len(a) == len(b) == n < len(pool)
    assert a != b


def test_disk_ledger_pool_holds_whole_rounds():
    pattern = pools.PATTERNS["disk-ledger"]
    pool = REF["workloads"]["disk-ledger"]
    assert len(pool) == pools.DISK_LEDGER_ROUNDS_IN_POOL * len(pattern)
    for stratum in set(pattern):
        assert sum(j["stratum"] == stratum for j in pool) == (
            pools.DISK_LEDGER_ROUNDS_IN_POOL * pattern.count(stratum))


def test_summaries_use_whole_rounds():
    recs = [(0, 0, None, 1.0), (0, 1, None, 1.0), (1, 2, None, 0.5), (1, 3, None, 0.5), (2, 4, None, 9.0)]
    kept = complete_rounds(recs, 2)
    assert [r[1] for r in kept] == [0, 1, 2, 3]
    assert complete_rounds(recs[:4], 2) == recs[:4]
    assert complete_rounds(recs[:1], 2) == recs[:1]     # no whole round: all


# --- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n,q", [(5, 100.0), (19, 100.0), (20, 50.0), (40, 75.0), (100, 90.0),
                                 (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10**4, 99.9)])
def test_tail_percentile_rule(n, q):
    assert tail_percentile(n) == q


@pytest.mark.parametrize("n", range(1, 3000, 37))
def test_tail_percentile_has_ten_jobs_beyond_it(n):
    q = tail_percentile(n)
    if q < 100.0:
        assert n * (1 - q / 100) >= 10 - 1e-9
    higher = [h for h in (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9) if h > q]
    assert all(n * (1 - h / 100) < 10 for h in higher)


def test_percentile_interpolates():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 100) == 100
    assert percentile([3.0], 95) == 3.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_tail_is_fixed_by_the_rule(name):
    wl = workloads.make(name, ROOT)
    assert wl.tail_pct == tail_percentile(wl.summary_jobs)


# --- machine speed ----------------------------------------------------------

def test_times_scale_by_the_probes_around_them():
    times = [1.0, 1.0, 1.0, 1.0]
    probes = [2.0, 2.0, 4.0, 4.0, 4.0]      # the machine halves its speed during job 1
    assert at_reference_speed(times, probes, 2.0, 0) == pytest.approx([1.0, 2 / 3, 0.5, 0.5])
    assert at_reference_speed(times, probes, 2.0, 1) == pytest.approx([1.0, 2 / 3, 0.5, 0.5])
    assert at_reference_speed([1.1, 1.0], [2.0, 2.0, 2.0], 2.0, 5) == pytest.approx([1.1, 1.0])


# --- spans ------------------------------------------------------------------

def test_self_time_of_a_span_tree():
    spans = [
        Span("explorer.bisect_failure_r", 0.0, 10.0),
        Span("explorer.probe_passes", 1.0, 4.0, parent=0),
        Span("criteria.check_ozaki", 1.5, 3.5, parent=1),
        Span("series.log_values_at", 2.0, 2.5, parent=2),
        Span("explorer.probe_passes", 5.0, 9.0, parent=0),
        Span("criteria.check_ozaki", 5.0, 6.0, parent=4),
        Span("criteria.check_ozaki", 5.5, 7.0, parent=4),    # overlaps its sibling
        Span("series.log_values_at", 8.5, 9.5, parent=4),    # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 1.5, 0.5, 1.5, 1.0, 1.5, 1.0])
    m = layer_metrics(spans, n_jobs=2)
    assert m["explorer.self_ms"][0] == pytest.approx(1e3 * (3.0 + 1.0 + 1.5) / 2)
    assert m["criteria.self_ms"][0] == pytest.approx(1e3 * (1.5 + 1.0 + 1.5) / 2)
    assert m["series.self_ms"][0] == pytest.approx(1e3 * 1.5 / 2)
    assert m["explorer.probes_per_row"][0] == 2.0


def test_tracer_records_nested_layers_and_restores():
    from mathieu_geom import explorer

    original = explorer.probe_passes
    tracer = Tracer().install()
    try:
        rec = explorer.bisect_failure_r("F_CloseToConvex", 1.0, probe="sequence")
    finally:
        tracer.uninstall()
    assert explorer.probe_passes is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "explorer.bisect_failure_r" and tracer.spans[0].parent == -1
    m = layer_metrics(tracer.spans, n_jobs=1)
    assert m["explorer.rows"][0] == 1.0
    assert m["explorer.useful_share"][0] == (1.0 if rec.status == "ok" else 0.0)
    assert m["explorer.probes"][0] == names.count("explorer.probe_passes") > 2
    assert m["criteria.calls"][0] == m["explorer.probes"][0]
    assert m["criteria.terms_checked"][0] == 500 * m["criteria.calls"][0]
    assert m["series.coeffs_generated"][0] >= m["criteria.terms_checked"][0]
    assert all(s.end >= s.start for s in tracer.spans)
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


# --- reference verdicts -----------------------------------------------------

def test_reference_round_trips():
    assert json.loads(record.dump(REF)) == REF
    rebuilt = record.build_pools()
    for name, pool in REF["workloads"].items():
        assert [{k: v for k, v in job.items() if k != "verdict"} for job in pool] == rebuilt[name]


@pytest.mark.parametrize("name", ["sweep-sequence", "disk-ledger"])
def test_reference_verdicts_reproduce(name):
    pool = REF["workloads"][name]
    wl = workloads.make(name, ROOT)
    for job in pool[:: max(1, len(pool) // 6)]:
        out = wl.run(job)
        assert wl.matches(job["verdict"], out), job
        assert wl.check(job, out) == []


def test_recorded_truncation_is_no_verdict_but_not_a_failure():
    wl = workloads.make("disk-ledger", ROOT)
    pool = [{"verdict": workloads.TRUNCATED}, {"verdict": "Holds"}]
    truncated = workloads.Outcome(workloads.TRUNCATED, raised=True)
    other_error = workloads.Outcome({"error": "ParameterDomainError"}, raised=True)

    def outcome_counts(outcomes):
        failed, no_verdict, wrong = judge(wl, pool, [(0, i, out, 0.0) for i, out in outcomes], 0)
        return failed, no_verdict, len(wrong)

    assert outcome_counts([(0, truncated), (1, workloads.Outcome("Holds"))]) == (0, 1, 0)
    # answering where the cap was hit is not a failure; the check decides
    assert outcome_counts([(0, workloads.Outcome("Violated"))]) == (0, 0, 0)
    assert outcome_counts([(0, other_error)]) == (1, 1, 1)
    assert outcome_counts([(1, truncated)]) == (1, 1, 1)
    assert outcome_counts([(1, workloads.Outcome("Violated"))]) == (1, 1, 1)


def test_cli_traced_and_untraced_sides_agree(tmp_path):
    wl = workloads.make("cli-cold", tmp_path)
    job = {"argv": ["eval", "--family", "S", "--r", "2.0", "--format", "json"]}
    span_file = tmp_path / "spans.json"
    plain, untraced, traced = wl.run(job), wl.run(job, spans="-"), wl.run(job, spans=str(span_file))
    assert plain.verdict == untraced.verdict == traced.verdict == 0
    assert plain.payload == untraced.payload == traced.payload
    assert not workloads.cli_expected(job["argv"])[1](untraced.payload)
    names = [span[0] for span in json.loads(span_file.read_text())]
    assert names[0] == "cli.main" and "series.eval_S" in names


def test_cli_reference_codes_reproduce():
    for job in REF["workloads"]["cli-cold"][::12]:
        assert child.run_cli(job["argv"]) == job["verdict"]
        assert workloads.cli_expected(job["argv"])[0] == job["verdict"]


# --- the independent checks catch wrong output ------------------------------

def test_sweep_check_catches_a_shifted_radius():
    wl = workloads.make("sweep-sequence", ROOT)
    job = REF["workloads"]["sweep-sequence"][0]
    out = wl.run(job)
    assert wl.check(job, out) == []
    out.payload.empirical_r *= 0.9
    assert wl.check(job, out)


def test_disk_check_catches_a_wrong_minimum():
    wl = workloads.make("disk-ledger", ROOT)
    job = next(j for j in REF["workloads"]["disk-ledger"] if j["verdict"] == "Holds")
    out = wl.run(job)
    assert wl.check(job, out) == []
    out.payload.min_value += 1e-6
    assert wl.check(job, out)


def test_ledger_check_catches_a_wrong_margin():
    wl = workloads.make("disk-ledger", ROOT)
    job = next(j for j in REF["workloads"]["disk-ledger"] if j.get("samples", 10**9) < 5000)
    out = wl.run(job)
    assert wl.check(job, out) == []
    out.payload.min_margin = out.payload.min_margin * (1 + 1e-6) + 1e-9
    assert wl.check(job, out)


def test_cli_check_compares_payload():
    argv = ["eval", "--family", "S", "--r", "2.0", "--format", "json"]
    code, compare = workloads.cli_expected(argv)
    from mathieu_geom.series import eval_S

    good = {"value": eval_S(2.0).value, "truncation_index": eval_S(2.0).truncation_index}
    assert code == 0 and compare(good) == []
    assert compare({**good, "value": good["value"] + 1e-9})


def test_independent_probe_agrees_at_a_known_edge():
    # F close-to-convexity fails exactly past r = sqrt(2) at mu = 1
    assert workloads.sequence_probe("F_CloseToConvex", 1.0, math.sqrt(2.0) - 1e-6)
    assert not workloads.sequence_probe("F_CloseToConvex", 1.0, math.sqrt(2.0) + 1e-6)


# --- README and import parsing ----------------------------------------------

def test_readme_commands_are_found():
    cmds = child.readme_commands((ROOT / "README.md").read_text())
    assert len(cmds) >= 10
    assert ["sweep", "--kinds", "all", "--mu-grid", "0.5,1,2,5", "--out", "sweep.csv"] in cmds


def test_module_import_ms_parses_importtime():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        900 |   numpy",
        "import time:        50 |       2000 |       scipy.integrate._quadpack",
        "import time:        50 |       1000 |       scipy.integrate._ode",
        "import time:        50 |        500 |         scipy.integrate._ode.x",
        "import time:        10 |       5000 | mathieu_geom",
    ])
    assert module_import_ms(log, "numpy") == 0.9
    assert module_import_ms(log, "scipy.integrate") == 3.0
    assert module_import_ms(log, "mathieu_geom") == 5.0
    assert module_import_ms(log, "scipy.stats") == 0.0
