"""tools/replay.py: the benchmark's recorded jobs replayed on two trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay.py"


def _replay():
    spec = importlib.util.spec_from_file_location("replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_working_tree_replays_identically():
    # a sample of each workload, run twice on the working tree
    proc = subprocess.run([sys.executable, str(TOOL), "--sample", "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"{w}: 3 jobs: 3 identical, 0 moved, 0 failed"
                                        for w in ("disk-ledger", "sweep-sequence", "cli-cold")]


def test_compare_counts_moves_and_crashes():
    # a package error is an output like any other; a crash on either side fails the job
    jobs = [{"n": i} for i in range(5)]
    left = [["ok", "a"], ["ok", "b"], ["error", "TruncationError: cap"], ["crash", "boom"], ["ok", "e"]]
    right = [["ok", "a"], ["ok", "c"], ["error", "TruncationError: cap"], ["ok", "d"], ["error", "E: e"]]
    counts, diffs = _replay().compare(jobs, left, right)
    assert counts == {"identical": 2, "moved": 2, "failed": 1}
    assert [job["n"] for job, _, _ in diffs] == [1, 3, 4]


def test_shown_starts_near_the_first_difference():
    here, there = _replay()._shown(["ok", "x" * 500 + "1"], ["ok", "x" * 500 + "2"])
    assert here.startswith("... ") and here.endswith("x1") and there.endswith("x2")


def test_a_killed_command_fails(tmp_path):
    # a CLI child that dies by a signal writes no traceback, yet never finished
    package = tmp_path / "tree" / "src" / "mathieu_geom"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import os, signal\nos.kill(os.getpid(), signal.SIGKILL)\n")
    out = _replay().run_workload(tmp_path / "tree", "cli-cold", [{"argv": []}], str(tmp_path))
    assert out == [["crash", "exit -9\n"]]
