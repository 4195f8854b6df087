"""Sharpness explorer: bisection, sweep determinism, coherence."""

import json
import math

import pytest

from mathieu_geom.cli import main
from mathieu_geom.explorer import (
    ThresholdRecord,
    bisect_failure_r,
    probe_passes,
    sweep,
)
from mathieu_geom.diskcheck import DiskGrid
from mathieu_geom.params import ConfigurationError, HypothesisError
from mathieu_geom.thresholds import ThresholdKind, threshold


class TestBisect:
    def test_F_close_to_convex_linear_scan_oracle(self):
        # independent oracle: scan r upward in fine steps and take the
        # last passing radius before the first failure
        kind = ThresholdKind.F_CLOSE_TO_CONVEX
        mu = 0.25
        rec = bisect_failure_r(kind, mu, tol=1e-6)
        assert rec.status == "ok"
        step = 1e-3
        r = rec.sufficient_r
        while probe_passes(kind, mu, r + step):
            r += step
        assert abs(rec.empirical_r - r) <= step + 1e-6
        assert rec.gap >= -1e-6

    def test_F_close_to_convex_is_sharp_at_mu_1(self):
        # the chain 1 >= 2 a_2 fails exactly at r = sqrt(2) when mu = 1
        rec = bisect_failure_r(ThresholdKind.F_CLOSE_TO_CONVEX, 1.0, tol=1e-8)
        assert rec.empirical_r == pytest.approx(math.sqrt(2.0), abs=1e-7)

    def test_F_starlike_gap_visible(self):
        # the closed-form radius 0.62805... is conservative; the sequence
        # criterion keeps holding strictly beyond it
        rec = bisect_failure_r(ThresholdKind.F_STARLIKE, 1.0)
        assert rec.sufficient_r == pytest.approx(0.628051530159756, rel=1e-12)
        assert rec.empirical_r >= rec.sufficient_r
        assert rec.gap >= 0.0

    def test_hypothesis_error_below_mu_min(self):
        with pytest.raises(HypothesisError):
            bisect_failure_r(ThresholdKind.Q_STARLIKE, 1.0)

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            bisect_failure_r(ThresholdKind.F_STARLIKE, 1.0, tol=0.0)
        with pytest.raises(ConfigurationError):
            bisect_failure_r(ThresholdKind.F_STARLIKE, 1.0, r_hi=0.1)
        with pytest.raises(ConfigurationError):
            probe_passes(ThresholdKind.F_STARLIKE, 1.0, 0.5, probe="nope")

    def test_tolerance_below_the_double_spacing_stops(self, monkeypatch):
        # with tol below the spacing of doubles at r the midpoint rounds to an
        # end; the bisection stops at adjacent doubles instead of spinning
        calls = []
        real = probe_passes

        def counted(*args):
            calls.append(args[2])
            if len(calls) > 300:
                raise RuntimeError("bisection does not stop")
            return real(*args)

        monkeypatch.setattr("mathieu_geom.explorer.probe_passes", counted)
        rec = bisect_failure_r(ThresholdKind.F_STARLIKE, 1.0, tol=1e-20)
        assert rec.status == "ok" and probe_passes(ThresholdKind.F_STARLIKE, 1.0, rec.empirical_r)
        assert not probe_passes(ThresholdKind.F_STARLIKE, 1.0, math.nextafter(rec.empirical_r, math.inf))

    def test_disk_probe_agrees_with_sequence(self):
        # the sequence criteria are sufficient conditions for the disk
        # functionals, so the disk failure radius cannot be smaller
        grid = DiskGrid(8, 32, 0.99)
        seq_rec = bisect_failure_r(ThresholdKind.F_CLOSE_TO_CONVEX, 1.0)
        disk_rec = bisect_failure_r(ThresholdKind.F_CLOSE_TO_CONVEX, 1.0,
                                    probe="disk", grid=grid)
        assert disk_rec.empirical_r >= seq_rec.empirical_r - 1e-6


class TestSweep:
    KINDS = [ThresholdKind.F_CLOSE_TO_CONVEX, ThresholdKind.F_STARLIKE,
             ThresholdKind.Q_STARLIKE]
    MU = [0.5, 1.0, 2.0]

    def test_rows_and_soundness(self):
        records = sweep(self.KINDS, self.MU)
        assert len(records) == len(self.KINDS) * len(self.MU)
        for rec in records:
            if rec.status == "ok":
                assert rec.gap >= -1e-6
                assert rec.sufficient_r == pytest.approx(
                    threshold(rec.kind, rec.mu), rel=1e-15)

    def test_hypothesis_rows_marked_errored(self):
        records = sweep([ThresholdKind.Q_STARLIKE], [0.5, 2.0])
        assert records[0].status.startswith("error:")
        assert math.isnan(records[0].empirical_r)
        assert records[1].status in ("ok", "no_failure_found")

    def test_nan_mu_sorts_last(self):
        records = sweep([ThresholdKind.F_CLOSE_TO_CONVEX], [2.0, math.nan, 1.0])
        assert [r.mu for r in records[:2]] == [1.0, 2.0]
        assert math.isnan(records[2].mu)
        assert [r.status for r in records[:2]] == ["ok", "ok"]
        assert records[2].status.startswith("error:")

    def test_unexpected_errors_propagate(self, monkeypatch):
        # a bug inside a row is not a row-local error: it must abort the sweep
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr("mathieu_geom.explorer.bisect_failure_r", broken)
        with pytest.raises(RuntimeError, match="bug"):
            sweep([ThresholdKind.F_STARLIKE], [1.0])

    @staticmethod
    def cli_sweep(capsys, kinds, mu_grid, fmt):
        """The output of `mathieu-geom sweep` for these rows."""
        argv = ["sweep", "--kinds", ",".join(ThresholdKind(k).value for k in kinds),
                "--mu-grid", ",".join(map(str, mu_grid)), "--format", fmt]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_csv_determinism(self, capsys):
        a = self.cli_sweep(capsys, self.KINDS, self.MU, "csv")
        b = self.cli_sweep(capsys, self.KINDS, self.MU, "csv")
        assert a == b
        header = a.splitlines()[0]
        assert header == "kind,mu,sufficient_r,empirical_r,gap,probe,status"

    def test_json_round_trip(self, capsys):
        records = sweep([ThresholdKind.F_STARLIKE], [1.0])
        data = json.loads(self.cli_sweep(capsys, [ThresholdKind.F_STARLIKE], [1.0], "json"))
        assert data[0]["kind"] == "F_Starlike"
        assert data[0]["gap"] == records[0].gap

    def test_unknown_probe_rejected_before_any_row(self, monkeypatch):
        # a probe name no row can run is a sweep-wide error, not two error rows
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was run")

        monkeypatch.setattr("mathieu_geom.explorer.bisect_failure_r", no_rows)
        with pytest.raises(ConfigurationError, match="unknown probe: bogus"):
            sweep([ThresholdKind.F_STARLIKE], [1.0, 2.0], probe="bogus")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep([], [1.0])
        with pytest.raises(ConfigurationError):
            sweep([ThresholdKind.F_STARLIKE], [])

    def test_no_failure_found_status(self):
        # bounded search window just above the threshold: no failure there
        suff = threshold(ThresholdKind.F_STARLIKE, 1.0)
        rec = bisect_failure_r(ThresholdKind.F_STARLIKE, 1.0,
                               r_hi=suff + 1e-4)
        assert rec.status == "no_failure_found"
        assert rec.empirical_r == pytest.approx(suff + 1e-4)
