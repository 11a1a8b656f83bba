"""Tests for the evaluation harness: registry, measuring a figure's
points, reports."""

from importlib import import_module

import pytest

from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.eval.report import ExperimentResult, render_text, save_csv
from repro.scenarios import (
    MeasureSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    run_scenario,
)
from repro.traffic.synthetic import MAX_ONE_HOP

#: Short windows: these check result plumbing, not paper numbers.
SHORT = MeasureSpec(1000, 3000)


class TestRegistry:
    def test_covers_every_table_and_figure(self):
        """One entry per evaluation artefact of the paper (DESIGN.md §4),
        plus the beyond-the-paper resilience sweep."""
        assert set(EXPERIMENTS) == {
            "table1", "fig2", "fig3", "fig4", "fig6", "fig8", "table2",
            "power", "resilience"}

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestMeasurePoints:
    def test_a_failed_point_raises_and_is_named(self, capsys,
                                                monkeypatch):
        """A figure's layout needs every point: the doomed one (watchdog
        trips at its first check, cycle 2048) is reported by run_sweep
        and then raised, not laid out as a hole."""
        ok = Scenario(traffic=TrafficSpec.uniform(0.5, 1000),
                      measure=MeasureSpec(300, 2500))
        doomed = ok.with_(measure=MeasureSpec(300, 2500, max_wall_s=1e-9))
        monkeypatch.setattr(import_module("repro.eval.table2"), "points",
                            lambda measure, seed: [doomed, ok])
        with pytest.raises(RuntimeError, match="1 of 2 point"):
            run_experiment("table2")
        err = capsys.readouterr().err
        assert doomed.label in err and "SimulationTimeout" in err

    def test_analytic_runner_ignores_cache_and_store(self, tmp_path):
        root = tmp_path / "store"
        cached = run_experiment("fig2", cache="rw", store=root)
        assert render_text(cached) == render_text(run_experiment("fig2"))
        assert not root.exists()


class TestRunners:
    def test_windows(self):
        assert MeasureSpec.full().resolve()[1] \
            > MeasureSpec.quick().resolve()[1]

    def test_uniform_point(self):
        point = run_scenario(Scenario(
            traffic=TrafficSpec.uniform(0.5, 1000), measure=SHORT))
        assert point.throughput_gib_s > 0

    def test_synthetic_point_has_utilization(self):
        point = run_scenario(Scenario(
            traffic=TrafficSpec.synthetic(MAX_ONE_HOP.key, 1000),
            measure=SHORT))
        assert point.utilization_pct is not None
        assert point.utilization_pct > 0

    def test_baseline_point(self):
        point = run_scenario(Scenario(
            topology=TopologySpec.baseline(1, 4),
            traffic=TrafficSpec.uniform(0.1, 1), measure=SHORT))
        assert 0 < point.throughput_gib_s < 2.0
        assert point.counters["aggregate_gib_s"] == pytest.approx(
            16 * point.throughput_gib_s, rel=1e-6)


class TestReportRendering:
    def make_result(self):
        result = ExperimentResult("figX", "demo")
        sec = result.section("numbers", ["name", "value"])
        sec.add("alpha", 1.2345)
        sec.add("beta", 12345.6)
        result.note("a note")
        return result

    def test_render_text(self):
        text = render_text(self.make_result())
        assert "FIGX" in text
        assert "alpha" in text
        assert "note: a note" in text

    def test_row_width_checked(self):
        result = ExperimentResult("figX", "demo")
        sec = result.section("numbers", ["a", "b"])
        with pytest.raises(ValueError):
            sec.add(1)

    def test_save_csv(self, tmp_path):
        paths = save_csv(self.make_result(), tmp_path)
        assert len(paths) == 1
        content = paths[0].read_text().splitlines()
        assert content[0] == "name,value"


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table2" in out

    def test_run_fig2(self, capsys):
        from repro.cli import main
        assert main(["run", "fig2"]) == 0
        assert "34%" in capsys.readouterr().out

    def test_run_with_csv(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["run", "table1", "--csv", str(tmp_path)]) == 0
        assert list(tmp_path.glob("table1_*.csv"))
