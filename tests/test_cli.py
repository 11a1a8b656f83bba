"""End-to-end CLI tests: list / info / run / sweep subcommands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cli as cli
import repro.eval.experiments as experiments


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in experiments.EXPERIMENTS:
            assert exp_id in out

    def test_list_imports_neither_numpy_nor_a_simulator(self):
        """``python -m repro list`` at its real entry point: the public
        names of ``repro`` and the registry's runners resolve on use, so
        printing nine lines costs no numpy (0.13 s), no figure module
        and no fabric.  CI runs the same check after tier-1."""
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "list"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].startswith("table1 ")
        imported = {line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "repro.eval.experiments" in imported
        assert not imported & {"numpy", "repro.eval.fig4", "repro.sim",
                               "repro.noc.network", "repro.scenarios"}


class TestInfo:
    def test_info_prints_models(self, capsys):
        assert cli.main(["info", "AXI_32_512_4",
                         "--rows", "4", "--cols", "4", "--mot", "8"]) == 0
        out = capsys.readouterr().out
        assert "AXI_32_512_4 as a 4x4 mesh, MOT=8" in out
        assert "kGE" in out and "GiB/s" in out

    def test_bad_label_raises(self):
        with pytest.raises(ValueError):
            cli.main(["info", "NOT_A_LABEL"])


class TestRun:
    def test_run_fig4_quick_json(self, tmp_path, capsys, figure_store):
        assert cli.main(["run", "fig4", "--quick",
                         "--json", str(tmp_path),
                         "--cache", "rw", "--store", str(figure_store)]) == 0
        out = capsys.readouterr().out
        assert "FIG4" in out
        assert "completed in" in out
        payload = json.loads((tmp_path / "fig4.json").read_text())
        assert payload["exp_id"] == "fig4"
        assert len(payload["sections"]) == 3
        # The saturation summary survives the JSON round-trip.
        sat = payload["sections"][2]
        assert sat["header"] == ["series", "measured_GiB_s", "paper_GiB_s"]
        assert any(row[0] == "burst<64000" for row in sat["rows"])

    def test_seed_flag_accepted(self, capsys):
        # fig2 is analytic (seed-independent) and fast: this only checks
        # flag plumbing; seed sensitivity of measured points is asserted
        # at the scenario level in tests/test_scenarios.py.
        assert cli.main(["run", "fig2", "--seed", "5"]) == 0
        assert "34%" in capsys.readouterr().out

    def test_profile_flag_prints_cprofile_table(self, capsys):
        assert cli.main(["run", "fig2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # pstats column header
        assert "function calls" in out
        assert "[fig2 completed in" in out  # normal output still present

    def test_cache_flags_travel_as_arguments(self, tmp_path, monkeypatch,
                                             capsys):
        """``--cache rw`` twice: the second run simulates nothing and
        prints the same table, and neither writes the environment."""
        import importlib

        sweep_mod = importlib.import_module("repro.scenarios.sweep")
        argv = ["run", "table2", "--quick", "--cache", "rw",
                "--store", str(tmp_path / "store")]
        env_before = dict(os.environ)
        assert cli.main(argv) == 0
        cold = capsys.readouterr().out

        def boom(sc):
            raise AssertionError("a stored point must not simulate")
        monkeypatch.setattr(sweep_mod, "run_scenario", boom)
        assert cli.main(argv) == 0
        warm = capsys.readouterr().out

        def table(out):
            return [line for line in out.splitlines()
                    if "completed in" not in line]
        assert table(warm) == table(cold)
        assert "PATRONoC (this repro)" in warm
        assert dict(os.environ) == env_before

    def test_run_all_prints_per_experiment_timing_and_summary(
            self, monkeypatch, capsys):
        subset = {k: experiments.EXPERIMENTS[k] for k in ("table1", "power")}
        monkeypatch.setattr(cli, "EXPERIMENTS", subset)
        monkeypatch.setattr(experiments, "EXPERIMENTS", subset)
        assert cli.main(["run", "all"]) == 0
        out = capsys.readouterr().out
        assert "[table1 completed in" in out
        assert "[power completed in" in out
        assert "all: 2 experiments in" in out
        assert "slowest:" in out


class TestSweep:
    SPEC = """{
        "base": {"traffic": {"kind": "uniform", "load": 1.0,
                             "max_burst_bytes": 1000},
                 "measure": {"warmup": 300, "window": 900}},
        "axes": {"traffic.load": [0.1, 1.0]}
    }"""

    def test_sweep_runs_and_writes_artifacts(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", str(spec), "--jobs", "2",
                         "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 point(s), jobs=2" in out
        assert "sweep completed in" in out
        results = json.loads((out_dir / "results.json").read_text())
        assert len(results) == 2
        assert {r["scenario"]["traffic"]["load"]
                for r in results} == {0.1, 1.0}
        assert all(r["result"]["throughput_gib_s"] > 0 for r in results)
        assert (out_dir / "results.csv").exists()

    def test_jobs_below_one_is_refused_by_name(self, tmp_path, capsys):
        """Exit 2, naming the rule, before any point runs."""
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", str(spec), "--jobs", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --jobs: jobs must be >= 1, got 0" in (
            captured.err)
        assert "point(s)" not in captured.out

    @pytest.mark.parametrize("name", ["no_such.json", "a_directory"])
    def test_an_unreadable_spec_exits_2_without_a_traceback(
            self, tmp_path, capsys, name):
        """A missing file or a directory is named like any refused spec."""
        (tmp_path / "a_directory").mkdir()
        spec = str(tmp_path / name)
        assert cli.main(["sweep", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, field", [
        ({"axes": 5}, "axes"),
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ([{"seed": True}], "seed"),
    ], ids=["axes-int", "seed-str", "seed-float", "seed-bool"])
    def test_a_mistyped_axes_or_seed_exits_2_naming_it(
            self, tmp_path, capsys, spec, field):
        """Refused at load, as any bad spec: no traceback, no point
        run, no error point retried."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["sweep", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: {field} must be")
        assert "Traceback" not in captured.err
        assert "point(s)" not in captured.out

    def test_sweep_without_out_still_prints_table(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        assert cli.main(["sweep", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "GiB/s" in out

    def test_cached_resweep_reports_all_hits(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        store = str(tmp_path / "store")
        assert cli.main(["sweep", str(spec), "--cache", "rw",
                         "--store", store]) == 0
        out = capsys.readouterr().out
        assert "cache=rw" in out
        assert "0 hit(s), 2 miss(es), 0 error(s)" in out
        assert cli.main(["sweep", str(spec), "--cache", "rw",
                         "--store", store]) == 0
        assert "2 hit(s), 0 miss(es), 0 error(s)" in capsys.readouterr().out

    def test_progress_flag_prints_per_point_lines(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        assert cli.main(["sweep", str(spec), "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/2] run" in err
        assert "[2/2] run" in err

    def test_store_without_cache_is_an_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        assert cli.main(["sweep", str(spec),
                         "--store", str(tmp_path / "s")]) == 2
        assert "--store requires --cache" in capsys.readouterr().err
        assert cli.main(["run", "fig2",
                         "--store", str(tmp_path / "s")]) == 2
        assert "--store requires --cache" in capsys.readouterr().err


class TestCacheCommand:
    SPEC = TestSweep.SPEC

    def populate(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        store = str(tmp_path / "store")
        assert cli.main(["sweep", str(spec), "--cache", "rw",
                         "--store", store]) == 0
        return store

    def test_stats_and_verify_clean(self, tmp_path, capsys):
        store = self.populate(tmp_path)
        capsys.readouterr()
        assert cli.main(["cache", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 entr(ies)" in out
        assert "current code fingerprint:" in out
        assert cli.main(["cache", "verify", "--store", store]) == 0
        assert "2 checked, 2 ok, 0 corrupt" in capsys.readouterr().out

    def test_verify_fails_on_corruption(self, tmp_path, capsys):
        from repro.store import ResultStore

        store = self.populate(tmp_path)
        victim = next(ResultStore(store)._entries())
        victim.write_text("garbage")
        capsys.readouterr()
        assert cli.main(["cache", "verify", "--store", store]) == 1
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert "corrupt:" in captured.err
        # gc removes the corrupt entry; verify is clean again.
        assert cli.main(["cache", "gc", "--store", store]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert cli.main(["cache", "verify", "--store", store]) == 0

    def test_gc_wipe_empties_the_store(self, tmp_path, capsys):
        store = self.populate(tmp_path)
        capsys.readouterr()
        assert cli.main(["cache", "gc", "--store", store, "--wipe"]) == 0
        assert "removed 2 file(s)" in capsys.readouterr().out
        assert cli.main(["cache", "stats", "--store", store]) == 0
        assert "0 entr(ies)" in capsys.readouterr().out


class TestServeParser:
    def test_serve_args_parse(self):
        args = cli.build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "2", "--cache", "ro",
             "--store", "/tmp/s", "--verbose"])
        assert args.command == "serve"
        assert (args.port, args.jobs, args.cache) == (0, 2, "ro")
        assert args.store == "/tmp/s" and args.verbose

    def test_jobs_below_one_is_refused_by_name(self, capsys):
        """Exit 2, naming the rule, before a server is built."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["serve", "--port", "0", "--jobs", "0"])
        assert exc.value.code == 2
        assert "error: argument --jobs: jobs must be >= 1, got 0" in (
            capsys.readouterr().err)
