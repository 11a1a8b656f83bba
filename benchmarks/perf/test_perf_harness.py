"""Smoke test of the benchmark harness: one ``--smoke`` run (one pass,
tiny windows) and the consistency of what it emits with what
``perf_decl.py`` and ``BENCHMARK.json`` declare.  No timing is asserted.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import perf_decl  # noqa: E402 - needs HERE on the path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, **env):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, **env), timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-smoke")
    # run_scenario rejects this value, so every op fails unless the
    # harness scrubs REPRO_* from its children.
    done = _run("--smoke", "--out", str(out), REPRO_CACHE="bogus")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((out / "results.json").read_text()), done.stdout, out


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_and_counts():
    names = (list(perf_decl.WORKLOADS) + list(perf_decl.E2E_METRICS)
             + list(perf_decl.LAYER_METRICS))
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert len(perf_decl.E2E_METRICS) <= 16
    assert len(perf_decl.LAYER_METRICS) <= 128
    assert 2 <= len(perf_decl.WORKLOADS) <= 8


def test_every_move_names_a_declared_metric_and_workload():
    for name, (_unit, better, moves) in perf_decl.LAYER_METRICS.items():
        assert better in ("lower", "higher"), name
        for metric, workload in moves:
            assert metric in perf_decl.E2E_METRICS, (name, metric)
            assert workload in perf_decl.WORKLOADS, (name, workload)


def test_smoke_emits_every_declared_metric(smoke):
    document, stdout, out = smoke
    assert set(document["workloads"]) == set(perf_decl.WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0, (name, entry["notes"])
        assert entry["attempted"] >= 1
        emitted = set(entry["metrics"])
        assert set(perf_decl.CONTRACT_E2E) | {"failed_share"} <= emitted, name
        assert emitted <= set(perf_decl.E2E_METRICS), name
        assert set(entry["layers"]) == set(perf_decl.TRACED), name
        assert (out / f"trace-{name}.json").is_file()
    assert set(document["layers"]) == set(perf_decl.PROBED)
    reporting = {metric: {name for name, entry in document["workloads"].items()
                          if metric in entry["metrics"]}
                 for metric in ("paper_err_pct", "sim_kcycles_per_s")}
    assert reporting["paper_err_pct"] == {"axi_write", "axi_rw",
                                          "mesh_uniform", "dnn_fig8"}
    assert reporting["sim_kcycles_per_s"] \
        == set(perf_decl.WORKLOADS) - {"store_replay"}
    for metric in (*perf_decl.E2E_METRICS, *perf_decl.LAYER_METRICS):
        assert metric in stdout, f"{metric} not printed"
    env = document["env"]
    assert env["nproc"] and env["python"] and env["code_fingerprint"]


def test_benchmark_json_lists_what_the_harness_emits(benchmark_json):
    assert set(benchmark_json) == {"command", "paths", "run_seconds",
                                   "workloads", "end_to_end", "per_layer"}
    assert benchmark_json["paths"] == ["benchmarks/perf"]
    assert {w["name"]: w["why"] for w in benchmark_json["workloads"]} \
        == perf_decl.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in benchmark_json["end_to_end"]} \
        == {name: perf_decl.E2E_METRICS[name]
            for name in perf_decl.CONTRACT_E2E}
    assert {m["name"]: (m["unit"], m["better"])
            for m in benchmark_json["per_layer"]} \
        == {name: (unit, better) for name, (unit, better, _moves)
            in perf_decl.LAYER_METRICS.items()}


def test_driver_line_carries_exactly_the_contract_metrics():
    done = _run("--workload", "mesh_uniform", "--smoke", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(perf_decl.CONTRACT_E2E)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == perf_decl.E2E_METRICS[name][0]
        assert metric["value"] > 0


def test_generation_follows_the_seed():
    import perf_workloads

    def inputs(seed):
        return {name: cls(seed, True).describe()
                for name, cls in perf_workloads.WORKLOADS.items()}

    assert inputs(1) == inputs(1)
    first, second = inputs(1), inputs(2)
    assert all(first[name] != second[name] for name in first)


def test_compare_flags_a_regression(smoke, tmp_path):
    document, _stdout, out = smoke
    same = _run("compare", str(out / "results.json"),
                str(out / "results.json"))
    assert same.returncode == 0, same.stdout
    slower = json.loads(json.dumps(document))
    slower["workloads"]["axi_write"]["metrics"]["wall_s"]["value"] *= 2
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    worse = _run("compare", str(out / "results.json"), str(path))
    assert worse.returncode == 1
    assert "worse" in worse.stdout
