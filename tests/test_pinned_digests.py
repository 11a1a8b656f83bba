"""The benchmark's machine-independent gate, inside tier-1 (ROADMAP
item 4): the seed-1 points of the five kernel workloads, generated by
``benchmarks/perf/perf_workloads.py`` itself (imported, never edited),
must hash to ``benchmarks/perf/expected_digests.json``.

A speed-only change to either fabric may not move a digest; a change
that means to re-pins the file in its own PR.  ``sweep_cold`` and
``store_replay`` are left to the CI hit-path step: they exercise the
pool and the store, not the kernels.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.scenarios import run_scenario

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
sys.path.insert(0, str(PERF))

import perf_workloads  # noqa: E402 - needs PERF on the path

KERNEL_WORKLOADS = ["axi_write", "axi_rw", "dnn_fig8", "faulted",
                    "mesh_uniform"]


@pytest.mark.parametrize("name", KERNEL_WORKLOADS)
def test_seed_1_points_hash_to_the_pinned_digest(name, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    pinned = json.loads((PERF / "expected_digests.json").read_text())
    workload = perf_workloads.WORKLOADS[name](1, False)
    results = [run_scenario(sc) for sc in workload.points]
    assert perf_workloads.result_digest(results) == pinned["seed1"][name]
