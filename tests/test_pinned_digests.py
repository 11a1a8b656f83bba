"""The benchmark's machine-independent gate, inside tier-1 and therefore
CI (ROADMAP item 4): the seed-1 and seed-2 points of the five kernel
workloads and of ``sweep_cold``, generated by
``benchmarks/perf/perf_workloads.py`` itself (imported, never edited),
must hash to ``benchmarks/perf/expected_digests.json``.

A speed-only change to either fabric may not move a digest; a change
that means to re-pins the file in its own PR.  ``sweep_cold``'s grid is
run point by point here — the digest is over the Results, which the
benchmark's own ``verify`` holds equal between ``jobs=1`` and the pool —
and ``store_replay`` is left to the CI benchmark step: it exercises the
store and the service, not the kernels.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.scenarios import run_scenario

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
sys.path.insert(0, str(PERF))

import perf_workloads  # noqa: E402 - needs PERF on the path

WORKLOADS = ["axi_write", "axi_rw", "dnn_fig8", "faulted", "mesh_uniform",
             "sweep_cold"]


def assert_pinned(name: str, seed: int) -> None:
    pinned = json.loads((PERF / "expected_digests.json").read_text())
    workload = perf_workloads.WORKLOADS[name](seed, False)
    results = [run_scenario(sc) for sc in workload.points]
    assert perf_workloads.result_digest(results) == pinned[f"seed{seed}"][name]


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_1_points_hash_to_the_pinned_digest(name):
    assert_pinned(name, 1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_2_points_hash_to_the_pinned_digest(name):
    assert_pinned(name, 2)
