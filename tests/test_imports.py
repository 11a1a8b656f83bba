"""A run imports only the fabric it simulates (DESIGN.md §13).

Each case runs a tiny point in a fresh interpreter, through the entry
import the README shows, and reads ``sys.modules`` afterwards.  Only
the five entry packages (``repro``, ``repro.scenarios``,
``repro.store``, ``repro.faults``, ``repro.service``) re-export; a
fabric package that re-exported its modules again would load the
other fabric into every run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CENSUS_RUN = r"""
import json, sys
from repro.scenarios import Scenario, run_scenario, run_sweep, sweep
point, jobs = json.loads(sys.argv[1]), int(sys.argv[2])
sc = Scenario.from_dict(point)
if jobs:
    out = run_sweep([sc, sc.with_(seed=2)], jobs=jobs)
    assert all(r is not None for r in out), "a point failed"
else:
    assert run_scenario(sc).throughput_gib_s > 0
print(json.dumps(sorted(sys.modules)))
"""

TINY = {"warmup": 50, "window": 300}
BASELINE = {"topology": {"backend": "baseline", "rows": 2, "cols": 2},
            "traffic": {"kind": "uniform", "load": 0.3,
                        "max_burst_bytes": 1},
            "measure": TINY}
SLIM = {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
        "traffic": {"kind": "uniform", "load": 0.5, "max_burst_bytes": 64},
        "measure": TINY}

#: The AXI fabric: every ``repro.axi`` module except ``types``, whose
#: validators ``NocConfig`` (which every spec imports) calls.
AXI_STACK = ("repro.axi.", "repro.endpoints.", "repro.noc.network",
             "repro.noc.trains")
MESH_STACK = ("repro.baseline.network", "repro.baseline.router",
              "repro.baseline.stepper")


def loaded(point: dict, jobs: int = 0) -> set[str]:
    """The modules a fresh interpreter holds after running ``point``
    alone (``jobs=0``) or as a two-point sweep over ``jobs`` workers."""
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", CENSUS_RUN, json.dumps(point), str(jobs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def named(modules: set[str], prefixes: tuple[str, ...]) -> list[str]:
    return sorted(m for m in modules if m.startswith(prefixes)
                  and m != "repro.axi.types")


def test_a_baseline_point_loads_no_axi_fabric():
    modules = loaded(BASELINE)
    assert "repro.baseline.network" in modules
    assert named(modules, AXI_STACK) == []


def test_a_patronoc_point_loads_no_packet_mesh():
    modules = loaded(SLIM)
    assert "repro.noc.network" in modules
    assert named(modules, MESH_STACK) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_only_a_pooled_sweep_loads_multiprocessing(jobs):
    """A pooled sweep imports its points' fabric before it forks (the
    workers inherit it) and no other."""
    modules = loaded(BASELINE, jobs)
    assert ("concurrent.futures.process" in modules) == (jobs > 1)
    assert ("multiprocessing" in modules) == (jobs > 1)
    assert "repro.baseline.network" in modules
    assert named(modules, AXI_STACK) == []
