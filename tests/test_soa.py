"""Stepper selection and oracle equivalence under faults (DESIGN.md §11).

Each fabric has one production path and the ``always_step=True`` oracle:
on the AXI fabric one ``step()`` body per component under two
schedulers, on the packet mesh ``Router.step`` against the request-mask
stepper.  This module pins which one a constructor call selects, the
bit-identity of the two under fault injection on both fabrics, and
chunked sweep execution.  The fault-free matrix lives in
test_golden_equivalence.py, the exhaustive checks in test_properties.py.
"""

import pytest

from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.faults import FaultSpec
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.scenarios import MeasureSpec, Scenario, TrafficSpec, run_sweep, sweep
from repro.traffic.uniform import uniform_random
from test_faults import kill_workers_running

#: Small windows: these tests assert equivalence, not paper numbers.
FAST = MeasureSpec(300, 900)


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_defaults(self):
        """``always_step`` is the only stepper switch on either fabric:
        the default is the activity scheduler, ``always_step=True`` the
        oracle, and the removed ``kernel=`` option is refused."""
        assert NocNetwork(NocConfig.slim()).sim.activity
        assert not NocNetwork(NocConfig.slim(), always_step=True).sim.activity
        assert PacketMesh(PacketMeshConfig()).sim.activity
        for kernel in ("soa", "activity", "always"):
            with pytest.raises(TypeError):
                NocNetwork(NocConfig.slim(), kernel=kernel)
            with pytest.raises(TypeError):
                PacketMesh(PacketMeshConfig(), kernel=kernel)

    def test_mesh_has_two_steppers(self):
        """The default selects the one production stepper, the oracle
        switch the per-object ``Router.step`` loop (DESIGN.md §11)."""
        mesh = PacketMesh(PacketMeshConfig())
        assert mesh._stepper is not None and mesh.sim.activity
        mesh = PacketMesh(PacketMeshConfig(), always_step=True)
        assert mesh._stepper is None and not mesh.sim.activity


# ----------------------------------------------------------------------
# PATRONoC fabric under faults
# ----------------------------------------------------------------------
#: Dead link, degraded link, response corruption: every fault path at
#: once, firing inside the run window.
NOC_FAULTS = FaultSpec(
    links=[{"src": 5, "dst": 6, "start": 200, "duration": 400},
           {"src": 1, "dst": 2, "start": 300, "width_factor": 0.5}],
    corrupt_rate=0.02, recovery="retransmit")


def observe_noc(always_step, seed, faults=None):
    net = NocNetwork(NocConfig.slim(), always_step=always_step,
                     faults=faults, fault_seed=seed)
    traffic = uniform_random(net, load=0.5, max_burst_bytes=1000,
                             seed=seed).install()
    net.run(1000)
    traffic.quiesce()
    net.drain(max_cycles=200_000)
    return {
        "drain_cycle": net.sim.now,
        "throughput_gib_s": net.aggregate_throughput_gib_s(1000),
        "transfers_completed": net.transfers_completed(),
        "total_bytes": net.total_bytes(),
        "latency": [d.latency_stats.summary() for d in net.dmas
                    if d is not None],
        "counters": net.counters.as_dict(),
        "faults": net.fault_report(),
    }


@pytest.mark.parametrize("seed", [1, 7])
def test_noc_soa_bit_identical_under_faults(seed):
    prod = observe_noc(False, seed, faults=NOC_FAULTS)
    ref = observe_noc(True, seed, faults=NOC_FAULTS)
    for key in ref:
        assert prod[key] == ref[key], key
    assert ref["faults"]["injected"] > 0  # the scenario actually fired


def test_noc_soa_fault_report_has_activity():
    report = observe_noc(False, 1, faults=NOC_FAULTS)["faults"]
    assert report["injected"] >= 2
    assert report["detected"] > 0


# ----------------------------------------------------------------------
# Baseline mesh
# ----------------------------------------------------------------------
def observe_mesh(always_step, cfgkw, rate, seed, faults=None, cycles=2000):
    mesh = PacketMesh(PacketMeshConfig(**cfgkw), injection_rate=rate,
                      seed=seed, always_step=always_step, faults=faults,
                      fault_seed=seed)
    mesh.run(cycles)
    return {
        "flits_received": mesh.flits_received,
        "flits_measured": mesh.flits_received_measured,
        "packets": mesh.packets_received,
        "offered": mesh.flits_offered,
        "in_flight": mesh.in_flight(),
        "routed": sum(r.flits_routed for r in mesh.routers),
        "latency": mesh.latency.summary(),
        "faults": mesh.fault_report(),
    }


@pytest.mark.parametrize("cfgkw,rate", [
    (dict(n_vcs=4, buf_depth=32), 0.3),   # the bench configuration
    (dict(n_vcs=1, buf_depth=4), 0.8),    # saturated, heavy backpressure
])
def test_mesh_soa_bit_identical(cfgkw, rate):
    for seed in (0, 7):
        prod = observe_mesh(False, cfgkw, rate, seed)
        ref = observe_mesh(True, cfgkw, rate, seed)
        for key in ref:
            assert prod[key] == ref[key], (seed, key)


@pytest.mark.parametrize("recovery", ["none", "reroute"])
def test_mesh_soa_bit_identical_under_faults(recovery):
    spec = FaultSpec(links=[{"src": 5, "dst": 6, "start": 300,
                             "duration": 800},
                            {"src": 9, "dst": 10, "start": 500,
                             "width_factor": 0.5}],
                     recovery=recovery)
    prod = observe_mesh(False, dict(n_vcs=4, buf_depth=32), 0.3, 3,
                        faults=spec)
    ref = observe_mesh(True, dict(n_vcs=4, buf_depth=32), 0.3, 3,
                       faults=spec)
    for key in ref:
        assert prod[key] == ref[key], key
    assert ref["faults"]["injected"] > 0


# ----------------------------------------------------------------------
# Chunked sweeps
# ----------------------------------------------------------------------
class TestChunkedSweep:
    def _sweep(self):
        return sweep(Scenario(traffic=TrafficSpec.uniform(0.5, 1000),
                              measure=FAST),
                     loads=[0.1, 0.5], seeds=[1, 2, 3])

    def test_chunked_equals_serial(self):
        """6-point grid: serial, per-point, and chunked submission all
        produce bit-identical Results in the same order."""
        serial = run_sweep(self._sweep(), jobs=1)
        assert run_sweep(self._sweep(), jobs=2, chunksize=1) == serial
        assert run_sweep(self._sweep(), jobs=2, chunksize=4) == serial
        assert run_sweep(self._sweep(), jobs=2) == serial  # auto chunking

    def test_bad_chunksize_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], chunksize=0)

    def test_failing_point_does_not_sink_its_chunk(self, capsys):
        """One raising point inside a chunk costs only itself: its
        chunk-mates complete in the worker, the failure retries serially
        and is reported as None."""
        points = self._sweep().points()
        points[1] = points[1].with_(
            measure=MeasureSpec(warmup=1000, window=50_000_000,
                                max_wall_s=0.1))
        results = run_sweep(points, jobs=2, chunksize=3)
        assert results[1] is None
        assert all(r is not None for i, r in enumerate(results) if i != 1)
        assert "failed after one retry" in capsys.readouterr().err

    def test_worker_crash_recovers_whole_chunk(self, monkeypatch):
        """A worker dying mid-chunk (BrokenProcessPool) loses the chunk,
        not the sweep: every point recovers via the serial retry."""
        points = self._sweep().points()
        clean = run_sweep(points, jobs=1)
        kill_workers_running(monkeypatch, "seed2")
        assert run_sweep(points, jobs=2, chunksize=2) == clean
