"""SoA kernel tests (DESIGN.md §11): packed-channel semantics, kernel
selection, bit-identity of ``kernel="soa"`` against the always-step
reference under fault injection on both fabrics, and chunked sweep
execution.

The fault-free bit-identity matrix (3 seeds × 2 configs × both
candidate kernels) lives in test_golden_equivalence.py; this module
covers everything the SoA backend adds on top.  On the packet mesh
``kernel="soa"`` is one more spelling of the production stepper; the
property test in test_properties.py is its exhaustive check.
"""

import pytest

from repro.axi.beats import BBeat, RBeat, WBeat
from repro.axi.types import Resp
from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.faults import FaultSpec
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.scenarios import MeasureSpec, Scenario, TrafficSpec, run_sweep, sweep
from repro.sim.fifo import TimedFifo
from repro.soa.channel import SoaChannel, pack_b, pack_r, pack_w
from repro.traffic.uniform import uniform_random

#: Small windows: these tests assert equivalence, not paper numbers.
FAST = MeasureSpec(300, 900)


def beat_fields(beat):
    """Beats are identity-compared __slots__ objects; compare fields."""
    return (type(beat).__name__,) + tuple(
        getattr(beat, f) for f in type(beat).__slots__)


# ----------------------------------------------------------------------
# Packed channels
# ----------------------------------------------------------------------
class TestSoaChannel:
    def test_roundtrip_w(self):
        ch = SoaChannel("w", capacity=2, latency=1)
        ch.push(WBeat(last=True, nbytes=64), now=5)
        assert ch.peek(5) is None  # latency: visible at 6, not 5
        assert beat_fields(ch.peek(6)) == beat_fields(
            WBeat(last=True, nbytes=64))
        assert beat_fields(ch.pop(6)) == beat_fields(
            WBeat(last=True, nbytes=64))
        assert len(ch) == 0 and ch.pushed == 1 and ch.popped == 1

    def test_roundtrip_b_and_r(self):
        b = SoaChannel("b", latency=0)
        b.push(BBeat(id=0xABC, resp=Resp.SLVERR), now=3)
        assert beat_fields(b.pop(3)) == beat_fields(
            BBeat(id=0xABC, resp=Resp.SLVERR))
        r = SoaChannel("r", latency=0)
        beat = RBeat(id=7, last=False, nbytes=128, resp=Resp.OKAY)
        r.push(beat, now=0)
        assert beat_fields(r.pop(0)) == beat_fields(beat)

    def test_pack_helpers_match_push(self):
        ch = SoaChannel("w", latency=2)
        ch.push(WBeat(last=False, nbytes=32), now=10)
        assert ch._q[0] == pack_w(12, 32, False)
        ch = SoaChannel("b", latency=1)
        ch.push(BBeat(id=9, resp=Resp.OKAY), now=4)
        assert ch._q[0] == pack_b(5, 9, 0)
        ch = SoaChannel("r", latency=1)
        ch.push(RBeat(id=9, last=True, nbytes=16, resp=Resp.SLVERR), now=4)
        assert ch._q[0] == pack_r(5, 9, 16, int(Resp.SLVERR), True)

    def test_capacity_and_visibility_errors(self):
        ch = SoaChannel("b", capacity=1, latency=1)
        ch.push(BBeat(id=1, resp=Resp.OKAY), now=0)
        with pytest.raises(OverflowError):
            ch.push(BBeat(id=2, resp=Resp.OKAY), now=0)
        with pytest.raises(LookupError):
            ch.pop(0)  # head not visible until cycle 1
        with pytest.raises(LookupError):
            SoaChannel("b").pop(0)  # empty

    def test_stall_head_defers_visible_head_only(self):
        ch = SoaChannel("w", latency=1)
        ch.push(WBeat(last=True, nbytes=8), now=0)  # visible at 1
        ch.stall_head(0)  # not yet visible: untouched
        assert ch.peek(1) is not None
        ch.stall_head(1)  # visible: pushed to 2
        assert ch.peek(1) is None
        assert ch.peek(2) is not None

    def test_from_fifo_requires_empty(self):
        fifo = TimedFifo(2, 1, "x.w")
        fifo.push(WBeat(last=True, nbytes=8), now=0)
        with pytest.raises(ValueError):
            SoaChannel.from_fifo(fifo, "w")

    def test_from_fifo_inherits_wiring(self):
        fifo = TimedFifo(3, 2, "x.b")
        cell = [0]
        fifo.track_occupancy(cell)
        fifo.push(BBeat(id=1, resp=Resp.OKAY), now=0)
        fifo.pop(2)
        ch = SoaChannel.from_fifo(fifo, "b")
        assert (ch.capacity, ch.latency, ch.name) == (3, 2, "x.b")
        assert (ch.pushed, ch.popped) == (1, 1)
        assert ch.occ is cell
        ch.push(BBeat(id=2, resp=Resp.OKAY), now=5)
        assert cell[0] == 1
        ch.pop(7)
        assert cell[0] == 0

    def test_drain_and_occupancy(self):
        ch = SoaChannel("r", capacity=4, latency=1)
        cell = [0]
        ch.track_occupancy(cell)
        beats = [RBeat(id=i, last=i == 2, nbytes=4, resp=Resp.OKAY)
                 for i in range(3)]
        for b in beats:
            ch.push(b, now=0)
        assert cell[0] == 1  # occupancy counts channels, not beats
        assert [beat_fields(b) for b in ch.drain()] \
            == [beat_fields(b) for b in beats]
        assert cell[0] == 0

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SoaChannel("aw")


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_defaults(self):
        assert NocNetwork(NocConfig.slim()).kernel == "activity"
        assert NocNetwork(NocConfig.slim(), always_step=True).kernel \
            == "always"
        mesh = PacketMesh(PacketMeshConfig())
        assert mesh.kernel == "activity"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            NocNetwork(NocConfig.slim(), kernel="simd")
        with pytest.raises(ValueError):
            PacketMesh(PacketMeshConfig(), kernel="simd")

    def test_always_step_conflicts_with_other_kernels(self):
        with pytest.raises(ValueError):
            NocNetwork(NocConfig.slim(), always_step=True, kernel="soa")
        with pytest.raises(ValueError):
            PacketMesh(PacketMeshConfig(), always_step=True, kernel="soa")

    def test_kernel_always_equals_always_step(self):
        net = NocNetwork(NocConfig.slim(), kernel="always")
        assert net.kernel == "always"
        assert net._soa is None

    def test_mesh_has_two_steppers(self):
        """Every accepted spelling but the oracle's selects the one
        production stepper (DESIGN.md §11)."""
        for kernel in (None, "activity", "soa"):
            mesh = PacketMesh(PacketMeshConfig(), kernel=kernel)
            assert mesh._stepper is not None and mesh.sim.activity
        for kwargs in (dict(kernel="always"), dict(always_step=True)):
            mesh = PacketMesh(PacketMeshConfig(), **kwargs)
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


def observe_noc(kernel, seed, faults=None):
    net = NocNetwork(NocConfig.slim(), kernel=kernel, faults=faults,
                     fault_seed=seed)
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
    soa = observe_noc("soa", seed, faults=NOC_FAULTS)
    ref = observe_noc("always", seed, faults=NOC_FAULTS)
    for key in ref:
        assert soa[key] == ref[key], key
    assert ref["faults"]["injected"] > 0  # the scenario actually fired


def test_noc_soa_fault_report_has_activity():
    report = observe_noc("soa", 1, faults=NOC_FAULTS)["faults"]
    assert report["injected"] >= 2
    assert report["detected"] > 0


# ----------------------------------------------------------------------
# Baseline mesh
# ----------------------------------------------------------------------
def observe_mesh(kernel, cfgkw, rate, seed, faults=None, cycles=2000):
    mesh = PacketMesh(PacketMeshConfig(**cfgkw), injection_rate=rate,
                      seed=seed, kernel=kernel, faults=faults,
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
        soa = observe_mesh("soa", cfgkw, rate, seed)
        ref = observe_mesh("always", cfgkw, rate, seed)
        for key in ref:
            assert soa[key] == ref[key], (seed, key)


@pytest.mark.parametrize("recovery", ["none", "reroute"])
def test_mesh_soa_bit_identical_under_faults(recovery):
    spec = FaultSpec(links=[{"src": 5, "dst": 6, "start": 300,
                             "duration": 800},
                            {"src": 9, "dst": 10, "start": 500,
                             "width_factor": 0.5}],
                     recovery=recovery)
    soa = observe_mesh("soa", dict(n_vcs=4, buf_depth=32), 0.3, 3,
                       faults=spec)
    ref = observe_mesh("always", dict(n_vcs=4, buf_depth=32), 0.3, 3,
                       faults=spec)
    for key in ref:
        assert soa[key] == ref[key], key
    assert ref["faults"]["injected"] > 0


# ----------------------------------------------------------------------
# Scenario integration: REPRO_KERNEL env hook
# ----------------------------------------------------------------------
class TestReproKernelEnv:
    def test_soa_scenarios_match_default(self, monkeypatch):
        from repro.scenarios import run_scenario

        sc = Scenario(traffic=TrafficSpec.uniform(0.5, 1000), measure=FAST)
        default = run_scenario(sc)
        monkeypatch.setenv("REPRO_KERNEL", "soa")
        assert run_scenario(sc) == default

    def test_invalid_kernel_env_rejected(self, monkeypatch):
        from repro.scenarios import run_scenario

        monkeypatch.setenv("REPRO_KERNEL", "simd")
        sc = Scenario(traffic=TrafficSpec.uniform(0.5, 1000), measure=FAST)
        with pytest.raises(ValueError):
            run_scenario(sc)


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
        monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "seed2")
        assert run_sweep(points, jobs=2, chunksize=2) == clean
