"""Golden-equivalence: each fabric's production path must produce
results bit-identical to its ``always_step=True`` oracle (DESIGN.md §2
and §11).

These tests run the same traffic on the same seeds through both and
require exact equality of every observable: delivered-payload
throughput, per-DMA latency statistics, completed transfers, byte
counts, protocol counters, and the exact drain cycle.  They also pin
which path a constructor call selects, and the bit-identity of the two
under fault injection on both fabrics; the exhaustive checks live in
test_properties.py.
"""

import pytest

from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.faults import FaultSpec
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.traffic.uniform import uniform_random

SEEDS = [1, 7, 42]

CONFIGS = {
    "slim4x4": (NocConfig.slim(), dict(load=0.5, max_burst_bytes=1000)),
    "wide2x2": (NocConfig.wide(2, 2), dict(load=0.7, max_burst_bytes=4096,
                                           read_fraction=0.3)),
}

RUN_CYCLES = 1200


def observe(cfg: NocConfig, traffic_kwargs: dict, seed: int,
            always_step: bool = False, faults: FaultSpec | None = None):
    """Run, quiesce, drain; return every simulation observable."""
    net = NocNetwork(cfg, always_step=always_step, faults=faults,
                     fault_seed=seed)
    traffic = uniform_random(net, seed=seed, **traffic_kwargs).install()
    net.run(RUN_CYCLES)
    mid_throughput = net.aggregate_throughput_gib_s()
    traffic.quiesce()
    net.drain(max_cycles=200_000)
    lat = [d.latency_stats.summary() for d in net.dmas if d is not None]
    per_dma = [(d.transfers_completed, d.bytes_read, d.errors)
               for d in net.dmas if d is not None]
    per_mem = [(m.bytes_written, m.bursts_written, m.bursts_read)
               for m in net.memories if m is not None]
    return {
        "drain_cycle": net.sim.now,
        "throughput_gib_s": net.aggregate_throughput_gib_s(RUN_CYCLES),
        "mid_throughput_gib_s": mid_throughput,
        "transfers_completed": net.transfers_completed(),
        "total_bytes": net.total_bytes(),
        "offered": (traffic.offered_transfers, traffic.offered_bytes),
        "latency": lat,
        "per_dma": per_dma,
        "per_mem": per_mem,
        "counters": net.counters.as_dict(),
        "faults": net.fault_report(),
    }


#: Active fault set for the reroute equivalence matrix: an explicit
#: transient dead pair on a link both CONFIGS topologies have, plus a
#: Poisson stream so the up*/down* tables are rebuilt repeatedly
#: mid-run.
REROUTE_FAULTS = FaultSpec(
    links=[{"src": 0, "dst": 1, "start": 100, "duration": 600},
           {"src": 1, "dst": 0, "start": 100, "duration": 600}],
    link_rate=5e-4, recovery="reroute")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reroute_kernels_match_always_step(name, seed):
    """Active up*/down* rerouting (dead links + Poisson churn) is
    bit-identical under both schedulers — a table swap must reach a
    crosspoint the activity scheduler has put to sleep."""
    cfg, traffic_kwargs = CONFIGS[name]
    candidate = observe(cfg, traffic_kwargs, seed, faults=REROUTE_FAULTS)
    reference = observe(cfg, traffic_kwargs, seed, always_step=True,
                        faults=REROUTE_FAULTS)
    for key in reference:
        assert candidate[key] == reference[key], key
    assert candidate["faults"]["link_faults"] > 0


#: Response-path fault set: a transient dead pair drops B/R beats of
#: in-flight transactions (not just requests), the per-transaction
#: watchdog aborts the orphans into retransmission, and late responses
#: land on zombie entries during the grace window.  Every one of those
#: mechanisms must be cycle-exact under both schedulers.
RESPONSE_FAULTS = FaultSpec(
    links=[{"src": 0, "dst": 1, "start": 100, "duration": 600},
           {"src": 1, "dst": 0, "start": 100, "duration": 600}],
    link_rate=8e-3, link_duration=400, recovery="retransmit",
    response_faults=True, txn_timeout=800)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_response_fault_kernels_match_always_step(name, seed):
    """Response-path faults (dropped replies, orphan timeouts, zombie
    grace, timed retransmissions) are bit-identical under both
    schedulers — the watchdog deadlines feed the activity scheduler's
    wake heap, so a missed wake would show up here as a drain-cycle
    skew."""
    cfg, traffic_kwargs = CONFIGS[name]
    candidate = observe(cfg, traffic_kwargs, seed, faults=RESPONSE_FAULTS)
    reference = observe(cfg, traffic_kwargs, seed, always_step=True,
                        faults=RESPONSE_FAULTS)
    for key in reference:
        assert candidate[key] == reference[key], key
    assert reference["faults"]["link_faults"] > 0
    assert reference["drain_cycle"] > 0  # the sim terminated


#: Stuck-VC faults on the packet baseline: one transient and one
#: permanent stuck slot.  The config leaves VC 1 free on every port so
#: the mesh must stay live around the pinned buffers.
STUCK_VC_FAULTS = FaultSpec(
    stuck_vcs=[{"node": 5, "port": 1, "vc": 0, "start": 300,
                "duration": 900},
               {"node": 10, "port": 3, "vc": 1, "start": 600}])

BASELINE_STUCK_CONFIGS = {
    "vc2buf8": dict(n_vcs=2, buf_depth=8),
    "vc4buf16": dict(n_vcs=4, buf_depth=16),
}


def observe_baseline(name: str, seed: int, always_step: bool = False):
    mesh = PacketMesh(PacketMeshConfig(**BASELINE_STUCK_CONFIGS[name]),
                      injection_rate=0.25, seed=seed,
                      always_step=always_step,
                      faults=STUCK_VC_FAULTS, fault_seed=seed)
    mesh.run(2500)
    return {
        "packets_received": mesh.packets_received,
        "packets_dropped": mesh.packets_dropped,
        "flits_received": mesh.flits_received,
        "latency": mesh.latency.summary(),
        "faults": mesh.fault_report(),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BASELINE_STUCK_CONFIGS))
def test_stuck_vc_kernels_match_always_step(name, seed):
    """Stuck-VC faults on baseline routers (slots pinned out of switch
    allocation) are bit-identical across the reference router loop and
    the production request-mask stepper."""
    candidate = observe_baseline(name, seed)
    reference = observe_baseline(name, seed, always_step=True)
    for key in reference:
        assert candidate[key] == reference[key], key
    assert reference["faults"]["vc_faults"] == 2
    assert reference["packets_received"] > 0  # mesh stays live


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_kernel_matches_always_step(name, seed):
    cfg, traffic_kwargs = CONFIGS[name]
    candidate = observe(cfg, traffic_kwargs, seed)
    reference = observe(cfg, traffic_kwargs, seed, always_step=True)
    # Compare field by field for a readable diff on failure; values must
    # be bit-identical (== on floats, no approx).
    for key in reference:
        assert candidate[key] == reference[key], key


@pytest.mark.parametrize("always_step", [False, True])
def test_no_fault_path_is_bit_identical(always_step):
    """Wiring the fault subsystem in must not perturb a fault-free run:
    ``faults=None``, an *inactive* ``FaultSpec()``, and an armed spec
    whose only fault fires far beyond the run horizon all produce
    bit-identical observables (the inactive forms never construct a
    controller; the armed form does, and its presence must still be
    invisible until the fault fires)."""
    cfg, traffic_kwargs = CONFIGS["slim4x4"]
    baseline = observe(cfg, traffic_kwargs, 7, always_step, faults=None)
    inactive = observe(cfg, traffic_kwargs, 7, always_step,
                       faults=FaultSpec())
    armed = observe(cfg, traffic_kwargs, 7, always_step,
                    faults=FaultSpec(links=[{"src": 0, "dst": 1,
                                             "start": 10**9}]))
    # recovery="reroute" additionally widens XP connectivity at build
    # time (up*/down* needs the turns YX wiring omits) — the widening
    # is a wiring-check relaxation only and must stay invisible until
    # a fault actually fires.
    rr_armed = observe(cfg, traffic_kwargs, 7, always_step,
                       faults=FaultSpec(links=[{"src": 0, "dst": 1,
                                                "start": 10**9}],
                                        recovery="reroute"))
    # The watchdog, tolerant response handling and retransmission arm
    # every lifetime guard of the DMA's one response sink; with nothing
    # to do they must stay inert.
    guarded = observe(cfg, traffic_kwargs, 7, always_step,
                      faults=FaultSpec(links=[{"src": 0, "dst": 1,
                                               "start": 10**9}],
                                       txn_timeout=900, response_faults=True,
                                       recovery="retransmit"))
    for key in baseline:
        assert inactive[key] == baseline[key], f"inactive spec: {key}"
        if key == "faults":
            continue  # armed specs legitimately report a (zeroed) section
        assert armed[key] == baseline[key], f"armed-never-firing: {key}"
        assert rr_armed[key] == baseline[key], f"reroute-armed: {key}"
        assert guarded[key] == baseline[key], f"guards-armed: {key}"


def test_repeated_drain_is_idempotent_in_both_modes():
    """Draining an already-settled network consumes zero cycles in both
    kernel modes (the always-step loop evaluates the settle condition
    before stepping, exactly like the activity kernel's quiet-gap
    check)."""
    cfg, traffic_kwargs = CONFIGS["slim4x4"]
    for always_step in (False, True):
        net = NocNetwork(cfg, always_step=always_step)
        traffic = uniform_random(net, seed=1, **traffic_kwargs).install()
        net.run(1200)
        traffic.quiesce()
        first = net.drain(max_cycles=50_000)
        assert net.drain(max_cycles=50_000) == first
        assert net.drain(max_cycles=50_000) == first


@pytest.mark.parametrize("always_step", [False, True])
def test_drain_of_a_settled_network_consumes_zero_cycles(always_step):
    """Settled at entry means zero cycles under either scheduler: a
    never-run network (whose just-registered components fill the
    activity scheduler's active set), and a drained one whose fault
    controller drops responses on a permanently dead link."""
    cfg, traffic_kwargs = CONFIGS["slim4x4"]
    assert NocNetwork(cfg, always_step=always_step).drain() == 0
    net = NocNetwork(cfg, always_step=always_step, fault_seed=1,
                     faults=FaultSpec(links=[{"src": 0, "dst": 1}],
                                      response_faults=True,
                                      txn_timeout=900))
    traffic = uniform_random(net, seed=1, **traffic_kwargs).install()
    net.run(400)
    traffic.quiesce()
    settled = net.drain(max_cycles=50_000)
    assert net.drain(max_cycles=50_000) == settled


def test_drain_cycle_is_exact():
    """Both modes stop drain on the same exact cycle (no checkpoint
    rounding), and the network is truly idle there."""
    cfg, traffic_kwargs = CONFIGS["slim4x4"]
    results = []
    for always_step in (False, True):
        net = NocNetwork(cfg, always_step=always_step)
        traffic = uniform_random(net, seed=5, **traffic_kwargs).install()
        net.run(800)
        traffic.quiesce()
        stop = net.drain(max_cycles=100_000)
        assert net.idle()
        assert net.sim.all_quiet()
        results.append(stop)
    assert results[0] == results[1]


def test_gather_executes_under_half_of_always_steps_component_steps():
    """The many-to-one pattern PATRONoC's DNN case rests on: 15 cores
    each write 64 KiB to tile 0 of a wide 4x4.  Most of the fabric is
    back-pressured, and a blocked component sleeps — the production
    scheduler executes under half of the ``cycles x components`` steps
    always-step makes, an exact, repeatable count.  Same drain cycle,
    same bytes."""
    from repro.axi.transaction import Transfer

    nets = {}
    for always_step in (False, True):
        net = NocNetwork(NocConfig.wide(), always_step=always_step)
        for src in range(1, 16):
            net.dmas[src].submit(Transfer(src=src, addr=net.addr_of(0, 0),
                                          nbytes=64 << 10, is_read=False))
        net.drain(max_cycles=200_000)
        assert net.memories[0].bytes_written == 15 * (64 << 10)
        nets[always_step] = net
    production, oracle = nets[False].sim, nets[True].sim
    assert production.now == oracle.now
    assert oracle.steps == oracle.now * len(oracle.components)
    assert oracle.cycles_skipped == 0
    # 98 253 of 738 480 (13.3 %) when this test was written.
    assert production.steps < 0.5 * oracle.steps


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
#: A transient and a permanent dead link, response corruption: every
#: fault path at once, firing inside the run window.
NOC_FAULTS = FaultSpec(
    links=[{"src": 5, "dst": 6, "start": 200, "duration": 400},
           {"src": 1, "dst": 2, "start": 300}],
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
def test_noc_bit_identical_under_faults(seed):
    prod = observe_noc(False, seed, faults=NOC_FAULTS)
    ref = observe_noc(True, seed, faults=NOC_FAULTS)
    for key in ref:
        assert prod[key] == ref[key], key
    assert ref["faults"]["injected"] > 0  # the scenario actually fired


def test_noc_fault_report_has_activity():
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
def test_mesh_bit_identical(cfgkw, rate):
    for seed in (0, 7):
        prod = observe_mesh(False, cfgkw, rate, seed)
        ref = observe_mesh(True, cfgkw, rate, seed)
        for key in ref:
            assert prod[key] == ref[key], (seed, key)


@pytest.mark.parametrize("recovery", ["none", "reroute"])
def test_mesh_bit_identical_under_faults(recovery):
    spec = FaultSpec(links=[{"src": 5, "dst": 6, "start": 300,
                             "duration": 800},
                            {"src": 9, "dst": 10, "start": 500}],
                     recovery=recovery)
    prod = observe_mesh(False, dict(n_vcs=4, buf_depth=32), 0.3, 3,
                        faults=spec)
    ref = observe_mesh(True, dict(n_vcs=4, buf_depth=32), 0.3, 3,
                       faults=spec)
    for key in ref:
        assert prod[key] == ref[key], key
    assert ref["faults"]["injected"] > 0
