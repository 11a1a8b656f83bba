"""Response-path fault loop (DESIGN.md §10): B/R beats die on dead
links like requests do, per-transaction watchdogs abort the resulting
orphans into retransmission, stuck VCs pin baseline router slots,
byzantine beats are detected (not crashed on), and the up*/down*
tables follow every mesh-liveness change.

The adversarial core: a *dead response path* used to hang the drain
loop forever (the simplification these tests retire).  Every test here
asserts the sim terminates — no hang, no SimulationTimeout — while the
orphan/timeout accounting stays exact.
"""

import pytest

from repro.axi.transaction import Transfer
from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.faults import FaultSpec, LinkFault, PortFault
from repro.faults.spec import StuckVcFault
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.noc.reroute import compute_fault_tables
from repro.noc.topology import MESH_PORTS
from repro.traffic.uniform import uniform_random

#: Both fabrics: the production path (default) and the ``always_step``
#: oracle, under the names the test ids have always used.
KERNELS = ["activity", "always"]


# ----------------------------------------------------------------------
# Spec layer: new fields validate, coerce, and round-trip
# ----------------------------------------------------------------------
class TestSpec:
    def test_round_trip(self):
        spec = FaultSpec(
            links=[LinkFault(0, 1, start=100, duration=500)],
            recovery="retransmit", response_faults=True, txn_timeout=800,
            stuck_vcs=[StuckVcFault(5, 1, 0, start=200, duration=400)],
            byzantine_rate=1e-4)
        again = FaultSpec.from_json(spec.to_json())
        assert again == spec
        assert isinstance(again.stuck_vcs[0], StuckVcFault)

    def test_stuck_vc_dicts_normalized(self):
        spec = FaultSpec(stuck_vcs=[{"node": 3, "port": 2, "vc": 1}])
        assert spec.stuck_vcs == (StuckVcFault(3, 2, 1),)

    def test_new_fields_make_spec_active(self):
        assert FaultSpec(stuck_vcs=[StuckVcFault(0, 0, 0)]).active()
        assert FaultSpec(byzantine_rate=1e-5).active()
        # response_faults/txn_timeout alone arm nothing: they change how
        # faults behave, they are not faults themselves.
        assert not FaultSpec(response_faults=True, txn_timeout=100).active()

    @pytest.mark.parametrize("bad", [
        dict(txn_timeout=0),
        dict(txn_timeout=-5),
        dict(byzantine_rate=1.5),
        dict(byzantine_rate=-0.1),
        dict(stuck_vcs=[{"node": -1, "port": 0, "vc": 0}]),
        dict(stuck_vcs=[{"node": 0, "port": 0, "vc": 0, "duration": 0}]),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)


class TestBackendValidation:
    def test_axi_rejects_stuck_vcs(self):
        with pytest.raises(ValueError, match="stuck_vcs"):
            NocNetwork(NocConfig(rows=2, cols=2),
                       faults=FaultSpec(stuck_vcs=[StuckVcFault(0, 1, 0)]),
                       fault_seed=1)

    def test_axi_response_faults_need_txn_timeout(self):
        with pytest.raises(ValueError, match="txn_timeout"):
            NocNetwork(NocConfig(rows=2, cols=2),
                       faults=FaultSpec(links=[LinkFault(0, 1)],
                                        response_faults=True),
                       fault_seed=1)

    def test_baseline_rejects_byzantine(self):
        with pytest.raises(ValueError, match="byzantine"):
            PacketMesh(PacketMeshConfig(),
                       faults=FaultSpec(byzantine_rate=1e-4), fault_seed=1)

    @pytest.mark.parametrize("field", ["max_retries", "retry_timeout",
                                       "response_faults", "txn_timeout"])
    def test_baseline_refuses(self, field):
        """No baseline endpoint retries or waits for a reply, so these
        knobs would change nothing there: refused, by name."""
        value = {"max_retries": 8, "retry_timeout": 500,
                 "response_faults": True, "txn_timeout": 400}[field]
        with pytest.raises(ValueError, match=field):
            PacketMesh(PacketMeshConfig(),
                       faults=FaultSpec(links=[LinkFault(0, 1)],
                                        **{field: value}),
                       fault_seed=1)


# ----------------------------------------------------------------------
# AXI mesh: orphaned transactions terminate via the watchdog
# ----------------------------------------------------------------------
def _run_axi(faults, *, seed=7, load=0.5, cycles=1200, kernel="activity"):
    net = NocNetwork(NocConfig.slim(), always_step=kernel == "always",
                     faults=faults, fault_seed=seed)
    traffic = uniform_random(net, load=load, max_burst_bytes=1000,
                             seed=seed).install()
    net.run(cycles)
    traffic.quiesce()
    net.drain(max_cycles=200_000)
    return net


class TestAxiOrphans:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("recovery", ["none", "retransmit"])
    def test_dead_response_path_always_drains(self, recovery, kernel):
        """A permanent dead pair plus hot link churn: responses of
        in-flight transactions die on the faulted links.  Whatever the
        recovery policy, the watchdog aborts the orphans and the drain
        loop reaches a real fixpoint — this sim used to hang forever
        here."""
        spec = FaultSpec(links=[LinkFault(0, 1, start=200),
                                LinkFault(1, 0, start=200)],
                         link_rate=8e-3, link_duration=400,
                         recovery=recovery, response_faults=True,
                         txn_timeout=800)
        net = _run_axi(spec, kernel=kernel)
        f = net.fault_report()
        assert net.idle()  # drained, not timed out
        assert f["response_drops"] > 0
        assert f["orphaned"] > 0
        if recovery == "none":
            # Orphans cannot retry: every one is dropped.
            assert f["dropped"] >= f["orphaned"]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_transient_window_timeout_recovery(self, kernel):
        """Responses lost inside transient dead windows are recovered
        by timed retransmission once the links heal; the timeout-latency
        histogram counts exactly the recovered orphans."""
        spec = FaultSpec(link_rate=8e-3, link_duration=400,
                         recovery="retransmit", max_retries=8,
                         response_faults=True, txn_timeout=800)
        net = _run_axi(spec, kernel=kernel)
        f = net.fault_report()
        assert net.idle()
        assert f["response_drops"] > 0
        assert f["orphaned"] > 0
        assert f["timeout_recovered"] > 0
        assert f["timeout_latency"]["count"] == f["timeout_recovered"]
        # A timeout recovery costs at least the watchdog budget.
        assert f["timeout_latency"]["min"] >= spec.txn_timeout

    def test_directed_read_orphan_lifecycle(self):
        """Closed-form adversarial case: a multi-burst read whose R
        stream is cut by a link that dies permanently mid-response.
        Every retry re-orphans against the dead path until the budget
        runs out; the caller is still released and the sim drains."""
        spec = FaultSpec(links=[LinkFault(0, 1, start=300)],
                         recovery="retransmit", max_retries=4,
                         response_faults=True, txn_timeout=500)
        net = NocNetwork(NocConfig(rows=2, cols=2), faults=spec,
                         fault_seed=1)
        done = []
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(1, 0), nbytes=4096, is_read=True,
            on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=100_000)
        f = net.fault_report()
        assert done  # the caller is released either way
        assert net.idle()
        assert f["response_drops"] > 0
        assert f["orphaned"] > 0
        assert f["dropped"] > 0  # retry budget exhausted, not hung


# ----------------------------------------------------------------------
# AXI mesh: byzantine corruption is detected, never fatal
# ----------------------------------------------------------------------
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open defect: dma._complete sees a response for "
                          "an id it no longer tracks (reroute + txn_timeout)")
@pytest.mark.parametrize("seed", [2096491879, 643744727])
def test_reroute_with_txn_timeout_keeps_every_response_id_known(seed):
    """Reproducer for ``tileN.dma: response for unknown id K``: the slim
    fabric at full load, links 5<->6 dead over [2500, 5500), up*/down*
    rerouting and a 900-cycle transaction watchdog.  Fixing it changes
    zombie-id lifetimes (and so every faulted digest); the strict xfail
    makes the fixing PR flip this test."""
    from repro.scenarios import (MeasureSpec, Scenario, TopologySpec,
                                 TrafficSpec, run_scenario)

    dead = [LinkFault(src, dst, start=2500, duration=3000)
            for src, dst in ((5, 6), (6, 5))]
    run_scenario(Scenario(
        topology=TopologySpec.slim(), traffic=TrafficSpec.uniform(1.0, 1000),
        measure=MeasureSpec.quick(), seed=seed,
        faults=FaultSpec(links=dead, txn_timeout=900, recovery="reroute")))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open defect: a live B response delayed past the "
                          "zombie-id grace window lands on an id the DMA "
                          "no longer tracks")
@pytest.mark.parametrize("always_step", [False, True])
def test_hot_spot_response_outliving_the_zombie_grace_is_absorbed(
        always_step):
    """Reproducer found by the many-to-one arm of the scheduler property
    in test_properties.py (which therefore keeps the watchdog off that
    arm): eleven masters of a slim 3x4 write to tile 0 at full load with
    link 0->1 dead from cycle 0, ``response_faults`` and a 300-cycle
    watchdog.  A burst aborted around cycle 360 is answered at cycle
    4753, after its id's 4096-cycle quarantine: ``tile6.dma: response
    for unknown id 2``, on the same cycle under either scheduler."""
    from repro.traffic.base import RandomTraffic

    spec = FaultSpec(links=[LinkFault(0, 1, start=0)], recovery="none",
                     response_faults=True, txn_timeout=300)
    net = NocNetwork(NocConfig.slim(3, 4), always_step=always_step,
                     faults=spec, fault_seed=253)
    traffic = RandomTraffic(
        net, {m: [0] for m in net.dma_endpoints() if m != 0}, load=1.0,
        max_burst_bytes=1000, read_fraction=0.0, seed=253).install()
    net.run(365)
    traffic.quiesce()
    net.drain(max_cycles=200_000)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open defect: the DMA's R sink sees a beat for an "
                          "id it no longer tracks (retransmit + "
                          "response_faults + txn_timeout, 50 % reads)")
@pytest.mark.parametrize("seed", [1, 3])
def test_retransmit_with_response_faults_keeps_every_r_beat_known(seed):
    """Reproducer for ``tileN.dma: R beat for unknown id K``: the
    benchmark's armed AXI point (links 5<->6 dead over [2500, 5500),
    corruption, retransmission, lost responses under a 900-cycle
    watchdog) with half its bursts reads.  It raises near cycle 7 000 on
    seed 1 and 7 900 on seed 3, under either scheduler and without the
    corruption too; the benchmark point is writes-only, so no digest
    covers it."""
    dead = [LinkFault(src, dst, start=2500, duration=3000)
            for src, dst in ((5, 6), (6, 5))]
    spec = FaultSpec(links=dead, corrupt_rate=2e-4, txn_timeout=900,
                     recovery="retransmit", response_faults=True)
    net = NocNetwork(NocConfig.slim(), faults=spec, fault_seed=seed)
    uniform_random(net, load=1.0, max_burst_bytes=1000, read_fraction=0.5,
                   seed=seed).install()
    while net.sim.now < 10_000:
        net.run(100)


class TestByzantine:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_high_rate_never_crashes(self, kernel):
        """A hot byzantine stream (mangled IDs and payloads) is absorbed
        by the guarded sinks: detected and discarded or SLVERR-completed,
        with the drain still reaching a fixpoint."""
        spec = FaultSpec(byzantine_rate=2e-3, recovery="retransmit",
                         txn_timeout=900)
        net = _run_axi(spec, kernel=kernel)
        f = net.fault_report()
        assert net.idle()
        assert f["byzantine"] > 0
        assert f["detected"] == f["corrupted"] + f["byzantine"]

    def test_byzantine_matches_across_kernels(self):
        spec = FaultSpec(byzantine_rate=1e-3, recovery="retransmit",
                         txn_timeout=900)

        def observe(kernel):
            net = _run_axi(spec, kernel=kernel)
            return (net.sim.now, net.total_bytes(),
                    net.transfers_completed(), net.counters.as_dict(),
                    net.fault_report())

        assert observe("activity") == observe("always")


# ----------------------------------------------------------------------
# Packet baseline: stuck VCs pin slots, mesh stays live
# ----------------------------------------------------------------------
class TestStuckVc:
    def _mesh(self, spec, *, cfgkw=None, cycles=4000, rate=0.15):
        mesh = PacketMesh(PacketMeshConfig(**(cfgkw or dict(n_vcs=2,
                                                            buf_depth=8))),
                          injection_rate=rate, seed=3, faults=spec,
                          fault_seed=3)
        mesh.run(cycles)
        return mesh

    def test_permanent_stuck_vc_keeps_mesh_live(self):
        """One VC stuck on a center-node port: flits in it are pinned,
        but the sibling VC keeps the mesh delivering."""
        spec = FaultSpec(stuck_vcs=[StuckVcFault(5, 1, 0, start=300)])
        mesh = self._mesh(spec)
        before = self._mesh(None)
        assert mesh.fault_report()["vc_faults"] == 1
        assert mesh.packets_received > 0
        assert mesh.packets_received <= before.packets_received

    def test_transient_stuck_vc_releases_flits(self):
        """The pinned flits are not lost: when the fault clears the slot
        re-enters allocation and the mesh converges back to the clean
        delivery count."""
        spec = FaultSpec(stuck_vcs=[StuckVcFault(5, 1, 0, start=300,
                                                 duration=500)])
        stuck = self._mesh(spec, cycles=8000)
        clean = self._mesh(None, cycles=8000)
        assert stuck.fault_report()["vc_faults"] == 1
        assert stuck.packets_dropped == clean.packets_dropped == 0
        assert stuck.flits_received == clean.flits_received

    def test_escape_vc_reroute_survives_stuck_vcs(self):
        """Adaptive escape-VC routing with stuck slots on the adaptive
        layer: the escape layer stays clean, so delivery continues."""
        spec = FaultSpec(stuck_vcs=[StuckVcFault(5, 1, 1, start=300),
                                    StuckVcFault(6, 3, 2, start=300)],
                         recovery="reroute")
        mesh = self._mesh(spec, cfgkw=dict(n_vcs=4, buf_depth=16))
        assert mesh.fault_report()["vc_faults"] == 2
        assert mesh.packets_received > 0


# ----------------------------------------------------------------------
# Reroute tables: one recompute per mesh-liveness change
# ----------------------------------------------------------------------
CHURN = FaultSpec(link_rate=4e-3, link_duration=300, recovery="reroute")


class TestRerouteTables:
    def test_installed_tables_follow_every_liveness_change(self):
        """After every fault event the controller applies, each router
        holds exactly the tables ``compute_fault_tables`` gives for the
        mesh faults then in force, and none once the mesh is healthy.  A
        local-port fault overlaps the churn: it changes no mesh
        liveness, so the controller keeps the tables it has."""
        spec = FaultSpec(link_rate=CHURN.link_rate,
                         link_duration=CHURN.link_duration,
                         ports=[PortFault(5, MESH_PORTS, start=700,
                                          duration=600)],
                         recovery="reroute")
        net = NocNetwork(NocConfig.slim(), faults=spec, fault_seed=7)
        ctrl = net._fault_controller
        apply = ctrl._apply
        seen = {"state": (set(), {}), "recomputes": 0, "clear": 0,
                "unchanged": 0}

        def checked(events):
            apply(events)
            dead, degraded = set(), {}
            for key, width in ctrl._port_faults.unhealthy():
                if key[1] < MESH_PORTS:
                    if width == 0.0:
                        dead.add(key)
                    else:
                        degraded[key] = width
            tables = {node: router.fault_table
                      for node, router in ctrl._routers.items()}
            if dead or degraded:
                assert tables == compute_fault_tables(
                    net.topology, dead, degraded, ctrl._dest_nodes)
            else:
                assert set(tables.values()) == {None}
            state = (dead, degraded)
            if state == seen["state"]:
                seen["unchanged"] += 1
            elif dead or degraded:
                seen["recomputes"] += 1
            else:
                seen["clear"] += 1
            seen["state"] = state

        ctrl._apply = checked
        traffic = uniform_random(net, load=0.4, max_burst_bytes=1000,
                                 seed=7).install()
        net.run(2000)
        traffic.quiesce()
        net.drain(max_cycles=200_000)
        f = net.fault_report()
        assert seen["recomputes"] > 0 and seen["clear"] > 0
        assert seen["unchanged"] > 0
        assert f["retables"] == seen["recomputes"]

    def test_scenario_churn_recomputes_every_table(self):
        """End-to-end: a Poisson-churn reroute run reports its table
        recomputes, each one routing all 16 nodes of the slim mesh."""
        net = _run_axi(CHURN, load=0.4, cycles=2000)
        f = net.fault_report()
        assert f["retables"] > 0
        assert f["dijkstra_sources"] == f["retables"] * 16
