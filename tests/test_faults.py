"""Fault-injection subsystem (DESIGN.md §10): spec round-trips,
deterministic fault histories, SLVERR semantics on the AXI mesh, drops
and rerouting on the packet baseline, recovery policies, resilience
sweeps, and the wall-clock watchdog.

The structural invariant tested throughout: fault injection is
*opt-in* — an inactive spec is bit-identical to no spec (covered in
test_golden_equivalence.py) — and an active spec produces the same
fault history for the same (spec, seed) in both kernel modes, in any
process.
"""

import importlib
import json
import multiprocessing
import os
from itertools import permutations

import pytest

from repro.axi.transaction import Transfer
from repro.baseline.config import PACKET_FLITS
from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.faults import (
    FaultSpec,
    FaultTimeline,
    LinkFault,
    StuckVcFault,
    fault_rngs,
)
from repro.faults.runtime import DeadLinks, FaultStats
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.scenarios import (
    MeasureSpec,
    Scenario,
    SimulationTimeout,
    TopologySpec,
    TrafficSpec,
    run_scenario,
)
from repro.scenarios.sweep import run_sweep, sweep
from repro.traffic.uniform import uniform_random

#: The module, not the ``sweep()`` function ``repro.scenarios`` exports
#: under the same name.
sweep_mod = importlib.import_module("repro.scenarios.sweep")

QUICK = MeasureSpec(warmup=300, window=1200)


def _uniform_scenario(*, faults=None, seed=3, load=0.5, backend="patronoc",
                      measure=QUICK):
    topology = (TopologySpec.slim() if backend == "patronoc"
                else TopologySpec.baseline())
    return Scenario(topology=topology,
                    traffic=TrafficSpec.uniform(load=load,
                                                max_burst_bytes=1000),
                    measure=measure, faults=faults, seed=seed)


# ----------------------------------------------------------------------
# Spec layer
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_json_round_trip(self):
        spec = FaultSpec(
            links=[LinkFault(0, 1, start=100, duration=500),
                   LinkFault(5, 6)],
            link_rate=1e-4, corrupt_rate=2e-5,
            recovery="retransmit", max_retries=5)
        again = FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert isinstance(again.links[0], LinkFault)

    def test_dict_inputs_normalized(self):
        spec = FaultSpec(links=[{"src": 0, "dst": 1}],
                         stuck_vcs=[{"node": 3, "port": 0}])
        assert spec.links == (LinkFault(0, 1),)
        assert spec.stuck_vcs == (StuckVcFault(3, 0),)

    def test_active(self):
        assert not FaultSpec().active()
        assert not FaultSpec(recovery="retransmit").active()
        assert FaultSpec(links=[LinkFault(0, 1)]).active()
        assert FaultSpec(link_rate=1e-5).active()
        assert FaultSpec(corrupt_rate=1e-5).active()

    @pytest.mark.parametrize("bad", [
        dict(links=[{"src": 0, "dst": 0}]),
        dict(links=[{"src": 0, "dst": 1, "start": -1}]),
        dict(links=[{"src": 0, "dst": 1, "duration": 0}]),
        dict(links=[{"src": -1, "dst": 1}]),
        dict(link_duration=0),
        dict(link_rate=1.5),
        dict(corrupt_rate=2.0),
        dict(recovery="pray"),
        dict(max_retries=-1),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)

    def test_a_degraded_link_is_refused_by_name(self):
        """A link is alive or dead: a spec written for the removed
        width-degraded model fails naming the key it no longer takes."""
        with pytest.raises(TypeError, match="width_factor"):
            FaultSpec(links=[{"src": 0, "dst": 1, "width_factor": 0.5}])

    @pytest.mark.parametrize("key, value", [
        ("ports", [{"node": 0, "port": 1}]),
        ("byzantine_rate", 1e-3),
        ("retry_timeout", 500),
    ])
    def test_a_removed_fault_kind_is_refused_by_name(self, key, value):
        """Dead ports and byzantine response beats are not modelled, and
        a retry's age limit is ``Recovery.MAX_AGE``: a spec that carries
        any of these fails naming the key, from a dict (the JSON form)
        or as a keyword."""
        with pytest.raises(ValueError, match=key):
            FaultSpec.from_dict({key: value})
        with pytest.raises(TypeError, match=key):
            FaultSpec(**{key: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            FaultSpec.from_dict({"lnk_rate": 0.1})


class TestScenarioIntegration:
    def test_scenario_round_trip_with_faults(self):
        sc = _uniform_scenario(
            faults=FaultSpec(corrupt_rate=1e-4, recovery="retransmit"))
        again = Scenario.from_dict(json.loads(json.dumps(sc.to_dict())))
        assert again == sc
        assert again.faults == sc.faults

    def test_scenario_round_trip_without_faults(self):
        sc = _uniform_scenario()
        assert sc.faults is None
        assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc

    def test_dnn_accepts_faults(self):
        sc = Scenario(traffic=TrafficSpec.dnn("par"),
                      faults=FaultSpec(link_rate=1e-4, recovery="reroute"))
        assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc

    def test_patronoc_accepts_reroute(self):
        sc = _uniform_scenario(faults=FaultSpec(links=[LinkFault(0, 1)],
                                                recovery="reroute"))
        assert sc.faults.recovery == "reroute"

    def test_table_routing_rejects_reroute(self):
        """Frozen per-hop address tables cannot swap to fault tables."""
        with pytest.raises(ValueError, match="reroute"):
            NocNetwork(NocConfig(rows=2, cols=2), routing="table",
                       faults=FaultSpec(links=[LinkFault(0, 1)],
                                        recovery="reroute"))

    def test_baseline_accepts_reroute(self):
        sc = _uniform_scenario(backend="baseline",
                               faults=FaultSpec(links=[LinkFault(0, 1)],
                                                recovery="reroute"))
        assert sc.faults.recovery == "reroute"


def test_overlapping_faults_compose_in_any_order():
    """One table for both fabrics (``DeadLinks``): an egress is dead
    while any fault on it is in force, and healthy once the last one
    clears — whatever order the faults start and clear in.  ``apply``
    reports an egress only when it dies or revives, and ``ports`` is the
    node's set both fabrics install.  Links 0, 1 and 2 are egresses
    (2, 1), (2, 3) and (0, 0)."""
    starts = {fid: ("link", 0, fid) for fid in (1, 2, 3)}
    clears = {fid: ("link_clear", 0, fid) for fid in (1, 2, 3)}
    for begin in permutations(starts):
        for end in permutations(clears):
            stats = FaultStats()
            table = DeadLinks([(2, 1), (2, 3), (0, 0)], stats)
            for n, fid in enumerate(begin):
                assert table.apply([starts[fid]]) == ([(2, 1)] if n == 0
                                                      else [])
                assert table.ports(2) == {1}
            assert stats.link_faults == 3
            assert table.apply([("link", 1, 4), ("link_clear", 1, 4)]) == []
            live = set(clears)
            for fid in end:
                live.discard(fid)
                assert table.apply([clears[fid]]) == ([] if live
                                                      else [(2, 1)])
                assert table.ports(2) == ({1} if live else None)
                assert list(table.unhealthy()) == ([(2, 1)] if live else [])
            assert table.ports(0) is None
    assert table.apply([("link", 0, 5), ("link", 1, 6)]) == [(2, 1), (2, 3)]
    assert table.ports(2) == {1, 3}
    assert table.apply([("link_clear", 0, 5), ("link", 2, 7)]) == [
        (0, 0), (2, 1)]
    assert (table.ports(0), table.ports(2)) == ({0}, {3})


# ----------------------------------------------------------------------
# Deterministic fault histories
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_timeline_reproducible(self):
        spec = FaultSpec(link_rate=1e-3, link_duration=200)

        def history(seed):
            tl = FaultTimeline(spec, 48, rng=fault_rngs(seed, 1)[0])
            events = []
            for now in range(0, 20_000, 100):
                events.extend(tl.pop_due(now))
            return events

        assert history(5) == history(5)
        assert history(5) != history(6)

    def test_same_spec_seed_same_result(self):
        sc = _uniform_scenario(
            faults=FaultSpec(link_rate=5e-4, corrupt_rate=1e-4,
                             recovery="retransmit"))
        assert run_scenario(sc) == run_scenario(sc)

    def test_sweep_parallel_matches_serial(self):
        base = _uniform_scenario(
            faults=FaultSpec(corrupt_rate=1e-4, recovery="retransmit"),
            measure=MeasureSpec(warmup=200, window=800))
        sw = sweep(base, seeds=[1, 7, 42, 99])
        serial = run_sweep(sw, jobs=1)
        parallel = run_sweep(sw, jobs=4)
        assert all(r is not None for r in serial)
        assert serial == parallel

    @pytest.mark.parametrize("backend", ["patronoc", "baseline"])
    def test_activity_matches_always_step_under_faults(self, backend):
        """Corruption on the AXI arm; the baseline refuses it."""
        spec = FaultSpec(links=[LinkFault(5, 6, start=100, duration=600),
                                LinkFault(9, 10)],
                        link_rate=5e-4,
                        corrupt_rate=1e-4 if backend == "patronoc" else 0.0,
                        recovery="none" if backend == "patronoc"
                        else "reroute")

        def observe(always_step):
            if backend == "baseline":
                mesh = PacketMesh(PacketMeshConfig(), injection_rate=0.08,
                                  seed=7, always_step=always_step,
                                  faults=spec)
                mesh.run(2500)
                return (mesh.packets_received, mesh.packets_dropped,
                        mesh.flits_received, mesh.latency.summary(),
                        mesh.fault_report())
            net = NocNetwork(NocConfig.slim(), always_step=always_step,
                             faults=spec, fault_seed=7)
            traffic = uniform_random(net, load=0.5, max_burst_bytes=1000,
                                     seed=7).install()
            net.run(2000)
            traffic.quiesce()
            net.drain(max_cycles=100_000)
            return (net.sim.now, net.total_bytes(),
                    net.transfers_completed(), net.counters.as_dict(),
                    net.fault_report())

        assert observe(False) == observe(True)


# ----------------------------------------------------------------------
# AXI-mesh semantics
# ----------------------------------------------------------------------
class TestAxiFaults:
    def test_dead_link_fails_fast_with_slverr(self):
        """Transfers routed into a dead link terminate with SLVERR (no
        hang); error counters and the Result faults section see them."""
        sc = _uniform_scenario(
            load=0.8, seed=5,
            faults=FaultSpec(links=[LinkFault(0, 1, start=200)]))
        result = run_scenario(sc)
        f = result.faults
        assert f["blocked_aw"] + f["blocked_ar"] > 0
        assert f["response_errors"] > 0
        assert result.counters["response_errors"] == f["response_errors"]
        assert result.throughput_gib_s > 0  # the rest of the mesh flows

    def test_dead_port_blocks_its_direction(self):
        """A dead link kills the egress port it leaves by, in one
        direction only."""
        net = NocNetwork(NocConfig(rows=2, cols=2),
                         faults=FaultSpec(links=[LinkFault(0, 1)]),
                         fault_seed=1)
        done = []
        # node 0 -> node 1 crosses XP 0's east port (port 1): SLVERR;
        # node 1 -> node 0 takes the other link and lands.
        for src, dst in ((0, 1), (1, 0)):
            net.dmas[src].submit(Transfer(
                src=src, addr=net.addr_of(dst, 0), nbytes=64,
                is_read=False, on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=20_000)
        assert len(done) == 2
        assert (net.dmas[0].errors, net.dmas[1].errors) == (1, 0)
        assert net.fault_report()["blocked_aw"] == 1
        assert net.memories[1].bytes_written == 0
        assert net.memories[0].bytes_written == 64

    def test_transient_link_fault_clears(self):
        """After the fault window, the same path works again."""
        net = NocNetwork(NocConfig(rows=2, cols=2),
                         faults=FaultSpec(links=[
                             LinkFault(0, 1, start=0, duration=300)]),
                         fault_seed=1)
        errors, ok = [], []
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(1, 0), nbytes=64, is_read=False,
            on_complete=lambda now: errors.append(now)))
        net.run(400)  # past the fault window
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(1, 0), nbytes=64, is_read=False,
            on_complete=lambda now: ok.append(now)))
        net.drain(max_cycles=20_000)
        assert net.dmas[0].errors == 1 and len(errors) == 1 and len(ok) == 1
        assert net.memories[1].bytes_written == 64

    def test_corruption_surfaces_as_slverr_and_is_not_credited(self):
        sc = _uniform_scenario(
            faults=FaultSpec(corrupt_rate=2e-4))
        result = run_scenario(sc)
        f = result.faults
        assert f["corrupted"] > 0
        assert f["detected"] == f["corrupted"]
        assert f["response_errors"] > 0

    def test_retransmit_recovers_corrupted_transfers(self):
        sc = _uniform_scenario(
            faults=FaultSpec(corrupt_rate=2e-4, recovery="retransmit"))
        result = run_scenario(sc)
        f = result.faults
        assert f["retransmissions"] > 0
        assert f["recovered"] > 0
        assert f["recovery_latency"]["count"] == f["recovered"]
        assert f["recovery_latency"]["p50"] > 0

    def test_throughput_degrades_with_corruption(self):
        clean = run_scenario(_uniform_scenario(load=1.0))
        noisy = run_scenario(_uniform_scenario(
            load=1.0, faults=FaultSpec(corrupt_rate=5e-4)))
        assert noisy.throughput_gib_s < clean.throughput_gib_s

    def test_retry_budget_bounds_retransmissions(self):
        """With certain corruption every transfer exhausts its budget
        and is dropped — never an infinite retry loop."""
        net = NocNetwork(NocConfig(rows=2, cols=2),
                         faults=FaultSpec(corrupt_rate=1.0,
                                          recovery="retransmit",
                                          max_retries=2),
                         fault_seed=1)
        done = []
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(1, 0), nbytes=64, is_read=False,
            on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=50_000)
        f = net.fault_report()
        assert done  # closed-loop callers still progress
        assert f["retransmissions"] == 2
        assert f["dropped"] == 1 and f["recovered"] == 0

    def test_per_burst_retransmit_spares_clean_bursts(self):
        """Retransmission is per burst: a transient dead window in the
        middle of a multi-burst transfer only re-sends the bursts it
        hit — the siblings delivered before/after the window go once."""
        n_bursts = 8  # 8192 B / (256 beats * 4 B/beat)
        net = NocNetwork(NocConfig(rows=2, cols=2),
                         faults=FaultSpec(
                             links=[LinkFault(0, 1, start=400,
                                              duration=600)],
                             recovery="retransmit", max_retries=64),
                         fault_seed=1)
        done = []
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(1, 0), nbytes=8192, is_read=False,
            on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=200_000)
        f = net.fault_report()
        assert done and net.memories[1].bytes_written == 8192
        assert f["dropped"] == 0
        # Some bursts were hit and recovered; some never needed a retry.
        assert 0 < f["recovered"] < n_bursts
        assert f["retransmissions"] >= f["recovered"]
        assert f["recovery_latency"]["count"] == f["recovered"]
        # Recovery latency spans the dead window, not one clean burst.
        assert f["recovery_latency"]["p99"] > 256


# ----------------------------------------------------------------------
# AXI up*/down* rerouting (DESIGN.md §10)
# ----------------------------------------------------------------------
class TestAxiReroute:
    def _dead(self, *pairs, start=0, duration=None, recovery="reroute"):
        return FaultSpec(links=[LinkFault(s, d, start=start,
                                          duration=duration)
                                for s, d in pairs],
                         recovery=recovery)

    def test_reroute_dodges_dead_link(self):
        """node0 -> node5 normally crosses 4->5 (YX); with 4<->5 dead
        the up*/down* tables deliver around it, error-free."""
        faults = self._dead((4, 5), (5, 4))
        net = NocNetwork(NocConfig.slim(), faults=faults, fault_seed=1)
        done = []
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(5, 0), nbytes=1024, is_read=False,
            on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=50_000)
        f = net.fault_report()
        assert done and net.dmas[0].errors == 0
        assert net.memories[5].bytes_written == 1024
        assert f["reroute_decisions"] > 0
        assert f["blocked_aw"] == 0

    def test_fail_fast_without_reroute(self):
        """Same fault, recovery='none': the transfer SLVERRs instead."""
        faults = self._dead((4, 5), (5, 4), recovery="none")
        net = NocNetwork(NocConfig.slim(), faults=faults, fault_seed=1)
        done = []
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(5, 0), nbytes=1024, is_read=False,
            on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=50_000)
        assert done and net.dmas[0].errors == 1
        assert net.memories[5].bytes_written == 0

    def test_unreachable_dest_still_fails_fast(self):
        """A fully cut-off node is absent from the fault tables; routes
        toward it fall back to YX and hit the dead-egress SLVERR path
        instead of hanging."""
        faults = self._dead((0, 1), (1, 0), (3, 1), (1, 3))
        net = NocNetwork(NocConfig(rows=2, cols=2), faults=faults,
                         fault_seed=1)
        done = []
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(1, 0), nbytes=64, is_read=False,
            on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=50_000)
        assert done and net.dmas[0].errors == 1
        assert net.memories[1].bytes_written == 0

    def test_transient_fault_reverts_to_pristine_routes(self):
        """After the fault clears, new transfers take the original YX
        path again — reroute_decisions stops growing."""
        faults = self._dead((4, 5), (5, 4), duration=2000)
        net = NocNetwork(NocConfig.slim(), faults=faults, fault_seed=1)
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(5, 0), nbytes=256, is_read=False))
        net.drain(max_cycles=50_000)
        during = net.fault_report()["reroute_decisions"]
        assert during > 0
        net.run(3000)  # past the fault window
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(5, 0), nbytes=256, is_read=False))
        net.drain(max_cycles=50_000)
        assert net.fault_report()["reroute_decisions"] == during
        assert net.memories[5].bytes_written == 512
        assert net.dmas[0].errors == 0

    def test_reroute_decisions_counts_decisions_not_waiting(self):
        """One count per rerouted head per hop: a fixed transfer list
        run to drain around a link dead from cycle 0 takes the same
        decisions however long its heads wait behind a slow memory, and
        under either scheduler (a head is decoded once, DESIGN.md §10).
        The count used to be per cycle a rerouted head waited."""
        from dataclasses import replace

        counts = {}
        for always_step in (False, True):
            for memory_latency in (5, 60):
                cfg = replace(NocConfig.slim(), memory_latency=memory_latency)
                net = NocNetwork(cfg, faults=self._dead((4, 5), (5, 4)),
                                 fault_seed=1, always_step=always_step)
                for src in (0, 4, 8, 12, 1, 13):
                    for is_read in (False, True):
                        net.dmas[src].submit(Transfer(
                            src=src, nbytes=3000, is_read=is_read,
                            addr=net.addr_of(7 if src == 1 else 5, 0)))
                net.drain(max_cycles=200_000)
                assert net.response_errors() == 0
                counts[always_step, memory_latency] = (
                    net.fault_report()["reroute_decisions"])
        assert len(set(counts.values())) == 1, counts
        # Three bursts each way from the four column-0 nodes deviate from
        # YX, at one hop or more; 1->7 and 13->5 keep their YX paths.
        assert counts[False, 5] >= 4 * 2 * 3

    def test_scenario_reroute_beats_fail_fast(self):
        """Under uniform traffic with a dead cut, rerouting eliminates
        the SLVERR storm entirely (detour paths can cost some open-loop
        throughput, so errors — not GiB/s — is the robust observable)."""
        def point(recovery):
            return run_scenario(_uniform_scenario(
                faults=self._dead((5, 6), (6, 5), start=200,
                                  recovery=recovery)))

        none, rr = point("none"), point("reroute")
        assert none.faults["response_errors"] > 0
        assert rr.faults["response_errors"] == 0
        assert rr.faults["reroute_decisions"] > 0


# ----------------------------------------------------------------------
# DNN workloads under faults
# ----------------------------------------------------------------------
class TestDnnFaults:
    def test_dnn_scenario_runs_with_faults(self):
        """A DNN workload with an injected dead link completes its
        window and reports recovery accounting in Result.faults."""
        sc = Scenario(
            topology=TopologySpec.slim(),
            traffic=TrafficSpec.dnn("par"),
            measure=MeasureSpec(fidelity="quick", warmup=2000,
                                window=4000),
            faults=FaultSpec(links=[LinkFault(5, 6, start=100)],
                             recovery="reroute"),
            seed=3)
        result = run_scenario(sc)
        assert result.faults["link_faults"] >= 1
        assert result.faults["reroute_decisions"] > 0
        assert result.throughput_gib_s > 0

    def test_dnn_recovery_policies_ordered(self):
        """With a dead cut on the mesh, rerouting recovers most of the
        DNN traffic that fail-fast loses to SLVERR."""
        def point(recovery):
            return run_scenario(Scenario(
                topology=TopologySpec.slim(),
                traffic=TrafficSpec.dnn("par"),
                measure=MeasureSpec(fidelity="quick", warmup=2000,
                                    window=6000),
                faults=FaultSpec(links=[LinkFault(5, 6, start=100),
                                        LinkFault(6, 5, start=100)],
                                 recovery=recovery),
                seed=3))

        none, rr = point("none"), point("reroute")
        assert none.faults["response_errors"] > 0
        assert rr.faults["response_errors"] < none.faults["response_errors"] / 2
        assert rr.faults["reroute_decisions"] > 0


# ----------------------------------------------------------------------
# Packet-baseline semantics
# ----------------------------------------------------------------------
class TestBaselineFaults:
    def _mesh(self, spec, *, rate=0.08, cycles=4000, seed=3, cfg=None):
        mesh = PacketMesh(cfg or PacketMeshConfig(), injection_rate=rate,
                          seed=seed, faults=spec)
        mesh.run(cycles)
        return mesh

    def test_dead_link_drops_whole_packets(self):
        mesh = self._mesh(FaultSpec(links=[LinkFault(5, 6, start=100)]))
        report = mesh.fault_report()
        assert mesh.packets_dropped > 0
        # Wormhole drop semantics: the body flits of a dropped head are
        # drained too, never left to corrupt a later allocation.
        assert report["flits_dropped"] == (
            mesh.packets_dropped * PACKET_FLITS)

    def test_reroute_reduces_drops(self):
        """Escape-VC adaptive routing needs >= 2 VCs (VC 0 stays the
        XY escape layer); with them it dodges the dead link."""
        cfg = PacketMeshConfig(n_vcs=4, buf_depth=32)
        spec_none = FaultSpec(links=[LinkFault(5, 6, start=100)])
        spec_rr = FaultSpec(links=[LinkFault(5, 6, start=100)],
                            recovery="reroute")
        dropped_none = self._mesh(spec_none, cfg=cfg).packets_dropped
        rerouted = self._mesh(spec_rr, cfg=cfg)
        assert rerouted.packets_dropped < dropped_none
        assert rerouted.fault_report()["reroute_decisions"] > 0

    def test_reroute_single_vc_degenerates_to_drop(self):
        """With one VC there is no adaptive layer: reroute mode behaves
        exactly like strict XY plus dead-egress drops."""
        spec_rr = FaultSpec(links=[LinkFault(5, 6, start=100)],
                            recovery="reroute")
        spec_none = FaultSpec(links=[LinkFault(5, 6, start=100)])
        rerouted = self._mesh(spec_rr)
        plain = self._mesh(spec_none)
        assert rerouted.packets_dropped == plain.packets_dropped
        assert rerouted.fault_report()["reroute_decisions"] == 0

    def test_retransmit_behaves_as_none(self):
        """No baseline endpoint resends a packet, so ``retransmit`` is
        ``none`` there: the same Result, fault report included.  It stays
        accepted because existing specs write it on the packet mesh."""
        def result(recovery):
            dead = [LinkFault(5, 6, start=400), LinkFault(6, 5, start=400)]
            faults = FaultSpec(links=dead, recovery=recovery)
            data = run_scenario(_uniform_scenario(
                backend="baseline", load=0.3, faults=faults)).to_dict()
            del data["provenance"]
            return data

        none = result("none")
        assert none["faults"]["dropped"] > 0
        assert result("retransmit") == none


# ----------------------------------------------------------------------
# Watchdog + hardened sweeps
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_timeout_raises_with_progress(self):
        sc = _uniform_scenario(
            measure=MeasureSpec(warmup=1000, window=50_000_000,
                                max_wall_s=0.15))
        with pytest.raises(SimulationTimeout) as err:
            run_scenario(sc)
        assert err.value.cycles > 0
        assert "wall-clock" in str(err.value)

    def test_off_by_default(self):
        assert MeasureSpec().max_wall_s is None
        result = run_scenario(_uniform_scenario())
        assert result.cycles == QUICK.warmup + QUICK.window

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasureSpec(max_wall_s=0.0)

    def test_round_trips(self):
        m = MeasureSpec(max_wall_s=30.0)
        assert MeasureSpec.coerce(m.to_dict()) == m


def kill_workers_running(monkeypatch, label_part: str) -> None:
    """From here on, a *pool worker* that starts a point whose label
    contains ``label_part`` dies hard (``os._exit``) — the only way to
    reach run_sweep's BrokenProcessPool recovery.  Forked workers
    inherit the patch; the parent (serial path, serial retry) has no
    parent process and runs the real ``run_scenario``."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("a spawned worker would not inherit the patch")
    real = sweep_mod.run_scenario

    def run_or_die(sc):
        if (multiprocessing.parent_process() is not None
                and label_part in sc.label):
            os._exit(3)
        return real(sc)

    monkeypatch.setattr(sweep_mod, "run_scenario", run_or_die)


class TestHardenedSweep:
    def _points(self, n=3):
        base = _uniform_scenario(measure=MeasureSpec(warmup=200, window=600))
        return sweep(base, seeds=list(range(1, n + 1))).points()

    def test_failing_point_reported_not_raised(self, capsys, monkeypatch):
        """A point that raises (timeout) in a serial sweep becomes None +
        a stderr report after its one try — it would fail the same way
        again, so its ``max_wall_s`` is paid once; the other points
        still complete."""
        points = self._points()
        points[1] = points[1].with_(
            measure=MeasureSpec(warmup=1000, window=50_000_000,
                                max_wall_s=0.1))
        real, calls = sweep_mod.run_scenario, []

        def counted(sc):
            calls.append(sc)
            return real(sc)

        monkeypatch.setattr(sweep_mod, "run_scenario", counted)
        results = run_sweep(points, jobs=1)
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        assert calls == points
        assert ("1/3 point(s) failed serially, not retried"
                in capsys.readouterr().err)

    def test_worker_crash_recovered_by_serial_retry(self, monkeypatch):
        """A worker process dying hard (BrokenProcessPool) must not sink
        the sweep: every point is recovered by the in-parent retry and
        matches a clean serial run exactly."""
        points = self._points(4)
        clean = run_sweep(points, jobs=1)
        kill_workers_running(monkeypatch, "seed2")
        crashed = run_sweep(points, jobs=2)
        assert crashed == clean

    def test_artifacts_round_trip_with_failures(self, tmp_path):
        from repro.scenarios import load_results_json, save_artifacts

        points = self._points(2)
        results = [run_scenario(points[0]), None]
        save_artifacts(points, results, tmp_path)
        again = load_results_json(tmp_path / "results.json")
        assert again == results

    def test_faults_axes(self):
        base = _uniform_scenario()  # faults=None base
        sw = sweep(base, fault_rates=[0.0, 1e-4],
                   recoveries=["none", "retransmit"])
        points = sw.points()
        assert len(points) == 4
        assert points[0].faults is not None
        assert not points[0].faults.active()  # 0.0 + none = inactive
        assert points[3].faults.link_rate == 1e-4
        assert points[3].faults.recovery == "retransmit"


# ----------------------------------------------------------------------
# Error responses visible end-to-end in Result counters (DECERR/SLVERR)
# ----------------------------------------------------------------------
class TestErrorVisibility:
    def test_decerr_counted_as_response_errors(self):
        """A DMA writing+reading a memory-map hole completes with DECERR
        and the errors surface in the network counter rollup."""
        net = NocNetwork(NocConfig(rows=2, cols=2))
        done = []
        hole = net.memory_map.regions[-1].end + 4096
        for is_read in (False, True):
            net.dmas[0].submit(Transfer(
                src=0, addr=hole, nbytes=64, is_read=is_read,
                on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=20_000)
        assert len(done) == 2
        assert net.response_errors() == 2
        assert net.counters["decerr_b"] == 1
        assert net.counters["decerr_r"] == 1
        assert net.fault_report() == {}  # no FaultSpec: no faults section

    def test_result_counters_report_response_errors(self):
        clean = run_scenario(_uniform_scenario())
        assert clean.counters["response_errors"] == 0
        noisy = run_scenario(_uniform_scenario(
            faults=FaultSpec(corrupt_rate=3e-4)))
        assert noisy.counters["response_errors"] > 0
