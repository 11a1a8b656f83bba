"""Ablation benches for the design choices DESIGN.md §8 calls out.

These go beyond the paper's figures: each isolates one Table I (or
testbench) parameter and checks its performance effect has the expected
sign, quantifying the design-space intuition §II describes.
"""

import pytest

from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.baseline.nic import PacketNic
from repro.axi.transaction import Transfer
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.scenarios import (MeasureSpec, Scenario, TopologySpec,
                             TrafficSpec, run_sweep)


def point(burst=1000, read_fraction=0.5, **knobs):
    """The slim NoC, ``knobs`` changed, at load 1.0 (seed 3)."""
    return Scenario(topology=TopologySpec(**knobs),
                    traffic=TrafficSpec.uniform(
                        1.0, burst, read_fraction=read_fraction),
                    measure=MeasureSpec(warmup=2_000, window=8_000), seed=3)


@pytest.fixture
def saturation(run_once, figure_store):
    """``saturation(*points)``: each point's aggregate GiB/s, through
    the session store, so a point two benches share simulates once."""
    def measure(*points):
        results = run_once(run_sweep, list(points), cache="rw",
                           store=figure_store)
        return [result.throughput_gib_s for result in results]
    return measure


def test_mot_improves_throughput(saturation):
    """§II: 'A higher max. number of outstanding transactions improves
    performance' — MOT=1 vs MOT=8 on read-heavy traffic."""
    # Small reads are round-trip dominated: exactly the regime where
    # outstanding transactions hide memory latency (§II).
    shallow, deep = saturation(*(
        point(64, 1.0, memory_latency=30, max_outstanding=mot)
        for mot in (1, 8)))
    assert deep > shallow * 1.1, (shallow, deep)


def test_id_width_pressure(saturation):
    """A 1-bit ID space (2 remap entries per egress) throttles a 16-node
    mesh versus the paper's IW=4."""
    narrow, wide = saturation(point(id_width=1), point(id_width=4))
    assert wide > narrow


def test_memory_latency_sensitivity(saturation):
    """Deep memory latency hurts when MOT cannot cover it."""
    fast, slow = saturation(*(
        point(read_fraction=1.0, max_outstanding=1, memory_latency=latency)
        for latency in (0, 100)))
    assert fast > slow * 1.2


def test_dma_issue_overhead_dominates_small_bursts(saturation):
    """The small-burst regime is endpoint-bound: halving descriptor
    overhead nearly doubles ≤4 B throughput but barely moves 64 KiB."""
    small_slow, small_fast, big_slow, big_fast = saturation(
        point(4), point(4, dma_issue_overhead=5),
        point(64000), point(64000, dma_issue_overhead=5))
    small_gain = small_fast / small_slow
    big_gain = big_fast / big_slow
    assert small_gain > 1.5
    assert big_gain < small_gain


def test_protocol_translation_tax(run_once):
    """The §I argument head-on: the same 100-transfer DMA stream through
    (a) PATRONoC end-to-end AXI and (b) a packet NoC behind
    packetising NICs at equal link width.  AXI must win."""
    def run_pair():
        # (a) PATRONoC slim.
        net = NocNetwork(NocConfig.slim())
        for src in range(16):
            dst = (src + 5) % 16
            net.dmas[src].submit(Transfer(
                src=src, addr=net.addr_of(dst, 0), nbytes=4096,
                is_read=False))
        net.drain(max_cycles=500_000)
        axi_cycles = net.sim.now
        # (b) packet mesh with NICs, 32-bit flits like the slim NoC.
        mesh = PacketMesh(PacketMeshConfig(n_vcs=4, buf_depth=32),
                          injection_rate=0.0)
        nics = [PacketNic(mesh, node=n) for n in range(16)]
        for nic in nics:
            mesh.sim.add(nic)
        for src in range(16):
            nics[src].submit(Transfer(src=src, addr=0, nbytes=4096,
                                      is_read=False), (src + 5) % 16)
        target = 16 * 4096
        while mesh.bytes_received < target and mesh.sim.now < 300_000:
            mesh.run(1_000)
        assert mesh.bytes_received == target
        return axi_cycles, mesh.sim.now

    axi_cycles, mesh_cycles = run_once(run_pair)
    # End-to-end AXI moves the same workload in far fewer cycles than
    # packetisation through NICs over a same-width link.
    assert axi_cycles < mesh_cycles


def test_hop_latency_affects_latency_not_bandwidth(saturation):
    """Register slices add latency per hop; saturation bandwidth of
    streaming bursts is unaffected (pipelining)."""
    thr1, thr4 = saturation(point(64000, hop_latency=1),
                            point(64000, hop_latency=4))
    assert thr4 > 0.8 * thr1


def test_full_vs_partial_connectivity_equivalent_on_mesh(saturation):
    """YX routing never uses the extra turns, so full connectivity buys
    no mesh performance (only area) — Table I's 'Partial (default)'."""
    partial, full = saturation(point(), point(full_connectivity=True))
    assert full == pytest.approx(partial, rel=0.02)
