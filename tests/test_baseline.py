"""Tests for the packet-switched baseline NoC (Noxim stand-in)."""

import pytest

from repro.baseline.flit import FlitKind, Packet, make_flits
from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.baseline.nic import PacketNic
from repro.baseline.router import P_LOCAL, Router
from repro.axi.transaction import Transfer


class TestFlits:
    def test_make_flits_structure(self):
        packet = Packet(src=0, dst=5, length=8, created=0, pid=1)
        flits = make_flits(packet)
        assert len(flits) == 8
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail
        assert all(f.kind == FlitKind.BODY for f in flits[1:-1])

    def test_single_flit_packet_is_head_and_tail(self):
        packet = Packet(src=0, dst=1, length=1, created=0, pid=0)
        (flit,) = make_flits(packet)
        assert flit.is_head and flit.is_tail

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, length=0, created=0, pid=0)


class TestRouter:
    def test_buffer_overrun_raises(self):
        router = Router(0, n_vcs=1, buf_depth=1)
        packet = Packet(0, 1, 2, 0, 0)
        flits = make_flits(packet)
        router.accept(0, 0, flits[0], now=0)
        with pytest.raises(OverflowError):
            router.accept(0, 0, flits[1], now=0)


class TestPacketMesh:
    def test_zero_injection_stays_idle(self):
        mesh = PacketMesh(PacketMeshConfig(), injection_rate=0.0)
        mesh.run(100)
        assert mesh.flits_received == 0
        assert mesh.in_flight() == 0

    def test_all_packets_delivered_no_loss(self):
        mesh = PacketMesh(PacketMeshConfig(rows=3, cols=3),
                          injection_rate=0.1, seed=2)
        mesh.run(3000)
        mesh.injection_rate = 0.0
        mesh._next_arrival = [float("inf")] * 9
        mesh.run(3000)
        assert mesh.in_flight() == 0
        assert mesh.flits_received == mesh.flits_offered

    def test_source_cap_holds_arrivals_back_and_releases_them(self):
        """A full source queue pauses its node's arrival clock; the
        arrival is generated on the first cycle a slot is free again
        (``_gen_due`` must be re-armed by the pop that frees it)."""
        mesh = PacketMesh(PacketMeshConfig(), injection_rate=1.0, seed=5)
        mesh._source_cap = cap = 4
        held_back = 0
        for _ in range(40):
            mesh.run(50)
            last = mesh.sim.now - 1  # the cycle just stepped
            for node, queue in enumerate(mesh._source_q):
                assert len(queue) <= cap
                if mesh._next_arrival[node] <= last:
                    held_back += 1
                    # Full when generation ran; injection may since
                    # have taken one packet.
                    assert len(queue) >= cap - 1
        assert held_back > 100  # saturated: the cap really is binding

    def test_latency_reasonable_at_low_load(self):
        mesh = PacketMesh(PacketMeshConfig(), injection_rate=0.02, seed=3)
        mesh.run(5000)
        assert mesh.packets_received > 10
        # Zero-load latency: serialization (8 flits) + a few hops.
        assert mesh.latency.mean < 60

    def test_more_vcs_do_not_hurt_saturation(self):
        results = {}
        for n_vcs, buf in ((1, 4), (4, 32)):
            mesh = PacketMesh(PacketMeshConfig(n_vcs=n_vcs, buf_depth=buf),
                              injection_rate=1.0, seed=4)
            mesh.set_warmup(2000)
            mesh.run(8000)
            results[(n_vcs, buf)] = mesh.throughput_flits_per_cycle_node()
        assert results[(4, 32)] > results[(1, 4)]

    def test_saturation_in_plausible_wormhole_range(self):
        """4x4 XY wormhole saturates between 0.25 and 0.8 flits/cyc/node."""
        mesh = PacketMesh(PacketMeshConfig(n_vcs=4, buf_depth=32),
                          injection_rate=1.0, seed=5)
        mesh.set_warmup(2000)
        mesh.run(10000)
        sat = mesh.throughput_flits_per_cycle_node()
        assert 0.25 < sat < 0.8

    def test_aggregate_is_node_times_n(self):
        mesh = PacketMesh(PacketMeshConfig(), injection_rate=0.05, seed=6)
        mesh.set_warmup(1000)
        mesh.run(4000)
        assert mesh.throughput_gib_s_aggregate() == pytest.approx(
            16 * mesh.throughput_gib_s_node())

    def test_invalid_injection_rate(self):
        with pytest.raises(ValueError):
            PacketMesh(PacketMeshConfig(), injection_rate=-0.1)


class TestNic:
    def test_transfer_packetised_and_payload_delivered(self):
        mesh = PacketMesh(PacketMeshConfig(), injection_rate=0.0)
        nic = PacketNic(mesh, node=0)
        mesh.sim.add(nic)
        transfer = Transfer(src=0, addr=0, nbytes=100, is_read=False)
        nic.submit(transfer, dst_node=15)
        mesh.run(300)
        assert nic.idle()
        # 100 B at 28 B payload/packet → 4 packets.
        assert mesh.packets_received == 4
        assert mesh.bytes_received == 100

    def test_translation_overhead_paces_packets(self):
        slow_cfg = PacketMeshConfig()
        mesh = PacketMesh(slow_cfg, injection_rate=0.0)
        fast = PacketNic(mesh, node=0, translation_overhead=0)
        mesh2 = PacketMesh(PacketMeshConfig(), injection_rate=0.0)
        slow = PacketNic(mesh2, node=0, translation_overhead=32)
        mesh.sim.add(fast)
        mesh2.sim.add(slow)
        for nic in (fast, slow):
            nic.submit(Transfer(src=0, addr=0, nbytes=500, is_read=False), 3)
        mesh.run(1500)
        mesh2.run(1500)
        assert mesh.bytes_received == 500
        fast_done = mesh.latency.count
        # The slow NIC needs strictly longer: check completion state.
        assert mesh2.bytes_received <= 500
        assert fast_done >= mesh2.latency.count
