"""Network interface controller: AXI ↔ packet protocol translation.

This is the hardware the paper argues PATRONoC *eliminates* ("classical
NoCs use serial packet-based protocols suffering from significant
protocol translation overheads towards the endpoints").  The NIC model
lets the harness run the *same* DMA transfer streams over the packet
baseline: each AXI burst is packetised into fixed-length packets with a
per-packet translation overhead, serialised through the narrow flit
channel, and reassembled at the far side.

Used by the ablation bench comparing end-to-end AXI against
packetisation at equal link width — the architectural argument of §I in
one experiment.
"""

from __future__ import annotations

from collections import deque

from repro.axi.transaction import Transfer
from repro.baseline.flit import make_flits, Packet
from repro.baseline.router import P_LOCAL
from repro.sim.kernel import Component
from repro.sim.stats import ThroughputMeter


class PacketNic(Component):
    """Translates DMA transfers into packets at one node of a PacketMesh.

    Each packet carries ``(packet_flits − 1 header flit) × flit_bytes``
    payload bytes.  The NIC has no recovery: a packet lost or corrupted
    in the mesh is counted there and never resent.

    Parameters
    ----------
    mesh:
        The :class:`~repro.baseline.network.PacketMesh` to attach to
        (constructed with ``injection_rate=0`` — the NICs drive it).
    node:
        The node this NIC serves.
    translation_overhead:
        Cycles of protocol translation per packet (header construction,
        serialisation setup) — the endpoint cost PATRONoC avoids.
    meter:
        An optional shared :class:`~repro.sim.stats.ThroughputMeter`.
    """

    def __init__(self, mesh, node: int, translation_overhead: int = 4,
                 meter: ThroughputMeter | None = None):
        self.mesh = mesh
        self.node = node
        self.translation_overhead = translation_overhead
        self.meter = meter if meter is not None else ThroughputMeter()
        self.name = f"nic{node}"
        cfg = mesh.cfg
        self.payload_per_packet = (cfg.packet_flits - 1) * cfg.flit_bytes
        self._pending: deque[tuple[int, int]] = deque()  # (dst, nbytes)
        self._flits: deque = deque()
        self._idle_until = 0
        self._pid = node << 32
        self.bytes_sent = 0

    def submit(self, transfer: Transfer, dst_node: int) -> None:
        """Queue a transfer for packetisation towards ``dst_node``."""
        self._pending.append((dst_node, transfer.nbytes))
        self.wake()  # external input: revive a NIC asleep in the kernel

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def idle(self) -> bool:
        return not self._pending and not self._flits

    quiet = idle

    def step(self, now: int) -> None:
        # Packetise: one packet per translation_overhead cycles.
        if self._pending and not self._flits and now >= self._idle_until:
            dst, nbytes = self._pending[0]
            chunk = min(nbytes, self.payload_per_packet)
            packet = Packet(self.node, dst, self.mesh.cfg.packet_flits,
                            now, self._pid)
            self._pid += 1
            # Packet payload accounting rides on the packet object: the
            # ejection side credits chunk bytes when the tail arrives.
            self.mesh.register_payload(packet.pid, chunk)
            self._flits.extend(make_flits(packet))
            self.bytes_sent += chunk
            remaining = nbytes - chunk
            if remaining > 0:
                self._pending[0] = (dst, remaining)
            else:
                self._pending.popleft()
            self._idle_until = now + self.translation_overhead
        # Serialise one flit per cycle into the router (via the mesh so
        # its in-network accounting stays exact and it wakes if asleep).
        if self._flits:
            router = self.mesh.routers[self.node]
            if router.buffer_space(P_LOCAL, 0) > 0:
                self.mesh.inject(self.node, 0, self._flits.popleft(), now)
