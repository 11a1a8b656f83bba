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
    payload_per_packet:
        Useful payload bytes per packet: (packet_flits − 1 header flit)
        × flit bytes.
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
        # (dst, nbytes, attempt, origin, token, timed); the trailing
        # four are fault-recovery state — 0/None/None/False on a first
        # transmission (DESIGN.md §10).
        self._pending: deque[tuple] = deque()
        self._flits: deque = deque()
        self._idle_until = 0
        self._pid = node << 32
        self.bytes_sent = 0
        # Reply watchdog (response_faults; the mesh arms it): a sent
        # payload stays outstanding until its reply confirms it or
        # txn_timeout expires — token -> [deadline, dst, nbytes, attempt,
        # origin, timed], deadlines monotone in insertion order.
        self.recovery = None
        self._txn_timeout: int | None = None
        self._outstanding: dict[int, list] = {}
        mesh.register_nic(self)

    def submit(self, transfer: Transfer, dst_node: int) -> None:
        """Queue a transfer for packetisation towards ``dst_node``."""
        self._pending.append((dst_node, transfer.nbytes, 0, None,
                              None, False))
        self.wake()  # external input: revive a NIC asleep in the kernel

    def resubmit(self, dst: int, nbytes: int, attempt: int,
                 origin: int) -> None:
        """Resend one lost or corrupted packet's payload (mesh-called)."""
        self._pending.append((dst, nbytes, attempt, origin, None, False))
        self.wake()

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def idle(self) -> bool:
        return (not self._pending and not self._flits
                and not self._outstanding)

    def quiet(self) -> bool:
        # Waiting on replies alone may sleep: next_event wakes the NIC
        # at the earliest watchdog deadline, and confirms arrive via the
        # mesh (which is awake while the reply's packet is in flight).
        return not self._pending and not self._flits

    def next_event(self, now: int) -> int | None:
        if self._outstanding:
            return next(iter(self._outstanding.values()))[0]
        return None

    def confirm(self, token: int, now: int) -> None:
        """The reply for one packet's payload came back (the mesh calls
        this on tail ejection when the reverse path is live)."""
        entry = self._outstanding.pop(token, None)
        if entry is None:
            return  # late duplicate: an earlier copy already confirmed
        self.recovery.recovered(entry[3], entry[4], now, entry[5])

    def _check_timeouts(self, now: int) -> None:
        """Abort payloads whose reply never came: Recovery decides."""
        out = self._outstanding
        while out:
            token = next(iter(out))
            entry = out[token]
            if entry[0] > now:
                break
            del out[token]
            if self.recovery.expired(entry[3], entry[4], now):
                self._pending.append((entry[1], entry[2], entry[3] + 1,
                                      entry[4], token, True))

    def step(self, now: int) -> None:
        if self._outstanding:
            self._check_timeouts(now)
        # Packetise: one packet per translation_overhead cycles.
        if self._pending and not self._flits and now >= self._idle_until:
            dst, nbytes, attempt, origin, token, timed = self._pending[0]
            chunk = min(nbytes, self.payload_per_packet)
            packet = Packet(self.node, dst, self.mesh.cfg.packet_flits,
                            now, self._pid)
            self._pid += 1
            if attempt:
                packet.attempt = attempt
                packet.origin = origin
            if self._txn_timeout is not None:
                packet.token = token if token is not None else packet.pid
                self._outstanding[packet.token] = [
                    now + self._txn_timeout, dst, chunk, attempt,
                    packet.origin, timed]
            # Packet payload accounting rides on the packet object: the
            # ejection side credits chunk bytes when the tail arrives.
            self.mesh.register_payload(packet.pid, chunk)
            self._flits.extend(make_flits(packet))
            self.bytes_sent += chunk
            remaining = nbytes - chunk
            if remaining > 0:
                self._pending[0] = (dst, remaining, attempt, origin,
                                    token, timed)
            else:
                self._pending.popleft()
            self._idle_until = now + self.translation_overhead
        # Serialise one flit per cycle into the router (via the mesh so
        # its in-network accounting stays exact and it wakes if asleep).
        if self._flits:
            router = self.mesh.routers[self.node]
            if router.buffer_space(P_LOCAL, 0) > 0:
                self.mesh.inject(self.node, 0, self._flits.popleft(), now)
