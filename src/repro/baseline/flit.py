"""Flits and packets for the classical packet-based baseline NoC.

The paper's baseline is Noxim configured with 32-bit flits and eight
flits per packet; throughput is counted in flits received (× 4 B at
1 GHz), which is the convention our harness mirrors (DESIGN.md §6).
"""

from __future__ import annotations

from enum import IntEnum


class FlitKind(IntEnum):
    HEAD = 0
    BODY = 1
    TAIL = 2


class Packet:
    """One serialised network packet (the baseline's unit of transfer).

    ``corrupt`` is fault-injection state (DESIGN.md §10): in-flight
    payload corruption, detected at ejection.
    """

    __slots__ = ("src", "dst", "length", "created", "pid", "corrupt")

    def __init__(self, src: int, dst: int, length: int, created: int,
                 pid: int):
        if length < 1:
            raise ValueError(f"packet needs >= 1 flit, got {length}")
        self.src = src
        self.dst = dst
        self.length = length
        self.created = created
        self.pid = pid
        self.corrupt = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
                f"len={self.length})")


class Flit:
    """One flit; body/tail flits carry a reference to their packet."""

    __slots__ = ("kind", "packet", "seq")

    def __init__(self, kind: FlitKind, packet: Packet, seq: int):
        self.kind = kind
        self.packet = packet
        self.seq = seq

    @property
    def is_head(self) -> bool:
        return self.seq == 0

    @property
    def is_tail(self) -> bool:
        """A single-flit packet's head is simultaneously its tail."""
        return self.seq == self.packet.length - 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Flit({self.kind.name}, pid={self.packet.pid}, seq={self.seq})"


def make_flits(packet: Packet) -> list[Flit]:
    """Expand a packet into its flit sequence (head .. body .. tail)."""
    flits = [Flit(FlitKind.HEAD, packet, 0)]
    flits.extend(Flit(FlitKind.BODY, packet, k)
                 for k in range(1, packet.length - 1))
    if packet.length > 1:
        flits.append(Flit(FlitKind.TAIL, packet, packet.length - 1))
    return flits
