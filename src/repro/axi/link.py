"""An AXI link: the five channels between a master and a slave interface.

Requests (AW, W, AR) flow downstream; responses (B, R) flow upstream.
Each channel is an independent :class:`~repro.sim.fifo.TimedFifo`
register stage — the paper's default configuration places a register
slice on *every* channel of every hop, which is exactly one cycle of
latency per channel per hop here.
"""

from __future__ import annotations

from repro.sim.fifo import TimedFifo

#: Channel names in canonical order.
CHANNELS = ("aw", "w", "ar", "b", "r")


class AxiLink:
    """Five timed FIFOs forming one AXI master→slave connection."""

    __slots__ = ("aw", "w", "ar", "b", "r", "name")

    def __init__(self, name: str = "", capacity: int = 2, latency: int = 1,
                 w_capacity: int | None = None):
        """Create the channel FIFOs.

        ``w_capacity`` lets callers deepen only the W channel (data FIFOs
        are the cheap place to buffer; address/response queues stay
        shallow like the RTL).
        """
        self.name = name
        self.aw = TimedFifo(capacity, latency, f"{name}.aw")
        self.w = TimedFifo(w_capacity or capacity, latency, f"{name}.w")
        self.ar = TimedFifo(capacity, latency, f"{name}.ar")
        self.b = TimedFifo(capacity, latency, f"{name}.b")
        self.r = TimedFifo(capacity, latency, f"{name}.r")

    def channels(self) -> tuple[TimedFifo, ...]:
        return (self.aw, self.w, self.ar, self.b, self.r)

    def watch_requests(self, component) -> None:
        """Register the slave-side component: woken by AW/W/AR pushes,
        and by pops that make room in a full B/R channel it fills."""
        self.aw.consumer = component
        self.w.consumer = component
        self.ar.consumer = component
        self.b.producer = component
        self.r.producer = component

    def watch_responses(self, component) -> None:
        """Register the master-side component: woken by B/R pushes, and
        by pops that make room in a full AW/W/AR channel it fills."""
        self.b.consumer = component
        self.r.consumer = component
        self.aw.producer = component
        self.w.producer = component
        self.ar.producer = component

    def idle(self) -> bool:
        """True when no beat occupies any channel of this link."""
        return all(len(ch) == 0 for ch in self.channels())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        occ = ",".join(f"{n}={len(ch)}" for n, ch in zip(CHANNELS, self.channels()))
        return f"AxiLink({self.name}: {occ})"
