"""Register-stage FIFOs for two-phase cycle simulation.

Every AXI channel hop in PATRONoC carries a register slice (``axi_cut``),
so the natural simulation primitive is a FIFO whose entries become visible
to the consumer one cycle after they are pushed.  With a capacity of two
this is exactly a *spill register*: full throughput (one item per cycle)
with one cycle of latency, and structural backpressure when the consumer
stalls.

The two-phase discipline means component step order within a cycle cannot
create zero-latency combinational paths: an item pushed at cycle ``t`` can
be popped at ``t + latency`` at the earliest, regardless of who steps
first.

FIFOs are also the *wake-up spine* of the activity-driven kernel
(DESIGN.md §2): a FIFO with a registered ``consumer`` wakes that
component at the cycle a pushed item becomes visible, so idle consumers
can safely leave the simulator's active set; one with a registered
``producer`` wakes it when a pop takes the FIFO from full to not-full,
so a producer held only by back-pressure can leave it too.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator


class TimedFifo:
    """A bounded FIFO whose items become visible ``latency`` cycles after push.

    Parameters
    ----------
    capacity:
        Maximum number of items held (visible and in-flight combined).
        Capacity 2 with latency 1 behaves like a full-throughput spill
        register; capacity 1 halves the sustainable rate when producer
        steps before consumer.
    latency:
        Cycles between :meth:`push` and the item becoming poppable.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("capacity", "latency", "name", "_q", "pushed", "popped",
                 "consumer", "producer", "occ", "occ_bit")

    def __init__(self, capacity: int = 2, latency: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"FIFO capacity must be >= 1, got {capacity}")
        if latency < 0:
            raise ValueError(f"FIFO latency must be >= 0, got {latency}")
        self.capacity = capacity
        self.latency = latency
        self.name = name
        self._q: deque[tuple[int, Any]] = deque()
        self.pushed = 0  # lifetime counters, used by monitors/tests
        self.popped = 0
        #: The component woken when a pushed item becomes visible
        #: (claimed by whoever consumes from this FIFO; may be None).
        self.consumer = None
        #: The component woken when a pop makes room in a full FIFO
        #: (claimed by whoever pushes into this FIFO; may be None).
        self.producer = None
        #: Optional shared occupancy cell (a one-element list summing
        #: ``occ_bit`` over the non-empty FIFOs of a group); lets a
        #: consumer of many FIFOs skip whole scan phases in O(1).
        #: Maintained on empty <-> non-empty transitions only.
        self.occ: list[int] | None = None
        #: What this FIFO adds to its cell while non-empty: 1 makes the
        #: cell a count; a bit of its own makes it a mask that also says
        #: *which* FIFOs are non-empty.  The hand-inlined pushes and pops
        #: in the crossbar and endpoint hot loops add and subtract a
        #: literal 1, so only a FIFO reached through push/pop/drain alone
        #: (AW, AR) may carry another bit.
        self.occ_bit = 1

    def track_occupancy(self, cell: list[int], bit: int = 1) -> None:
        """Attach a shared occupancy cell, holding ``bit`` while this
        FIFO is non-empty: the default 1 counts the group's non-empty
        FIFOs, distinct powers of two name them.  Either way the cell is
        zero exactly when the whole group is empty."""
        self.occ = cell
        self.occ_bit = bit
        if self._q:
            cell[0] += bit

    def __len__(self) -> int:
        return len(self._q)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TimedFifo({self.name or 'anon'}, {len(self._q)}/{self.capacity})"
        )

    def can_push(self) -> bool:
        """True if a push this cycle would be accepted (ready signal)."""
        return len(self._q) < self.capacity

    def push(self, item: Any, now: int) -> None:
        """Insert ``item``; it becomes visible at ``now + latency``.

        Raises
        ------
        OverflowError
            If the FIFO is full.  Producers must check :meth:`can_push`
            first; pushing into a full FIFO is a modelling bug, not a
            runtime condition.
        """
        q = self._q
        if len(q) >= self.capacity:
            raise OverflowError(f"push into full FIFO {self.name!r}")
        if not q:
            occ = self.occ
            if occ is not None:
                occ[0] += self.occ_bit
        q.append((now + self.latency, item))
        self.pushed += 1
        consumer = self.consumer
        if consumer is not None and not consumer._in_active_set:
            consumer.wake(now + self.latency)

    def peek(self, now: int) -> Any | None:
        """Return the head item if it is visible at cycle ``now``, else None."""
        if self._q:
            ready_at, item = self._q[0]
            if ready_at <= now:
                return item
        return None

    def pop(self, now: int) -> Any:
        """Remove and return the head item.

        Raises
        ------
        LookupError
            If the FIFO is empty or the head is not yet visible.
        """
        if not self._q:
            raise LookupError(f"pop from empty FIFO {self.name!r}")
        ready_at, item = self._q[0]
        if ready_at > now:
            raise LookupError(
                f"pop from FIFO {self.name!r} before head is visible "
                f"(ready at {ready_at}, now {now})"
            )
        q = self._q
        q.popleft()
        self.popped += 1
        if not q:
            occ = self.occ
            if occ is not None:
                occ[0] -= self.occ_bit
            if self.capacity == 1:
                self.freed()
        elif len(q) == self.capacity - 1:
            self.freed()
        return item

    def freed(self) -> None:
        """A pop just took this FIFO from full to not-full: wake a
        producer asleep behind it (this cycle if it steps after the
        popper, else the next — see ``Simulator.wake_at``).  The inlined
        pops in the crossbar and endpoint hot loops repeat this test."""
        producer = self.producer
        if producer is not None and not producer._in_active_set:
            producer.wake()

    def stall_head(self, now: int) -> None:
        """Push a currently-visible head one cycle into the future — the
        degraded-link fault injection point (DESIGN.md §10).  Heads not
        yet visible are untouched (never moved earlier)."""
        q = self._q
        if q and q[0][0] <= now:
            q[0] = (now + 1, q[0][1])

    def drain(self) -> Iterator[Any]:
        """Yield and remove all items regardless of visibility (teardown)."""
        if self._q and self.occ is not None:
            self.occ[0] -= self.occ_bit
        while self._q:
            yield self._q.popleft()[1]


def full_fifos(fifos) -> str:
    """``"full: a, b"`` — the names of the FIFOs among ``fifos`` that
    cannot take a push (what a blocked producer waits behind); empty
    when none is full."""
    names = ", ".join(f.name for f in fifos if not f.can_push())
    return f"full: {names}" if names else ""
