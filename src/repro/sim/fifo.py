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

This module is the only code that writes a FIFO's state — its queue,
its counters, its occupancy cell (``tests/test_fifo.py`` enforces it).
Hot loops elsewhere may *read* ``_q`` (a head's ``(ready_at, item)``,
its length against ``capacity``) but move items with :meth:`push` and
:meth:`pop` only.
"""

from __future__ import annotations

from collections import deque
from typing import Any


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
        self.pushed = 0  # lifetime counters, used by tests
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
        #: *which* FIFOs are non-empty.
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
        ready_at = now + self.latency
        q.append((ready_at, item))
        self.pushed += 1
        consumer = self.consumer
        if consumer is not None and not consumer._in_active_set:
            consumer.wake(ready_at)

    def peek(self, now: int) -> Any | None:
        """Return the head item if it is visible at cycle ``now``, else None."""
        if self._q:
            ready_at, item = self._q[0]
            if ready_at <= now:
                return item
        return None

    def pop(self, now: int) -> Any:
        """Remove and return the head item.  A pop that takes the FIFO
        from full to not-full wakes a producer asleep behind it (this
        cycle if it steps after the popper, else the next — see
        ``Simulator.wake_at``).

        Raises
        ------
        LookupError
            If the FIFO is empty or the head is not yet visible.
        """
        q = self._q
        if not q or q[0][0] > now:
            raise LookupError(
                f"pop from FIFO {self.name!r}: "
                + (f"head ready at {q[0][0]}, now {now}" if q else "empty"))
        item = q.popleft()[1]
        self.popped += 1
        n = len(q)
        if not n:
            occ = self.occ
            if occ is not None:
                occ[0] -= self.occ_bit
        if n == self.capacity - 1:
            producer = self.producer
            if producer is not None and not producer._in_active_set:
                producer.wake()
        return item

    def freeze(self) -> list[tuple[int, Any]]:
        """Take every entry out, as ``(ready_at, item)`` pairs, and leave
        the counters alone: a W or R train (``noc/trains.py``) holds the
        pipeline's contents while it charges the beats arithmetically."""
        q = self._q
        entries = list(q)
        if q:
            if self.occ is not None:
                self.occ[0] -= self.occ_bit
            q.clear()
        return entries

    def thaw(self, entries: list[tuple[int, Any]], d: int, now: int) -> None:
        """Undo :meth:`freeze` ``d`` cycles on: the entries back with
        their stamps ``+ d``, the ``d`` items that passed through
        meanwhile credited to both counters, and the consumer woken for
        the head (at ``now`` if it is already visible)."""
        q = self._q
        for ready_at, item in entries:
            q.append((ready_at + d, item))
        self.pushed += d
        self.popped += d
        if entries:
            if self.occ is not None:
                self.occ[0] += self.occ_bit
            self.consumer.wake(max(entries[0][0] + d, now))


def full_fifos(fifos) -> str:
    """``"full: a, b"`` — the names of the FIFOs among ``fifos`` that
    cannot take a push (what a blocked producer waits behind); empty
    when none is full."""
    names = ", ".join(f.name for f in fifos if not f.can_push())
    return f"full: {names}" if names else ""
