"""AXI memory slave — the paper's "AXI-capable memories that cater to
the DMA requests" (§IV).

Per-cycle port behaviour: accepts one AW, one W beat, and one AR per
cycle; produces one B and one R beat per cycle.  Requests see a fixed
access latency, and the number of simultaneously open transactions per
direction is capped, backpressuring the NoC like a real memory
controller.  Integrity checks (burst length/byte accounting, W-burst
atomicity via tags) are always on — they are assertions, not statistics.
"""

from __future__ import annotations

from collections import deque
from functools import partial

from repro.axi.beats import BBeat, BeatStream, RBeat
from repro.axi.link import AxiLink
from repro.axi.types import Resp
from repro.endpoints.dma import MIN_TRAIN_BEATS
from repro.sim.fifo import full_fifos
from repro.sim.kernel import BLOCKED, Component
from repro.sim.stats import ThroughputMeter


#: A due time later than any cycle (an empty response queue).
_NEVER = float("inf")


class MemorySlave(Component):
    """One addressable memory endpoint (L1 of a tile, or a shared L2)."""

    def __init__(self, name: str, endpoint: int, link: AxiLink, *,
                 beat_bytes: int, latency: int = 5, max_outstanding: int = 16,
                 write_meter: ThroughputMeter | None = None,
                 scoreboard=None):
        self.name = name
        self.endpoint = endpoint
        self.link = link
        link.watch_requests(self)  # AW/W/AR pushes wake an idle memory
        #: Non-empty request channels (skips the accept block in O(1)).
        self._occ_req = [0]
        link.aw.track_occupancy(self._occ_req)
        link.w.track_occupancy(self._occ_req)
        link.ar.track_occupancy(self._occ_req)
        self.beat_bytes = beat_bytes
        self.latency = latency
        self.max_outstanding = max_outstanding
        self.write_meter = write_meter if write_meter is not None else ThroughputMeter()
        self.scoreboard = scoreboard
        self.bursts_written = 0
        self.bursts_read = 0
        #: Optional :class:`~repro.faults.runtime.CorruptionModel` — when
        #: set, accepted bursts may be marked corrupted-in-flight and
        #: answered with SLVERR (payload never credited).  None is the
        #: fault-free fast path.
        self.fault_model = None

        self._last_now = -1
        # [id, beats_left, bytes_left, total_bytes, total_beats, corrupt]
        self._w_expect: deque[list] = deque()
        self._b_queue: deque[tuple] = deque()  # (ready_at, id, resp)
        self._r_jobs: deque[tuple] = deque()  # (ready_at, id, BeatStream)
        #: R trains (DESIGN.md §7 "A burst is a run"), wired by
        #: ``NocNetwork`` under the activity scheduler on unarmed
        #: networks only: the :class:`~repro.noc.trains.RTrain` of this
        #: memory, the cycle from which it may look at the head R job
        #: (never, unless wired), and — while the job's middle beats
        #: ride a frozen train — the cycle its next beat is pushed on
        #: (-1: none open).
        self._train = None
        self._probe_at = _NEVER
        self._frozen_until = -1

    @property
    def bytes_written(self) -> int:
        """Write payload credited here, warm-up included (the meter's)."""
        return self.write_meter.bytes_total

    def idle(self) -> bool:
        return not self._w_expect and not self._b_queue and not self._r_jobs

    def quiet(self) -> bool:
        """Activity contract: no request waiting on the link, no W burst
        mid-reception, and every queued response due strictly after the
        next cycle (``next_event`` wakes us for those).  A memory that
        is not quiet still sleeps when nothing it holds can move —
        ``step`` returns BLOCKED, see there."""
        if self._occ_req[0] or self._w_expect:
            return False
        horizon = self._last_now + 1
        b_queue = self._b_queue
        if b_queue and b_queue[0][0] <= horizon:
            return False
        r_jobs = self._r_jobs
        if r_jobs and r_jobs[0][0] <= horizon:
            return False
        return True

    def next_event(self, now: int) -> int | None:
        """The earliest response head still to come due, or the cycle
        an open R train ends on.  A head already due sits behind a full
        channel and waits for a pop, not a cycle."""
        wake = self._frozen_until
        if wake <= now:
            wake = None
        for queue in (self._b_queue, self._r_jobs):
            if queue:
                due = queue[0][0]
                if due > now and (wake is None or due < wake):
                    wake = due
        return wake

    def blocked_on(self) -> str:
        """The full response FIFOs of this memory's link, the W data it
        waits for, and the R train its head job rides."""
        link = self.link
        data = (f"W data of {len(self._w_expect)} open bursts"
                if self._w_expect else "")
        train = (f"R train until {self._frozen_until}"
                 if self._frozen_until >= 0 else "")
        return "; ".join(filter(None, (
            full_fifos((link.b, link.r)), data, train)))

    # ------------------------------------------------------------------
    # The inline ``_q`` reads below mirror the crossbar hot path: this
    # step runs every busy cycle of every memory, and a probe that moves
    # nothing makes no call; a beat that moves goes through push/pop.
    def step(self, now: int) -> bool | int:
        self._last_now = now
        link = self.link
        moved = False
        if self._occ_req[0] or self._w_expect:
            moved = self._accept(now, link)
        b_queue = self._b_queue
        r_jobs = self._r_jobs
        if (b_queue or r_jobs) and self._emit(now, link):
            moved = True
        # Report post-step state inline.  True mirrors quiet().  False
        # polls: something moved, a response comes due next cycle, or a
        # request head is not yet visible (no wake was scheduled for
        # it).  Otherwise nothing moved and nothing can before a wake:
        # an open W burst waits for a push, a visible AW/AR head for a
        # slot and so for a response to leave, a response not yet due
        # for next_event, and a due one for a pop from the full B/R
        # channel we produce into — BLOCKED.
        waiting = self._occ_req[0] or self._w_expect
        if moved and waiting:
            return False  # (the W-stream hot path)
        due = b_queue[0][0] if b_queue else _NEVER
        if r_jobs and r_jobs[0][0] < due:
            due = r_jobs[0][0]
        horizon = now + 1
        if not waiting and due > horizon:
            return True
        if moved or due == horizon:
            return False
        if self._occ_req[0]:
            for fifo in (link.aw, link.w, link.ar):
                q = fifo._q
                if q and q[0][0] > now:
                    return False
        return BLOCKED

    def _accept(self, now: int, link: AxiLink) -> bool:
        """Take what the request channels offer; True if anything was."""
        moved = False
        # Accept one AW per cycle, bounded by open write transactions.
        q = link.aw._q
        if (q and q[0][0] <= now
                and len(self._w_expect) + len(self._b_queue)
                < self.max_outstanding):
            moved = True
            aw = link.aw.pop(now)
            fm = self.fault_model
            corrupt = fm is not None and fm.corrupt(aw.src, aw.beats)
            self._w_expect.append(
                [aw.id, aw.beats, aw.nbytes, aw.nbytes, aw.beats, corrupt])
        # Accept one W beat per cycle, only for an already-accepted AW.
        if self._w_expect:
            q = link.w._q
            if q and q[0][0] <= now:
                moved = True
                w = link.w.pop(now)
                head = self._w_expect[0]
                head[1] -= 1
                head[2] -= w.nbytes
                if not head[5]:  # corrupted payload is never credited
                    self.write_meter.add(w.nbytes, now)
                if w.last:
                    if head[1] != 0 or head[2] != 0:
                        raise AssertionError(
                            f"{self.name}: burst accounting broke on id "
                            f"{head[0]}: {head[1]} beats / {head[2]} bytes left")
                    self._w_expect.popleft()
                    self._b_queue.append((
                        now + self.latency, head[0],
                        Resp.SLVERR if head[5] else Resp.OKAY))
                    self.bursts_written += 1
                    if self.scoreboard is not None:
                        self.scoreboard.record_write(
                            self.endpoint, head[0], head[3], head[4], now)
                elif head[1] <= 0:
                    raise AssertionError(
                        f"{self.name}: more W beats than AW announced "
                        f"on id {head[0]}")
        # Accept one AR per cycle, bounded by open read jobs.
        q = link.ar._q
        if (q and q[0][0] <= now
                and len(self._r_jobs) < self.max_outstanding):
            moved = True
            ar = link.ar.pop(now)
            fm = self.fault_model
            resp = (Resp.SLVERR if fm is not None
                    and fm.corrupt(ar.src, ar.beats) else Resp.OKAY)
            self._r_jobs.append((
                now + self.latency, ar.id,
                BeatStream(ar.addr, ar.beats, ar.nbytes, self.beat_bytes,
                           partial(RBeat, ar.id, resp=resp))))
        return moved

    def _emit(self, now: int, link: AxiLink) -> bool:
        """Send what is due and fits; True if anything was."""
        moved = False
        # Emit one B per cycle.
        b_queue = self._b_queue
        if b_queue and b_queue[0][0] <= now:
            b = link.b
            if len(b._q) < b.capacity:
                moved = True
                _, bid, resp = b_queue.popleft()
                b.push(BBeat(bid, resp), now)
        # Emit one R beat per cycle (jobs served strictly in order),
        # unless the head job's middle beats ride a train, frozen on
        # this cycle or an earlier one (nothing to push until the cycle
        # it ends on, which puts the path back first).
        r_jobs = self._r_jobs
        if r_jobs and r_jobs[0][0] <= now:
            r = link.r
            _, rid, stream = r_jobs[0]
            if len(r._q) < r.capacity and not (
                    now >= self._probe_at
                    and (self._frozen_until >= 0 or stream.beats
                         - stream.issued > MIN_TRAIN_BEATS)
                    and self._train.holds(stream, now)):
                moved = True
                r.push(stream.next_beat(), now)
                if stream.issued >= stream.beats:
                    r_jobs.popleft()
                    self.bursts_read += 1
                    if self.scoreboard is not None:
                        self.scoreboard.record_read(
                            self.endpoint, rid, now)
        return moved
