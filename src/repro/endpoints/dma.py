"""The DMA engine master — the paper's traffic endpoint ("each master is
a DMA engine", §IV).

The engine consumes :class:`~repro.axi.transaction.Transfer` commands,
splits them into AXI-compliant bursts (4 KiB boundaries, ≤256 beats,
bus-width alignment), and drives the five channels with the flow-control
behaviour that matters for throughput:

* at most one burst issued per cycle, gated by the free-ID pool
  (``2**id_width`` per direction) and the MOT limit;
* W beats stream one per cycle in AW order;
* a configurable per-burst issue overhead models descriptor processing
  (address generation, AXI handshake setup) between consecutive bursts;
* responses are always sunk (one B and one R per cycle), so the
  response network can never back up into deadlock.

Fault recovery (DESIGN.md §10) is **per burst**: a burst whose response
comes back in error is re-queued (as a :class:`_BurstRetry` in the
pending queue) and re-issued alone — its sibling bursts of the same
transfer are never re-sent.  Recovery latency is the span from the
burst's first issue to its first clean completion.

Completion callbacks on transfers make the engine usable both open-loop
(Poisson sources) and closed-loop (dependent DNN command streams).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.axi.beats import AddrBeat, BeatStream, WBeat
from repro.axi.link import AxiLink
from repro.axi.memory_map import MemoryMap
from repro.axi.transaction import Burst, Transfer, split_transfer
from repro.axi.types import Resp
from repro.faults.runtime import zombie_grace
from repro.sim.fifo import full_fifos
from repro.sim.kernel import BLOCKED, Component
from repro.sim.stats import CounterSet, LatencyStats, ThroughputMeter

#: Fewest middle beats still to push that make a W or R stream worth
#: probing for a train (``noc/trains.py``, which owns the rest of the
#: policy).
MIN_TRAIN_BEATS = 16
_NEVER = 1 << 62  # a cycle no run reaches

#: Flag bits for outstanding-entry index 6 (transaction-lifetime state).
_F_TIMED = 1  # this issue is a txn-timeout retry (timeout_recovered)
_F_BYZ = 2    # byzantine payload corruption detected mid-burst
_F_GAP = 4    # a beat was discarded in flight; tolerate the tail
#               length mismatch and fail the burst there instead


class _BurstRetry:
    """A burst awaiting retransmission, parked in the pending queue.

    The owning transfer's ``_bursts_left`` still counts the burst (it is
    logically in flight), so the transfer cannot complete under it.
    """

    __slots__ = ("transfer", "burst", "first_issue", "retries", "flags")

    def __init__(self, transfer: Transfer, burst: Burst,
                 first_issue: int, retries: int, flags: int = 0):
        self.transfer = transfer
        self.burst = burst
        self.first_issue = first_issue
        self.retries = retries
        self.flags = flags  # _F_TIMED when the watchdog sent it here


class DmaEngine(Component):
    """One tile's DMA master, attached to an XP local port via ``link``."""

    def __init__(self, name: str, tile: int, link: AxiLink, *,
                 beat_bytes: int, id_width: int, max_outstanding: int,
                 issue_overhead: int, memory_map: MemoryMap,
                 read_meter: ThroughputMeter | None = None,
                 latency_stats: LatencyStats | None = None,
                 max_burst_beats: int = 256,
                 counters: CounterSet | None = None):
        self.name = name
        self.tile = tile
        self.link = link
        link.watch_responses(self)  # B/R pushes wake an idle engine
        #: Non-empty response channels (skips the sink block in O(1)).
        self._occ_resp = [0]
        link.b.track_occupancy(self._occ_resp)
        link.r.track_occupancy(self._occ_resp)
        self.beat_bytes = beat_bytes
        self.max_outstanding = max_outstanding
        self.issue_overhead = issue_overhead
        self.memory_map = memory_map
        self.max_burst_beats = max_burst_beats
        self.read_meter = read_meter if read_meter is not None else ThroughputMeter()
        self.latency_stats = latency_stats if latency_stats is not None else LatencyStats(name)
        self.counters = counters if counters is not None else CounterSet()

        n_ids = 1 << id_width
        self._wr_free = list(range(n_ids - 1, -1, -1))
        self._rd_free = list(range(n_ids - 1, -1, -1))
        # id -> [transfer, first_issue, beats_left, burst, retries,
        #        watchdog deadline, _F_* flags]
        self._wr_out: dict[int, list] = {}
        self._rd_out: dict[int, list] = {}
        #: Transfers awaiting split + _BurstRetry records awaiting
        #: reissue, in FIFO order (one queue so every existing activity
        #: gate covers retries for free).
        self._pending: deque = deque()
        self._w_emit: deque[BeatStream] = deque()
        self._cur: Transfer | None = None
        self._burst_iter: Iterator[Burst] | None = None
        self._next_burst: Burst | None = None
        self._idle_until = 0
        self._last_now = -1
        self.transfers_completed = 0
        self.errors = 0
        #: The network's :class:`~repro.faults.runtime.Recovery` (and its
        #: ``FaultStats``) on armed networks: it decides whether a failed
        #: or orphaned burst goes again.  None is the fault-free path.
        self.recovery = None
        #: Per-transaction cycle budget (``FaultSpec.txn_timeout``);
        #: None disables the watchdog and all lifetime guards.
        self._txn_timeout: int | None = None
        #: Byzantine response-corruption model (``byzantine_rate``).
        self._byz_rate = 0.0
        self._byz_rng = None
        #: Response-path faults armed: R bursts may arrive with beats
        #: missing (dropped on a transient dead link whose tail
        #: survived), so length mismatches complete as SLVERR instead
        #: of asserting.
        self._resp_tolerant = False
        #: Aborted ids held through a grace window (id -> expiry cycle):
        #: response beats may still trickle in for an orphaned burst and
        #: must not land on a recycled id.
        self._wr_zombie: dict[int, int] = {}
        self._rd_zombie: dict[int, int] = {}
        #: Components blocked on this engine's queue state (a core
        #: script in a blocking transfer, ``drain`` or ``throttle``):
        #: woken whenever a burst issues, completes, times out or ends
        #: its W stream — every event that can shrink :meth:`backlog`
        #: or turn :meth:`idle` True.
        self.watchers: list[Component] = []
        #: Open-loop sources asleep at their backlog cap on this
        #: engine's queue (``RandomTraffic``): woken when a pop shortens
        #: ``_pending``, the only event they wait for.  Kept apart from
        #: ``watchers``, which fire on every burst issue and completion.
        self.feeders: list[Component] = []
        #: The full AW/AR FIFO that held the last issue attempt, or None
        #: (the issue gate, see :meth:`step`).
        self._held_by = None
        #: An open MOT/ID stall: the counter the last issue attempt
        #: would have bumped, and the cycle the interval is charged
        #: from.  The next step (or :meth:`settle_stall`) charges it —
        #: one cycle under always-step, the whole sleep otherwise.
        self._stalled: str | None = None
        self._stalled_since = 0
        #: W trains (DESIGN.md §7 "A burst is a run"), wired by
        #: ``NocNetwork`` under the activity scheduler only: the
        #: :class:`~repro.noc.trains.WTrain` of this engine, the cycle
        #: from which it may look at the head W stream (never, unless
        #: wired), and — while the stream's middle beats ride a frozen
        #: train — the cycle its last beat is pushed on (-1: none open).
        self._train = None
        self._probe_at = _NEVER
        self._frozen_until = -1

    def _wake_watchers(self) -> None:
        for watcher in self.watchers:
            watcher.wake()

    # ------------------------------------------------------------------
    def submit(self, transfer: Transfer) -> None:
        """Queue a transfer for execution (source order is preserved)."""
        transfer._bursts_left = 0
        transfer._split_done = False
        self._pending.append(transfer)
        self.wake()  # external input: revive an engine asleep in the kernel

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def bytes_read(self) -> int:
        """Read payload delivered here, warm-up included (the meter's)."""
        return self.read_meter.bytes_total

    def outstanding(self) -> int:
        """Bursts currently in flight in the network."""
        return len(self._wr_out) + len(self._rd_out)

    def backlog(self) -> int:
        """Transfers not yet fully completed: queued, splitting, or with
        bursts in flight (the quantity script ``throttle`` bounds)."""
        in_flight = {id(e[0]) for e in self._wr_out.values()}
        in_flight.update(id(e[0]) for e in self._rd_out.values())
        queued = 1 if self._cur is not None else 0
        for item in self._pending:
            if type(item) is _BurstRetry:
                in_flight.add(id(item.transfer))
            else:
                queued += 1
        return queued + len(in_flight)

    def idle(self) -> bool:
        """No queued, splitting, streaming, or outstanding work."""
        return (not self._pending and self._cur is None
                and not self._w_emit and not self._wr_out and not self._rd_out)

    def quiet(self) -> bool:
        """Activity contract: nothing to sink, stream, or issue.

        An engine that is only waiting — for responses (B/R pushes wake
        it) or for the descriptor-overhead gap to elapse (``next_event``
        wakes it) — is quiet.  One with W beats to stream or a burst to
        issue is not, whether or not it can move this cycle: ``quiet``
        is a function of the engine's own state.  Such an engine still
        sleeps — ``step`` returns BLOCKED (DESIGN.md §2) — when only a
        full W/AW/AR FIFO holds it (the pop that makes room wakes it) or
        an ID/MOT stall does (the B/R push or watchdog deadline that
        ends it wakes it, and the step it wakes to charges the whole
        stall to ``dma_*_mot_stall``).
        """
        if self._occ_resp[0] or self._w_emit:
            return False
        if self._pending or self._cur is not None:
            # Work is queued: only the descriptor gap may sleep through.
            return self._idle_until > self._last_now + 1
        return True

    def blocked_on(self) -> str:
        """The full request FIFOs of this engine's link, the stall it is
        charging if it is out of ids or MOT room, and the W train its
        head burst rides (asleep with work in hand, not idle)."""
        link = self.link
        stall = (f"{self._stalled} since {self._stalled_since}"
                 if self._stalled is not None else "")
        train = (f"W train until {self._frozen_until}"
                 if self._frozen_until >= 0 else "")
        return "; ".join(filter(None, (
            full_fifos((link.aw, link.w, link.ar)), stall, train)))

    def settle_stall(self, now: int) -> None:
        """Charge an open stall interval up to ``now`` — before a reader
        looks at the counters between two steps (``NocNetwork.run`` and
        ``drain`` call this on return)."""
        if self._stalled is not None:
            self.counters.bump(self._stalled, now - self._stalled_since)
            self._stalled_since = now

    def next_event(self, now: int) -> int | None:
        wake = self._frozen_until  # the cycle an open train ends on
        if wake <= now:
            wake = None
        if ((self._pending or self._cur is not None)
                and self._idle_until > now
                and (wake is None or self._idle_until < wake)):
            wake = self._idle_until  # an elapsed gap is not an event
        if self._txn_timeout is not None:
            # Earliest watchdog deadline: deadlines are monotone in each
            # table's insertion order, so the heads suffice.  Zombie-id
            # grace expiries count too — recycling a reserved id must
            # happen on the same cycle under either scheduler.
            for table in (self._wr_out, self._rd_out):
                if table:
                    deadline = next(iter(table.values()))[5]
                    if wake is None or deadline < wake:
                        wake = deadline
            for zom in (self._wr_zombie, self._rd_zombie):
                if zom:
                    expiry = next(iter(zom.values()))
                    if wake is None or expiry < wake:
                        wake = expiry
        return wake

    # ------------------------------------------------------------------
    # The inline ``_q`` reads mirror the crossbar hot path: probes that
    # move nothing make no call; a beat that moves goes through push/pop.
    def step(self, now: int) -> bool | int:
        self._last_now = now
        if self._stalled is not None:
            # The stall the last attempt recorded has lasted until now.
            self.settle_stall(now)
            self._stalled = None
        link = self.link
        # Sink responses first (mandatory progress for deadlock freedom).
        if self._occ_resp[0]:
            self._sink(now, link)
        # Stream W data in AW order, one beat per cycle.
        held = False  # W stream or burst issue held by a full FIFO
        w_emit = self._w_emit
        if w_emit:
            w = link.w
            stream = w_emit[0]
            if len(w._q) >= w.capacity:
                held = True
            elif (now >= self._probe_at
                  and (self._frozen_until >= 0 or stream.beats
                       - stream.issued > MIN_TRAIN_BEATS)
                  and self._train.holds(stream, now)):
                # The stream's middle beats ride a train, frozen on this
                # cycle or an earlier one (its FIFOs read empty): nothing
                # to push until the cycle it ends on, which puts the path
                # back first.
                held = True
            else:
                w.push(stream.next_beat(), now)
                if stream.issued >= stream.beats:
                    w_emit.popleft()
                    if self.watchers:
                        self._wake_watchers()
        # Abort orphaned transactions before considering new issues, so a
        # freed slot/retry is usable the same cycle under either scheduler.
        if self._txn_timeout is not None:
            self._check_timeouts(now)
        # Issue at most one burst per cycle (skip the call when there is
        # neither a transfer being split nor one queued).  The issue
        # gate: an attempt held by a full AW/AR FIFO has already passed
        # the ID/MOT test, and while nothing issues free ids and MOT room
        # only grow — so until that FIFO has room the attempt would find
        # the same thing, and is not made.
        issue_held = False
        if (now >= self._idle_until
                and (self._cur is not None or self._pending)):
            fifo = self._held_by
            issue_held = ((fifo is not None
                           and len(fifo._q) >= fifo.capacity)
                          or self._issue(now))
        # Report post-step state inline: False to poll, True when quiet()
        # would be, BLOCKED when all that is left is held by a full FIFO
        # we produce into — its pop wakes us — or by an ID/MOT stall,
        # which a response or a watchdog deadline ends: both wake us.
        if self._occ_resp[0] or (w_emit and not held):
            return False
        if issue_held:
            return BLOCKED
        # (An issue due next cycle is polled for; an engine whose W
        # stream is held — asleep on a train, mostly — leaves it to
        # next_event, not to a step that moves nothing.)
        if ((self._pending or self._cur is not None)
                and self._idle_until <= (now if held else now + 1)):
            return False
        return BLOCKED if held else True

    def _sink(self, now: int, link: AxiLink) -> None:
        """Consume at most one B and one R beat.

        The transaction-lifetime guards (DESIGN.md §10) are part of this
        one body and inert unless fault wiring armed them: no byzantine
        RNG means no draw, the zombie tables are empty without a
        watchdog, and no entry carries a flag."""
        rng = self._byz_rng
        q = link.b._q
        if q and q[0][0] <= now:
            beat = link.b.pop(now)
            tid = beat.id
            hit = self._byzantine(rng) if rng is not None else 0
            if hit == _F_GAP:
                pass  # ID mangled in flight: the scoreboard discards the
                #       beat; the burst orphans into the watchdog
            elif tid in self._wr_zombie:
                del self._wr_zombie[tid]  # late response for an aborted
                self._wr_free.append(tid)  # burst: its id is free again
            else:  # (a corrupted payload is detected as an error)
                self._complete(self._wr_out, self._wr_free, tid,
                               Resp.SLVERR if hit else beat.resp, now)
        q = link.r._q
        if q and q[0][0] <= now:
            beat = link.r.pop(now)
            tid = beat.id
            resp = beat.resp
            entry = self._rd_out.get(tid)
            if rng is not None:
                hit = self._byzantine(rng)
                if hit:
                    # A mangled ID discards the beat, so the burst's
                    # count can no longer line up: _F_GAP tells the tail
                    # check.  A corrupted payload fails the burst there.
                    if entry is not None:
                        entry[6] |= hit
                    if hit == _F_GAP:
                        return
                    resp = Resp.SLVERR
            if entry is None:
                if tid not in self._rd_zombie:
                    raise AssertionError(
                        f"{self.name}: R beat for unknown id {tid}")
                if beat.last:  # the aborted burst's tail finally arrived
                    del self._rd_zombie[tid]
                    self._rd_free.append(tid)
                return
            if not resp:  # error beats carry no creditable payload
                self.read_meter.add(beat.nbytes, now)
            entry[2] -= 1
            mismatch = beat.last != (entry[2] == 0)
            # With response-path faults armed an R burst may arrive with
            # beats missing; it then completes as SLVERR at its tail.
            if (mismatch and not (entry[6] & _F_GAP)
                    and not self._resp_tolerant):
                raise AssertionError(
                    f"{self.name}: R burst length mismatch on id {tid}")
            if beat.last:
                if mismatch or (entry[6] & _F_BYZ):
                    resp = Resp.SLVERR
                self._complete(self._rd_out, self._rd_free, tid, resp, now)

    def _byzantine(self, rng) -> int:
        """One byzantine draw for a response beat: 0 when it is clean,
        ``_F_BYZ`` when its payload was corrupted, ``_F_GAP`` when its ID
        was mangled (nobody can claim the beat)."""
        if rng.random() >= self._byz_rate:
            return 0
        self.recovery.stats.byzantine += 1
        return _F_GAP if rng.random() < 0.5 else _F_BYZ

    def _check_timeouts(self, now: int) -> None:
        """The per-transaction watchdog: abort outstanding bursts whose
        ``txn_timeout`` expired (orphaned by a lost response) into the
        retransmission path, and recycle zombie ids whose grace window
        passed.  Deadlines are monotone in each dict's insertion order,
        so only the heads are ever inspected."""
        for zom, free in ((self._wr_zombie, self._wr_free),
                          (self._rd_zombie, self._rd_free)):
            while zom:
                tid = next(iter(zom))
                if zom[tid] > now:
                    break
                del zom[tid]
                free.append(tid)
        for table, zom in ((self._wr_out, self._wr_zombie),
                           (self._rd_out, self._rd_zombie)):
            while table:
                tid = next(iter(table))
                entry = table[tid]
                if entry[5] > now:
                    break
                del table[tid]
                if self.watchers:
                    self._wake_watchers()
                # Quarantine the id: the orphan's beats may still come.
                zom[tid] = now + zombie_grace(self._txn_timeout)
                transfer = entry[0]
                if self.recovery.expired(entry[4], entry[1], now):
                    self._pending.append(_BurstRetry(
                        transfer, entry[3], entry[1], entry[4] + 1,
                        _F_TIMED))
                    continue
                transfer._failed = True
                self._retire(transfer, now)

    # ------------------------------------------------------------------
    def _issue(self, now: int) -> bool:
        """Issue at most one burst — the pending queue's head if it is a
        :class:`_BurstRetry`, else the next burst of the transfer being
        split.  Returns True when a burst is ready and held (see
        :meth:`_send`), False when it issued or advanced the split."""
        self._held_by = None
        if self._cur is None:
            if not self._pending:
                return False
            head = self._pending[0]
            if type(head) is _BurstRetry:
                # Popped only once the burst actually goes out.
                if self._send(head.transfer, head.burst, head.first_issue,
                              head.retries, head.flags, now):
                    return True
                self._pending.popleft()
                for feeder in self.feeders:
                    feeder.wake()
                return False
            transfer = self._pending.popleft()
            for feeder in self.feeders:
                feeder.wake()
            transfer._start_cycle = now
            self._cur = transfer
            self._burst_iter = split_transfer(
                transfer.addr, transfer.nbytes, self.beat_bytes,
                self.max_burst_beats)
            self._next_burst = next(self._burst_iter)
            return False
        burst = self._next_burst
        if burst is None:
            return False
        transfer = self._cur
        if self._send(transfer, burst, now, 0, 0, now):
            return True
        transfer._bursts_left += 1
        self._next_burst = next(self._burst_iter, None)
        if self._next_burst is None:
            transfer._split_done = True
            self._cur = None
            self._burst_iter = None
            if self.watchers:
                self._wake_watchers()  # backlog() stops counting the split
        return False

    def _send(self, transfer: Transfer, burst: Burst, first_issue: int,
              retries: int, flags: int, now: int) -> bool:
        """Put one burst — fresh or retried, read or write — on its
        address channel and into the outstanding table.  Returns True
        when it is held instead: by the ID pool / MOT (``_stalled`` opens
        the interval the next step charges) or by a full AW/AR FIFO (the
        pop that makes room wakes the engine; ``_held_by`` names it)."""
        link = self.link
        if transfer.is_read:
            free, out, fifo = self._rd_free, self._rd_out, link.ar
        else:
            free, out, fifo = self._wr_free, self._wr_out, link.aw
        if not free or len(out) >= self.max_outstanding:
            self._stalled = ("dma_rd_mot_stall" if transfer.is_read
                             else "dma_wr_mot_stall")
            self._stalled_since = now
            return True
        if not fifo.can_push():
            self._held_by = fifo
            return True
        tid = free.pop()
        dest = self.memory_map.resolve(burst.addr)
        fifo.push(AddrBeat(tid, burst.addr, burst.beats, burst.nbytes,
                           -1 if dest is None else dest, self.tile), now)
        to = self._txn_timeout
        out[tid] = [transfer, first_issue, burst.beats, burst, retries,
                    now + to if to is not None else 0, flags]
        if not transfer.is_read:
            self._w_emit.append(BeatStream(
                burst.addr, burst.beats, burst.nbytes, self.beat_bytes,
                WBeat))
        # Descriptor processing gap before the next burst may issue.
        self._idle_until = now + self.issue_overhead
        return False

    def _complete(self, table: dict, free: list, tid: int,
                  resp: Resp, now: int) -> None:
        entry = table.pop(tid, None)
        if entry is None:
            raise AssertionError(f"{self.name}: response for unknown id {tid}")
        free.append(tid)
        if self.watchers:
            self._wake_watchers()
        transfer = entry[0]
        recovery = self.recovery
        if resp != Resp.OKAY:
            self.errors += 1
            self.counters.bump("dma_resp_error")
            # Under "none" / "reroute" an error response is counted in
            # ``response_errors`` only, never ``dropped``: asking
            # Recovery here would move ``dropped`` in every such armed
            # run (a statistic change, not a refactor).
            if (recovery is not None and recovery.retransmit
                    and recovery.retry(entry[4], entry[1], now)):
                # Only this burst goes again; its transfer keeps owing
                # it (``_bursts_left``) until the retry resolves.
                self._pending.append(_BurstRetry(
                    transfer, entry[3], entry[1], entry[4] + 1))
                return
            transfer._failed = True
        elif recovery is not None:
            recovery.recovered(entry[4], entry[1], now, entry[6] & _F_TIMED)
        self._retire(transfer, now)

    def _retire(self, transfer: Transfer, now: int) -> None:
        """One burst of ``transfer`` is done for good — completed, failed
        or dropped; the transfer completes with its last."""
        transfer._bursts_left -= 1
        if transfer._split_done and transfer._bursts_left == 0:
            self.transfers_completed += 1
            self.latency_stats.add(now - transfer._start_cycle)
            if transfer.on_complete is not None:
                transfer.on_complete(now)
