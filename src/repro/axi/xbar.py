"""The configurable AXI crossbar (XBAR) — PATRONoC's routing element.

This is a behavioural model of the pulp-platform ``axi_xbar`` extended
with per-egress ID remapping, i.e. exactly the XP building block of
Fig. 1 (bottom).  One class serves every use:

* ``n_in = n_out = 1`` … a register slice,
* ``1 × N`` … a demux, ``N × 1`` … a mux,
* fully connected ``N × M`` … a single-stage crossbar interconnect,
* partially connected 3–5 port instances … mesh crosspoints (XPs).

The protocol rules modelled here are the ones that dominate NoC
performance (DESIGN.md §5):

* **AW/AR arbitration** — round-robin per egress, one grant per cycle.
* **ID remapping** — every granted request gets an egress-local ID from
  an :class:`~repro.axi.id_pool.IdRemapper`; responses are routed back by
  table lookup and restored to the original ID.  Pool exhaustion stalls
  the arbiter.
* **Demux same-ID rule** — a request whose (ingress, ID) pair has
  transactions in flight towards a *different* egress stalls until they
  drain (AXI ordering would otherwise be violated).
* **W-channel locking** — W beats cross the switch in the order their AWs
  were granted at each egress, and an egress's W mux stays locked to one
  ingress until the burst's last beat.  This serialisation is what makes
  many small write bursts expensive on any AXI fabric.
* **Error termination** — requests that decode to no egress are consumed
  and answered with DECERR, the ``axi_err_slv`` default port of the RTL.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.axi.beats import AddrBeat, BBeat, RBeat
from repro.axi.id_pool import IdRemapper
from repro.axi.link import AxiLink
from repro.axi.types import Resp
from repro.sim.fifo import full_fifos
from repro.sim.kernel import BLOCKED, Component
from repro.sim.stats import CounterSet

#: Egress sentinel for "no route: terminate with DECERR".
ERROR_PORT = -1


RouteFn = Callable[[AddrBeat, int], int | None]


class ConnectivityError(RuntimeError):
    """The routing function produced a turn the XBAR is not wired for."""


class AxiCrossbar(Component):
    """An ``n_in × n_out`` AXI crossbar with ID remapping.

    Parameters
    ----------
    name:
        Instance name (used in assertions and monitors).
    n_in / n_out:
        Number of slave (request-ingress) / master (request-egress) ports.
    route:
        ``route(addr_beat, in_port) -> out_port | None``.  None (or
        :data:`ERROR_PORT`) terminates the request with DECERR.
    id_width:
        Egress ID width in bits; each egress owns ``2**id_width`` remap
        entries per direction (read/write).
    connectivity:
        Optional iterable of allowed ``(in_port, out_port)`` pairs; the
        Table I "Partial" option.  None means fully connected.  A route
        through a missing connection raises :class:`ConnectivityError` —
        routing and wiring must agree by construction.
    w_order_depth:
        Depth of the per-egress W grant-order queue (how many write
        bursts may be granted ahead of their data).
    max_outstanding:
        Optional per-egress, per-direction cap on in-flight transactions
        (Table I MOT for the fabric blocks); None = limited only by the
        ID pool.
    priorities:
        Optional per-ingress arbitration priorities (the AXI QoS
        analogue): among simultaneously requesting ingresses, the
        highest priority wins; round-robin breaks ties.  None (default)
        is plain round-robin.
    """

    def __init__(self, name: str, n_in: int, n_out: int, route: RouteFn, *,
                 id_width: int, connectivity: Iterable[tuple[int, int]] | None = None,
                 w_order_depth: int = 8, max_outstanding: int | None = None,
                 err_depth: int = 4, counters: CounterSet | None = None,
                 priorities: list[int] | None = None):
        if n_in < 1 or n_out < 1:
            raise ValueError(f"crossbar needs >=1 port per side, got {n_in}x{n_out}")
        self.name = name
        self.n_in = n_in
        self.n_out = n_out
        self.route = route
        self.w_order_depth = w_order_depth
        self.max_outstanding = max_outstanding
        self.err_depth = err_depth
        self.counters = counters if counters is not None else CounterSet()
        if priorities is not None and len(priorities) != n_in:
            raise ValueError(
                f"priorities must have one entry per ingress "
                f"({n_in}), got {len(priorities)}")
        self.priorities = priorities

        self.in_links: list[AxiLink | None] = [None] * n_in
        self.out_links: list[AxiLink | None] = [None] * n_out

        self._allowed: frozenset[tuple[int, int]] | None = (
            None if connectivity is None else frozenset(connectivity))

        # Per-egress state.
        self._wr_remap = [IdRemapper(id_width) for _ in range(n_out)]
        self._rd_remap = [IdRemapper(id_width) for _ in range(n_out)]
        self._wr_inflight = [0] * n_out
        self._rd_inflight = [0] * n_out
        self._w_order: list[deque] = [deque() for _ in range(n_out)]  # [in, beats_left]
        #: Egresses whose _w_order is non-empty (unordered; W-mux
        #: conflicts are impossible across egresses, see _move_w).
        self._w_busy: list[int] = []
        self._aw_ptr = [0] * n_out
        self._ar_ptr = [0] * n_out

        # Per-ingress state.
        self._wr_dest: list[dict[int, list]] = [dict() for _ in range(n_in)]
        self._rd_dest: list[dict[int, list]] = [dict() for _ in range(n_in)]
        self._w_route: list[deque] = [deque() for _ in range(n_in)]  # [out, oid]
        #: Bitmask of the ingresses whose _w_route is non-empty: their AW
        #: heads wait for the W data of the burst already granted.
        self._w_locked = 0
        self._err_b: list[deque] = [deque() for _ in range(n_in)]  # (oid, resp)
        self._err_r: list[deque] = [deque() for _ in range(n_in)]  # [oid, beats_left, resp]
        #: Decode-once memo: the AW/AR head beat of each ingress and the
        #: egress the route function gave it, so a head that waits is
        #: routed once, not once per cycle.  Dropped when the head is
        #: popped and by :meth:`routes_changed`.
        self._aw_head: list[AddrBeat | None] = [None] * n_in
        self._aw_egress = [ERROR_PORT] * n_in
        self._ar_head: list[AddrBeat | None] = [None] * n_in
        self._ar_egress = [ERROR_PORT] * n_in
        #: Per-egress mask of the ingresses requesting it — scratch of
        #: one arbitration call, all zero between calls.
        self._aw_req = [0] * n_out
        self._ar_req = [0] * n_out
        #: The last AR arbitration, if it was futile — every non-empty
        #: ingress filed, every requested egress FIFO-full or MOT-full:
        #: (ingress mask, [(ingress deque, its head entry)], [(egress,
        #: egress deque, capacity)]).  While it still describes the
        #: crossbar, step() replays the call's outcome instead of making
        #: it (DESIGN.md §5); None otherwise.
        self._ar_memo: tuple | None = None

        #: Egresses currently killed by fault injection (DESIGN.md §10):
        #: requests decoding to one are terminated with SLVERR through
        #: the error path.  None (the default) is the fault-free fast
        #: path; only the fault controller writes this.
        self._fault_blocked: frozenset[int] | None = None

        # Hot-path caches, rebuilt lazily after wiring changes.
        self._in_ports: list[int] | None = None
        self._err_pending = 0
        # Incrementally maintained busy counter: with the _w_busy list it
        # makes the per-step dead-path guards and idle() O(1).
        self._err_w = 0      # error-bound write bursts awaiting W data sink
        # Shared occupancy cells, one per channel class this XP consumes
        # (DESIGN.md §2): non-zero while any attached FIFO is non-empty,
        # so step() skips whole phases and quiet() is O(1).  W, B and R
        # count their non-empty FIFOs; AW and AR are bitmasks, bit i set
        # while ingress i's FIFO is non-empty, which is where address
        # arbitration starts.
        self._occ_aw = [0]
        self._occ_w = [0]
        self._occ_ar = [0]
        self._occ_b = [0]
        self._occ_r = [0]
        # Scan-start hints: when exactly one response source is occupied
        # (the common case) the rotation is irrelevant to arbitration,
        # so the scan starts at the last known occupied port.
        self._b_hot = 0
        self._r_hot = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect_in(self, port: int, link: AxiLink) -> AxiLink:
        """Attach ``link`` as request-ingress ``port`` (we are its slave)."""
        if self.in_links[port] is not None:
            raise ValueError(f"{self.name}: in port {port} already connected")
        self.in_links[port] = link
        link.watch_requests(self)
        link.aw.track_occupancy(self._occ_aw, 1 << port)
        link.w.track_occupancy(self._occ_w)
        link.ar.track_occupancy(self._occ_ar, 1 << port)
        self._in_ports = None
        return link

    def connect_out(self, port: int, link: AxiLink) -> AxiLink:
        """Attach ``link`` as request-egress ``port`` (we are its master)."""
        if self.out_links[port] is not None:
            raise ValueError(f"{self.name}: out port {port} already connected")
        self.out_links[port] = link
        link.watch_responses(self)
        link.b.track_occupancy(self._occ_b)
        link.r.track_occupancy(self._occ_r)
        self._in_ports = None
        return link

    def set_fault_blocked(self, ports: frozenset[int] | None) -> None:
        """Install the set of fault-killed egress ports (None = healthy).

        In-flight transactions towards a newly blocked egress complete
        normally; only *new* AW/AR admissions are SLVERR-terminated.
        """
        self._fault_blocked = ports if ports else None
        self._ar_memo = None
        self.wake()  # a head held by a full egress may now be terminated

    def routes_changed(self) -> None:
        """The route function's answers may have changed (a fault-table
        swap, DESIGN.md §10): forget the decoded heads and re-arbitrate."""
        self._aw_head = [None] * self.n_in
        self._ar_head = [None] * self.n_in
        self._ar_memo = None
        self.wake()

    def _refresh_port_lists(self) -> None:
        self._in_ports = [i for i, l in enumerate(self.in_links) if l is not None]
        out_ports = [j for j, l in enumerate(self.out_links) if l is not None]
        # Prebuilt hot-scan tuples.  A FIFO's deque, capacity, and
        # latency are stable for its lifetime, so carrying them directly
        # saves attribute loads in the per-beat loops:
        #   scans: (egress, src fifo, src deque, remapper, remap table,
        #           src capacity - 1: the length a pop leaves a full FIFO at)
        #   dsts:  (dst fifo, dst deque, capacity, latency) | None
        self._b_scan = [(j, self.out_links[j].b, self.out_links[j].b._q,
                         self._wr_remap[j], self._wr_remap[j]._table,
                         self.out_links[j].b.capacity - 1)
                        for j in out_ports]
        self._r_scan = [(j, self.out_links[j].r, self.out_links[j].r._q,
                         self._rd_remap[j], self._rd_remap[j]._table,
                         self.out_links[j].r.capacity - 1)
                        for j in out_ports]

        def _dst(fifo):
            return ((fifo, fifo._q, fifo.capacity, fifo.latency)
                    if fifo is not None else None)

        self._b_dst = [_dst(l.b if l is not None else None)
                       for l in self.in_links]
        self._r_dst = [_dst(l.r if l is not None else None)
                       for l in self.in_links]
        # W-channel endpoints by port index: (src fifo, src deque,
        # capacity - 1) | None, and dsts as above.
        self._w_src = [(l.w, l.w._q, l.w.capacity - 1) if l is not None
                       else None for l in self.in_links]
        self._w_dst = [_dst(l.w if l is not None else None)
                       for l in self.out_links]
        # Address-channel source deques by ingress index.
        self._aw_q = [l.aw._q if l is not None else None
                      for l in self.in_links]
        self._ar_q = [l.ar._q if l is not None else None
                      for l in self.in_links]

    def idle(self) -> bool:
        """True when no transaction state is held inside this crossbar."""
        return (not any(self._w_order)
                and not any(self._w_route)
                and not any(self._err_b) and not any(self._err_r)
                and all(r.in_flight() == 0 for r in self._wr_remap)
                and all(r.in_flight() == 0 for r in self._rd_remap))

    def quiet(self) -> bool:
        """Activity contract: stepping can do no work — no beat on any
        watched channel and no queued error response.

        This is *not* "no transaction in flight" (that is :meth:`idle`):
        a transaction whose beats are currently parked in downstream
        links or at an endpoint keeps state in the remap tables, but the
        XP has nothing to do for it until a response beat lands on a
        watched FIFO — which wakes it.
        """
        return not (self._occ_aw[0] or self._occ_w[0] or self._occ_ar[0]
                    or self._occ_b[0] or self._occ_r[0]
                    or self._err_pending)

    def blocked_on(self) -> str:
        """The full FIFOs this crossbar produces into."""
        fifos = [f for l in self.in_links if l is not None
                 for f in (l.b, l.r)]
        fifos += [f for l in self.out_links if l is not None
                  for f in (l.aw, l.w, l.ar)]
        return full_fifos(fifos)

    # ------------------------------------------------------------------
    # per-cycle behaviour
    # ------------------------------------------------------------------
    # The bodies below reach into TimedFifo internals (``_q`` holds
    # ``(ready_at, item)`` pairs) instead of calling peek()/pop(): a 4×4
    # mesh makes ~1.5 M channel probes per 4 k cycles and the function
    # call overhead dominated the profile.  The semantics are identical
    # to peek/pop and the FIFO unit tests pin them down.
    # step() is deliberately one flat function: every sub-phase is gated
    # by an occupancy cell (a channel class with no beat anywhere costs
    # nothing) and the two per-beat streaming loops are fully inlined —
    # pop/push/lookup/with_id included, with counter and occupancy-cell
    # updates — because a loaded mesh spends most of its wall clock right
    # here and the call layers dominated the profile.  Semantics are
    # identical to the TimedFifo/peek/pop compositions they replace (the
    # FIFO unit tests pin them down).  Response mux rotation derives
    # from ``now`` (not a step counter) so arbitration is a pure
    # function of cycle number — identical whether or not the activity
    # kernel skipped quiet cycles.  Used-ingress tracking is a bitmask
    # (one grant per ingress per channel per cycle).
    def step(self, now: int) -> bool:
        if self._in_ports is None:  # wiring changed
            self._refresh_port_lists()
        # -- forward B responses (egress -> ingress, round-robin) -------
        poll = False  # a head not yet visible: nothing will wake us for it
        b_used = 0
        remaining = self._occ_b[0]  # non-empty B sources left to visit
        if remaining:
            scan = self._b_scan
            n = len(scan)
            if remaining == 1:
                idx = self._b_hot
                if idx >= n:
                    idx = 0
            else:
                idx = now % n
            for _ in range(n):
                pos = idx
                j, src, q, remap, table, was_full = scan[idx]
                idx += 1
                if idx == n:
                    idx = 0
                if not q:
                    continue
                remaining -= 1
                self._b_hot = pos
                head = q[0]
                if head[0] > now:
                    poll = True
                else:
                    beat = head[1]
                    entry = table[beat.id]
                    i = entry[0]
                    if not (b_used >> i) & 1:
                        dst, dq, cap, lat = self._b_dst[i]
                        if len(dq) < cap:
                            oid = entry[1]
                            q.popleft()
                            src.popped += 1
                            if not q:
                                occ = src.occ
                                if occ is not None:
                                    occ[0] -= 1
                                if not was_full:  # a capacity-1 FIFO
                                    src.freed()
                            elif len(q) == was_full:
                                producer = src.producer  # inlined freed()
                                if (producer is not None
                                        and not producer._in_active_set):
                                    producer.wake()
                            remap.release(beat.id)
                            self._wr_inflight[j] -= 1
                            _retire_dest(self._wr_dest[i], oid, j)
                            if not dq:
                                occ = dst.occ
                                if occ is not None:
                                    occ[0] += 1
                            # Beats are immutable: reuse when the ID maps
                            # to itself instead of allocating a copy.
                            dq.append((now + lat,
                                       beat if oid == beat.id
                                       else BBeat(oid, beat.resp)))
                            dst.pushed += 1
                            consumer = dst.consumer
                            if (consumer is not None
                                    and not consumer._in_active_set):
                                consumer.wake(now + lat)
                            b_used |= 1 << i
                if not remaining:
                    break
        # -- forward R responses (egress -> ingress, round-robin) -------
        r_used = 0
        remaining = self._occ_r[0]  # non-empty R sources left to visit
        if remaining:
            scan = self._r_scan
            n = len(scan)
            if remaining == 1:
                idx = self._r_hot
                if idx >= n:
                    idx = 0
            else:
                idx = now % n
            for _ in range(n):
                pos = idx
                j, src, q, remap, table, was_full = scan[idx]
                idx += 1
                if idx == n:
                    idx = 0
                if not q:
                    continue
                remaining -= 1
                self._r_hot = pos
                head = q[0]
                if head[0] > now:
                    poll = True
                else:
                    beat = head[1]
                    entry = table[beat.id]
                    i = entry[0]
                    if not (r_used >> i) & 1:
                        dst, dq, cap, lat = self._r_dst[i]
                        if len(dq) < cap:
                            oid = entry[1]
                            q.popleft()
                            src.popped += 1
                            if not q:
                                occ = src.occ
                                if occ is not None:
                                    occ[0] -= 1
                                if not was_full:  # a capacity-1 FIFO
                                    src.freed()
                            elif len(q) == was_full:
                                producer = src.producer  # inlined freed()
                                if (producer is not None
                                        and not producer._in_active_set):
                                    producer.wake()
                            if beat.last:
                                remap.release(beat.id)
                                self._rd_inflight[j] -= 1
                                _retire_dest(self._rd_dest[i], oid, j)
                            if not dq:
                                occ = dst.occ
                                if occ is not None:
                                    occ[0] += 1
                            # Beats are immutable: reuse when the ID maps
                            # to itself instead of allocating a copy.
                            dq.append((now + lat,
                                       beat if oid == beat.id
                                       else RBeat(oid, beat.last, beat.nbytes,
                                                  beat.resp)))
                            dst.pushed += 1
                            consumer = dst.consumer
                            if (consumer is not None
                                    and not consumer._in_active_set):
                                consumer.wake(now + lat)
                            r_used |= 1 << i
                if not remaining:
                    break
        if self._err_pending:
            self._error_responses(now, b_used, r_used)
        # -- move W data (granted bursts only, see _w_busy invariant) ---
        w_used = 0
        if self._occ_w[0] and (self._w_busy or self._err_w):
            w_src = self._w_src
            w_busy = self._w_busy
            # Visit order over busy egresses is immaterial: an ingress's
            # W-route head names a single egress, so two egresses can
            # never contend for one ingress in a cycle — w_used only
            # feeds the error sink.
            for bidx in range(len(w_busy) - 1, -1, -1):
                j = w_busy[bidx]
                order = self._w_order[j]
                entry = order[0]
                i = entry[0]
                route_q = self._w_route[i]
                if not route_q or route_q[0][0] != j:
                    # W-coupled AW forwarding grants an ingress one
                    # burst at a time, so the burst this egress's W mux
                    # is locked to is the only one the ingress owes.
                    raise AssertionError(
                        f"{self.name}: egress {j} expects W data from "
                        f"ingress {i}, which owes {list(route_q)}")
                src, q, was_full = w_src[i]
                if q:
                    head = q[0]
                    if head[0] > now:
                        poll = True
                    else:
                        beat = head[1]
                        dst, dq, cap, lat = self._w_dst[j]
                        if len(dq) < cap:
                            q.popleft()
                            src.popped += 1
                            if not q:
                                occ = src.occ
                                if occ is not None:
                                    occ[0] -= 1
                                if not was_full:  # a capacity-1 FIFO
                                    src.freed()
                            elif len(q) == was_full:
                                producer = src.producer  # inlined freed()
                                if (producer is not None
                                        and not producer._in_active_set):
                                    producer.wake()
                            if not dq:
                                occ = dst.occ
                                if occ is not None:
                                    occ[0] += 1
                            dq.append((now + lat, beat))
                            dst.pushed += 1
                            consumer = dst.consumer
                            if (consumer is not None
                                    and not consumer._in_active_set):
                                consumer.wake(now + lat)
                            w_used |= 1 << i
                            entry[1] -= 1
                            if beat.last:
                                if entry[1] != 0:
                                    raise AssertionError(
                                        f"{self.name}: W burst length "
                                        f"mismatch at egress {j} "
                                        f"({entry[1]} beats unaccounted)")
                                order.popleft()
                                route_q.popleft()
                                self._w_locked &= ~(1 << i)
                                if not order:
                                    del w_busy[bidx]
            if self._err_w:
                self._sink_error_w(now, w_used)
        # -- arbitrate AW/AR: only among the ingresses that can request --
        # An AW head behind its own ingress's W lock (W-coupled
        # forwarding, see _arbitrate_aw) is not a request; the W move
        # that releases the lock is ours and ran above.
        mask = self._occ_aw[0] & ~self._w_locked
        if mask and self._arbitrate_aw(now, mask):
            poll = True
        mask = self._occ_ar[0]
        if mask:
            # A futile AR arbitration is replayed, not repeated, while
            # its memo still describes us: the same visible heads (a
            # degraded link's stall_heads re-times one: a new entry) and
            # every requested egress still closed.  What the call would
            # do is bump ar_mot_stall once per egress with FIFO room but
            # no MOT room, and ask for another step iff it bumped.
            stalls = -1
            memo = self._ar_memo
            if memo is not None and memo[0] == mask:
                for q, head in memo[1]:
                    if q[0] is not head:
                        break
                else:
                    stalls = 0
                    mot = self.max_outstanding
                    for j, q, cap in memo[2]:
                        if len(q) < cap:
                            if mot is None or self._rd_inflight[j] < mot:
                                stalls = -1  # an egress has opened
                                break
                            stalls += 1
            if stalls < 0:
                if self._arbitrate_ar(now, mask):
                    poll = True
            elif stalls:
                self.counters.bump("ar_mot_stall", stalls)
                poll = True
        # Report post-step state inline (see Component.step): quiet with
        # nothing on any channel; BLOCKED when beats remain but this step
        # moved none, every head it could serve is visible, and what
        # holds each is a full FIFO we produce into (its pop wakes us) or
        # our own W lock (released only by a W move of ours).  Error
        # paths and counted stalls keep polling.
        if b_used or r_used or w_used or poll or self._err_pending:
            return False  # (a step that emptied us retires on the next)
        if not (self._occ_aw[0] or self._occ_w[0] or self._occ_ar[0]
                or self._occ_b[0] or self._occ_r[0]):
            return True
        return False if self._err_w else BLOCKED

    def _error_responses(self, now: int, b_used: int, r_used: int) -> None:
        for i in self._in_ports:
            in_link = self.in_links[i]
            if (not (b_used >> i) & 1 and self._err_b[i]
                    and in_link.b.can_push()):
                oid, resp = self._err_b[i].popleft()
                self._err_pending -= 1
                _retire_dest(self._wr_dest[i], oid, ERROR_PORT)
                in_link.b.push(BBeat(oid, resp), now)
                self.counters.bump("decerr_b" if resp is Resp.DECERR
                                   else "slverr_b")
            if (not (r_used >> i) & 1 and self._err_r[i]
                    and in_link.r.can_push()):
                entry = self._err_r[i][0]
                entry[1] -= 1
                last = entry[1] == 0
                in_link.r.push(RBeat(entry[0], last, 0, entry[2]), now)
                if last:
                    self._err_r[i].popleft()
                    self._err_pending -= 1
                    _retire_dest(self._rd_dest[i], entry[0], ERROR_PORT)
                    self.counters.bump("decerr_r" if entry[2] is Resp.DECERR
                                       else "slverr_r")

    # -- write data (error path) ----------------------------------------
    def _sink_error_w(self, now: int, w_used: int) -> None:
        """Sink W bursts of error-terminated AWs at the ingress (no
        egress involved); the B DECERR is owed once W-last arrives."""
        for i in self._in_ports:
            if (w_used >> i) & 1:
                continue
            route_q = self._w_route[i]
            if not route_q or route_q[0][0] != ERROR_PORT:
                continue
            in_link = self.in_links[i]
            beat = in_link.w.peek(now)
            if beat is None:
                continue
            in_link.w.pop(now)
            if beat.last:
                entry = route_q.popleft()
                self._w_locked &= ~(1 << i)
                self._err_w -= 1
                self._err_b[i].append((entry[1], entry[2]))
                self._err_pending += 1

    # -- address channels ------------------------------------------------
    def _decode(self, beat: AddrBeat, i: int) -> int:
        j = self.route(beat, i)
        if j is None:
            return ERROR_PORT
        if j == ERROR_PORT:
            return ERROR_PORT
        if not 0 <= j < self.n_out or self.out_links[j] is None:
            raise ConnectivityError(
                f"{self.name}: route sent {beat!r} to nonexistent egress {j}")
        if self._allowed is not None and (i, j) not in self._allowed:
            raise ConnectivityError(
                f"{self.name}: route used disallowed turn {i}->{j} for {beat!r}")
        return j

    def _arbitrate_aw(self, now: int, mask: int) -> bool:
        """Grant at most one AW per egress among the ingresses in
        ``mask``: those with a non-empty AW FIFO and no W lock.

        W-coupled AW forwarding: at most one granted write burst per
        ingress until its W data has fully moved through this XP.  This
        is the wormhole-style atomicity that makes YX routing
        deadlock-free on the write path; without it, AWs racing ahead of
        their W data create cyclic wait-for dependencies around mesh
        rings (see tests/test_deadlock.py).

        Two passes (DESIGN.md §5).  Pass 1 visits the ingresses in
        ascending order and files each visible head once, as a bit in
        the request mask of the egress its decode-once memo names; the
        same-ID rule and the error termination are decided here, per
        ingress.  Pass 2 visits the requested egresses and grants one
        ingress each, round-robin from the egress's pointer; everything
        that depends on the egress — FIFO space, the W order queue, MOT,
        the ID pool — is checked there, at visit time.

        Returns True when the crossbar must step again next cycle
        whatever its neighbours do — it granted or terminated a request,
        a head is not yet visible, an error path is pending, or a
        per-cycle stall counter ran — and False when every head is held
        by a full egress FIFO."""
        busy = False
        heads = self._aw_head
        egress = self._aw_egress
        req = self._aw_req
        src = self._aw_q
        blocked = self._fault_blocked
        wanted = 0  # egresses with a request filed
        while mask:
            bit = mask & -mask
            mask ^= bit
            i = bit.bit_length() - 1
            head = src[i][0]
            if head[0] > now:
                busy = True
                continue
            beat = head[1]
            if heads[i] is beat:
                j = egress[i]
            else:
                j = egress[i] = self._decode(beat, i)
                heads[i] = beat
            if j == ERROR_PORT or (blocked is not None and j in blocked):
                busy = True  # the error path polls
                self._terminate_aw(now, i, beat, j)
                continue
            dest = self._wr_dest[i].get(beat.id)
            if dest is not None and dest[0] != j:
                self.counters.bump("aw_same_id_stall")
                busy = True
                continue
            req[j] |= bit
            wanted |= 1 << j
        while wanted:
            bit = wanted & -wanted
            wanted ^= bit
            j = bit.bit_length() - 1
            mask = req[j]
            req[j] = 0
            out = self.out_links[j].aw
            if len(out._q) >= out.capacity:
                continue  # back-pressure: the pop that frees it wakes us
            busy = True
            order = self._w_order[j]
            if len(order) >= self.w_order_depth:
                self.counters.bump("aw_order_full")
                continue
            if (self.max_outstanding is not None
                    and self._wr_inflight[j] >= self.max_outstanding):
                self.counters.bump("aw_mot_stall")
                continue
            i = self._pick_mask(mask, self._aw_ptr[j])
            beat = heads[i]
            rid = self._wr_remap[j].acquire(i, beat.id)
            if rid is None:
                self.counters.bump("aw_id_stall")
                continue
            self.in_links[i].aw.pop(now)
            heads[i] = None
            out.push(beat.with_id(rid), now)
            self._wr_inflight[j] += 1
            _bump_dest(self._wr_dest[i], beat.id, j)
            self._w_route[i].append([j, None])
            self._w_locked |= 1 << i
            if not order:
                self._w_busy.append(j)
            order.append([i, beat.beats])
            self._aw_ptr[j] = i + 1 if i + 1 < self.n_in else 0
        return busy

    def _terminate_aw(self, now: int, i: int, beat: AddrBeat, j: int) -> None:
        """Consume ingress ``i``'s AW head into the error path, same-ID
        order and error-queue space permitting: it decoded to no egress
        (``j`` is ERROR_PORT: DECERR) or to a fault-killed one (fail
        fast with SLVERR)."""
        dest = self._wr_dest[i].get(beat.id)
        if dest is not None and dest[0] != ERROR_PORT:
            return  # same-ID ordering across destinations
        if len(self._err_b[i]) >= self.err_depth:  # (_w_route[i] is empty)
            return
        resp = Resp.DECERR if j == ERROR_PORT else Resp.SLVERR
        self.in_links[i].aw.pop(now)
        self._aw_head[i] = None
        _bump_dest(self._wr_dest[i], beat.id, ERROR_PORT)
        self._w_route[i].append([ERROR_PORT, beat.id, resp])
        self._w_locked |= 1 << i
        self._err_w += 1
        self.counters.bump("aw_unmapped" if resp is Resp.DECERR
                           else "aw_fault_blocked")

    def _arbitrate_ar(self, now: int, mask: int) -> bool:
        """The AR twin of :meth:`_arbitrate_aw` (same passes and return
        contract; reads have no W coupling, so ``mask`` is every ingress
        with a non-empty AR FIFO).

        Many-to-one reads make most calls futile: pass 1 files every
        ingress and pass 2 finds every requested egress FIFO-full or
        MOT-full.  Such a call leaves ``_ar_memo`` behind, and
        :meth:`step` replays its outcome without calling again until an
        ingress, a head or an egress has changed.  AW needs no twin: the
        ``_w_locked`` mask already keeps its futile calls away."""
        occupied = mask
        busy = False
        heads = self._ar_head
        egress = self._ar_egress
        req = self._ar_req
        src = self._ar_q
        blocked = self._fault_blocked
        wanted = 0  # egresses with a request filed
        while mask:
            bit = mask & -mask
            mask ^= bit
            i = bit.bit_length() - 1
            head = src[i][0]
            if head[0] > now:
                busy = True
                continue
            beat = head[1]
            if heads[i] is beat:
                j = egress[i]
            else:
                j = egress[i] = self._decode(beat, i)
                heads[i] = beat
            if j == ERROR_PORT or (blocked is not None and j in blocked):
                busy = True  # the error path polls
                self._terminate_ar(now, i, beat, j)
                continue
            dest = self._rd_dest[i].get(beat.id)
            if dest is not None and dest[0] != j:
                self.counters.bump("ar_same_id_stall")
                busy = True
                continue
            req[j] |= bit
            wanted |= 1 << j
        futile = not busy  # every non-empty ingress filed a request
        while wanted:
            bit = wanted & -wanted
            wanted ^= bit
            j = bit.bit_length() - 1
            mask = req[j]
            req[j] = 0
            out = self.out_links[j].ar
            if len(out._q) >= out.capacity:
                continue  # back-pressure: the pop that frees it wakes us
            busy = True
            if (self.max_outstanding is not None
                    and self._rd_inflight[j] >= self.max_outstanding):
                self.counters.bump("ar_mot_stall")
                continue
            futile = False
            i = self._pick_mask(mask, self._ar_ptr[j])
            beat = heads[i]
            rid = self._rd_remap[j].acquire(i, beat.id)
            if rid is None:
                self.counters.bump("ar_id_stall")
                continue
            self.in_links[i].ar.pop(now)
            heads[i] = None
            out.push(beat.with_id(rid), now)
            self._rd_inflight[j] += 1
            _bump_dest(self._rd_dest[i], beat.id, j)
            self._ar_ptr[j] = i + 1 if i + 1 < self.n_in else 0
        self._ar_memo = self._remember_ar(occupied) if futile else None
        return busy

    def _remember_ar(self, mask: int) -> tuple:
        """The memo of a futile AR arbitration over the ingresses in
        ``mask`` (see ``_ar_memo``).  It need not hold what cannot change
        under it: a filed head leaves only by a grant, the same-ID rule
        can only start to bind at one, and :meth:`routes_changed` /
        :meth:`set_fault_blocked` drop the memo."""
        ingresses = [i for i in range(self.n_in) if mask >> i & 1]
        src = self._ar_q
        outs = [(j, self.out_links[j].ar)
                for j in {self._ar_egress[i] for i in ingresses}]
        return (mask, [(src[i], src[i][0]) for i in ingresses],
                [(j, out._q, out.capacity) for j, out in outs])

    def _terminate_ar(self, now: int, i: int, beat: AddrBeat, j: int) -> None:
        """The AR twin of :meth:`_terminate_aw`."""
        dest = self._rd_dest[i].get(beat.id)
        if dest is not None and dest[0] != ERROR_PORT:
            return  # same-ID ordering across destinations
        if len(self._err_r[i]) >= self.err_depth:
            return
        resp = Resp.DECERR if j == ERROR_PORT else Resp.SLVERR
        self.in_links[i].ar.pop(now)
        self._ar_head[i] = None
        _bump_dest(self._rd_dest[i], beat.id, ERROR_PORT)
        self._err_r[i].append([beat.id, beat.beats, resp])
        self._err_pending += 1
        self.counters.bump("ar_unmapped" if resp is Resp.DECERR
                           else "ar_fault_blocked")

    def _pick_mask(self, mask: int, ptr: int) -> int:
        """Arbitrate among the requesting ingresses in ``mask``: the
        lowest at or after ``ptr``, wrapping — :func:`_round_robin_pick`
        on the mask's bits, without the list.  With QoS priorities and
        more than one requester, :meth:`_pick` decides."""
        if self.priorities is not None and mask & (mask - 1):
            return self._pick(
                [i for i in range(self.n_in) if mask >> i & 1], ptr)
        high = mask >> ptr << ptr
        pick = high or mask
        return (pick & -pick).bit_length() - 1

    def _pick(self, candidates: list[int], ptr: int) -> int:
        """Arbitrate among requesting ingresses: QoS priority first (if
        configured), round-robin from ``ptr`` within the winners."""
        if self.priorities is not None and len(candidates) > 1:
            best = max(self.priorities[i] for i in candidates)
            candidates = [i for i in candidates
                          if self.priorities[i] == best]
        return _round_robin_pick(candidates, ptr)


def _round_robin_pick(candidates: list[int], ptr: int) -> int:
    """First candidate at or after ``ptr``, wrapping (candidates sorted)."""
    for i in candidates:
        if i >= ptr:
            return i
    return candidates[0]


def _bump_dest(dest_map: dict[int, list], oid: int, out: int) -> None:
    entry = dest_map.get(oid)
    if entry is None:
        dest_map[oid] = [out, 1]
    else:
        entry[1] += 1


def _retire_dest(dest_map: dict[int, list], oid: int, out: int) -> None:
    entry = dest_map[oid]
    if entry[0] != out:
        raise AssertionError(
            f"response for id {oid} returned from egress {out}, "
            f"but transactions were sent to {entry[0]}")
    entry[1] -= 1
    if entry[1] == 0:
        del dest_map[oid]


def make_mux(name: str, n_in: int, *, id_width: int,
             **kwargs) -> AxiCrossbar:
    """An ``n_in × 1`` crossbar: the ``axi_mux`` building block."""
    return AxiCrossbar(name, n_in, 1, lambda beat, i: 0,
                       id_width=id_width, **kwargs)


def make_demux(name: str, n_out: int, route: RouteFn, *, id_width: int,
               **kwargs) -> AxiCrossbar:
    """A ``1 × n_out`` crossbar: the ``axi_demux`` building block."""
    return AxiCrossbar(name, 1, n_out, route, id_width=id_width, **kwargs)
