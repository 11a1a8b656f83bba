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


class _Direction:
    """One direction of a crossbar as data: its request channel and the
    response channel that answers it — AW and B for writes, AR and R for
    reads.  The write and the read side of the ``axi_xbar`` are the same
    demux / round-robin mux / ID-remap structure, so
    :meth:`AxiCrossbar._arbitrate`, ``_terminate`` and ``_forward`` are
    written once and take one of these (DESIGN.md §5)."""

    __slots__ = ("write", "remap", "inflight", "ptr", "dest", "err", "head",
                 "egress", "req", "occ_req", "occ_resp", "hot",
                 "src", "out", "scan", "dst",
                 "same_id_stall", "mot_stall", "id_stall", "unmapped",
                 "fault_blocked", "decerr", "slverr")

    def __init__(self, prefix: str, n_in: int, n_out: int, id_width: int):
        #: What only writes have — the W order queue, route and lock —
        #: is a block guarded by this inside the shared bodies.
        self.write = prefix == "aw"
        # Per-egress state.
        self.remap = [IdRemapper(id_width) for _ in range(n_out)]
        self.inflight = [0] * n_out
        self.ptr = [0] * n_out  # round-robin grant pointers
        #: Mask of the ingresses requesting each egress — scratch of one
        #: arbitration call, all zero between calls.
        self.req = [0] * n_out
        # Per-ingress state.
        self.dest: list[dict[int, list]] = [dict() for _ in range(n_in)]
        #: Error responses owed: [oid, beats_left, resp] (one B answers
        #: a whole burst).
        self.err: list[deque] = [deque() for _ in range(n_in)]
        #: Decode-once memo: the request head beat of each ingress and
        #: the egress the route function gave it, so a head that waits
        #: is routed once, not once per cycle.  Dropped when the head is
        #: popped and by :meth:`AxiCrossbar.routes_changed`.
        self.head: list[AddrBeat | None] = [None] * n_in
        self.egress = [ERROR_PORT] * n_in
        # Shared occupancy cells (DESIGN.md §2).  Requests: a bitmask,
        # bit i set while ingress i's FIFO is non-empty, which is where
        # address arbitration starts.  Responses: the count of non-empty
        # egress FIFOs.
        self.occ_req = [0]
        self.occ_resp = [0]
        #: Scan-start hint: when exactly one response source is occupied
        #: (the common case) the rotation is irrelevant to arbitration,
        #: so the scan starts at the last known occupied port.
        self.hot = 0
        self.same_id_stall = f"{prefix}_same_id_stall"
        self.mot_stall = f"{prefix}_mot_stall"
        self.id_stall = f"{prefix}_id_stall"
        self.unmapped = f"{prefix}_unmapped"
        self.fault_blocked = f"{prefix}_fault_blocked"
        self.decerr = "decerr_b" if self.write else "decerr_r"
        self.slverr = "slverr_b" if self.write else "slverr_r"

    def wire(self, ins: list, outs: list) -> None:
        """Prebuild what the per-beat loops index, from each ingress's
        and each egress's (request FIFO, response FIFO) pair — None
        where the port is unconnected."""
        #: Request FIFOs by ingress and by egress.
        self.src = [p[0] if p is not None else None for p in ins]
        self.out = [p[0] if p is not None else None for p in outs]
        #: Response sources: (egress, fifo, its deque, remapper, remap
        #: table).
        self.scan = [(j, p[1], p[1]._q, self.remap[j], self.remap[j]._table)
                     for j, p in enumerate(outs) if p is not None]
        #: Response FIFOs by ingress.
        self.dst = [p[1] if p is not None else None for p in ins]


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

        #: The write (AW/B) and the read (AR/R) direction.
        self._wr = _Direction("aw", n_in, n_out, id_width)
        self._rd = _Direction("ar", n_in, n_out, id_width)

        # The W channel: what only the write direction has.
        self._w_order: list[deque] = [deque() for _ in range(n_out)]  # [in, beats_left]
        #: Egresses whose _w_order is non-empty (unordered; W-mux
        #: conflicts are impossible across egresses, see step()).
        self._w_busy: list[int] = []
        self._w_route: list[deque] = [deque() for _ in range(n_in)]  # [out, oid]
        #: Bitmask of the ingresses whose _w_route is non-empty: their AW
        #: heads wait for the W data of the burst already granted.
        self._w_locked = 0
        #: Non-empty W FIFOs (a count, like the response cells).
        self._occ_w = [0]
        #: Error-bound write bursts awaiting their W data sink.
        self._err_w = 0
        #: Queued error responses over both directions; with _w_busy
        #: and _err_w it makes the dead-path guards and quiet() O(1).
        self._err_pending = 0
        #: The last AR arbitration, if it was futile — every non-empty
        #: ingress filed, every requested egress FIFO-full or MOT-full:
        #: (ingress mask, [(ingress deque, its head entry)], [(egress,
        #: egress deque, capacity)]).  While it still describes the
        #: crossbar, step() replays the call's outcome instead of making
        #: it (DESIGN.md §5); None otherwise.
        self._ar_memo: tuple | None = None
        #: Open R trains through this crossbar (``noc/trains.py``):
        #: ingress -> (egress, train).  A read from that ingress toward
        #: another egress cuts the train, see :meth:`_cut_r_train`.
        self._r_trains: dict[int, tuple] = {}

        #: Egresses currently killed by fault injection (DESIGN.md §10):
        #: requests decoding to one are terminated with SLVERR through
        #: the error path.  None (the default) is the fault-free fast
        #: path; only the fault controller writes this.
        self._fault_blocked: frozenset[int] | None = None

        #: Connected ingress ports; None until the hot-path caches are
        #: (re)built after a wiring change.
        self._in_ports: list[int] | None = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect_in(self, port: int, link: AxiLink) -> AxiLink:
        """Attach ``link`` as request-ingress ``port`` (we are its slave)."""
        if self.in_links[port] is not None:
            raise ValueError(f"{self.name}: in port {port} already connected")
        self.in_links[port] = link
        link.watch_requests(self)
        link.aw.track_occupancy(self._wr.occ_req, 1 << port)
        link.w.track_occupancy(self._occ_w)
        link.ar.track_occupancy(self._rd.occ_req, 1 << port)
        self._in_ports = None
        return link

    def connect_out(self, port: int, link: AxiLink) -> AxiLink:
        """Attach ``link`` as request-egress ``port`` (we are its master)."""
        if self.out_links[port] is not None:
            raise ValueError(f"{self.name}: out port {port} already connected")
        self.out_links[port] = link
        link.watch_responses(self)
        link.b.track_occupancy(self._wr.occ_resp)
        link.r.track_occupancy(self._rd.occ_resp)
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
        self._wr.head = [None] * self.n_in
        self._rd.head = [None] * self.n_in
        self._ar_memo = None
        self.wake()

    def _refresh_port_lists(self) -> None:
        ins, outs = self.in_links, self.out_links
        self._in_ports = [i for i, l in enumerate(ins) if l is not None]
        self._wr.wire([(l.aw, l.b) if l is not None else None for l in ins],
                      [(l.aw, l.b) if l is not None else None for l in outs])
        self._rd.wire([(l.ar, l.r) if l is not None else None for l in ins],
                      [(l.ar, l.r) if l is not None else None for l in outs])
        # W FIFOs by ingress and by egress (None: unconnected).
        self._w_src = [l.w if l is not None else None for l in ins]
        self._w_dst = [l.w if l is not None else None for l in outs]

    def idle(self) -> bool:
        """True when no transaction state is held inside this crossbar."""
        return not (any(self._w_order) or any(self._w_route)
                    or any(any(d.err) or any(r.in_flight() for r in d.remap)
                           for d in (self._wr, self._rd)))

    def quiet(self) -> bool:
        """Activity contract: stepping can do no work — no beat on any
        watched channel and no queued error response.

        This is *not* "no transaction in flight" (that is :meth:`idle`):
        a transaction whose beats are currently parked in downstream
        links or at an endpoint keeps state in the remap tables, but the
        XP has nothing to do for it until a response beat lands on a
        watched FIFO — which wakes it.
        """
        wr, rd = self._wr, self._rd
        return not (wr.occ_req[0] or self._occ_w[0] or rd.occ_req[0]
                    or wr.occ_resp[0] or rd.occ_resp[0]
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
    # The bodies below read TimedFifo internals (``_q`` holds
    # ``(ready_at, item)`` pairs) instead of calling peek()/can_push():
    # a 4×4 mesh makes ~1.5 M channel probes per 4 k cycles, most of
    # which move nothing.  A beat that moves goes through pop()/push()
    # (DESIGN.md §7).  Every sub-phase of step() is gated by an
    # occupancy cell (a channel class with no beat anywhere costs
    # nothing).  Used-ingress tracking is a bitmask (one grant per
    # ingress per channel per cycle).
    def step(self, now: int) -> bool:
        if self._in_ports is None:  # wiring changed
            self._refresh_port_lists()
        wr = self._wr
        rd = self._rd
        # -- forward B and R responses (egress -> ingress) --------------
        poll = False  # a head not yet visible: nothing will wake us for it
        b_used = r_used = 0
        if wr.occ_resp[0]:
            b_used, poll = self._forward(now, wr)
        if rd.occ_resp[0]:
            r_used, unseen = self._forward(now, rd)
            if unseen:
                poll = True
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
                src = w_src[i]
                q = src._q
                if q:
                    head = q[0]
                    if head[0] > now:
                        poll = True
                    else:
                        beat = head[1]
                        dst = self._w_dst[j]
                        if len(dst._q) < dst.capacity:
                            src.pop(now)
                            dst.push(beat, now)
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
        # forwarding, see _arbitrate) is not a request; the W move that
        # releases the lock is ours and ran above.
        mask = wr.occ_req[0] & ~self._w_locked
        if mask and self._arbitrate(now, mask, wr):
            poll = True
        mask = rd.occ_req[0]
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
                            if mot is None or rd.inflight[j] < mot:
                                stalls = -1  # an egress has opened
                                break
                            stalls += 1
            if stalls < 0:
                if self._arbitrate(now, mask, rd):
                    poll = True
            elif stalls:
                self.counters.bump(rd.mot_stall, stalls)
                poll = True
        # Report post-step state inline (see Component.step): quiet with
        # nothing on any channel; BLOCKED when beats remain but this step
        # moved none, every head it could serve is visible, and what
        # holds each is a full FIFO we produce into (its pop wakes us) or
        # our own W lock (released only by a W move of ours).  Error
        # paths and counted stalls keep polling.
        if b_used or r_used or w_used or poll or self._err_pending:
            return False  # (a step that emptied us retires on the next)
        if self.quiet():
            return True
        return False if self._err_w else BLOCKED

    def _forward(self, now: int, d: _Direction) -> tuple[int, bool]:
        """Move at most one response beat of direction ``d`` to each
        ingress, visiting the occupied egress FIFOs round-robin: look the
        beat's id up in the egress's remap table, restore the original
        id, and on the burst's ``last`` beat (every B is one) release the
        remap entry.  Returns the mask of ingresses served and whether a
        head was not yet visible.

        Called only while ``d.occ_resp[0]`` is non-zero.  The rotation
        derives from ``now`` so arbitration is a pure function of the
        cycle number, whatever cycles the kernel skipped."""
        unseen = False
        used = 0
        remaining = d.occ_resp[0]  # non-empty sources left to visit
        scan = d.scan
        n = len(scan)
        if remaining == 1:
            idx = d.hot  # (in range: ports are only ever added)
        else:
            idx = now % n
        for _ in range(n):
            pos = idx
            j, src, q, remap, table = scan[idx]
            idx += 1
            if idx == n:
                idx = 0
            if not q:
                continue
            remaining -= 1
            d.hot = pos
            head = q[0]
            if head[0] > now:
                unseen = True
            else:
                beat = head[1]
                entry = table[beat.id]
                i = entry[0]
                if not (used >> i) & 1:
                    dst = d.dst[i]
                    if len(dst._q) < dst.capacity:
                        oid = entry[1]
                        src.pop(now)
                        if beat.last:
                            remap.release(beat.id)
                            d.inflight[j] -= 1
                            _retire_dest(d.dest[i], oid, j)
                        # Beats are immutable: reuse when the ID maps
                        # to itself instead of allocating a copy.
                        dst.push(beat if oid == beat.id
                                 else beat.with_id(oid), now)
                        used |= 1 << i
            if not remaining:
                break
        return used, unseen

    def _error_responses(self, now: int, b_used: int, r_used: int) -> None:
        """Send one owed error beat per direction to each ingress this
        step has not served: a B, or the next zero-byte R beat."""
        for d, used in ((self._wr, b_used), (self._rd, r_used)):
            for i in self._in_ports:
                queue = d.err[i]
                fifo = d.dst[i]
                if (used >> i) & 1 or not queue or not fifo.can_push():
                    continue
                entry = queue[0]
                entry[1] -= 1
                last = entry[1] == 0
                oid, _, resp = entry
                fifo.push(BBeat(oid, resp) if d.write
                          else RBeat(oid, last, 0, resp), now)
                if last:
                    queue.popleft()
                    self._err_pending -= 1
                    _retire_dest(d.dest[i], oid, ERROR_PORT)
                    self.counters.bump(d.decerr if resp is Resp.DECERR
                                       else d.slverr)

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
                self._wr.err[i].append([entry[1], 1, entry[2]])
                self._err_pending += 1

    # -- address channels ------------------------------------------------
    def _decode(self, beat: AddrBeat, i: int) -> int:
        j = self.route(beat, i)
        if j is None or j == ERROR_PORT:
            return ERROR_PORT
        if not 0 <= j < self.n_out or self.out_links[j] is None:
            raise ConnectivityError(
                f"{self.name}: route sent {beat!r} to nonexistent egress {j}")
        if self._allowed is not None and (i, j) not in self._allowed:
            raise ConnectivityError(
                f"{self.name}: route used disallowed turn {i}->{j} for {beat!r}")
        return j

    def _arbitrate(self, now: int, mask: int, d: _Direction) -> bool:
        """Grant at most one request of direction ``d`` per egress among
        the ingresses in ``mask``: those with a non-empty AW FIFO and no
        W lock, or those with a non-empty AR FIFO.

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

        Many-to-one reads make most AR calls futile: pass 1 files every
        ingress and pass 2 finds every requested egress FIFO-full or
        MOT-full.  Such a call leaves ``_ar_memo`` behind, and
        :meth:`step` replays its outcome without calling again until an
        ingress, a head or an egress has changed.  AW needs none: the
        ``_w_locked`` mask already keeps its futile calls away.

        Returns True when the crossbar must step again next cycle
        whatever its neighbours do — it granted or terminated a request,
        a head is not yet visible, an error path is pending, or a
        per-cycle stall counter ran — and False when every head is held
        by a full egress FIFO."""
        occupied = mask
        busy = False
        write = d.write
        heads = d.head
        egress = d.egress
        req = d.req
        src = d.src
        blocked = self._fault_blocked
        bump = self.counters.bump
        mot = self.max_outstanding
        wanted = 0  # egresses with a request filed
        while mask:
            bit = mask & -mask
            mask ^= bit
            i = bit.bit_length() - 1
            head = src[i]._q[0]
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
                self._terminate(now, i, beat, j, d)
                continue
            dest = d.dest[i].get(beat.id)
            if dest is not None and dest[0] != j:
                bump(d.same_id_stall)
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
            out = d.out[j]
            if len(out._q) >= out.capacity:
                continue  # back-pressure: the pop that frees it wakes us
            busy = True
            if write:
                order = self._w_order[j]
                if len(order) >= self.w_order_depth:
                    bump("aw_order_full")
                    continue
            if mot is not None and d.inflight[j] >= mot:
                bump(d.mot_stall)
                continue
            futile = False
            i = self._pick_mask(mask, d.ptr[j])
            beat = heads[i]
            rid = d.remap[j].acquire(i, beat.id)
            if rid is None:
                bump(d.id_stall)
                continue
            src[i].pop(now)
            heads[i] = None
            out.push(beat.with_id(rid), now)
            d.inflight[j] += 1
            _bump_dest(d.dest[i], beat.id, j)
            if write:
                self._w_route[i].append([j, None])
                self._w_locked |= 1 << i
                if not order:
                    self._w_busy.append(j)
                order.append([i, beat.beats])
            elif self._r_trains:
                self._cut_r_train(now, i, j)
            d.ptr[j] = i + 1 if i + 1 < self.n_in else 0
        if not write:
            self._ar_memo = self._remember_ar(occupied) if futile else None
        return busy

    def _remember_ar(self, mask: int) -> tuple:
        """The memo of a futile AR arbitration over the ingresses in
        ``mask`` (see ``_ar_memo``).  It need not hold what cannot change
        under it: a filed head leaves only by a grant, the same-ID rule
        can only start to bind at one, and :meth:`routes_changed` /
        :meth:`set_fault_blocked` drop the memo."""
        rd = self._rd
        ingresses = [i for i in range(self.n_in) if mask >> i & 1]
        src = [rd.src[i]._q for i in ingresses]
        outs = {rd.egress[i] for i in ingresses}
        return (mask, [(q, q[0]) for q in src],
                [(j, rd.out[j]._q, rd.out[j].capacity) for j in outs])

    def _terminate(self, now: int, i: int, beat: AddrBeat, j: int,
                   d: _Direction) -> None:
        """Consume ingress ``i``'s request head into the error path,
        same-ID order and error-queue space permitting: it decoded to no
        egress (``j`` is ERROR_PORT: DECERR) or to a fault-killed one
        (fail fast with SLVERR)."""
        dest = d.dest[i].get(beat.id)
        if dest is not None and dest[0] != ERROR_PORT:
            return  # same-ID ordering across destinations
        if len(d.err[i]) >= self.err_depth:
            return
        resp = Resp.DECERR if j == ERROR_PORT else Resp.SLVERR
        d.src[i].pop(now)
        d.head[i] = None
        _bump_dest(d.dest[i], beat.id, ERROR_PORT)
        if d.write:
            # The B is owed once the burst's W data has been sunk
            # (_sink_error_w); _w_route[i] is empty, or the W lock would
            # have kept this head out of the mask.
            self._w_route[i].append([ERROR_PORT, beat.id, resp])
            self._w_locked |= 1 << i
            self._err_w += 1
        else:
            d.err[i].append([beat.id, beat.beats, resp])
            self._err_pending += 1
            if self._r_trains:
                self._cut_r_train(now, i, ERROR_PORT)
        self.counters.bump(d.unmapped if resp is Resp.DECERR
                           else d.fault_blocked)

    def _cut_r_train(self, now: int, i: int, j: int) -> None:
        """A read from ingress ``i`` has just started toward egress ``j``
        (ERROR_PORT: terminated here).  If an R train holds the ingress
        through another egress, its response could compete with the
        train's beats for the ingress — at this crossbar's step of the
        next cycle at the earliest, an error beat — so the train ends
        this cycle, at its memory's step (DESIGN.md §7)."""
        held = self._r_trains.get(i)
        if held is not None and held[0] != j:
            held[1].cut(now)

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
