"""Fault controller for the PATRONoC (AXI) backend.

One :class:`FaultController` per network applies the run's
:class:`~repro.faults.runtime.FaultTimeline` to the wired fabric:

* **dead links** — the egress is added to the owning
  crosspoint's fault-blocked set; new AW/AR requests that decode to it
  are terminated with SLVERR at the ingress (fail-fast admission
  control).  Transactions already granted into the dead egress complete
  normally, and responses still flow back over it — a deliberate
  simplification that keeps the AXI ordering machinery intact
  (DESIGN.md §10) — unless ``response_faults`` drops them.

The controller must be registered with the simulator *before* the
crosspoints so a response beat dropped at cycle ``t`` is gone before any
consumer could pop it at ``t`` — in both kernel modes.  It is a pure
event component: it sleeps until the timeline's next event (or a
deferred release), and steps on only while a response drop is pending.
It is ``drain_transparent``: pending *future* fault events never hold a
drain open.
"""

from __future__ import annotations

from collections import deque

from repro.axi.link import AxiLink
from repro.faults.runtime import DeadLinks, FaultStats, FaultTimeline
from repro.sim.kernel import Component


class FaultController(Component):
    """Applies fault events to crosspoints and links (one per network)."""

    drain_transparent = True

    def __init__(self, name: str, timeline: FaultTimeline, stats: FaultStats,
                 xps: list, link_ports: list[tuple[int, int]],
                 links: list[AxiLink], topology=None, routers=None,
                 dest_nodes=None, response_faults: bool = False,
                 release_grace: int = 4096):
        self.name = name
        self._timeline = timeline
        self.stats = stats
        self._xps = xps
        self._links = links
        self._link_by_key = {key: links[i]
                             for i, key in enumerate(link_ports)}
        self._dead = DeadLinks(link_ports, stats)
        #: Response-path fault loop (DESIGN.md §10): while armed, B/R
        #: beats on dead mesh links are dropped — the issuing DMA's
        #: txn_timeout watchdog owns recovery.
        self._response = response_faults
        self._grace = release_grace
        self._resp_dead: dict[tuple[int, int], AxiLink] = {}
        self._owner_by_link = {id(links[i]): key
                               for i, key in enumerate(link_ports)}
        #: Killed read bursts whose remap chain is released only after a
        #: grace window (stragglers may still be in flight): (expiry,
        #: [(xp, out, rid, in_port, oid), ...]), expiries monotone.
        self._deferred: deque[tuple[int, list]] = deque()
        #: Reroute mode (recovery="reroute"): recompute up*/down* tables
        #: on every mesh-liveness change and install them on the
        #: ComputedRouters.  None = reroute disabled.
        self._topology = topology
        self._routers = routers
        self._dest_nodes = dest_nodes
        self._table_sig = None
        if routers is not None:
            for router in routers.values():
                router.fault_stats = stats

    # -- activity contract ---------------------------------------------
    def quiet(self) -> bool:
        return not (self._resp_dead and self._resp_pending())

    def next_event(self, now: int) -> int | None:
        wake = self._timeline.peek()
        if self._deferred:
            due = self._deferred[0][0]
            if wake is None or due < wake:
                wake = due
        return wake

    def step(self, now: int) -> bool:
        tl = self._timeline
        nxt = tl.peek()
        if nxt is not None and nxt <= now:
            self._apply(tl.pop_due(now))
        if self._deferred and self._deferred[0][0] <= now:
            self._expire_releases(now)
        if self._resp_dead:
            self._drop_responses(now)
            return not self._resp_pending()
        return True

    # -- response-path drops (response_faults) --------------------------
    def _resp_pending(self) -> bool:
        """True while a response beat may still appear on (or sit in) a
        dead mesh link: its master egress has transactions in flight.
        Fail-fast admission control stops the count from growing while
        the egress is dead, so this goes — and stays — False once the
        orphans drain, letting the drain terminate under either
        scheduler."""
        for node, port in self._resp_dead:
            xp = self._xps[node]
            if xp._wr.inflight[port] or xp._rd.inflight[port]:
                return True
        return False

    def _drop_responses(self, now: int) -> None:
        """Drop every visible B/R head on dead mesh links.  Runs before
        any crosspoint steps (the controller registers first), so a
        consumer never sees a beat the fault already claimed.  The pops
        wake a crosspoint asleep behind the full channel (the FIFO's
        ``producer``), this same cycle."""
        for link in self._resp_dead.values():
            dropped = False
            b = link.b
            beat = b.peek(now)
            while beat is not None:
                b.pop(now)
                dropped = True
                self._kill_write(link, beat.id)
                beat = b.peek(now)
            r = link.r
            beat = r.peek(now)
            while beat is not None:
                r.pop(now)
                dropped = True
                if beat.last:
                    self._kill_read(link, beat.id, now)
                beat = r.peek(now)
            # The beats' consumer may be asleep BLOCKED on exactly the
            # heads that just vanished: let it re-report its state.
            if dropped and b.consumer is not None:
                b.consumer.wake()

    def _kill_write(self, link, rid: int) -> None:
        """Release the remap chain of a write burst whose (single) B beat
        was just dropped.  B responses release per beat, so the chain
        holds exactly one reference per hop and nothing of this burst
        remains in flight — the release is safe immediately."""
        while True:
            key = self._owner_by_link.get(id(link))
            if key is None:
                break  # endpoint link: the DMA watchdog owns recovery
            node, out = key
            xp = self._xps[node]
            i, oid = xp._wr.retire(out, rid)
            link = xp.in_links[i]
            rid = oid
        self.stats.response_drops += 1

    def _kill_read(self, link, rid: int, now: int) -> None:
        """Schedule the remap-chain release for a read burst whose last
        R beat was just dropped.  Earlier beats of the burst may still
        be in flight toward the DMA (they passed this link before it
        died); holding every hop's id through a grace window keeps them
        unambiguous — an id is never recycled under a straggler."""
        hops = []
        while True:
            key = self._owner_by_link.get(id(link))
            if key is None:
                break
            node, out = key
            xp = self._xps[node]
            entry = xp._rd.remap[out]._table[rid]
            i, oid = entry[0], entry[1]
            hops.append((xp, out, rid))
            link = xp.in_links[i]
            rid = oid
        if hops:
            self._deferred.append((now + self._grace, hops))
        self.stats.response_drops += 1

    def _expire_releases(self, now: int) -> None:
        dq = self._deferred
        while dq and dq[0][0] <= now:
            _, hops = dq.popleft()
            for xp, out, rid in hops:
                xp._rd.retire(out, rid)

    # -- event application ---------------------------------------------
    def _apply(self, events: list[tuple]) -> None:
        dead = self._dead
        flipped = dead.apply(events)
        for node in sorted({node for node, _ in flipped}):
            self._xps[node].set_fault_blocked(dead.ports(node))
        if self._response:
            resp_dead = self._resp_dead
            for key in flipped:
                if resp_dead.pop(key, None) is None:
                    resp_dead[key] = self._link_by_key[key]
        if self._routers is not None:
            self._retable()

    def _retable(self) -> None:
        """Recompute and install the up*/down* fault tables when the
        mesh-level liveness picture changed (reroute mode only): one
        :func:`~repro.noc.reroute.compute_fault_tables` call per change."""
        from repro.noc.reroute import compute_fault_tables

        dead = frozenset(self._dead.unhealthy())
        if dead == self._table_sig:
            return
        self._table_sig = dead
        if not dead:
            for router in self._routers.values():
                router.fault_table = None
        else:
            tables = compute_fault_tables(self._topology, dead, {},
                                          self._dest_nodes)
            self.stats.retables += 1
            self.stats.dijkstra_sources += len(tables)
            for node, router in self._routers.items():
                router.fault_table = tables[node]
        # Heads decoded under the old tables re-route (and crosspoints
        # asleep behind a full egress wake to do it).
        for xp in self._xps:
            xp.routes_changed()
