"""Fault controller for the PATRONoC (AXI) backend.

One :class:`FaultController` per network applies the run's
:class:`~repro.faults.runtime.FaultTimeline` to the wired fabric:

* **dead links / ports** (width factor 0) — the egress is added to the
  owning crosspoint's fault-blocked set; new AW/AR requests that decode
  to it are terminated with SLVERR at the ingress (fail-fast admission
  control).  Transactions already granted into the dead egress complete
  normally, and responses still flow back over it — a deliberate
  simplification that keeps the AXI ordering machinery intact
  (DESIGN.md §10).
* **degraded links** (0 < factor < 1) — on the cycles the pure pass
  function :func:`~repro.faults.runtime.degraded_pass` denies, the
  controller rewrites the link's visible channel heads one cycle into
  the future, so beats cross only on a ``factor`` fraction of cycles.

The controller must be registered with the simulator *before* the
crosspoints so a head stalled at cycle ``t`` is stalled before any
consumer could pop it at ``t`` — in both kernel modes.  It honours the
activity contract: with no degraded link active it sleeps until the
timeline's next event; while one is active it steps every cycle (the
stall decision changes per cycle).  It is ``drain_transparent``: pending
*future* fault events never hold a drain open (beats actually stalled in
a link keep their consumer awake, which does).
"""

from __future__ import annotations

from collections import deque

from repro.axi.link import AxiLink
from repro.axi.xbar import _retire_dest
from repro.faults.runtime import (FaultStats, FaultTimeline, PortFaults,
                                  degraded_pass)
from repro.noc.topology import MESH_PORTS
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
        self._port_faults = PortFaults(link_ports, stats)
        #: Effective degraded links: key -> (link, factor).
        self._deg_map: dict[tuple[int, int], tuple[AxiLink, float]] = {}
        self._degraded: list[tuple[AxiLink, float]] = []
        self._blocked: dict[int, set[int]] = {}
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
        return (not self._degraded
                and not (self._resp_dead and self._resp_pending()))

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
        busy = False
        if self._resp_dead:
            self._drop_responses(now)
            busy = self._resp_pending()
        degraded = self._degraded
        if degraded:
            for link, factor in degraded:
                if not degraded_pass(now, factor):
                    link.stall_heads(now)
            return False  # stall decisions change every cycle
        return not busy

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
            i, oid = xp._wr.remap[out].release(rid)
            xp._wr.inflight[out] -= 1
            _retire_dest(xp._wr.dest[i], oid, out)
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
            hops.append((xp, out, rid, i, oid))
            link = xp.in_links[i]
            rid = oid
        if hops:
            self._deferred.append((now + self._grace, hops))
        self.stats.response_drops += 1

    def _expire_releases(self, now: int) -> None:
        dq = self._deferred
        while dq and dq[0][0] <= now:
            _, hops = dq.popleft()
            for xp, out, rid, i, oid in hops:
                xp._rd.remap[out].release(rid)
                xp._rd.inflight[out] -= 1
                _retire_dest(xp._rd.dest[i], oid, out)

    # -- event application ---------------------------------------------
    def _apply(self, events: list[tuple]) -> None:
        for key in sorted({self._port_faults.apply(ev) for ev in events}):
            self._refresh(key)
        if self._routers is not None:
            self._retable()

    def _retable(self) -> None:
        """Recompute and install the up*/down* fault tables when the
        mesh-level liveness picture changed (reroute mode only): one
        :func:`~repro.noc.reroute.compute_fault_tables` call per change."""
        from repro.noc.reroute import compute_fault_tables

        dead = set()
        degraded = {}
        for key, width in self._port_faults.unhealthy():
            if key[1] >= MESH_PORTS:
                continue  # local-port faults don't reshape the mesh
            if width == 0.0:
                dead.add(key)
            else:
                degraded[key] = width
        sig = (frozenset(dead), tuple(sorted(degraded.items())))
        if sig == self._table_sig:
            return
        self._table_sig = sig
        if not dead and not degraded:
            for router in self._routers.values():
                router.fault_table = None
        else:
            tables = compute_fault_tables(self._topology, dead, degraded,
                                          self._dest_nodes)
            self.stats.retables += 1
            self.stats.dijkstra_sources += len(tables)
            for node, router in self._routers.items():
                router.fault_table = tables[node]
        # Heads decoded under the old tables re-route (and crosspoints
        # asleep behind a full egress wake to do it).
        for xp in self._xps:
            xp.routes_changed()

    def _refresh(self, key: tuple[int, int]) -> None:
        node, port = key
        width = self._port_faults.width(key)
        dead = width == 0.0
        blocked = self._blocked.setdefault(node, set())
        if dead != (port in blocked):
            if dead:
                blocked.add(port)
            else:
                blocked.discard(port)
            self._xps[node].set_fault_blocked(
                frozenset(blocked) if blocked else None)
        link = self._link_by_key.get(key)
        if link is not None:
            if width:  # degraded: 0 < width < 1
                self._deg_map[key] = (link, width)
            else:
                self._deg_map.pop(key, None)
            self._degraded = list(self._deg_map.values())
            if self._response and port < MESH_PORTS:
                if dead:
                    self._resp_dead[key] = link
                else:
                    self._resp_dead.pop(key, None)
