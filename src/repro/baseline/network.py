"""The baseline packet-switched mesh (the paper's Noxim stand-in).

A grid of :class:`~repro.baseline.router.Router` objects with XY
dimension-ordered routing, per-node Poisson packet injection, and the
Noxim measurement conventions:

* *injection rate* is offered flits per cycle per node,
* *throughput* is received flits per cycle per node × flit bytes — the
  per-node average convention behind the paper's 1.6/2.25 GiB/s curves
  (DESIGN.md §6 explains the unit analysis); the aggregate convention is
  also reported for transparency.
"""

from __future__ import annotations

import math
from collections import deque

from repro.baseline.flit import Flit, Packet, make_flits
from repro.baseline.router import P_E, P_LOCAL, P_N, P_S, P_W, Router
from repro.faults.runtime import (CorruptionModel, DeadLinks, FaultStats,
                                  FaultTimeline, Recovery, fault_rngs)
from repro.noc.topology import Mesh2D
from repro.sim.kernel import Component, Simulator
from repro.sim.rng import spawn_rngs
from repro.sim.stats import GIB, LatencyStats


class PacketMeshConfig:
    """Baseline NoC parameters (Noxim's knobs used in Fig. 4)."""

    def __init__(self, rows: int = 4, cols: int = 4, n_vcs: int = 1,
                 buf_depth: int = 4, flit_bytes: int = 4,
                 packet_flits: int = 8, freq_hz: float = 1e9):
        if flit_bytes < 1:
            raise ValueError("flit_bytes must be >= 1")
        if packet_flits < 1:
            raise ValueError("packet_flits must be >= 1")
        self.rows = rows
        self.cols = cols
        self.n_vcs = n_vcs
        self.buf_depth = buf_depth
        self.flit_bytes = flit_bytes
        self.packet_flits = packet_flits
        self.freq_hz = freq_hz

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols


class PacketMesh(Component):
    """A runnable baseline mesh with built-in uniform random injection.

    There are exactly two steppers.  ``always_step=True`` is the
    reference oracle: every cycle stepped, one :meth:`Router.step
    <repro.baseline.router.Router.step>` per router.  The default runs
    the production stepper: the activity simulator's quiet-cycle skipping
    over the two-pass request-mask allocator of
    :mod:`repro.baseline.stepper`, bit-identical to the oracle.
    """

    def __init__(self, cfg: PacketMeshConfig, injection_rate: float = 0.0,
                 seed: int | None = None, always_step: bool = False,
                 faults=None, fault_seed: int | None = None):
        if injection_rate < 0:
            raise ValueError("injection rate must be >= 0")
        self.cfg = cfg
        self.topology = Mesh2D(cfg.rows, cfg.cols)
        self.sim = Simulator(cfg.freq_hz, activity=not always_step)
        self.routers = [Router(n, cfg.n_vcs, cfg.buf_depth)
                        for n in range(cfg.n_nodes)]
        self._link_ports: list[tuple[int, int]] = []  # (src, out_port)
        link_index: dict[tuple[int, int], int] = {}
        for src, out_port, dst, in_port in self.topology.directed_links():
            self.routers[src].connect(out_port, self.routers[dst], in_port)
            link_index[(src, dst)] = len(self._link_ports)
            self._link_ports.append((src, out_port))
        self.injection_rate = injection_rate
        self._rngs = spawn_rngs(seed, cfg.n_nodes)
        self._next_arrival = [
            rng.exponential(cfg.packet_flits / injection_rate)
            if injection_rate > 0 else float("inf")
            for rng in self._rngs
        ]
        #: Source queues (packets waiting to start injecting), per node.
        self._source_q: list[deque] = [deque() for _ in range(cfg.n_nodes)]
        #: Flits of the packet currently injecting, per node.
        self._inject_q: list[deque] = [deque() for _ in range(cfg.n_nodes)]
        self._pid = 0
        self.warmup = 0
        self.flits_received = 0
        self.flits_received_measured = 0
        self.packets_received = 0
        self.flits_offered = 0
        #: Payload bytes by packet id, registered by NICs (AXI-bridged mode).
        self._payloads: dict[int, int] = {}
        self.bytes_received = 0
        self.latency = LatencyStats("baseline")
        #: Flits currently buffered inside routers (activity contract).
        self._flits_in_network = 0
        #: Earliest cycle packet generation has work: the min of
        #: ``_next_arrival`` over nodes whose source queue has room.
        self._gen_due = min(self._next_arrival)
        #: The route table: per node ``(xy_egress, hops)``, each a list
        #: by destination; rows are built on first use (:meth:`_row`).
        self._rows: list[tuple[list[int], list[int]] | None] = \
            [None] * cfg.n_nodes
        # -- fault injection (DESIGN.md §10) ---------------------------
        self._faults = faults if faults is not None and faults.active() else None
        self._recovery: Recovery | None = None
        self._timeline: FaultTimeline | None = None
        self._dead_links: DeadLinks | None = None
        self._dead_ports: dict[int, set[int]] = {}
        #: One corruption model per destination node (corrupt_rate > 0).
        self._corruption: list[CorruptionModel] | None = None
        self.packets_dropped = 0
        #: Stuck-VC faults: node -> {fault_id: (in_port, vc)}.
        self._stuck_entries: dict[int, dict[int, tuple[int, int]]] = {}
        if self._faults is not None:
            spec = self._faults
            spec.check("baseline")
            stats = FaultStats()
            self._recovery = Recovery(spec, stats)
            self._dead_links = DeadLinks(self._link_ports, stats)
            rngs = fault_rngs(seed if fault_seed is None else fault_seed, 2)
            self._timeline = FaultTimeline(spec, len(self._link_ports),
                                           rng=rngs[0],
                                           link_index=link_index)
            if spec.corrupt_rate > 0.0:
                # XY hops plus ejection; one stream, packet-creation order.
                n = cfg.n_nodes
                self._corruption = [CorruptionModel(
                    rngs[1], spec.corrupt_rate,
                    {src: self.topology.hop_distance(src, dst) + 1
                     for src in range(n)}, stats) for dst in range(n)]
        self.sim.add(self)
        self._source_cap = 64  # packets queued per node before pausing
        #: The production stepper; None under ``always_step=True``, where
        #: the per-object ``Router.step`` loop is the reference oracle.
        self._stepper = None
        if not always_step:
            from repro.baseline.stepper import MaskStepper

            self._stepper = MaskStepper(self)
        #: Escape-VC adaptive mode (recovery="reroute"): heads get both
        #: productive egresses and the routers keep VC 0 strictly XY
        #: (Router._adaptive_candidate; deadlock-free, DESIGN.md §10).
        self._adaptive_fn = (self._productive_ports
                             if self._faults is not None
                             and self._faults.recovery == "reroute"
                             else None)

    # ------------------------------------------------------------------
    def _row(self, node: int) -> tuple[list[int], list[int]]:
        """``node``'s row of the route table, by destination: Noxim's
        default XY egress (resolve X first, then Y; P_LOCAL at ``node``
        itself) and the hop distance."""
        row = self._rows[node]
        if row is None:
            cols = self.cfg.cols
            cx, cy = node % cols, node // cols
            ports: list[int] = []
            hops: list[int] = []
            for dy in range(self.cfg.rows):
                ports += [P_W] * cx
                ports.append(P_N if dy < cy else P_S if dy > cy else P_LOCAL)
                ports += [P_E] * (cols - 1 - cx)
                hops += [abs(dx - cx) + abs(dy - cy) for dx in range(cols)]
            row = self._rows[node] = (ports, hops)
        return row

    def _route(self, node: int, dst: int) -> int:
        """Strict-XY egress at ``node`` toward ``dst``."""
        return self._row(node)[0][dst]

    def _productive_ports(self, node: int, dst: int) -> tuple[int, int]:
        """Both minimal egresses toward ``dst``: ``(xy_port, other)``.

        ``xy_port`` is the strict-XY choice (X first); ``other`` is the
        remaining productive dimension, or -1 when only one dimension is
        unresolved.  Flits are never misrouted away from the
        destination, which is what keeps the escape layer's dependency
        graph acyclic (a resolved dimension stays resolved).
        """
        row = self._row(node)[0]
        xy = row[dst]
        if xy != P_E and xy != P_W:
            return xy, -1
        # The Y leg: the route to the node of dst's row in our column.
        cols = self.cfg.cols
        other = row[dst - dst % cols + node % cols]
        return xy, (-1 if other == P_LOCAL else other)

    def inject(self, node: int, vc: int, flit: Flit, now: int) -> None:
        """Deliver a flit into ``node``'s local input port (NIC-driven
        mode).  Keeps the in-network flit count exact and wakes the mesh
        if the activity kernel had put it to sleep."""
        if flit.seq == 0 and self._corruption is not None:
            packet = flit.packet
            packet.corrupt = self._corruption[packet.dst].corrupt(
                packet.src, packet.length)
        self.routers[node].accept(P_LOCAL, vc, flit, now)
        if self._stepper is not None:
            self._stepper.masks[node] |= 1 << (P_LOCAL * self.cfg.n_vcs + vc)
        self._flits_in_network += 1
        self.wake(now + 1)  # flit is visible to allocation next cycle

    def _eject(self, flit: Flit, now: int) -> None:
        self._flits_in_network -= 1
        self.flits_received += 1
        packet = flit.packet
        if now >= self.warmup and not packet.corrupt:
            self.flits_received_measured += 1
        if flit.seq == packet.length - 1:
            self.packets_received += 1
            self.latency.add(now - packet.created)
            nbytes = self._payloads.pop(packet.pid, 0)
            if packet.corrupt:
                # Detected at the receiving endpoint: the payload is
                # never credited and nothing resends it.
                self._recovery.drop()
                return
            self.bytes_received += nbytes

    def _drop(self, flit: Flit, now: int) -> None:
        """Router drop callback (dead-link losses): keep the in-network
        count exact; on the head, count the packet dropped."""
        self._flits_in_network -= 1
        if flit.seq == 0:
            self.packets_dropped += 1
            self._payloads.pop(flit.packet.pid, None)
            self._recovery.drop()

    # ------------------------------------------------------------------
    # Fault-event bookkeeping (folded into the mesh because it already
    # is one component; the AXI side has faults.controller).
    # ------------------------------------------------------------------
    def _apply_fault_events(self, events) -> None:
        touched: set[tuple[int, int]] = set()
        for event in events:
            kind = event[0]
            if kind == "vc":
                _, node, port, vc, fid = event
                self._stuck_entries.setdefault(node, {})[fid] = (port, vc)
                self._recovery.stats.vc_faults += 1
                self._refresh_stuck(node)
            elif kind == "vc_clear":
                _, node, port, vc, fid = event
                self._stuck_entries.get(node, {}).pop(fid, None)
                self._refresh_stuck(node)
            else:
                touched.add(self._dead_links.apply(event))
        for key in sorted(touched):
            self._refresh_fault_port(key)

    def _refresh_stuck(self, node: int) -> None:
        """Recompute one router's stuck-VC slot set from the overlapping
        fault entries (a slot is stuck while any fault pins it)."""
        slots = set((self._stuck_entries.get(node) or {}).values())
        self.routers[node].fault_stuck = frozenset(slots) if slots else None

    def _refresh_fault_port(self, key: tuple[int, int]) -> None:
        """Install one (node, out_port)'s effective state on its router."""
        node, port = key
        dead = self._dead_ports.setdefault(node, set())
        if self._dead_links.dead(key):
            dead.add(port)
        else:
            dead.discard(port)
        self.routers[node].fault_dead = frozenset(dead) if dead else None

    def fault_report(self) -> dict:
        """The ``faults`` section of a Result (empty when inactive)."""
        if self._recovery is None:
            return {}
        stats = self._recovery.stats
        report = stats.as_dict()
        report["packets_dropped"] = self.packets_dropped
        report["flits_dropped"] = sum(r.flits_dropped for r in self.routers)
        report["reroute_decisions"] = (stats.reroute_decisions
                                       + sum(r.reroutes
                                             for r in self.routers))
        return report

    def register_payload(self, pid: int, nbytes: int) -> None:
        """Associate useful payload bytes with a packet (NIC-driven mode)."""
        self._payloads[pid] = nbytes

    def set_warmup(self, cycle: int) -> None:
        self.warmup = cycle

    # ------------------------------------------------------------------
    def quiet(self) -> bool:
        """Quiet iff no flit is buffered anywhere and no packet is queued
        at a source (pending Poisson arrivals sleep via next_event)."""
        if self._flits_in_network:
            return False
        for q in self._inject_q:
            if q:
                return False
        for q in self._source_q:
            if q:
                return False
        return True

    def next_event(self, now: int) -> int | None:
        wake = None
        if self.injection_rate > 0:
            first = min(self._next_arrival)
            if first != float("inf"):
                wake = int(math.ceil(first))
                if wake <= now:
                    wake = now + 1
        tl = self._timeline
        if tl is not None:
            due = tl.peek()
            if due is not None:
                due = max(due, now + 1)
                if wake is None or due < wake:
                    wake = due
        return wake

    def _start_packet(self, node: int) -> None:
        """Move ``node``'s next queued packet into its injection queue.
        The freed source-queue slot re-arms generation if the cap had
        been holding an already-due arrival back."""
        self._inject_q[node].extend(make_flits(self._source_q[node].popleft()))
        if self._next_arrival[node] < self._gen_due:
            self._gen_due = self._next_arrival[node]

    def _generate(self, now: int) -> None:
        """Create the packets due by ``now`` (Poisson per node, uniform
        destinations), in node order, while the source queues have room."""
        cfg = self.cfg
        n_nodes = cfg.n_nodes
        due = float("inf")
        for node, arrival in enumerate(self._next_arrival):
            if arrival <= now:
                rng = self._rngs[node]
                queue = self._source_q[node]
                while arrival <= now and len(queue) < self._source_cap:
                    dst = rng.integers(n_nodes - 1)
                    if dst >= node:
                        dst += 1
                    packet = Packet(node, dst, cfg.packet_flits, now, self._pid)
                    self._pid += 1
                    if self._corruption is not None:
                        packet.corrupt = self._corruption[dst].corrupt(
                            node, cfg.packet_flits)
                    queue.append(packet)
                    self.flits_offered += cfg.packet_flits
                    arrival += rng.exponential(
                        cfg.packet_flits / self.injection_rate)
                self._next_arrival[node] = arrival
                if arrival <= now:
                    continue  # held back by the cap: _start_packet re-arms
            if arrival < due:
                due = arrival
        self._gen_due = due

    def step(self, now: int) -> None:
        # 0. Apply due fault events (next_event folds the timeline in, so
        # the mesh is stepped at every event cycle in both kernel modes).
        tl = self._timeline
        if tl is not None:
            nxt = tl.peek()
            if nxt is not None and nxt <= now:
                self._apply_fault_events(tl.pop_due(now))
        # 1. Generate new packets.
        if self._gen_due <= now:
            self._generate(now)
        eject = self._eject
        drop = self._drop if self._faults is not None else None
        adaptive = self._adaptive_fn
        if self._stepper is not None:
            # 2+3. Production: fused injection and two-pass allocation.
            self._stepper.step(now, eject, drop, adaptive)
            return
        # Reference oracle (always_step=True), one object at a time.
        # 2. Feed injection: one flit per node per cycle into the local port.
        for node, router in enumerate(self.routers):
            inject = self._inject_q[node]
            if not inject and self._source_q[node]:
                self._start_packet(node)
            # VC 0 is the injection VC (Noxim default for sources).
            if inject and router.buffer_space(P_LOCAL, 0) > 0:
                router.accept(P_LOCAL, 0, inject.popleft(), now)
                self._flits_in_network += 1
        # 3. Step every router.
        route = self._route
        for router in self.routers:
            router.step(now, route, eject, drop, adaptive)

    # ------------------------------------------------------------------
    # Noxim-convention metrics
    # ------------------------------------------------------------------
    def throughput_flits_per_cycle_node(self, now: int | None = None) -> float:
        end = self.sim.now if now is None else now
        window = end - self.warmup
        if window <= 0:
            return 0.0
        return self.flits_received_measured / window / self.cfg.n_nodes

    def throughput_gib_s_node(self, now: int | None = None) -> float:
        """Per-node average throughput — the paper's plotted convention."""
        return (self.throughput_flits_per_cycle_node(now)
                * self.cfg.flit_bytes * self.cfg.freq_hz / GIB)

    def throughput_gib_s_aggregate(self, now: int | None = None) -> float:
        """16-node aggregate (for transparency; not what Fig. 4 plots)."""
        return self.throughput_gib_s_node(now) * self.cfg.n_nodes

    def run(self, cycles: int, until=None) -> int:
        return self.sim.run(cycles, until=until)

    def in_flight(self) -> int:
        return (sum(r.occupancy() for r in self.routers)
                + sum(len(q) for q in self._inject_q))
