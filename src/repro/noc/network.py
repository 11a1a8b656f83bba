"""Network builder: tiles + topology + config → a runnable PATRONoC.

This is the top-level integration point (the equivalent of the RTL
generator): it instantiates one XP per node, wires the NESW mesh links,
attaches DMA masters and memory slaves at local ports, generates the
address map and per-XP routing, and registers everything with a
:class:`~repro.sim.kernel.Simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.axi.link import AxiLink
from repro.axi.memory_map import MemoryMap, Region
from repro.axi.xbar import AxiCrossbar
from repro.endpoints.dma import DmaEngine
from repro.endpoints.memory import MemorySlave
from repro.faults.controller import FaultController
from repro.faults.runtime import (CorruptionModel, FaultStats, FaultTimeline,
                                  Recovery, fault_rngs, zombie_grace)
from repro.noc.config import NocConfig
from repro.noc.routing import ComputedRouter, TableRouter, generate_route_tables
from repro.noc.topology import LOCAL_PORT_BASE, Mesh2D
from repro.noc.trains import RTrain, WTrain
from repro.noc.xp import build_crosspoint
from repro.sim.kernel import Simulator
from repro.sim.stats import GIB, CounterSet, LatencyStats, ThroughputMeter

#: Default per-tile address region (16 MiB comfortably holds any DNN tile).
DEFAULT_REGION_BYTES = 16 << 20


@dataclass
class TileSpec:
    """What hangs off one XP local port.

    A compute tile is a DMA master plus an addressable private L1
    (``has_dma=True, has_memory=True``); a memory/IO tile (shared L2) is
    slave-only; a pure traffic injector is master-only.
    """

    node: int
    name: str = ""
    has_dma: bool = True
    has_memory: bool = True
    memory_bytes: int = DEFAULT_REGION_BYTES

    def __post_init__(self) -> None:
        if not self.has_dma and not self.has_memory:
            raise ValueError("a tile must have a DMA, a memory, or both")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")


@dataclass
class _BuiltTile:
    spec: TileSpec
    index: int
    local_port: int
    dma: DmaEngine | None = None
    memory: MemorySlave | None = None
    links: list[AxiLink] = field(default_factory=list)


def default_tiles(cfg: NocConfig) -> list[TileSpec]:
    """One compute tile (DMA + private L1) per node — the §IV default of
    "Number of AXI Masters/Slaves: N×M"."""
    return [TileSpec(node=n, name=f"tile{n}") for n in range(cfg.n_nodes)]


class NocNetwork:
    """A fully wired PATRONoC instance ready to simulate.

    Parameters
    ----------
    cfg:
        The Table I configuration point.
    tiles:
        Endpoint placement; defaults to one compute tile per node.
        Multiple tiles may share a node (each gets its own local port),
        which is how the synthetic patterns attach a shared L2 next to a
        compute tile.
    topology:
        Defaults to ``Mesh2D(cfg.rows, cfg.cols)``; pass a
        :class:`~repro.noc.topology.Torus2D` or ring to build the other
        regular topologies from the same blocks.
    routing:
        "computed" (default) or "table" (per-hop address decode from the
        generated routing tables, §II).  The two are behaviourally
        equivalent: the address map is one contiguous region per
        memory-bearing tile, which both express exactly.
    scoreboard:
        Optional :class:`~repro.endpoints.scoreboard.Scoreboard` shared
        by all memories (integrity tests).
    always_step:
        Step every component every cycle (the reference oracle) instead
        of scheduling the same ``step()`` bodies by activity
        (DESIGN.md §2).  Results are identical; the golden-equivalence
        tests rely on this switch.  The oracle is strictly per beat;
        the activity scheduler also skips *predictable* cycles: a
        burst whose W or R data streams over a path it owns is frozen
        as a train and charged arithmetically (``noc/trains.py``,
        DESIGN.md §7) — W bursts on armed networks too, R bursts only
        where no fault is armed.
    faults / fault_seed:
        Optional :class:`~repro.faults.FaultSpec` and the seed its
        deterministic fault events derive from (DESIGN.md §10).  An
        inactive (or None) spec leaves the network bit-identical to a
        fault-free build; ``fault_seed`` defaults to the shared
        :data:`~repro.sim.rng.DEFAULT_SEED` root when None.
    """

    def __init__(self, cfg: NocConfig, tiles: list[TileSpec] | None = None,
                 topology: Mesh2D | None = None, routing: str = "computed",
                 scoreboard=None, always_step: bool = False,
                 faults=None, fault_seed: int | None = None):
        if routing not in ("computed", "table"):
            raise ValueError(f"routing must be 'computed' or 'table', got {routing!r}")
        self.cfg = cfg
        self.topology = topology if topology is not None else Mesh2D(cfg.rows, cfg.cols)
        if self.topology.n_nodes != cfg.n_nodes:
            raise ValueError(
                f"topology has {self.topology.n_nodes} nodes but config "
                f"says {cfg.n_nodes}")
        specs = tiles if tiles is not None else default_tiles(cfg)
        for spec in specs:
            if not 0 <= spec.node < self.topology.n_nodes:
                raise ValueError(f"tile node {spec.node} outside topology")
        self.sim = Simulator(cfg.freq_hz, activity=not always_step)
        self.counters = CounterSet()
        self.warmup = 0
        self.links: list[AxiLink] = []

        # -- address map and endpoint placement --------------------------
        regions: list[Region] = []
        base = 0
        endpoint_nodes: dict[int, int] = {}
        for index, spec in enumerate(specs):
            if spec.has_memory:
                regions.append(Region(base, spec.memory_bytes, index))
                base += spec.memory_bytes
                endpoint_nodes[index] = spec.node
        if not regions:
            raise ValueError("network needs at least one memory endpoint")
        self.memory_map = MemoryMap(regions)

        # -- local port assignment ---------------------------------------
        local_ports: dict[int, int] = {}
        ports_used: dict[int, int] = {}
        for index, spec in enumerate(specs):
            k = ports_used.get(spec.node, 0)
            local_ports[index] = LOCAL_PORT_BASE + k
            ports_used[spec.node] = k + 1
        self._endpoint_nodes = endpoint_nodes
        self._local_ports = local_ports

        # -- crosspoints ---------------------------------------------------
        if routing == "table":
            mem_local_ports = {ep: local_ports[ep] for ep in endpoint_nodes}
            tables = generate_route_tables(
                self.topology, self.memory_map, endpoint_nodes, mem_local_ports)
            routers = {n: TableRouter(tables[n]) for n in range(self.topology.n_nodes)}
            self.route_tables = tables
        else:
            mem_local_ports = {ep: local_ports[ep] for ep in endpoint_nodes}
            routers = {
                n: ComputedRouter(n, self.topology, endpoint_nodes, mem_local_ports)
                for n in range(self.topology.n_nodes)
            }
            self.route_tables = None
        reroute = (faults is not None and faults.active()
                   and faults.recovery == "reroute")
        if reroute and routing == "table":
            raise ValueError(
                "recovery='reroute' needs routing='computed': the per-hop "
                "address tables are frozen at build time and cannot swap "
                "to the up*/down* fault tables")
        self.xps: list[AxiCrossbar] = []
        for node in range(self.topology.n_nodes):
            xp = build_crosspoint(
                f"xp{node}", node, self.topology, cfg,
                n_local_ports=ports_used.get(node, 0),
                route=routers[node], counters=self.counters,
                force_full=reroute)
            self.xps.append(xp)

        # -- mesh links ------------------------------------------------------
        self._mesh_links: list[AxiLink] = []
        self._mesh_link_ports: list[tuple[int, int]] = []  # (src, out_port)
        self._mesh_link_index: dict[tuple[int, int], int] = {}  # (src, dst)
        for src, out_port, dst, in_port in self.topology.directed_links():
            # capacity = latency + 1 keeps full throughput regardless of
            # component step order (see TimedFifo docs).
            link = AxiLink(f"xp{src}->xp{dst}", latency=cfg.hop_latency,
                           capacity=cfg.hop_latency + 1)
            self.xps[src].connect_out(out_port, link)
            self.xps[dst].connect_in(in_port, link)
            self._mesh_link_index[(src, dst)] = len(self._mesh_links)
            self._mesh_link_ports.append((src, out_port))
            self._mesh_links.append(link)
            self.links.append(link)

        # -- endpoints -------------------------------------------------------
        self.tiles: list[_BuiltTile] = []
        self.dmas: list[DmaEngine | None] = []
        self.memories: list[MemorySlave | None] = []
        for index, spec in enumerate(specs):
            built = _BuiltTile(spec=spec, index=index,
                               local_port=local_ports[index])
            name = spec.name or f"tile{index}"
            if spec.has_dma:
                link = AxiLink(f"{name}.dma->xp{spec.node}")
                self.xps[spec.node].connect_in(built.local_port, link)
                built.dma = DmaEngine(
                    f"{name}.dma", index, link,
                    beat_bytes=cfg.beat_bytes, id_width=cfg.id_width,
                    max_outstanding=cfg.max_outstanding,
                    issue_overhead=cfg.dma_issue_overhead,
                    memory_map=self.memory_map,
                    read_meter=ThroughputMeter(name=f"{name}.rd"),
                    latency_stats=LatencyStats(f"{name}.lat"),
                    counters=self.counters)
                built.links.append(link)
                self.links.append(link)
            if spec.has_memory:
                link = AxiLink(f"xp{spec.node}->{name}.mem")
                self.xps[spec.node].connect_out(built.local_port, link)
                built.memory = MemorySlave(
                    f"{name}.mem", index, link,
                    beat_bytes=cfg.beat_bytes, latency=cfg.memory_latency,
                    write_meter=ThroughputMeter(name=f"{name}.wr"),
                    scoreboard=scoreboard)
                built.links.append(link)
                self.links.append(link)
            self.tiles.append(built)
            self.dmas.append(built.dma)
            self.memories.append(built.memory)

        # -- fault injection (DESIGN.md §10) -----------------------------------
        self.faults = faults
        self.fault_stats: FaultStats | None = None
        self._fault_controller: FaultController | None = None
        if faults is not None and faults.active():
            faults.check("patronoc")
            self.fault_stats = stats = FaultStats()
            mem_tiles = [b for b in self.tiles if b.memory is not None]
            dma_tiles = [t for t in self.tiles if t.dma is not None]
            rngs = fault_rngs(fault_seed, 1 + len(mem_tiles))
            timeline = FaultTimeline(faults, len(self._mesh_links),
                                     rng=rngs[0],
                                     link_index=self._mesh_link_index)
            if faults.corrupt_rate > 0.0:
                # One independent stream per memory: corruption draws
                # happen in that memory's burst-arrival order, which
                # both kernel modes produce identically.
                for k, built in enumerate(mem_tiles):
                    mnode = built.spec.node
                    hops = {
                        t.index:
                        self.topology.hop_distance(t.spec.node, mnode) + 2
                        for t in dma_tiles
                    }
                    built.memory.fault_model = CorruptionModel(
                        rngs[1 + k], faults.corrupt_rate, hops, stats)
            recovery = Recovery(faults, stats)
            for built in dma_tiles:
                dma = built.dma
                dma.recovery = recovery
                dma._txn_timeout = faults.txn_timeout
                dma._resp_tolerant = faults.response_faults
            self._fault_controller = FaultController(
                "faults", timeline, stats, self.xps,
                self._mesh_link_ports, self._mesh_links,
                topology=self.topology if reroute else None,
                routers=routers if reroute else None,
                dest_nodes=(frozenset(endpoint_nodes.values())
                            if reroute else None),
                response_faults=faults.response_faults,
                release_grace=zombie_grace(faults.txn_timeout))

        # -- registration ------------------------------------------------------
        # The fault controller steps first so a response beat dropped at
        # cycle t is gone before any consumer could pop it at t (both
        # modes).
        if self._fault_controller is not None:
            self.sim.add(self._fault_controller)
        for xp in self.xps:
            self.sim.add(xp)
        for built in self.tiles:
            if built.dma is not None:
                self.sim.add(built.dma)
            if built.memory is not None:
                self.sim.add(built.memory)
        # Trains (DESIGN.md §7): the activity scheduler skips the
        # predictable cycles of a burst that owns its path.  Every fault
        # acts at admission, on decoded heads or on B/R beats, and
        # leaves a locked W path alone — but not an R path, so R trains
        # only where no fault is armed.
        self._trains: list[WTrain] = []
        self._r_trains: list[RTrain] = []
        if not always_step:
            ingress = {link.w: i for xp in self.xps
                       for i, link in enumerate(xp.in_links)
                       if link is not None}
            self._trains = [WTrain(dma, ingress) for dma in self.dmas
                            if dma is not None]
        if not always_step and self._fault_controller is None:
            egress = {link.r: j for xp in self.xps
                      for j, link in enumerate(xp.out_links)
                      if link is not None}
            self._r_trains = [RTrain(mem, egress) for mem in self.memories
                              if mem is not None]

    # ------------------------------------------------------------------
    # addressing helpers
    # ------------------------------------------------------------------
    def addr_of(self, endpoint: int, offset: int = 0) -> int:
        """Address ``offset`` bytes into ``endpoint``'s region."""
        region = self.memory_map.region_of(endpoint)
        if not 0 <= offset < region.size:
            raise ValueError(
                f"offset {offset:#x} outside endpoint {endpoint}'s "
                f"{region.size:#x}-byte region")
        return region.base + offset

    def memory_endpoints(self) -> list[int]:
        """Tile indices that expose an addressable memory."""
        return [t.index for t in self.tiles if t.memory is not None]

    def dma_endpoints(self) -> list[int]:
        """Tile indices that have a DMA master."""
        return [t.index for t in self.tiles if t.dma is not None]

    def node_of(self, endpoint: int) -> int:
        return self.tiles[endpoint].spec.node

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def set_warmup(self, cycle: int) -> None:
        """Start the throughput measurement window at ``cycle``."""
        self._settle()  # an open train is credited against the old one
        self.warmup = cycle
        for built in self.tiles:
            if built.dma is not None:
                built.dma.read_meter.warmup_cycles = cycle
            if built.memory is not None:
                built.memory.write_meter.warmup_cycles = cycle

    def measured_bytes(self) -> int:
        """Payload bytes delivered inside the measurement window
        (W bytes at memories + R bytes at DMAs)."""
        total = 0
        for built in self.tiles:
            if built.dma is not None:
                total += built.dma.read_meter.bytes_measured
            if built.memory is not None:
                total += built.memory.write_meter.bytes_measured
        return total

    def total_bytes(self) -> int:
        """Payload bytes delivered since cycle 0 (warm-up included)."""
        total = 0
        for built in self.tiles:
            if built.dma is not None:
                total += built.dma.read_meter.bytes_total
            if built.memory is not None:
                total += built.memory.write_meter.bytes_total
        return total

    def aggregate_throughput_gib_s(self, now: int | None = None) -> float:
        """Aggregate delivered-payload throughput over the window, GiB/s."""
        end = self.sim.now if now is None else now
        window = end - self.warmup
        if window <= 0:
            return 0.0
        return self.measured_bytes() / window * self.cfg.freq_hz / GIB

    def transfers_completed(self) -> int:
        return sum(b.dma.transfers_completed for b in self.tiles
                   if b.dma is not None)

    def response_errors(self) -> int:
        """Error responses (DECERR/SLVERR) observed by the DMA engines."""
        return sum(b.dma.errors for b in self.tiles if b.dma is not None)

    def fault_report(self) -> dict:
        """Fault/recovery accounting for :class:`Result.faults`; empty
        when no active fault spec was installed."""
        if self.fault_stats is None:
            return {}
        report = self.fault_stats.as_dict()
        report["response_errors"] = self.response_errors()
        report["blocked_aw"] = self.counters["aw_fault_blocked"]
        report["blocked_ar"] = self.counters["ar_fault_blocked"]
        return report

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, cycles: int, until=None) -> int:
        """Advance by up to ``cycles``; on return no train is open and
        every stall interval is charged, so everything a caller can read
        equals the per-beat oracle's.  A bare ``net.sim.run()`` skips
        that: counters lag by the open stall intervals, and the beats of
        an open train are in neither the FIFOs nor the counters until
        the next ``run`` / ``drain`` / ``set_warmup`` ends it."""
        now = self.sim.run(cycles, until=until)
        self._settle()
        return now

    def _settle(self) -> None:
        """End every open W and R train where it stands (no train
        outlives the call that started it), then charge the open
        stalls: a DMA asleep in an ID/MOT stall charges it when it next
        steps (DESIGN.md §7 "Stalls are intervals"), and whoever reads
        ``counters`` after a run must find the cycles so far on them."""
        now = self.sim.now
        for train in self._trains + self._r_trains:
            train.end(now)
        for dma in self.dmas:
            if dma is not None:
                dma.settle_stall(now)

    def kernel_stats(self) -> dict:
        """What the scheduler did, for tests and reports — not part of
        any Result: ``step()`` calls made, cycles jumped in quiet gaps,
        W and R trains frozen and the beats they carried, probes taken
        in both directions."""
        w, r = self._trains, self._r_trains
        return dict(steps=self.sim.steps,
                    cycles_skipped=self.sim.cycles_skipped,
                    trains=sum(t.trains for t in w),
                    train_beats=sum(t.beats for t in w),
                    r_trains=sum(t.trains for t in r),
                    r_train_beats=sum(t.beats for t in r),
                    train_probes=sum(t.probes for t in w + r))

    def idle(self) -> bool:
        """True when no transaction is anywhere in flight."""
        return (all(b.dma.idle() for b in self.tiles if b.dma is not None)
                and all(b.memory.idle() for b in self.tiles
                        if b.memory is not None)
                and all(xp.idle() for xp in self.xps)
                and all(link.idle() for link in self.links))

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run until everything in flight has completed.

        Terminates on the exact cycle everything settles — no checkpoint
        rounding: the kernel's :meth:`~repro.sim.kernel.Simulator.
        all_quiet` (active set and wake heap empty, open-loop sources
        exempt) guarantees nothing will act again, and ``idle()``
        confirms no beat is stranded.  Finite pending work counts: an
        unfinished core script or a sleeping memory-response queue keeps
        the drain running; a live open-loop traffic source does not (it
        is ``drain_transparent``), matching the seed's behaviour of
        draining between injections.

        Raises RuntimeError if the network fails to drain within
        ``max_cycles`` — which would indicate a deadlock and must never
        happen (YX routing is deadlock-free; tests rely on this).  Under
        the production scheduler a deadlock is O(1) to see: once the
        active set and the wake heap are empty, the blocked sleepers can
        never be woken, so the run jumps to its bound without polling
        and the error names them and the full FIFO each waits behind.
        """
        sim = self.sim
        sim.run(max_cycles, until_idle=lambda: sim.all_quiet() and self.idle())
        self._settle()  # before the report: the FIFOs it names are real
        if not self.idle():
            blocked = "; ".join(f"{c.name} ({c.blocked_on()})"
                                for c in sim.blocked())
            raise RuntimeError(
                f"network failed to drain within {max_cycles} cycles "
                f"(possible deadlock)"
                + (f" — blocked: {blocked}" if blocked else ""))
        return self.sim.now
