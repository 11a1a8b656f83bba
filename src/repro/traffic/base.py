"""Random DMA traffic: the common machinery behind the paper's uniform
random (Fig. 4) and synthetic (Figs. 5/6) traffic patterns.

Each master runs an independent Poisson arrival process whose rate is set
by the *injected load* — the offered payload rate as a fraction of one
endpoint link's capacity (``beat_bytes`` per cycle).  Transfer lengths
are drawn uniformly from a user range ("the workload-specific burst
length is randomized within a user-defined range", §IV) and the network's
transaction splitter then enforces AXI compliance.

Sources are open-loop with a bounded backlog: while a DMA's queue is at
the cap the arrival clock pauses, so saturation measurements see an
always-backlogged source without unbounded memory growth (standard NoC
load-sweep methodology).  A paused clock does not poll: the source is a
``feeder`` of every DMA it drives, and the pop that shortens a DMA's
queue wakes it (DESIGN.md §2).
"""

from __future__ import annotations

import math

from repro.axi.transaction import Transfer
from repro.noc.network import NocNetwork
from repro.sim.kernel import Component
from repro.sim.rng import spawn_rngs

#: Backlog bound per master before the arrival clock pauses.
QUEUE_CAP = 64


class RandomTraffic(Component):
    """Poisson random traffic over per-master destination candidate sets.

    Parameters
    ----------
    net:
        The network to drive.
    candidates:
        master endpoint → list of destination (memory) endpoints it may
        address.  Masters with an empty list inject nothing.
    load:
        Offered load per master, as a fraction of one link's payload
        capacity (1.0 ≈ ``beat_bytes`` bytes per cycle per master).
    max_burst_bytes:
        Transfer lengths are uniform in ``[min_burst_bytes,
        max_burst_bytes)`` — the paper's "burst size < N" notation.
    read_fraction:
        Probability a transfer is a read (data flows slave→master).
    """

    def __init__(self, net: NocNetwork, candidates: dict[int, list[int]],
                 load: float, max_burst_bytes: int, *,
                 min_burst_bytes: int = 1, read_fraction: float = 0.5,
                 seed: int | None = None):
        if load <= 0:
            raise ValueError(f"load must be positive, got {load}")
        if max_burst_bytes <= min_burst_bytes - 1 or min_burst_bytes < 1:
            raise ValueError(
                f"need 1 <= min < max burst bytes, got "
                f"[{min_burst_bytes}, {max_burst_bytes})")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0,1], got {read_fraction}")
        self.net = net
        self.load = load
        self.min_burst = min_burst_bytes
        self.max_burst = max_burst_bytes
        self.read_fraction = read_fraction
        self.name = f"traffic(load={load})"
        #: Open-loop source: future arrivals never block a drain.
        self.drain_transparent = True

        self._masters = [m for m, cands in candidates.items() if cands]
        for master in self._masters:
            if net.dmas[master] is None:
                raise ValueError(f"endpoint {master} has no DMA")
        self._candidates = {m: list(candidates[m]) for m in self._masters}
        mean_size = (min_burst_bytes + max_burst_bytes - 1) / 2.0
        #: Poisson arrival rate per master, transfers per cycle.
        self.rate = load * net.cfg.beat_bytes / mean_size
        self._rngs = dict(zip(self._masters,
                              spawn_rngs(seed, len(self._masters))))
        # Hot-loop state as parallel lists (step/idle/next_event run
        # every active cycle; dict lookups per master dominated them).
        self._arrival = [self._draw_gap(m) for m in self._masters]
        self._hot_dmas = [net.dmas[m] for m in self._masters]
        self.offered_transfers = 0
        self.offered_bytes = 0

    # ------------------------------------------------------------------
    def install(self) -> "RandomTraffic":
        """Register with the network's simulator and, as a feeder, with
        every DMA driven (here, not in ``__init__``: the object that is
        installed is the one to wake); returns self."""
        self.net.sim.add(self)
        for dma in self._hot_dmas:
            dma.feeders.append(self)
        return self

    def _draw_gap(self, master: int) -> float:
        return self._rngs[master].exponential(1.0 / self.rate)

    def _make_transfer(self, master: int, now: int) -> Transfer:
        rng = self._rngs[master]
        cands = self._candidates[master]
        dest = cands[rng.integers(len(cands))]  # one candidate: no draw
        size = rng.integers(self.min_burst, self.max_burst) \
            if self.max_burst > self.min_burst else self.min_burst
        region = self.net.memory_map.region_of(dest)
        max_off = region.size - size
        offset = rng.integers(0, max_off) if max_off > 0 else 0
        is_read = rng.random() < self.read_fraction
        return Transfer(src=master, addr=region.base + offset, nbytes=size,
                        is_read=is_read, dest=dest, created=now)

    def step(self, now: int) -> bool:
        arrival = self._arrival
        cap = QUEUE_CAP
        masters = self._masters
        for k, dma in enumerate(self._hot_dmas):
            # Pause the arrival clock while the backlog is at the cap.
            if arrival[k] <= now:
                master = masters[k]
                while arrival[k] <= now and len(dma._pending) < cap:
                    transfer = self._make_transfer(master, now)
                    dma.submit(transfer)
                    self.offered_transfers += 1
                    self.offered_bytes += transfer.nbytes
                    arrival[k] += self._draw_gap(master)
        return True

    def quiet(self) -> bool:
        """Always: a step leaves every clock either in the future
        (``next_event`` names the earliest) or paused at the backlog
        cap, and a paused clock can only resume after the DMA pops its
        queue, which wakes its feeders."""
        return True

    def next_event(self, now: int) -> int | None:
        """First integer cycle at or after the earliest arrival still in
        the future; a clock in the past is paused at the cap and waits
        for a wake, not for a cycle."""
        wake = min((a for a in self._arrival if a > now), default=None)
        return None if wake is None else math.ceil(wake)

    def quiesce(self) -> None:
        """Stop injecting (lets the network drain for latency studies)."""
        for dma in self._hot_dmas:
            if self in dma.feeders:  # installed
                dma.feeders.remove(self)
        self._masters = []
        self._hot_dmas = []
        self._arrival = []
