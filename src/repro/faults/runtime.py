"""Runtime machinery behind :class:`~repro.faults.spec.FaultSpec`.

Everything here is deterministic in (spec, seed): RNG streams are salted
children of the scenario seed (so they never collide with the traffic
streams spawned from the same seed), the Poisson fault process is
expanded lazily in event order, and corruption draws happen in
transaction-arrival order — which is identical between the always-step
and activity-driven kernels.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.sim.rng import Generator, spawn_rngs
from repro.sim.stats import LatencyStats

#: Salt mixed into the scenario seed for fault RNG streams.  Traffic
#: sources use ``spawn_rngs(seed, n)`` — the *unsalted* SeedSequence —
#: so without a salt the fault streams would alias the first n traffic
#: streams and faults would perturb traffic even at rate 0.
FAULT_SALT = 0xFA_017  # "FAULT"


def fault_rngs(seed: int | None, n: int) -> list[Generator]:
    """Spawn ``n`` independent fault generators from the scenario seed."""
    return spawn_rngs(seed, n, salt=FAULT_SALT)


class FaultStats:
    """Mutable fault/recovery bookkeeping shared by the injection points
    and recovery policies of one network."""

    __slots__ = ("link_faults", "vc_faults", "corrupted",
                 "retransmissions", "recovered", "dropped",
                 "reroute_decisions", "recovery_latency",
                 "response_drops", "orphaned", "timeout_recovered",
                 "timeout_latency", "retables", "dijkstra_sources")

    def __init__(self) -> None:
        self.link_faults = 0        # link fault events applied
        self.vc_faults = 0          # stuck-VC fault events applied
        self.corrupted = 0          # bursts corrupted in flight (AXI)
        self.retransmissions = 0    # DMA-initiated burst retries (AXI)
        self.recovered = 0          # bursts clean after a retry
        self.dropped = 0            # bursts/packets abandoned (budget or
        #                             timeout exhausted; every lost
        #                             packet on the baseline)
        self.reroute_decisions = 0  # route deviations from the pristine
        #                             path (AXI: per addr-beat per hop;
        #                             baseline: per rerouted packet-hop)
        self.recovery_latency = LatencyStats("recovery")
        self.response_drops = 0     # response bursts/replies lost on
        #                             dead links (response_faults)
        self.orphaned = 0           # transactions aborted by the
        #                             txn_timeout watchdog
        self.timeout_recovered = 0  # orphans clean after a timeout retry
        self.timeout_latency = LatencyStats("timeout")
        self.retables = 0           # up*/down* table recomputes
        self.dijkstra_sources = 0   # nodes routed by those recomputes
        #                             (n_nodes per recompute)

    def injected(self) -> int:
        return self.link_faults + self.vc_faults + self.corrupted

    def as_dict(self) -> dict:
        return {
            "injected": self.injected(),
            "link_faults": self.link_faults,
            "vc_faults": self.vc_faults,
            "corrupted": self.corrupted,
            # every corruption is detected at the receiving endpoint
            "detected": self.corrupted,
            "retransmissions": self.retransmissions,
            "recovered": self.recovered,
            "dropped": self.dropped,
            "reroute_decisions": self.reroute_decisions,
            "recovery_latency": self.recovery_latency.summary(),
            "response_drops": self.response_drops,
            "orphaned": self.orphaned,
            "timeout_recovered": self.timeout_recovered,
            "timeout_latency": self.timeout_latency.summary(),
            "retables": self.retables,
            "dijkstra_sources": self.dijkstra_sources,
        }


class FaultTimeline:
    """The merged, time-ordered stream of fault events for one run.

    Explicit ``LinkFault``/``StuckVcFault`` entries become heap events up
    front; the Poisson process (``link_rate``) keeps exactly one pending
    fault-start in the heap and draws the next one when it pops, so the
    expansion is lazy, bounded, and independent of run length.

    Events (popped in (cycle, seq) order, seq breaks ties by insertion):

    * ``("link", link_idx, fault_id)`` — link dies
    * ``("link_clear", link_idx, fault_id)`` — that fault ends
    * ``("vc", node, port, vc, fault_id)`` — input VC stops draining
    * ``("vc_clear", node, port, vc, fault_id)`` — that fault ends
    """

    def __init__(self, spec, n_links: int,
                 rng: Generator | None = None,
                 link_index: dict[tuple[int, int], int] | None = None):
        self._heap: list[tuple[int, int, tuple]] = []
        self._seq = 0
        self._rng = rng
        self._rate = spec.link_rate
        self._duration = spec.link_duration
        self._n_links = n_links
        self._next_fid = 0
        for lf in spec.links:
            idx = None
            if link_index is not None:
                idx = link_index.get((lf.src, lf.dst))
                if idx is None:
                    raise ValueError(
                        f"link fault targets nonexistent directed link "
                        f"{lf.src}->{lf.dst}")
            fid = self._new_fid()
            self._push(lf.start, ("link", idx, fid))
            if lf.duration is not None:
                self._push(lf.start + lf.duration, ("link_clear", idx, fid))
        for sv in spec.stuck_vcs:
            fid = self._new_fid()
            self._push(sv.start, ("vc", sv.node, sv.port, sv.vc, fid))
            if sv.duration is not None:
                self._push(sv.start + sv.duration,
                           ("vc_clear", sv.node, sv.port, sv.vc, fid))
        # Fault ids above this mark belong to the Poisson process; its
        # clear events trigger the next draw (see pop_due).
        self._n_explicit = self._next_fid
        if self._rate > 0.0 and n_links > 0:
            if rng is None:
                raise ValueError("link_rate > 0 requires an RNG")
            self._schedule_rate_fault(0)

    def _new_fid(self) -> int:
        self._next_fid += 1
        return self._next_fid

    def _push(self, cycle: int, event: tuple) -> None:
        heapq.heappush(self._heap, (cycle, self._seq, event))
        self._seq += 1

    def _schedule_rate_fault(self, after: int) -> None:
        """Draw the next Poisson fault start (> ``after``) and its victim."""
        gap = 1 + int(self._rng.exponential(1.0 / self._rate))
        idx = self._rng.integers(self._n_links)
        fid = self._new_fid()
        start = after + gap
        self._push(start, ("link", idx, fid))
        self._push(start + self._duration, ("link_clear", idx, fid))

    def peek(self) -> int | None:
        """Cycle of the next event, or None if exhausted."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: int) -> list[tuple]:
        """Pop every event with cycle <= now, in order; refill the
        Poisson stream as its fault-clear events pop."""
        out = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            cycle, _, event = heapq.heappop(heap)
            out.append(event)
            # Each Poisson fault schedules its successor when its clear
            # pops, keeping exactly one pending fault pair in the heap.
            if (event[0] == "link_clear" and self._rate > 0.0
                    and event[2] > self._n_explicit):
                self._schedule_rate_fault(cycle)
        return out


class DeadLinks:
    """The link faults in force, per egress ``(node, port)`` — one table
    and one composition rule for both fabrics: an egress is dead while
    any fault on it is in force (overlapping faults each keep it dead
    until the last one clears).
    """

    def __init__(self, link_ports: list[tuple[int, int]], stats: FaultStats):
        #: (node, out_port) per mesh-link index (the timeline's currency).
        self._link_ports = link_ports
        self._stats = stats
        #: egress -> ids of the faults in force on it.
        self._entries: dict[tuple[int, int], set[int]] = {}
        #: node -> its dead egress ports; absent while all are alive.
        self._ports: dict[int, frozenset[int]] = {}

    def apply(self, events) -> list[tuple[int, int]]:
        """Fold ``link`` / ``link_clear`` events into the table (fault
        starts are counted); returns, sorted, the egresses the batch
        killed or revived: each one's node has new :meth:`ports`."""
        entries = self._entries
        was: dict[tuple[int, int], bool] = {}
        for kind, index, fid in events:
            key = self._link_ports[index]
            faults = entries.setdefault(key, set())
            was.setdefault(key, bool(faults))
            if kind == "link":
                faults.add(fid)
                self._stats.link_faults += 1
            else:
                faults.discard(fid)
        flipped = sorted(key for key, dead in was.items()
                         if bool(entries[key]) != dead)
        for node, port in flipped:
            ports = self._ports.pop(node, frozenset()) ^ {port}
            if ports:
                self._ports[node] = ports
        return flipped

    def ports(self, node: int) -> frozenset[int] | None:
        """The node's dead egress ports (None while all are alive)."""
        return self._ports.get(node)

    def unhealthy(self) -> Iterator[tuple[int, int]]:
        """Every egress with a fault in force."""
        for key, faults in self._entries.items():
            if faults:
                yield key


def zombie_grace(txn_timeout: int | None) -> int:
    """Cycles an aborted transaction's id stays reserved (DMA zombie ids,
    the controller's deferred read-chain releases): a slow response can
    outlive the watchdog by far and must not land on a recycled id."""
    return max(4096, 2 * (txn_timeout or 0))


class Recovery:
    """The one rule that decides, and counts, the fate of a lost or
    failed unit — a burst at the AXI DMA, a packet at the baseline mesh
    (which only calls :meth:`drop`: nothing there resends).  ``attempt``
    is a burst's retry number (0 on first issue), ``first_issue`` the
    cycle of that first issue."""

    #: Cycles after its first issue beyond which a unit is dropped
    #: instead of retried.
    MAX_AGE = 100_000

    __slots__ = ("retransmit", "max_retries", "stats")

    def __init__(self, spec, stats: FaultStats):
        self.retransmit = spec.recovery == "retransmit"
        self.max_retries = spec.max_retries
        self.stats = stats

    def retry(self, attempt: int, first_issue: int, now: int) -> bool:
        """Send the unit again (``retransmissions``) or drop it."""
        if (self.retransmit and attempt < self.max_retries
                and now - first_issue <= self.MAX_AGE):
            self.stats.retransmissions += 1
            return True
        self.drop()
        return False

    def expired(self, attempt: int, first_issue: int, now: int) -> bool:
        """A watchdog aborted the unit: ``orphaned``, then :meth:`retry`."""
        self.stats.orphaned += 1
        return self.retry(attempt, first_issue, now)

    def drop(self) -> None:
        """Abandon a unit nothing can resend (``dropped``)."""
        self.stats.dropped += 1

    def recovered(self, attempt: int, first_issue: int, now: int,
                  timed) -> None:
        """A unit completed clean: after a retry it counts ``recovered``
        (and ``timeout_recovered`` if a watchdog sent it, ``timed``)."""
        if attempt:
            stats = self.stats
            stats.recovered += 1
            stats.recovery_latency.add(now - first_issue)
            if timed:
                stats.timeout_recovered += 1
                stats.timeout_latency.add(now - first_issue)


class CorruptionModel:
    """Corruption draw per burst at one AXI memory endpoint.

    A burst of B beats crossing H hops has B*H chances to be hit; the
    endpoint draws once per burst with the aggregate probability
    ``1 - (1 - rate)**(B*H)``.  Draws happen in arrival order, which
    both kernel modes produce identically.
    """

    __slots__ = ("_rng", "_rate", "_hops_by_src", "stats")

    def __init__(self, rng: Generator, rate: float,
                 hops_by_src: dict[int, int], stats: FaultStats):
        self._rng = rng
        self._rate = rate
        self._hops_by_src = hops_by_src
        self.stats = stats

    def corrupt(self, src: int, beats: int) -> bool:
        hops = self._hops_by_src.get(src, 2)
        p = 1.0 - (1.0 - self._rate) ** (beats * hops)
        if self._rng.random() < p:
            self.stats.corrupted += 1
            return True
        return False

