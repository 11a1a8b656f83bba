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
from typing import TYPE_CHECKING, Iterator

from repro.sim.rng import DEFAULT_SEED
from repro.sim.stats import LatencyStats

if TYPE_CHECKING:  # imported where a stream is drawn, like sim/rng.py
    import numpy as np

#: Salt mixed into the scenario seed for fault RNG streams.  Traffic
#: sources use ``spawn_rngs(seed, n)`` — the *unsalted* SeedSequence —
#: so without a salt the fault streams would alias the first n traffic
#: streams and faults would perturb traffic even at rate 0.
FAULT_SALT = 0xFA_017  # "FAULT"


def fault_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent fault generators from the scenario seed."""
    import numpy as np

    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    root = DEFAULT_SEED if seed is None else seed
    seq = np.random.SeedSequence([root, FAULT_SALT])
    return [np.random.default_rng(child) for child in seq.spawn(n)]


class FaultStats:
    """Mutable fault/recovery bookkeeping shared by the injection points
    and recovery policies of one network."""

    __slots__ = ("link_faults", "port_faults", "vc_faults", "corrupted",
                 "retransmissions", "recovered", "dropped",
                 "reroute_decisions", "recovery_latency",
                 "response_drops", "orphaned", "timeout_recovered",
                 "timeout_latency", "byzantine", "retables",
                 "dijkstra_sources")

    def __init__(self) -> None:
        self.link_faults = 0        # link fault events applied
        self.port_faults = 0        # port fault events applied
        self.vc_faults = 0          # stuck-VC fault events applied
        self.corrupted = 0          # bursts/packets corrupted in flight
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
        self.byzantine = 0          # byzantine beats detected/discarded
        self.retables = 0           # up*/down* table recomputes
        self.dijkstra_sources = 0   # nodes routed by those recomputes
        #                             (n_nodes per recompute)

    def injected(self) -> int:
        return (self.link_faults + self.port_faults + self.vc_faults
                + self.corrupted + self.byzantine)

    def as_dict(self) -> dict:
        return {
            "injected": self.injected(),
            "link_faults": self.link_faults,
            "port_faults": self.port_faults,
            "vc_faults": self.vc_faults,
            "corrupted": self.corrupted,
            # every corruption (in-flight or byzantine) is detected
            "detected": self.corrupted + self.byzantine,
            "retransmissions": self.retransmissions,
            "recovered": self.recovered,
            "dropped": self.dropped,
            "reroute_decisions": self.reroute_decisions,
            "recovery_latency": self.recovery_latency.summary(),
            "response_drops": self.response_drops,
            "orphaned": self.orphaned,
            "timeout_recovered": self.timeout_recovered,
            "timeout_latency": self.timeout_latency.summary(),
            "byzantine": self.byzantine,
            "retables": self.retables,
            "dijkstra_sources": self.dijkstra_sources,
        }


class FaultTimeline:
    """The merged, time-ordered stream of fault events for one run.

    Explicit ``LinkFault``/``PortFault`` entries become heap events up
    front; the Poisson process (``link_rate``) keeps exactly one pending
    fault-start in the heap and draws the next one when it pops, so the
    expansion is lazy, bounded, and independent of run length.

    Events (popped in (cycle, seq) order, seq breaks ties by insertion):

    * ``("link", link_idx, fault_id, width_factor)`` — link goes bad
    * ``("link_clear", link_idx, fault_id)`` — that fault ends
    * ``("port", node, port, fault_id)`` — egress port dies
    * ``("port_clear", node, port, fault_id)`` — that fault ends
    * ``("vc", node, port, vc, fault_id)`` — input VC stops draining
    * ``("vc_clear", node, port, vc, fault_id)`` — that fault ends
    """

    def __init__(self, spec, n_links: int,
                 rng: np.random.Generator | None = None,
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
            self._push(lf.start, ("link", idx, fid, lf.width_factor))
            if lf.duration is not None:
                self._push(lf.start + lf.duration, ("link_clear", idx, fid))
        for pf in spec.ports:
            fid = self._new_fid()
            self._push(pf.start, ("port", pf.node, pf.port, fid))
            if pf.duration is not None:
                self._push(pf.start + pf.duration,
                           ("port_clear", pf.node, pf.port, fid))
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
        idx = int(self._rng.integers(self._n_links))
        fid = self._new_fid()
        start = after + gap
        self._push(start, ("link", idx, fid, 0.0))
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


class PortFaults:
    """The link and port faults in force, per egress ``(node, port)`` —
    one table and one composition rule for both fabrics.

    Overlapping faults on an egress compose as: dead if any of them is
    dead, else the narrowest width.  A dead fault is width factor 0 and
    ``LinkFault`` keeps the others inside (0, 1), so that is the
    minimum over the faults in force.
    """

    def __init__(self, link_ports: list[tuple[int, int]], stats: FaultStats):
        #: (node, out_port) per mesh-link index (the timeline's currency).
        self._link_ports = link_ports
        self._stats = stats
        self._entries: dict[tuple[int, int], dict[int, float]] = {}

    def apply(self, event: tuple) -> tuple[int, int]:
        """Fold one ``link`` / ``port`` event or its ``_clear`` into the
        table (fault starts are counted); returns the egress it names."""
        kind = event[0]
        if kind in ("link", "link_clear"):
            key, fid = self._link_ports[event[1]], event[2]
        else:
            key, fid = (event[1], event[2]), event[3]
        if kind == "link":
            self._entries.setdefault(key, {})[fid] = event[3]
            self._stats.link_faults += 1
        elif kind == "port":
            self._entries.setdefault(key, {})[fid] = 0.0
            self._stats.port_faults += 1
        else:
            self._entries.get(key, {}).pop(fid, None)
        return key

    def width(self, key: tuple[int, int]) -> float | None:
        """The egress's effective state: 0.0 dead, a factor in (0, 1)
        degraded, None healthy."""
        faults = self._entries.get(key)
        return min(faults.values()) if faults else None

    def unhealthy(self) -> Iterator[tuple[tuple[int, int], float]]:
        """``(egress, width)`` of every egress with a fault in force."""
        for key, faults in self._entries.items():
            if faults:
                yield key, min(faults.values())


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

    __slots__ = ("retransmit", "max_retries", "timeout", "stats")

    def __init__(self, spec, stats: FaultStats):
        self.retransmit = spec.recovery == "retransmit"
        self.max_retries = spec.max_retries
        self.timeout = spec.retry_timeout
        self.stats = stats

    def retry(self, attempt: int, first_issue: int, now: int) -> bool:
        """Send the unit again (``retransmissions``) or drop it."""
        if (self.retransmit and attempt < self.max_retries
                and now - first_issue <= self.timeout):
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
    """Corruption draw per burst (AXI) or packet (baseline) at one endpoint.

    A unit of B beats crossing H hops has B*H chances to be hit; the
    endpoint draws once per unit with the aggregate probability
    ``1 - (1 - rate)**(B*H)``.  Draws happen in arrival or creation
    order, which both kernel modes produce identically.
    """

    __slots__ = ("_rng", "_rate", "_hops_by_src", "stats")

    def __init__(self, rng: np.random.Generator, rate: float,
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


def degraded_pass(now: int, factor: float) -> bool:
    """True on the cycles a ``factor``-width link may move a beat.

    Pure in ``now`` (no RNG, no state), so both kernel modes agree even
    when quiet-cycle fast-forward skips over non-pass cycles: a beat
    arriving on any cycle sees the same accept/stall decision.
    """
    return int((now + 1) * factor) - int(now * factor) >= 1
