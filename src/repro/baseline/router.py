"""Input-buffered wormhole router with virtual channels — the
microarchitecture class Noxim simulates (the paper's Fig. 4 baseline).

Model: combined route-compute / VC-allocation / switch-allocation in one
cycle; one flit leaves per output port per cycle and one flit per input
port per cycle; hop latency is one cycle (arrival stamps prevent a flit
from traversing two routers in the same cycle).  Flow control is
buffer-space backpressure per (port, VC), which is credit flow control
with instantaneous credit return — the standard simulator simplification
that preserves the buffer-depth and VC-count effects Fig. 4 sweeps
((VC=1, buf=4) vs (VC=4, buf=32)).

Wormhole semantics: a head flit allocates one downstream VC; the packet
holds it until the tail passes; body flits follow the head's route.
With XY dimension-ordered routing the channel dependency graph is
acyclic, so the baseline is deadlock-free.

Fault-aware adaptive mode (DESIGN.md §10): when the mesh passes an
``adaptive_fn`` (recovery="reroute"), VC 0 becomes the *escape* layer —
it may only ever be allocated on the strict-XY egress, whose channel
dependency graph stays acyclic because minimal routing never reopens a
resolved dimension — while VCs 1.. may additionally be allocated on the
other productive egress when the XY one is dead.  A head whose XY
egress is dead waits at most :data:`REROUTE_PATIENCE` cycles for an
adaptive VC before it is dropped (bounded-patience deadlock recovery);
with a single VC the scheme degenerates to strict XY plus the drop.
"""

from __future__ import annotations

from collections import deque

from repro.baseline.flit import Flit

#: Port indices (N/E/S/W match the mesh convention; LOCAL injects/ejects).
P_N, P_E, P_S, P_W, P_LOCAL = 0, 1, 2, 3, 4
N_PORTS = 5

#: Escape VC index in adaptive (reroute) mode: restricted to strict-XY
#: egresses, so the escape subnetwork's dependency graph is acyclic.
ESCAPE_VC = 0

#: Cycles a head whose strict-XY egress is dead may wait for an adaptive
#: VC on the other productive egress before it is dropped.  Bounds any
#: adaptive-layer cycle (only dead-XY heads lack the escape guarantee),
#: so forward progress is unconditional.
REROUTE_PATIENCE = 256


class _VcState:
    """Per-input-VC bookkeeping: the in-progress packet's switch state."""

    __slots__ = ("out_port", "out_vc", "dropping")

    def __init__(self) -> None:
        self.out_port: int | None = None
        self.out_vc: int | None = None
        #: Head was dropped at a dead egress; drain the body flits too.
        self.dropping = False

    def clear(self) -> None:
        self.out_port = None
        self.out_vc = None
        self.dropping = False


class Router:
    """One 5-port VC wormhole router."""

    def __init__(self, node: int, n_vcs: int, buf_depth: int):
        if n_vcs < 1:
            raise ValueError(f"need >= 1 VC, got {n_vcs}")
        if buf_depth < 1:
            raise ValueError(f"need >= 1 flit of buffering, got {buf_depth}")
        self.node = node
        self.n_vcs = n_vcs
        self.buf_depth = buf_depth
        # buffers[port][vc] -> deque of (arrived_cycle, flit)
        self.buffers: list[list[deque]] = [
            [deque() for _ in range(n_vcs)] for _ in range(N_PORTS)]
        self.vc_state: list[list[_VcState]] = [
            [_VcState() for _ in range(n_vcs)] for _ in range(N_PORTS)]
        self.neighbors: list["Router | None"] = [None] * N_PORTS
        self.neighbor_in_port: list[int] = [0] * N_PORTS
        # Ownership of the *downstream* VC by our (in_port, in_vc).
        self.vc_owner: list[list[tuple[int, int] | None]] = [
            [None] * n_vcs for _ in range(N_PORTS)]
        self._sa_ptr = [0] * N_PORTS
        self.flits_routed = 0
        #: Fault injection (DESIGN.md §10): dead egress ports (flits
        #: routed into one are dropped).  Written by the mesh's fault
        #: machinery; None = fault-free fast path.
        self.fault_dead: frozenset[int] | None = None
        #: Stuck input VCs — (in_port, vc) slots whose buffered flits
        #: never win switch allocation while the fault holds (a jammed
        #: VC allocator / credit loss).  Allocation *into* a stuck VC
        #: stays allowed; traffic on other VCs keeps flowing.
        self.fault_stuck: frozenset[tuple[int, int]] | None = None
        self._dropping = 0  # VCs currently draining a dropped packet
        self.flits_dropped = 0
        #: Adaptive-VC grants that deviated from the strict-XY egress
        #: (reroute mode; one count per rerouted packet-hop).
        self.reroutes = 0

    # ------------------------------------------------------------------
    def connect(self, out_port: int, neighbor: "Router", in_port: int) -> None:
        self.neighbors[out_port] = neighbor
        self.neighbor_in_port[out_port] = in_port

    def buffer_space(self, port: int, vc: int) -> int:
        return self.buf_depth - len(self.buffers[port][vc])

    def accept(self, port: int, vc: int, flit: Flit, now: int) -> None:
        """Deliver a flit into an input buffer (visible next cycle)."""
        if len(self.buffers[port][vc]) >= self.buf_depth:
            raise OverflowError(
                f"router {self.node}: buffer overrun on port {port} vc {vc}")
        self.buffers[port][vc].append((now, flit))

    # ------------------------------------------------------------------
    def step(self, now: int, route_fn, eject_fn, drop_fn=None,
             adaptive_fn=None) -> None:
        """One cycle of allocation and switch traversal.

        ``route_fn(node, dst) -> out_port`` supplies the routing decision;
        ``eject_fn(flit, now)`` consumes flits that reached the local port;
        ``drop_fn(flit, now)`` (optional) observes flits dropped at dead
        egress ports (fault injection); ``adaptive_fn(node, dst) ->
        (xy_port, other_port|-1)`` (optional) switches heads to the
        escape-VC adaptive candidacy of :meth:`_adaptive_candidate`
        (recovery="reroute" — None keeps the fault-free fast path
        byte-identical).
        """
        n_vcs = self.n_vcs
        total = N_PORTS * n_vcs
        stuck = self.fault_stuck
        if self._dropping:
            self._drain_dropped(now, drop_fn)
        used_inputs: set[int] = set()
        for out_port in range(N_PORTS):
            start = self._sa_ptr[out_port]
            for k in range(total):
                idx = (start + k) % total
                in_port, in_vc = divmod(idx, n_vcs)
                if in_port in used_inputs:
                    continue
                buf = self.buffers[in_port][in_vc]
                if not buf:
                    continue
                arrived, flit = buf[0]
                if arrived >= now:
                    continue  # only one hop per cycle
                state = self.vc_state[in_port][in_vc]
                if state.dropping:
                    continue  # packet lost at a dead egress; draining
                if stuck is not None and (in_port, in_vc) in stuck:
                    continue  # stuck VC: flits pinned until the fault clears
                if state.out_port is None:
                    if not flit.is_head:
                        raise AssertionError(
                            f"router {self.node}: body flit with no route "
                            f"state on port {in_port} vc {in_vc}")
                    dst = flit.packet.dst
                    min_vc = 0
                    if dst == self.node:
                        route = P_LOCAL
                    elif adaptive_fn is None:
                        route = route_fn(self.node, dst)
                    else:
                        route, min_vc = self._adaptive_candidate(
                            adaptive_fn, dst, now, arrived)
                    if route != out_port:
                        continue
                    if out_port == P_LOCAL:
                        state.out_port = P_LOCAL
                        state.out_vc = 0
                    else:
                        dead = self.fault_dead
                        if dead is not None and out_port in dead:
                            self._drop_head(buf, state, now, drop_fn)
                            used_inputs.add(in_port)
                            self._sa_ptr[out_port] = (idx + 1) % total
                            break
                        out_vc = self._find_free_vc(out_port, min_vc)
                        if out_vc is None:
                            continue
                        state.out_port = out_port
                        state.out_vc = out_vc
                        self.vc_owner[out_port][out_vc] = (in_port, in_vc)
                        if min_vc:
                            self.reroutes += 1
                elif state.out_port != out_port:
                    continue
                if out_port == P_LOCAL:
                    buf.popleft()
                    eject_fn(flit, now)
                else:
                    out_vc = state.out_vc
                    neighbor = self.neighbors[out_port]
                    nb_port = self.neighbor_in_port[out_port]
                    if neighbor.buffer_space(nb_port, out_vc) <= 0:
                        continue
                    buf.popleft()
                    neighbor.accept(nb_port, out_vc, flit, now)
                self.flits_routed += 1
                used_inputs.add(in_port)
                if flit.is_tail:
                    if state.out_port != P_LOCAL:
                        self.vc_owner[state.out_port][state.out_vc] = None
                    state.clear()
                self._sa_ptr[out_port] = (idx + 1) % total
                break
            else:
                self._sa_ptr[out_port] = (start + 1) % total

    def _drop_head(self, buf, state, now: int, drop_fn) -> None:
        """Dead egress and no alternate route: the packet is lost here.
        Its head is dropped now; the body flits behind it drain via the
        VC's ``dropping`` flag (:meth:`_drain_dropped`)."""
        _, flit = buf.popleft()
        self.flits_dropped += 1
        if drop_fn is not None:
            drop_fn(flit, now)
        if not flit.is_tail:
            state.dropping = True
            self._dropping += 1

    def _drain_dropped(self, now: int, drop_fn) -> None:
        """Consume (at most one per VC per cycle) the body flits of
        packets whose head was dropped at a dead egress."""
        for in_port in range(N_PORTS):
            states = self.vc_state[in_port]
            for in_vc in range(self.n_vcs):
                state = states[in_vc]
                if not state.dropping:
                    continue
                if (self.fault_stuck is not None
                        and (in_port, in_vc) in self.fault_stuck):
                    continue  # stuck VCs don't drain either
                buf = self.buffers[in_port][in_vc]
                if not buf or buf[0][0] >= now:
                    continue
                _, flit = buf.popleft()
                self.flits_dropped += 1
                if drop_fn is not None:
                    drop_fn(flit, now)
                if flit.is_tail:
                    state.dropping = False
                    self._dropping -= 1

    def _adaptive_candidate(self, adaptive_fn, dst: int, now: int,
                            arrived: int) -> tuple[int, int]:
        """Escape-VC adaptive candidacy: ``(out_port, min_vc)``.

        The strict-XY egress may use any VC (VC 0 is the escape layer
        and only ever granted here, which keeps the escape network's
        channel dependency graph acyclic — minimal routing never reopens
        a resolved dimension).  When the XY egress is dead, the other
        productive egress may be used on the adaptive VCs (1..) for up
        to :data:`REROUTE_PATIENCE` cycles of head blocking, after which
        the packet is dropped at the dead XY egress — the bounded-wait
        recovery that breaks any adaptive-layer cycle.
        """
        xy, other = adaptive_fn(self.node, dst)
        dead = self.fault_dead
        if dead is None or xy not in dead:
            return xy, 0
        if (other >= 0 and self.n_vcs > 1 and other not in dead
                and now - arrived <= REROUTE_PATIENCE):
            return other, 1
        return xy, 0  # lost at the dead XY egress (or patience expired)

    def _find_free_vc(self, out_port: int, min_vc: int = 0) -> int | None:
        """A downstream VC not owned by any packet and with buffer space.
        ``min_vc=1`` restricts the search to the adaptive VCs (reroute
        mode keeps the escape VC 0 off non-XY egresses)."""
        neighbor = self.neighbors[out_port]
        if neighbor is None:
            raise AssertionError(
                f"router {self.node}: route to unconnected port {out_port}")
        nb_port = self.neighbor_in_port[out_port]
        owners = self.vc_owner[out_port]
        for vc in range(min_vc, self.n_vcs):
            if owners[vc] is None and neighbor.buffer_space(nb_port, vc) > 0:
                return vc
        return None

    def occupancy(self) -> int:
        return sum(len(b) for bufs in self.buffers for b in bufs)
