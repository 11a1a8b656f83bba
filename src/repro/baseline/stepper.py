"""Two-pass request-mask switch allocation: the packet baseline's one
production stepper (DESIGN.md §11).

The reference :meth:`~repro.baseline.router.Router.step` scans, for each
of the 5 output ports, all ``5 × n_vcs`` input slots in rotated priority
order and re-derives every blocked head's route at each of them.
:class:`MaskStepper` keeps one int bitmask per router — bit
``in_port * n_vcs + in_vc`` set iff that input buffer is non-empty — and
splits a router's cycle in two:

* **Pass 1** visits each non-empty slot once and files its bit under the
  egress it requests (body flits: the packet's ``state.out_port``; heads:
  the mesh's route table, or ``_adaptive_candidate`` next to a dead
  egress in reroute mode).  Slots the reference would skip at *every*
  output port — front flit arrived this cycle, packet draining after a
  drop, stuck VC — are filed nowhere.  None of this can go stale inside
  the router's own step: nobody pushes into its buffers meanwhile, a
  grant marks the whole input port used, and ``now``/``fault_*`` are
  fixed.
* **Pass 2** is the reference's rotated-priority grant loop over each
  egress's own request mask.  What other routers change within a cycle
  (downstream space, free downstream VCs) and what the reference orders
  after VC allocation (the degraded-link pass) stay checked at visit
  time, so the granted flit sequence and every counter match.

Switch-allocation pointers are kept as offsets: the reference rotates a
pointer by one on every grantless cycle (stepped or fast-forwarded) and
sets it to ``idx + 1`` on a grant, so ``(sa_off + now) % total`` with
``sa_off = idx - now`` at the last grant is the reference's ``_sa_ptr``
at the start of cycle ``now``; idle ports and idle routers cost nothing.
The :class:`Router` objects remain the owners of all other state.
"""

from __future__ import annotations

from repro.baseline.router import N_PORTS, P_LOCAL
from repro.faults.runtime import degraded_pass

#: The set bits of a 5-bit egress mask, ascending: pass 2 walks only the
#: egresses pass 1 filed a request under.
PORTS_IN = [tuple(p for p in range(N_PORTS) if m >> p & 1)
            for m in range(1 << N_PORTS)]


class MaskStepper:
    """Fused injection + request-mask stepper for all routers of a
    PacketMesh."""

    def __init__(self, mesh):
        self.mesh = mesh
        routers = mesh.routers
        self.n_vcs = n_vcs = mesh.cfg.n_vcs
        self.buf_depth = mesh.cfg.buf_depth
        self.total = N_PORTS * n_vcs
        #: Per-router non-empty-slot bitmasks (bit = port * n_vcs + vc).
        self.masks = [0] * len(routers)
        #: Per-router, per-egress switch-allocation pointer offsets.
        self.sa_off = [[0] * N_PORTS for _ in routers]
        #: Slots of one input port (all its VCs), by port.
        self.port_slots = [((1 << n_vcs) - 1) << (p * n_vcs)
                           for p in range(N_PORTS)]
        #: Per-router constants of the hot loop, built on first use
        #: (:meth:`_context`; the route-table row is one of them).
        self.contexts: list[tuple | None] = [None] * len(routers)
        self.local_bufs = [r.buffers[P_LOCAL][0] for r in routers]

    def _context(self, node: int) -> tuple:
        """``(router, slot buffers, slot states, pointer offsets,
        downstream, route row)`` of one router.  Slots are flat in the
        reference scan's ``divmod(idx, n_vcs)`` order; ``downstream`` is,
        per egress, the next router's VC buffers on the facing input
        port, its node, and that port's first slot bit (None at an edge
        and for the local port)."""
        r = self.mesh.routers[node]
        slots = [(p, v) for p in range(N_PORTS) for v in range(self.n_vcs)]
        down = [None if nb is None else
                (nb.buffers[r.neighbor_in_port[p]], nb.node,
                 r.neighbor_in_port[p] * self.n_vcs)
                for p, nb in enumerate(r.neighbors)]
        ctx = self.contexts[node] = (
            r, [r.buffers[p][v] for p, v in slots],
            [r.vc_state[p][v] for p, v in slots], self.sa_off[node], down,
            self.mesh._row(node)[0])
        return ctx

    def sa_pointers(self, node: int, now: int) -> list[int]:
        """The reference's ``_sa_ptr`` of ``node`` at the start of cycle
        ``now`` (tests compare it against the always-step oracle)."""
        return [(off + now) % self.total for off in self.sa_off[node]]

    # ------------------------------------------------------------------
    def step(self, now: int, eject_fn, drop_fn, adaptive_fn=None) -> None:
        """One mesh cycle after packet generation: feed one flit per
        node into its local port, then allocate and traverse every
        router in node order."""
        mesh = self.mesh
        masks = self.masks
        n_vcs = self.n_vcs
        buf_depth = self.buf_depth
        # -- injection: VC 0 is the injection VC (Noxim's default) ------
        local_bit = 1 << (P_LOCAL * n_vcs)
        source_q = mesh._source_q
        fed = 0
        for node, inject in enumerate(mesh._inject_q):
            if not inject:
                if not source_q[node]:
                    continue
                mesh._start_packet(node)
            buf = self.local_bufs[node]
            if len(buf) < buf_depth:
                buf.append((now, inject.popleft()))
                masks[node] |= local_bit
                fed += 1
        mesh._flits_in_network += fed
        # -- allocation + traversal -------------------------------------
        total = self.total
        full = (1 << total) - 1
        port_slots = self.port_slots
        contexts = self.contexts
        armed = drop_fn is not None  # else every router.fault_* stays None
        dropping = 0
        dead = deg = None
        for node, mask in enumerate(masks):
            if not mask:
                continue  # nothing buffered: the pointers rotate implicitly
            router, bufs, states, sa, down, row = (contexts[node]
                                                   or self._context(node))
            pending = mask
            if armed:
                dropping = router._dropping
                if dropping:
                    router._drain_dropped(now, drop_fn)
                    dropping = router._dropping
                    pending = mask = sum(1 << slot for slot, buf
                                         in enumerate(bufs) if buf)
                dead = router.fault_dead
                deg = router.fault_degraded
                if router.fault_stuck is not None:
                    for in_port, in_vc in router.fault_stuck:
                        pending &= ~(1 << (in_port * n_vcs + in_vc))
            # Pass 1: file every eligible slot under the egress it wants.
            req = [0, 0, 0, 0, 0]
            seen = 0  # egresses with a request
            while pending:
                low = pending & -pending
                pending ^= low
                idx = low.bit_length() - 1
                arrived, flit = bufs[idx][0]
                if arrived >= now:
                    continue  # only one hop per cycle
                state = states[idx]
                port = state.out_port
                if port is None:
                    if dropping and state.dropping:
                        continue  # packet lost at a dead egress; draining
                    if flit.seq:
                        raise AssertionError(
                            f"router {node}: body flit with no route state "
                            f"on port {idx // n_vcs} vc {idx % n_vcs}")
                    dst = flit.packet.dst
                    if dead is None or adaptive_fn is None or dst == node:
                        port = row[dst]
                    else:
                        port = router._adaptive_candidate(
                            adaptive_fn, dst, now, arrived)[0]
                req[port] |= low
                seen |= 1 << port
            # Pass 2: rotated-priority grants, one egress at a time.
            routed = 0
            free = full  # slots whose input port has not been granted yet
            for out_port in PORTS_IN[seen]:
                wanted = req[out_port] & free
                if not wanted:
                    continue  # grantless: the pointer rotates implicitly
                start = (sa[out_port] + now) % total
                # Set bits of `wanted`, visited in rotated order from
                # `start` — the requesting subsequence of the reference
                # scan order.
                rot = ((wanted >> start) | (wanted << (total - start))) & full
                while rot:
                    low = rot & -rot
                    rot ^= low
                    idx = start + low.bit_length() - 1
                    if idx >= total:
                        idx -= total
                    buf = bufs[idx]
                    state = states[idx]
                    if out_port == P_LOCAL:
                        state.out_port = P_LOCAL
                        state.out_vc = 0
                        flit = buf.popleft()[1]
                        eject_fn(flit, now)
                    else:
                        if state.out_port is None:
                            if dead is not None and out_port in dead:
                                router._drop_head(buf, state, now, drop_fn)
                                if not buf:
                                    mask &= ~(1 << idx)
                                break
                            flit = buf[0][1]
                            if down[out_port] is None:
                                raise AssertionError(
                                    f"router {node}: route to unconnected "
                                    f"port {out_port}")
                            # Off the strict-XY egress (reroute mode):
                            # the escape VC 0 stays off it.
                            min_vc = int(row[flit.packet.dst] != out_port)
                            owners = router.vc_owner[out_port]
                            nb_vc_bufs = down[out_port][0]
                            for vc in range(min_vc, n_vcs):
                                if (owners[vc] is None
                                        and len(nb_vc_bufs[vc]) < buf_depth):
                                    break
                            else:
                                continue
                            state.out_port = out_port
                            state.out_vc = vc
                            owners[vc] = divmod(idx, n_vcs)
                            if min_vc:
                                router.reroutes += 1
                        if deg is not None:
                            factor = deg.get(out_port)
                            if (factor is not None
                                    and not degraded_pass(now, factor)):
                                continue  # degraded link: not a pass cycle
                        nb_vc_bufs, nb_node, nb_slot = down[out_port]
                        out_vc = state.out_vc
                        nb_buf = nb_vc_bufs[out_vc]
                        if len(nb_buf) >= buf_depth:
                            continue
                        flit = buf.popleft()[1]
                        nb_buf.append((now, flit))
                        masks[nb_node] |= 1 << (nb_slot + out_vc)
                    if not buf:
                        mask &= ~(1 << idx)
                    routed += 1
                    if flit.seq == flit.packet.length - 1:
                        if out_port != P_LOCAL:
                            router.vc_owner[out_port][out_vc] = None
                        state.out_port = None
                        state.out_vc = None
                    break
                else:
                    continue
                # Granted (or dropped) slot `idx`: its input port is used
                # for the rest of this cycle.
                sa[out_port] = idx - now
                free &= ~port_slots[idx // n_vcs]
            router.flits_routed += routed
            masks[node] = mask
