"""Request-mask switch allocation: the packet baseline's one production
stepper (DESIGN.md §11).

The reference :meth:`~repro.baseline.router.Router.step` scans, for each
of the 5 output ports, all ``5 × n_vcs`` input slots in rotated priority
order and re-derives every blocked head's route at each of them.
:class:`MaskStepper` keeps, per router, one int bitmask per egress:
``req[node][egress]`` holds bit ``in_port * n_vcs + in_vc`` iff that
input buffer's front flit requests the egress.  The grant loop is the
reference's rotated-priority scan over each egress's mask.

Under wormhole switching a slot's request changes only where its front
flit does, so it is filed there and nowhere else:

* a push into an empty buffer (injection, a grant's downstream push,
  :meth:`PacketMesh.inject <repro.baseline.network.PacketMesh.inject>`)
  files the flit: a body flit under its packet's ``state.out_port``, a
  head under the mesh's strict-XY route, the rest of a packet dropped at
  a dead egress nowhere;
* a grant that empties a buffer unfiles the slot, one that moves a tail
  out of a non-empty buffer re-files the next packet's head;
* a head granted off its XY egress (reroute mode) moves to the egress
  it was granted, which its body flits follow.

The masks hold nothing that depends on the cycle or on the fault sets,
so they always equal :meth:`_refile`'s rebuild from the buffers, which
replaces them after a router drains dropped flits.  The reference's
other filters are applied where the grant loop reads: a front flit that
arrived this cycle is skipped at its visit, stuck VCs are masked out of
the requesters, and next to a dead egress in reroute mode the loop reads
a rebuild in which each head asks for its patience-dependent egress.
What other routers change within a cycle (downstream space, free
downstream VCs) stays checked at visit time, so the granted flit
sequence and every counter match.

Switch-allocation pointers are kept as offsets: the reference rotates a
pointer by one on every grantless cycle (stepped or fast-forwarded) and
sets it to ``idx + 1`` on a grant, so ``(sa_off + now) % total`` with
``sa_off = idx - now`` at the last grant is the reference's ``_sa_ptr``
at the start of cycle ``now``; idle ports and idle routers cost nothing.
The :class:`Router` objects remain the owners of all other state.
"""

from __future__ import annotations

from repro.baseline.router import N_PORTS, P_LOCAL


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
        #: Per-router, per-egress request masks: the slots whose front
        #: flit requests that egress.
        self.req = [[0] * N_PORTS for _ in routers]
        #: Per-router, per-egress switch-allocation pointer offsets.
        self.sa_off = [[0] * N_PORTS for _ in routers]
        #: Per slot, the free-slot mask without that slot's input port.
        full = (1 << self.total) - 1
        self.other_ports = [full & ~(((1 << n_vcs) - 1) << (s - s % n_vcs))
                            for s in range(self.total)]
        #: Per-router constants of the hot loop, built on first use
        #: (:meth:`_context`; the route-table row is one of them).
        self.contexts: list[tuple | None] = [None] * len(routers)
        self.local_bufs = [r.buffers[P_LOCAL][0] for r in routers]

    def _context(self, node: int) -> tuple:
        """``(router, slot buffers, slot states, pointer offsets,
        downstream, route row, request masks)`` of one router.  Slots
        are flat in the reference scan's ``divmod(idx, n_vcs)`` order;
        ``downstream`` is, per egress, the next router's VC buffers and
        VC states on the facing input port, its node, that port's first
        slot bit, and the next router's request masks and route row
        (None at an edge and for the local port)."""
        mesh = self.mesh
        r = mesh.routers[node]
        n_vcs = self.n_vcs
        slots = [(p, v) for p in range(N_PORTS) for v in range(n_vcs)]
        down = []
        for p, nb in enumerate(r.neighbors):
            if nb is None:
                down.append(None)
                continue
            in_port = r.neighbor_in_port[p]
            down.append((nb.buffers[in_port], nb.vc_state[in_port], nb.node,
                         in_port * n_vcs, self.req[nb.node],
                         mesh._row(nb.node)[0]))
        ctx = self.contexts[node] = (
            r, [r.buffers[p][v] for p, v in slots],
            [r.vc_state[p][v] for p, v in slots], self.sa_off[node], down,
            mesh._row(node)[0], self.req[node])
        return ctx

    def sa_pointers(self, node: int, now: int) -> list[int]:
        """The reference's ``_sa_ptr`` of ``node`` at the start of cycle
        ``now`` (tests compare it against the always-step oracle)."""
        return [(off + now) % self.total for off in self.sa_off[node]]

    # -- the filing rule -------------------------------------------------
    def _request(self, node: int, slot: int) -> int | None:
        """The egress ``slot``'s front flit requests; None while the slot
        drains a packet dropped at a dead egress."""
        _r, bufs, states, _sa, _down, row, _req = (self.contexts[node]
                                                   or self._context(node))
        flit = bufs[slot][0][1]
        state = states[slot]
        if state.out_port is not None:
            return state.out_port
        if not flit.seq:
            return row[flit.packet.dst]
        if state.dropping:
            return None
        raise AssertionError(
            f"router {node}: body flit with no route state on port "
            f"{slot // self.n_vcs} vc {slot % self.n_vcs}")

    def file(self, node: int, slot: int) -> None:
        """File ``slot``'s front flit, just pushed into its empty
        buffer."""
        port = self._request(node, slot)
        self.masks[node] |= 1 << slot
        if port is not None:
            self.req[node][port] |= 1 << slot

    def _refile(self, node: int, now: int = 0,
                adaptive_fn=None) -> list[int]:
        """One router's request masks rebuilt from its buffers: what the
        kept ``req[node]`` must equal.  With ``adaptive_fn`` (reroute
        mode, next to a dead egress) each head asks
        :meth:`Router._adaptive_candidate` instead, whose answer depends
        on how long it has waited: that is cycle ``now``'s requests,
        read by the grant loop and not kept."""
        router, bufs, states = (self.contexts[node]
                                or self._context(node))[:3]
        req = [0] * N_PORTS
        for slot, buf in enumerate(bufs):
            if not buf:
                continue
            port = self._request(node, slot)
            if port is None:
                continue
            if adaptive_fn is not None and states[slot].out_port is None:
                arrived, flit = buf[0]
                port = router._adaptive_candidate(
                    adaptive_fn, flit.packet.dst, now, arrived)[0]
            req[port] |= 1 << slot
        return req

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
        local_slot = P_LOCAL * n_vcs
        source_q = mesh._source_q
        local_bufs = self.local_bufs
        fed = 0
        for node, inject in enumerate(mesh._inject_q):
            if not inject:
                if not source_q[node]:
                    continue
                mesh._start_packet(node)
            buf = local_bufs[node]
            held = len(buf)
            if held < buf_depth:
                buf.append((now, inject.popleft()))
                if not held:
                    self.file(node, local_slot)
                fed += 1
        mesh._flits_in_network += fed
        # -- allocation + traversal -------------------------------------
        total = self.total
        full = (1 << total) - 1
        other_ports = self.other_ports
        vc_ranges = (range(n_vcs), range(1, n_vcs))
        contexts = self.contexts
        armed = drop_fn is not None  # else every router.fault_* stays None
        dead = None
        for node, mask in enumerate(masks):
            if not mask:
                continue  # nothing buffered: the pointers rotate implicitly
            router, bufs, states, sa, down, row, req = (contexts[node]
                                                        or self._context(node))
            filed = req  # the stored masks; `req` is what this cycle reads
            free = full  # slots whose input port has not been granted yet
            if armed:
                if router._dropping:
                    router._drain_dropped(now, drop_fn)
                    req[:] = self._refile(node)
                    mask = sum(1 << slot for slot, buf in enumerate(bufs)
                               if buf)
                dead = router.fault_dead
                if dead is not None and adaptive_fn is not None:
                    req = self._refile(node, now, adaptive_fn)
                if router.fault_stuck is not None:
                    for in_port, in_vc in router.fault_stuck:
                        free &= ~(1 << (in_port * n_vcs + in_vc))
            routed = 0
            for out_port, wanted in enumerate(req):
                wanted &= free
                if not wanted:
                    continue  # grantless: the pointer rotates implicitly
                if wanted & (wanted - 1):
                    # Set bits of `wanted`, visited in rotated order from
                    # the pointer — the requesting subsequence of the
                    # reference scan order.
                    start = (sa[out_port] + now) % total
                    rot = ((wanted >> start)
                           | (wanted << (total - start))) & full
                else:  # one requester: no rotation
                    start = wanted.bit_length() - 1
                    rot = 1
                while rot:
                    low = rot & -rot
                    rot ^= low
                    idx = start + low.bit_length() - 1
                    if idx >= total:
                        idx -= total
                    buf = bufs[idx]
                    arrived, flit = buf[0]
                    if arrived >= now:
                        continue  # only one hop per cycle
                    state = states[idx]
                    if out_port == P_LOCAL:
                        state.out_port = P_LOCAL
                        state.out_vc = 0
                        buf.popleft()
                        eject_fn(flit, now)
                    else:
                        if state.out_port is None:
                            if dead is not None and out_port in dead:
                                router._drop_head(buf, state, now, drop_fn)
                                bit = 1 << idx
                                filed[out_port] ^= bit
                                if not buf:
                                    mask ^= bit
                                elif not state.dropping:  # next head up
                                    filed[self._request(node, idx)] |= bit
                                break
                            if down[out_port] is None:
                                raise AssertionError(
                                    f"router {node}: route to unconnected "
                                    f"port {out_port}")
                            # Off the strict-XY egress (reroute mode):
                            # the escape VC 0 stays off it.
                            xy = row[flit.packet.dst]
                            min_vc = 0 if xy == out_port else 1
                            owners = router.vc_owner[out_port]
                            nb_vc_bufs = down[out_port][0]
                            for vc in vc_ranges[min_vc]:
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
                                filed[xy] ^= 1 << idx
                                filed[out_port] |= 1 << idx
                        (nb_vc_bufs, nb_states, nb_node, nb_slot, nb_req,
                         nb_row) = down[out_port]
                        out_vc = state.out_vc
                        nb_buf = nb_vc_bufs[out_vc]
                        held = len(nb_buf)
                        if held >= buf_depth:
                            continue
                        buf.popleft()
                        nb_buf.append((now, flit))
                        if not held:  # it fronts its buffer: file it
                            port = (nb_states[out_vc].out_port if flit.seq
                                    else nb_row[flit.packet.dst])
                            if port is None:
                                self.file(nb_node, nb_slot + out_vc)
                            else:
                                nb_bit = 1 << (nb_slot + out_vc)
                                masks[nb_node] |= nb_bit
                                nb_req[port] |= nb_bit
                    routed += 1
                    if flit.last:
                        if out_port != P_LOCAL:
                            router.vc_owner[out_port][out_vc] = None
                        state.out_port = None
                        state.out_vc = None
                        bit = 1 << idx
                        filed[out_port] ^= bit
                        if buf:  # the next packet's head moves up
                            filed[self._request(node, idx)] |= bit
                        else:
                            mask ^= bit
                    elif not buf:
                        bit = 1 << idx
                        filed[out_port] ^= bit
                        mask ^= bit
                    break
                else:
                    continue
                # Granted (or dropped) slot `idx`: its input port is used
                # for the rest of this cycle.
                sa[out_port] = idx - now
                free &= other_ports[idx]
            router.flits_routed += routed
            masks[node] = mask
