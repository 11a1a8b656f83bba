"""Fault-aware up*/down* routing tables for the AXI mesh (DESIGN.md §10).

PATRONoC's routing is static by construction (address-based YX tables),
so "rerouting" means swapping in a different *static* deterministic
function when links die — not per-flit adaptivity.  The scheme here is
Autonet-style **up*/down*** routing over the surviving link graph:

* A BFS spanning tree is grown from node 0 over the surviving links;
  every link gets an orientation — *up* toward the root (lower BFS
  level, ties to the lower node id), *down* away from it.
* A legal path is any number of up hops followed by any number of down
  hops.  Every cycle in the link graph must contain both an up→down and
  a down→up transition, and down→up is exactly what legality forbids —
  so the channel dependency graph of legal paths is acyclic and the
  rerouted fabric stays deadlock-free regardless of which links died.
* Each crosspoint routes with two tables (dest node → egress port): one
  for traffic still in its up phase (injected locally or arrived over
  an up edge) and one for traffic already going down (arrived over a
  down edge), which may only continue down.  The crosspoint knows the
  phase from its ingress port, so no routing state travels with beats.

Paths are shortest *legal* paths (Dijkstra over the (node, phase)
doubled graph) with degraded links weighted ``1 / width_factor`` — the
tables prefer a longer healthy detour over a crawling link.  All
tie-breaks are deterministic (port order, then node id), so the same
fault state yields the same tables in every process and kernel mode.

A destination with no legal route (the fault cut it off, or one
direction of a link died — the tree is built over bidirectionally-live
links only) is simply absent from the tables; the router falls back to
the base YX decision and the dead egress's fail-fast SLVERR admission
control reports the loss, exactly like recovery="none".
"""

from __future__ import annotations

import heapq

from repro.noc.topology import MESH_PORTS

#: Phase indices for the doubled routing graph.
UP, DOWN = 0, 1


def _surviving_adjacency(topology, dead, degraded):
    """Per-node ``[(port, neighbor, weight)]`` over surviving links.

    A link survives only if *both* directions are alive (up*/down*
    orientation is a property of the undirected link); ``weight`` is
    ``1 / factor`` for a width-degraded direction, 1 otherwise.
    """
    adj = [[] for _ in range(topology.n_nodes)]
    for src, port, dst, in_port in topology.directed_links():
        if (src, port) in dead or (dst, in_port) in dead:
            continue
        factor = degraded.get((src, port))
        weight = 1.0 / factor if factor else 1.0
        adj[src].append((port, dst, weight))
    for entries in adj:
        entries.sort()
    return adj


def _bfs_levels(adj, n_nodes):
    """BFS levels from root 0 over the surviving graph (-1 = cut off)."""
    levels = [-1] * n_nodes
    levels[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            for _port, nb, _w in adj[node]:
                if levels[nb] < 0:
                    levels[nb] = levels[node] + 1
                    nxt.append(nb)
        frontier = sorted(set(nxt))
    return levels


def _is_down(levels, src, dst):
    """Orientation of edge src→dst: down = away from the root."""
    return (levels[dst], dst) > (levels[src], src)


def _legal_dijkstra(adj, levels, src, start_phase):
    """Shortest legal continuations from ``(src, start_phase)``.

    Returns ``{dest: (dist, phase, first_port)}`` over the (node, phase)
    doubled graph — from DOWN phase only down edges may be taken.
    Deterministic: ties settle by (node, phase, first_port).
    """
    settled = set()
    best = {}
    heap = [(0.0, src, start_phase, -1)]
    while heap:
        d, node, phase, first = heapq.heappop(heap)
        key = (node, phase)
        if key in settled:
            continue
        settled.add(key)
        cur = best.get(node)
        if cur is None or (d, phase) < (cur[0], cur[1]):
            best[node] = (d, phase, first)
        for port, nb, w in adj[node]:
            down = _is_down(levels, node, nb)
            if phase == DOWN and not down:
                continue
            nb_phase = DOWN if down else UP
            if (nb, nb_phase) not in settled:
                heapq.heappush(heap, (d + w, nb, nb_phase,
                                      port if first < 0 else first))
    return best


def compute_fault_tables(topology, dead, degraded, dest_nodes):
    """Up*/down* routing tables over the surviving mesh.

    Parameters
    ----------
    topology:
        The mesh/torus the XPs form.
    dead:
        Set of dead ``(node, out_port)`` mesh egresses.
    degraded:
        ``(node, out_port) → width_factor`` for degraded egresses.
    dest_nodes:
        Nodes hosting at least one endpoint (only these need entries).

    Returns
    -------
    dict
        ``node → (up_table, down_table, down_in_ports)`` where each
        table maps dest node → egress port and ``down_in_ports`` is the
        frozenset of mesh ingress ports whose incident edge enters this
        node going down (traffic arriving there is in its down phase).
        Nodes cut off from everything get empty tables (YX fallback +
        fail-fast handles them).
    """
    n = topology.n_nodes
    adj = _surviving_adjacency(topology, dead, degraded)
    levels = _bfs_levels(adj, n)
    down_in = _down_in_ports(topology, levels, dead)
    tables = {}
    for node in range(n):
        up_tbl = {}
        down_tbl = {}
        if levels[node] >= 0:
            for phase, tbl in ((UP, up_tbl), (DOWN, down_tbl)):
                best = _legal_dijkstra(adj, levels, node, phase)
                for dest, (_d, _ph, port) in best.items():
                    if dest != node and dest in dest_nodes:
                        tbl[dest] = port
        tables[node] = (up_tbl, down_tbl, down_in[node])
    return tables


def _down_in_ports(topology, levels, dead):
    """Per-node frozenset of mesh ingress ports whose surviving incident
    edge enters the node going down."""
    out = [set() for _ in range(topology.n_nodes)]
    for src, port, dst, in_port in topology.directed_links():
        if (in_port < MESH_PORTS
                and levels[src] >= 0 and levels[dst] >= 0
                and not ((src, port) in dead or (dst, in_port) in dead)
                and _is_down(levels, src, dst)):
            out[dst].add(in_port)
    return [frozenset(s) for s in out]
