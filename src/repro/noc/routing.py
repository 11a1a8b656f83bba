"""Routing-table generation — the paper's "automated script [that]
generates the address-based routing table for each XP".

Two equivalent routing modes exist (tests assert their equivalence):

* **computed** (default, fast): the destination endpoint is resolved
  once at injection from the :class:`~repro.axi.memory_map.MemoryMap`
  and carried in the address beat; each XP compares coordinates.
* **table**: each XP holds its generated ``(base, end) → egress port``
  table and re-decodes the *address* at every hop, exactly like the RTL.

Both implement the same source-based YX dimension-ordered decision.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.axi.beats import AddrBeat
from repro.axi.memory_map import MemoryMap
from repro.noc.topology import Mesh2D


@dataclass(frozen=True)
class RouteRule:
    """One row of an XP's address-based routing table."""

    base: int
    end: int
    port: int


class XpRouteTable:
    """The generated address → egress-port table of a single XP."""

    def __init__(self, node: int, rules: list[RouteRule]):
        ordered = sorted(rules, key=lambda r: r.base)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.base < prev.end:
                raise ValueError(
                    f"XP {node}: overlapping route rules at {cur.base:#x}")
        self.node = node
        self._rules = ordered
        self._bases = [r.base for r in ordered]

    def port_for(self, addr: int) -> int | None:
        """Egress port owning ``addr``, or None (unmapped → DECERR)."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            rule = self._rules[i]
            if rule.base <= addr < rule.end:
                return rule.port
        return None


def generate_route_tables(
    topology: Mesh2D,
    memory_map: MemoryMap,
    endpoint_nodes: dict[int, int],
    local_ports: dict[int, int],
) -> dict[int, XpRouteTable]:
    """Generate every XP's address-based routing table.

    Parameters
    ----------
    topology:
        The mesh/torus/ring the XPs form.
    memory_map:
        Address regions owned by slave endpoints.
    endpoint_nodes:
        endpoint index → node hosting it.
    local_ports:
        endpoint index → XP local port it hangs off.

    Returns
    -------
    dict
        node → :class:`XpRouteTable`.
    """
    tables: dict[int, list[RouteRule]] = {n: [] for n in range(topology.n_nodes)}
    for region in memory_map.regions:
        dest_node = endpoint_nodes[region.endpoint]
        for node in range(topology.n_nodes):
            if node == dest_node:
                port = local_ports[region.endpoint]
            else:
                port = topology.route_next(node, dest_node)
            tables[node].append(RouteRule(region.base, region.end, port))
    return {node: XpRouteTable(node, rules) for node, rules in tables.items()}


class ComputedRouter:
    """Routing mode "computed": coordinate comparison on ``beat.dest``.

    In reroute mode (DESIGN.md §10) the fault controller installs
    ``fault_table`` — the node's up*/down* tables over the surviving
    links (:mod:`repro.noc.reroute`).  ``None`` (the steady state and
    the whole life of a fault-free run) keeps the pristine YX path.
    """

    __slots__ = ("node", "topology", "endpoint_nodes", "local_ports",
                 "fault_table", "fault_stats")

    def __init__(self, node: int, topology: Mesh2D,
                 endpoint_nodes: dict[int, int], local_ports: dict[int, int]):
        self.node = node
        self.topology = topology
        self.endpoint_nodes = endpoint_nodes
        self.local_ports = local_ports
        #: (up_table, down_table, down_in_ports) | None — see reroute.py.
        self.fault_table = None
        self.fault_stats = None

    def __call__(self, beat: AddrBeat, in_port: int) -> int | None:
        dest_node = self.endpoint_nodes.get(beat.dest)
        if dest_node is None:
            return None
        if dest_node == self.node:
            return self.local_ports[beat.dest]
        ft = self.fault_table
        if ft is not None:
            up_tbl, down_tbl, down_in = ft
            tbl = down_tbl if in_port in down_in else up_tbl
            port = tbl.get(dest_node)
            if port is not None:
                if port != self.topology.route_next(self.node, dest_node):
                    self.fault_stats.reroute_decisions += 1
                return port
        return self.topology.route_next(self.node, dest_node)


class TableRouter:
    """Routing mode "table": per-hop address decode, as in the RTL."""

    __slots__ = ("table",)

    def __init__(self, table: XpRouteTable):
        self.table = table

    def __call__(self, beat: AddrBeat, in_port: int) -> int | None:
        return self.table.port_for(beat.addr)
