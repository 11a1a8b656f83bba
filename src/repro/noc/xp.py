"""The crosspoint (XP): PATRONoC's routing element (Fig. 1, bottom-left).

An XP is an :class:`~repro.axi.xbar.AxiCrossbar` whose ports are the
four mesh directions plus one local port per attached endpoint, wired
with the partial connectivity that YX dimension-ordered routing actually
uses (Table I "XBAR Connectivity: Partial (default)").
"""

from __future__ import annotations

from repro.axi.xbar import AxiCrossbar, RouteFn
from repro.noc.config import NocConfig
from repro.noc.topology import (
    LOCAL_PORT_BASE,
    MESH_PORTS,
    PORT_E,
    PORT_N,
    PORT_S,
    PORT_W,
    Mesh2D,
)
from repro.sim.stats import CounterSet


def partial_connectivity(ports_present: list[int]) -> set[tuple[int, int]]:
    """The (ingress, egress) pairs YX routing can use.

    * local ingress → every egress (including the same local port:
      "traffic to same endpoint using the local port of switch", Fig. 5);
    * N/S ingress → opposite direction, E/W (the single Y→X turn), local;
    * E/W ingress → opposite direction, local (X never turns back to Y);
    * never a U-turn on a mesh port.
    """
    pairs: set[tuple[int, int]] = set()
    locals_ = [p for p in ports_present if p >= LOCAL_PORT_BASE]
    for i in ports_present:
        for j in ports_present:
            if i >= LOCAL_PORT_BASE:
                pairs.add((i, j))
            elif i in (PORT_N, PORT_S):
                if j in (PORT_N, PORT_S):
                    if j != i:  # continue through, no U-turn
                        pairs.add((i, j))
                elif j in (PORT_E, PORT_W) or j in locals_:
                    pairs.add((i, j))
            else:  # i in (E, W): X phase may only continue or exit
                if (i, j) in ((PORT_E, PORT_W), (PORT_W, PORT_E)) or j in locals_:
                    pairs.add((i, j))
    return pairs


def full_connectivity(ports_present: list[int]) -> set[tuple[int, int]]:
    """Every ingress wired to every egress (Table I "Fully connected")."""
    return {(i, j) for i in ports_present for j in ports_present}


def build_crosspoint(
    name: str,
    node: int,
    topology: Mesh2D,
    cfg: NocConfig,
    n_local_ports: int,
    route: RouteFn,
    counters: CounterSet | None = None,
    force_full: bool = False,
) -> AxiCrossbar:
    """Instantiate one XP as a partially/fully connected crossbar.

    The crossbar's port count is ``4 + n_local_ports``; mesh ports that
    have no neighbour (mesh edges) simply stay unconnected, mirroring
    Fig. 1 where corner XPs are 3-master/3-slave and centre XPs
    5-master/5-slave.  ``force_full`` selects the fully-connected wiring
    regardless of the config — reroute mode's up*/down* detours take
    turns the YX-partial wiring omits (the connectivity set is only a
    wiring *check*, so widening it never changes fault-free behaviour).
    """
    n_ports = MESH_PORTS + n_local_ports
    present = [
        p for p in (PORT_N, PORT_E, PORT_S, PORT_W)
        if topology.neighbor(node, p) is not None
    ] + [LOCAL_PORT_BASE + k for k in range(n_local_ports)]
    if cfg.full_connectivity or force_full:
        connectivity = full_connectivity(present)
    else:
        connectivity = partial_connectivity(present)
    return AxiCrossbar(
        name,
        n_in=n_ports,
        n_out=n_ports,
        route=route,
        id_width=cfg.id_width,
        connectivity=connectivity,
        max_outstanding=cfg.max_outstanding,
        counters=counters,
    )
