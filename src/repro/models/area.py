"""Calibrated analytic area model for PATRONoC meshes (kGE).

The paper's Figs. 2 and 3 are Synopsys DC synthesis results; without the
tool and PDK we reproduce them with a structural model whose terms track
the RTL's area contributors and whose coefficients are calibrated to
every absolute number the paper states (DESIGN.md §6):

* switch datapath — crossbar muxes grow with (ports² × data width);
* per-port overhead — address decode (∝ AW), handshake/control and ID
  remap base cost (∝ IW);
* transaction tracking — grows near-linearly with MOT (Fig. 3 right);
* a per-mesh fixed part (configuration/global wiring).

Calibration anchors:

==========================================  =========
2×2  AXI_32_32_2,  MOT=1                    174 kGE
2×2  AXI_32_512_2, MOT=1                    830 kGE
4×4  AXI_32_64_4,  MOT=1                    ≈1000 kGE
4×4  AXI_32_64_4,  MOT=128                  ≈2200 kGE
==========================================  =========
"""

from __future__ import annotations

from repro.noc.config import NocConfig
from repro.noc.topology import LOCAL_PORT_BASE, MESH_PORTS, Mesh2D

#: kGE per (port² · data-width bit): crossbar mux datapath.
K_SWITCH = 656.0 / 17280.0  # = 0.037963, from the two 2×2 anchors

#: kGE per port at the reference AW=32, IW=2 point.
K_PORT = 3.3575

#: Per-mesh fixed overhead, kGE.
K_MESH = 89.98

#: kGE per port per (MOT-1)^0.85, scaled by sqrt(DW/64) and sqrt(IW/2):
#: transaction tracking tables (Fig. 3 right).
K_MOT = 0.21585
MOT_EXP = 0.85


def xp_port_count(topology: Mesh2D, node: int, n_local: int = 1) -> int:
    """Ports of the XP at ``node``: connected mesh directions + locals."""
    mesh_ports = sum(
        1 for p in range(MESH_PORTS) if topology.neighbor(node, p) is not None)
    return mesh_ports + n_local


def _port_sums(cfg: NocConfig, locals_per_node: list[int] | None = None
               ) -> tuple[float, float]:
    topo = Mesh2D(cfg.rows, cfg.cols)
    if locals_per_node is None:
        locals_per_node = [1] * topo.n_nodes
    p_sum = 0.0
    p2_sum = 0.0
    for node in range(topo.n_nodes):
        p = xp_port_count(topo, node, locals_per_node[node])
        p_sum += p
        p2_sum += p * p
    return p_sum, p2_sum


def mesh_area_kge(cfg: NocConfig,
                  locals_per_node: list[int] | None = None) -> float:
    """Total standard-cell area of the PATRONoC mesh in kGE."""
    p_sum, p2_sum = _port_sums(cfg, locals_per_node)
    switch = K_SWITCH * p2_sum * cfg.data_width
    port_factor = 0.5 + 0.25 * (cfg.addr_width / 32.0) + 0.25 * (cfg.id_width / 2.0)
    ports = K_PORT * p_sum * port_factor
    mot = (K_MOT * p_sum * (cfg.max_outstanding - 1) ** MOT_EXP
           * (cfg.data_width / 64.0) ** 0.5 * (cfg.id_width / 2.0) ** 0.5)
    connectivity_scale = 1.15 if cfg.full_connectivity else 1.0
    return K_MESH + (switch + ports) * connectivity_scale + mot

