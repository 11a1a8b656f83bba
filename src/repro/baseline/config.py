"""The packet mesh's parameters, kept apart from the mesh that simulates
them (as :mod:`repro.noc.config` is from the AXI mesh), so a spec can
name a baseline point without importing :mod:`repro.baseline.network`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PacketMeshConfig:
    """Baseline NoC parameters (Noxim's knobs used in Fig. 4)."""

    rows: int = 4
    cols: int = 4
    n_vcs: int = 1
    buf_depth: int = 4
    flit_bytes: int = 4
    packet_flits: int = 8
    freq_hz: float = 1e9

    def __post_init__(self) -> None:
        if self.flit_bytes < 1:
            raise ValueError("flit_bytes must be >= 1")
        if self.packet_flits < 1:
            raise ValueError("packet_flits must be >= 1")

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols
