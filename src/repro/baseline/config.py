"""The packet mesh's parameters, kept apart from the mesh that simulates
them (as :mod:`repro.noc.config` is from the AXI mesh), so a spec can
name a baseline point without importing :mod:`repro.baseline.network`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Noxim's flit width and packet length in Fig. 4: 4-byte flits,
#: 8-flit packets (one header flit).
FLIT_BYTES = 4
PACKET_FLITS = 8


@dataclass(frozen=True)
class PacketMeshConfig:
    """Baseline NoC parameters (Noxim's knobs used in Fig. 4)."""

    rows: int = 4
    cols: int = 4
    n_vcs: int = 1
    buf_depth: int = 4
    freq_hz: float = 1e9

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "n_vcs", "buf_depth"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.freq_hz <= 0:
            raise ValueError(f"freq_hz must be > 0, got {self.freq_hz}")

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols
