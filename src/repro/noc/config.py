"""PATRONoC design-time parameters (Table I of the paper) and validation.

A :class:`NocConfig` captures one point of the paper's design space plus
the testbench knobs the paper leaves unspecified (endpoint overheads —
see DESIGN.md §6).  Configurations are immutable; derive variants with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.axi.types import (
    validate_addr_width,
    validate_data_width,
    validate_id_width,
    validate_mot,
)


@dataclass(frozen=True)
class NocConfig:
    """One PATRONoC instance of the Table I parameter space.

    Parameters (design time, Table I)
    ---------------------------------
    rows, cols:
        Mesh dimension N × M.
    data_width:
        DW in bits, 8..1024 (power of two).
    addr_width:
        AW in bits, 32 or 64.  Only the area model reads it; a simulated
        point (``TopologySpec``) takes 32.
    id_width:
        IW in bits, 1..16; sets the per-egress remap pool to ``2**IW``.
    max_outstanding:
        MOT, 1..128; cap on in-flight transactions per direction at the
        DMA endpoints and per XP egress.
    full_connectivity:
        XBAR connectivity: False = partial (mesh turns only, the
        default), True = fully connected.

    Parameters (testbench, §IV defaults)
    ------------------------------------
    freq_hz:
        Endpoint and NoC clock (1 GHz everywhere in the paper).
    dma_issue_overhead:
        Cycles a DMA engine spends per burst on descriptor processing
        (calibrated to the paper's small-burst saturation anchor, see
        DESIGN.md §6).
    memory_latency:
        AXI memory access latency in cycles.
    hop_latency:
        Cycles per XP-to-XP link per channel (switch traversal plus the
        register slice; 2 matches the RTL's cut-on-every-channel timing
        closure at 1 GHz).

    The memories' MOT (16) and each XP's W grant-order depth (8) are
    the ``MemorySlave`` and ``AxiCrossbar`` defaults.
    """

    rows: int = 4
    cols: int = 4
    data_width: int = 32
    addr_width: int = 32
    id_width: int = 4
    max_outstanding: int = 8
    full_connectivity: bool = False
    freq_hz: float = 1e9
    dma_issue_overhead: int = 20
    memory_latency: int = 5
    hop_latency: int = 2

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"mesh dimension must be >= 1x1, got "
                             f"{self.rows}x{self.cols}")
        validate_data_width(self.data_width)
        validate_addr_width(self.addr_width)
        validate_id_width(self.id_width)
        validate_mot(self.max_outstanding)
        if self.freq_hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.freq_hz}")
        if self.dma_issue_overhead < 0:
            raise ValueError("dma_issue_overhead must be >= 0")
        if self.memory_latency < 0:
            raise ValueError("memory_latency must be >= 0")
        if self.hop_latency < 1:
            raise ValueError("hop_latency must be >= 1")

    # ------------------------------------------------------------------
    @property
    def beat_bytes(self) -> int:
        """Bus width in bytes (payload per beat per cycle per link)."""
        return self.data_width // 8

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols

    @property
    def label(self) -> str:
        """The paper's configuration naming: ``AXI_AW_DW_IW``."""
        return f"AXI_{self.addr_width}_{self.data_width}_{self.id_width}"

    def with_(self, **changes) -> "NocConfig":
        """A modified copy (thin wrapper over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    # -- the two §IV evaluation configurations -------------------------
    @classmethod
    def slim(cls, rows: int = 4, cols: int = 4) -> "NocConfig":
        """The §IV *slim* NoC: DW=32, AW=32, IW=4, MOT=8."""
        return cls(rows=rows, cols=cols, data_width=32, addr_width=32,
                   id_width=4, max_outstanding=8)

    @classmethod
    def wide(cls, rows: int = 4, cols: int = 4) -> "NocConfig":
        """The §IV *wide* NoC: DW=512, AW=32, IW=4, MOT=8."""
        return cls(rows=rows, cols=cols, data_width=512, addr_width=32,
                   id_width=4, max_outstanding=8)

    @classmethod
    def from_label(cls, label: str, rows: int = 2, cols: int = 2,
                   **kwargs) -> "NocConfig":
        """Parse the paper's ``AXI_AW_DW_IW`` naming into a config."""
        parts = label.split("_")
        if len(parts) != 4 or parts[0] != "AXI":
            raise ValueError(f"expected 'AXI_<AW>_<DW>_<IW>', got {label!r}")
        return cls(rows=rows, cols=cols, addr_width=int(parts[1]),
                   data_width=int(parts[2]), id_width=int(parts[3]), **kwargs)
