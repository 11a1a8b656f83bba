"""NoC endpoints: DMA engine masters and AXI memory slaves."""
