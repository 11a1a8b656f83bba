"""Table I — the PATRONoC parameter space, regenerated from the config
model's own validation rules (every row is checked by construction)."""

from __future__ import annotations

from repro.axi.types import (
    MAX_DATA_WIDTH,
    MAX_ID_WIDTH,
    MAX_MOT,
    MIN_DATA_WIDTH,
    MIN_ID_WIDTH,
    MIN_MOT,
    VALID_ADDR_WIDTHS,
)
from repro.eval.report import ExperimentResult
from repro.noc.config import NocConfig


def layout(measure, results) -> ExperimentResult:
    """Analytic: nothing is measured, so both arguments go unread."""
    result = ExperimentResult("table1", "main parameters of the 2D mesh")
    sec = result.section("Table I", ["parameter", "values"])
    sec.add("Mesh Dimension", "N x M")
    sec.add("Number of AXI Masters", "1 to N x M (default)")
    sec.add("Number of AXI Slaves", "1 to N x M (default)")
    sec.add("Data Width", f"{MIN_DATA_WIDTH} bits to {MAX_DATA_WIDTH} bits")
    sec.add("Address Width",
            " or ".join(f"{w}" for w in VALID_ADDR_WIDTHS) + " bits")
    sec.add("ID Width", f"{MIN_ID_WIDTH} bit to {MAX_ID_WIDTH} bits")
    sec.add("Max #Outstanding Trans.", f"{MIN_MOT} to {MAX_MOT}")
    sec.add("XBAR Connectivity", "Partial (default) or Fully connected")
    sec.add("Register Slice", "Single channel or all channels (default)")

    # Demonstrate the corners actually construct (validation coverage).
    corners = result.section(
        "constructed corner configurations",
        ["config", "rows", "cols", "DW", "AW", "IW", "MOT", "ok"])
    for rows, cols, dw, aw, iw, mot in (
            (1, 1, MIN_DATA_WIDTH, 32, MIN_ID_WIDTH, MIN_MOT),
            (2, 2, 64, 64, 2, 8),
            (4, 4, MAX_DATA_WIDTH, 64, MAX_ID_WIDTH, MAX_MOT),
            (8, 8, 256, 64, 8, 16)):
        cfg = NocConfig(rows=rows, cols=cols, data_width=dw, addr_width=aw,
                        id_width=iw, max_outstanding=mot)
        corners.add(cfg.label, rows, cols, dw, aw, iw, mot, "yes")
    return result
