"""Fig. 2 — area vs. bisection bandwidth of 2×2 PATRONoC configurations
against ESP-NoC, plus the 34 % area-efficiency headline."""

from __future__ import annotations

from repro.baseline.esp import esp_point
from repro.eval.report import ExperimentResult
from repro.models.area import mesh_area_kge
from repro.noc.bandwidth import bisection_gbit_s
from repro.noc.config import NocConfig

#: The paper's plotted 2×2 configurations (AXI_AW_DW_IW, MOT=1).
FIG2_CONFIGS = (
    "AXI_32_32_2",
    "AXI_32_64_2",
    "AXI_32_128_2",
    "AXI_32_512_2",
    "AXI_64_64_2",
    "AXI_64_128_2",
)

#: Anchors stated in the paper text (label → kGE).
PAPER_AREAS = {"AXI_32_32_2": 174.0, "AXI_32_512_2": 830.0}


def layout(measure, results) -> ExperimentResult:
    """Analytic: nothing is measured, so both arguments go unread."""
    result = ExperimentResult(
        "fig2", "2x2 mesh: area vs bisection bandwidth (vs ESP-NoC)")
    sec = result.section(
        "PATRONoC 2x2 configurations (MOT=1)",
        ["config", "area_kGE", "bisection_Gbit_s", "eff_Gbps_per_kGE",
         "paper_kGE"])
    points = {}
    for label in FIG2_CONFIGS:
        cfg = NocConfig.from_label(label, rows=2, cols=2, max_outstanding=1)
        area = mesh_area_kge(cfg)
        bw = bisection_gbit_s(cfg)
        points[label] = (area, bw)
        sec.add(label, area, bw, bw / area, PAPER_AREAS.get(label, "-"))

    esp = result.section(
        "ESP-NoC baseline (2x2)",
        ["config", "area_kGE", "bisection_Gbit_s", "eff_Gbps_per_kGE"])
    esp32 = esp_point(32)
    esp64 = esp_point(64)
    for p in (esp32, esp64):
        esp.add(p.label, p.area_kge, p.bisection_gbit_s, p.area_efficiency)

    area64, bw64 = points["AXI_32_64_2"]
    ratio_area = esp32.area_kge / area64
    gain = (bw64 / area64) / esp32.area_efficiency - 1.0
    headline = result.section(
        "headline comparison (AXI_32_64_2 vs ESP-NoC 32b)",
        ["metric", "ours", "paper"])
    headline.add("ESP area overhead", f"{100 * (ratio_area - 1):.0f}%", "68%")
    headline.add("ESP bandwidth advantage",
                 f"{100 * (esp32.bisection_gbit_s / bw64 - 1):.0f}%", "25%")
    headline.add("PATRONoC area-efficiency gain", f"{100 * gain:.0f}%", "34%")
    result.note("bisection counted unidirectionally (Fig. 2/3 convention)")
    return result
