"""Fig. 3 — 4×4 mesh scaling: area vs. bisection bandwidth (left) and
area vs. maximum outstanding transactions (right)."""

from __future__ import annotations

from repro.eval.report import ExperimentResult
from repro.models.area import mesh_area_kge
from repro.noc.bandwidth import bisection_gbit_s
from repro.noc.config import NocConfig

#: The paper's plotted 4×4 configurations (IW=4 for 16 masters).
FIG3_CONFIGS = (
    "AXI_32_32_4",
    "AXI_32_64_4",
    "AXI_32_128_4",
    "AXI_32_512_4",
    "AXI_64_64_4",
)

MOT_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128)


def run(measure=None, seed: int = 1, cache: str = "off",
        store=None) -> ExperimentResult:
    del measure, seed, cache, store  # analytic: nothing is simulated
    result = ExperimentResult(
        "fig3", "4x4 mesh scaling: area vs bandwidth, area vs MOT")
    left = result.section(
        "4x4 configurations (MOT=1)",
        ["config", "area_kGE", "bisection_Gbit_s", "eff_Gbps_per_kGE"])
    for label in FIG3_CONFIGS:
        cfg = NocConfig.from_label(label, rows=4, cols=4, max_outstanding=1)
        area = mesh_area_kge(cfg)
        bw = bisection_gbit_s(cfg)
        left.add(label, area, bw, bw / area)

    right = result.section(
        "area vs MOT (4x4, DW=64, IW=4)",
        ["MOT", "area_kGE", "paper_kGE"])
    paper_ref = {1: "~1000", 128: "~2200"}
    for mot in MOT_SWEEP:
        cfg = NocConfig.from_label("AXI_32_64_4", rows=4, cols=4,
                                   max_outstanding=mot)
        right.add(mot, mesh_area_kge(cfg), paper_ref.get(mot, "-"))

    # The §III scaling statements, derived from the model.
    cfg_2x2 = NocConfig.from_label("AXI_32_64_2", 2, 2, max_outstanding=1)
    cfg_4x4 = NocConfig.from_label("AXI_32_64_4", 4, 4, max_outstanding=1)
    a22, a44 = mesh_area_kge(cfg_2x2), mesh_area_kge(cfg_4x4)
    eff22 = bisection_gbit_s(cfg_2x2) / a22
    eff44 = bisection_gbit_s(cfg_4x4) / a44
    scale = result.section("scaling statements (similar AW/DW config)",
                           ["metric", "ours", "paper"])
    scale.add("per-endpoint area overhead 4x4 vs 2x2",
              f"{100 * (a44 / 4 / a22 - 1):.0f}%", "~32%")
    scale.add("area-efficiency drop 4x4 vs 2x2",
              f"{100 * (1 - eff44 / eff22):.0f}%", "~25%")
    return result
