"""Table II — comparison of PATRONoC with state-of-the-art NoCs in SoCs.

The literature rows are the paper's citations (static facts); the
PATRONoC row's NoC bandwidth is *measured* from this reproduction: the
peak aggregate throughput of the wide 4×4 under the max-1-hop synthetic
pattern, normalised to 1 GHz — the same number behind the paper's
2700 Gbps entry (345 GiB/s × 8 ≈ 2760 Gbit/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.experiments import measure_points
from repro.eval.report import ExperimentResult
from repro.scenarios import MeasureSpec, Scenario, TopologySpec, TrafficSpec
from repro.traffic.synthetic import MAX_ONE_HOP


@dataclass(frozen=True)
class ComparisonRow:
    work: str
    open_source: bool
    full_axi: bool
    burst_support: bool
    configurable: str
    noc_bw_gbps: str


LITERATURE = (
    ComparisonRow("SpiNNaker", False, False, False, "no", "5 (async)"),
    ComparisonRow("Reza et al", False, False, False, "no", "4000"),
    ComparisonRow("MCM", False, False, False, "no", "35"),
    ComparisonRow("MC-NoC", False, False, False, "no", "2368"),
    ComparisonRow("NeuNoC", False, False, False, "no", "-"),
    ComparisonRow("TETRIS", False, False, False, "no", "-"),
    ComparisonRow("PUMA", False, False, False, "no", "-"),
    ComparisonRow("OpenSoC", True, False, False, "yes", "-"),
    ComparisonRow("ESP-SoC", True, False, False, "limited", "351"),
    ComparisonRow("Celerity", True, False, False, "limited", "80"),
    ComparisonRow("FlexNoC", False, False, False, "-", "-"),
    ComparisonRow("Constellation", True, False, False, "yes", "-"),
    ComparisonRow("Andreas et al. [9]", True, True, True, "yes", "2146"),
)


def run(measure: MeasureSpec | bool | None = None, seed: int = 1,
        cache: str = "off", store=None) -> ExperimentResult:
    measure = MeasureSpec.coerce(measure)
    result = ExperimentResult(
        "table2", "comparison of PATRONoC with state-of-the-art NoCs")
    sec = result.section(
        "Table II", ["work", "open_source", "full_AXI", "burst", "config",
                     "NoC_BW_Gbps"])
    for row in LITERATURE:
        sec.add(row.work, _mark(row.open_source), _mark(row.full_axi),
                _mark(row.burst_support), row.configurable, row.noc_bw_gbps)
    [point] = measure_points([Scenario(
        topology=TopologySpec.wide(),
        traffic=TrafficSpec.synthetic(MAX_ONE_HOP.key, 64000),
        measure=measure, seed=seed)], cache, store)
    measured_gbps = point.throughput_gib_s * 8  # GiB/s → Gibit/s ≈ Gbps
    sec.add("PATRONoC (this repro)", "yes", "yes", "yes", "yes",
            f"{measured_gbps:.0f}")
    result.note("paper's PATRONoC entry: 2700 Gbps (345 GiB/s peak of the "
                "wide NoC under the max-1-hop pattern, normalised to 1 GHz)")
    return result


def _mark(flag: bool) -> str:
    return "yes" if flag else "no"
