"""Fig. 6 — NoC utilization at maximum injected load for the three
synthetic patterns (all-global / max-2-hop / max-1-hop) on the slim and
wide 4×4 PATRONoC, across the five burst-length caps.

Each bar is one :class:`~repro.scenarios.spec.Scenario` over
{config × pattern × burst cap}."""

from __future__ import annotations

from repro.eval.experiments import measure_points
from repro.eval.report import ExperimentResult
from repro.noc.bandwidth import bisection_gib_s
from repro.scenarios import MeasureSpec, Scenario, TopologySpec, TrafficSpec
from repro.traffic.synthetic import ALL_GLOBAL, MAX_ONE_HOP, MAX_TWO_HOP

BURST_CAPS = (4, 100, 1000, 10000, 64000)
QUICK_CAPS = (4, 1000, 64000)
PATTERNS = (ALL_GLOBAL, MAX_TWO_HOP, MAX_ONE_HOP)

#: Fig. 6's utilization bars (percent), indexed [noc][pattern][burst cap].
PAPER_UTILIZATION = {
    ("slim", "all_global"): {4: 4.70, 100: 12.25, 1000: 14.34,
                             10000: 16.03, 64000: 18.75},
    ("slim", "two_hop"): {4: 4.70, 100: 42.50, 1000: 51.50,
                          10000: 53.75, 64000: 53.40},
    ("slim", "one_hop"): {4: 4.70, 100: 59.37, 1000: 67.81,
                          10000: 69.68, 64000: 70.30},
    ("wide", "all_global"): {4: 0.29, 100: 5.80, 1000: 12.10,
                             10000: 14.60, 64000: 18.55},
    ("wide", "two_hop"): {4: 0.29, 100: 5.85, 1000: 38.86,
                          10000: 49.80, 64000: 45.90},
    ("wide", "one_hop"): {4: 0.29, 100: 5.85, 1000: 52.70,
                          10000: 66.20, 64000: 67.40},
}


def run(measure: MeasureSpec | bool | None = None, seed: int = 1,
        cache: str = "off", store=None) -> ExperimentResult:
    measure = MeasureSpec.coerce(measure)
    caps = QUICK_CAPS if measure.is_quick else BURST_CAPS
    topologies = (("slim", TopologySpec.slim()), ("wide", TopologySpec.wide()))
    measured = iter(measure_points(
        [Scenario(topology=topo, traffic=TrafficSpec.synthetic(p.key, cap),
                  measure=measure, seed=seed)
         for _label, topo in topologies for p in PATTERNS for cap in caps],
        cache, store))
    result = ExperimentResult(
        "fig6", "synthetic patterns: utilization at maximum injected load")
    for label, topo in topologies:
        bisection = bisection_gib_s(topo.noc_config())
        for pattern in PATTERNS:
            sec = result.section(
                f"{label} NoC ({bisection:.0f} GiB/s bisection): "
                f"{pattern.title}",
                ["burst_cap", "throughput_GiB_s", "utilization_pct",
                 "paper_pct"])
            paper = PAPER_UTILIZATION[(label, pattern.key)]
            for cap in caps:
                point = next(measured)
                sec.add(cap, point.throughput_gib_s,
                        point.utilization_pct, paper.get(cap, "-"))
    result.note("utilization = aggregate throughput / bidirectional "
                "bisection bandwidth (the paper's Fig. 6 definition); "
                "local-heavy patterns can legitimately exceed 100%")
    result.note("traffic: 50/50 DMA reads/writes at load 1.0")
    return result
