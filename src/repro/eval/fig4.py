"""Fig. 4 — uniform random traffic: throughput vs. injected load for the
slim PATRONoC at five DMA burst-length caps, against the Noxim-class
baseline at (VC=1, buf=4) and (VC=4, buf=32).

Conventions (DESIGN.md §6): PATRONoC throughput is the 16-endpoint
aggregate of delivered payload; the baseline is reported in Noxim's
per-node convention (flits/cycle/node × 4 B), which is what the paper's
1.6/2.25 GiB/s curves correspond to.  Traffic is DMA writes
(``read_fraction=0``), matching the push-DMA testbench.

Every point is one :class:`~repro.scenarios.spec.Scenario`; the figure
is a grid instantiation over {load × burst cap} ∪ {load × baseline
config}.
"""

from __future__ import annotations

from repro.eval.experiments import measure_points
from repro.eval.report import ExperimentResult
from repro.scenarios import MeasureSpec, Scenario, TopologySpec, TrafficSpec

BURST_CAPS = (4, 100, 1000, 10000, 64000)
FULL_LOADS = (0.0001, 0.001, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
QUICK_LOADS = (0.01, 0.2, 1.0)
BASELINE_CONFIGS = ((1, 4), (4, 32))

#: Saturation values stated in the paper (GiB/s).
PAPER_SATURATION = {
    "noxim VC=1,Buf=4": 1.6,
    "noxim VC=4,Buf=32": 2.25,
    "burst<4": 1.5,
    "burst<10000": 19.0,
    "burst<64000": 19.0,
}


def run(measure: MeasureSpec | bool | None = None, seed: int = 1,
        cache: str = "off", store=None) -> ExperimentResult:
    measure = MeasureSpec.coerce(measure)
    loads = QUICK_LOADS if measure.is_quick else FULL_LOADS
    points = [Scenario(topology=TopologySpec.slim(),
                       traffic=TrafficSpec.uniform(load, burst),
                       measure=measure, seed=seed)
              for load in loads for burst in BURST_CAPS]
    points += [Scenario(topology=TopologySpec.baseline(n_vcs, buf),
                        traffic=TrafficSpec.uniform(load, 1),
                        measure=measure, seed=seed)
               for load in loads for n_vcs, buf in BASELINE_CONFIGS]
    measured = iter(measure_points(points, cache, store))
    result = ExperimentResult(
        "fig4", "uniform random traffic: throughput vs injected load "
        "(slim 4x4 PATRONoC vs packet baseline)")

    curves = result.section(
        "PATRONoC slim (DW=32, IW=4, MOT=8), aggregate GiB/s",
        ["load"] + [f"burst<{b}" for b in BURST_CAPS])
    series: dict[str, list[float]] = {f"burst<{b}": [] for b in BURST_CAPS}
    for load in loads:
        row = [load]
        for _burst in BURST_CAPS:
            point = next(measured)
            series[point.label].append(point.throughput_gib_s)
            row.append(point.throughput_gib_s)
        curves.add(*row)

    base = result.section(
        "baseline (Noxim convention, per-node GiB/s)",
        ["load"] + [f"VC={v},Buf={b}" for v, b in BASELINE_CONFIGS])
    base_series: dict[str, list[float]] = {
        f"VC={v},Buf={b}": [] for v, b in BASELINE_CONFIGS}
    for load in loads:
        row = [load]
        for _config in BASELINE_CONFIGS:
            point = next(measured)
            base_series[point.label].append(point.throughput_gib_s)
            row.append(point.throughput_gib_s)
        base.add(*row)

    sat = result.section("saturation summary",
                         ["series", "measured_GiB_s", "paper_GiB_s"])
    for name, values in series.items():
        sat.add(name, max(values), PAPER_SATURATION.get(name, "-"))
    for name, values in base_series.items():
        sat.add(f"noxim {name}", max(values),
                PAPER_SATURATION.get(f"noxim {name}", "-"))
    best_patronoc = max(max(v) for v in series.values())
    best_baseline = max(max(v) for v in base_series.values())
    sat.add("PATRONoC best / baseline best",
            best_patronoc / best_baseline, 8.4)
    result.note("PATRONoC traffic: DMA writes, transfer length uniform in "
                "[1, cap); baseline: 8-flit packets, 32-bit flits")
    return result
