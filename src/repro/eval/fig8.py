"""Fig. 8 — DNN workload traffic: aggregate throughput of the three
ResNet-34 workloads (distributed training, parallelized convolution,
pipelined convolution) on the slim and wide 4×4 PATRONoC.

Each bar is one dnn-traffic :class:`~repro.scenarios.spec.Scenario`;
with the stock presets, windows are workload-derived because pipeline
fill and batch structure set the sensible window, not a fixed preset —
explicitly pinned windows are honored per-field."""

from __future__ import annotations

from repro.eval.report import ExperimentResult
from repro.scenarios import (MeasureSpec, Result, Scenario, TopologySpec,
                             TrafficSpec)

WORKLOAD_ORDER = ("train", "par", "pipe")
TOPOLOGIES = (("slim", TopologySpec.slim()), ("wide", TopologySpec.wide()))
TITLES = {"train": "Distributed Training",
          "par": "Parallelized Convolution",
          "pipe": "Pipelined Convolution"}

#: Fig. 8 bar values (GiB/s).
PAPER_THROUGHPUT = {
    ("slim", "train"): 5.18, ("slim", "par"): 4.27, ("slim", "pipe"): 19.17,
    ("wide", "train"): 83.1, ("wide", "par"): 68.5, ("wide", "pipe"): 310.7,
}


def points(measure: MeasureSpec, seed: int) -> list[Scenario]:
    return [Scenario(topology=topo, traffic=TrafficSpec.dnn(key),
                     measure=measure, seed=seed)
            for _label, topo in TOPOLOGIES for key in WORKLOAD_ORDER]


def layout(measure: MeasureSpec, results: list[Result]) -> ExperimentResult:
    measured = iter(results)
    result = ExperimentResult(
        "fig8", "DNN workload traffic: throughput on slim and wide 4x4")
    for label, topo in TOPOLOGIES:
        sec = result.section(
            f"{label} NoC (DW={topo.data_width})",
            ["workload", "throughput_GiB_s", "paper_GiB_s", "ratio"])
        for key in WORKLOAD_ORDER:
            point = next(measured)
            paper = PAPER_THROUGHPUT[(label, key)]
            sec.add(TITLES[key], point.throughput_gib_s, paper,
                    point.throughput_gib_s / paper)
    result.note("training measured over one full batch (read shard, "
                "fwd/bwd, tree reduction, L2 write-back, model "
                "re-replication); par/pipe measured in steady state")
    if measure.is_quick:
        result.note("quick mode: model scaled to shrink=0.95, input 112x112")
    return result
