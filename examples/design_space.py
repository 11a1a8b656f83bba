#!/usr/bin/env python
"""Design-space exploration: the workflow §VI says PATRONoC enables.

Sweeps data width and MOT for a 4x4 mesh as one declarative
:class:`~repro.scenarios.sweep.Sweep` — saturation points run across
worker processes — and combines the measured throughput with the
calibrated area model (Figs. 2/3) into the efficiency frontier: how a
designer would size a NoC for a target bandwidth within an area budget.
"""

from itertools import product

from repro import (
    MeasureSpec,
    NocConfig,
    Scenario,
    TopologySpec,
    TrafficSpec,
    run_sweep,
    sweep,
)
from repro.models.area import mesh_area_kge
from repro.models.power import mesh_power_mw
from repro.noc.bandwidth import bisection_gib_s


def main() -> None:
    grid = list(product((32, 64, 128, 512), (1, 8)))
    base = Scenario(
        traffic=TrafficSpec.uniform(1.0, 10_000, read_fraction=0.5),
        measure=MeasureSpec(warmup=3_000, window=8_000), seed=11)
    sw = sweep(base, configs=[
        TopologySpec.from_noc_config(
            NocConfig(rows=4, cols=4, data_width=dw, max_outstanding=mot))
        for dw, mot in grid])
    results = run_sweep(sw, jobs=4)

    print("4x4 PATRONoC design space (uniform random, bursts < 10 KiB)")
    header = (f"{'config':>14} {'MOT':>4} {'area kGE':>9} {'power mW':>9} "
              f"{'bisection':>10} {'measured':>9} {'GiB/s/kGE':>10}")
    print(header)
    print("-" * len(header))
    for (dw, mot), result in zip(grid, results):
        cfg = NocConfig(rows=4, cols=4, data_width=dw, max_outstanding=mot)
        area = mesh_area_kge(cfg)
        print(f"{cfg.label:>14} {mot:>4} {area:>9.0f} "
              f"{mesh_power_mw(cfg):>9.0f} {bisection_gib_s(cfg):>10.0f} "
              f"{result.throughput_gib_s:>9.1f} "
              f"{result.throughput_gib_s / area:>10.3f}")
    print("\nreading the table: wider links buy bandwidth almost linearly "
          "in area;\ndeeper MOT buys latency tolerance at a small area "
          "premium (Fig. 3 right).")


if __name__ == "__main__":
    main()
