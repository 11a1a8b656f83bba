"""Declarative scenario layer: spec-driven NoC experiments.

One entry point for building, sweeping, and measuring any experiment
the simulator supports (DESIGN.md §9)::

    from repro.scenarios import (
        MeasureSpec, Scenario, TopologySpec, TrafficSpec,
        run_scenario, run_sweep, sweep,
    )

    sc = Scenario(topology=TopologySpec.slim(),
                  traffic=TrafficSpec.uniform(load=0.5,
                                              max_burst_bytes=1000),
                  measure=MeasureSpec.quick())
    result = run_scenario(sc)

    results = run_sweep(sweep(sc, loads=[0.1, 0.5, 1.0],
                              configs=["slim", "wide"]), jobs=4)
"""

from repro.faults.spec import FaultSpec, LinkFault
from repro.scenarios.result import (
    Result,
    load_results_json,
    save_results_csv,
    save_results_json,
)
from repro.scenarios.run import SimulationTimeout, run_scenario
from repro.scenarios.spec import (
    DEFAULT_WARMUP,
    DEFAULT_WINDOW,
    QUICK_WARMUP,
    QUICK_WINDOW,
    MeasureSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
)
from repro.scenarios.sweep import (
    ProgressEvent,
    Sweep,
    SweepResults,
    SweepStats,
    load_spec,
    points_from_data,
    run_sweep,
    save_artifacts,
    sweep,
)

__all__ = [
    "DEFAULT_WARMUP",
    "DEFAULT_WINDOW",
    "FaultSpec",
    "LinkFault",
    "MeasureSpec",
    "ProgressEvent",
    "QUICK_WARMUP",
    "QUICK_WINDOW",
    "Result",
    "Scenario",
    "SimulationTimeout",
    "Sweep",
    "SweepResults",
    "SweepStats",
    "TopologySpec",
    "TrafficSpec",
    "load_results_json",
    "load_spec",
    "points_from_data",
    "run_scenario",
    "run_sweep",
    "save_artifacts",
    "save_results_csv",
    "save_results_json",
    "sweep",
]
