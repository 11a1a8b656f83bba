"""PATRONoC reproduction: a fully AXI-compliant NoC for multi-accelerator
DNN platforms (Jain et al., DAC 2023), with the paper's complete
evaluation stack — cycle-level AXI mesh simulator, classical packet-NoC
baseline, synthetic and DNN traffic generators, and calibrated
area/power models.

Quickstart (declarative scenario API, DESIGN.md §9)::

    from repro import (
        MeasureSpec, Scenario, TopologySpec, TrafficSpec, run_scenario,
    )

    result = run_scenario(Scenario(
        topology=TopologySpec.slim(),
        traffic=TrafficSpec.uniform(load=0.1, max_burst_bytes=1000),
        measure=MeasureSpec.quick()))
    print(f"{result.throughput_gib_s:.2f} GiB/s")

or imperatively::

    from repro import NocConfig, NocNetwork
    from repro.traffic import uniform_random

    net = NocNetwork(NocConfig.slim())
    traffic = uniform_random(net, load=0.1, max_burst_bytes=1000)
    traffic.install()
    net.set_warmup(1000)
    net.run(10_000)
    print(f"{net.aggregate_throughput_gib_s():.2f} GiB/s")
"""

from importlib import import_module

#: The public names, by the subpackage that defines them.  Resolved on
#: first use (PEP 562), so ``import repro`` — which every ``python -m
#: repro`` command pays, ``list`` and ``cache`` included — imports no
#: simulator.  No command imports numpy, a simulating one included: the
#: random streams are pure Python (``repro.sim.rng``).
_EXPORTS = {
    "repro.axi": ("MemoryMap", "Region", "Transfer"),
    "repro.noc": ("Mesh2D", "NocConfig", "NocNetwork", "TileSpec", "Torus2D",
                  "bisection_gbit_s", "bisection_gib_s", "ring",
                  "utilization"),
    "repro.scenarios": ("FaultSpec", "LinkFault", "MeasureSpec",
                        "ProgressEvent", "Result", "Scenario",
                        "SimulationTimeout", "Sweep", "SweepResults",
                        "SweepStats", "TopologySpec", "TrafficSpec",
                        "run_scenario", "run_sweep", "sweep"),
    "repro.sim": ("Simulator",),
    "repro.store": ("ResultStore", "code_fingerprint"),
}
_LAZY = {name: module for module, names in _EXPORTS.items()
         for name in names}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "1.1.0"

__all__ = sorted([*_LAZY, "__version__"])
