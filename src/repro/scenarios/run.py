"""Execute one :class:`~repro.scenarios.spec.Scenario` → one
:class:`~repro.scenarios.result.Result`, in three phases:
:func:`build_network` → ``_drive`` → ``_collect``.

Methodology (matches the paper's §IV setup):

* PATRONoC points: open-loop Poisson traffic at a given injected load,
  warm-up then a measurement window; throughput is delivered payload
  bytes (W at memories + R at masters) per second.
* Baseline points: the packet mesh at a given flit injection rate,
  throughput in the Noxim per-node convention (DESIGN.md §6); the
  aggregate convention is reported in ``counters``.
* DNN workloads: steady-state window for the looping workloads
  (parallel/pipelined; warm-up covers pipeline fill), one full batch for
  distributed training (its phase structure is longer than any sensible
  steady-state window).  Windows are derived from the workload and the
  configuration unless the MeasureSpec pins them explicitly.

Per-link capture (``measure.per_link``) splits the run at the warm-up
boundary to open the monitor window; ``Simulator.run`` is relative, so
the split is simulation-identical to a single call.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.scenarios.result import Result
from repro.scenarios.spec import MeasureSpec, Scenario


class SimulationTimeout(RuntimeError):
    """A scenario's simulation exceeded ``MeasureSpec.max_wall_s``.

    Carries how far the run got (``cycles``) so sweep logs can tell a
    hung point from a merely slow one.
    """

    def __init__(self, max_wall_s: float, cycles: int):
        super().__init__(
            f"simulation exceeded its {max_wall_s:g}s wall-clock budget "
            f"at cycle {cycles}")
        self.max_wall_s = max_wall_s
        self.cycles = cycles


def _watchdog(measure: MeasureSpec):
    """An ``until``-predicate enforcing the wall-clock budget, or None
    when the watchdog is off (the default — zero overhead).  Checks the
    clock every 2048 cycles and *raises* rather than stopping early, so
    a timed-out point is an error, not a silently truncated Result."""
    if measure.max_wall_s is None:
        return None
    deadline = time.monotonic() + measure.max_wall_s
    budget = measure.max_wall_s

    def until(now: int) -> bool:
        if not now & 2047 and time.monotonic() > deadline:
            raise SimulationTimeout(budget, now)
        return False

    return until

#: DNN steady-state windows, keyed (quick, slim).  Slim configurations
#: need longer windows to cover a full layer loop; quick shrinks both.
_DNN_WINDOWS = {
    (False, False): (10_000, 30_000),
    (False, True): (30_000, 120_000),
    (True, False): (6_000, 10_000),
    (True, True): (12_000, 20_000),
}

#: Cycle budget for the distributed-training batch, keyed quick.
_TRAIN_LIMIT = {False: 4_000_000, True: 2_500_000}


def run_scenario(scenario: Scenario) -> Result:
    """Build, drive, and measure one scenario point.

    Pure function of the scenario (all RNGs derive from
    ``scenario.seed``) that consults nothing else — no environment
    variable, no result store — so results are reproducible across
    processes: the property parallel sweeps and the result store rely
    on.  Every Result is stamped with its provenance (spec hash, seed,
    code fingerprint — DESIGN.md §12).
    """
    from repro.store import provenance_for

    net, scripts = build_network(scenario)
    link_util = _drive(scenario, net, scripts)
    return replace(_collect(scenario, net, link_util),
                   provenance=provenance_for(scenario))


def build_network(sc: Scenario):
    """``(network, core scripts)`` for one point, traffic installed;
    scripts are ``None`` unless the traffic is a DNN workload."""
    wiring = dict(faults=sc.faults, fault_seed=sc.seed)
    tr = sc.traffic
    if sc.topology.backend == "baseline":
        from repro.baseline.network import PacketMesh

        return PacketMesh(sc.topology.mesh_config(), injection_rate=tr.load,
                          seed=sc.seed, **wiring), None
    cfg = sc.topology.noc_config()
    if tr.kind == "dnn":
        from repro.traffic.dnn.workloads import WORKLOADS

        # Quick shrinks the model so even a training batch fits a CI
        # budget; layer orderings are preserved.
        model = dict(shrink=0.95, input_hw=112) if sc.measure.is_quick else {}
        workload = WORKLOADS[tr.workload](cfg, **model)
        net = workload.build_network(cfg, **wiring)
        return net, workload.install(net)
    shape = dict(load=tr.load, max_burst_bytes=tr.max_burst_bytes,
                 read_fraction=tr.read_fraction,
                 min_burst_bytes=tr.min_burst_bytes, seed=sc.seed)
    if tr.kind == "synthetic":
        from repro.traffic.synthetic import (
            PATTERNS,
            build_synthetic_network,
            synthetic_traffic,
        )

        pattern = PATTERNS[tr.pattern]
        net, _slaves = build_synthetic_network(cfg, pattern, **wiring)
        synthetic_traffic(net, pattern, **shape).install()
        return net, None
    from repro.noc.network import NocNetwork
    from repro.traffic.uniform import uniform_random

    net = NocNetwork(cfg, **wiring)
    uniform_random(net, **shape).install()
    return net, None


def _is_train(sc: Scenario) -> bool:
    return sc.traffic.kind == "dnn" and sc.traffic.workload == "train"


def _drive(sc: Scenario, net, scripts) -> dict:
    """Run the measurement: one full batch for ``dnn:train``, warm-up
    then window for everything else.  Returns the per-link utilization
    of the measured span (``{}`` unless ``measure.per_link``)."""
    measure = sc.measure
    dog = _watchdog(measure)
    heat = None
    if measure.per_link:
        from repro.eval.heatmap import LinkHeatmap

        heat = LinkHeatmap(net)
    if _is_train(sc):
        for script in scripts:
            script.loop = False
        if heat is not None:
            # The batch IS the measurement window: capture links over
            # the whole run, like the throughput number.
            heat.open_window()
        net.run(_TRAIN_LIMIT[measure.is_quick],
                until=lambda now: (dog is not None and dog(now))
                or (now % 2048 == 0
                    and all(s.done for s in scripts) and net.idle()))
        if not all(s.done for s in scripts):
            raise RuntimeError("training batch did not complete in budget")
    else:
        warmup, window = measure.resolve()
        if scripts is not None:
            # Per-field None-fill like resolve(), but against the
            # workload-derived table instead of the fidelity preset.
            derived = _DNN_WINDOWS[(measure.is_quick,
                                    net.cfg.data_width <= 64)]
            if measure.warmup is None:
                warmup = derived[0]
            if measure.window is None:
                window = derived[1]
        net.set_warmup(warmup)
        if heat is None:
            net.run(warmup + window, until=dog)
        else:
            net.run(warmup, until=dog)
            heat.open_window()
            net.run(window, until=dog)
    return heat.utilization() if heat is not None else {}


def _collect(sc: Scenario, net, link_util: dict) -> Result:
    """Read one driven network into a Result (provenance aside)."""
    tr = sc.traffic
    if sc.topology.backend == "baseline":
        return Result(
            name=sc.label, backend="baseline",
            label=f"VC={net.cfg.n_vcs},Buf={net.cfg.buf_depth}",
            load=tr.load, seed=sc.seed,
            throughput_gib_s=net.throughput_gib_s_node(),
            latency_p50=net.latency.percentile(0.5),
            latency_p90=net.latency.percentile(0.9),
            latency_p99=net.latency.percentile(0.99),
            cycles=net.sim.now,
            counters={"aggregate_gib_s": net.throughput_gib_s_aggregate(),
                      "flits_received": net.flits_received,
                      "flits_received_measured": net.flits_received_measured,
                      "packets_received": net.packets_received},
            faults=net.fault_report())
    if _is_train(sc):
        from repro.sim.stats import GIB

        # Bytes over the whole batch; a batch has no steady state to
        # take a utilization or a latency distribution from.
        steady = dict(load=1.0, throughput_gib_s=(
            net.total_bytes() / net.sim.now * net.cfg.freq_hz / GIB))
    else:
        from repro.noc.bandwidth import utilization

        thr = net.aggregate_throughput_gib_s()
        p50, p90, p99 = (_median_of_dma_percentiles(net, q)
                         for q in (0.5, 0.9, 0.99))
        steady = dict(load=tr.load, throughput_gib_s=thr,
                      utilization_pct=utilization(thr, net.cfg),
                      latency_p50=p50, latency_p90=p90, latency_p99=p99)
    label = f"burst<{tr.max_burst_bytes}"
    if tr.kind == "synthetic":
        label = f"{tr.pattern}/{label}"
    elif tr.kind == "dnn":
        label = tr.workload
    return Result(
        name=sc.label, backend="patronoc", label=label, seed=sc.seed,
        cycles=net.sim.now,
        counters={"measured_bytes": net.measured_bytes(),
                  "total_bytes": net.total_bytes(),
                  "transfers_completed": net.transfers_completed(),
                  "response_errors": net.response_errors()},
        link_utilization=link_util, faults=net.fault_report(), **steady)


def _median_of_dma_percentiles(net, q: float) -> float:
    """Median across DMAs of each DMA's percentile (robust, cheap)."""
    values = sorted(
        built.dma.latency_stats.percentile(q)
        for built in net.tiles
        if built.dma is not None and built.dma.latency_stats.count)
    if not values:
        return 0.0
    return values[len(values) // 2]
