"""Execute one :class:`~repro.scenarios.spec.Scenario` → one
:class:`~repro.scenarios.result.Result`.

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

import os
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
    ``scenario.seed``), so results are reproducible across processes —
    the property parallel sweeps and the result store rely on.  Every
    Result is stamped with its provenance (spec hash, seed, code
    fingerprint — DESIGN.md §12).

    ``REPRO_CACHE=rw|ro`` consults the default
    :class:`~repro.store.ResultStore` around the simulation — the
    opt-in that gives the eval runners (``repro run --cache``), and
    anything else built directly on ``run_scenario``, result caching
    without threading a store through every signature.
    """
    mode = os.environ.get("REPRO_CACHE", "off")
    if mode not in ("off", "ro", "rw"):
        raise ValueError(
            f"REPRO_CACHE must be 'off', 'ro', or 'rw', got {mode!r}")
    if mode == "off":
        return _execute(scenario)
    from repro.store import ResultStore

    store = ResultStore.default()
    cached = store.get(scenario)
    if cached is not None:
        return cached
    result = _execute(scenario)
    if mode == "rw":
        store.put(scenario, result)
    return result


def _execute(scenario: Scenario) -> Result:
    """Dispatch to the backend runner and stamp provenance."""
    from repro.store import provenance_for

    if scenario.topology.backend == "baseline":
        result = _run_baseline(scenario)
    elif scenario.traffic.kind == "uniform":
        result = _run_uniform(scenario)
    elif scenario.traffic.kind == "synthetic":
        result = _run_synthetic(scenario)
    else:
        result = _run_dnn(scenario)
    return replace(result, provenance=provenance_for(scenario))


# ----------------------------------------------------------------------
# PATRONoC backends
# ----------------------------------------------------------------------
def _run_uniform(sc: Scenario) -> Result:
    from repro.noc.network import NocNetwork
    from repro.traffic.uniform import uniform_random

    cfg = sc.topology.noc_config()
    tr = sc.traffic
    net = NocNetwork(cfg, faults=sc.faults, fault_seed=sc.seed)
    uniform_random(net, load=tr.load, max_burst_bytes=tr.max_burst_bytes,
                   read_fraction=tr.read_fraction,
                   min_burst_bytes=tr.min_burst_bytes,
                   seed=sc.seed).install()
    link_util = _run_windowed(net, sc.measure)
    return _noc_result(sc, net, cfg, label=f"burst<{tr.max_burst_bytes}",
                       link_utilization=link_util)


def _run_synthetic(sc: Scenario) -> Result:
    from repro.traffic.synthetic import (
        PATTERNS,
        build_synthetic_network,
        synthetic_traffic,
    )

    cfg = sc.topology.noc_config()
    tr = sc.traffic
    pattern = PATTERNS[tr.pattern]
    net, _slaves = build_synthetic_network(cfg, pattern, faults=sc.faults,
                                           fault_seed=sc.seed)
    synthetic_traffic(net, pattern, load=tr.load,
                      max_burst_bytes=tr.max_burst_bytes,
                      read_fraction=tr.read_fraction,
                      min_burst_bytes=tr.min_burst_bytes,
                      seed=sc.seed).install()
    link_util = _run_windowed(net, sc.measure)
    return _noc_result(
        sc, net, cfg, label=f"{pattern.key}/burst<{tr.max_burst_bytes}",
        link_utilization=link_util)


def _run_dnn(sc: Scenario) -> Result:
    from repro.sim.stats import GIB
    from repro.traffic.dnn.workloads import WORKLOADS

    cfg = sc.topology.noc_config()
    key = sc.traffic.workload
    quick = sc.measure.is_quick
    if quick:
        # Shrink the model so even a training batch fits a CI budget;
        # layer orderings are preserved.
        workload = WORKLOADS[key](cfg, shrink=0.95, input_hw=112)
    else:
        workload = WORKLOADS[key](cfg)
    net = workload.build_network(cfg, faults=sc.faults, fault_seed=sc.seed)
    scripts = workload.install(net)
    slim = cfg.data_width <= 64
    if key == "train":
        for script in scripts:
            script.loop = False
        heat = None
        if sc.measure.per_link:
            # The batch IS the measurement window: capture links over
            # the whole run, like the throughput number.
            from repro.eval.heatmap import LinkHeatmap

            heat = LinkHeatmap(net)
            heat.open_window()
        limit = _TRAIN_LIMIT[quick]
        dog = _watchdog(sc.measure)
        net.run(limit, until=lambda now: (dog is not None and dog(now))
                or (now % 2048 == 0
                    and all(s.done for s in scripts) and net.idle()))
        if not all(s.done for s in scripts):
            raise RuntimeError("training batch did not complete in budget")
        thr = net.total_bytes() / net.sim.now * cfg.freq_hz / GIB
        return Result(
            name=sc.label, backend="patronoc", label=key, load=1.0,
            seed=sc.seed, throughput_gib_s=thr, cycles=net.sim.now,
            counters=_noc_counters(net),
            link_utilization=heat.utilization() if heat else {},
            faults=net.fault_report())
    # Per-field None-fill, like MeasureSpec.resolve() but against the
    # workload-derived table instead of the fidelity preset.
    d_warmup, d_window = _DNN_WINDOWS[(quick, slim)]
    warmup = sc.measure.warmup if sc.measure.warmup is not None else d_warmup
    window = sc.measure.window if sc.measure.window is not None else d_window
    measure = replace(sc.measure, warmup=warmup, window=window)
    link_util = _run_windowed(net, measure)
    return _noc_result(sc, net, cfg, label=key,
                       link_utilization=link_util)


def _run_windowed(net, measure: MeasureSpec) -> dict:
    """Warm up, optionally open per-link monitors, run the window."""
    warmup, window = measure.resolve()
    dog = _watchdog(measure)
    net.set_warmup(warmup)
    if not measure.per_link:
        net.run(warmup + window, until=dog)
        return {}
    from repro.eval.heatmap import LinkHeatmap

    heat = LinkHeatmap(net)
    net.run(warmup, until=dog)
    heat.open_window()
    net.run(window, until=dog)
    return heat.utilization()


def _noc_result(sc: Scenario, net, cfg, *, label: str,
                link_utilization: dict) -> Result:
    from repro.noc.bandwidth import utilization

    thr = net.aggregate_throughput_gib_s()
    p50, p90, p99 = _latency_percentiles(net)
    return Result(
        name=sc.label, backend="patronoc", label=label,
        load=sc.traffic.load, seed=sc.seed, throughput_gib_s=thr,
        utilization_pct=utilization(thr, cfg),
        latency_p50=p50, latency_p90=p90, latency_p99=p99,
        cycles=net.sim.now, counters=_noc_counters(net),
        link_utilization=link_utilization,
        faults=net.fault_report())


def _noc_counters(net) -> dict:
    return {"measured_bytes": net.measured_bytes(),
            "total_bytes": net.total_bytes(),
            "transfers_completed": net.transfers_completed(),
            "response_errors": net.response_errors()}


def _latency_percentiles(net) -> tuple[float, float, float]:
    """Median across DMAs of each DMA's percentile (robust, cheap)."""
    return tuple(_median_of_dma_percentiles(net, q)
                 for q in (0.5, 0.9, 0.99))


def _median_of_dma_percentiles(net, q: float) -> float:
    values = sorted(
        built.dma.latency_stats.percentile(q)
        for built in net.tiles
        if built.dma is not None and built.dma.latency_stats.count)
    if not values:
        return 0.0
    return values[len(values) // 2]


# ----------------------------------------------------------------------
# Packet baseline
# ----------------------------------------------------------------------
def _run_baseline(sc: Scenario) -> Result:
    from repro.baseline.network import PacketMesh

    cfg = sc.topology.mesh_config()
    mesh = PacketMesh(cfg, injection_rate=sc.traffic.load, seed=sc.seed,
                      faults=sc.faults, fault_seed=sc.seed)
    warmup, window = sc.measure.resolve()
    mesh.set_warmup(warmup)
    mesh.run(warmup + window, until=_watchdog(sc.measure))
    return Result(
        name=sc.label, backend="baseline",
        label=f"VC={cfg.n_vcs},Buf={cfg.buf_depth}",
        load=sc.traffic.load, seed=sc.seed,
        throughput_gib_s=mesh.throughput_gib_s_node(),
        latency_p50=mesh.latency.percentile(0.5),
        latency_p90=mesh.latency.percentile(0.9),
        latency_p99=mesh.latency.percentile(0.99),
        cycles=mesh.sim.now,
        counters={"aggregate_gib_s": mesh.throughput_gib_s_aggregate(),
                  "flits_received": mesh.flits_received,
                  "flits_received_measured": mesh.flits_received_measured,
                  "packets_received": mesh.packets_received},
        faults=mesh.fault_report())
