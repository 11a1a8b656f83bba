"""Resilience sweep — throughput retention under injected faults.

Beyond the paper: the reproduction can inject faults (DESIGN.md §10),
so the paper-relevant question becomes *how much of the fig4/fig6/fig8
throughput survives a failing fabric, under each recovery policy?*
This experiment answers it with a grid of fault rate × recovery policy
over the paper's traffic classes:

* fig4-style uniform random traffic,
* a fig6 synthetic pattern (all_global, the heaviest),
* the fig8 DNN workloads (parallelized and pipelined convolution) —
  real multi-accelerator traffic, per "Understanding the Impact of
  On-chip Communication on DNN Accelerator Performance".

Each row reports **retention** (faulty throughput / clean throughput of
the identical fault-free scenario) plus the recovery-latency p50/p99
that the retransmission machinery collected.  Faults are transient dead
links drawn from a Poisson process (``link_rate``), so retransmission
can actually win bursts back and rerouting is exercised repeatedly as
the fault set changes.
"""

from __future__ import annotations

from repro.eval.report import ExperimentResult
from repro.faults.spec import FaultSpec
from repro.scenarios import (MeasureSpec, Result, Scenario, TopologySpec,
                             TrafficSpec)

RECOVERIES = ("none", "retransmit", "reroute")

#: Mesh-wide transient-dead-link rates (faults/cycle); ~1 and ~4 live
#: faults in steady state with the 500-cycle default duration.
FAULT_RATES = (2e-3, 8e-3)

#: Churn rates for the table-recompute sweep (faults/cycle): high
#: enough that the up*/down* tables are rebuilt many times per window.
CHURN_RATES = (4e-3, 1.6e-2)

UNIFORM = TrafficSpec.uniform(0.6, 1000)

#: Traffic rows: label → TrafficSpec.
TRAFFIC = (
    ("fig4 uniform", UNIFORM),
    ("fig6 all_global", TrafficSpec.synthetic("all_global", 1000, load=0.6)),
    ("fig8 par", TrafficSpec.dnn("par")),
    ("fig8 pipe", TrafficSpec.dnn("pipe")),
)


def _grids(measure: MeasureSpec) -> list[tuple]:
    """``(traffic, rates, recoveries, fault knobs)`` per section, in
    section order: the four traffic rows, churn, response-path faults."""
    rates = FAULT_RATES[:1] if measure.is_quick else FAULT_RATES
    churn = CHURN_RATES[:1] if measure.is_quick else CHURN_RATES
    return [(traffic, rates, RECOVERIES, {}) for _label, traffic in TRAFFIC] \
        + [(UNIFORM, churn, ("none", "reroute"), {}),
           (UNIFORM, rates, ("none", "retransmit"),
            dict(response_faults=True, txn_timeout=2000))]


def points(measure: MeasureSpec, seed: int) -> list[Scenario]:
    """Per grid, its traffic fault-free, then under rate × recovery."""
    out = []
    for traffic, rates, recoveries, knobs in _grids(measure):
        clean = Scenario(topology=TopologySpec.slim(), traffic=traffic,
                         measure=measure, seed=seed)
        out += [clean] + [clean.with_(faults=FaultSpec(
            link_rate=rate, recovery=rec, **knobs))
            for rate in rates for rec in recoveries]
    return out


def layout(measure: MeasureSpec, results: list[Result]) -> ExperimentResult:
    result = ExperimentResult(
        "resilience", "throughput retention under transient link faults")
    measured = iter(results)
    grids = []  # per grid: (clean GiB/s, [(rate, recovery, point, retention)])
    for _traffic, rates, recoveries, _knobs in _grids(measure):
        base = next(measured).throughput_gib_s
        grids.append((base, [
            (f"{rate:g}", rec, point,
             point.throughput_gib_s / base if base else 0.0)
            for rate in rates for rec in recoveries
            for point in [next(measured)]]))
    *traffic_grids, churn, response = grids

    for (label, _traffic), (clean, rows) in zip(TRAFFIC, traffic_grids):
        sec = result.section(
            f"{label} (clean {clean:.2f} GiB/s)",
            ["fault_rate", "recovery", "throughput_GiB_s", "retention",
             "rec_p50", "rec_p99", "dropped"])
        for rate, recovery, point, retention in rows:
            rec = point.faults.get("recovery_latency", {})
            sec.add(rate, recovery, point.throughput_gib_s, retention,
                    rec.get("p50", 0.0), rec.get("p99", 0.0),
                    point.faults.get("dropped", 0))

    # Transient churn: retention of reroute vs fail-fast under Poisson
    # link churn, and how often the up*/down* tables were recomputed.
    clean, rows = churn
    sec = result.section(
        f"transient churn: table recomputes (clean {clean:.2f} GiB/s)",
        ["churn_rate", "recovery", "retention", "retables"])
    for rate, recovery, point, retention in rows:
        sec.add(rate, recovery, retention, point.faults.get("retables", 0))

    # Response-path fault loop: transient dead links also drop B/R
    # beats; the per-transaction watchdog aborts orphans into the
    # retransmission path (DESIGN.md §10).
    clean, rows = response
    sec = result.section(
        f"response-path faults: orphan timeouts (clean {clean:.2f} GiB/s)",
        ["fault_rate", "recovery", "retention", "response_drops",
         "orphaned", "timeout_recovered", "timeout_p99"])
    for rate, recovery, point, retention in rows:
        sec.add(rate, recovery, retention,
                point.faults.get("response_drops", 0),
                point.faults.get("orphaned", 0),
                point.faults.get("timeout_recovered", 0),
                point.faults.get("timeout_latency", {}).get("p99", 0.0))

    result.note("retention = throughput / the same scenario's fault-free "
                "throughput; rec_p50/p99 = cycles from a lost burst's "
                "first issue to its clean completion (retransmit)")
    result.note(f"transient dead links, {FaultSpec().link_duration}-cycle "
                f"duration, Poisson rate per mesh; recovery in {RECOVERIES}")
    return result
