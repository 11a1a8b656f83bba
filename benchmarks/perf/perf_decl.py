"""What the benchmark declares, as plain data: the workloads and why
each was chosen, the end-to-end metrics with their bounds, and every
per-layer metric with the end-to-end metric it should move on which
workload.  Nothing here imports the simulator, so the parent process
and the tests can read it cheaply.
"""

from __future__ import annotations

#: name → why it was chosen (one line; BENCHMARK.json carries the same).
WORKLOADS = {
    "axi_write": "Fig. 4 push-DMA writes on AW/W/B: cap 4 is bound by the "
                 "address channel and ID remap, cap 64000 by beat forwarding",
    "axi_rw": "same fabric, 50/50 reads: AR/R beside AW/W/B, hot-spot "
              "against nearest-neighbour slaves; a write-path gain that "
              "costs the read path shows here",
    "mesh_uniform": "packet-mesh baseline, the slowest code per cycle; no "
                    "AXI code runs, so an AXI-only change must not move it",
    "dnn_fig8": "Fig. 8 script-driven DMA with long bursts; wide/train runs "
                "to completion through the until= predicate",
    "faulted": "the armed path: guarded sinks, FaultController, watchdogs "
               "and retransmission on the AXI fabric, escape-VC reroute "
               "around dead links and a stuck VC on the mesh",
    "sweep_cold": "many short points through the jobs=2 pool into an empty "
                  "store: pool spawn, pickling, store put and network build "
                  "are a visible share",
    "store_replay": "100 % store hits, directly and over HTTP: the kernels "
                    "do nothing; spec hashing, JSON, file I/O, the job lock "
                    "and HTTP do everything",
}

#: name → (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may get worse.  ISSUE.md asked for 10 % on
#: the time metrics; the driver wants a bound three times the quartile
#: spread of ten runs of unchanged code, which on the sandbox this was
#: recorded on is 2-17 % of the median even in reference-host seconds
#: (README.md, "Bounds"), so they get the most it allows.  ``run.py
#: compare`` over ten pairs resolves finer differences.
#: ``paper_err_pct`` and ``failed_share`` are exact: any rise is worse.
E2E_METRICS = {
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "sim_kcycles_per_s": ("kcycles/s", "higher", 0.25),
    "points_per_s": ("points/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.05),
    "paper_err_pct": ("%", "lower", 0.0),
    "failed_share": ("fraction", "lower", 0.0),
}

#: ``run.py compare`` allows a metric to get worse by its bound or by
#: this much, whichever is more: a tenth of a 0.2 s set-up is below what
#: process start-up varies by.  BENCHMARK.json cannot carry it (there a
#: bound is a share and nothing else).
ABSOLUTE_SLACK = {"setup_s": 0.05}

#: What BENCHMARK.json lists, and a driver run reports: the driver wants
#: every listed metric from every workload and none that can be zero.
#: ``sim_kcycles_per_s`` is left off ``store_replay``, which simulates
#: nothing (it is a constant over ``wall_s`` elsewhere, so ``wall_s``
#: gates it); ``paper_err_pct`` is undefined on three workloads and
#: ``failed_share`` is 0.  The full report and ``compare`` have all eight.
CONTRACT_E2E = ("wall_s", "cpu_s", "points_per_s", "setup_s", "peak_rss_mib")

FABRIC = ("axi_write", "axi_rw", "dnn_fig8")
ALL = tuple(WORKLOADS)


def _on(metric: str, *workloads: str) -> list[tuple[str, str]]:
    return [(metric, w) for w in workloads]


#: Rows measured by a workload's own traced pass.
TRACED = {
    "scenarios.build_s": ("s", "lower", _on("wall_s", "sweep_cold")),
    "scenarios.warmup_s": ("s", "lower", _on(
        "sim_kcycles_per_s", *FABRIC, "mesh_uniform")),
    "scenarios.window_s": ("s", "lower", _on(
        "sim_kcycles_per_s", *FABRIC, "mesh_uniform")),
    "scenarios.collect_s": ("s", "lower", _on("wall_s", "sweep_cold")),
    "scenarios.run_overhead_s": ("s", "lower", _on("wall_s", "sweep_cold")),
    "scenarios.sweep_s": ("s", "lower", _on(
        "wall_s", "sweep_cold", "store_replay")),
    "service.http_s": ("s", "lower", _on("points_per_s", "store_replay")),
    "trace_overhead_pct": ("%", "lower", []),
}

_SETUP = _on("setup_s", *ALL)
_REPLAY = _on("points_per_s", "store_replay")
_COLD = _on("wall_s", "sweep_cold")
_AXI = _on("sim_kcycles_per_s", *FABRIC)
_MESH = _on("sim_kcycles_per_s", "mesh_uniform")
_FAULTED = _on("wall_s", "faulted")

#: Rows measured by the probes in perf_layers.py.
PROBED = {
    "cli.import_s": ("s", "lower", _SETUP),
    "cli.list_cold_s": ("s", "lower", _SETUP),
    "store.fingerprint_s": ("s", "lower", _SETUP),
    "store.spec_hash_us": ("us", "lower", _REPLAY),
    "store.get_hit_p50_us": ("us", "lower", _REPLAY),
    "store.get_hit_hi_us": ("us", "lower", _REPLAY),
    "store.get_miss_p50_us": ("us", "lower", _COLD),
    "store.put_p50_us": ("us", "lower", _COLD),
    "store.put_hi_us": ("us", "lower", _COLD),
    "store.entry_bytes": ("B", "lower", _REPLAY),
    "store.verify_ms_per_entry": ("ms", "lower", []),
    "scenarios.result_json_us": ("us", "lower", _REPLAY),
    "scenarios.result_load_us": ("us", "lower", _REPLAY),
    "scenarios.spec_from_dict_us": ("us", "lower", _REPLAY),
    "scenarios.sweep_expand_us_per_point": ("us", "lower", _COLD),
    "scenarios.sweep_jobs1_s": ("s", "lower", _COLD),
    "scenarios.sweep_jobs2_s": ("s", "lower", _COLD + _on(
        "cpu_s", "sweep_cold")),
    "scenarios.sweep_parallel_efficiency": ("ratio", "higher", _COLD),
    "scenarios.sweep_pool_overhead_s": ("s", "lower", _COLD + _on(
        "cpu_s", "sweep_cold")),
    "scenarios.sweep_hit_us_per_point": ("us", "lower", _REPLAY),
    "scenarios.save_artifacts_ms": ("ms", "lower", []),
    "noc.build_ms": ("ms", "lower", _COLD),
    "noc.us_per_cycle.write_short": ("us", "lower", _on(
        "sim_kcycles_per_s", "axi_write")),
    "noc.us_per_cycle.write_long": ("us", "lower", _on(
        "sim_kcycles_per_s", "axi_write")),
    "noc.us_per_cycle.rw_short": ("us", "lower", _on(
        "sim_kcycles_per_s", "axi_rw")),
    "noc.us_per_cycle.rw_long": ("us", "lower", _on(
        "sim_kcycles_per_s", "axi_rw")),
    "noc.us_per_cycle.dnn": ("us", "lower", _on(
        "sim_kcycles_per_s", "dnn_fig8")),
    "noc.us_per_cycle.idle": ("us", "lower", _on(
        "sim_kcycles_per_s", "dnn_fig8")),
    "noc.us_per_delivered_beat.slim": ("us", "lower", _AXI),
    "noc.us_per_delivered_beat.wide": ("us", "lower", _AXI),
    # In no workload: AXI reroute fails on some seeds (README, "faulted").
    "noc.reroute_tables_ms": ("ms", "lower", []),
    "baseline.build_ms": ("ms", "lower", _on("setup_s", "store_replay")),
    "baseline.us_per_cycle.vc1_low": ("us", "lower", _MESH),
    "baseline.us_per_cycle.vc1_sat": ("us", "lower", _MESH),
    "baseline.us_per_cycle.vc4_sat": ("us", "lower", _MESH),
    "baseline.us_per_flit": ("us", "lower", _MESH),
    "soa.us_per_cycle.axi": ("us", "lower", []),
    "soa.us_per_cycle.mesh": ("us", "lower", []),
    "sim.always_step_us_per_cycle": ("us", "lower", []),
    "traffic.dnn_build_ms.train": ("ms", "lower", _on("wall_s", "dnn_fig8")),
    "traffic.dnn_build_ms.par": ("ms", "lower", _on("wall_s", "dnn_fig8")),
    "traffic.dnn_build_ms.pipe": ("ms", "lower", _on("wall_s", "dnn_fig8")),
    "traffic.uniform_install_ms": ("ms", "lower", _COLD),
    "faults.armed_inert_ratio.axi": ("ratio", "lower", _on(
        "wall_s", "axi_write")),
    "faults.armed_inert_ratio.mesh": ("ratio", "lower", _on(
        "wall_s", "mesh_uniform")),
    "faults.active_us_per_cycle.axi": ("us", "lower", _FAULTED),
    "faults.active_us_per_cycle.mesh": ("us", "lower", _FAULTED),
    "service.submit_p50_ms": ("ms", "lower", _REPLAY),
    "service.first_event_p50_ms": ("ms", "lower", _REPLAY),
    "service.hit_job_p50_ms": ("ms", "lower", _REPLAY),
    "service.hit_job_hi_ms": ("ms", "lower", _REPLAY),
    "service.results_fetch_ms": ("ms", "lower", _REPLAY),
    "service.progress_poll_ms": ("ms", "lower", _REPLAY),
    "eval.analytic_s": ("s", "lower", []),
}

LAYER_METRICS = {**TRACED, **PROBED}
