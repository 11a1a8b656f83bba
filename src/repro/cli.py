"""Command-line interface: regenerate paper figures or run arbitrary
spec-driven scenario sweeps.

Usage::

    patronoc list
    patronoc run fig4 [--quick] [--seed N] [--csv DIR] [--json DIR]
    patronoc run all --quick
    patronoc sweep spec.json --jobs 4 --out artifacts/ --cache rw --progress
    patronoc info AXI_32_512_4 --rows 4 --cols 4 --mot 8
    patronoc serve --port 8078 --jobs 4 --store artifacts/store
    patronoc cache stats|gc|verify --store artifacts/store
    python -m repro run fig8
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.eval.report import render_text, save_csv, save_json


def _jobs(text: str) -> int:
    """``--jobs``: an integer >= 1, or argparse's exit 2 naming it."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patronoc",
        description="PATRONoC (DAC 2023) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment",
                      choices=sorted(EXPERIMENTS) + ["all"],
                      help="which table/figure to regenerate")
    runp.add_argument("--quick", action="store_true",
                      help="reduced windows/points for a fast pass")
    runp.add_argument("--seed", type=int, default=1,
                      help="RNG seed for every measured point")
    runp.add_argument("--csv", metavar="DIR", default=None,
                      help="also dump each section as CSV into DIR")
    runp.add_argument("--json", metavar="DIR", default=None,
                      help="also dump each result as JSON into DIR")
    runp.add_argument("--profile", action="store_true",
                      help="run under cProfile and print the top-25 "
                           "cumulative-time entries per experiment")
    runp.add_argument("--cache", choices=["off", "ro", "rw"], default="off",
                      help="consult the result store around every "
                           "scenario the experiment measures (opt-in "
                           "caching for the eval runners; store root "
                           "from --store / REPRO_STORE)")
    runp.add_argument("--store", metavar="DIR", default=None,
                      help="result-store root for --cache")
    sweepp = sub.add_parser(
        "sweep", help="run a user-defined scenario sweep from a spec file")
    sweepp.add_argument("spec",
                        help="JSON sweep spec: base+axes, one scenario, "
                             "or a scenario list")
    sweepp.add_argument("--jobs", type=_jobs, default=1,
                        help="worker processes (results are identical "
                             "for any job count)")
    sweepp.add_argument("--quick", action="store_true",
                        help="force fidelity='quick' on every point")
    sweepp.add_argument("--out", metavar="DIR", default=None,
                        help="write results.json + results.csv into DIR")
    sweepp.add_argument("--cache", choices=["off", "ro", "rw"],
                        default="off",
                        help="result-store mode: 'rw' serves repeat "
                             "points from the store and writes fresh "
                             "ones back (incremental sweeps), 'ro' "
                             "only serves, 'off' (default) simulates "
                             "everything")
    sweepp.add_argument("--store", metavar="DIR", default=None,
                        help="result-store root (default: REPRO_STORE "
                             "env or ~/.cache/repro-store)")
    sweepp.add_argument("--progress", action="store_true",
                        help="print done/total per-point progress to "
                             "stderr as points finalize")
    servep = sub.add_parser(
        "serve", help="run the scenario service (HTTP front end over "
                      "the sweep pool and the result store)")
    servep.add_argument("--host", default="127.0.0.1")
    servep.add_argument("--port", type=int, default=8078,
                        help="TCP port (0 = pick an ephemeral port)")
    servep.add_argument("--jobs", type=_jobs, default=1,
                        help="default worker processes per job")
    servep.add_argument("--cache", choices=["off", "ro", "rw"],
                        default="rw",
                        help="default result-store mode for submitted "
                             "jobs (default rw)")
    servep.add_argument("--store", metavar="DIR", default=None,
                        help="result-store root (default: REPRO_STORE "
                             "env or ~/.cache/repro-store)")
    servep.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    cachep = sub.add_parser(
        "cache", help="result-store maintenance: stats / gc / verify")
    cachep.add_argument("op", choices=["stats", "gc", "verify"],
                        help="stats: entry/byte counts per code "
                             "fingerprint; gc: drop stale-fingerprint "
                             "+ corrupt entries; verify: deep-check "
                             "every entry against its key")
    cachep.add_argument("--store", metavar="DIR", default=None,
                        help="result-store root (default: REPRO_STORE "
                             "env or ~/.cache/repro-store)")
    cachep.add_argument("--wipe", action="store_true",
                        help="gc: remove every entry, not just stale "
                             "code versions")
    infop = sub.add_parser(
        "info", help="area/power/bandwidth of one configuration")
    infop.add_argument("label", help="configuration label, e.g. AXI_32_64_4")
    infop.add_argument("--rows", type=int, default=4)
    infop.add_argument("--cols", type=int, default=4)
    infop.add_argument("--mot", type=int, default=8,
                       help="max outstanding transactions")
    return parser


def _info(args) -> int:
    from repro.models.area import mesh_area_kge
    from repro.models.power import mesh_power_mw, platform_power_fraction
    from repro.models.tech import kge_to_mm2
    from repro.noc.bandwidth import bisection_gbit_s, bisection_gib_s
    from repro.noc.config import NocConfig

    cfg = NocConfig.from_label(args.label, rows=args.rows, cols=args.cols,
                               max_outstanding=args.mot)
    area = mesh_area_kge(cfg)
    print(f"{cfg.label} as a {cfg.rows}x{cfg.cols} mesh, MOT={args.mot}")
    print(f"  area              : {area:8.1f} kGE  "
          f"({kge_to_mm2(area):.3f} mm^2 of cells in 22FDX)")
    print(f"  power @ 1 GHz     : {mesh_power_mw(cfg):8.1f} mW  "
          f"({100 * platform_power_fraction(cfg):.1f}% of a 100 mW/accel "
          f"platform)")
    print(f"  bisection (fig2)  : {bisection_gbit_s(cfg):8.1f} Gbit/s "
          f"(unidirectional)")
    print(f"  bisection (sec.IV): {bisection_gib_s(cfg):8.1f} GiB/s "
          f"(bidirectional)")
    print(f"  beat payload      : {cfg.beat_bytes:8d} B/cycle/link")
    return 0


def _profiled(fn, *args, **kwargs):
    """Run ``fn`` under cProfile; print the top-25 cumulative entries."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    result = prof.runcall(fn, *args, **kwargs)
    pstats.Stats(prof, stream=sys.stdout) \
        .sort_stats("cumulative").print_stats(25)
    return result


def _run(args) -> int:
    from repro.scenarios import MeasureSpec

    if args.store and args.cache == "off":
        print("error: --store requires --cache ro|rw", file=sys.stderr)
        return 2
    point_args = dict(measure=MeasureSpec.coerce(args.quick), seed=args.seed,
                      cache=args.cache, store=args.store)
    targets = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    timings: list[tuple[str, float]] = []
    for exp_id in targets:
        start = time.time()
        if args.profile:
            result = _profiled(run_experiment, exp_id, **point_args)
        else:
            result = run_experiment(exp_id, **point_args)
        elapsed = time.time() - start
        timings.append((exp_id, elapsed))
        print(render_text(result))
        print(f"[{exp_id} completed in {elapsed:.1f}s]")
        if args.csv:
            for path in save_csv(result, args.csv):
                print(f"wrote {path}")
        if args.json:
            from repro.store import code_fingerprint

            provenance = {"seed": args.seed,
                          "code_fingerprint": code_fingerprint()}
            path = save_json(result, args.json, provenance=provenance)
            print(f"wrote {path}")
    if len(targets) > 1:
        total = sum(t for _id, t in timings)
        slowest = max(timings, key=lambda it: it[1])
        print(f"all: {len(timings)} experiments in {total:.1f}s "
              f"(slowest: {slowest[0]} at {slowest[1]:.1f}s)")
    return 0


def _sweep(args) -> int:
    from dataclasses import replace

    from repro.eval.report import ExperimentResult
    from repro.scenarios import load_spec, run_sweep, save_artifacts

    if args.store and args.cache == "off":
        print("error: --store requires --cache ro|rw", file=sys.stderr)
        return 2
    try:
        points = load_spec(args.spec)
    except (ValueError, TypeError, KeyError) as exc:  # JSON errors too
        print(f"error: {args.spec}: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        points = [sc.with_(measure=replace(sc.measure, fidelity="quick"))
                  for sc in points]
    print(f"{args.spec}: {len(points)} point(s), jobs={args.jobs}"
          + (f", cache={args.cache}" if args.cache != "off" else ""))
    on_point = None
    if args.progress:
        def on_point(ev):
            print(f"[{ev.done}/{ev.total}] {ev.status:5s} "
                  f"{ev.scenario.label}", file=sys.stderr, flush=True)
    start = time.time()
    results = run_sweep(points, jobs=args.jobs, cache=args.cache,
                        store=args.store, on_point=on_point)
    elapsed = time.time() - start
    table = ExperimentResult("sweep", f"{len(points)} scenario point(s)")
    sec = table.section(
        "results", ["scenario", "GiB/s", "util_pct", "p50_lat", "cycles"])
    for point, result in zip(points, results):
        if result is None:
            sec.add(point.label, "FAILED", "-", "-", "-")
            continue
        sec.add(result.name, result.throughput_gib_s,
                result.utilization_pct if result.utilization_pct is not None
                else "-",
                result.latency_p50 if result.latency_p50 is not None
                else "-",
                result.cycles)
    if any(r is not None and r.faults for r in results):
        fsec = table.section(
            "faults", ["scenario", "injected", "detected", "retrans",
                       "recovered", "dropped", "resp_errors", "orphaned",
                       "timeout_rec", "rec_p50_lat", "rec_p99_lat"])
        for result in results:
            if result is None or not result.faults:
                continue
            f = result.faults
            rec = f.get("recovery_latency", {})
            fsec.add(result.name, f.get("injected", 0), f.get("detected", 0),
                     f.get("retransmissions", 0), f.get("recovered", 0),
                     f.get("dropped", 0), f.get("response_errors", 0),
                     f.get("orphaned", 0), f.get("timeout_recovered", 0),
                     rec.get("p50", 0.0), rec.get("p99", 0.0))
    print(render_text(table))
    print(f"[sweep completed in {elapsed:.1f}s — {results.stats.summary()}]")
    n_failed = sum(1 for r in results if r is None)
    if n_failed:
        print(f"WARNING: {n_failed}/{len(points)} point(s) failed "
              f"(see stderr)")
    if args.out:
        for path in save_artifacts(points, results, args.out):
            print(f"wrote {path}")
    return 1 if n_failed else 0


def _serve(args) -> int:
    from repro.service.server import make_server

    server = make_server(args.host, args.port, store=args.store,
                         cache=args.cache, jobs=args.jobs,
                         quiet=not args.verbose)
    host, port = server.server_address[:2]
    store = server.manager.store
    print(f"scenario service on http://{host}:{port}  "
          f"(cache={args.cache}, jobs={args.jobs}, "
          f"store={store.root if store is not None else 'none'})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.manager.shutdown()
        server.server_close()
    return 0


def _cache(args) -> int:
    from repro.store import ResultStore

    store = ResultStore.coerce(args.store)
    if args.op == "stats":
        stats = store.stats()
        print(f"store {stats['root']}: {stats['entries']} entr(ies), "
              f"{stats['bytes']} bytes")
        print(f"current code fingerprint: {stats['code_fingerprint']}")
        for fp, bucket in sorted(stats["fingerprints"].items()):
            print(f"  {fp}: {bucket['entries']} entr(ies), "
                  f"{bucket['bytes']} bytes")
        return 0
    if args.op == "gc":
        report = store.gc(wipe=args.wipe)
        print(f"gc {store.root}: removed {report['removed']} file(s), "
              f"freed {report['freed_bytes']} bytes")
        return 0
    report = store.verify()
    print(f"verify {store.root}: {report['checked']} checked, "
          f"{report['ok']} ok, {len(report['corrupt'])} corrupt, "
          f"{len(report['mismatched'])} mismatched")
    for kind in ("corrupt", "mismatched"):
        for rel in report[kind]:
            print(f"  {kind}: {rel}", file=sys.stderr)
    return 1 if report["corrupt"] or report["mismatched"] else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for exp_id, (desc, _fn) in EXPERIMENTS.items():
            print(f"{exp_id:8s} {desc}")
        return 0
    if args.command == "info":
        return _info(args)
    if args.command == "sweep":
        return _sweep(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "cache":
        return _cache(args)
    return _run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
