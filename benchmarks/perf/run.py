#!/usr/bin/env python3
"""The repo benchmark: seven workloads, end-to-end metrics with bounds,
and a traced run that attributes host time to layers (README.md).

    python benchmarks/perf/run.py                      # everything, ~4 min
    python benchmarks/perf/run.py --smoke              # one tiny pass, 8-10 s
    python benchmarks/perf/run.py --workload axi_write --seed 2 \\
        --seconds 10 --trace 0                         # one driver run
    python benchmarks/perf/run.py compare A.json B.json

Each workload runs in its own child process, one at a time, so set-up
time and peak memory are per workload; this process never imports the
simulator.  With ``--workload`` the last line of standard output is the
driver's JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from perf_decl import (  # noqa: E402 - needs HERE on the path
    ABSOLUTE_SLACK,
    CONTRACT_E2E,
    E2E_METRICS,
    LAYER_METRICS,
    PROBED,
    TRACED,
    WORKLOADS,
)
from perf_trace import iqr_share  # noqa: E402

#: Never inherited by a child: each would silently change what is run.
SCRUBBED = ("REPRO_KERNEL", "REPRO_CACHE", "REPRO_STORE",
            "REPRO_CODE_FINGERPRINT", "REPRO_SWEEP_TEST_CRASH")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: A pass is sized to about two seconds, and a run makes a fixed number
#: of them: five at the ten seconds BENCHMARK.json declares.  The count
#: follows ``--seconds``, never how fast the host happens to be.
PASS_SECONDS = 2.0

#: Untraced passes a traced run makes first: they give the reference
#: Results and the untraced time ``trace_overhead_pct`` compares with.
TRACE_REFERENCE_PASSES = 2


# ----------------------------------------------------------------------
# child: one workload
# ----------------------------------------------------------------------
def _use_source_tree() -> None:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no simulator source at {src}; the benchmark "
                 f"runs from a checkout of the repository")
    sys.path.insert(0, str(src))


def worker(args) -> dict:
    from perf_trace import HostClock

    clock = HostClock()
    started = clock.sample()
    _use_source_tree()
    import perf_workloads as pw
    from repro.store import code_fingerprint

    fingerprint = code_fingerprint()
    workload = pw.WORKLOADS[args.workload](args.seed, args.smoke, clock)
    workload.setup(Path(args.workdir))
    ready = clock.sample()
    # Child start (stamped by the parent at spawn) to first timed op,
    # less the clock's own samples.
    setup = time.time() - args.t0 - clock.spent
    report = {"setup_s": setup * clock.scale(started, ready),
              "setup_raw_s": setup, "code_fingerprint": fingerprint}
    try:
        if not args.setup_only:
            report.update(_measure(pw, workload, args))
    finally:
        workload.close()
    return report


def _passes(args) -> int:
    if args.smoke:
        return 1
    if args.trace:
        return TRACE_REFERENCE_PASSES
    return max(2, round(args.seconds / PASS_SECONDS))


def _measure(pw, workload, args) -> dict:
    passes = [workload.run_pass() for _ in range(_passes(args))]
    first = passes[0]
    attempted = failed = 0
    notes: list[str] = []
    digests = [pw.result_digest(op.results) for op in first.ops]
    for outcome in passes:
        for op, digest in zip(outcome.ops, digests):
            defects = [pw.result_defect(r) for r in op.results]
            if outcome is not first and not any(defects) \
                    and pw.result_digest(op.results) != digest:
                defects = ["differs between two passes"]
            attempted += len(op.results)
            bad = [d for d in defects if d]
            failed += len(bad)
            notes += [f"{op.ident}: {d}" for d in bad[:3]]
    per_pass = {
        "wall_s": [o.seconds("wall") for o in passes],
        "cpu_s": [o.seconds("cpu") for o in passes],
        "wall_raw_s": [o.seconds("wall", scaled=False) for o in passes],
        "cpu_raw_s": [o.seconds("cpu", scaled=False) for o in passes],
    }
    wall, cpu, raw_wall, raw_cpu = map(statistics.median, per_pass.values())
    traced = None
    checked = passes[1:]
    if args.trace:
        traced, replay = _traced_pass(workload, first, args, wall)
        checked.append(replay)
    workload.verify(first)
    for outcome in (first, *checked):
        attempted += outcome.extra_attempted
        failed += outcome.extra_failed
        notes += outcome.notes
    values = {"wall_s": wall, "cpu_s": cpu,
              "points_per_s": len(first.results) / wall}
    if workload.simulates:
        values["sim_kcycles_per_s"] = first.cycles / wall / 1e3
    error = pw.paper_err_pct(workload.name, {
        op.ident: op.results[0] for op in first.ops})
    if error is not None:
        values["paper_err_pct"] = error
    rusage = [resource.getrusage(who) for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    values["peak_rss_mib"] = sum(r.ru_maxrss for r in rusage) / 1024
    return {"values": values, "per_pass": per_pass,
            "raw": {"wall_s": raw_wall, "cpu_s": raw_cpu},
            "attempted": attempted, "failed": failed, "notes": notes[:20],
            "results_digest": pw.result_digest(first.results),
            "traced": traced}


def _traced_pass(workload, reference, args, untraced_wall):
    """One pass with spans on: the workload's own per-layer rows."""
    from perf_trace import Tracer

    tracer = Tracer()
    replay = workload.traced_pass(tracer, reference)
    own = tracer.self_times()
    if args.trace_out:
        tracer.dump(Path(args.trace_out))
    rows = {
        "scenarios.build_s": own.get("build", 0.0),
        "scenarios.warmup_s": own.get("warmup", 0.0),
        "scenarios.window_s": own.get("window", 0.0),
        "scenarios.collect_s": own.get("collect", 0.0),
        "scenarios.run_overhead_s": own.get("run_scenario", 0.0),
        "scenarios.sweep_s": own.get("run_sweep", 0.0),
        "service.http_s": sum(seconds for name, seconds in own.items()
                              if name.startswith("http")),
        "trace_overhead_pct": 100.0 * (
            replay.seconds("wall") / untraced_wall - 1.0),
    }
    assert set(rows) == set(TRACED)
    return rows, replay


def probes(args) -> dict:
    _use_source_tree()
    from perf_layers import Probes

    probe = Probes(Path(args.workdir), args.smoke)
    probe.run()
    return {"values": probe.values, "notes": probe.notes}


# ----------------------------------------------------------------------
# parent: spawning children
# ----------------------------------------------------------------------
def _spawn(mode: str, workdir: Path, *extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    command = [sys.executable, str(HERE / "run.py"), mode,
               "--workdir", str(workdir), "--t0", repr(time.time()), *extra]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"run.py: {mode} child exited {done.returncode} "
                         f"({' '.join(extra)})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, workdir: Path, out: Path | None, *,
                 trace: bool) -> dict:
    """One workload measured once: a full child plus, untraced, two
    set-up-only children, so ``setup_s`` is a median of three."""
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    extra = ["--trace", "1"] if trace else []
    if trace and out is not None:
        extra += ["--trace-out", str(out / f"trace-{name}.json")]
    report = _spawn("worker", workdir, *common, *extra)
    setups = [report]
    if not trace and not args.smoke:
        setups += [_spawn("worker", workdir, *common, "--setup-only")
                   for _ in range(SETUPS - 1)]
    for key, into in (("setup_s", "values"), ("setup_raw_s", "raw")):
        samples = [child[key] for child in setups]
        report["per_pass"][key] = samples
        report[into]["setup_s"] = statistics.median(samples)
    return report


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, fingerprint: str) -> dict:
    status = _git("status", "--porcelain")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_rev": _git("rev-parse", "HEAD"),
            "dirty": bool(status) if status is not None else None,
            "code_fingerprint": fingerprint, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke}


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def driver_run(args, workdir: Path, out: Path | None) -> int:
    """``--workload``: one run in the driver's contract; the last line
    of standard output is the result object."""
    report = run_workload(args.workload, args, workdir, out,
                          trace=bool(args.trace))
    if args.trace:
        probed = _spawn("probes", workdir,
                        *(["--smoke"] if args.smoke else []))["values"]
        values = {**report["traced"], **probed}
        # An optional row whose constructor argument is gone reads 0.
        metrics = {name: {"value": values[name] or 0.0, "unit": unit}
                   for name, (unit, _better, _moves) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": report["values"][name],
                          "unit": E2E_METRICS[name][0]}
                   for name in CONTRACT_E2E}
    for note in report["notes"]:
        print(f"run.py: {args.workload}: {note}", file=sys.stderr)
    print(f"run.py: {args.workload}: as measured on this host: "
          f"{json.dumps(report['raw'])}", file=sys.stderr)
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def full_run(args, workdir: Path, out: Path) -> int:
    """Every workload, untraced then traced, then the layer probes;
    prints every metric by name and unit and writes ``results.json``."""
    pinned = json.loads((HERE / "expected_digests.json").read_text())
    document = {"workloads": {}, "layers": {}}
    fingerprint = None
    for name in WORKLOADS:
        print(f"== {name}: {WORKLOADS[name]}", flush=True)
        traced = run_workload(name, args, workdir, out, trace=True)
        report = traced if args.smoke else run_workload(
            name, args, workdir, out, trace=False)
        fingerprint = report["code_fingerprint"]
        both = [report] if args.smoke else [report, traced]
        attempted = sum(r["attempted"] for r in both)
        failed = sum(r["failed"] for r in both)
        values = dict(report["values"], failed_share=failed / attempted)
        expected = pinned.get(f"seed{args.seed}", {}).get(name)
        entry = {
            "why": WORKLOADS[name], "attempted": attempted, "failed": failed,
            "notes": [note for r in both for note in r["notes"]],
            "results_digest": report["results_digest"],
            "digest_pinned_match": (report["results_digest"] == expected
                                    if expected and not args.smoke else None),
            "metrics": {metric: {"value": value,
                                 "unit": E2E_METRICS[metric][0]}
                        for metric, value in values.items()},
            "raw": report["raw"], "per_pass": report["per_pass"],
            "layers": traced["traced"],
            "dominant": _dominant(traced["traced"]),
        }
        document["workloads"][name] = entry
        _print_workload(name, entry)
    probed = _spawn("probes", workdir, *(["--smoke"] if args.smoke else []))
    for name, (unit, _better, moves) in PROBED.items():
        document["layers"][name] = {
            "value": probed["values"][name], "unit": unit,
            "note": probed["notes"].get(name), "moves": moves}
    document["env"] = environment(args, fingerprint)
    _print_layers(document["layers"])
    path = out / "results.json"
    path.write_text(json.dumps(document, indent=1))
    print(f"\nresults: {path}\ntraces:  {out}/trace-<workload>.json")
    return 1 if any(w["failed"] for w in document["workloads"].values()) else 0


PHASES = ("scenarios.build_s", "scenarios.warmup_s", "scenarios.window_s",
          "scenarios.collect_s", "scenarios.run_overhead_s")


def _dominant(rows: dict) -> str:
    """The traced row holding most of the pass.  Where points were
    replayed phase by phase the phases are compared (``sweep_s`` is the
    same work seen from outside); otherwise the sweep and HTTP rows."""
    names = PHASES if any(rows[p] for p in PHASES) \
        else ("scenarios.sweep_s", "service.http_s")
    name = max(names, key=rows.get)
    share = rows[name] / sum(rows[n] for n in names)
    return f"{name} ({100 * share:.0f} % of the traced time)"


def _print_workload(name: str, entry: dict) -> None:
    for metric in E2E_METRICS:
        m = entry["metrics"].get(metric)
        if m is not None:
            raw = entry["raw"].get(metric)
            print(f"  {metric:20s} {m['value']:12.4f} {m['unit']}" + (
                f"  ({raw:.4f} s as measured on this host)" if raw else ""))
        elif metric == "paper_err_pct":
            print(f"  {metric:20s} {'-':>12s} (no paper reference: "
                  f"unvalidated)")
        else:
            print(f"  {metric:20s} {'-':>12s} (nothing is simulated)")
    passes = entry["per_pass"]["wall_s"]
    print(f"  ops attempted={entry['attempted']} failed={entry['failed']} "
          f"passes={len(passes)} ({min(passes):.3f}-{max(passes):.3f} s) "
          f"set-ups={len(entry['per_pass']['setup_s'])}")
    print(f"  results_digest={entry['results_digest'][:16]} "
          f"digest_pinned_match={entry['digest_pinned_match']}")
    for note in entry["notes"]:
        print(f"  ! {note}")
    for row, value in entry["layers"].items():
        print(f"    {row:28s} {value:10.4f} {TRACED[row][0]}")
    print(f"  dominant: {entry['dominant']}", flush=True)


def _print_layers(layers: dict) -> None:
    print("\n== per-layer probes (not gated)")
    for name, row in layers.items():
        value = "null" if row["value"] is None else f"{row['value']:.4f}"
        moves = sorted({m for m, _w in row["moves"]})
        print(f"  {name:38s} {value:>12s} {row['unit']:6s}"
              f"{' ' + row['note'] if row['note'] else '':12s}"
              f" -> {', '.join(moves) or '-'}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        raise SystemExit(f"compare: no result JSON in {path}")
    return runs


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    """This metric's value in every run that reports it."""
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in runs
            if metric in run["workloads"].get(workload, {}).get("metrics", {})]


def compare(args) -> int:
    """Parent (A) against change (B), one row per workload × metric:
    both medians, B/A, and ok / worse / unresolved."""
    a_runs, b_runs = _load_runs(Path(args.a)), _load_runs(Path(args.b))
    bad = 0
    print(f"A: {len(a_runs)} run(s) of the parent; "
          f"B: {len(b_runs)} run(s) of the change")
    print(f"{'workload':14s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>8s}  verdict")
    for workload in WORKLOADS:
        for metric, (_unit, better, bound) in E2E_METRICS.items():
            a = _values(a_runs, workload, metric)
            b = _values(b_runs, workload, metric)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1 if better == "lower" else -1
            spread = max(iqr_share(a), iqr_share(b))
            # Every run of the change better than every run of the parent.
            clear = max(sign * v for v in b) < min(sign * v for v in a)
            allowed = max(bound * abs(med_a),
                          ABSOLUTE_SLACK.get(metric, 0.0))
            if sign * (med_b - med_a) > allowed:
                verdict = "worse"
                bad += 1
            elif spread > bound > 0 and not clear:
                verdict = f"unresolved (spread {100 * spread:.1f} %)"
            else:
                verdict = "ok"
            ratio = f"{med_b / med_a:8.3f}" if med_a else "     n/a"
            print(f"{workload:14s} {metric:20s} {med_a:12.4f} {med_b:12.4f} "
                  f"{ratio}  {verdict}")
    print("A, B: medians over the runs; B/A: the change's median over the "
          "parent's;\nspread: widest first-to-third-quartile distance of "
          "either side, as a share of its median (0 with one run a side)")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------
def _child_parser(mode: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"run.py {mode}")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    if mode == "worker":
        parser.add_argument("--workload", required=True, choices=WORKLOADS)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=10.0)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--trace-out", default=None)
        parser.add_argument("--setup-only", action="store_true")
    return parser


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", help="parent: results.json or a directory "
                                      "of them")
        parser.add_argument("b", help="change: results.json or a directory "
                                      "of them")
        return compare(parser.parse_args(argv[1:]))
    if argv[:1] in (["worker"], ["probes"]):
        child = worker if argv[0] == "worker" else probes
        print(json.dumps(child(_child_parser(argv[0]).parse_args(argv[1:]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one driver run of this workload (default: "
                             "the full report over all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="regenerates every workload (default 1; "
                             "hold 2 out for confirming a claim)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run length: one timed pass per two seconds "
                             "(default 10: five passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced run that "
                             "reports the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over tiny windows (for the test)")
    parser.add_argument("--out", default=None,
                        help="directory for results.json and traces "
                             "(default: a fresh one in the system's temp "
                             "directory)")
    args = parser.parse_args(argv)
    _use_source_tree()  # exits where there is nothing to benchmark
    # Stores and scratch: a fresh directory inside the checkout (a driver
    # run may write nowhere else), removed when the run ends.
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    elif args.workload:
        out = None  # a driver run keeps nothing
    else:
        out = Path(tempfile.mkdtemp(prefix="repro-perf-"))
    try:
        mode = driver_run if args.workload else full_run
        return mode(args, workdir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
