#!/usr/bin/env python
"""Census of reach: which ``src/repro`` functions the paper's figures,
its claims and the benchmark's workloads call.

    PYTHONPATH=src python tests/reach.py              # per-module report
    PYTHONPATH=src python tests/reach.py --unreached  # ... and the names
    PYTHONPATH=src python tests/reach.py --check      # exit 1 on drift

One process, stdlib ``cProfile`` on every thread (the scenario service
runs its worker and its request handlers on threads), over:

* ``repro run all --quick``;
* the ``benchmarks/test_*.py`` claims (pytest, ``--benchmark-disable``);
* each benchmark workload's ``--smoke`` pass, untraced then traced;
* the CI smokes: ``repro list``, the example sweep specs, the refused
  spec, the figure warm path and ``examples/service_smoke.py``.

Every sweep runs its points in this process: the sweep's process pool
is replaced by one that runs each task as it is submitted, so a point is
counted whatever ``--jobs`` says.  A function is *reached* when any of
these calls it at least once; a module is *unreached* when it defines
functions and none is reached.  ``--check`` exits 1 when a step fails,
a module outside DESIGN.md's reach-verdict table is unreached, or more
functions are unreached than DESIGN.md's ceiling allows.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import json
import re
import runpy
import sys
import tempfile
import threading
import time
import traceback
from concurrent import futures
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
DESIGN = ROOT / "DESIGN.md"

#: The heading of DESIGN.md's table of units kept although the census
#: leaves them unreached.
VERDICT_HEADING = "Reach verdicts"
#: DESIGN.md's sentence that records the most functions the census may
#: leave unreached.
CEILING = re.compile(r"at most (\d+)\s+functions\s+unreached")

#: CI's refused specs, by the field each must name: a baseline point
#: that sets an AXI-only field, a fault link that carries the removed
#: ``width_factor``, fault specs that carry the removed dead-port and
#: byzantine-beat keys, a measure that carries the removed per-link
#: capture, topologies that carry the removed ``register_slices``,
#: memory MOT, W-order depth, flit width and packet length, a fault
#: spec that carries the removed ``retry_timeout``, a topology that
#: carries the removed ``addr_width``, corruption and no VC on the
#: packet mesh, a stuck VC on the AXI mesh, a DNN point with a burst
#: cap, ``axes`` that is not an object and a seed that is not an int.
REFUSED_SPECS = {
    "data_width": {
        "base": {"topology": {"backend": "baseline", "rows": 2, "cols": 2,
                              "data_width": 64},
                 "traffic": {"kind": "uniform", "load": 0.1,
                             "max_burst_bytes": 1}},
        "axes": {"seed": [1]},
    },
    "width_factor": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1},
                 "faults": {"links": [{"src": 0, "dst": 1,
                                       "width_factor": 0.5}]}},
        "axes": {"seed": [1]},
    },
    "ports": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1},
                 "faults": {"ports": [{"node": 0, "port": 1}]}},
        "axes": {"seed": [1]},
    },
    "byzantine_rate": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1},
                 "faults": {"corrupt_rate": 1e-4, "byzantine_rate": 1e-3}},
        "axes": {"seed": [1]},
    },
    "per_link": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1},
                 "measure": {"per_link": True}},
        "axes": {"seed": [1]},
    },
    "register_slices": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2,
                              "register_slices": "all"},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": {"seed": [1]},
    },
    "memory_outstanding": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2,
                              "memory_outstanding": 8},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": {"seed": [1]},
    },
    "w_order_depth": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2,
                              "w_order_depth": 4},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": {"seed": [1]},
    },
    "flit_bytes": {
        "base": {"topology": {"backend": "baseline", "rows": 2, "cols": 2,
                              "flit_bytes": 8},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": {"seed": [1]},
    },
    "packet_flits": {
        "base": {"topology": {"backend": "baseline", "rows": 2, "cols": 2,
                              "packet_flits": 4},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": {"seed": [1]},
    },
    "retry_timeout": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1},
                 "faults": {"links": [{"src": 0, "dst": 1}],
                            "retry_timeout": 500}},
        "axes": {"seed": [1]},
    },
    "addr_width": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2,
                              "addr_width": 64},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": {"seed": [1]},
    },
    "corrupt_rate": {
        "base": {"topology": {"backend": "baseline", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1},
                 "faults": {"corrupt_rate": 1e-4}},
        "axes": {"seed": [1]},
    },
    "n_vcs": {
        "base": {"topology": {"backend": "baseline", "rows": 2, "cols": 2,
                              "n_vcs": 0},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": {"seed": [1]},
    },
    "stuck_vcs": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1},
                 "faults": {"stuck_vcs": [{"node": 0, "port": 1}]}},
        "axes": {"seed": [1]},
    },
    "max_burst_bytes": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "dnn", "workload": "par",
                             "max_burst_bytes": 64}},
        "axes": {"seed": [1]},
    },
    "axes": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": 5,
    },
    "seed": {
        "base": {"topology": {"backend": "patronoc", "rows": 2, "cols": 2},
                 "traffic": {"kind": "uniform", "load": 0.1}},
        "axes": {"seed": [1, True]},
    },
}


# ----------------------------------------------------------------------
# what is defined, and what is listed as kept
# ----------------------------------------------------------------------
def defined_functions() -> dict[str, dict[tuple[int, str], str]]:
    """Module path (relative to ``src/repro``) → {(first line, name):
    qualified name} for every ``def`` in it, nested ones included.  The
    first line is the first decorator's, as in ``co_firstlineno``."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        found: dict[tuple[int, str], str] = {}

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(first, child.name)] = prefix + child.name
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
        out[path.relative_to(PACKAGE).as_posix()] = found
    return out


def verdict_modules(design: Path = DESIGN) -> set[str]:
    """Modules (relative to ``src/repro``) that DESIGN.md's reach-verdict
    table keeps although no figure, claim or workload reaches them: the
    rows whose first cell is one module path."""
    text = design.read_text()
    start = text.index(VERDICT_HEADING)
    end = text.find("\n#", start)
    section = text[start:end if end >= 0 else len(text)]
    return set(re.findall(r"^\| `([\w/]+\.py)` \|", section, re.M))


def unreached_ceiling(design: Path = DESIGN) -> int:
    """The most functions the census may leave unreached (DESIGN.md
    §13): a deletion lowers it, and nothing may raise it silently."""
    return int(CEILING.search(design.read_text()).group(1))


# ----------------------------------------------------------------------
# profiling every thread
# ----------------------------------------------------------------------
class Census:
    """cProfile on this thread and on every thread started while it
    runs; :meth:`reached` reads all of them."""

    def __init__(self):
        self.profiles: list[cProfile.Profile] = []

    def _thread_started(self, frame, event, arg):
        # threading.setprofile installs this in each new thread before
        # its run(); the first event swaps in a profiler of its own.
        sys.setprofile(None)
        prof = cProfile.Profile(builtins=False)
        self.profiles.append(prof)
        prof.enable()

    @contextlib.contextmanager
    def running(self):
        main = cProfile.Profile(builtins=False)
        self.profiles.append(main)
        threading.setprofile(self._thread_started)
        main.enable()
        try:
            yield
        finally:
            main.disable()
            threading.setprofile(None)

    def reached(self) -> dict[str, set[tuple[int, str]]]:
        """Module path → {(first line, name)} of the functions called."""
        out: dict[str, set[tuple[int, str]]] = {}
        root = str(PACKAGE) + "/"
        for prof in self.profiles:
            # getstats(), not create_stats(): disabling a profiler from
            # this thread would switch off this thread's profile hook.
            for entry in prof.getstats():
                code = entry.code  # builtins=False: always a code object
                path = str(Path(code.co_filename).resolve())
                if path.startswith(root):
                    out.setdefault(path[len(root):], set()).add(
                        (code.co_firstlineno, code.co_name))
        return out


class InlinePool:
    """Stands in for the sweep's ``ProcessPoolExecutor`` (which
    ``run_sweep`` imports from ``concurrent.futures`` when it forks):
    each task runs here, when it is submitted."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # the sweep retries it, as for a pool
            future.set_exception(exc)
        return future


# ----------------------------------------------------------------------
# what runs
# ----------------------------------------------------------------------
def _cli(*argv: str) -> int:
    from repro.cli import main

    return main(list(argv))


def steps(work: Path) -> list[tuple[str, object, int]]:
    """(name, thunk, expected exit code) in run order."""
    examples = ROOT / "examples"
    refused = {}
    for field, spec in REFUSED_SPECS.items():
        refused[field] = work / f"refused-{field}.json"
        refused[field].write_text(json.dumps(spec))

    def sweep(spec, *extra):
        out = work / Path(spec).stem
        return lambda: _cli("sweep", str(examples / spec), "--jobs", "2",
                            *extra, "--out", str(out))

    def warm_path():
        store = str(work / "run-store")
        for argv in (["run", "table2", "--quick", "--cache", "rw"],) * 2 \
                + (["cache", "verify"], ["cache", "stats"]):
            if _cli(*argv, "--store", store):
                return 1
        return 0

    def service():
        store = str(work / "service-store")
        argv = sys.argv
        sys.argv = [str(examples / "service_smoke.py"), store]
        try:
            runpy.run_path(sys.argv[0], run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                return exc.code
        finally:
            sys.argv = argv
        return _cli("cache", "verify", "--store", store)

    out = [("repro list", lambda: _cli("list"), 0),
           ("repro run all --quick", lambda: _cli("run", "all", "--quick"),
            0),
           ("benchmarks/test_*.py", _claims, 0)]
    out += [(f"workload {name} --smoke", _workload(name, work), 0)
            for name in _workload_names()]
    out += [("sweep sweep_quick.json", sweep("sweep_quick.json"), 0),
            ("sweep fault_sweep_quick.json", sweep("fault_sweep_quick.json"),
             0),
            ("sweep stuck_vc_quick.json", sweep("stuck_vc_quick.json"), 0),
            ("sweep dnn_fault_sweep_quick.json",
             sweep("dnn_fault_sweep_quick.json", "--quick"), 0)]
    out += [(f"sweep refused spec ({field})",
             lambda path=path: _cli("sweep", str(path)), 2)
            for field, path in refused.items()]
    out += [("figure warm path", warm_path, 0),
            ("service smoke", service, 0)]
    return out


def _claims() -> int:
    import pytest

    files = sorted(str(p) for p in (ROOT / "benchmarks").glob("test_*.py"))
    return int(pytest.main(["-q", "-p", "no:cacheprovider",
                            "--benchmark-disable", *files]))


def _perf_path() -> None:
    perf = str(ROOT / "benchmarks" / "perf")
    if perf not in sys.path:
        sys.path.insert(0, perf)


def _workload_names() -> list[str]:
    _perf_path()
    import perf_workloads

    return list(perf_workloads.WORKLOADS)


def _workload(name: str, work: Path):
    """What ``benchmarks/perf/run.py --smoke`` runs of one workload: set
    up, one pass, the traced replay of it, the checks."""
    def run() -> int:
        _perf_path()
        import perf_workloads
        from perf_trace import HostClock, Tracer

        workload = perf_workloads.WORKLOADS[name](1, True, HostClock())
        workdir = work / name
        workdir.mkdir()
        workload.setup(workdir)
        try:
            first = workload.run_pass()
            replay = workload.traced_pass(Tracer(), first)
            workload.verify(first)
        finally:
            workload.close()
        bad = [r for outcome in (first, replay) for op in outcome.ops
               for r in op.results if perf_workloads.result_defect(r)]
        return 1 if bad or first.extra_failed or replay.extra_failed else 0
    return run


def run_census(log) -> tuple[dict, list[str]]:
    """Run every step under the census; return (reached, failed steps)."""
    census = Census()
    failed = []
    pool = futures.ProcessPoolExecutor
    futures.ProcessPoolExecutor = InlinePool
    try:
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp, \
                census.running():
            for name, thunk, expected in steps(Path(tmp)):
                started = time.perf_counter()
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        code = thunk()
                    except Exception:  # reported, then --check fails
                        code = "an exception"
                        traceback.print_exc(file=sink)
                ok = code == expected
                print(f"  {'ok  ' if ok else 'FAIL'} {name} "
                      f"({time.perf_counter() - started:.0f} s)", file=log)
                if not ok:
                    failed.append(name)
                    print(f"       exit {code!r}, expected {expected}; "
                          f"output ends:\n{sink.getvalue()[-2000:]}",
                          file=log)
    finally:
        futures.ProcessPoolExecutor = pool
    return census.reached(), failed


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a step fails, a module outside "
                             "DESIGN.md's reach verdicts is unreached, or "
                             "more functions are unreached than its ceiling")
    parser.add_argument("--unreached", action="store_true",
                        help="also name every unreached function")
    args = parser.parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    print("census steps:")
    reached, failed = run_census(sys.stdout)
    defined = defined_functions()
    kept = verdict_modules()
    print(f"\n{'module':36s} {'defined':>7s} {'reached':>7s}")
    drift = []
    for module, funcs in defined.items():
        if not funcs:
            continue
        hit = set(funcs) & reached.get(module, set())
        mark = ""
        if not hit:
            mark = "  (verdict)" if module in kept else "  UNREACHED"
            if module not in kept:
                drift.append(module)
        print(f"{module:36s} {len(funcs):7d} {len(hit):7d}{mark}")
        if args.unreached and len(hit) < len(funcs):
            names = sorted(q for key, q in funcs.items() if key not in hit)
            print("    unreached: " + ", ".join(names))
    total = sum(len(f) for f in defined.values())
    hits = sum(len(set(f) & reached.get(m, set()))
               for m, f in defined.items())
    print(f"\n{hits} of {total} functions reached in "
          f"{time.perf_counter() - started:.0f} s")
    if failed:
        print(f"failed steps: {', '.join(failed)}")
    if drift:
        print(f"unreached and not in DESIGN.md's {VERDICT_HEADING}: "
              f"{', '.join(drift)}")
    ceiling = unreached_ceiling()
    over = total - hits > ceiling
    if over:
        print(f"{total - hits} functions unreached, over DESIGN.md's "
              f"ceiling of {ceiling}")
    return 1 if args.check and (failed or drift or over) else 0


if __name__ == "__main__":
    sys.exit(main())
