"""Parameter-grid sweeps over scenarios, with parallel execution.

A :class:`Sweep` is a base :class:`~repro.scenarios.spec.Scenario` plus
named axes; :meth:`Sweep.points` expands the cartesian product into
fully-specified Scenarios (each carrying its own seed, so every point is
deterministic no matter which worker runs it).  :func:`run_sweep`
executes points serially or across a :class:`ProcessPoolExecutor` —
results are bit-identical either way — and :func:`save_artifacts`
serializes scenario+result pairs to JSON and CSV.

Axis keys are dotted spec paths (``"traffic.load"``,
``"topology.data_width"``, ``"measure.window"``, ``"seed"``) or the
short aliases below; whole-spec axes (``"topology"``) accept anything
the spec's ``coerce`` does (labels like ``"slim"``, dicts, instances)::

    sw = sweep(loads=[0.1, 0.5, 1.0], configs=["slim", "wide"])
    results = run_sweep(sw, jobs=4, out="artifacts/")
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.faults.spec import FaultSpec
from repro.scenarios.result import (
    Result,
    save_results_csv,
    save_results_json,
)
from repro.scenarios.run import run_scenario
from repro.scenarios.spec import (
    SPEC_COERCERS,
    MeasureSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
)

#: The module that simulates each backend.  A pooled sweep imports the
#: ones its points use before it forks, so every worker inherits them
#: instead of compiling them again.
FABRICS = {"patronoc": "repro.noc.network",
           "baseline": "repro.baseline.network"}

#: Short axis names → dotted spec paths.
AXIS_ALIASES = {
    "loads": "traffic.load",
    "rates": "traffic.load",
    "burst_caps": "traffic.max_burst_bytes",
    "read_fractions": "traffic.read_fraction",
    "patterns": "traffic.pattern",
    "workloads": "traffic.workload",
    "configs": "topology",
    "topologies": "topology",
    "measures": "measure",
    "seeds": "seed",
    "fault_rates": "faults.link_rate",
    "corrupt_rates": "faults.corrupt_rate",
    "recoveries": "faults.recovery",
}

class Sweep:
    """A base scenario crossed with named parameter axes."""

    def __init__(self, base: Scenario | None = None,
                 axes: dict | None = None):
        self.base = base if base is not None else Scenario()
        if axes is None:
            axes = {}
        if not isinstance(axes, dict):
            raise TypeError(f"axes must be an object of axis: values, "
                            f"got {type(axes).__name__}")
        self.axes: dict[str, list] = {}
        for key, values in axes.items():
            path = AXIS_ALIASES.get(key, key)
            if path in self.axes:
                raise ValueError(
                    f"axis {key!r} collides with an earlier axis: both "
                    f"resolve to {path!r}")
            _check_axis_path(path)
            # A string or dict would iterate into characters or keys.
            if not isinstance(values, (list, tuple)):
                raise TypeError(f"{key} must be a list or tuple of values, "
                                f"got {type(values).__name__}")
            self.axes[path] = list(values)

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def points(self) -> list[Scenario]:
        """Expand the grid: one Scenario per axis-value combination,
        in row-major order of the axes as given."""
        paths = list(self.axes)
        return [_apply_axes(self.base, zip(paths, combo))
                for combo in itertools.product(*self.axes.values())]

    @classmethod
    def from_dict(cls, data: dict) -> "Sweep":
        unknown = set(data) - {"base", "axes"}
        if unknown:
            raise ValueError(
                f"unknown sweep key(s) {sorted(unknown)}; expected "
                f"base / axes")
        return cls(base=Scenario.from_dict(data.get("base", {})),
                   axes=data.get("axes", {}))


def sweep(base: Scenario | None = None, **axes) -> Sweep:
    """Convenience constructor: ``sweep(loads=[...], configs=[...])``."""
    return Sweep(base=base, axes=axes)


@dataclass(frozen=True)
class SweepStats:
    """Per-sweep point accounting: where each point's Result came from.

    ``hits`` were served from the result store without simulating,
    ``misses`` were freshly simulated (including points that succeeded
    on the retry of a pool failure), ``errors`` failed and are
    ``None`` in the results.  ``hits + misses + errors == total``.
    """

    total: int
    hits: int = 0
    misses: int = 0
    errors: int = 0

    def summary(self) -> str:
        return (f"{self.hits} hit(s), {self.misses} miss(es), "
                f"{self.errors} error(s)")


class SweepResults(list):
    """``run_sweep``'s return value: a plain list of Results (``None``
    for failed points), plus ``.stats`` — hit/miss/error accounting.
    Compares equal to an ordinary list of the same Results, so
    serial/parallel/cached bit-identity assertions stay list ==."""

    def __init__(self, results=(), stats: SweepStats | None = None):
        super().__init__(results)
        self.stats = stats if stats is not None else SweepStats(len(self))


@dataclass(frozen=True)
class ProgressEvent:
    """One finalized sweep point, delivered to ``run_sweep(on_point=)``.

    ``status`` is ``"hit"`` (served from the store), ``"run"`` (freshly
    simulated), or ``"error"`` (failed; ``result`` is None).  ``done``
    counts finalized points so far — monotonic, ending at ``total`` —
    which is all a ``done/total`` progress display (CLI ``--progress``,
    the service's NDJSON stream) needs.
    """

    index: int
    done: int
    total: int
    status: str
    scenario: Scenario
    result: Result | None


def _run_point(sc: Scenario) -> Result:
    """One pool task: one point.  ``run_scenario`` is looked up here, in
    the worker, so a test can patch the module attribute with a closure
    (which could not be pickled as the task itself)."""
    return run_scenario(sc)


def _attempt(sc: Scenario) -> Result | Exception:
    """``run_scenario(sc)`` in this process, or the exception it raised."""
    try:
        return run_scenario(sc)
    except Exception as exc:
        return exc


def check_jobs(jobs: int) -> int:
    """``jobs``, or ValueError if it is below 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


class SweepPlan:
    """What a sweep must simulate, decided once for every caller.

    Building the plan keys each point (``StoreKey``: spec hash, seed,
    code fingerprint), maps every copy to the first index with its key,
    reads the store once per distinct key and calls ``on_point`` with
    the hits in index order.  :meth:`run` simulates the distinct misses
    and hands each copy its first index's Result and status.
    ``run_sweep`` is the two back to back; the scenario service builds
    the plan in the request thread and runs it on its worker.
    """

    def __init__(self, points: list[Scenario], *, cache: str = "off",
                 store=None,
                 on_point: Callable[[ProgressEvent], None] | None = None):
        from repro.store import (
            ResultStore,
            StoreKey,
            check_cache_mode,
            code_fingerprint,
            spec_hash,
        )

        check_cache_mode(cache)
        if cache == "off" and store is not None:
            raise ValueError("store given but cache='off'; pass cache='rw' "
                             "or 'ro' to use it")
        self.points = points
        self.cache = cache
        self.store = ResultStore.coerce(store) if cache != "off" else None
        self.results: list[Result | None] = [None] * len(points)
        self.done = 0
        fingerprint = code_fingerprint()
        copies: dict[StoreKey, list[int]] = {}
        for i, sc in enumerate(points):
            copies.setdefault(StoreKey(spec_hash(sc), sc.seed, fingerprint),
                              []).append(i)
        #: The distinct misses, as the indices of each key's copies.
        self.pending: list[list[int]] = []
        for key, indices in copies.items():
            hit = self.store.load(key) if self.store is not None else None
            if hit is None:
                self.pending.append(indices)
            for i in indices:
                self.results[i] = hit
        for i, hit in enumerate(self.results):
            if hit is not None:
                self._finish(on_point, (i,), hit, "hit")
        self.hits = self.done

    def _finish(self, on_point, indices, result: Result | None,
                status: str) -> None:
        """Give ``indices`` their Result, write a fresh one back once
        (``cache="rw"``), then send one event per index."""
        if status == "run" and self.cache == "rw":
            self.store.put(self.points[indices[0]], result)
        for i in indices:
            self.results[i] = result
            self.done += 1
            if on_point is not None:
                on_point(ProgressEvent(
                    index=i, done=self.done, total=len(self.points),
                    status=status, scenario=self.points[i], result=result))

    def _first_tries(self, jobs: int):
        """Each distinct miss's Result, in order, or the exception it
        raised — serially (``jobs == 1``), or one pool task each."""
        points = [self.points[indices[0]] for indices in self.pending]
        if jobs == 1:
            yield from map(_attempt, points)
            return
        # Imported here: a serial sweep loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from importlib import import_module

        for backend in {sc.topology.backend for sc in points}:
            import_module(FABRICS[backend])
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for future in [pool.submit(_run_point, sc) for sc in points]:
                try:
                    yield future.result()
                except Exception as exc:
                    # Includes BrokenProcessPool: a dead worker fails
                    # every in-flight future, and all their points land
                    # in the retry.
                    yield exc

    def run(self, jobs: int = 1,
            on_point: Callable[[ProgressEvent], None] | None = None,
            ) -> SweepResults:
        """Simulate each distinct miss once (serially, or over a pool of
        ``jobs`` workers), retry a pool worker's failure once in this
        process, and return every point's Result in index order
        (``jobs`` checked by the caller, :func:`check_jobs`).  A point
        that failed in this process is not retried: it would fail the
        same way, and a tripped ``max_wall_s`` would cost twice."""
        points = self.points
        pooled = jobs > 1 and len(self.pending) > 1
        failed: list[tuple[int, Exception]] = []

        def settle(indices, outcome):
            if isinstance(outcome, Exception):
                failed.extend((i, outcome) for i in indices)
                self._finish(on_point, indices, None, "error")
            else:
                self._finish(on_point, indices, outcome, "run")

        retries = []
        for indices, outcome in zip(self.pending,
                                    self._first_tries(jobs if pooled else 1)):
            if pooled and isinstance(outcome, Exception):
                retries.append(indices)
            else:
                settle(indices, outcome)
        for indices in retries:
            # In-process, so worker-environment flakiness is out of the loop.
            settle(indices, _attempt(points[indices[0]]))
        stats = SweepStats(total=len(points), hits=self.hits,
                           misses=len(points) - self.hits - len(failed),
                           errors=len(failed))
        if failed:
            how = "after one retry" if pooled else "serially, not retried"
            print(f"run_sweep: {len(failed)}/{len(points)} point(s) failed "
                  f"{how} ({stats.summary()}):", file=sys.stderr)
            for i, exc in failed:
                print(f"  [{i}] {points[i].label}{_fault_axes(points[i])}: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return SweepResults(self.results, stats)


def run_sweep(points: Sweep | list[Scenario], *, jobs: int = 1,
              out: str | Path | None = None,
              cache: str = "off", store=None,
              on_point: Callable[[ProgressEvent], None] | None = None,
              ) -> SweepResults:
    """Run every point; return results in point order (a
    :class:`SweepPlan`, built and run).

    ``jobs > 1`` fans the distinct points out over a process pool, one
    task each.  Each Scenario is self-contained (its own seed), so
    parallel results are bit-identical to serial; copies of one point
    (same spec hash and seed) are simulated once and share its Result
    and status.  With ``out`` set, scenario+result artifacts are
    written there (``results.json``, ``results.csv``).

    ``cache="rw"`` consults a :class:`~repro.store.ResultStore`
    (``store`` — a ResultStore, a root path, or None for the default
    store) before simulating: hits skip simulation entirely, misses run
    and are written back, so growing a grid re-runs only the delta and
    resubmitting an identical sweep simulates nothing.  ``"ro"`` serves
    hits but never writes; ``"off"`` (the default) uses no store.
    Cached Results are bit-identical to fresh ones, so cached
    artifacts are byte-identical too.

    ``on_point`` is called once per *finalized* point (cache hit, fresh
    result, or failure) with a :class:`ProgressEvent`; the CLI
    ``--progress`` flag and the scenario service's progress stream are
    both this hook.  The returned list carries the accounting as
    ``.stats`` (:class:`SweepStats`).

    One bad point does not sink the sweep: a point that raises in a
    pool worker — or a worker that dies, which breaks the whole pool —
    is retried once, serially, in the parent; a point that raises in
    the parent (``jobs=1``, or one point to simulate) is not retried.
    Points that fail are reported on stderr and returned as ``None``
    (artifacts keep them as JSON ``null`` so indices stay aligned with
    the scenarios).
    """
    if isinstance(points, Sweep):
        points = points.points()
    check_jobs(jobs)
    results = SweepPlan(points, cache=cache, store=store,
                        on_point=on_point).run(jobs, on_point)
    if out is not None:
        save_artifacts(points, results, out)
    return results


def _fault_axes(sc: Scenario) -> str:
    """A failed point's fault coordinates for the stderr report: the
    label alone cannot distinguish points that differ only in fault
    axes (rate, recovery mode, response-path knobs)."""
    f = sc.faults
    if f is None or not f.active():
        return ""
    parts = [f"recovery={f.recovery}"]
    if f.link_rate:
        parts.append(f"link_rate={f.link_rate:g}")
    if f.corrupt_rate:
        parts.append(f"corrupt_rate={f.corrupt_rate:g}")
    if f.response_faults:
        parts.append(f"response_faults txn_timeout={f.txn_timeout}")
    if f.links:
        parts.append(f"links={len(f.links)}")
    if f.stuck_vcs:
        parts.append(f"stuck_vcs={len(f.stuck_vcs)}")
    return " (" + ", ".join(parts) + ")"


def save_artifacts(points: list[Scenario], results: list[Result],
                   out_dir: str | Path) -> list[Path]:
    """Write ``results.json`` (scenario+result pairs) and
    ``results.csv`` (flat table) into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [
        save_results_json(results, out_dir / "results.json",
                          scenarios=points),
        save_results_csv(results, out_dir / "results.csv"),
    ]


def load_spec(path: str | Path) -> list[Scenario]:
    """Load a JSON sweep/scenario spec file into a list of points: a
    sweep (``{"base": ..., "axes": ...}``), a single scenario object,
    or a list of scenario objects."""
    return points_from_data(json.loads(Path(path).read_text()))


def points_from_data(data) -> list[Scenario]:
    """Decoded spec JSON → points: a sweep object (``base``/``axes``),
    a single scenario object, or a list of scenario objects.  The JSON
    half of :func:`load_spec`, shared with the scenario service (which
    receives the same shapes over HTTP instead of from a file)."""
    if isinstance(data, list):
        return [Scenario.from_dict(d) for d in data]
    if not isinstance(data, dict):
        raise ValueError(
            f"spec must be a JSON object or list, got {type(data).__name__}")
    if "axes" in data or "base" in data:
        return Sweep.from_dict(data).points()
    return [Scenario.from_dict(data)]


def _check_axis_path(path: str) -> None:
    head, _, rest = path.partition(".")
    if head in ("seed", "name") and not rest:
        return
    if head in SPEC_COERCERS:
        if not rest or rest in _axis_fields(head):
            return
        raise ValueError(f"unknown {head} field {rest!r} in axis {path!r}")
    raise ValueError(
        f"unknown axis {path!r}; use 'seed', 'name', 'topology[.field]', "
        f"'traffic[.field]', 'measure[.field]', 'faults[.field]', or an "
        f"alias {sorted(AXIS_ALIASES)}")


def _axis_fields(head: str) -> set[str]:
    cls = {"topology": TopologySpec, "traffic": TrafficSpec,
           "measure": MeasureSpec, "faults": FaultSpec}[head]
    return set(cls.__dataclass_fields__)


def _apply_axes(base: Scenario, values) -> Scenario:
    """``base`` with every ``(path, value)`` applied, built once: the
    Scenario checks its fields together (a ``response_faults`` axis
    needs the ``txn_timeout`` of the next one)."""
    from dataclasses import replace

    top: dict = {}
    fields: dict[str, dict] = {}
    for path, value in values:
        head, _, rest = path.partition(".")
        if head in ("seed", "name"):
            top[head] = value
        elif not rest:  # whole-spec axis
            top[head] = SPEC_COERCERS[head](value)
        else:
            fields.setdefault(head, {})[rest] = value
    for head, changes in fields.items():
        sub = top.get(head, getattr(base, head))
        if sub is None:  # faults axis on a fault-free base scenario
            sub = FaultSpec()
        top[head] = replace(sub, **changes)
    return replace(base, **top)
