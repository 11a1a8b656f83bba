"""Experiment registry: every table and figure of the paper's evaluation,
mapped to its regenerating function (see DESIGN.md §4 and §9).

Runners share one signature: ``run(measure, seed, cache="off",
store=None) -> ExperimentResult``, where ``measure`` is a
:class:`~repro.scenarios.spec.MeasureSpec` (or anything its ``coerce``
accepts, including the legacy ``quick`` bool).  A simulating runner is
a list of :class:`~repro.scenarios.spec.Scenario` points, measured by
:func:`measure_points` and arranged into the paper's figure layout; the
analytic ones ignore all four arguments.

``cache`` / ``store`` are ``run_sweep``'s (``repro run --cache rw``):
already-measured points come from the content-addressed store
(DESIGN.md §12), so re-rendering a figure after an unrelated change
costs zero simulations.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable

from repro.eval.report import ExperimentResult

if TYPE_CHECKING:
    from repro.scenarios import MeasureSpec, Result, Scenario


def _runner(module: str) -> Callable[..., ExperimentResult]:
    """``repro.eval.<module>.run``, imported when it is first called:
    listing the registry (``repro list``, argument parsing) must not
    cost the import of every figure's simulator stack."""
    def run(measure, seed, cache="off", store=None):
        return import_module(f"repro.eval.{module}").run(
            measure, seed, cache, store)
    return run


def measure_points(points: list[Scenario], cache: str = "off",
                   store=None) -> list[Result]:
    """Measure a figure's points, in order, through ``run_sweep`` — the
    one place that decides hit, run, retry and write-back.  A figure's
    layout needs every point, so one that failed its retry raises
    (``run_sweep`` has already named it on stderr)."""
    from repro.scenarios import run_sweep

    results = run_sweep(points, cache=cache, store=store)
    if results.stats.errors:
        raise RuntimeError(
            f"{results.stats.errors} of {len(points)} point(s) failed "
            f"after one retry (see stderr)")
    return results


#: id → (description, runner).
EXPERIMENTS: dict[str, tuple[str, Callable[..., ExperimentResult]]] = {
    "table1": ("Table I: mesh parameter space", _runner("table1")),
    "fig2": ("Fig. 2: 2x2 area vs bisection bandwidth vs ESP-NoC",
             _runner("fig2")),
    "fig3": ("Fig. 3: 4x4 scaling and MOT/area tradeoff", _runner("fig3")),
    "fig4": ("Fig. 4: uniform random traffic vs packet baseline",
             _runner("fig4")),
    "fig6": ("Fig. 6: synthetic pattern utilization", _runner("fig6")),
    "fig8": ("Fig. 8: DNN workload throughput", _runner("fig8")),
    "table2": ("Table II: comparison with state-of-the-art NoCs",
               _runner("table2")),
    "power": ("Sec. III: power at 1 GHz", _runner("power")),
    "resilience": ("Beyond the paper: throughput retention under "
                   "transient link faults", _runner("resilience")),
}


def run_experiment(exp_id: str, quick: bool = False, *,
                   measure: MeasureSpec | None = None, seed: int = 1,
                   cache: str = "off", store=None) -> ExperimentResult:
    """Regenerate one experiment.

    ``measure`` overrides the preset; without it, ``quick`` picks
    between :meth:`MeasureSpec.quick` and :meth:`MeasureSpec.full`.
    ``cache`` / ``store`` go to :func:`measure_points`.
    """
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}")
    if measure is None:
        from repro.scenarios import MeasureSpec

        measure = MeasureSpec.coerce(quick)
    _desc, runner = EXPERIMENTS[exp_id]
    return runner(measure, seed, cache, store)


def run_all(quick: bool = False, *, measure: MeasureSpec | None = None,
            seed: int = 1) -> list[ExperimentResult]:
    return [run_experiment(exp_id, quick, measure=measure, seed=seed)
            for exp_id in EXPERIMENTS]
