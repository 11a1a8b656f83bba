"""Experiment registry: every table and figure of the paper's evaluation,
mapped to its regenerating function (see DESIGN.md §4 and §9).

Runners share one signature: ``run(measure, seed) -> ExperimentResult``,
where ``measure`` is a :class:`~repro.scenarios.spec.MeasureSpec` (or
anything its ``coerce`` accepts, including the legacy ``quick`` bool).
Each runner is a set of :class:`~repro.scenarios.spec.Scenario`
instantiations arranged into the paper's figure layout.

Because every point goes through ``run_scenario``, the runners get
result-store caching for free as an opt-in: ``REPRO_CACHE=rw`` (or
``repro run --cache rw``) serves already-measured points from the
content-addressed store (DESIGN.md §12) — re-rendering a figure after
an unrelated change costs zero simulations.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable

from repro.eval.report import ExperimentResult

if TYPE_CHECKING:
    from repro.scenarios import MeasureSpec


def _runner(module: str) -> Callable[..., ExperimentResult]:
    """``repro.eval.<module>.run``, imported when it is first called:
    listing the registry (``repro list``, argument parsing) must not
    cost the import of every figure's simulator stack."""
    def run(measure, seed):
        return import_module(f"repro.eval.{module}").run(measure, seed)
    return run


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
                   measure: MeasureSpec | None = None,
                   seed: int = 1) -> ExperimentResult:
    """Regenerate one experiment.

    ``measure`` overrides the preset; without it, ``quick`` picks
    between :meth:`MeasureSpec.quick` and :meth:`MeasureSpec.full`.
    """
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}")
    if measure is None:
        from repro.scenarios import MeasureSpec

        measure = MeasureSpec.coerce(quick)
    _desc, runner = EXPERIMENTS[exp_id]
    return runner(measure, seed)


def run_all(quick: bool = False, *, measure: MeasureSpec | None = None,
            seed: int = 1) -> list[ExperimentResult]:
    return [run_experiment(exp_id, quick, measure=measure, seed=seed)
            for exp_id in EXPERIMENTS]
