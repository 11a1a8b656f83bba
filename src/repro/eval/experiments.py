"""Experiment registry: every table and figure of the paper's evaluation,
by id (see DESIGN.md §4 and §9).

``repro.eval.<id>`` lays its experiment out with ``layout(measure,
results) -> ExperimentResult``, where ``measure`` is a
:class:`~repro.scenarios.spec.MeasureSpec`.  A simulating module also
has ``points(measure, seed) -> list[Scenario]``: :func:`run_experiment`
measures them, in order, with one ``run_sweep`` and hands ``layout``
their Results; an analytic module has no points and gets none.

``cache`` / ``store`` are ``run_sweep``'s (``repro run --cache rw``):
already-measured points come from the content-addressed store
(DESIGN.md §12), so re-rendering a figure after an unrelated change
costs zero simulations.
"""

from __future__ import annotations

from importlib import import_module

from repro.eval.report import ExperimentResult

#: id → description.  A figure module is imported when it is run:
#: listing the registry (``repro list``, argument parsing) must not
#: cost the import of every figure's simulator stack.
EXPERIMENTS: dict[str, str] = {
    "table1": "Table I: mesh parameter space",
    "fig2": "Fig. 2: 2x2 area vs bisection bandwidth vs ESP-NoC",
    "fig3": "Fig. 3: 4x4 scaling and MOT/area tradeoff",
    "fig4": "Fig. 4: uniform random traffic vs packet baseline",
    "fig6": "Fig. 6: synthetic pattern utilization",
    "fig8": "Fig. 8: DNN workload throughput",
    "table2": "Table II: comparison with state-of-the-art NoCs",
    "power": "Sec. III: power at 1 GHz",
    "resilience": "Beyond the paper: throughput retention under "
                  "transient link faults",
}


def run_experiment(exp_id: str, quick: bool = False, *, seed: int = 1,
                   cache: str = "off", store=None) -> ExperimentResult:
    """Regenerate one experiment.

    ``quick`` picks between :meth:`MeasureSpec.quick` and
    :meth:`MeasureSpec.full`.  ``cache`` / ``store`` go to
    ``run_sweep``.  A figure's layout needs
    every point, so one that failed its retry raises (``run_sweep`` has
    already named it on stderr).
    """
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}")
    from repro.scenarios import MeasureSpec, run_sweep

    measure = MeasureSpec.quick() if quick else MeasureSpec.full()
    module = import_module(f"repro.eval.{exp_id}")
    points = getattr(module, "points", None)
    if points is None:
        return module.layout(measure, [])
    results = run_sweep(points(measure, seed), cache=cache, store=store)
    if results.stats.errors:
        raise RuntimeError(
            f"{results.stats.errors} of {len(results)} point(s) failed "
            f"(see stderr)")
    return module.layout(measure, results)
