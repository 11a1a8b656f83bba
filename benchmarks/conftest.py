"""Shared benchmark configuration.

Every figure benchmark regenerates one table/figure of the paper in
*quick* mode (reduced load points and windows — shapes survive,
absolutes get noisier) and asserts the paper's qualitative claims on
the result.  Each figure is rendered through ``run_experiment`` and the
session's ``figure_store``, so its points simulate on the first render
of the session and are store hits after.  Paper numbers come from the
figure modules that print them.  Run with::

    pytest benchmarks/ --benchmark-only
"""

import pytest

from repro.eval.experiments import run_experiment


@pytest.fixture
def run_once(benchmark):
    """``run_once(fn, *args, **kwargs)``: run a whole-experiment
    benchmark exactly once (sims are seconds to minutes; statistical
    rounds belong to micro-benchmarks only)."""
    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return run


@pytest.fixture
def render(run_once, figure_store):
    """``render(exp_id)``: the experiment's quick ExperimentResult."""
    def run(exp_id):
        return run_once(run_experiment, exp_id, quick=True, cache="rw",
                        store=figure_store)
    return run
