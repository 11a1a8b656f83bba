"""Evaluation harness: per-figure/table experiment runners and reports."""

from repro.eval.experiments import EXPERIMENTS, run_all, run_experiment
from repro.eval.report import (
    ExperimentResult,
    Section,
    render_text,
    save_csv,
    save_json,
)


def __getattr__(name: str):
    # The one export that needs the simulator: resolved on use (PEP 562)
    # so that ``repro list`` does not import a network to print a table.
    if name == "LinkHeatmap":
        from repro.eval.heatmap import LinkHeatmap

        return LinkHeatmap
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "LinkHeatmap",
    "Section",
    "render_text",
    "run_all",
    "run_experiment",
    "save_csv",
    "save_json",
]
