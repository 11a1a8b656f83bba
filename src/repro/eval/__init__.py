"""Evaluation harness: per-figure/table experiment runners and reports."""

from repro.eval.experiments import EXPERIMENTS, run_all, run_experiment
from repro.eval.heatmap import LinkHeatmap
from repro.eval.report import (
    ExperimentResult,
    Section,
    render_text,
    save_csv,
    save_json,
)

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
