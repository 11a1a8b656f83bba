"""Evaluation harness: per-figure/table experiment runners and reports."""
