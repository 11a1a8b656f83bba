"""Session-wide fixtures for the whole suite (``python -m pytest`` from
the repository root collects ``benchmarks/`` and ``tests/``)."""

import pytest


@pytest.fixture(scope="session")
def figure_store(tmp_path_factory):
    """One result store per test session for the quick figures: the first
    test that renders a figure simulates its points, every later render
    of the same figure is all store hits — bit-identical Results
    (DESIGN.md §12), so no assertion can tell the two apart."""
    return tmp_path_factory.mktemp("figure-store")
