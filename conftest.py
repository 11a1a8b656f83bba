"""Session-wide fixtures for the whole suite (``python -m pytest`` from
the repository root collects ``benchmarks/`` and ``tests/``)."""

import pytest


@pytest.fixture(scope="session")
def figure_store(tmp_path_factory):
    """One result store per test session for the quick figures and the
    benches' Scenario points: the first test that measures a point
    simulates it, every later one is a store hit — a bit-identical
    Result (DESIGN.md §12), so no assertion can tell the two apart."""
    return tmp_path_factory.mktemp("figure-store")
