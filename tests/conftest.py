"""Hypothesis profiles for the whole suite.

``ci`` (the default) is tier-1: the budgets the property tests were
written with, derandomised so that a run is a function of the code.
``stress`` is the same properties at about twenty times the examples,
with fresh randomness — ``python -m pytest -q tests/test_properties.py
--hypothesis-profile=stress`` (the nightly CI job).  Tests scale their
example budgets from the loaded profile (``budget`` in
``test_properties.py``) instead of overriding it.
"""

from hypothesis import HealthCheck, settings

_COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("ci", max_examples=100, derandomize=True, **_COMMON)
settings.register_profile("stress", max_examples=2000, **_COMMON)
settings.load_profile("ci")
