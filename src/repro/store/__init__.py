"""Content-addressed result store (DESIGN.md §12).

Results are pure functions of (spec, seed, code version); this package
persists them under exactly that key so repeat work is a cache hit::

    from repro.store import ResultStore

    store = ResultStore("artifacts/store")
    cached = store.get(scenario)            # None on miss
    if cached is None:
        store.put(scenario, run_scenario(scenario))

``run_sweep(..., cache="rw")`` and the scenario service build on this;
``repro cache stats|gc|verify`` are the maintenance front ends.
"""

from repro.store.fingerprint import code_fingerprint
from repro.store.store import (
    ResultStore,
    StoreKey,
    canonical_spec_json,
    check_cache_mode,
    provenance_for,
    spec_hash,
)

__all__ = [
    "ResultStore",
    "StoreKey",
    "canonical_spec_json",
    "check_cache_mode",
    "code_fingerprint",
    "provenance_for",
    "spec_hash",
]
