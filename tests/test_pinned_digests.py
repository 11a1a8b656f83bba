"""The benchmark's points, pinned statistic by statistic, inside tier-1
and therefore CI (DESIGN.md §7): the seed-1 and seed-2 points of the
five kernel workloads and of ``sweep_cold``, generated by
``benchmarks/perf/perf_workloads.py`` itself (imported, never edited),
must equal their snapshots, ``tests/golden/results/<workload>-s<seed>.json``
(every ``Result.to_dict()`` without ``provenance``).

A speed-only change to either fabric may not move a field.  A change
that means to runs ``python tests/golden/repin.py`` and pastes the table
it prints; a mismatch here prints the same table.  ``sweep_cold``'s grid
is run point by point: the benchmark's own ``verify`` holds the pool's
Results equal to ``jobs=1``.  ``store_replay`` is left to the CI
benchmark step: it exercises the store and the service, not the
kernels.  (The test names predate the snapshots, which replaced one
SHA-256 digest per workload.)
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import repin  # noqa: E402 - needs tests/golden on the path


def assert_pinned(name: str, seed: int) -> None:
    path = repin.snapshot_path(name, seed)
    old = repin.snapshot_points(json.loads(path.read_text()))
    new = repin.snapshot_points(repin.snapshot(name, seed))
    assert new == old, "\n" + repin.format_table(
        repin.diff_rows(path.name, old, new))


@pytest.mark.parametrize("name", repin.SNAPSHOT_WORKLOADS)
def test_seed_1_points_hash_to_the_pinned_digest(name):
    assert_pinned(name, 1)


@pytest.mark.parametrize("name", repin.SNAPSHOT_WORKLOADS)
def test_seed_2_points_hash_to_the_pinned_digest(name):
    assert_pinned(name, 2)
