"""Deterministic random-number plumbing.

Every experiment derives all randomness from a single root seed, so runs
are exactly reproducible and independent streams (one per traffic source)
do not interact.  Streams are spawned with ``numpy``'s SeedSequence, the
recommended mechanism for statistically independent child generators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is 0.13 s of import: spawn_rngs pays it
    import numpy as np  # when a stream is drawn, not ``import repro.sim``

DEFAULT_SEED = 0xA11_0C  # "ALLOC"; any fixed value works


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators from one seed (one per source)."""
    import numpy as np

    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seq = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]
