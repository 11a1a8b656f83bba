"""Code-version fingerprinting for the result store (DESIGN.md §12).

A stored :class:`~repro.scenarios.result.Result` is only reusable while
the simulator that produced it behaves identically, so every store key
(and every Result's provenance) carries a fingerprint of the
``src/repro`` source tree: ``src:<sha256>`` over every ``*.py`` file's
path and bytes, sorted, so any source edit changes the fingerprint and
nothing else does (a docs-only commit keeps every stored result).

``REPRO_CODE_FINGERPRINT`` overrides it (tests use it to simulate a
code-version change without touching files).  The computed value is
cached per process — sweeps call this once per worker, not per point.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

#: ``src/repro`` — the tree whose bytes define the code version.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_cached: str | None = None


def code_fingerprint(*, refresh: bool = False) -> str:
    """The current code-version fingerprint (``src:...``).

    Cached after the first call; ``refresh=True`` recomputes (only
    needed if source files change under a live process).
    """
    env = os.environ.get("REPRO_CODE_FINGERPRINT")
    if env:
        return env
    global _cached
    if _cached is None or refresh:
        h = hashlib.sha256()
        for path in sorted(PACKAGE_ROOT.rglob("*.py")):
            h.update(path.relative_to(PACKAGE_ROOT).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _cached = f"src:{h.hexdigest()[:16]}"
    return _cached
