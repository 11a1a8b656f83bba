"""Persistent content-addressed result store (DESIGN.md §12).

Every :class:`~repro.scenarios.result.Result` is a pure function of
(scenario spec, seed, code version), so results are cacheable under the
key ``sha256(canonical spec JSON) + seed + code fingerprint``.  The
store is a directory of small JSON files::

    <root>/<fingerprint>/<hh>/<spec_hash[2:]>-s<seed>.json

Guarantees:

* **Atomic writes** — entries are written to a temp file in the target
  directory and ``os.replace``d into place, so readers (including
  concurrent service workers) never observe a half-written entry.
* **Corruption-tolerant reads** — a truncated, garbled, or
  wrong-schema cache file is a *miss*, never a crash; ``verify()``
  names such files and ``gc()`` can clear them.
* **Bit-identical replay** — an entry stores ``Result.to_dict()``
  verbatim, so a cache hit reconstructs a Result equal to (and
  re-serializing byte-identical to) the freshly computed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.scenarios.result import Result
from repro.scenarios.spec import Scenario
from repro.store.fingerprint import code_fingerprint

#: Bumped on any incompatible entry-layout change; older entries are
#: treated as misses (and reclaimed by ``gc``).
STORE_FORMAT = 1

#: ``run_sweep``/CLI cache modes: no caching at all, read-only (hits
#: are served, misses are not written back), read-write.
CACHE_MODES = ("off", "ro", "rw")


def check_cache_mode(cache: str) -> None:
    """Reject anything but a :data:`CACHE_MODES` value — the one check
    ``run_sweep`` and the job service put in front of a store."""
    if cache not in CACHE_MODES:
        raise ValueError(f"cache must be one of {CACHE_MODES}, got {cache!r}")

#: Default store root when neither an explicit path nor the
#: ``REPRO_STORE`` environment variable names one.
DEFAULT_ROOT = "~/.cache/repro-store"


def canonical_spec_json(scenario: Scenario) -> str:
    """The scenario's canonical JSON: sorted keys, no whitespace, seed
    excluded (the seed is a separate key component)."""
    spec = scenario.to_dict()
    spec.pop("seed", None)
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def spec_hash(scenario: Scenario) -> str:
    """sha256 over :func:`canonical_spec_json`."""
    return hashlib.sha256(canonical_spec_json(scenario).encode()).hexdigest()


def provenance_for(scenario: Scenario) -> dict:
    """The provenance record ``run_scenario`` stamps into every Result:
    enough to attribute it to (spec, seed, code version)."""
    return {"spec_hash": spec_hash(scenario), "seed": scenario.seed,
            "code_fingerprint": code_fingerprint()}


def _safe_dirname(fingerprint: str) -> str:
    """Fingerprints become directory names; keep them path-safe."""
    return re.sub(r"[^A-Za-z0-9._-]", "-", fingerprint)


def _relpath(fingerprint: str, digest: str, seed: int) -> str:
    """The on-disk layout, as a string: the hit path builds no ``Path``."""
    return os.path.join(_safe_dirname(fingerprint), digest[:2],
                        f"{digest[2:]}-s{seed}.json")


@dataclass(frozen=True)
class StoreKey:
    """The full cache key of one scenario point."""

    spec_hash: str
    seed: int
    code_fingerprint: str

    @property
    def relpath(self) -> Path:
        return Path(_relpath(self.code_fingerprint, self.spec_hash, self.seed))


class ResultStore:
    """A content-addressed Result cache rooted at a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"

    @classmethod
    def default(cls) -> "ResultStore":
        """The store named by ``REPRO_STORE``, else :data:`DEFAULT_ROOT`."""
        return cls(os.environ.get("REPRO_STORE", DEFAULT_ROOT))

    @classmethod
    def coerce(cls, value) -> "ResultStore":
        """Accept a store, a root path, or ``None`` (→ default store)."""
        if value is None:
            return cls.default()
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, Path)):
            return cls(value)
        raise TypeError(f"cannot coerce {value!r} to ResultStore")

    # -- keys ----------------------------------------------------------
    def key_for(self, scenario: Scenario) -> StoreKey:
        return StoreKey(spec_hash=spec_hash(scenario), seed=scenario.seed,
                        code_fingerprint=code_fingerprint())

    def path_for(self, scenario: Scenario) -> Path:
        return self.root / self.key_for(scenario).relpath

    # -- lookup / insert ----------------------------------------------
    def get(self, scenario: Scenario) -> Result | None:
        """The stored Result for this point, or ``None`` on a miss.

        *Any* defect in the cache file — missing, truncated, garbled
        JSON, wrong schema, key mismatch — is a miss; the store never
        turns a bad cache entry into a crash.
        """
        digest, seed = spec_hash(scenario), scenario.seed
        try:
            with open(os.path.join(self.root, _relpath(
                    code_fingerprint(), digest, seed)), "rb") as f:
                data = json.loads(f.read())
            if (data.get("format") != STORE_FORMAT
                    or data.get("spec_hash") != digest
                    or data.get("seed") != seed):
                return None
            result = data["result"]
            return Result.from_dict(result) if result is not None else None
        except Exception:
            return None

    def put(self, scenario: Scenario, result: Result) -> Path:
        """Store one point's Result; atomic against concurrent readers
        and writers (last write wins, both are valid)."""
        key = self.key_for(scenario)
        path = self.root / key.relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"format": STORE_FORMAT, "spec_hash": key.spec_hash,
                   "seed": key.seed,
                   "code_fingerprint": key.code_fingerprint,
                   "scenario": scenario.to_dict(),
                   "result": result.to_dict()}
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                   suffix=".json")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps(payload, indent=2))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # -- maintenance ---------------------------------------------------
    def _entries(self):
        """Every committed entry file (temp files excluded)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.rglob("*.json")):
            if not path.name.startswith(".tmp-"):
                yield path

    def stats(self) -> dict:
        """Entry/byte counts, split per code fingerprint."""
        per_fp: dict[str, dict] = {}
        entries = total_bytes = 0
        for path in self._entries():
            fp = path.relative_to(self.root).parts[0]
            bucket = per_fp.setdefault(fp, {"entries": 0, "bytes": 0})
            size = path.stat().st_size
            bucket["entries"] += 1
            bucket["bytes"] += size
            entries += 1
            total_bytes += size
        return {"root": str(self.root), "entries": entries,
                "bytes": total_bytes,
                "code_fingerprint": code_fingerprint(),
                "fingerprints": per_fp}

    def verify(self) -> dict:
        """Deep-check every entry: parse it, recompute the spec hash
        from the stored scenario, and confirm it matches the entry's
        recorded key and its location on disk.

        Returns ``{"checked", "ok", "corrupt": [...], "mismatched":
        [...]}`` — *corrupt* entries cannot be parsed at all, while
        *mismatched* ones parse but live under the wrong key (an edited
        or misplaced file).  Both kinds read as misses at lookup time.
        """
        ok = 0
        corrupt: list[str] = []
        mismatched: list[str] = []
        for path in self._entries():
            rel = str(path.relative_to(self.root))
            try:
                data = json.loads(path.read_text())
                sc = Scenario.from_dict(data["scenario"])
                result = data["result"]
                if result is not None:
                    Result.from_dict(result)
            except Exception:
                corrupt.append(rel)
                continue
            expected = StoreKey(spec_hash=spec_hash(sc),
                                seed=sc.seed,
                                code_fingerprint=data.get(
                                    "code_fingerprint", ""))
            if (data.get("format") != STORE_FORMAT
                    or data.get("spec_hash") != expected.spec_hash
                    or data.get("seed") != expected.seed
                    or path != self.root / expected.relpath):
                mismatched.append(rel)
            else:
                ok += 1
        return {"checked": ok + len(corrupt) + len(mismatched), "ok": ok,
                "corrupt": corrupt, "mismatched": mismatched}

    def gc(self, *, wipe: bool = False) -> dict:
        """Reclaim space: drop leftover temp files, unparsable entries,
        and every entry from a code fingerprint other than the current
        one (stale results can never hit again).  ``wipe=True`` removes
        all entries regardless of fingerprint."""
        removed = freed = 0
        if not self.root.is_dir():
            return {"removed": 0, "freed_bytes": 0}
        current = _safe_dirname(code_fingerprint())
        for path in sorted(self.root.rglob("*")):
            if not path.is_file():
                continue
            fp = path.relative_to(self.root).parts[0]
            stale = wipe or fp != current
            drop = stale or path.name.startswith(".tmp-")
            if not drop:  # current-fingerprint entry: drop only if bad
                try:
                    data = json.loads(path.read_text())
                    drop = data.get("format") != STORE_FORMAT
                except Exception:
                    drop = True
            if drop:
                freed += path.stat().st_size
                path.unlink()
                removed += 1
        # Prune now-empty directories bottom-up.
        for path in sorted((p for p in self.root.rglob("*") if p.is_dir()),
                           reverse=True):
            try:
                path.rmdir()
            except OSError:
                pass
        return {"removed": removed, "freed_bytes": freed}
