"""Tests for the content-addressed result store (DESIGN.md §12):
keys and fingerprints, atomic put/corruption-tolerant get, the table of
entries a process has read, maintenance ops, and the run_sweep cache
integration (incremental sweeps, hit/miss accounting, byte-identical
cached artifacts)."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

# The package re-exports the sweep() *function* under the submodule's
# name, so attribute import would grab the function; go via importlib.
sweep_mod = importlib.import_module("repro.scenarios.sweep")
store_mod = importlib.import_module("repro.store.store")
from repro.faults import FaultSpec, LinkFault
from repro.scenarios import (
    MeasureSpec,
    Result,
    Scenario,
    SweepStats,
    TopologySpec,
    TrafficSpec,
    run_scenario,
    run_sweep,
    sweep,
)
from repro.store import (
    ResultStore,
    code_fingerprint,
    provenance_for,
    spec_hash,
)

#: Small windows: these tests assert plumbing, not paper numbers.
FAST = MeasureSpec(300, 900)


def fast_point(load=0.5, seed=1, **kwargs) -> Scenario:
    return Scenario(traffic=TrafficSpec.uniform(load, 1000),
                    measure=FAST, seed=seed, **kwargs)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


#: Ways an entry file goes bad; each must read as a miss.
MANGLERS = {
    "empty": lambda text: "",
    "truncated": lambda text: text[:len(text) // 2],
    "garbage": lambda text: "not json at all {{{",
    "wrong-shape": lambda text: "[1, 2, 3]",
    "wrong-format": lambda text: json.dumps({"format": 999}),
    # Same size as the entry: only its timestamps say it changed.
    "missing-result": lambda text: text.replace('"result"', '"resalt"'),
}


def readers_race_a_rewrite(store, sc, result, readers: int) -> None:
    """One thread re-puts ``sc`` 200 times while each reader gets it 200
    times, under a 10 µs switch interval: no thread raises, and every
    read is ``result`` — never a miss or a torn file."""
    reads: list[list] = [[] for _ in range(readers)]
    raised = []

    def rewrite():
        for _ in range(200):
            store.put(sc, result)

    def reader(out):
        return lambda: out.extend(store.get(sc) for _ in range(200))

    def guarded(body):
        def run():
            try:
                body()
            except BaseException as exc:
                raised.append(exc)
        return threading.Thread(target=run)

    threads = [guarded(rewrite)] + [guarded(reader(out)) for out in reads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert raised == []
    assert [len(out) for out in reads] == [200] * readers
    assert all(r == result for out in reads for r in out)


def in_another_process(*argv: str, **env: str) -> str:
    """``python *argv`` in a fresh interpreter, ``env`` added to its
    environment; it must exit 0.  Returns its stdout."""
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src), **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestFingerprint:
    def test_stable_and_prefixed(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert fp.startswith("src:")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "test:abc")
        assert code_fingerprint() == "test:abc"


class TestKeys:
    def test_spec_hash_excludes_seed(self):
        assert spec_hash(fast_point(seed=1)) == spec_hash(fast_point(seed=2))

    def test_spec_hash_sees_spec_changes(self):
        assert spec_hash(fast_point(0.1)) != spec_hash(fast_point(0.9))
        # name feeds Result.name, so it must be part of the key.
        assert spec_hash(fast_point()) != spec_hash(fast_point(name="x"))

    def test_a_baseline_burst_cap_is_not_in_the_spec_hash(self):
        """The packet mesh reads only the injection rate: a baseline
        point takes Fig. 4's burst fields, whatever its spec says."""
        def point(cap):
            return Scenario(topology=TopologySpec.baseline(),
                            traffic=TrafficSpec.uniform(0.2, cap))

        assert spec_hash(point(1)) == spec_hash(point(1000))

    def test_key_separates_seeds_and_code_versions(self, store, monkeypatch):
        a = store.key_for(fast_point(seed=1)).relpath
        b = store.key_for(fast_point(seed=2)).relpath
        assert a != b
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "test:other")
        assert store.key_for(fast_point(seed=1)).relpath != a

    def test_provenance_matches_key(self, store):
        sc = fast_point()
        prov = provenance_for(sc)
        key = store.key_for(sc)
        assert prov == {"spec_hash": key.spec_hash, "seed": key.seed,
                        "code_fingerprint": key.code_fingerprint}


class TestGetPut:
    def test_round_trip_is_bit_identical(self, store):
        sc = fast_point()
        result = run_scenario(sc)
        store.put(sc, result)
        assert store.get(sc) == result

    def test_empty_store_misses(self, store):
        assert store.get(fast_point()) is None

    def test_result_carries_provenance(self):
        sc = fast_point()
        assert run_scenario(sc).provenance == provenance_for(sc)

    def test_wrong_seed_and_spec_miss(self, store):
        sc = fast_point(seed=1)
        store.put(sc, run_scenario(sc))
        assert store.get(fast_point(seed=2)) is None
        assert store.get(fast_point(load=0.9)) is None

    def test_code_change_invalidates(self, store, monkeypatch):
        sc = fast_point()
        store.put(sc, run_scenario(sc))
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "test:changed")
        assert store.get(sc) is None

    def test_no_tmp_files_left_behind(self, store):
        sc = fast_point()
        store.put(sc, run_scenario(sc))
        assert not list(store.root.rglob(".tmp-*"))

    def test_readers_racing_a_rewrite_never_miss(self, store):
        """``put`` replaces an entry atomically: while one thread
        re-puts K 200 times, two others ``get`` K 200 times each, and
        every read is the stored Result — never a miss or a torn file."""
        sc = fast_point()
        result = run_scenario(sc)
        store.put(sc, result)
        readers_race_a_rewrite(store, sc, result, readers=2)
        assert not list(store.root.rglob(".tmp-*"))


def faulted_point() -> Scenario:
    """One dead link, corruption and retransmission: every nested
    container of an entry is present."""
    return Scenario(
        topology=TopologySpec(rows=2, cols=2),
        traffic=TrafficSpec.uniform(1.0, 64, read_fraction=0.5),
        measure=MeasureSpec(warmup=50, window=200, fidelity="full"),
        faults=FaultSpec(links=(LinkFault(0, 1, start=10, duration=50),),
                         corrupt_rate=1e-3, recovery="retransmit"),
        seed=3, name="entry")


#: ``put`` the point given as JSON into a fresh store; print its spec
#: hash, the entry's path in the store and the entry's text.
PUT_FRESH = """
import json, sys, tempfile
from repro.scenarios import Scenario, run_scenario
from repro.store import ResultStore, spec_hash
sc = Scenario.from_dict(json.loads(sys.argv[1]))
with tempfile.TemporaryDirectory() as root:
    path = ResultStore(root).put(sc, run_scenario(sc))
    print(json.dumps([spec_hash(sc), path.relative_to(root).as_posix(),
                      path.read_text()]))
"""


class TestEntryFormat:
    """An entry is a function of its Scenario, its Result and the code
    fingerprint (DESIGN.md §12)."""

    def test_hash_path_and_bytes_are_the_same_in_any_process(
            self, store, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "test:fixed")
        sc = faulted_point()
        path = store.put(sc, run_scenario(sc))
        here = [spec_hash(sc), path.relative_to(store.root).as_posix(),
                path.read_text()]
        for hash_seed in ("1", "2"):
            out = in_another_process(
                "-c", PUT_FRESH, json.dumps(sc.to_dict()),
                PYTHONHASHSEED=hash_seed)
            assert json.loads(out) == here


class TestEntryFormatCompatibility:
    """An entry hits under the code that wrote it and loads only under
    the schema that wrote it.  No entry from an earlier commit is kept:
    its fingerprint differs, so it is never read (DESIGN.md §12).  The
    parent commit's entry is therefore the one ``put`` writes here."""

    #: One field per change that dropped spec fields: where it sat in
    #: an entry's ``scenario``, its name, a value it held and the error
    #: its loader refuses it by name with.
    DROPPED = {
        "pr15": (("faults", "links", 0), "width_factor", 0.5, TypeError),
        "pr34": (("faults",), "byzantine_rate", 0.0, ValueError),
        "pr35": (("measure",), "per_link", True, TypeError),
        "pr36": (("topology",), "register_slices", "all", TypeError),
        "pr37": (("faults",), "retry_timeout", 100000, ValueError),
        "pr49": (("topology",), "addr_width", 32, TypeError),
    }

    def test_parent_commit_entry_hits_and_verifies(self, store):
        sc = faulted_point()
        result = run_scenario(sc)
        store.put(sc, result)
        assert store.get(sc) == result
        assert store.verify() == {"checked": 1, "ok": 1, "corrupt": [],
                                  "mismatched": []}

    def test_put_rewrites_the_parent_commit_entry_byte_for_byte(
            self, store, tmp_path):
        sc = faulted_point()
        path = store.put(sc, run_scenario(sc))
        data = json.loads(path.read_text())
        fresh = ResultStore(tmp_path / "fresh")
        again = fresh.put(Scenario.from_dict(data["scenario"]),
                          Result.from_dict(data["result"]))
        assert again.relative_to(fresh.root) == path.relative_to(store.root)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("entry", sorted(DROPPED))
    def test_an_entry_the_schema_cannot_load_is_corrupt(self, store, entry):
        """``verify`` reports the entry corrupt instead of raising."""
        where, key, value, error = self.DROPPED[entry]
        sc = faulted_point()
        path = store.put(sc, run_scenario(sc))
        data = json.loads(path.read_text())
        container = data["scenario"]
        for step in where:
            container = container[step]
        container[key] = value
        path.write_text(json.dumps(data, indent=2))
        with pytest.raises(error, match=f"'{key}'"):
            Scenario.from_dict(data["scenario"])
        assert store.verify() == {
            "checked": 1, "ok": 0, "mismatched": [],
            "corrupt": [path.relative_to(store.root).as_posix()]}


class TestCorruptionTolerance:
    """A bad cache file is a miss, never a crash."""

    @pytest.mark.parametrize("mangle", MANGLERS.values(), ids=MANGLERS)
    def test_bad_cache_file_is_a_miss(self, store, mangle):
        sc = fast_point()
        path = store.put(sc, run_scenario(sc))
        path.write_text(mangle(path.read_text()))
        assert store.get(sc) is None

    def test_put_heals_a_corrupt_entry(self, store):
        sc = fast_point()
        result = run_scenario(sc)
        path = store.put(sc, result)
        path.write_text("garbage")
        store.put(sc, result)
        assert store.get(sc) == result


def settle() -> None:
    """Let the last write age past ``SETTLED_NS``: a read keeps it."""
    time.sleep(2 * store_mod.SETTLED_NS / 1e9)


#: ``put`` one (scenario, result) pair, given as JSON, into a store.
PUT = """
import json, sys
from repro.scenarios import Result, Scenario
from repro.store import ResultStore
sc, result = json.loads(sys.argv[2])
ResultStore(sys.argv[1]).put(Scenario.from_dict(sc), Result.from_dict(result))
"""


class TestReadTable:
    """A repeated hit costs one ``stat`` (DESIGN.md §12 "What one hit
    costs"): the process keeps each entry it read while the file keeps
    the identity it had, and any change to the file is read again."""

    @pytest.fixture
    def opened(self, monkeypatch):
        paths = []

        def counting_open(path, *args, **kwargs):
            paths.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(store_mod, "open", counting_open, raising=False)
        return paths

    @pytest.fixture
    def entry(self, store):
        """A stored point, settled and read once: its Result is kept."""
        sc = fast_point()
        result = run_scenario(sc)
        path = store.put(sc, result)
        settle()
        assert store.get(sc) == result
        assert store_mod._read[str(path)][1] == result
        return sc, result, path

    def test_a_second_load_of_an_unchanged_entry_opens_no_file(
            self, store, entry, opened):
        sc, result, _ = entry
        first = store.get(sc)
        assert first == result
        assert store.get(sc) is first
        assert opened == []

    def test_a_file_changed_just_before_its_read_is_not_kept(
            self, store, opened, monkeypatch):
        monkeypatch.setattr(store_mod, "SETTLED_NS", 10 ** 18)
        sc = fast_point()
        path = store.put(sc, run_scenario(sc))
        assert store.get(sc) == store.get(sc) is not None
        assert opened == [str(path)] * 2
        assert str(path) not in store_mod._read

    @pytest.mark.parametrize("mangle", MANGLERS.values(), ids=MANGLERS)
    def test_a_file_mangled_after_a_hit_is_a_miss(self, store, entry,
                                                  mangle):
        sc, _, path = entry
        path.write_text(mangle(path.read_text()))
        assert store.get(sc) is None

    def test_a_put_after_a_hit_is_read(self, store, entry):
        sc, result, _ = entry
        other = dataclasses.replace(result, throughput_gib_s=1.5)
        store.put(sc, other)
        assert store.get(sc) == other

    def test_another_process_wiping_or_putting_is_seen(self, store, entry):
        sc, result, path = entry
        in_another_process("-m", "repro", "cache", "gc", "--wipe",
                           "--store", str(store.root))
        assert not path.exists()
        assert store.get(sc) is None
        in_another_process("-c", PUT, str(store.root), json.dumps(
            [sc.to_dict(), result.to_dict()]))
        assert store.get(sc) == result

    def test_eight_readers_racing_a_rewrite_never_miss(self, store, entry,
                                                       monkeypatch):
        """Every put writes the same bytes, so here a fresh file may be
        kept too: reads hit the table, re-read and re-keep at once."""
        sc, result, _ = entry
        monkeypatch.setattr(store_mod, "SETTLED_NS", 0)
        readers_race_a_rewrite(store, sc, result, readers=8)

    def test_the_table_never_exceeds_its_bound(self, store, monkeypatch):
        monkeypatch.setattr(store_mod, "HIT_TABLE_SIZE", 3)
        result = run_scenario(fast_point())
        points = [fast_point(seed=seed) for seed in range(1, 6)]
        paths = [str(store.put(sc, result)) for sc in points]
        settle()
        for sc in points:
            assert store.get(sc) == result
            assert len(store_mod._read) <= 3
        assert list(store_mod._read) == paths[2:]


class TestMaintenance:
    def test_stats_counts_entries(self, store):
        for seed in (1, 2):
            sc = fast_point(seed=seed)
            store.put(sc, run_scenario(sc))
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert sum(b["entries"] for b in stats["fingerprints"].values()) == 2

    def test_verify_clean_store(self, store):
        sc = fast_point()
        store.put(sc, run_scenario(sc))
        report = store.verify()
        assert report == {"checked": 1, "ok": 1, "corrupt": [],
                          "mismatched": []}

    def test_verify_flags_corrupt_and_mismatched(self, store):
        a, b = fast_point(seed=1), fast_point(seed=2)
        pa = store.put(a, run_scenario(a))
        pb = store.put(b, run_scenario(b))
        pa.write_text("garbage")                      # unparsable
        data = json.loads(pb.read_text())
        data["scenario"]["traffic"]["load"] = 0.123   # edited under its key
        pb.write_text(json.dumps(data))
        report = store.verify()
        assert report["ok"] == 0
        assert len(report["corrupt"]) == 1
        assert len(report["mismatched"]) == 1

    def test_gc_drops_stale_fingerprints(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "test:old")
        old = fast_point(seed=1)
        store.put(old, run_scenario(old))
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "test:new")
        new = fast_point(seed=2)
        store.put(new, run_scenario(new))
        report = store.gc()
        assert report["removed"] == 1
        assert report["freed_bytes"] > 0
        assert store.stats()["entries"] == 1
        assert store.get(new) is not None

    def test_gc_drops_corrupt_entries_and_wipe_empties(self, store):
        for seed in (1, 2):
            sc = fast_point(seed=seed)
            store.put(sc, run_scenario(sc))
        next(store._entries()).write_text("garbage")
        assert store.gc()["removed"] == 1
        assert store.gc(wipe=True)["removed"] == 1
        assert store.stats()["entries"] == 0

    def test_gc_on_missing_root_is_a_noop(self, tmp_path):
        report = ResultStore(tmp_path / "nothing-here").gc()
        assert report == {"removed": 0, "freed_bytes": 0}


class TestSweepCache:
    def grid(self, loads=(0.1, 0.5)):
        return sweep(fast_point(), loads=list(loads), seeds=[1, 2])

    def test_resubmission_performs_zero_simulations(self, store,
                                                    monkeypatch):
        first = run_sweep(self.grid(), cache="rw", store=store)
        assert first.stats == SweepStats(total=4, hits=0, misses=4)

        def boom(*a, **k):
            raise AssertionError("cache hit must not simulate")
        monkeypatch.setattr(sweep_mod, "run_scenario", boom)
        again = run_sweep(self.grid(), cache="rw", store=store)
        assert again.stats == SweepStats(total=4, hits=4)
        assert list(again) == list(first)

    def test_growing_the_grid_reruns_only_the_delta(self, store):
        run_sweep(self.grid(loads=(0.1, 0.5)), cache="rw", store=store)
        grown = run_sweep(self.grid(loads=(0.1, 0.5, 1.0)),
                          cache="rw", store=store)
        assert grown.stats == SweepStats(total=6, hits=4, misses=2)
        # The grown sweep is bit-identical to computing it from scratch.
        fresh = run_sweep(self.grid(loads=(0.1, 0.5, 1.0)))
        assert list(grown) == list(fresh)

    def test_cached_artifacts_are_byte_identical(self, store, tmp_path):
        """Fresh jobs=1, fresh-parallel jobs=4 writing the store, and a
        fully-cached rerun must produce identical JSON/CSV artifacts."""
        uncached = run_sweep(self.grid(), jobs=1, out=tmp_path / "a")
        parallel = run_sweep(self.grid(), jobs=4, cache="rw", store=store,
                             out=tmp_path / "b")
        cached = run_sweep(self.grid(), jobs=4, cache="rw", store=store,
                           out=tmp_path / "c")
        assert parallel.stats.misses == 4 and cached.stats.hits == 4
        assert uncached == parallel == cached
        for name in ("results.json", "results.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes()
            assert a == (tmp_path / "c" / name).read_bytes()

    def test_ro_serves_but_never_writes(self, store):
        ro = run_sweep([fast_point()], cache="ro", store=store)
        assert ro.stats == SweepStats(total=1, misses=1)
        assert store.stats()["entries"] == 0
        run_sweep([fast_point()], cache="rw", store=store)
        hit = run_sweep([fast_point()], cache="ro", store=store)
        assert hit.stats == SweepStats(total=1, hits=1)

    def test_failed_points_count_as_errors_not_stored(self, store):
        # max_wall_s=1e-9 trips the watchdog at its first check (cycle
        # 2048, so the window must reach that far): a reliably failing
        # point without touching the crash seam.
        doomed = fast_point().with_(
            measure=MeasureSpec(300, 2500, max_wall_s=1e-9))
        results = run_sweep([doomed, fast_point()], cache="rw",
                            store=store)
        assert results.stats == SweepStats(total=2, hits=0, misses=1,
                                           errors=1)
        assert results[0] is None and results[1] is not None
        assert store.stats()["entries"] == 1  # failures are not cached

    def test_cache_off_rejects_store(self):
        with pytest.raises(ValueError):
            run_sweep([fast_point()], cache="off", store="/tmp/x")

    def test_unknown_cache_mode_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([fast_point()], cache="write-through")

    def test_on_point_progress_is_monotonic(self, store):
        events = []
        run_sweep(self.grid(), jobs=2, cache="rw", store=store,
                  on_point=events.append)
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert {e.status for e in events} == {"run"}
        assert sorted(e.index for e in events) == [0, 1, 2, 3]
        again = []
        run_sweep(self.grid(), cache="ro", store=store,
                  on_point=again.append)
        assert {e.status for e in again} == {"hit"}
        assert all(e.result is not None for e in again)


class TestCopies:
    """Copies of one (spec hash, seed) in a sweep are simulated once,
    read from the store once and written back once; each gets the
    Result and status of the first."""

    @staticmethod
    def tiny(load=0.2, seed=1) -> Scenario:
        return Scenario(topology=TopologySpec.baseline(1, 4, rows=2, cols=2),
                        traffic=TrafficSpec.uniform(load, 1),
                        measure=MeasureSpec(50, 150), seed=seed)

    def test_a_repeated_point_is_measured_once(self, monkeypatch):
        """Copies of one (spec, seed) share one simulation and one
        Result, handed back in point order."""
        calls = []

        def counted(sc):
            calls.append(sc)
            return run_scenario(sc)

        monkeypatch.setattr(sweep_mod, "run_scenario", counted)
        a = self.tiny()
        b = a.with_(seed=2)
        results = run_sweep([a, b, a])
        assert len(calls) == 2
        assert results[0] == results[2]
        assert results[1].seed == 2

    def test_a_copy_is_read_and_written_back_once(self, store, monkeypatch):
        a, b = self.tiny(), self.tiny(seed=2)
        reads, puts = [], []
        real_load, real_put = store.load, store.put
        monkeypatch.setattr(store, "load",
                            lambda key: reads.append(key) or real_load(key))
        monkeypatch.setattr(store, "put", lambda sc, result: puts.append(
            sc) or real_put(sc, result))
        cold = run_sweep([a, b, a, a], cache="rw", store=store)
        assert (len(reads), len(puts)) == (2, 2)
        assert cold.stats == SweepStats(total=4, misses=4)
        warm = run_sweep([b, a, b], cache="rw", store=store)
        assert (len(reads), len(puts)) == (4, 2)
        assert warm.stats == SweepStats(total=3, hits=3)
        assert list(warm) == [cold[1], cold[0], cold[1]]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("order, stored", [
        ([0, 1, 0, 2, 1, 0], [1]),
        ([2, 2, 2], []),
        ([3, 0, 3, 1, 2, 0], [0, 2]),
        ([1, 1, 0, 0], [0, 1]),
    ], ids=["three-copies", "one-point", "half-stored", "all-stored"])
    def test_copies_against_a_partly_filled_store(self, store, jobs, order,
                                                  stored):
        """Per index, the Result ``run_scenario`` gives that point; one
        event per index with ``done`` counting 1..n, the store's points
        as hits first, in index order."""
        distinct = [self.tiny(load, seed)
                    for load, seed in ((0.2, 1), (0.4, 1), (0.2, 2),
                                       (0.6, 3))]
        run_sweep([distinct[k] for k in stored], cache="rw", store=store)
        points = [distinct[k] for k in order]
        events = []
        results = run_sweep(points, jobs=jobs, cache="rw", store=store,
                            on_point=events.append)
        assert list(results) == [run_scenario(sc) for sc in points]
        hits = [i for i, k in enumerate(order) if k in stored]
        assert results.stats == SweepStats(
            total=len(points), hits=len(hits),
            misses=len(points) - len(hits))
        assert [e.done for e in events] == list(range(1, len(points) + 1))
        assert sorted(e.index for e in events) == list(range(len(points)))
        assert [e.index for e in events[:len(hits)]] == hits
        assert all(e.status == "hit" for e in events[:len(hits)])
        assert all(e.status == "run" for e in events[len(hits):])
        assert all(e.result is results[e.index] for e in events)
        assert store.stats()["entries"] == len(set(order) | set(stored))


class TestNoEnvironmentSideChannel:
    """The store is reached through ``run_sweep(cache=, store=)`` only:
    ``REPRO_CACHE`` is an unknown variable, and ``REPRO_STORE`` names
    the default root without switching anything on."""

    def test_cache_off_touches_no_store(self, tmp_path, monkeypatch):
        root = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_CACHE", "rw")
        monkeypatch.setenv("REPRO_STORE", str(root))
        grid = TestSweepCache().grid()
        first = run_sweep(grid, jobs=2, cache="off")
        assert first.stats == SweepStats(total=4, misses=4)
        sc = fast_point()
        assert run_scenario(sc) == run_scenario(sc)
        assert ResultStore.default().stats()["entries"] == 0
        assert not root.exists()
        # ... and run_scenario does not read it either: a poisoned
        # entry under the point's key is never served.
        ResultStore.default().put(sc, first[0])
        assert run_scenario(sc) != first[0]
