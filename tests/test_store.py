"""Tests for the content-addressed result store (DESIGN.md §12):
keys and fingerprints, atomic put/corruption-tolerant get, maintenance
ops, and the run_sweep cache integration (incremental sweeps, hit/miss
accounting, byte-identical cached artifacts)."""

import importlib
import json
import shutil
from pathlib import Path

import pytest

# The package re-exports the sweep() *function* under the submodule's
# name, so attribute import would grab the function; go via importlib.
sweep_mod = importlib.import_module("repro.scenarios.sweep")
from repro.faults import FaultSpec, LinkFault, PortFault, StuckVcFault
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

    def test_spec_hash_is_the_one_pr15_computed(self):
        """Literals recorded at the parent commit (3124678): a changed
        canonical JSON would orphan every store entry ever written."""
        replay = Scenario(  # the benchmark's 256 store_replay points
            topology=TopologySpec.baseline(1, 4, rows=2, cols=2),
            traffic=TrafficSpec.uniform(0.6, 1),
            measure=MeasureSpec(warmup=25, window=100), seed=7)
        assert spec_hash(replay) == ("0b5f767ec8b968418480b8aca279ce0e"
                                     "408619a5f50c6354889e29ed92469934")
        every_fault_kind = FaultSpec(
            links=(LinkFault(0, 1, start=10, duration=50,
                             width_factor=0.5),),
            ports=(PortFault(1, 2),),
            stuck_vcs=(StuckVcFault(2, 1, vc=0, start=5),),
            corrupt_rate=1e-4, recovery="retransmit", txn_timeout=900)
        assert spec_hash(replay.with_(faults=every_fault_kind)) == (
            "aa7a705f947b295c46b541c570e4ef33415cc38e9f35a283a881d48c4b675c0c")

    def test_key_separates_seeds_and_code_versions(self, store, monkeypatch):
        a = store.path_for(fast_point(seed=1))
        b = store.path_for(fast_point(seed=2))
        assert a != b
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "test:other")
        assert store.path_for(fast_point(seed=1)) != a

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


class TestEntryFormatCompatibility:
    """Entries written by earlier commits keep hitting."""

    #: Copied verbatim from a ``put`` at the parent commit (3124678):
    #: a faulted per-link point, so every nested container is present.
    GOLDEN = Path(__file__).parent / "golden" / "store_entry_pr15.json"

    def test_parent_commit_entry_hits_and_verifies(self, store, monkeypatch):
        data = json.loads(self.GOLDEN.read_text())
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", data["code_fingerprint"])
        sc = Scenario.from_dict(data["scenario"])
        path = store.path_for(sc)
        path.parent.mkdir(parents=True)
        shutil.copyfile(self.GOLDEN, path)
        assert store.get(sc) == Result.from_dict(data["result"])
        assert store.verify() == {"checked": 1, "ok": 1, "corrupt": [],
                                  "mismatched": []}

    def test_put_rewrites_the_parent_commit_entry_byte_for_byte(
            self, store, monkeypatch):
        data = json.loads(self.GOLDEN.read_text())
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", data["code_fingerprint"])
        path = store.put(Scenario.from_dict(data["scenario"]),
                         Result.from_dict(data["result"]))
        assert path == store.root / ("git-3124678d79adb1f4/16/847323bf07de2264"
                                     "70b2f152851a25a9851944b31e687b4b4006cb50"
                                     "57dc0c-s3.json")
        assert path.read_bytes() == self.GOLDEN.read_bytes()


class TestCorruptionTolerance:
    """A bad cache file is a miss, never a crash."""

    @pytest.mark.parametrize("mangle", [
        lambda text: "",                          # empty file
        lambda text: text[:len(text) // 2],       # truncated JSON
        lambda text: "not json at all {{{",       # garbage
        lambda text: "[1, 2, 3]",                 # wrong shape
        lambda text: json.dumps({"format": 999}),  # wrong format version
        lambda text: text.replace('"result"', '"resalt"'),  # missing key
    ], ids=["empty", "truncated", "garbage", "wrong-shape",
            "wrong-format", "missing-result"])
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
