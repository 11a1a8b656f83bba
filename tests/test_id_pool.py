"""Tests for the order-preserving ID remapper."""

import pytest
from hypothesis import given, strategies as st

from repro.axi.id_pool import IdRemapper


class TestAcquireRelease:
    def test_roundtrip(self):
        remap = IdRemapper(id_width=2)
        rid = remap.acquire(src_port=3, orig_id=7)
        assert remap.release(rid) == (3, 7)
        assert remap.in_flight() == 0

    def test_same_key_reuses_rid(self):
        """Order preservation: in-flight same-ID pairs share a remap."""
        remap = IdRemapper(id_width=2)
        rid1 = remap.acquire(0, 5)
        rid2 = remap.acquire(0, 5)
        assert rid1 == rid2
        assert remap.in_flight() == 1
        remap.release(rid1)
        assert remap.in_flight() == 1  # refcount still holds it
        remap.release(rid1)
        assert remap.in_flight() == 0

    def test_different_keys_get_unique_rids(self):
        remap = IdRemapper(id_width=2)
        rids = {remap.acquire(p, i) for p in range(2) for i in range(2)}
        assert len(rids) == 4

    def test_exhaustion_returns_none(self):
        remap = IdRemapper(id_width=1)  # pool of 2
        assert remap.acquire(0, 0) is not None
        assert remap.acquire(0, 1) is not None
        assert remap.acquire(0, 2) is None
        assert remap.acquire(0, 1) is not None  # reuse stays possible

    def test_release_frees_for_new_keys(self):
        remap = IdRemapper(id_width=1)
        rid = remap.acquire(0, 0)
        remap.acquire(0, 1)
        remap.release(rid)
        assert remap.acquire(1, 9) is not None

    def test_double_release_raises(self):
        remap = IdRemapper(id_width=2)
        rid = remap.acquire(0, 0)
        remap.release(rid)
        with pytest.raises(KeyError):
            remap.release(rid)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            IdRemapper(id_width=0)

    def test_high_water_mark(self):
        remap = IdRemapper(id_width=4)
        rids = [remap.acquire(0, i) for i in range(5)]
        for rid in rids[:3]:
            remap.release(rid)
        assert remap.max_in_flight == 5


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                min_size=1, max_size=120))
def test_remapper_invariants(ops):
    """Random acquire/release sequences preserve uniqueness/consistency."""
    remap = IdRemapper(id_width=3)
    live: dict[int, tuple[int, int]] = {}  # rid -> key
    refcounts: dict[int, int] = {}
    for port, oid in ops:
        rid = remap.acquire(port, oid)
        if rid is None:
            assert len(set(live.values())) == remap.n_ids
            # release something to make progress
            victim = next(iter(live))
            key = remap.release(victim)
            assert key == live[victim]
            refcounts[victim] -= 1
            if refcounts[victim] == 0:
                del live[victim]
                del refcounts[victim]
            continue
        if rid in live:
            assert live[rid] == (port, oid)
            refcounts[rid] += 1
        else:
            # fresh rid must not collide with anything in flight
            assert all(k != (port, oid) for k in live.values())
            live[rid] = (port, oid)
            refcounts[rid] = 1
        assert remap._table[rid][:2] == [port, oid]
    assert remap.in_flight() == len(live)
