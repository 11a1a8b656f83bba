"""Tests for the global address map."""

import pytest
from hypothesis import given, strategies as st

from repro.axi.memory_map import MemoryMap, Region


class TestRegion:
    def test_bounds(self):
        region = Region(base=0x1000, size=0x100, endpoint=3)
        assert region.end == 0x1100
        assert region.contains(0x1000)
        assert region.contains(0x10FF)
        assert not region.contains(0x1100)
        assert not region.contains(0xFFF)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Region(base=-1, size=4, endpoint=0)
        with pytest.raises(ValueError):
            Region(base=0, size=0, endpoint=0)


class TestMemoryMap:
    def test_resolve(self):
        mm = MemoryMap([Region(0, 256, 0), Region(256, 256, 1)])
        assert mm.resolve(0) == 0
        assert mm.resolve(255) == 0
        assert mm.resolve(256) == 1
        assert mm.resolve(511) == 1
        assert mm.resolve(512) is None

    def test_hole_between_regions(self):
        mm = MemoryMap([Region(0, 16, 0), Region(64, 16, 1)])
        assert mm.resolve(20) is None
        assert mm.resolve(64) == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            MemoryMap([Region(0, 32, 0), Region(16, 32, 1)])

    def test_duplicate_endpoint_rejected(self):
        with pytest.raises(ValueError):
            MemoryMap([Region(0, 16, 0), Region(16, 16, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MemoryMap([])

    def test_uniform(self):
        mm = MemoryMap.uniform(4, region_size=1024)
        assert len(mm.regions) == 4
        assert mm.region_of(2).base == 2048
        assert mm.resolve(3 * 1024 + 5) == 3

    def test_region_of_unknown_raises(self):
        mm = MemoryMap.uniform(2)
        with pytest.raises(KeyError):
            mm.region_of(7)


@given(n=st.integers(1, 16), size=st.integers(64, 4096),
       probe=st.integers(0, 10_000_000))
def test_resolve_consistent_with_regions(n, size, probe):
    mm = MemoryMap.uniform(n, region_size=size)
    resolved = mm.resolve(probe)
    if probe < n * size:
        assert resolved == probe // size
    else:
        assert resolved is None
