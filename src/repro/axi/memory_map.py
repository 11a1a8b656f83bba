"""Global address map: address ranges → endpoint indices.

The paper's mesh uses "an automated script [that] generates the
address-based routing table for each XP".  Here the single source of
truth is a :class:`MemoryMap`; the per-XP routing tables in
:mod:`repro.noc.routing` are generated from it, and endpoints use it to
aim transfers at each other.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class Region:
    """A contiguous address range owned by one endpoint."""

    base: int
    size: int
    endpoint: int

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"negative base address {self.base:#x}")
        if self.size <= 0:
            raise ValueError(f"region size must be positive, got {self.size}")

    @property
    def end(self) -> int:
        """One past the last owned address."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class MemoryMap:
    """An ordered, non-overlapping set of :class:`Region` objects."""

    def __init__(self, regions: list[Region]):
        if not regions:
            raise ValueError("memory map needs at least one region")
        ordered = sorted(regions, key=lambda r: r.base)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.base < prev.end:
                raise ValueError(
                    f"overlapping regions: [{prev.base:#x}, {prev.end:#x}) "
                    f"and [{cur.base:#x}, {cur.end:#x})")
        self._regions = ordered
        self._bases = [r.base for r in ordered]
        self._by_endpoint: dict[int, Region] = {}
        for region in ordered:
            if region.endpoint in self._by_endpoint:
                raise ValueError(
                    f"endpoint {region.endpoint} owns more than one region")
            self._by_endpoint[region.endpoint] = region

    @classmethod
    def uniform(cls, n_endpoints: int, region_size: int = 16 << 20,
                base: int = 0) -> "MemoryMap":
        """Give each of ``n_endpoints`` a same-sized region from ``base``."""
        if n_endpoints <= 0:
            raise ValueError(f"need at least one endpoint, got {n_endpoints}")
        return cls([
            Region(base + i * region_size, region_size, i)
            for i in range(n_endpoints)
        ])

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(self._regions)

    def resolve(self, addr: int) -> int | None:
        """Endpoint owning ``addr``, or None (→ DECERR at the error slave)."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and self._regions[i].contains(addr):
            return self._regions[i].endpoint
        return None

    def region_of(self, endpoint: int) -> Region:
        """The region owned by ``endpoint``; KeyError if it has none."""
        return self._by_endpoint[endpoint]
