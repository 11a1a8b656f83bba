"""Uniform random traffic (Fig. 4): every master addresses every other
endpoint's memory with equal probability."""

from __future__ import annotations

from repro.noc.network import NocNetwork
from repro.traffic.base import RandomTraffic


def uniform_random(net: NocNetwork, load: float, max_burst_bytes: int, *,
                   include_self: bool = False, read_fraction: float = 0.5,
                   min_burst_bytes: int = 1, seed: int | None = None,
                   queue_cap: int = 64) -> RandomTraffic:
    """Build (but do not install) uniform random traffic on ``net``.

    Destinations are drawn uniformly from all memory endpoints; by
    default a master never targets its own tile's memory (self-traffic
    does not exercise the NoC).
    """
    memories = net.memory_endpoints()
    candidates: dict[int, list[int]] = {}
    for master in net.dma_endpoints():
        options = [m for m in memories if include_self or m != master]
        candidates[master] = options
    return RandomTraffic(net, candidates, load, max_burst_bytes,
                         min_burst_bytes=min_burst_bytes,
                         read_fraction=read_fraction, seed=seed,
                         queue_cap=queue_cap)
