"""Measurement instruments: throughput meters, latency statistics, counters.

All NoC metrics in the paper reduce to two instruments:

* :class:`ThroughputMeter` — payload bytes delivered inside a measurement
  window, convertible to GiB/s at a given clock frequency (Figs. 4, 6, 8).
* :class:`LatencyStats` — per-transaction latency distribution (used by
  the ablation benches and examples; the paper reports only throughput).
"""

from __future__ import annotations

import math

GIB = float(1 << 30)
KIB = float(1 << 10)


class ThroughputMeter:
    """Counts payload bytes delivered after a warm-up cycle threshold.

    The warm-up window lets the network reach steady state before
    measurement starts, the standard methodology for NoC load sweeps.
    :meth:`add` is the only code that credits bytes (``tests/test_fifo.py``
    enforces it); an endpoint's byte count is a view of its meter.
    """

    def __init__(self, warmup_cycles: int = 0, name: str = ""):
        if warmup_cycles < 0:
            raise ValueError("warmup_cycles must be >= 0")
        self.warmup_cycles = warmup_cycles
        self.name = name
        self.bytes_total = 0  # everything, including warm-up
        self.bytes_measured = 0  # delivered at or after warm-up

    def add(self, nbytes: int, now: int, n: int = 1) -> None:
        """Record ``nbytes`` of payload delivered at cycle ``now`` — or,
        with ``n``, on each of the ``n`` cycles ``now .. now + n - 1``
        (a train's run of beats)."""
        self.bytes_total += nbytes * n
        if now >= self.warmup_cycles:
            self.bytes_measured += nbytes * n
        elif now + n > self.warmup_cycles:
            self.bytes_measured += nbytes * (now + n - self.warmup_cycles)


class LatencyStats:
    """Streaming latency statistics (count/mean/min/max/std + histogram).

    Uses Welford's algorithm so memory stays O(1) regardless of sample
    count; the coarse power-of-two histogram supports percentile
    estimates good enough for load-latency curves.
    """

    _BUCKETS = 40  # up to 2**40 cycles, far beyond any simulated latency

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.min = math.inf
        self.max = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self._hist = [0] * self._BUCKETS

    def add(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self.count += 1
        self.min = min(self.min, latency)
        self.max = max(self.max, latency)
        delta = latency - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (latency - self._mean)
        bucket = min(self._BUCKETS - 1, max(0, int(latency).bit_length()))
        self._hist[bucket] += 1

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (0..1) from the power-of-two histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for bucket, n in enumerate(self._hist):
            seen += n
            if seen >= target:
                # upper edge of the bucket: 2**bucket
                return float(2 ** bucket)
        return self.max

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "min": 0.0 if self.count == 0 else float(self.min),
            "max": float(self.max),
            "p50": self.percentile(0.5),
            "p99": self.percentile(0.99),
        }


class CounterSet:
    """A named bag of integer counters (events, stalls, beats, ...)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def bump(self, key: str, amount: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)
