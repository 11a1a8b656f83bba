"""Tests for throughput meters, latency statistics, and counters."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import GIB, CounterSet, LatencyStats, ThroughputMeter


class TestThroughputMeter:
    def test_counts_after_warmup_only(self):
        meter = ThroughputMeter(warmup_cycles=100)
        meter.add(50, now=99)
        meter.add(70, now=100)
        meter.add(30, now=150)
        assert meter.bytes_total == 150
        assert meter.bytes_measured == 100

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter(warmup_cycles=-1)


class TestLatencyStats:
    def test_mean_and_std_match_numpy(self):
        samples = [3.0, 7.0, 1.0, 12.0, 5.0, 5.0]
        stats = LatencyStats()
        for s in samples:
            stats.add(s)
        assert stats.mean == pytest.approx(np.mean(samples))
        assert stats.std == pytest.approx(np.std(samples, ddof=1))
        assert stats.min == 1.0
        assert stats.max == 12.0

    def test_empty_summary(self):
        summary = LatencyStats().summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0

    def test_percentile_bounds(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.add(float(v))
        assert stats.percentile(0.0) <= stats.percentile(1.0)
        with pytest.raises(ValueError):
            stats.percentile(1.5)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().add(-1.0)

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=100))
    def test_welford_matches_numpy(self, samples):
        stats = LatencyStats()
        for s in samples:
            stats.add(s)
        assert stats.mean == pytest.approx(np.mean(samples), rel=1e-9,
                                           abs=1e-6)
        assert stats.std == pytest.approx(np.std(samples, ddof=1), rel=1e-6,
                                          abs=1e-6)


class TestCounterSet:
    def test_bump_and_read(self):
        counters = CounterSet()
        counters.bump("x")
        counters.bump("x", 4)
        assert counters["x"] == 5
        assert counters["missing"] == 0
        assert counters.as_dict() == {"x": 5}


def test_gib_constant():
    assert GIB == math.pow(2, 30)
