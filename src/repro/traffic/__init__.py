"""Traffic generators: uniform random, synthetic patterns, DNN workloads."""

from repro.traffic.base import RandomTraffic
from repro.traffic.synthetic import (
    ALL_GLOBAL,
    MAX_ONE_HOP,
    MAX_TWO_HOP,
    PATTERNS,
    SyntheticPattern,
    build_synthetic_network,
    synthetic_traffic,
)
from repro.traffic.uniform import uniform_random

__all__ = [
    "ALL_GLOBAL",
    "MAX_ONE_HOP",
    "MAX_TWO_HOP",
    "PATTERNS",
    "RandomTraffic",
    "SyntheticPattern",
    "build_synthetic_network",
    "synthetic_traffic",
    "uniform_random",
]
