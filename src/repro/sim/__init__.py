"""Cycle-driven simulation kernel shared by all simulated subsystems."""

from repro.sim.fifo import TimedFifo
from repro.sim.kernel import Component, Simulator
from repro.sim.rng import DEFAULT_SEED, spawn_rngs
from repro.sim.stats import GIB, KIB, CounterSet, LatencyStats, ThroughputMeter

__all__ = [
    "Component",
    "CounterSet",
    "DEFAULT_SEED",
    "GIB",
    "KIB",
    "LatencyStats",
    "Simulator",
    "ThroughputMeter",
    "TimedFifo",
    "spawn_rngs",
]
