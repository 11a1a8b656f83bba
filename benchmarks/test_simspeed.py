"""Micro-benchmarks of the simulator itself (cycles/second).

These are the only benches where statistical rounds make sense; they
guard against performance regressions in the hot XP/endpoint paths.
Record/compare a baseline with ``benchmarks/record.py`` (see README);
CI runs a single-round smoke via ``SIMSPEED_ROUNDS=1`` and fails on a
>30% regression of the loaded benches vs. BENCH_simspeed.json.

Each fabric has one production path and one bench.
``SIMSPEED_PROFILE=1`` wraps each bench round in cProfile and prints the
top-25 cumulative entries, so hot-path work starts from data instead of
guesses.
"""

import cProfile
import os
import pstats
import sys

from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.traffic.uniform import uniform_random

CYCLES = 2_000
ROUNDS = max(1, int(os.environ.get("SIMSPEED_ROUNDS", "3")))
PROFILE = os.environ.get("SIMSPEED_PROFILE") == "1"


def _bench(benchmark, setup, run):
    """pedantic + cycles/s extra_info + the optional profiling hook."""
    if PROFILE:
        prof = cProfile.Profile()
        inner = run

        def run(*state):  # noqa: F811 - deliberate profiled wrapper
            prof.enable()
            inner(*state)
            prof.disable()

    benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    benchmark.extra_info["cycles_per_round"] = CYCLES
    benchmark.extra_info["cycles_per_second"] = round(
        CYCLES / benchmark.stats.stats.mean)
    if PROFILE:
        pstats.Stats(prof, stream=sys.stdout) \
            .sort_stats("cumulative").print_stats(25)


def _patronoc_setup():
    net = NocNetwork(NocConfig.slim())
    uniform_random(net, load=0.5, max_burst_bytes=1000, seed=0).install()
    net.run(500)  # fill the pipeline so we measure steady state
    return (net,), {}


def _baseline_setup():
    mesh = PacketMesh(PacketMeshConfig(n_vcs=4, buf_depth=32),
                      injection_rate=0.3, seed=0)
    mesh.run(500)
    return (mesh,), {}


def test_patronoc_cycles_per_second(benchmark):
    _bench(benchmark, _patronoc_setup, lambda net: net.run(CYCLES))


def test_baseline_cycles_per_second(benchmark):
    _bench(benchmark, _baseline_setup, lambda mesh: mesh.run(CYCLES))


def test_idle_network_overhead(benchmark):
    """Stepping an idle 4×4 network (lower bound of per-cycle cost)."""
    def setup():
        return (NocNetwork(NocConfig.slim()),), {}

    benchmark.pedantic(lambda net: net.run(CYCLES), setup=setup,
                       rounds=ROUNDS, iterations=1)
