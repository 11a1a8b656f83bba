"""Tests for the uniform random and synthetic traffic generators."""

import pytest

from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.traffic.base import RandomTraffic
from repro.traffic.synthetic import (
    ALL_GLOBAL,
    MAX_ONE_HOP,
    MAX_TWO_HOP,
    PATTERNS,
    build_synthetic_network,
    synthetic_traffic,
)
from repro.traffic.uniform import uniform_random


class TestUniformRandom:
    def test_excludes_self_by_default(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        traffic = uniform_random(net, load=0.5, max_burst_bytes=100, seed=0)
        for master, cands in traffic._candidates.items():
            assert master not in cands

    def test_include_self_option(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        traffic = uniform_random(net, load=0.5, max_burst_bytes=100,
                                 include_self=True, seed=0)
        assert all(len(c) == 4 for c in traffic._candidates.values())

    def test_offered_load_tracks_request(self):
        """Measured offered bytes/cycle/master ≈ load × beat_bytes."""
        cfg = NocConfig(rows=2, cols=2)
        net = NocNetwork(cfg)
        traffic = uniform_random(net, load=0.25, max_burst_bytes=1000,
                                 seed=1, queue_cap=100_000).install()
        net.run(60_000)
        offered_rate = traffic.offered_bytes / 60_000 / 4  # per master
        assert offered_rate == pytest.approx(0.25 * cfg.beat_bytes, rel=0.2)

    def test_transfer_sizes_within_cap(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        traffic = uniform_random(net, load=1.0, max_burst_bytes=64, seed=2)
        for _ in range(100):
            t = traffic._make_transfer(0, 0)
            assert 1 <= t.nbytes < 64
            assert t.dest != 0

    def test_read_fraction_extremes(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        writes = uniform_random(net, load=1.0, max_burst_bytes=100,
                                read_fraction=0.0, seed=3)
        reads = uniform_random(net, load=1.0, max_burst_bytes=100,
                               read_fraction=1.0, seed=3)
        assert not any(writes._make_transfer(0, 0).is_read
                       for _ in range(20))
        assert all(reads._make_transfer(0, 0).is_read for _ in range(20))

    def test_validation(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        with pytest.raises(ValueError):
            uniform_random(net, load=0.0, max_burst_bytes=100)
        with pytest.raises(ValueError):
            uniform_random(net, load=1.0, max_burst_bytes=0)
        with pytest.raises(ValueError):
            uniform_random(net, load=1.0, max_burst_bytes=100,
                           read_fraction=1.5)

    def test_uniform_class_facade(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        traffic = uniform_random(net, load=0.5, max_burst_bytes=100)
        assert isinstance(traffic, RandomTraffic)

    def test_deterministic_across_runs(self):
        totals = []
        for _ in range(2):
            net = NocNetwork(NocConfig(rows=2, cols=2))
            uniform_random(net, load=0.5, max_burst_bytes=500,
                           seed=42).install()
            net.run(5000)
            totals.append(net.total_bytes())
        assert totals[0] == totals[1]


class TestSyntheticPatterns:
    def test_pattern_catalogue(self):
        assert set(PATTERNS) == {"all_global", "two_hop", "one_hop"}
        assert len(ALL_GLOBAL.slave_coords) == 1
        assert len(MAX_TWO_HOP.slave_coords) == 4
        assert len(MAX_ONE_HOP.slave_coords) == 8

    def test_network_places_slaves(self):
        cfg = NocConfig.slim()
        net, slaves = build_synthetic_network(cfg, MAX_TWO_HOP)
        assert len(slaves) == 4
        assert net.memory_endpoints() == slaves
        assert len(net.dma_endpoints()) == 16

    @pytest.mark.parametrize("pattern", [MAX_TWO_HOP, MAX_ONE_HOP])
    def test_hop_limit_respected(self, pattern):
        cfg = NocConfig.slim()
        net, _ = build_synthetic_network(cfg, pattern)
        traffic = synthetic_traffic(net, pattern, load=1.0,
                                    max_burst_bytes=100, seed=0)
        for master, cands in traffic._candidates.items():
            for dest in cands:
                hops = net.topology.hop_distance(net.node_of(master),
                                                 net.node_of(dest))
                assert hops <= pattern.max_hops

    def test_all_global_uses_single_slave(self):
        cfg = NocConfig.slim()
        net, slaves = build_synthetic_network(cfg, ALL_GLOBAL)
        traffic = synthetic_traffic(net, ALL_GLOBAL, load=1.0,
                                    max_burst_bytes=100, seed=0)
        assert all(list(c) == slaves for c in traffic._candidates.values())

    def test_traffic_flows_on_pattern(self):
        cfg = NocConfig.slim()
        net, slaves = build_synthetic_network(cfg, MAX_ONE_HOP)
        synthetic_traffic(net, MAX_ONE_HOP, load=0.3, max_burst_bytes=500,
                          seed=1).install()
        net.run(4000)
        assert net.total_bytes() > 0
        # All write traffic landed at slave tiles only.
        core_writes = sum(m.bytes_written for i, m in enumerate(net.memories)
                          if m is not None and i not in slaves)
        assert core_writes == 0


class TestSleepsAtTheBacklogCap:
    """At saturation every DMA queue sits at ``queue_cap`` and the source
    sleeps until a queue pops (DESIGN.md §2): the wake has to reach the
    object that was *installed* — the façade class builds a throw-away
    source first — and every source on the network, not the last one."""

    @staticmethod
    def run(build, always_step):
        net = NocNetwork(NocConfig.slim(), always_step=always_step)
        sources = build(net)
        net.run(3000)
        return (net.total_bytes(), net.transfers_completed(),
                [s.offered_transfers for s in sources])

    @pytest.mark.parametrize("build", [
        pytest.param(lambda net: [uniform_random(
            net, load=1.0, max_burst_bytes=4, read_fraction=0.0,
            seed=5).install()], id="facade"),
        pytest.param(lambda net: [uniform_random(
            net, 1.0, 4, read_fraction=0.0, seed=5).install()],
            id="uniform_random"),
        pytest.param(lambda net: [
            uniform_random(net, 1.0, 4, read_fraction=0.0, seed=5).install(),
            uniform_random(net, 1.0, 40, read_fraction=1.0, seed=6).install()],
            id="two_sources"),
    ])
    def test_saturated_source_matches_always_step(self, build):
        production = self.run(build, always_step=False)
        assert production == self.run(build, always_step=True)
        # Well past the 16 x 64 transfers that fill the queues once: a
        # source that slept through its wake would have stopped there.
        assert production[1] > 2000

    def test_quiesce_deregisters_the_source(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        traffic = uniform_random(net, 1.0, 4, seed=1).install()
        assert all(d.feeders == [traffic] for d in net.dmas)
        traffic.quiesce()
        assert all(d.feeders == [] for d in net.dmas)
        net.drain()
