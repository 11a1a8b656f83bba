"""Tests for network construction and the end-to-end datapath."""

import pytest

from repro.axi.transaction import Transfer
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork, TileSpec, default_tiles
from repro.noc.topology import Torus2D


class TestConstruction:
    def test_default_tiles_one_per_node(self):
        cfg = NocConfig(rows=2, cols=2)
        net = NocNetwork(cfg)
        assert len(net.tiles) == 4
        assert all(t.dma is not None and t.memory is not None
                   for t in net.tiles)
        assert len(net.xps) == 4

    def test_memory_map_regions_disjoint_and_ordered(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        regions = net.memory_map.regions
        for prev, cur in zip(regions, regions[1:]):
            assert prev.end <= cur.base

    def test_multiple_tiles_per_node(self):
        cfg = NocConfig(rows=2, cols=2)
        tiles = default_tiles(cfg) + [
            TileSpec(node=0, name="l2", has_dma=False, has_memory=True)]
        net = NocNetwork(cfg, tiles=tiles)
        assert net.xps[0].n_in == 6  # 4 mesh + 2 locals

    def test_master_only_and_slave_only_tiles(self):
        cfg = NocConfig(rows=2, cols=2)
        tiles = [TileSpec(node=n, has_dma=True, has_memory=False)
                 for n in range(4)]
        tiles.append(TileSpec(node=3, has_dma=False, has_memory=True))
        net = NocNetwork(cfg, tiles=tiles)
        assert net.memory_endpoints() == [4]
        assert net.dma_endpoints() == [0, 1, 2, 3]

    def test_tile_validation(self):
        with pytest.raises(ValueError):
            TileSpec(node=0, has_dma=False, has_memory=False)
        with pytest.raises(ValueError):
            NocNetwork(NocConfig(rows=2, cols=2),
                       tiles=[TileSpec(node=9)])

    def test_needs_a_memory(self):
        cfg = NocConfig(rows=2, cols=2)
        tiles = [TileSpec(node=n, has_dma=True, has_memory=False)
                 for n in range(4)]
        with pytest.raises(ValueError):
            NocNetwork(cfg, tiles=tiles)

    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NocNetwork(NocConfig(rows=2, cols=2), topology=Torus2D(3, 3))

    def test_bad_routing_mode_rejected(self):
        with pytest.raises(ValueError):
            NocNetwork(NocConfig(rows=2, cols=2), routing="psychic")

    def test_addr_of_bounds(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        region = net.memory_map.region_of(1)
        assert net.addr_of(1, 0) == region.base
        with pytest.raises(ValueError):
            net.addr_of(1, region.size)

    def test_node_of(self):
        net = NocNetwork(NocConfig(rows=2, cols=2))
        assert [net.node_of(i) for i in range(4)] == [0, 1, 2, 3]


class TestDatapath:
    def run_one(self, routing):
        cfg = NocConfig(rows=2, cols=2)
        net = NocNetwork(cfg, routing=routing)
        done = []
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(3, 128), nbytes=1000, is_read=False,
            on_complete=lambda now: done.append(now)))
        net.dmas[2].submit(Transfer(
            src=2, addr=net.addr_of(1, 0), nbytes=500, is_read=True,
            on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=20_000)
        return net, done

    def test_write_and_read_complete(self):
        net, done = self.run_one("computed")
        assert len(done) == 2
        assert net.memories[3].bytes_written == 1000
        assert net.dmas[2].bytes_read == 500
        assert net.total_bytes() == 1500

    def test_table_routing_equivalent(self):
        net_c, _ = self.run_one("computed")
        net_t, _ = self.run_one("table")
        assert net_c.total_bytes() == net_t.total_bytes()
        # Identical deterministic schedules → identical completion time.
        assert net_c.sim.now == net_t.sim.now

    def test_unmapped_address_terminates_with_decerr(self):
        """A transfer to a hole in the map completes (DECERR), no hang."""
        cfg = NocConfig(rows=2, cols=2)
        net = NocNetwork(cfg)
        done = []
        hole = net.memory_map.regions[-1].end + 4096
        net.dmas[0].submit(Transfer(
            src=0, addr=hole, nbytes=64, is_read=False,
            on_complete=lambda now: done.append(now)))
        net.dmas[0].submit(Transfer(
            src=0, addr=hole, nbytes=64, is_read=True,
            on_complete=lambda now: done.append(now)))
        net.drain(max_cycles=20_000)
        assert len(done) == 2
        assert net.dmas[0].errors == 2
        assert net.total_bytes() == 0  # DECERR data is not payload

    def test_local_transfer_through_own_xp(self):
        """DMA writing to its own tile's L1 uses the local port pair."""
        cfg = NocConfig(rows=2, cols=2)
        net = NocNetwork(cfg)
        net.dmas[1].submit(Transfer(
            src=1, addr=net.addr_of(1, 0), nbytes=256, is_read=False))
        net.drain(max_cycles=10_000)
        assert net.memories[1].bytes_written == 256

    def test_throughput_accounting(self):
        net, _ = self.run_one("computed")
        net.set_warmup(0)
        assert net.measured_bytes() == 1500
        assert net.aggregate_throughput_gib_s() > 0

    def test_warmup_excludes_early_bytes(self):
        cfg = NocConfig(rows=2, cols=2)
        net = NocNetwork(cfg)
        net.set_warmup(1_000_000)  # nothing lands after this
        net.dmas[0].submit(Transfer(
            src=0, addr=net.addr_of(3, 0), nbytes=100, is_read=False))
        net.drain(max_cycles=10_000)
        assert net.total_bytes() == 100
        assert net.measured_bytes() == 0


class TestArbitration:
    def test_round_robin_is_fair(self):
        """Three masters issue read streams against one slave through
        one XP: reads are where arbitration bites, AR grants compete
        every cycle (writes are equalised at burst granularity by
        W-coupled forwarding)."""
        tiles = [TileSpec(node=0, name=f"m{k}", has_memory=False)
                 for k in range(3)]
        tiles.append(TileSpec(node=0, name="slave", has_dma=False,
                              has_memory=True))
        net = NocNetwork(NocConfig(rows=1, cols=1, id_width=4), tiles=tiles)
        for k in range(3):
            for _ in range(120):
                net.dmas[k].submit(Transfer(
                    src=k, addr=net.addr_of(3, 0), nbytes=512,
                    is_read=True))
        net.run(20_000)
        counts = [net.dmas[k].transfers_completed for k in range(3)]
        assert max(counts) - min(counts) <= 2
