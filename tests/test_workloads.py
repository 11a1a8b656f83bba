"""Tests for the three DNN workload generators (the GVSoC substitute)."""

import pytest

from repro.noc.config import NocConfig
from repro.traffic.dnn.workloads import (
    WORKLOADS,
    _balance_layers,
    _snake_order,
    distributed_training,
    parallel_conv,
    pipelined_conv,
)
from repro.traffic.dnn.resnet import conv_layers
from repro.noc.topology import Mesh2D

CFG = NocConfig.slim()


class TestStructure:
    def test_registry(self):
        assert set(WORKLOADS) == {"train", "par", "pipe"}

    def test_tiles_are_16_cores_plus_l2(self):
        wl = parallel_conv(CFG)
        assert len(wl.tiles) == 17
        l2 = wl.tiles[wl.l2_endpoint]
        assert not l2.has_dma and l2.has_memory

    def test_snake_order_is_mesh_adjacent(self):
        topo = Mesh2D(4, 4)
        order = _snake_order(topo)
        assert sorted(order) == list(range(16))
        assert order == [0, 1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 11, 15, 14, 13, 12]
        for a, b in zip(order, order[1:]):
            assert topo.hop_distance(a, b) == 1

    def test_balance_layers_contiguous_and_complete(self):
        layers = conv_layers(shrink=0.9)
        groups = _balance_layers(layers, 16)
        flattened = [l for g in groups for l in g]
        assert flattened == layers
        assert all(groups)  # no empty stage

    def test_balance_single_stage(self):
        layers = conv_layers(shrink=0.9)
        groups = _balance_layers(layers, 1)
        assert len(groups) == 1 and groups[0] == layers


class TestTrafficShape:
    def test_parallel_conv_is_pure_l2_traffic(self):
        """Fig. 7b: no inter-core communication at all."""
        wl = parallel_conv(CFG)
        net = wl.build_network(CFG)
        wl.install(net)
        net.run(6000)
        assert net.total_bytes() > 0
        l2 = wl.l2_endpoint
        for ep, mem in enumerate(net.memories):
            if mem is not None and ep != l2:
                assert mem.bytes_written == 0, f"core {ep} got L1 writes"

    def test_pipelined_conv_is_mostly_core_to_core(self):
        """Fig. 7c: cores pass tiles L1→L1; only the chain ends use L2.

        The share counts every metered byte, reads included: stage 0's
        L2 input read is about 40 % of them and sets the pipeline's
        period (DESIGN.md §6).  The full model reads 58 % here."""
        wl = pipelined_conv(CFG)
        net = wl.build_network(CFG)
        wl.install(net)
        net.run(20_000)
        l2 = wl.l2_endpoint
        core_bytes = sum(m.bytes_written for i, m in enumerate(net.memories)
                         if m is not None and i != l2)
        l2_written = net.memories[l2].bytes_written
        l2_read = sum(d.bytes_read for d in net.dmas if d is not None)
        assert l2_read > 0
        assert core_bytes / (core_bytes + l2_written + l2_read) >= 0.55

    def test_training_has_all_three_transfer_kinds(self):
        """Fig. 7a: L2→L1, L1→L1, and L1→L2 all present in one batch."""
        wl = distributed_training(CFG, shrink=0.95, input_hw=112)
        net = wl.build_network(CFG)
        scripts = wl.install(net)
        for s in scripts:
            s.loop = False
        net.run(2_000_000, until=lambda now: now % 1024 == 0
                and all(s.done for s in scripts) and net.idle())
        assert all(s.done for s in scripts)
        l2 = wl.l2_endpoint
        l2_reads = sum(d.bytes_read for d in net.dmas if d is not None)
        l2_written = net.memories[l2].bytes_written
        core_written = sum(m.bytes_written
                           for i, m in enumerate(net.memories)
                           if m is not None and i != l2)
        assert l2_reads > 0       # L2→L1 (inputs + replication)
        assert core_written > 0   # L1→L1 (reduction tree)
        assert l2_written > 0     # L1→L2 (updated model)

    def test_wide_config_builds(self):
        for key, builder in WORKLOADS.items():
            wl = builder(NocConfig.wide())
            net = wl.build_network(NocConfig.wide())
            wl.install(net)
            net.run(500)  # constructs and starts without error
