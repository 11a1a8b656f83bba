"""Tests for routing-table generation and the two routing modes."""

import pytest

from repro.axi.beats import AddrBeat
from repro.axi.memory_map import MemoryMap, Region
from repro.noc.routing import (
    ComputedRouter,
    RouteRule,
    XpRouteTable,
    generate_route_tables,
)
from repro.noc.topology import LOCAL_PORT_BASE, Mesh2D


def small_setup():
    topo = Mesh2D(2, 3)
    mm = MemoryMap([Region(i * 1024, 1024, i) for i in range(topo.n_nodes)])
    endpoint_nodes = {i: i for i in range(topo.n_nodes)}
    local_ports = {i: LOCAL_PORT_BASE for i in range(topo.n_nodes)}
    return topo, mm, endpoint_nodes, local_ports


class TestXpRouteTable:
    def test_lookup(self):
        table = XpRouteTable(0, [RouteRule(0, 64, 2), RouteRule(64, 128, 1)])
        assert table.port_for(0) == 2
        assert table.port_for(63) == 2
        assert table.port_for(64) == 1
        assert table.port_for(128) is None

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            XpRouteTable(0, [RouteRule(0, 64, 0), RouteRule(32, 64, 1)])


class TestGeneration:
    def test_tables_cover_every_region_at_every_node(self):
        topo, mm, endpoint_nodes, local_ports = small_setup()
        tables = generate_route_tables(topo, mm, endpoint_nodes, local_ports)
        assert set(tables) == set(range(topo.n_nodes))
        for node, table in tables.items():
            assert all(table.port_for(region.base) is not None
                       for region in mm.regions)

    def test_local_region_routes_to_local_port(self):
        topo, mm, endpoint_nodes, local_ports = small_setup()
        tables = generate_route_tables(topo, mm, endpoint_nodes, local_ports)
        for node in range(topo.n_nodes):
            region = mm.region_of(node)
            assert tables[node].port_for(region.base) == LOCAL_PORT_BASE

    def test_table_matches_computed_router_everywhere(self):
        """The generated address tables and coordinate routing agree for
        every (node, destination) pair — the two modes are equivalent."""
        topo, mm, endpoint_nodes, local_ports = small_setup()
        tables = generate_route_tables(topo, mm, endpoint_nodes, local_ports)
        for node in range(topo.n_nodes):
            computed = ComputedRouter(node, topo, endpoint_nodes, local_ports)
            for region in mm.regions:
                beat = AddrBeat(0, region.base + 7, 1, 4,
                                dest=region.endpoint, src=0)
                assert tables[node].port_for(beat.addr) == computed(beat, 0)

    def test_computed_router_unknown_dest_is_none(self):
        topo, mm, endpoint_nodes, local_ports = small_setup()
        router = ComputedRouter(0, topo, endpoint_nodes, local_ports)
        beat = AddrBeat(0, 1 << 40, 1, 4, dest=-1, src=0)
        assert router(beat, 0) is None
