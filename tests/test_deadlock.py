"""Deadlock-freedom under saturating load.

The W channel of cascaded AXI crossbars is the classic deadlock hazard:
AW requests racing ahead of their W data create cyclic wait-for
dependencies around mesh rings (this exact failure was observed during
development — burst caps around 100 B, write-only, full load).  The XP's
W-coupled AW forwarding rule restores the wormhole-style atomicity that
makes YX dimension-ordered routing deadlock-free; these tests pin that
down with progress assertions under the nastiest traffic we can generate.
"""

import pytest

from repro.baseline.network import PacketMesh, PacketMeshConfig
from repro.faults.spec import FaultSpec, LinkFault
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.traffic.uniform import uniform_random


def assert_forward_progress(net, total_cycles=8000, check=2000):
    """Delivered bytes must strictly increase in every check window."""
    last = -1
    for _ in range(total_cycles // check):
        net.run(check)
        delivered = net.total_bytes()
        assert delivered > last, (
            f"no delivered bytes between cycles "
            f"{net.sim.now - check} and {net.sim.now}")
        last = delivered


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("burst", [100, 1000])
def test_write_only_saturation_makes_progress(seed, burst):
    """The regression case that deadlocked the naive W path."""
    net = NocNetwork(NocConfig(rows=4, cols=4))
    uniform_random(net, load=1.0, max_burst_bytes=burst,
                   read_fraction=0.0, seed=seed).install()
    assert_forward_progress(net)


@pytest.mark.parametrize("rows,cols", [(3, 3), (2, 4)])
def test_mixed_saturation_makes_progress(rows, cols):
    net = NocNetwork(NocConfig(rows=rows, cols=cols))
    uniform_random(net, load=1.0, max_burst_bytes=2000,
                   read_fraction=0.5, seed=9).install()
    assert_forward_progress(net)


def test_saturated_network_drains_when_sources_stop():
    """After quiescing the sources everything in flight completes."""
    net = NocNetwork(NocConfig(rows=3, cols=3))
    traffic = uniform_random(net, load=1.0, max_burst_bytes=500,
                             read_fraction=0.0, seed=4).install()
    net.run(4000)
    traffic.quiesce()
    net.drain(max_cycles=300_000)
    assert net.idle()


def test_tiny_id_space_under_load():
    """ID-pool exhaustion (IW=1 → 2 remap entries) must stall, not hang."""
    cfg = NocConfig(rows=2, cols=2, id_width=1, max_outstanding=4)
    net = NocNetwork(cfg)
    uniform_random(net, load=1.0, max_burst_bytes=300,
                   read_fraction=0.5, seed=5).install()
    assert_forward_progress(net, total_cycles=6000, check=2000)


def test_deep_mot_under_load():
    cfg = NocConfig(rows=2, cols=2, max_outstanding=64, id_width=8)
    net = NocNetwork(cfg)
    uniform_random(net, load=1.0, max_burst_bytes=300,
                   read_fraction=0.5, seed=6).install()
    assert_forward_progress(net, total_cycles=6000, check=2000)


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="open defect: R beats of read bursts in flight "
                          "across an up*/down* table swap wait on each "
                          "other around the mesh's outer ring")
def test_reroute_table_swap_with_reads_in_flight_drains():
    """Reproducer found by the scheduler property in test_properties.py
    (which therefore compares "did not drain" as an outcome): a slim 4x3
    mesh of reads only, one link degraded over [107, 318) under
    ``recovery="reroute"``.  Under either scheduler every R link of the
    ring 0-1-2-5-8-7-6-3 ends up full and nothing moves again."""
    spec = FaultSpec(links=[LinkFault(7, 4, start=107, duration=211,
                                      width_factor=0.25)],
                     recovery="reroute")
    net = NocNetwork(NocConfig.slim(4, 3), faults=spec, fault_seed=7772347)
    traffic = uniform_random(net, load=0.5, max_burst_bytes=100,
                             read_fraction=1.0, seed=7772347).install()
    net.run(302)
    traffic.quiesce()
    net.drain(max_cycles=20_000)


def test_the_wedged_r_ring_is_reported_without_polling_and_names_memories():
    """The same reproducer, for what the open defect costs to see: the
    memories behind the full R links sleep like the crosspoints, so the
    drain jumps to its bound and the error names them too."""
    spec = FaultSpec(links=[LinkFault(7, 4, start=107, duration=211,
                                      width_factor=0.25)],
                     recovery="reroute")
    net = NocNetwork(NocConfig.slim(4, 3), faults=spec, fault_seed=7772347)
    traffic = uniform_random(net, load=0.5, max_burst_bytes=100,
                             read_fraction=1.0, seed=7772347).install()
    net.run(302)
    traffic.quiesce()
    before = net.sim.steps
    with pytest.raises(RuntimeError, match="possible deadlock") as err:
        net.drain(max_cycles=20_000)
    assert net.sim.now == 20_302
    assert net.sim.steps - before < 5_000  # always-step: 760 000
    assert net.sim.cycles_skipped > 19_000
    assert "tile3.mem (full: xp3->tile3.mem.r)" in str(err.value)
    assert sum(c.name.endswith(".mem") for c in net.sim.blocked()) == 6


def test_deadlock_is_seen_without_polling_and_names_the_blocked():
    """A slave that never answers wedges the write path behind it.  The
    production scheduler ends with the active set and the wake heap
    empty and four blocked sleepers — a deadlock by construction — so
    the drain jumps to its bound instead of polling there, and the error
    names who waits behind which full FIFO.  Always-step polls the whole
    way and reports the same cycle."""
    from repro.axi.transaction import Transfer

    stops = {}
    for always_step in (False, True):
        net = NocNetwork(NocConfig(rows=2, cols=2), always_step=always_step)
        net.memories[3].step = lambda now: True  # never accepts a request
        net.dmas[0].submit(Transfer(src=0, addr=net.addr_of(3, 0),
                                    nbytes=4096, is_read=False))
        with pytest.raises(RuntimeError, match="possible deadlock") as err:
            net.drain(max_cycles=30_000)
        stops[always_step] = net.sim.now
        if not always_step:
            assert net.sim.steps < 500
            assert net.sim.cycles_skipped > 29_900
            assert [c.name for c in net.sim.blocked()] == [
                "xp0", "xp2", "xp3", "tile0.dma"]
            message = str(err.value)
            assert "xp3 (full: xp3->tile3.mem.w)" in message
            assert ("tile0.dma (full: tile0.dma->xp0.aw, "
                    "tile0.dma->xp0.w)") in message
    assert stops[False] == stops[True] == 30_000


# ----------------------------------------------------------------------
# Escape-VC adaptive routing on the packet baseline (DESIGN.md §10).
#
# Minimal-adaptive rerouting without structure deadlocks real wormhole
# NoCs: packets deviating around a dead region create cyclic channel
# dependencies that strict XY never could.  The escape-VC scheme keeps
# VC 0 on strict-XY egresses only (acyclic escape layer) and bounds the
# wait of heads stuck at a dead XY egress, so these adversarial runs —
# saturating injection squeezed around dead cuts — must always make
# progress and always drain.
# ----------------------------------------------------------------------

#: A vertical cut through the middle of the 4x4 mesh (both directions of
#: two column-crossing links) — traffic between the halves must squeeze
#: through the two surviving rows, the nastiest congestion an adaptive
#: scheme faces.
DEAD_CUT = [LinkFault(5, 6, start=200), LinkFault(6, 5, start=200),
            LinkFault(9, 10, start=200), LinkFault(10, 9, start=200)]


def _saturated_mesh(seed, *, n_vcs=4, rate=0.9, links=DEAD_CUT):
    spec = FaultSpec(links=links, recovery="reroute")
    cfg = PacketMeshConfig(n_vcs=n_vcs, buf_depth=8)
    return PacketMesh(cfg, injection_rate=rate, seed=seed, faults=spec)


def assert_mesh_progress(mesh, total_cycles=12_000, check=2000):
    """Ejected + dropped flits must strictly increase in every window —
    a stalled allocation anywhere would freeze both counters."""
    last = -1
    for _ in range(total_cycles // check):
        mesh.run(check)
        moved = mesh.flits_received + sum(
            r.flits_dropped for r in mesh.routers)
        assert moved > last, (
            f"no flit movement between cycles "
            f"{mesh.sim.now - check} and {mesh.sim.now}")
        last = moved


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adaptive_saturation_around_dead_cut_makes_progress(seed):
    """The regression case for the old minimal-adaptive deadlock caveat."""
    mesh = _saturated_mesh(seed)
    assert_mesh_progress(mesh)
    assert mesh.fault_report()["reroute_decisions"] > 0


@pytest.mark.parametrize("n_vcs", [1, 2, 4])
def test_adaptive_saturated_mesh_drains(n_vcs):
    """After quiescing the sources, everything in flight leaves the
    network (ejected or dropped at the dead cut) — the enforced form of
    the removed deadlock caveat."""
    mesh = _saturated_mesh(7, n_vcs=n_vcs)
    mesh.run(6000)
    mesh.injection_rate = 0.0
    mesh._next_arrival = [float("inf")] * mesh.cfg.n_nodes
    for _ in range(100):
        mesh.run(1000)
        if mesh.quiet():
            break
    assert mesh.quiet(), (
        f"{mesh._flits_in_network} flits still in network after "
        f"100k drain cycles")


def test_adaptive_dead_sink_region_makes_progress():
    """All links into a node die — packets destined there can never
    arrive, so bounded patience must convert them into drops instead of
    letting them clog the adaptive layer forever."""
    sink_cut = [LinkFault(a, b, start=200)
                for a, b in ((4, 5), (6, 5), (1, 5), (9, 5))]
    mesh = _saturated_mesh(3, links=sink_cut)
    assert_mesh_progress(mesh)
    assert mesh.packets_dropped > 0
