"""W and R trains (DESIGN.md §7 "A burst is a run"): where they fire,
where they must not, and that every ``run()`` boundary and every read
that may compete for an R train's path — the places a train is cut
short — leave the network exactly as the per-beat oracle has it.

``always_step=True`` never trains, so unlike the gates of the address
path it *can* see an inexact train: every comparison here is against it.
``test_trains_match_per_beat_oracle`` in test_properties.py is the same
comparison over random points.
"""

import pytest

from repro.axi.monitor import LinkMonitor
from repro.axi.transaction import Transfer
from repro.faults import FaultSpec, LinkFault
from repro.noc.config import NocConfig
from repro.noc.network import DEFAULT_REGION_BYTES, NocNetwork
from repro.traffic.uniform import uniform_random
from test_properties import network_state


def submit(net, src, dst, nbytes, offset=0, is_read=False):
    net.dmas[src].submit(Transfer(
        src=src, addr=net.addr_of(dst, offset), nbytes=nbytes,
        is_read=is_read))


def read(src, dst, nbytes, offset=0):
    """A :func:`both` transfer that reads ``dst`` into ``src``."""
    return (src, dst, nbytes, offset, True)


def both(cfg, *transfers, **net_kwargs):
    """The production network and the per-beat oracle, same transfers
    (writes, unless made by :func:`read`)."""
    nets = (NocNetwork(cfg, **net_kwargs),
            NocNetwork(cfg, always_step=True, **net_kwargs))
    for net in nets:
        for args in transfers:
            submit(net, *args)
    return nets


def saturated(cap, cfg=None, **net_kwargs):
    net = NocNetwork(cfg or NocConfig.slim(), **net_kwargs)
    uniform_random(net, load=1.0, max_burst_bytes=cap, seed=1).install()
    return net


# ----------------------------------------------------------------------
# where trains fire, and where they must not
# ----------------------------------------------------------------------
def test_trains_carry_the_long_bursts_of_a_saturated_slim_mesh():
    net, ref = saturated(64000), saturated(64000, always_step=True)
    net.run(3000)
    ref.run(3000)
    assert network_state(net) == network_state(ref)
    stats = net.kernel_stats()
    assert set(stats) == {"steps", "cycles_skipped", "trains",
                          "train_beats", "r_trains", "r_train_beats",
                          "train_probes"}
    delivered = sum(m.link.w.popped for m in net.memories)
    read = sum(d.link.r.popped for d in net.dmas)
    assert stats["trains"] > 0 and stats["r_trains"] > 0
    assert stats["train_beats"] >= 0.9 * delivered
    assert stats["r_train_beats"] >= 0.9 * read
    assert stats["steps"] < ref.kernel_stats()["steps"] / 5
    # (probes are counted over both directions)
    assert stats["train_probes"] < 6 * (stats["trains"] + stats["r_trains"])


@pytest.mark.parametrize("build", [
    lambda: saturated(4),
    lambda: saturated(64000, always_step=True),
    # A degraded link re-times W heads on a locked path: per beat.
    lambda: saturated(64000, faults=FaultSpec(
        links=[LinkFault(5, 6, width_factor=0.5)]), fault_seed=1),
], ids=["cap4", "always_step", "degraded"])
def test_no_train_fires_where_none_can(build):
    net = build()
    net.run(3000)
    stats = net.kernel_stats()
    assert stats["trains"] == stats["train_beats"] == 0
    assert stats["r_trains"] == stats["r_train_beats"] == 0
    assert stats["train_probes"] == 0


def test_an_armed_network_keeps_its_reads_per_beat():
    """Lost, mangled and corrupted responses act on R beats: under the
    mildest spec that instantiates a fault controller, W bursts still
    ride trains and R bursts never do."""
    faults = dict(faults=FaultSpec(corrupt_rate=1e-9), fault_seed=1)
    net, ref = saturated(64000, **faults), saturated(
        64000, always_step=True, **faults)
    net.run(2000)
    ref.run(2000)
    assert network_state(net) == network_state(ref)
    stats = net.kernel_stats()
    assert stats["trains"] > 0
    assert stats["r_trains"] == stats["r_train_beats"] == 0


@pytest.mark.parametrize("cap, faults", [
    (1000, FaultSpec(
        links=[dict(src=5, dst=6, start=500, duration=1000),
               dict(src=6, dst=5, start=500, duration=1000)],
        corrupt_rate=2e-4, txn_timeout=900, recovery="retransmit",
        response_faults=True)),
    (64000, FaultSpec(corrupt_rate=1e-9)),
], ids=["faulted", "armed_long_bursts"])
def test_trains_ride_an_armed_fabric(cap, faults):
    """The benchmark's armed AXI point (`faulted`, writes only: dead
    links, corruption, retransmission, lost responses and the watchdog),
    and long bursts under the mildest spec that instantiates a
    controller: dead links fail at admission, the rest acts on B/R beats
    or decoded heads, and a granted W burst crosses as it would unarmed
    — as a train."""
    pair = []
    for always_step in (False, True):
        net = NocNetwork(NocConfig.slim(), always_step=always_step,
                         faults=faults, fault_seed=1)
        traffic = uniform_random(net, load=1.0, max_burst_bytes=cap,
                                 read_fraction=0.0, seed=1)
        pair.append((net, traffic.install()))
    (net, traffic), (ref, ref_traffic) = pair
    for _ in range(3):
        net.run(1000)
        ref.run(1000)
        assert network_state(net) == network_state(ref)
        assert net.fault_report() == ref.fault_report()
    assert net.kernel_stats()["trains"] > 0
    traffic.quiesce()
    ref_traffic.quiesce()
    assert net.drain() == ref.drain()
    assert network_state(net) == network_state(ref)
    assert net.fault_report() == ref.fault_report()


def test_a_corrupted_train_credits_no_byte():
    """A burst the memory marked corrupt on its AW still rides a train;
    like the per-beat accept, the train credits none of its payload."""
    net, ref = both(NocConfig.slim(2, 2), (0, 3, 1024),
                    faults=FaultSpec(corrupt_rate=1.0), fault_seed=1)
    assert net.drain() == ref.drain()
    assert net.kernel_stats()["trains"] == 1
    assert net.memories[3].bytes_written == ref.memories[3].bytes_written == 0
    assert network_state(net) == network_state(ref)


def test_a_burst_needs_sixteen_middle_beats_left_after_the_third():
    """19 beats: 16 remain after the third and the last is not a middle
    beat — not probed.  40 beats: one train."""
    cfg = NocConfig.wide(2, 2)
    for beats, trains in ((19, 0), (40, 1)):
        net, ref = both(cfg, (0, 1, beats * cfg.beat_bytes))
        assert net.drain() == ref.drain()
        stats = net.kernel_stats()
        assert stats["trains"] == trains
        assert bool(stats["train_probes"]) == bool(trains)
        assert network_state(net) == network_state(ref)


def test_back_to_back_bursts_each_ride_their_own_train():
    """The four bursts of an unaligned 4 KiB write stream without a gap:
    while a burst's first beat and its predecessor's last are still on
    the path every FIFO already moves a beat a cycle, but the far
    crossbars are locked to the predecessor — only ``is _mid`` says so."""
    net, ref = both(NocConfig.slim(2, 2), (0, 3, 4096, 2))
    assert net.drain() == ref.drain()
    assert net.kernel_stats()["trains"] == 4
    assert network_state(net) == network_state(ref)


# ----------------------------------------------------------------------
# R trains: the memory holds the burst, the DMA sinks it
# ----------------------------------------------------------------------
def test_a_one_hop_read_trains():
    net, ref = both(NocConfig.slim(2, 2), read(0, 1, 1024))
    assert net.drain() == ref.drain()
    stats = net.kernel_stats()
    assert stats["r_trains"] == 1 and stats["trains"] == 0
    assert stats["r_train_beats"] > 0.9 * 256
    assert network_state(net) == network_state(ref)


def test_sixteen_engines_reading_one_memory_train_once_per_burst():
    """Fig. 8's par shape: every core pulls from one memory.  It serves
    its R jobs in order, and every ingress on the way answers reads of
    that memory only, so each 64-beat burst rides one train."""
    net, ref = both(NocConfig.wide(4, 4),
                    *(read(src, 0, 16384) for src in range(16)))
    assert net.drain() == ref.drain()
    assert network_state(net) == network_state(ref)
    stats = net.kernel_stats()
    assert stats["r_trains"] == net.memories[0].bursts_read == 64
    assert stats["steps"] < ref.kernel_stats()["steps"] / 10


def test_a_read_owed_from_another_egress_refuses_the_freeze():
    """Engine 0 reads a word from the far corner, then 1 KiB from its
    neighbour.  Until the word is back, xp0 owes the engine's ingress a
    response from another egress than the stream's: no train, though
    without the word one froze long before it returned."""
    cfg = NocConfig.slim(4, 4).with_(hop_latency=3)
    alone, _ = both(cfg, read(0, 1, 1024))
    alone.drain()
    net, ref = both(cfg)
    done = []
    for n in (net, ref):
        n.dmas[0].submit(Transfer(src=0, addr=n.addr_of(15), nbytes=4,
                                  is_read=True, on_complete=done.append))
        submit(n, *read(0, 1, 1024))
    assert net.drain() == ref.drain()
    assert network_state(net) == network_state(ref)
    train = net.memories[1]._train
    assert train.trains == 1
    assert alone.memories[1]._train.start < done[0] < train.start


@pytest.mark.parametrize("addr, cut", [
    (lambda net: net.addr_of(15), True),
    (lambda net: 16 * DEFAULT_REGION_BYTES, True),  # decodes nowhere
    (lambda net: net.addr_of(1, 2048), False),
], ids=["other_egress", "terminated", "same_egress"])
def test_a_read_started_on_the_ingress_mid_train_cuts_it_exactly(addr, cut):
    """Engine 0 starts a second read while its stream from memory 1
    rides a train.  Granted toward another egress of xp0, or terminated
    there, its response could compete for the train's ingress: the
    train ends on the cycle xp0 takes the AR.  Toward the train's own
    egress it queues behind the stream at the memory: the train runs
    on."""
    net, ref = both(NocConfig.slim(4, 4).with_(hop_latency=3),
                    read(0, 1, 1024))
    for n in (net, ref):
        n.sim.run(60)
        n.dmas[0].submit(Transfer(src=0, addr=addr(n), nbytes=4,
                                  is_read=True))
    train = net.memories[1]._train
    assert train.saved is not None
    ar = net.dmas[0].link.ar
    while ar.popped < 2:
        net.sim.run(1)  # bare: only the crossbar may end the train
    taken = net.sim.now - 1
    if cut:
        assert train.saved is None
        assert train.start + train.beats == taken
    else:
        assert train.saved is not None
    net.run(0)
    ref.run(net.sim.now - ref.sim.now)
    assert network_state(net) == network_state(ref)
    assert net.drain() == ref.drain()
    assert network_state(net) == network_state(ref)


# ----------------------------------------------------------------------
# probe pairs that must fail
# ----------------------------------------------------------------------
def test_a_bubble_every_other_cycle_never_trains():
    """A memory W channel of capacity 1 halves the rate: the pipeline is
    periodic with period two, never a fixed point.  The back-off keeps
    the probes few."""
    nets = both(NocConfig.slim(2, 2), (0, 1, 1024))
    for net in nets:
        net.memories[1].link.w.capacity = 1
    net, ref = nets
    assert net.drain() == ref.drain()
    stats = net.kernel_stats()
    assert stats["trains"] == 0
    assert 0 < stats["train_probes"] < 30
    assert network_state(net) == network_state(ref)


def test_a_first_beat_still_in_flight_delays_the_train():
    """Corner to corner at hop latency 3 the first beat is still on its
    way when the third goes out: the first pairs fail, the train starts
    later and carries less than on the one-hop path."""
    cfg = NocConfig.slim(4, 4).with_(hop_latency=3)
    near, _ = both(cfg, (0, 0, 1024))
    far, ref = both(cfg, (0, 15, 1024))
    near.drain()
    assert far.drain() == ref.drain()
    near, far = near.kernel_stats(), far.kernel_stats()
    assert near["trains"] == far["trains"] == 1
    assert near["train_probes"] == 2 < far["train_probes"]
    assert far["train_beats"] < near["train_beats"]


def test_a_path_not_yet_locked_at_the_last_hop_waits_its_turn():
    """Three engines write one memory: the last crossbar's W mux serves
    them one burst at a time, and a burst trains only once it is its."""
    net, ref = both(NocConfig.slim(2, 2),
                    (1, 0, 1024), (2, 0, 1024), (3, 0, 1024))
    assert net.drain() == ref.drain()
    assert network_state(net) == network_state(ref)
    trains = sorted((dma._train for dma in net.dmas[1:]),
                    key=lambda train: train.start)
    assert [train.trains for train in trains] == [1, 1, 1]
    for earlier, later in zip(trains, trains[1:]):
        assert earlier.start + earlier.beats < later.start
        assert later.probes > 2


# ----------------------------------------------------------------------
# no train outlives the run() that started it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("dst", [0, 3],
                         ids=["memory_steps_first", "memory_steps_last"])
def test_runs_cut_across_a_train_equal_one_run(dst, chunk):
    """``run(chunk)`` × N ends every train it starts, between two
    cycles; each boundary reads like the oracle's, and the end like a
    single ``run(N)``."""
    cfg = NocConfig.slim(2, 2).with_(hop_latency=2)
    net, ref = both(cfg, (1, dst, 1024, 3))
    whole, _ = both(cfg, (1, dst, 1024, 3))
    net.set_warmup(100)
    ref.set_warmup(100)
    whole.set_warmup(100)
    for _ in range(0, 280, chunk):
        net.run(chunk)
        ref.run(chunk)
        assert network_state(net) == network_state(ref)
    whole.run(net.sim.now)
    assert network_state(net) == network_state(whole)
    assert net.kernel_stats()["trains"] > whole.kernel_stats()["trains"] == 1


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("src", [0, 3],
                         ids=["dma_steps_first", "dma_steps_last"])
def test_runs_cut_across_an_r_train_equal_one_run(src, chunk):
    """The same for a read of memory 1, whose engine takes the beats
    before or after the memory pushes them within a cycle."""
    cfg = NocConfig.slim(2, 2).with_(hop_latency=2)
    net, ref = both(cfg, read(src, 1, 1024, 3))
    whole, _ = both(cfg, read(src, 1, 1024, 3))
    for n in (net, ref, whole):
        n.set_warmup(100)
    for _ in range(0, 280, chunk):
        net.run(chunk)
        ref.run(chunk)
        assert network_state(net) == network_state(ref)
    whole.run(net.sim.now)
    assert network_state(net) == network_state(whole)
    assert (net.kernel_stats()["r_trains"]
            > whole.kernel_stats()["r_trains"] == 1)


def test_links_conserve_beats_at_a_boundary_inside_a_train():
    net, ref = both(NocConfig.slim(2, 2), (0, 3, 1024))
    net.run(100)
    ref.run(100)
    train = net.dmas[0]._train
    assert train.trains == 1 and 0 < train.beats < 200  # cut short
    for link, ref_link in zip(net.links, ref.links):
        monitor = LinkMonitor(link)
        assert monitor.in_flight() == sum(
            ch.pushed - ch.popped for ch in link.channels())
        assert monitor.in_flight() == LinkMonitor(ref_link).in_flight()
        assert link.idle() == ref_link.idle()


def test_set_warmup_inside_a_train_splits_the_measured_bytes_there():
    net, ref = both(NocConfig.slim(2, 2), (0, 3, 1024))
    for n in (net, ref):
        n.sim.run(100)  # bare: the train stays open
        n.set_warmup(150)
        n.run(200)
    assert net.measured_bytes() == ref.measured_bytes() > 0
    assert net.measured_bytes() < net.total_bytes()


def test_set_warmup_inside_an_r_train_splits_the_read_bytes_there():
    net, ref = both(NocConfig.slim(2, 2), read(0, 3, 1024))
    for n in (net, ref):
        n.sim.run(100)  # bare: the train stays open
        n.set_warmup(150)
        n.run(200)
    assert net.kernel_stats()["r_trains"] == 2  # set_warmup ended one
    meters = [(d.read_meter.bytes_measured, d.read_meter.bytes_total)
              for d in net.dmas]
    assert meters == [(d.read_meter.bytes_measured, d.read_meter.bytes_total)
                      for d in ref.dmas]
    assert 0 < meters[0][0] < meters[0][1]


def test_per_link_result_and_energy_beats_are_unchanged(monkeypatch):
    """What reads the channel counters — the per-link utilization of a
    Result, the energy model's beat count — sees every train's beats,
    at a write point and at a read point."""
    from repro.models.energy import EnergyMeter
    from repro.noc.trains import Train
    from repro.scenarios import (MeasureSpec, Scenario, TopologySpec,
                                 TrafficSpec)
    from repro.scenarios.run import _collect, _drive, build_network

    points = [Scenario(topology=TopologySpec.slim(),
                       traffic=TrafficSpec.uniform(
                           1.0, 64000, read_fraction=share),
                       measure=MeasureSpec(warmup=300, window=1500,
                                           per_link=True),
                       seed=5)
              for share in (0.0, 1.0)]

    def point(sc):
        net, scripts = build_network(sc)
        meter = EnergyMeter(net)
        meter.open_window()
        result = _collect(sc, net, _drive(sc, net, scripts))
        stats = net.kernel_stats()
        return (stats["trains"], stats["r_trains"]), result.to_dict(), \
            meter.report()

    trained = [point(sc) for sc in points]
    assert trained[0][0][0] > 0 and trained[1][0][1] > 0
    assert all(max(result["link_utilization"].values()) > 0
               for _, result, _ in trained)
    monkeypatch.setattr(Train, "holds", lambda self, stream, now: False)
    per_beat = [point(sc) for sc in points]
    assert [trains for trains, _, _ in per_beat] == [(0, 0), (0, 0)]
    assert ([result_energy for _, *result_energy in trained]
            == [result_energy for _, *result_energy in per_beat])


# ----------------------------------------------------------------------
# reports stay truthful
# ----------------------------------------------------------------------
def test_a_bare_sim_run_leaves_a_train_open_and_the_engine_says_so():
    net, ref = both(NocConfig.slim(2, 2), (0, 3, 1024))
    net.sim.run(100)
    ref.run(100)
    dma = net.dmas[0]
    assert dma._asleep_blocked
    assert f"W train until {dma._frozen_until}" in dma.blocked_on()
    assert network_state(net) != network_state(ref)  # beats in no FIFO
    net.run(0)
    assert "train" not in dma.blocked_on()
    assert network_state(net) == network_state(ref)
    assert net.drain() == ref.drain()
    assert network_state(net) == network_state(ref)


def test_a_bare_sim_run_leaves_an_r_train_open_and_the_memory_says_so():
    net, ref = both(NocConfig.slim(2, 2), read(0, 3, 1024))
    net.sim.run(100)
    ref.run(100)
    mem = net.memories[3]
    assert mem._asleep_blocked
    assert f"R train until {mem._frozen_until}" in mem.blocked_on()
    assert network_state(net) != network_state(ref)  # beats in no FIFO
    net.run(0)
    assert "train" not in mem.blocked_on()
    assert network_state(net) == network_state(ref)
    assert net.drain() == ref.drain()
    assert network_state(net) == network_state(ref)


def test_a_failed_drain_ends_its_trains_before_it_reports():
    net, ref = both(NocConfig.slim(2, 2), (0, 3, 1024))
    for n in (net, ref):
        with pytest.raises(RuntimeError, match="failed to drain"):
            n.drain(max_cycles=100)
    assert net.kernel_stats()["trains"] == 1
    assert network_state(net) == network_state(ref)
