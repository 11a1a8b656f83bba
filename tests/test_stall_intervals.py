"""Stalls are intervals: what the scheduler oracle cannot see, again.

The crossbar's AR memo and the DMA's MOT/ID stall interval (DESIGN.md
§7 "Stalls are intervals") live in the one ``step()`` body each
component has, like the address-path gates before them
(``tests/test_address_path.py``), so ``always_step=True`` runs the same
code.  What holds them exact:

* a golden recorded at the commit *before* either existed
  (``tests/golden/stall_intervals_pr19.json``, made at ``16b6576``;
  ``python tests/golden/repin.py`` rewrites it): every counter on six
  many-to-one / MOT-bound points under both schedulers, read after each
  of three consecutive ``run()`` segments — so a read meets a DMA in the
  middle of a stall, where the cycles are not yet on the counter;
* the saving itself as exact call and step counts;
* the events that must defeat the crossbar memo, one by one.
"""

import json
from pathlib import Path

import pytest
from test_address_path import count_calls

from repro.axi.beats import AddrBeat
from repro.axi.link import AxiLink
from repro.axi.xbar import AxiCrossbar
from repro.endpoints.dma import DmaEngine
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.traffic.dnn.workloads import WORKLOADS
from repro.traffic.synthetic import (
    PATTERNS,
    build_synthetic_network,
    synthetic_traffic,
)
from repro.traffic.uniform import uniform_random

GOLDEN = Path(__file__).parent / "golden" / "stall_intervals_pr19.json"
SEED = 11

#: name -> (kind, config, the three run() segments, traffic arguments)
POINTS = {
    "train": ("train", NocConfig.wide(), (9000, 2500, 2500), {}),
    "par": ("par", NocConfig.wide(), (1500, 1500, 1500), {}),
    "wide_one_hop": ("one_hop", NocConfig.wide(), (1000, 1000, 1000),
                     dict(load=1.0, max_burst_bytes=64000,
                          read_fraction=0.5)),
    "all_global_cap100": ("all_global", NocConfig.slim(), (1000, 1000, 1000),
                          dict(load=1.0, max_burst_bytes=100,
                               read_fraction=0.5)),
    "id_starved": ("uniform", NocConfig(id_width=1), (1000, 1000, 1000),
                   dict(load=1.0, max_burst_bytes=100, read_fraction=0.5)),
    "mot2": ("uniform", NocConfig.slim().with_(max_outstanding=2),
             (1000, 1000, 1000),
             dict(load=1.0, max_burst_bytes=1000, read_fraction=0.5)),
}


def build(name: str, always_step: bool = False) -> NocNetwork:
    """The point's network with its traffic installed."""
    kind, cfg, _segments, args = POINTS[name]
    if kind in WORKLOADS:
        workload = WORKLOADS[kind](cfg, shrink=0.95, input_hw=112)
        net = workload.build_network(cfg, always_step=always_step)
        for script in workload.install(net):
            script.loop = kind != "train"  # one batch, as run_scenario
        return net
    if kind == "uniform":
        net = NocNetwork(cfg, always_step=always_step)
        uniform_random(net, seed=SEED, **args).install()
        return net
    net, _slaves = build_synthetic_network(cfg, PATTERNS[kind],
                                           always_step=always_step)
    synthetic_traffic(net, PATTERNS[kind], seed=SEED, **args).install()
    return net


def observe(name: str, always_step: bool) -> list[dict]:
    """What a reader sees after each of the point's run() segments."""
    net = build(name, always_step)
    seen = []
    for cycles in POINTS[name][2]:
        net.run(cycles)
        seen.append({
            "now": net.sim.now,
            "counters": dict(sorted(net.counters.as_dict().items())),
            "transfers_completed": net.transfers_completed(),
            "total_bytes": net.total_bytes(),
        })
    return seen


@pytest.mark.parametrize("always_step", [False, True],
                         ids=["production", "always_step"])
@pytest.mark.parametrize("name", sorted(POINTS))
def test_counters_match_the_golden_recorded_before_the_intervals(
        name, always_step):
    golden = json.loads(GOLDEN.read_text())[name]
    assert observe(name, always_step) == golden


def test_golden_points_exercise_the_stalls_they_pin():
    """Each stall the two gates replay must fire in the golden, and grow
    across the segment reads."""
    golden = json.loads(GOLDEN.read_text())
    for key in ("ar_mot_stall", "dma_rd_mot_stall", "dma_wr_mot_stall",
                "ar_id_stall"):
        assert any(segments[0]["counters"].get(key, 0)
                   < segments[1]["counters"].get(key, 0)
                   < segments[2]["counters"].get(key, 0)
                   for segments in golden.values()), key


def test_a_read_between_runs_meets_an_open_interval():
    """The segment boundaries of the golden fall inside DMA stalls under
    the production scheduler: the cycles slept so far are on the counter
    only because ``NocNetwork.run`` settles them."""
    net = build("mot2")
    net.run(POINTS["mot2"][2][0])
    asleep = [dma for dma in net.dmas if dma is not None
              and dma._stalled is not None and dma._asleep_blocked]
    assert asleep
    for dma in asleep:
        assert dma._stalled_since == net.sim.now  # settled up to here
        assert dma._stalled in dma.blocked_on()


# ----------------------------------------------------------------------
# the saving, as exact counts
# ----------------------------------------------------------------------
def test_train_arbitrates_reads_and_steps_engines_only_to_move_something(
        monkeypatch):
    """The first 14 000 cycles of Fig. 8's training batch, where 16
    cores pull the same weights from one L2.  At the parent: 16 594
    ``_arbitrate_ar`` calls for 375 grants (now 694 — the rest found the
    egress of the call before still closed), 33 094 DMA steps (now
    28 447) of which 4 667 moved nothing and asked to be stepped again
    (now none: an engine out of ids or MOT room sleeps)."""
    arbitrations = count_calls(monkeypatch, AxiCrossbar, "_arbitrate_ar")
    dma_steps = noop_polls = 0
    inner = DmaEngine.step

    def progress(dma):
        link = dma.link
        return (link.aw.pushed, link.w.pushed, link.ar.pushed,
                link.b.popped, link.r.popped, id(dma._cur),
                len(dma._pending))

    def counted(self, now):
        nonlocal dma_steps, noop_polls
        dma_steps += 1
        before = progress(self)
        retire = inner(self, now)
        if retire is False and progress(self) == before:
            noop_polls += 1
        return retire

    monkeypatch.setattr(DmaEngine, "step", counted)
    net = build("train")
    net.run(14_000)
    ar_grants = sum(link.ar.pushed for xp in net.xps
                    for link in xp.out_links if link is not None)
    assert ar_grants == 375
    assert arbitrations[0] <= 3 * ar_grants
    assert dma_steps < 30_000
    assert noop_polls == 0


# ----------------------------------------------------------------------
# what must defeat the crossbar memo
# ----------------------------------------------------------------------
class MemoBench:
    """A 2x2 crossbar with MOT 1 whose egress 0 has a read in flight and
    whose ingress 1 holds a second read for it: every AR arbitration is
    futile, and from the second step on it is replayed from the memo."""

    def __init__(self, monkeypatch):
        self.routes = {0: 0, 1: 1}
        self.xbar = AxiCrossbar(
            "dut", 2, 2, lambda beat, i: self.routes[beat.dest],
            id_width=2, max_outstanding=1)
        self.ups = [self.xbar.connect_in(i, AxiLink(f"up{i}"))
                    for i in range(2)]
        for j in range(2):
            self.xbar.connect_out(j, AxiLink(f"down{j}"))
        self.calls = count_calls(monkeypatch, AxiCrossbar, "_arbitrate_ar")
        self.ups[0].ar.push(AddrBeat(0, 0x0, 1, 4, 0, 0), 0)
        self.xbar.step(1)  # granted: egress 0 is at its MOT
        self.ups[1].ar.push(AddrBeat(0, 0x40, 1, 4, 0, 1), 1)
        self.now = 1
        assert self.step() == (1, 1)  # the futile call that leaves the memo
        assert self.step() == (0, 1)  # replayed: same stall, no call

    def step(self) -> tuple[int, int]:
        """One cycle: (``_arbitrate_ar`` calls, ``ar_mot_stall`` bumps)."""
        calls, stalls = self.calls[0], self.xbar.counters["ar_mot_stall"]
        self.now += 1
        assert self.xbar.step(self.now) is False  # a counted stall polls
        return (self.calls[0] - calls,
                self.xbar.counters["ar_mot_stall"] - stalls)


def test_the_memo_replays_until_an_ingress_changes(monkeypatch):
    bench = MemoBench(monkeypatch)
    assert [bench.step() for _ in range(5)] == [(0, 1)] * 5
    bench.ups[0].ar.push(AddrBeat(1, 0x80, 1, 4, 1, 0), bench.now)
    assert bench.step() == (1, 1)  # new occupancy mask: called, granted
    assert len(bench.xbar.out_links[1].ar) == 1
    assert bench.step() == (1, 1)  # ingress 1 alone again: a new memo
    assert bench.step() == (0, 1)


def test_a_route_swap_defeats_the_memo(monkeypatch):
    bench = MemoBench(monkeypatch)
    bench.routes[0] = 1  # the held head now decodes to the idle egress
    bench.xbar.routes_changed()
    assert bench.step() == (1, 0)
    assert len(bench.xbar.out_links[1].ar) == 1


def test_a_fault_blocked_egress_defeats_the_memo(monkeypatch):
    bench = MemoBench(monkeypatch)
    bench.xbar.set_fault_blocked(frozenset({0}))
    assert bench.step() == (1, 0)
    assert bench.xbar.counters["ar_fault_blocked"] == 1
