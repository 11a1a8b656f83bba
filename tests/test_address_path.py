"""The AXI address path: what the scheduler oracle cannot see.

The crossbar's AW/AR request masks, the DMA's issue gate and the traffic
source's backlog-cap sleep all live in the one ``step()`` body each
component has, so ``always_step=True`` skips exactly the calls the
production scheduler skips and the equivalence properties
(``tests/test_properties.py``) cannot catch a gate that is not exact.
Two things can:

* a golden recorded at the commit *before* the gates existed
  (``tests/golden/address_path_pr16.json``; ``python
  tests/test_address_path.py`` prints what this checkout produces, which
  is how the file was made at ``534750a``), holding every stall counter,
  the offered load, each DMA's latency histogram and the fault report
  under both schedulers;
* the saving itself as exact call counts, under counting wrappers.
"""

import hashlib
import json
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.beats import AddrBeat, BBeat, RBeat, WBeat
from repro.axi.link import AxiLink
from repro.axi.xbar import AxiCrossbar
from repro.endpoints.dma import DmaEngine
from repro.faults import FaultSpec
from repro.noc.config import NocConfig
from repro.noc.network import NocNetwork
from repro.sim.kernel import Component, Simulator
from repro.traffic.base import RandomTraffic
from repro.traffic.dnn.workloads import WORKLOADS
from repro.traffic.synthetic import (
    PATTERNS,
    build_synthetic_network,
    synthetic_traffic,
)
from repro.traffic.uniform import uniform_random

GOLDEN = Path(__file__).parent / "golden" / "address_path_pr16.json"
SEED = 11

#: The benchmark's ``faulted`` AXI point with its windows scaled to a
#: 4000-cycle run: dead over [600, 1800), every recovery arm live.
_DEAD = [{"src": s, "dst": d, "start": 600, "duration": 1200}
         for s, d in ((5, 6), (6, 5))]
_FAULTED = FaultSpec(links=_DEAD, corrupt_rate=2e-4, txn_timeout=900,
                     recovery="retransmit", response_faults=True)

#: name -> (kind, config, cycles, traffic arguments)
POINTS = {
    "cap4": ("uniform", NocConfig.slim(), 3000,
             dict(load=1.0, max_burst_bytes=4, read_fraction=0.0)),
    "cap100_load0.6": ("uniform", NocConfig.slim(), 3000,
                       dict(load=0.6, max_burst_bytes=100,
                            read_fraction=0.0)),
    "all_global_cap100": ("all_global", NocConfig.slim(), 3000,
                          dict(load=1.0, max_burst_bytes=100,
                               read_fraction=0.5)),
    "wide_one_hop": ("one_hop", NocConfig.wide(), 3000,
                     dict(load=1.0, max_burst_bytes=64000,
                          read_fraction=0.5)),
    "dnn_par": ("par", NocConfig.wide(), 4000, {}),
    "faulted": ("uniform", NocConfig.slim(), 4000,
                dict(load=1.0, max_burst_bytes=1000, read_fraction=0.0,
                     faults=_FAULTED)),
    "id_starved": ("uniform", NocConfig(id_width=1), 3000,
                   dict(load=1.0, max_burst_bytes=100, read_fraction=0.5)),
}


def build(name: str, always_step: bool):
    """(network, traffic source or None) for one point, installed."""
    kind, cfg, _cycles, args = POINTS[name]
    args = dict(args)
    net_kwargs = dict(always_step=always_step, faults=args.pop("faults", None),
                      fault_seed=SEED)
    if kind == "par":
        workload = WORKLOADS[kind](cfg, shrink=0.95, input_hw=112)
        net = workload.build_network(cfg, **net_kwargs)
        workload.install(net)
        return net, None
    if kind == "uniform":
        net = NocNetwork(cfg, **net_kwargs)
        source = uniform_random(net, seed=SEED, **args)
    else:
        net, _slaves = build_synthetic_network(cfg, PATTERNS[kind],
                                               **net_kwargs)
        source = synthetic_traffic(net, PATTERNS[kind], seed=SEED, **args)
    return net, source.install()


class XbarBench(Component):
    """Seeded masters and slow slaves around one 4x3 crossbar: what a
    DMA-driven mesh never does — masters reuse two ids towards changing
    egresses, one egress is hot, some requests decode nowhere — so the
    same-ID rule, ``aw_order_full``, the MOT and ID stalls and the DECERR
    path all fire.  Every beat that leaves the crossbar is logged."""

    N_IN, N_OUT = 4, 3

    def __init__(self, always_step: bool, priorities=None):
        self.sim = Simulator(activity=not always_step)
        self.xbar = AxiCrossbar(
            "dut", self.N_IN, self.N_OUT, lambda beat, i: beat.dest,
            id_width=1, max_outstanding=3, w_order_depth=2,
            priorities=priorities)
        self.ups = [self.xbar.connect_in(i, AxiLink(f"up{i}"))
                    for i in range(self.N_IN)]
        self.downs = [self.xbar.connect_out(j, AxiLink(f"down{j}"))
                      for j in range(self.N_OUT)]
        self.rng = random.Random(SEED)
        self.w_owed = [deque() for _ in self.ups]
        self.w_open = [deque() for _ in self.downs]
        self.b_due = [deque() for _ in self.downs]
        self.r_due = [deque() for _ in self.downs]
        self.log: list = []
        self.sim.add(self)
        self.sim.add(self.xbar)

    def _request(self, src: int) -> AddrBeat:
        rng = self.rng
        beats = rng.randint(1, 3)
        dest = rng.choice((0, 1, 2, 2, 2, -1))  # 2 is hot, -1 is DECERR
        return AddrBeat(rng.randrange(2), 0x1000 * (dest + 1), beats,
                        4 * beats, dest, src)

    def step(self, now: int) -> bool:
        rng, log = self.rng, self.log
        for i, up in enumerate(self.ups):
            owed = self.w_owed[i]
            if rng.random() < 0.5 and up.aw.can_push():
                beat = self._request(i)
                up.aw.push(beat, now)
                owed.append(beat.beats)
            if owed and up.w.can_push():
                owed[0] -= 1
                up.w.push(WBeat(owed[0] == 0, 4), now)
                if owed[0] == 0:
                    owed.popleft()
            if rng.random() < 0.5 and up.ar.can_push():
                up.ar.push(self._request(i), now)
            for tag, fifo in (("b", up.b), ("r", up.r)):
                beat = fifo.peek(now)
                if rng.random() < 0.8 and beat is not None:
                    fifo.pop(now)
                    log.append((tag, now, i, beat.id, int(beat.resp)))
        for j, down in enumerate(self.downs):
            w_open, b_due, r_due = self.w_open[j], self.b_due[j], self.r_due[j]
            if rng.random() < 0.6 and down.aw.peek(now) is not None:
                aw = down.aw.pop(now)
                w_open.append([aw.id, aw.beats])
                log.append(("aw", now, j, aw.src, aw.id))
            if w_open and down.w.peek(now) is not None:
                w = down.w.pop(now)
                w_open[0][1] -= 1
                assert w.last == (w_open[0][1] == 0)
                if w.last:
                    b_due.append(w_open.popleft()[0])
            if rng.random() < 0.7 and b_due and down.b.can_push():
                down.b.push(BBeat(b_due.popleft()), now)
            if rng.random() < 0.6 and down.ar.peek(now) is not None:
                ar = down.ar.pop(now)
                r_due.append([ar.id, ar.beats])
                log.append(("ar", now, j, ar.src, ar.id))
            if r_due and down.r.can_push():
                r_due[0][1] -= 1
                down.r.push(RBeat(r_due[0][0], r_due[0][1] == 0, 4), now)
                if r_due[0][1] == 0:
                    r_due.popleft()
        return False

    def observe(self) -> dict:
        self.sim.run(3000)
        log = json.dumps(self.log).encode()
        return {"counters": dict(sorted(self.xbar.counters.as_dict().items())),
                "beats_logged": len(self.log),
                "log_sha256": hashlib.sha256(log).hexdigest()}


XBAR_POINTS = {"xbar_round_robin": None, "xbar_qos": [0, 1, 1, 2]}
ALL_POINTS = sorted([*POINTS, *XBAR_POINTS])


def observe(name: str, always_step: bool) -> dict:
    if name in XBAR_POINTS:
        return XbarBench(always_step, XBAR_POINTS[name]).observe()
    net, source = build(name, always_step)
    net.run(POINTS[name][2])
    return {
        "counters": dict(sorted(net.counters.as_dict().items())),
        "offered": (None if source is None else
                    [source.offered_transfers, source.offered_bytes]),
        "transfers_completed": net.transfers_completed(),
        "total_bytes": net.total_bytes(),
        "latency": [[d.latency_stats.count, d.latency_stats.max,
                     d.latency_stats._hist]
                    for d in net.dmas if d is not None],
        "faults": net.fault_report(),
    }


@pytest.mark.parametrize("always_step", [False, True],
                         ids=["production", "always_step"])
@pytest.mark.parametrize("name", ALL_POINTS)
def test_address_path_matches_the_golden_recorded_before_the_gates(
        name, always_step):
    golden = json.loads(GOLDEN.read_text())[name]
    # Through JSON, so tuples and float latencies compare as recorded.
    assert json.loads(json.dumps(observe(name, always_step))) == golden


def test_golden_points_exercise_the_stalls_they_pin():
    """The golden is only worth its bytes if the counted stalls, the
    recovery arms and the ID-starved path actually fire in it."""
    golden = json.loads(GOLDEN.read_text())
    fired = {key for point in golden.values()
             for key, n in point["counters"].items() if n}
    assert {"aw_same_id_stall", "ar_same_id_stall", "aw_id_stall",
            "ar_id_stall", "dma_wr_mot_stall", "dma_rd_mot_stall",
            "slverr_b"} <= fired
    assert golden["faulted"]["faults"]["retransmissions"] > 0
    assert golden["faulted"]["faults"]["orphaned"] > 0


if __name__ == "__main__":
    print("{\n" + ",\n".join(
        f' "{name}": {json.dumps(observe(name, False), sort_keys=True)}'
        for name in ALL_POINTS) + "\n}")


# ----------------------------------------------------------------------
# (c) the mask pick is the list pick
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mask_pick_equals_list_pick_on_the_sorted_candidates(data):
    n_in = data.draw(st.integers(1, 8))
    mask = data.draw(st.integers(1, (1 << n_in) - 1))
    priorities = data.draw(st.none() | st.lists(
        st.integers(0, 3), min_size=n_in, max_size=n_in))
    xbar = AxiCrossbar("dut", n_in, 1, lambda beat, i: 0, id_width=4,
                       priorities=priorities)
    candidates = [i for i in range(n_in) if mask >> i & 1]
    for ptr in range(n_in):
        assert xbar._pick_mask(mask, ptr) == xbar._pick(candidates, ptr)


# ----------------------------------------------------------------------
# the saving, as exact counts
# ----------------------------------------------------------------------
def count_calls(monkeypatch, cls, method: str) -> list[int]:
    """Wrap ``cls.method`` to count its invocations in ``[n]``;
    ``_arbitrate_aw`` / ``_arbitrate_ar`` count the crossbar's
    ``_arbitrate`` calls on its write / read direction record."""
    calls = [0]
    record = {"_arbitrate_aw": "_wr", "_arbitrate_ar": "_rd"}.get(method)
    if record is not None:
        method = "_arbitrate"
    inner = getattr(cls, method)

    def counted(self, *args):
        if record is None or args[-1] is getattr(self, record):
            calls[0] += 1
        return inner(self, *args)

    monkeypatch.setattr(cls, method, counted)
    return calls


def saturated(cfg: NocConfig, cap: int, read_fraction: float = 0.0):
    """Load 1.0 for 3000 cycles under the production scheduler."""
    net = NocNetwork(cfg)
    uniform_random(net, load=1.0, max_burst_bytes=cap,
                   read_fraction=read_fraction, seed=3).install()
    net.run(3000)
    aw_grants = sum(link.aw.pushed for xp in net.xps
                    for link in xp.out_links if link is not None)
    issued = sum(d.link.aw.pushed + d.link.ar.pushed for d in net.dmas)
    return net, aw_grants, issued


def test_long_bursts_arbitrate_and_issue_only_when_something_can_move(
        monkeypatch):
    """Slim, cap 64000, writes: at the parent 9 570 ``_arbitrate_aw``
    calls for 124 grants and 6 429 ``_issue`` calls for 46 bursts — the
    rest found a W lock or the full FIFO of the cycle before."""
    arbitrations = count_calls(monkeypatch, AxiCrossbar, "_arbitrate_aw")
    issues = count_calls(monkeypatch, DmaEngine, "_issue")
    _net, aw_grants, issued = saturated(NocConfig.slim(), 64000)
    assert (aw_grants, issued) == (124, 46)
    assert arbitrations[0] <= 1.5 * aw_grants
    assert issues[0] <= 3 * issued


def test_reads_do_not_bring_the_futile_aw_calls_back(monkeypatch):
    """Wide, cap 64000, half reads: 21 683 ``_arbitrate_aw`` calls at
    the parent for 824 grants.  ``_arbitrate_ar`` has no W lock to hide
    behind: its calls get cheaper, not fewer, so they are not bounded
    here."""
    arbitrations = count_calls(monkeypatch, AxiCrossbar, "_arbitrate_aw")
    _net, aw_grants, _issued = saturated(NocConfig.wide(), 64000, 0.5)
    assert aw_grants == 824
    assert arbitrations[0] <= 1.5 * aw_grants


def test_source_sleeps_at_its_backlog_cap(monkeypatch):
    """Slim, cap 4, writes: every DMA queue sits at the cap, and the
    source steps only when an arrival is due or a queue has popped — at
    the parent it stepped on each of the 3 000 cycles and the run took
    48 991 component steps."""
    source_steps = count_calls(monkeypatch, RandomTraffic, "step")
    net, _aw_grants, _issued = saturated(NocConfig.slim(), 4)
    assert source_steps[0] < 600
    assert net.sim.steps < 48_991
