"""``repro.sim.rng`` against numpy's ``default_rng``, its oracle.

The simulator's random streams are a pure-Python SeedSequence + PCG64 +
``Generator`` (DESIGN.md §10, rule 2).  numpy is imported here and
nowhere in ``src/repro``: every spawn, state and draw must be
bit-identical to it, and every entry of the exponential ziggurat's
tables is proven by probing numpy with chosen raw draws.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.faults.runtime import FAULT_SALT, fault_rngs
from repro.sim.rng import DEFAULT_SEED, Generator, spawn_rngs
from repro.sim.ziggurat import FE, KE, WE

M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645
INV_MULT = pow(MULT, -1, 1 << 128)
SEEDS = (0, 1, 2**31 - 1, 2**40 + 3)
#: Range edges, plus one span per Lemire path that rejects a quarter of
#: its first draws (2**32 % (3 << 30) and 2**64 % (3 << 61) are 2**30 and
#: 2**62); at the edges a rejection is a 2**-32 event.
EDGES = (1, 2, 15, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3 << 30, 3 << 61)


def numpy_rngs(entropy, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(entropy).spawn(n)]


def state_of(g: np.random.Generator) -> tuple[int, int]:
    st = g.bit_generator.state["state"]
    return st["state"], st["inc"]


def assert_same_streams(ours: list[Generator],
                        theirs: list[np.random.Generator]) -> None:
    assert len(ours) == len(theirs)
    for o, t in zip(ours, theirs):
        assert (o._state, o._inc) == state_of(t)
        for _ in range(8):
            assert o.integers(37) == t.integers(37)
            assert o.random() == t.random()
            assert o.exponential(2.5) == t.exponential(2.5)
        assert (o._state, o._inc) == state_of(t)


# -- spawning -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 16, 17])
@pytest.mark.parametrize("seed", SEEDS)
def test_spawned_streams_match_numpy(seed, n):
    assert_same_streams(spawn_rngs(seed, n), numpy_rngs(seed, n))


@pytest.mark.parametrize("n", [1, 16, 17])
@pytest.mark.parametrize("seed", SEEDS)
def test_salted_fault_streams_match_numpy(seed, n):
    assert_same_streams(fault_rngs(seed, n), numpy_rngs([seed, FAULT_SALT], n))


def test_no_seed_is_the_default_seed():
    assert_same_streams(spawn_rngs(None, 3), numpy_rngs(DEFAULT_SEED, 3))
    assert_same_streams(fault_rngs(None, 3),
                        numpy_rngs([DEFAULT_SEED, FAULT_SALT], 3))


def test_bad_spawns_are_refused():
    with pytest.raises(ValueError, match="cannot spawn -1"):
        spawn_rngs(1, -1)
    with pytest.raises(ValueError, match="non-negative"):
        spawn_rngs(-1, 1)
    assert spawn_rngs(1, 0) == []


# -- draws --------------------------------------------------------------

@pytest.mark.parametrize("n", EDGES)
def test_integers_at_range_edges_match_numpy(n):
    """Both forms, the 32-bit (buffered half) and 64-bit Lemire paths,
    the full-width shortcuts and the empty span, interleaved with
    64-bit draws that must leave the buffered half alone."""
    [ours], [theirs] = spawn_rngs(5, 1), numpy_rngs(5, 1)
    for _ in range(300):
        assert ours.integers(n) == theirs.integers(n)
        assert ours.integers(7, 7 + n) == theirs.integers(7, 7 + n)
        assert ours.integers(-3, -3 + n) == theirs.integers(-3, -3 + n)
        assert ours.random() == theirs.random()
        assert ours.integers(15) == theirs.integers(15)
    assert (ours._state, ours._inc) == state_of(theirs)


def test_an_empty_range_is_refused_like_numpy():
    [ours], [theirs] = spawn_rngs(1, 1), numpy_rngs(1, 1)
    for args in ((0,), (5, 5), (5, 4)):
        with pytest.raises(ValueError):
            theirs.integers(*args)
        with pytest.raises(ValueError, match="empty range"):
            ours.integers(*args)


def test_random_matches_numpy():
    [ours], [theirs] = spawn_rngs(2, 1), numpy_rngs(2, 1)
    assert [ours.random() for _ in range(20_000)] == \
        theirs.random(20_000).tolist()


def test_exponential_matches_numpy_over_a_million_draws():
    """Every draw and the final state; the rare branches are counted
    from our state's advance (a draw that takes more than one raw value
    left its rectangle) and the oracle's raw stream (layer 0 is the
    tail), and each must occur."""
    n = 1_000_000
    [ours], [theirs] = spawn_rngs(3, 1), numpy_rngs(3, 1)
    raw = np.random.PCG64()
    raw.state = theirs.bit_generator.state
    raws = raw.random_raw(n + n // 8).tolist()
    expected = theirs.exponential(2.5, n).tolist()
    state, inc = ours._state, ours._inc
    out = []
    pos = tail = wedge = 0
    for _ in range(n):
        out.append(ours.exponential(2.5))
        taken = 1
        state = (state * MULT + inc) & M128
        while state != ours._state:
            state = (state * MULT + inc) & M128
            taken += 1
        if taken > 1:
            if raws[pos] >> 3 & 0xFF == 0:
                tail += 1
            else:
                wedge += 1
        pos += taken
    assert out == expected
    assert (ours._state, ours._inc) == state_of(theirs)
    assert tail > 0 and wedge > 0, (tail, wedge)


# -- the ziggurat's tables, entry by entry --------------------------------

def _emitting(v: int, hi: int) -> int:
    """A PCG64 state whose XSL-RR output is ``v``: the rotation is the
    state's top six bits, the low word makes ``hi ^ lo`` rotate to v."""
    rot = hi >> 58
    return hi << 64 | (((v << rot | v >> (64 - rot)) & M64) ^ hi)


def state_for(first: int, second: int | None = None) -> tuple[int, int]:
    """``(state, inc)`` from which PCG64's next raw draws are ``first``
    (and ``second``): the increment is free, so it carries the first
    post-step state to the second; flipping the second's low bit makes
    it odd.  Stepping back with the inverse multiplier gives the start."""
    s1 = _emitting(first, 0xB7E151628AED2A6A)
    inc = 0x5851F42D4C957F2D14057B7EF767814F
    if second is not None:
        for hi in (0x9E3779B97F4A7C15, 0x9E3779B97F4A7C14):
            inc = (_emitting(second, hi) - s1 * MULT) & M128
            if inc & 1:
                break
    return (s1 - inc) * INV_MULT & M128, inc


class Probe:
    """One exponential draw from a chosen state, by numpy and by us."""

    def __init__(self):
        self.bits = np.random.PCG64()
        self.numpy = np.random.Generator(self.bits)

    def numpy_draw(self, state: int, inc: int) -> tuple[float, int]:
        self.bits.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
        return self.numpy.standard_exponential(), state_of(self.numpy)[0]

    def takes(self, state: int, inc: int) -> int:
        """Raw draws numpy's exponential takes from ``state`` (capped
        at 3: a third means the wedge rejected)."""
        end = self.numpy_draw(state, inc)[1]
        for taken in (1, 2):
            state = (state * MULT + inc) & M128
            if state == end:
                return taken
        return 3

    def agree(self, state: int, inc: int) -> None:
        """Our draw from the same state: same value, same end state."""
        ours = Generator(state, inc)
        assert (ours.exponential(), ours._state) == \
            self.numpy_draw(state, inc)


def _draw(ri: int, layer: int) -> int:
    return (ri << 8 | layer) << 3


def _smallest(lo: int, hi: int, pred) -> int:
    """The smallest x in [lo, hi) with pred(x), pred monotone."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_every_KE_entry_is_where_numpy_leaves_the_rectangle():
    probe = Probe()
    for layer in range(256):
        ke = _smallest(0, 1 << 53, lambda ri: probe.takes(
            *state_for(_draw(ri, layer), 0)) > 1)
        assert KE[layer] == ke, layer
        for ri in (ke - 1, ke):
            if ri >= 0:
                probe.agree(*state_for(_draw(ri, layer), 1 << 52))


def test_every_WE_entry_is_numpy_s_layer_width():
    """``ri = 1`` returns ``WE[i]`` itself: from the rectangle, or for
    the layer whose rectangle is empty from its wedge at ``u = 0``.
    Layer 0's tail is checked at three ``u``."""
    probe = Probe()
    for layer in range(256):
        state, inc = state_for(_draw(1, layer), 0)
        assert probe.numpy_draw(state, inc)[0] == WE[layer], layer
        probe.agree(state, inc)
    for k in (0, 1 << 52, (1 << 53) - 1):
        probe.agree(*state_for(_draw((1 << 53) - 1, 0), k << 11))


def test_every_FE_entry_is_where_numpy_s_wedges_accept():
    """Each wedge ``i`` accepts ``x`` while ``(FE[i-1] - FE[i]) * u +
    FE[i] < exp(-x)``: bisect numpy's boundary in ``u`` at three ``x``
    across the wedge, and draw on both sides of it."""
    probe = Probe()
    for layer in range(1, 256):
        for frac in (1, 2, 3):
            ri = KE[layer] + ((1 << 53) - KE[layer]) * frac // 4
            first = _draw(ri, layer)
            assert probe.takes(*state_for(first, 0)) == 2, layer
            k = _smallest(0, 1 << 53, lambda k: probe.takes(
                *state_for(first, k << 11)) == 3)
            assert 0 < k < 1 << 53, layer
            probe.agree(*state_for(first, (k - 1) << 11))
            probe.agree(*state_for(first, k << 11))


# -- a run imports no numpy -------------------------------------------------

NO_NUMPY_RUN = r"""
import json, sys
sys.modules["numpy"] = None          # any import of numpy now fails
from repro.scenarios import Scenario
from repro.scenarios.run import run_scenario
out = [run_scenario(Scenario.from_dict(point)).to_dict()
       for point in json.loads(sys.argv[1])]
print(json.dumps(out))
"""

#: An armed AXI point (retransmit, response faults, a Poisson link-fault
#: process and corruption), the stuck-VC mesh point and ``dnn:par``, at
#: tiny windows.
NO_NUMPY_POINTS = [
    {"topology": {"backend": "patronoc", "rows": 4, "cols": 4},
     "traffic": {"kind": "uniform", "load": 1.0, "max_burst_bytes": 1000},
     "measure": {"warmup": 200, "window": 1500},
     "faults": {"recovery": "retransmit", "response_faults": True,
                "txn_timeout": 900, "corrupt_rate": 2e-4,
                "link_rate": 2e-3, "link_duration": 300},
     "seed": 1},
    {"topology": {"backend": "baseline", "rows": 4, "cols": 4,
                  "n_vcs": 2, "buf_depth": 8},
     "traffic": {"kind": "uniform", "load": 0.3, "max_burst_bytes": 1000},
     "measure": {"warmup": 200, "window": 1500},
     "faults": {"stuck_vcs": [{"node": 5, "port": 1, "vc": 0,
                               "start": 300, "duration": 600}],
                "corrupt_rate": 1e-3, "link_rate": 2e-3,
                "link_duration": 300},
     "seed": 1},
    {"topology": {"backend": "patronoc", "rows": 4, "cols": 4},
     "traffic": {"kind": "dnn", "workload": "par"},
     "measure": {"warmup": 200, "window": 1500},
     "seed": 1},
]


def test_a_run_imports_no_numpy():
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RUN, json.dumps(NO_NUMPY_POINTS)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    axi, mesh, dnn = json.loads(proc.stdout)
    for faults in (axi["faults"], mesh["faults"]):
        assert faults["link_faults"] > 0 and faults["corrupted"] > 0
    assert axi["faults"]["retransmissions"] > 0
    assert mesh["faults"]["vc_faults"] == 1
    assert dnn["throughput_gib_s"] > 0
