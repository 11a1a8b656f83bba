"""Tests for the AXI crossbar building block (standalone, no mesh)."""

import pytest

from repro.axi.beats import AddrBeat, BBeat, RBeat, WBeat
from repro.axi.link import AxiLink
from repro.axi.types import Resp
from repro.axi.xbar import (
    ERROR_PORT,
    AxiCrossbar,
    ConnectivityError,
    make_demux,
    make_mux,
)
from repro.sim.kernel import Simulator


def build_1x1(route=lambda beat, i: 0):
    """Minimal crossbar with one ingress and one egress, pre-wired."""
    xbar = AxiCrossbar("dut", 1, 1, route, id_width=4)
    up = AxiLink("up")
    down = AxiLink("down")
    xbar.connect_in(0, up)
    xbar.connect_out(0, down)
    sim = Simulator()
    sim.add(xbar)
    return xbar, up, down, sim


class TestBasicForwarding:
    def test_aw_and_w_forwarded(self):
        xbar, up, down, sim = build_1x1()
        up.aw.push(AddrBeat(3, 0x100, 2, 8, dest=0, src=0), sim.now)
        up.w.push(WBeat(False, 4), sim.now)
        sim.run(3)
        up.w.push(WBeat(True, 4), sim.now)
        sim.run(4)
        aw = down.aw.pop(sim.now)
        assert aw.addr == 0x100 and aw.beats == 2
        assert down.w.pop(sim.now).last is False
        assert down.w.pop(sim.now).last is True

    def test_ar_forwarded_and_id_remapped_consistently(self):
        xbar, up, down, sim = build_1x1()
        up.ar.push(AddrBeat(9, 0x40, 1, 4, dest=0, src=0), sim.now)
        sim.run(3)
        ar = down.ar.pop(sim.now)
        # Response with the remapped id returns with the original id.
        from repro.axi.beats import RBeat
        down.r.push(RBeat(ar.id, True, 4), sim.now)
        sim.run(3)
        r = up.r.pop(sim.now)
        assert r.id == 9
        assert xbar.idle()

    def test_b_response_restores_id(self):
        xbar, up, down, sim = build_1x1()
        up.aw.push(AddrBeat(5, 0, 1, 4, dest=0, src=0), sim.now)
        up.w.push(WBeat(True, 4), sim.now)
        sim.run(4)
        from repro.axi.beats import BBeat
        down.aw.pop(sim.now)
        down.w.pop(sim.now)
        down.b.push(BBeat(xbar._wr.remap[0]._by_key[(0, 5)]), sim.now)
        sim.run(3)
        assert up.b.pop(sim.now).id == 5


class TestErrorTermination:
    def test_unmapped_write_gets_decerr(self):
        xbar, up, down, sim = build_1x1(route=lambda beat, i: None)
        up.aw.push(AddrBeat(2, 0, 1, 4, dest=-1, src=0), sim.now)
        up.w.push(WBeat(True, 4), sim.now)
        sim.run(6)
        b = up.b.pop(sim.now)
        assert b.id == 2 and b.resp == Resp.DECERR
        assert xbar.counters["decerr_b"] == 1
        assert xbar.idle()

    def test_unmapped_read_gets_decerr_burst(self):
        xbar, up, down, sim = build_1x1(route=lambda beat, i: ERROR_PORT)
        up.ar.push(AddrBeat(1, 0, 3, 12, dest=-1, src=0), sim.now)
        beats = []
        for _ in range(12):
            sim.run(1)
            if up.r.peek(sim.now) is not None:
                beats.append(up.r.pop(sim.now))
        assert len(beats) == 3
        assert all(b.resp == Resp.DECERR for b in beats)
        assert beats[-1].last and not beats[0].last


class TestOrderingRules:
    def test_same_id_different_egress_stalls(self):
        """The axi_demux rule: same ID to a new egress waits for drain."""
        routes = {0x0: 0, 0x1000_0000: 1}
        xbar = AxiCrossbar("dut", 1, 2,
                           lambda beat, i: routes[beat.addr],
                           id_width=4)
        up = AxiLink("up")
        d0, d1 = AxiLink("d0"), AxiLink("d1")
        xbar.connect_in(0, up)
        xbar.connect_out(0, d0)
        xbar.connect_out(1, d1)
        sim = Simulator()
        sim.add(xbar)
        up.ar.push(AddrBeat(7, 0x0, 1, 4, dest=0, src=0), sim.now)
        sim.run(2)
        up.ar.push(AddrBeat(7, 0x1000_0000, 1, 4, dest=1, src=0), sim.now)
        sim.run(4)
        assert d0.ar.peek(sim.now) is not None
        assert d1.ar.peek(sim.now) is None  # stalled on same-ID rule
        assert xbar.counters["ar_same_id_stall"] > 0
        # Complete the first read; the second may then proceed.
        from repro.axi.beats import RBeat
        rid = d0.ar.pop(sim.now).id
        d0.r.push(RBeat(rid, True, 4), sim.now)
        sim.run(5)
        assert d1.ar.peek(sim.now) is not None

    def test_w_beats_follow_aw_grant_order(self):
        """Two masters writing to one slave: W data must arrive in AW
        grant order, never interleaved within a burst."""
        xbar = make_mux("mux", 2, id_width=4)
        u0, u1 = AxiLink("u0"), AxiLink("u1")
        down = AxiLink("down")
        xbar.connect_in(0, u0)
        xbar.connect_in(1, u1)
        xbar.connect_out(0, down)
        sim = Simulator()
        sim.add(xbar)
        u0.aw.push(AddrBeat(0, 0, 2, 8, dest=0, src=0), sim.now)
        u1.aw.push(AddrBeat(0, 64, 2, 8, dest=0, src=1), sim.now)
        u0.w.push(WBeat(False, 4), sim.now)
        u0.w.push(WBeat(True, 4), sim.now)
        u1.w.push(WBeat(False, 4), sim.now)
        u1.w.push(WBeat(True, 4), sim.now)
        # Consume downstream continuously; bursts must stay contiguous.
        stream = []
        aws = 0
        for _ in range(20):
            sim.run(1)
            if down.w.peek(sim.now) is not None:
                stream.append(down.w.pop(sim.now).last)
            if down.aw.peek(sim.now) is not None:
                down.aw.pop(sim.now)
                aws += 1
        assert stream == [False, True, False, True]
        assert aws == 2


@pytest.mark.parametrize("write", [True, False], ids=["write", "read"])
def test_both_directions_remap_stall_and_terminate_alike(write):
    """The write (AW/B) and the read (AR/R) side run the same bodies
    over a direction record, so one 2×2 scenario drives either: ids are
    remapped per egress and restored, the remap entry is released at
    the B / at R-``last`` only, and every stall and termination counts
    under the direction's own prefix."""
    prefix, other = ("aw", "ar") if write else ("ar", "aw")
    routes = {0x0: 0, 0x1000: 1, 0x2000: None}
    xbar = AxiCrossbar("dut", 2, 2, lambda beat, i: routes[beat.addr],
                       id_width=1, max_outstanding=3)
    ups = [AxiLink("u0"), AxiLink("u1")]
    # (W data is left to pile up downstream: only AW order matters here.)
    downs = [AxiLink("d0", w_capacity=64), AxiLink("d1", w_capacity=64)]
    for port in (0, 1):
        xbar.connect_in(port, ups[port])
        xbar.connect_out(port, downs[port])
    sim = Simulator()
    sim.add(xbar)
    d = xbar._wr if write else xbar._rd
    count = xbar.counters.__getitem__

    def request(i, tid, addr):
        """A two-beat burst from ingress ``i`` (W data right behind)."""
        (ups[i].aw if write else ups[i].ar).push(
            AddrBeat(tid, addr, 2, 8, dest=0, src=i), sim.now)
        if write:
            ups[i].w.push(WBeat(False, 4), sim.now)
            ups[i].w.push(WBeat(True, 4), sim.now)
        sim.run(5)

    def granted(j):
        """The remapped ids egress ``j`` has forwarded since last asked."""
        channel = downs[j].aw if write else downs[j].ar
        ids = []
        while channel.peek(sim.now) is not None:
            ids.append(channel.pop(sim.now).id)
        return ids

    def respond(j, rid, last=True):
        """One response beat into egress ``j``; [(ingress, beat)] out."""
        if write:
            downs[j].b.push(BBeat(rid), sim.now)
        else:
            downs[j].r.push(RBeat(rid, last, 4), sim.now)
        return responses()

    def responses():
        sim.run(3)
        out = []
        for i, up in enumerate(ups):
            channel = up.b if write else up.r
            while channel.peek(sim.now) is not None:
                out.append((i, channel.pop(sim.now)))
        return out

    # Both ingresses use id 5 towards egress 0: two remapped ids.
    request(0, 5, 0x0)
    request(1, 5, 0x0)
    rid_a, rid_b = granted(0)
    assert rid_a != rid_b and d.remap[0].in_flight() == 2
    if not write:  # a read burst holds its entry until R-last
        [(i, beat)] = respond(0, rid_a, last=False)
        assert (i, beat.id, beat.last) == (0, 5, False)
        assert d.remap[0].in_flight() == 2
    [(i, beat)] = respond(0, rid_a)
    assert (i, beat.id, beat.last) == (0, 5, True)
    assert d.remap[0].in_flight() == 1 and d.inflight[0] == 1

    # Same id from ingress 1 towards the other egress waits for the drain.
    request(1, 5, 0x1000)
    assert granted(1) == [] and count(f"{prefix}_same_id_stall") > 0
    assert [(i, b.id) for i, b in respond(0, rid_b)] == [(1, 5)]
    sim.run(3)
    [rid] = granted(1)
    assert [(i, b.id) for i, b in respond(1, rid)] == [(1, 5)]
    assert xbar.idle()

    # Two remap ids per egress (id_width=1): a third key stalls on the
    # pool, below the MOT of 3 ...
    request(0, 1, 0x0)
    request(1, 1, 0x0)
    rid_a, rid_b = granted(0)
    request(0, 2, 0x0)
    assert granted(0) == [] and count(f"{prefix}_id_stall") > 0
    assert count(f"{prefix}_mot_stall") == 0
    respond(0, rid_a)
    sim.run(3)
    [rid_c] = granted(0)
    # ... a known key shares its id, and the fourth burst meets the MOT.
    request(1, 1, 0x0)
    assert granted(0) == [rid_b] and d.inflight[0] == 3
    request(0, 2, 0x0)
    assert granted(0) == [] and count(f"{prefix}_mot_stall") > 0
    respond(0, rid_b)
    sim.run(3)
    assert granted(0) == [rid_c]

    # No route: DECERR.  A fault-killed egress: SLVERR.  (Ingress 1 is
    # free; its error burst is answered before the next one is sent.)
    request(1, 3, 0x2000)
    assert count(f"{prefix}_unmapped") == 1
    assert {(i, b.id, b.resp) for i, b in responses()} == {
        (1, 3, Resp.DECERR)}
    xbar.set_fault_blocked(frozenset({1}))
    request(1, 3, 0x1000)
    assert count(f"{prefix}_fault_blocked") == 1 and granted(1) == []
    assert {(i, b.id, b.resp) for i, b in responses()} == {
        (1, 3, Resp.SLVERR)}
    assert not any(key.startswith(other) for key in xbar.counters.as_dict())


class TestConnectivity:
    def test_disallowed_turn_raises(self):
        xbar = AxiCrossbar("dut", 2, 2, lambda beat, i: 1, id_width=2,
                           connectivity=[(0, 0), (1, 1)])
        u0 = AxiLink("u0")
        d0, d1 = AxiLink("d0"), AxiLink("d1")
        xbar.connect_in(0, u0)
        xbar.connect_out(0, d0)
        xbar.connect_out(1, d1)
        sim = Simulator()
        sim.add(xbar)
        u0.ar.push(AddrBeat(0, 0, 1, 4, dest=0, src=0), sim.now)
        with pytest.raises(ConnectivityError):
            sim.run(3)

    def test_route_to_unwired_port_raises(self):
        xbar, up, down, sim = build_1x1(route=lambda beat, i: 5)
        up.ar.push(AddrBeat(0, 0, 1, 4, dest=0, src=0), sim.now)
        with pytest.raises(ConnectivityError):
            sim.run(3)

    def test_double_connect_rejected(self):
        xbar, up, down, sim = build_1x1()
        with pytest.raises(ValueError):
            xbar.connect_in(0, AxiLink("again"))

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            AxiCrossbar("dut", 0, 1, lambda b, i: 0, id_width=2)


class TestFactories:
    def test_make_demux_routes(self):
        demux = make_demux("demux", 3, lambda beat, i: beat.dest, id_width=2)
        assert demux.n_in == 1 and demux.n_out == 3

    def test_make_mux_shape(self):
        mux = make_mux("mux", 4, id_width=2)
        assert mux.n_in == 4 and mux.n_out == 1
