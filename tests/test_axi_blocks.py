"""Tests for the small standalone AXI blocks: beats, monitor, link, and
the protocol-constant validators."""

import pytest

from repro.axi.beats import AddrBeat, BBeat, RBeat, WBeat
from repro.axi.link import CHANNELS, AxiLink
from repro.axi.monitor import LinkMonitor
from repro.axi.types import (
    Resp,
    validate_addr_width,
    validate_data_width,
    validate_id_width,
    validate_mot,
)


class TestValidators:
    def test_data_width(self):
        assert validate_data_width(64) == 8
        for bad in (4, 2048, 48, 33):
            with pytest.raises(ValueError):
                validate_data_width(bad)

    def test_addr_width(self):
        assert validate_addr_width(32) == 32
        with pytest.raises(ValueError):
            validate_addr_width(48)

    def test_id_width(self):
        assert validate_id_width(16) == 16
        with pytest.raises(ValueError):
            validate_id_width(17)

    def test_mot(self):
        assert validate_mot(128) == 128
        with pytest.raises(ValueError):
            validate_mot(0)


class TestBeats:
    def test_with_id_copies(self):
        beat = AddrBeat(1, 0x40, 4, 16, dest=2, src=0)
        other = beat.with_id(9)
        assert other.id == 9 and other.addr == 0x40
        assert beat.id == 1

    def test_response_beats(self):
        assert BBeat(3).resp == Resp.OKAY
        r = RBeat(2, True, 4).with_id(5)
        assert r.id == 5 and r.last


class TestLink:
    def test_channels_and_idle(self):
        link = AxiLink("l")
        assert len(link.channels()) == len(CHANNELS) == 5
        assert link.idle()
        link.aw.push(AddrBeat(0, 0, 1, 4, 0, 0), 0)
        assert not link.idle()

    def test_w_capacity_override(self):
        link = AxiLink("l", capacity=2, w_capacity=8)
        assert link.w.capacity == 8
        assert link.aw.capacity == 2


class TestLinkMonitor:
    def test_utilization_counts_beats(self):
        link = AxiLink("mon", capacity=16)
        monitor = LinkMonitor(link)
        monitor.open_window(0)
        for now in range(10):
            link.w.push(WBeat(False, 4), now)
        for now in range(10):
            link.w.pop(10 + now)
        util = monitor.utilization(20)
        assert util["w"] == pytest.approx(0.5)
        assert util["aw"] == 0.0

    def test_requires_open_window(self):
        monitor = LinkMonitor(AxiLink("m"))
        with pytest.raises(RuntimeError):
            monitor.utilization(10)

    def test_in_flight(self):
        link = AxiLink("m")
        monitor = LinkMonitor(link)
        link.aw.push(AddrBeat(0, 0, 1, 4, 0, 0), 0)
        assert monitor.in_flight() == 1
