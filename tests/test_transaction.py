"""AXI burst-splitting compliance: unit cases plus property tests.

These are the invariants the paper's evaluation relies on ("bursts in
the NoC are subject to AXI compliance"): no burst crosses a 4 KiB page,
no burst exceeds 256 beats, and the split tiles the transfer exactly.
"""

from functools import partial

import pytest
from hypothesis import given, strategies as st

from repro.axi.beats import BeatStream, RBeat, WBeat
from repro.axi.transaction import Transfer, beat_sizes, split_transfer
from repro.axi.types import BOUNDARY_4K, MAX_BURST_BEATS


class TestUnitCases:
    def test_single_beat(self):
        bursts = list(split_transfer(0, 4, beat_bytes=4))
        assert len(bursts) == 1
        assert bursts[0].beats == 1
        assert bursts[0].nbytes == 4

    def test_sub_beat_transfer(self):
        bursts = list(split_transfer(0, 1, beat_bytes=64))
        assert len(bursts) == 1
        assert bursts[0].beats == 1

    def test_exact_page(self):
        bursts = list(split_transfer(0, 4096, beat_bytes=4))
        assert [b.beats for b in bursts] == [256, 256, 256, 256]

    def test_page_crossing_split(self):
        bursts = list(split_transfer(4090, 12, beat_bytes=4))
        assert len(bursts) == 2
        assert bursts[0].addr == 4090 and bursts[0].nbytes == 6
        assert bursts[1].addr == 4096 and bursts[1].nbytes == 6

    def test_unaligned_start_counts_partial_beat(self):
        bursts = list(split_transfer(2, 8, beat_bytes=4))
        # bytes 2..9 touch beats [0..3], [4..7], [8..11] → 3 beats
        assert bursts[0].beats == 3

    def test_wide_bus_4k_limit(self):
        # 64-byte beats: 256 beats would be 16 KiB > 4 KiB page.
        bursts = list(split_transfer(0, 16384, beat_bytes=64))
        assert all(b.beats <= 64 for b in bursts)
        assert len(bursts) == 4

    def test_max_beats_parameter(self):
        bursts = list(split_transfer(0, 1024, beat_bytes=4, max_beats=16))
        assert all(b.beats <= 16 for b in bursts)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            list(split_transfer(0, 0, 4))
        with pytest.raises(ValueError):
            list(split_transfer(0, 4, 3))
        with pytest.raises(ValueError):
            list(split_transfer(0, 4, 4, max_beats=0))
        with pytest.raises(ValueError):
            list(split_transfer(0, 4, 4, max_beats=512))


class TestBeatSizes:
    def test_full_beats(self):
        burst = next(split_transfer(0, 16, 4))
        assert list(beat_sizes(burst, 4)) == [4, 4, 4, 4]

    def test_partial_head_and_tail(self):
        burst = next(split_transfer(3, 6, 4))
        sizes = list(beat_sizes(burst, 4))
        assert sizes == [1, 4, 1]
        assert sum(sizes) == 6


class TestTransfer:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Transfer(src=0, addr=0, nbytes=0, is_read=False)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            Transfer(src=0, addr=-4, nbytes=4, is_read=True)


@given(addr=st.integers(0, 1 << 32), nbytes=st.integers(1, 300_000),
       beat_shift=st.integers(0, 7))
def test_split_invariants(addr, nbytes, beat_shift):
    """Property: splitting preserves bytes, respects AXI limits, tiles."""
    beat_bytes = 1 << beat_shift  # 1..128 bytes
    bursts = list(split_transfer(addr, nbytes, beat_bytes))
    assert sum(b.nbytes for b in bursts) == nbytes
    pos = addr
    for burst in bursts:
        assert burst.addr == pos  # contiguous tiling
        assert 1 <= burst.beats <= MAX_BURST_BEATS
        first_page = burst.addr // BOUNDARY_4K
        last_page = (burst.addr + burst.nbytes - 1) // BOUNDARY_4K
        assert first_page == last_page  # no 4 KiB crossing
        # Beat count matches the touched beat-aligned span.
        start_beat = burst.addr // beat_bytes
        end_beat = (burst.addr + burst.nbytes - 1) // beat_bytes
        assert burst.beats == end_beat - start_beat + 1
        assert sum(beat_sizes(burst, beat_bytes)) == burst.nbytes
        pos += burst.nbytes
    assert pos == addr + nbytes


@pytest.mark.parametrize("make", [WBeat, partial(RBeat, 5)],
                         ids=["WBeat", "RBeat"])
@given(addr=st.integers(0, 1 << 32), nbytes=st.integers(1, 40_000),
       beat_shift=st.integers(0, 7), max_beats=st.integers(1, 256))
def test_beat_stream_matches_the_per_beat_oracle(make, addr, nbytes,
                                                 beat_shift, max_beats):
    """Property: a ``BeatStream`` hands out the beats ``beat_sizes``
    describes — the DMA's W side and the memory's R side both stream
    from it — marks exactly the final one ``last``, and builds at most
    three distinct objects per burst."""
    beat_bytes = 1 << beat_shift
    for burst in split_transfer(addr, nbytes, beat_bytes, max_beats):
        stream = BeatStream(burst.addr, burst.beats, burst.nbytes,
                            beat_bytes, make)
        beats = [stream.next_beat() for _ in range(stream.beats)]
        assert stream.issued == stream.beats == burst.beats
        assert [b.nbytes for b in beats] == list(
            beat_sizes(burst, beat_bytes))
        assert [b.last for b in beats] == [False] * (burst.beats - 1) + [True]
        assert len({id(b) for b in beats}) <= 3
