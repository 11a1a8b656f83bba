"""DMA transfers and their decomposition into AXI-compliant bursts.

A *transfer* is what software asks a DMA engine to move: an arbitrary
(address, length) range.  AXI imposes three constraints on each burst the
DMA may emit:

1. a burst carries at most :data:`~repro.axi.types.MAX_BURST_BEATS` beats,
2. a burst must not cross a 4 KiB address boundary,
3. beats are bus-width aligned, so unaligned head/tail bytes occupy
   partial beats.

:func:`split_transfer` implements the splitting exactly; it is the
"workload-specific burst length ... subject to AXI compliance" step of the
paper's evaluation framework (§IV), and its invariants are covered by
property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.axi.types import BOUNDARY_4K, MAX_BURST_BEATS


@dataclass(slots=True)
class Transfer:
    """One DMA command: move ``nbytes`` at ``addr`` to/from endpoint ``src``.

    ``on_complete`` (if set) fires when the last constituent burst
    completes — the hook used by dependent DNN traffic to chain work.

    Transfers are allocated per DMA command on the hot path, so the
    class is slotted; the trailing underscore fields are the DMA
    engine's completion-tracking scratch state.
    """

    src: int
    addr: int
    nbytes: int
    is_read: bool
    dest: int = -1  # destination endpoint; resolved from the memory map
    created: int = 0  # cycle the traffic source generated the transfer
    on_complete: Callable[[int], None] | None = field(default=None, repr=False)
    _bursts_left: int = field(default=0, init=False, repr=False)
    _split_done: bool = field(default=False, init=False, repr=False)
    _start_cycle: int = field(default=0, init=False, repr=False)
    # Fault-recovery scratch state (DESIGN.md §10): a constituent burst
    # exhausted its retransmission budget (per-burst retry bookkeeping
    # itself lives in the DMA's outstanding tables).
    _failed: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"transfer must move at least 1 byte, got {self.nbytes}")
        if self.addr < 0:
            raise ValueError(f"negative address {self.addr:#x}")


@dataclass(frozen=True, slots=True)
class Burst:
    """One AXI-compliant burst produced by the splitter."""

    addr: int
    nbytes: int
    beats: int


def split_transfer(addr: int, nbytes: int, beat_bytes: int,
                   max_beats: int = MAX_BURST_BEATS) -> Iterator[Burst]:
    """Split ``nbytes`` at ``addr`` into AXI-compliant bursts.

    Parameters
    ----------
    addr, nbytes:
        The transfer range (arbitrary alignment and length).
    beat_bytes:
        Bus width in bytes (power of two).
    max_beats:
        Per-burst beat cap; 256 for INCR bursts, lower values model
        DMA engines configured with a smaller maximum burst length.

    Yields
    ------
    Burst
        In address order; bursts tile the range exactly.
    """
    if nbytes <= 0:
        raise ValueError(f"transfer must move at least 1 byte, got {nbytes}")
    if beat_bytes < 1 or beat_bytes & (beat_bytes - 1):
        raise ValueError(f"beat_bytes must be a power of two, got {beat_bytes}")
    if not 1 <= max_beats <= MAX_BURST_BEATS:
        raise ValueError(
            f"max_beats must be in [1, {MAX_BURST_BEATS}], got {max_beats}")

    pos = addr
    remaining = nbytes
    while remaining > 0:
        # Rule 2: stop at the next 4 KiB boundary.
        room_in_page = BOUNDARY_4K - (pos % BOUNDARY_4K)
        # Rule 1+3: max_beats beats starting from the aligned beat that
        # contains ``pos`` cover this many bytes past ``pos``.
        offset_in_beat = pos % beat_bytes
        room_in_beats = max_beats * beat_bytes - offset_in_beat
        chunk = min(remaining, room_in_page, room_in_beats)
        beats = (offset_in_beat + chunk + beat_bytes - 1) // beat_bytes
        yield Burst(addr=pos, nbytes=chunk, beats=beats)
        pos += chunk
        remaining -= chunk

