"""The channel-level payload units (beats) that flow through the NoC.

One object per *distinct* beat: bursts reuse a single immutable object for
all identical middle beats, which keeps a 16 Ki-beat wide-burst cheap to
simulate.  Beats are intentionally tiny — ``__slots__`` classes with no
behaviour beyond an ID-rewriting copy helper.
"""

from __future__ import annotations

from repro.axi.types import Resp


class AddrBeat:
    """An AW or AR channel beat: one AXI burst request.

    Attributes
    ----------
    id:
        AXI transaction ID as seen on the link this beat currently
        occupies (rewritten by ID remappers hop by hop).
    addr:
        Start address of the burst.
    beats:
        Number of data beats (AxLEN + 1), 1..256.
    nbytes:
        Total payload bytes of the burst (may be less than
        ``beats * beat_bytes`` for partial first/last beats).
    dest:
        Destination endpoint index (resolved once from the memory map at
        injection; equivalent to each XP re-decoding ``addr`` against its
        generated routing table).
    src:
        Issuing endpoint index (statistics only, never used for routing).
    """

    __slots__ = ("id", "addr", "beats", "nbytes", "dest", "src")

    def __init__(self, id: int, addr: int, beats: int, nbytes: int,
                 dest: int, src: int):
        self.id = id
        self.addr = addr
        self.beats = beats
        self.nbytes = nbytes
        self.dest = dest
        self.src = src

    def with_id(self, new_id: int) -> "AddrBeat":
        """Copy of this beat carrying a remapped transaction ID."""
        return AddrBeat(new_id, self.addr, self.beats, self.nbytes,
                        self.dest, self.src)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AddrBeat(id={self.id}, addr={self.addr:#x}, "
                f"beats={self.beats}, nbytes={self.nbytes}, "
                f"dest={self.dest}, src={self.src})")


class WBeat:
    """A W channel beat.  W beats carry no ID in AXI4 (order-based)."""

    __slots__ = ("last", "nbytes")

    def __init__(self, last: bool, nbytes: int):
        self.last = last
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WBeat(last={self.last}, nbytes={self.nbytes})"


class BBeat:
    """A write-response beat."""

    __slots__ = ("id", "resp")
    #: One B answers a whole burst: the response path treats it as the
    #: burst's final (and only) beat.
    last = True

    def __init__(self, id: int, resp: Resp = Resp.OKAY):
        self.id = id
        self.resp = resp

    def with_id(self, new_id: int) -> "BBeat":
        return BBeat(new_id, self.resp)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BBeat(id={self.id}, resp={self.resp.name})"


class RBeat:
    """A read-data beat."""

    __slots__ = ("id", "last", "nbytes", "resp")

    def __init__(self, id: int, last: bool, nbytes: int,
                 resp: Resp = Resp.OKAY):
        self.id = id
        self.last = last
        self.nbytes = nbytes
        self.resp = resp

    def with_id(self, new_id: int) -> "RBeat":
        return RBeat(new_id, self.last, self.nbytes, self.resp)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RBeat(id={self.id}, last={self.last}, "
                f"nbytes={self.nbytes}, resp={self.resp.name})")


class BeatStream:
    """The data beats of one burst, in order.

    The first and the last beat may be partial (an unaligned head, a
    short tail); every beat between them carries the full bus width
    (``tests/test_transaction.py`` holds it to a per-beat oracle).
    So a burst is at most three distinct immutable beats, built once
    here by ``make(last, nbytes)`` — :class:`WBeat` itself on the DMA's
    write side, :class:`RBeat` with the burst's id and response bound at
    the memory — and :meth:`next_beat` hands them out.
    """

    __slots__ = ("issued", "beats", "_first", "_mid", "_last")

    def __init__(self, addr: int, beats: int, nbytes: int, beat_bytes: int,
                 make):
        self.issued = 0
        self.beats = beats
        if beats == 1:
            self._first = self._mid = None
            self._last = make(True, nbytes)
            return
        first = min(beat_bytes - addr % beat_bytes, nbytes)
        last = nbytes - first - (beats - 2) * beat_bytes
        if not 0 < last <= beat_bytes:
            raise AssertionError(
                f"beat arithmetic broke: addr={addr:#x} beats={beats} "
                f"nbytes={nbytes} last={last}")
        self._first = make(False, first)
        self._mid = make(False, beat_bytes)
        self._last = make(True, last)

    def next_beat(self):
        """The next beat; the stream is spent once ``issued`` reaches
        ``beats``."""
        k = self.issued
        self.issued = k + 1
        if k == self.beats - 1:
            return self._last
        return self._mid if k else self._first
