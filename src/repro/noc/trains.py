"""W trains: a write burst that owns its path moves as a run, not beat
by beat (DESIGN.md §7 "A burst is a run").

AXI forbids W interleaving, so once every crossbar between a DMA and a
memory has locked its W mux to one burst, nobody else can push into or
pop from the W FIFOs on that path until the burst's ``last`` beat has
passed.  The path is then an autonomous pipeline whose only inputs are
the DMA's next beat (the one shared ``BeatStream._mid`` object) and the
memory's unconditional accept.  When two looks a cycle apart find it in
the same state relative to ``now`` — every FIFO pushed and popped once,
every stamp one later, every queued beat that ``_mid`` — it is at a
fixed point of a deterministic time-invariant map and stays there while
the DMA keeps pushing ``_mid``.  The activity scheduler then *freezes*
it: the queued beats are taken out of the FIFOs (crossbars and memory
fall asleep through ``quiet()`` / ``BLOCKED`` as they would on any empty
channel, the DMA skips its W block) and the cycles are charged
arithmetically when the DMA *thaws* the train to push the last beat, or
when ``NocNetwork.run`` / ``drain`` / ``set_warmup`` end it so that no
train outlives the call that started it.

Only wired by :class:`~repro.noc.network.NocNetwork`, and only with the
activity scheduler on a network whose fault spec degrades no link (the
controller re-times W heads there; every other fault acts at admission,
on decoded heads or on B/R beats): ``always_step=True`` is the per-beat
reference the tests compare with.  A corrupt burst trains like any
other and, like the per-beat accept, credits no byte.
R beats are re-arbitrated by ID at every hop and own nothing: there is
no R train.
"""

from __future__ import annotations

from repro.endpoints.memory import MemorySlave

#: A burst is probed only after this many beats have gone out (and with
#: ``dma._MIN_TRAIN_BEATS`` middle beats still to push); a failed pair
#: of probes backs off by ``FIRST_GAP`` cycles, doubling per stream.
WARM_BEATS = 3
FIRST_GAP = 2


class WTrain:
    """One DMA's probe state and, while one is open, its train."""

    __slots__ = ("dma", "ingress", "prev", "cur", "probed", "gap", "stream",
                 "start", "fifos", "orders", "saved", "mem_first",
                 "trains", "beats", "probes")

    def __init__(self, dma, ingress: dict):
        self.dma = dma
        dma._train = self
        dma._probe_at = 0
        #: W FIFO -> ingress index at the crossbar consuming it.
        self.ingress = ingress
        #: The last two probes, flat and reused: per FIFO ``pushed - now``,
        #: ``popped - now``, length, every ``stamp - now``, the egress.
        self.prev: list[int] = []
        self.cur: list[int] = []
        self.probed = -2  # the cycle ``cur`` was taken on, if a first look
        self.gap = FIRST_GAP
        self.stream = None
        #: The path of the last probe: its W FIFOs, DMA side first, and
        #: the beats-left entry behind each — a crossbar's ``_w_order``
        #: head, the memory's ``_w_expect`` head last.
        self.fifos: list = []
        self.orders: list = []
        self.saved: list | None = None  # the frozen FIFO contents
        self.mem_first = False  # the memory steps before the DMA
        self.start = 0  # the cycle the open train froze on
        self.trains = self.beats = self.probes = 0

    def holds(self, stream, now: int) -> bool:
        """The DMA's W block, at cycle ``now`` and before its push: do
        the middle beats of ``stream`` ride a train?  A frozen one thaws
        on the cycle it ends; otherwise look at the path, and freeze it
        if this look and the last find it at a fixed point."""
        dma = self.dma
        if self.saved is not None:
            if now < dma._frozen_until:
                return True
            # Every middle beat has been pushed: the path is put back
            # and the last beat follows physically.
            self._restore(now - self.start, now)
            return False
        if stream is not self.stream:
            self.stream = stream
            self.gap = FIRST_GAP
            self.probed = -2
        if stream.issued < WARM_BEATS:
            dma._probe_at = now + WARM_BEATS - stream.issued
            return False
        self.probes += 1
        self.prev, self.cur = self.cur, self.prev
        first = self.probed < 0
        paired = self.probed == now - 1
        self.probed = now
        if self._walk(stream, now):
            if first:
                return False  # the second look is next cycle's
            if paired and self.cur == self.prev:
                self._freeze(stream, now)
                return True
        # Not (yet) a fixed point — or the engine was held on the cycle
        # of the second look.  The stream lasts at least as many cycles
        # as it has beats left, so the gate is open again by the time
        # the next one starts.
        self.probed = -2
        dma._probe_at = now + min(self.gap, stream.beats - stream.issued)
        self.gap *= 2
        return False

    def _walk(self, stream, now: int) -> bool:
        """Record the path into ``cur``; False unless it reaches a
        memory through W muxes all locked to the DMA's ingress and
        carries nothing but this burst's middle beat (the previous
        burst's last beat, or this one's first, is still on its way to a
        crossbar whose lock is the previous burst's)."""
        buf, fifos, orders = self.cur, self.fifos, self.orders
        del buf[:], fifos[:], orders[:]
        mid = stream._mid
        ingress = self.ingress
        fifo = self.dma.link.w
        while True:
            q = fifo._q
            buf.append(fifo.pushed - now)
            buf.append(fifo.popped - now)
            buf.append(len(q))
            for stamp, beat in q:
                if beat is not mid:
                    return False
                buf.append(stamp - now)
            fifos.append(fifo)
            i = ingress.get(fifo)
            if i is None:
                break
            xp = fifo.consumer
            route = xp._w_route[i]
            if not route or route[0][0] < 0:
                return False  # AW not granted here yet, or error-bound
            j = route[0][0]
            entry = xp._w_order[j][0]
            if entry[0] != i:
                return False  # the egress W mux is locked to another
            buf.append(j)
            orders.append(entry)
            fifo = xp.out_links[j].w
        mem = fifo.consumer
        if type(mem) is not MemorySlave or not mem._w_expect:
            return False
        orders.append(mem._w_expect[0])
        return True

    def _freeze(self, stream, now: int) -> None:
        # (The DMA's own FIFO reads empty where its consumer steps first
        # and has popped this cycle; the others cannot.)
        self.saved = [fifo.freeze() for fifo in self.fifos]
        self.start = now
        self.mem_first = self.fifos[-1].consumer._order < self.dma._order
        self.dma._frozen_until = now + stream.beats - 1 - stream.issued
        self.trains += 1

    def _restore(self, d: int, now: int) -> None:
        """Put the pipeline back as it stands at the DMA's step of cycle
        ``start + d``: the frozen state moved ``d`` cycles on, with the
        ``d`` beats every stage has moved meanwhile credited."""
        for fifo, entries in zip(self.fifos, self.saved):
            fifo.thaw(entries, d, now)
        for entry in self.orders:
            entry[1] -= d
        self.stream.issued += d
        self._accepted(d, self.start + self.mem_first)
        self.beats += d
        self.saved = None
        self.dma._frozen_until = -1

    def _accepted(self, n: int, first: int) -> None:
        """The memory took ``n`` middle beats, on cycles ``first`` to
        ``first + n - 1`` (what ``MemorySlave._accept`` does per beat,
        the beat count aside: that is ``orders[-1]``)."""
        nbytes = self.stream._mid.nbytes
        expect = self.orders[-1]
        expect[2] -= n * nbytes
        if not expect[5]:  # corrupted payload is never credited
            self.fifos[-1].consumer.write_meter.add(nbytes, first, n)

    def end(self, now: int) -> None:
        """End the open train, if any, between cycles ``now - 1`` and
        ``now``: the state at the DMA's step of ``now - 1``, then what
        the rest of that cycle does to the path — the DMA's push, and
        the accept of a memory that steps after it."""
        if self.saved is None:
            return
        self._restore(now - 1 - self.start, now)
        self.fifos[0].push(self.stream.next_beat(), now - 1)
        if not self.mem_first:
            self.fifos[-1].pop(now - 1)
            self.orders[-1][1] -= 1
            self._accepted(1, now - 1)
        self.dma.wake()
