"""Trains: a burst that owns its path moves as a run, not beat by beat
(DESIGN.md §7 "A burst is a run").

A W burst streams from a DMA to a memory, an R burst from a memory to a
DMA.  Once nothing but the burst's own beats can enter or leave the
FIFOs of its path until its ``last`` beat has passed, the path is an
autonomous pipeline whose only inputs are the *holder*'s next beat (the
one shared ``BeatStream._mid`` object) and the *sink*'s unconditional
take.  When two looks a cycle apart find it in the same state relative
to ``now`` — every FIFO pushed and popped once, every stamp one later,
every queued beat a middle beat of the burst — it is at a fixed point
of a deterministic time-invariant map and stays there while the holder
keeps pushing ``_mid``.  The activity scheduler then *freezes* it: the
queued beats are taken out of the FIFOs (crossbars and the sink fall
asleep through ``quiet()`` / ``BLOCKED`` as they would on any empty
channel, the holder skips its push) and the cycles are charged
arithmetically when the holder *thaws* the train to push the last beat,
or when ``NocNetwork.run`` / ``drain`` / ``set_warmup`` end it so that
no train outlives the call that started it.

One probe / freeze / thaw / credit core, :class:`Train`, serves both
directions; what keeps everyone else off the path is the part that
differs, and it lives in the path walk:

* :class:`WTrain` — AXI forbids W interleaving, and every crossbar on
  the path has locked its W mux to the burst.
* :class:`RTrain` — a memory serves its R jobs strictly in order, so only
  the burst enters at the memory.  At each path crossbar every read in
  flight from the train's ingress is bound to the train's egress
  (``_rd.dest``), so no other egress holds a response for that ingress,
  and a beat arriving through the train's egress must have crossed the
  previous hop first.  A read that starts later — an AR granted or
  terminated from that ingress toward another egress — cuts the train
  (``AxiCrossbar._cut_r_train``) before its response could compete.

Only wired by :class:`~repro.noc.network.NocNetwork`, and only with the
activity scheduler: W trains on a network whose fault spec degrades no
link (the controller re-times W heads there; every other fault acts at
admission, on decoded heads or on B/R beats), R trains on a network with
no fault controller at all (lost, mangled and corrupted responses act on
R beats).  ``always_step=True`` is the per-beat reference the tests
compare with.  A corrupt burst trains like any other and, like the
per-beat take, credits no byte.
"""

from __future__ import annotations

#: A burst is probed only after this many beats have gone out (and with
#: ``dma.MIN_TRAIN_BEATS`` middle beats still to push); a failed pair of
#: probes backs off by ``FIRST_GAP`` cycles, doubling per stream.
WARM_BEATS = 3
FIRST_GAP = 2


class Train:
    """One holder's probe state and, while one is open, its train.

    The holder pushes the burst (the DMA of a W burst, the memory of an
    R burst) and gates that push on :meth:`holds`; the sink takes it at
    the far end of the path.  A subclass supplies the walk that records
    the path and the sink's credit."""

    __slots__ = ("holder", "hops", "prev", "cur", "probed", "gap", "stream",
                 "start", "fifos", "orders", "claims", "entry", "saved",
                 "sink_first", "trains", "beats", "probes")

    def __init__(self, holder, hops: dict):
        self.holder = holder
        holder._train = self
        holder._probe_at = 0
        #: FIFO of this direction -> its port index at the crossbar
        #: consuming it (absent: the sink's FIFO).
        self.hops = hops
        #: The last two probes, flat and reused: per FIFO ``pushed - now``,
        #: ``popped - now``, length, every ``stamp - now``, the next port.
        self.prev: list[int] = []
        self.cur: list[int] = []
        self.probed = -2  # the cycle ``cur`` was taken on, if a first look
        self.gap = FIRST_GAP
        self.stream = None
        #: The path of the last probe: its FIFOs, holder side first; the
        #: crossbars' beats-left entries (``_w_order`` heads, W only);
        #: the crossbars whose AR grants cut the train, flat ``xp, i, j``
        #: (R only); the sink's record of the burst.
        self.fifos: list = []
        self.orders: list = []
        self.claims: list = []
        self.entry: list | None = None
        self.saved: list | None = None  # the frozen FIFO contents
        self.sink_first = False  # the sink steps before the holder
        self.start = 0  # the cycle the open train froze on
        self.trains = self.beats = self.probes = 0

    def holds(self, stream, now: int) -> bool:
        """The holder's push, at cycle ``now``: do the middle beats of
        ``stream`` ride a train?  A frozen one thaws on the cycle it
        ends; otherwise look at the path, and freeze it if this look and
        the last find it at a fixed point."""
        holder = self.holder
        if self.saved is not None:
            if now < holder._frozen_until:
                return True
            # Every middle beat has been pushed (or the train was cut):
            # the path is put back and the next beat follows physically.
            self._restore(now - self.start, now)
            return False
        if stream is not self.stream:
            self.stream = stream
            self.gap = FIRST_GAP
            self.probed = -2
        if stream.issued < WARM_BEATS:
            holder._probe_at = now + WARM_BEATS - stream.issued
            return False
        self.probes += 1
        self.prev, self.cur = self.cur, self.prev
        first = self.probed < 0
        paired = self.probed == now - 1
        self.probed = now
        del self.cur[:], self.fifos[:], self.orders[:], self.claims[:]
        if self._walk(stream, now):
            if first:
                return False  # the second look is next cycle's
            if paired and self.cur == self.prev:
                self._freeze(stream, now)
                return True
        # Not (yet) a fixed point — or the holder was held on the cycle
        # of the second look.  The stream lasts at least as many cycles
        # as it has beats left, so the gate is open again by the time
        # the next one starts.
        self.probed = -2
        holder._probe_at = now + min(self.gap, stream.beats - stream.issued)
        self.gap *= 2
        return False

    def _record(self, fifo, now: int):
        """Append ``fifo``'s state relative to ``now`` to ``cur`` and the
        FIFO to the path; return its queue for the walk to check."""
        buf = self.cur
        q = fifo._q
        buf.append(fifo.pushed - now)
        buf.append(fifo.popped - now)
        buf.append(len(q))
        for stamp, _ in q:
            buf.append(stamp - now)
        self.fifos.append(fifo)
        return q

    def _freeze(self, stream, now: int) -> None:
        # (The holder's own FIFO reads empty where its consumer steps
        # first and has popped this cycle; the others cannot.)
        self.saved = [fifo.freeze() for fifo in self.fifos]
        self.start = now
        holder = self.holder
        self.sink_first = self.fifos[-1].consumer._order < holder._order
        holder._frozen_until = now + stream.beats - 1 - stream.issued
        claims = self.claims
        for xp, i, j in zip(claims[::3], claims[1::3], claims[2::3]):
            xp._r_trains[i] = (j, self)
        self.trains += 1

    def _restore(self, d: int, now: int) -> None:
        """Put the pipeline back as it stands at the holder's step of
        cycle ``start + d``: the frozen state moved ``d`` cycles on,
        with the ``d`` beats every stage has moved meanwhile credited."""
        for fifo, entries in zip(self.fifos, self.saved):
            fifo.thaw(entries, d, now)
        for entry in self.orders:
            entry[1] -= d
        claims = self.claims
        for xp, i in zip(claims[::3], claims[1::3]):
            del xp._r_trains[i]
        self.stream.issued += d
        self._credit(d, self.start + self.sink_first)
        self.beats += d
        self.saved = None
        self.holder._frozen_until = -1

    def cut(self, now: int) -> None:
        """End the open train at the holder's step of cycle ``now``: a
        path crossbar (it steps before every endpoint) has just let a
        read start whose response may compete for the path."""
        holder = self.holder
        if now < holder._frozen_until:
            holder._frozen_until = now
            holder.wake(now)

    def end(self, now: int) -> None:
        """End the open train, if any, between cycles ``now - 1`` and
        ``now``: the state at the holder's step of ``now - 1``, then
        what the rest of that cycle does to the path — the holder's
        push, and the take of a sink that steps after it."""
        if self.saved is None:
            return
        self._restore(now - 1 - self.start, now)
        self.fifos[0].push(self.stream.next_beat(), now - 1)
        if not self.sink_first:
            self.fifos[-1].pop(now - 1)
            self._credit(1, now - 1)
        self.holder.wake()


class WTrain(Train):
    """A DMA's W bursts, over W muxes locked to them."""

    __slots__ = ()

    def _walk(self, stream, now: int) -> bool:
        """Record the path; False unless it reaches a memory through W
        muxes all locked to the DMA's ingress and carries nothing but
        this burst's middle beat (the previous burst's last beat, or
        this one's first, is still on its way to a crossbar whose lock
        is the previous burst's)."""
        mid = stream._mid
        hops, orders = self.hops, self.orders
        fifo = self.holder.link.w
        while True:
            for _, beat in self._record(fifo, now):
                if beat is not mid:
                    return False
            i = hops.get(fifo)
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
            self.cur.append(j)
            orders.append(entry)
            fifo = xp.out_links[j].w
        expect = fifo.consumer._w_expect
        if not expect:
            return False
        self.entry = expect[0]
        return True

    def _credit(self, n: int, first: int) -> None:
        """The memory took ``n`` middle beats, on cycles ``first`` to
        ``first + n - 1`` (what ``MemorySlave._accept`` does per beat)."""
        nbytes = self.stream._mid.nbytes
        entry = self.entry
        entry[1] -= n
        entry[2] -= n * nbytes
        if not entry[5]:  # corrupted payload is never credited
            self.fifos[-1].consumer.write_meter.add(nbytes, first, n)


class RTrain(Train):
    """A memory's R bursts, over ingresses no other egress answers."""

    __slots__ = ()

    def _walk(self, stream, now: int) -> bool:
        """Record the path; False unless it reaches a DMA through
        crossbars whose train ingress owes responses from the train's
        egress only, carrying nothing but this burst's beats.  A beat is
        known by its id on the hop (a crossbar restores the id in a
        copy; an id is held while a beat of its burst is queued), and it
        is a middle beat: the last is not out yet, and by the second
        look of a fixed point the first has left — every FIFO but the
        memory's is popped between the looks, so each held a beat at
        the first one, and none sat ahead of the first beat."""
        rid = stream._mid.id
        hops, claims = self.hops, self.claims
        fifo = self.holder.link.r
        while True:
            for _, beat in self._record(fifo, now):
                if beat.id != rid:
                    return False
            j = hops.get(fifo)
            if j is None:
                break
            xp = fifo.consumer
            rd = xp._rd
            entry = rd.remap[j]._table[rid]
            i = entry[0]
            rid = entry[1]
            for dest in rd.dest[i].values():
                if dest[0] != j:
                    return False  # another egress answers the ingress
            self.cur.append(i)
            claims += (xp, i, j)
            fifo = rd.dst[i]
        self.entry = fifo.consumer._rd_out[rid]
        return True

    def _credit(self, n: int, first: int) -> None:
        """The DMA took ``n`` middle beats, on cycles ``first`` to
        ``first + n - 1`` (what ``DmaEngine._sink`` does per beat)."""
        mid = self.stream._mid
        self.entry[2] -= n
        if not mid.resp:  # error beats carry no creditable payload
            self.fifos[-1].consumer.read_meter.add(mid.nbytes, first, n)
