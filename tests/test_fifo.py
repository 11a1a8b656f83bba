"""Unit and property tests for the two-phase register-stage FIFO."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.sim.fifo import TimedFifo
from repro.sim.stats import ThroughputMeter


class TestBasics:
    def test_starts_empty(self):
        fifo = TimedFifo()
        assert len(fifo) == 0
        assert fifo.peek(0) is None

    def test_push_visible_after_latency(self):
        fifo = TimedFifo(latency=1)
        fifo.push("a", now=5)
        assert fifo.peek(5) is None
        assert fifo.peek(6) == "a"

    def test_custom_latency(self):
        fifo = TimedFifo(capacity=4, latency=3)
        fifo.push("a", now=0)
        for t in range(3):
            assert fifo.peek(t) is None
        assert fifo.peek(3) == "a"

    def test_zero_latency_visible_immediately(self):
        fifo = TimedFifo(latency=0)
        fifo.push("a", now=2)
        assert fifo.peek(2) == "a"

    def test_pop_returns_in_fifo_order(self):
        fifo = TimedFifo(capacity=4)
        fifo.push(1, 0)
        fifo.push(2, 0)
        assert fifo.pop(1) == 1
        assert fifo.pop(1) == 2

    def test_can_push_respects_capacity(self):
        fifo = TimedFifo(capacity=2)
        assert fifo.can_push()
        fifo.push(1, 0)
        fifo.push(2, 0)
        assert not fifo.can_push()

    def test_push_full_raises(self):
        fifo = TimedFifo(capacity=1)
        fifo.push(1, 0)
        with pytest.raises(OverflowError):
            fifo.push(2, 0)

    def test_pop_empty_raises(self):
        with pytest.raises(LookupError):
            TimedFifo().pop(0)

    def test_pop_before_visible_raises(self):
        fifo = TimedFifo(latency=2)
        fifo.push(1, 0)
        with pytest.raises(LookupError):
            fifo.pop(1)

    def test_counters(self):
        fifo = TimedFifo(capacity=4)
        fifo.push(1, 0)
        fifo.push(2, 0)
        fifo.pop(1)
        assert fifo.pushed == 2
        assert fifo.popped == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimedFifo(capacity=0)
        with pytest.raises(ValueError):
            TimedFifo(latency=-1)


class TestThroughput:
    def test_capacity_two_sustains_one_per_cycle(self):
        """A cap-2 latency-1 FIFO is a full-throughput spill register."""
        fifo = TimedFifo(capacity=2, latency=1)
        delivered = 0
        for now in range(100):
            if fifo.peek(now) is not None:
                fifo.pop(now)
                delivered += 1
            if fifo.can_push():
                fifo.push(now, now)
        assert delivered >= 98  # 1/cycle minus pipeline fill

    def test_producer_first_order_also_full_rate(self):
        fifo = TimedFifo(capacity=2, latency=1)
        delivered = 0
        for now in range(100):
            if fifo.can_push():
                fifo.push(now, now)
            if fifo.peek(now) is not None:
                fifo.pop(now)
                delivered += 1
        assert delivered >= 97


@given(st.lists(st.integers(0, 3), min_size=1, max_size=200))
def test_fifo_order_preserved(ops):
    """Random interleavings of push/pop never reorder items."""
    fifo = TimedFifo(capacity=8, latency=1)
    pushed, popped = [], []
    seq = 0
    for now, op in enumerate(ops):
        if op < 3 and fifo.can_push():
            fifo.push(seq, now)
            pushed.append(seq)
            seq += 1
        elif fifo.peek(now) is not None:
            popped.append(fifo.pop(now))
    assert popped == pushed[:len(popped)]


@given(st.integers(1, 8), st.integers(0, 4))
def test_fifo_never_exceeds_capacity(capacity, latency):
    fifo = TimedFifo(capacity=capacity, latency=latency)
    for now in range(50):
        if fifo.can_push():
            fifo.push(now, now)
        assert len(fifo) <= capacity
        if now % 3 == 0 and fifo.peek(now) is not None:
            fifo.pop(now)


class TestProducerWake:
    """The pop half of the wake spine (DESIGN.md §2): a pop that takes a
    FIFO from full to not-full wakes the sleeping producer."""

    @staticmethod
    def _producer(capacity):
        from repro.sim.kernel import BLOCKED, Component, Simulator

        class Producer(Component):
            def __init__(self):
                self.fifo = TimedFifo(capacity=capacity, latency=1)
                self.fifo.producer = self
                self.ticks = []

            def step(self, now):
                self.ticks.append(now)
                if not self.fifo.can_push():
                    return BLOCKED
                self.fifo.push(now, now)
                return False

        sim = Simulator()
        return sim, sim.add(Producer())

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_pop_from_full_fifo_wakes_the_sleeping_producer(self, capacity):
        sim, producer = self._producer(capacity)
        sim.run(10)  # fills the FIFO, then one blocked step, then sleep
        assert producer.ticks == list(range(capacity + 1))
        assert sim.blocked() == [producer]
        producer.fifo.pop(sim.now)  # outside run(): wake lands at now
        sim.run(5)
        assert producer.ticks[capacity + 1:] == [10, 11]
        assert len(producer.fifo) == capacity

    def test_pop_from_non_full_fifo_wakes_nobody(self):
        from repro.sim.kernel import Component, Simulator

        class Idle(Component):
            ticks = 0

            def step(self, now):
                self.ticks += 1
                return True

        sim = Simulator()
        idle = sim.add(Idle())
        fifo = TimedFifo(capacity=3, latency=1)
        fifo.producer = idle
        fifo.push("a", 0)
        fifo.push("b", 0)
        sim.run(5)
        fifo.pop(sim.now)  # 2 of 3 -> 1 of 3: the producer was never held
        sim.run(5)
        assert idle.ticks == 1

    def test_awake_producer_is_not_rewoken(self):
        sim, producer = self._producer(2)
        sim.run(2)  # two pushes, still in the active set
        producer.fifo.pop(sim.now)
        assert not sim._heap  # nothing scheduled for an active component


class TestFreezeThaw:
    """What a train does to each FIFO of its path (``noc/trains.py``)."""

    def test_freeze_then_thaw_moves_the_contents_d_cycles_on(self):
        from repro.sim.kernel import Component, Simulator

        class Idle(Component):
            def step(self, now):
                return True

        sim = Simulator()
        consumer = sim.add(Idle())
        fifo = TimedFifo(capacity=3, latency=2)
        fifo.consumer = consumer
        cell = [0]
        fifo.track_occupancy(cell, 4)
        fifo.push("a", 0)
        fifo.push("b", 1)
        sim.run(5)  # the consumer steps, finds nothing to do, retires
        entries = fifo.freeze()
        assert entries == [(2, "a"), (3, "b")]
        assert len(fifo) == 0 and cell == [0]
        assert (fifo.pushed, fifo.popped) == (2, 0)
        fifo.thaw(entries, 10, sim.now)
        assert list(fifo._q) == [(12, "a"), (13, "b")]
        assert cell == [4]
        assert (fifo.pushed, fifo.popped) == (12, 10)
        assert consumer._wake_cycle == 12

    def test_thaw_of_an_empty_freeze_only_credits(self):
        fifo = TimedFifo()
        fifo.thaw(fifo.freeze(), 7, 0)
        assert len(fifo) == 0 and (fifo.pushed, fifo.popped) == (7, 7)


class TestMeterRuns:
    def test_a_run_equals_its_beats(self):
        for first in range(0, 12):
            run, beats = ThroughputMeter(5), ThroughputMeter(5)
            run.add(8, first, 4)
            for cycle in range(first, first + 4):
                beats.add(8, cycle)
            assert ((run.bytes_total, run.bytes_measured)
                    == (beats.bytes_total, beats.bytes_measured)), first


#: What only ``sim/fifo.py`` writes (a FIFO's counters) and only
#: ``sim/stats.py`` writes (a meter's byte counts).
_OWNED_ATTRS = {"pushed", "popped", "bytes_total", "bytes_measured"}
#: Occupancy cells: ``occ`` and every ``occ_*`` / ``_occ_*`` cell a
#: component hands to ``track_occupancy``.
_OCC_CELL = re.compile(r"_?occ(_\w+)?$")
_DEQUE_WRITES = {"append", "appendleft", "extend", "extendleft", "pop",
                 "popleft", "clear", "insert", "remove", "rotate"}


def _name(node) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _stage_writes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for every write to FIFO or meter state in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in _OWNED_ATTRS
                        and (isinstance(node, ast.AugAssign)
                             or _name(target.value) != "self")):
                    found.append((node.lineno, f"writes .{target.attr}"))
                elif isinstance(target, ast.Subscript):
                    base = _name(target.value)
                    if base == "_q" or (base and _OCC_CELL.match(base)):
                        found.append((node.lineno, f"writes {base}[...]"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _DEQUE_WRITES
              and _name(node.func.value) == "_q"):
            found.append((node.lineno, f"calls ._q.{node.func.attr}()"))
    return found


def test_the_register_stage_is_written_once():
    """Outside ``sim/fifo.py`` no code writes a FIFO's queue, counters
    or occupancy cell, and outside ``sim/stats.py`` none credits a
    meter's bytes: hot loops move beats with ``push``/``pop`` and credit
    them with ``ThroughputMeter.add``.  (A pop re-inlined through an
    alias of ``_q`` still has to bump ``popped``, so it is caught too.)"""
    root = Path(repro.__file__).parent
    owners = {root / "sim" / "fifo.py", root / "sim" / "stats.py"}
    offences = [f"{path.relative_to(root.parent)}:{line}: {what}"
                for path in sorted(root.rglob("*.py")) if path not in owners
                for line, what in _stage_writes(ast.parse(path.read_text()))]
    assert not offences, "\n".join(offences)


def test_the_guard_sees_each_kind_of_write():
    src = ("fifo.pushed += 1\n"
           "link.r.popped += d\n"
           "meter.bytes_total += n\n"
           "m.bytes_measured = 0\n"
           "occ[0] -= 1\n"
           "fifo.occ[0] += fifo.occ_bit\n"
           "self._occ_w[0] = 0\n"
           "fifo._q.popleft()\n"
           "link.w._q.append((1, beat))\n"
           "fifo._q[0] = (now + 1, item)\n"
           # reads and unrelated writes pass
           "n = fifo.pushed + len(fifo._q)\n"
           "self.pushed = 0\n"
           "q = fifo._q\n"
           "if self._occ_req[0]: pass\n"
           "order.append(1)\n")
    assert sorted(line for line, _ in _stage_writes(ast.parse(src))) == list(
        range(1, 11))


#: The outcome counters and latency stats only ``faults.Recovery`` bumps.
_RECOVERY_COUNTERS = {"retransmissions", "dropped", "recovered",
                      "timeout_recovered", "orphaned"}
_RECOVERY_LATENCIES = {"recovery_latency", "timeout_latency"}


def _recovery_counts(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for every recovery-outcome count in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr in _RECOVERY_COUNTERS):
            found.append((node.lineno, f"bumps .{node.target.attr}"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add"
              and _name(node.func.value) in _RECOVERY_LATENCIES):
            found.append((node.lineno,
                          f"calls .{_name(node.func.value)}.add()"))
    return found


def test_recovery_is_counted_once():
    """Whether a lost unit is retried, dropped or recovered is decided
    and counted by ``faults.runtime.Recovery`` alone; the DMA and the
    packet mesh ask it.  The first assertion proves the walk sees each
    kind of count."""
    src = ("stats.retransmissions += 1\n"
           "self.stats.dropped += 1\n"
           "s.recovered += 1\n"
           "s.timeout_recovered += 1\n"
           "stats.orphaned += n\n"
           "stats.recovery_latency.add(now - t)\n"
           "s.timeout_latency.add(d)\n"
           # reads, plain assignments and other counters pass
           "self.packets_dropped += 1\n"
           "self.dropped = 0\n"
           "n = stats.dropped + stats.recovered\n"
           "self.latency.add(d)\n")
    assert sorted(line for line, _ in _recovery_counts(ast.parse(src))) == (
        list(range(1, 8)))
    root = Path(repro.__file__).parent
    owner = root / "faults" / "runtime.py"
    offences = [f"{path.relative_to(root.parent)}:{line}: {what}"
                for path in sorted(root.rglob("*.py")) if path != owner
                for line, what in _recovery_counts(
                    ast.parse(path.read_text()))]
    assert not offences, "\n".join(offences)
