"""Unit and property tests for the two-phase register-stage FIFO."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.fifo import TimedFifo


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

    def test_drain_empties_everything(self):
        fifo = TimedFifo(capacity=4, latency=5)
        fifo.push(1, 0)
        fifo.push(2, 0)
        assert list(fifo.drain()) == [1, 2]
        assert len(fifo) == 0

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
