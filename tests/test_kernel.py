"""Tests for the activity-driven simulation kernel."""

import pytest

from repro.sim.fifo import TimedFifo
from repro.sim.kernel import BLOCKED, Component, Simulator


class Ticker(Component):
    def __init__(self):
        self.ticks = []

    def step(self, now):
        self.ticks.append(now)


class Sleeper(Component):
    """Steps once, then sleeps until an explicit wake (or forever)."""

    def __init__(self, wake_after=None):
        self.ticks = []
        self.wake_after = wake_after

    def step(self, now):
        self.ticks.append(now)

    def quiet(self):
        return True

    def next_event(self, now):
        return None if self.wake_after is None else now + self.wake_after


class TestSimulator:
    def test_runs_requested_cycles(self):
        sim = Simulator()
        ticker = sim.add(Ticker())
        assert sim.run(10) == 10
        assert ticker.ticks == list(range(10))

    def test_run_resumes_from_now(self):
        sim = Simulator()
        ticker = sim.add(Ticker())
        sim.run(3)
        sim.run(2)
        assert ticker.ticks == [0, 1, 2, 3, 4]

    def test_until_stops_early(self):
        sim = Simulator()
        sim.add(Ticker())
        sim.run(100, until=lambda now: now >= 7)
        assert sim.now == 7

    def test_components_step_in_registration_order(self):
        order = []

        class Probe(Component):
            def __init__(self, tag):
                self.tag = tag

            def step(self, now):
                order.append(self.tag)

        sim = Simulator()
        sim.add(Probe("a"))
        sim.add(Probe("b"))
        sim.run(1)
        assert order == ["a", "b"]

    def test_extend_registers_all(self):
        sim = Simulator()
        sim.extend([Ticker(), Ticker()])
        assert len(sim.components) == 2

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            Simulator().run(-1)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            Simulator(freq_hz=0)


class TestActivityKernel:
    def test_legacy_components_step_every_cycle(self):
        """Components without a quiet() override are always active."""
        sim = Simulator()
        ticker = sim.add(Ticker())
        sim.run(50)
        assert ticker.ticks == list(range(50))

    def test_quiet_component_fast_forwards(self):
        sim = Simulator()
        sleeper = sim.add(Sleeper())
        assert sim.run(1_000_000) == 1_000_000  # O(1), not O(cycles)
        assert sleeper.ticks == [0]  # stepped once, then retired

    def test_next_event_wakes_at_exact_cycle(self):
        sim = Simulator()
        sleeper = sim.add(Sleeper(wake_after=10))
        sim.run(35)
        assert sleeper.ticks == [0, 10, 20, 30]

    def test_until_is_evaluated_inside_quiet_gaps(self):
        sim = Simulator()
        sim.add(Sleeper())
        sim.run(1_000, until=lambda now: now >= 123)
        assert sim.now == 123

    def test_fifo_push_wakes_consumer_at_visibility(self):
        sim = Simulator()

        class Consumer(Component):
            def __init__(self):
                self.fifo = TimedFifo(capacity=4, latency=3)
                self.fifo.consumer = self
                self.popped_at = []

            def step(self, now):
                if self.fifo.peek(now) is not None:
                    self.fifo.pop(now)
                    self.popped_at.append(now)

            def quiet(self):
                return len(self.fifo) == 0

        consumer = sim.add(Consumer())
        sim.run(10)  # consumer retires after its first step
        consumer.fifo.push("beat", sim.now)
        sim.run(20)
        assert consumer.popped_at == [13]  # 10 + latency 3, exactly

    def test_external_wake_revives_component(self):
        sim = Simulator()
        sleeper = sim.add(Sleeper())
        sim.run(10)
        sleeper.wake(sim.now)
        sim.run(10)
        assert sleeper.ticks == [0, 10]

    def test_step_return_value_retires_component(self):
        class OneShot(Component):
            def __init__(self):
                self.steps = 0

            def step(self, now):
                self.steps += 1
                return True  # quiet immediately, without a quiet() call

            def quiet(self):  # pragma: no cover - must not be consulted
                raise AssertionError("kernel should trust step()'s return")

        sim = Simulator()
        one = sim.add(OneShot())
        sim.run(100)
        assert one.steps == 1

    def test_earlier_wake_supersedes_later(self):
        """Wakes are monotone: an earlier wake replaces a pending later
        one (the component re-derives any remaining obligation via
        next_event when it retires again)."""
        sim = Simulator()
        sleeper = sim.add(Sleeper())
        sim.run(2)  # retired after its step at cycle 0
        sim.wake_at(sleeper, 5)
        sim.wake_at(sleeper, 3)
        sim.run(18)
        assert sleeper.ticks == [0, 3]

    def test_wake_for_active_component_is_noop(self):
        """A wake aimed at a component already in the active set is
        dropped: the component steps anyway, and its retirement
        re-derives future obligations."""
        sim = Simulator()
        ticker = sim.add(Ticker())
        sim.wake_at(ticker, 5)
        sim.run(10)
        assert ticker.ticks == list(range(10))

    def test_always_step_mode_matches_reference_loop(self):
        fast = Simulator(activity=True)
        slow = Simulator(activity=False)
        a, b = fast.add(Sleeper(wake_after=7)), slow.add(Sleeper(wake_after=7))
        fast.run(50)
        slow.run(50)
        # The always-step kernel steps every cycle; the activity kernel
        # must act on exactly the cycles where the reference could have
        # made progress.
        assert b.ticks == list(range(50))
        assert a.ticks == [0, 7, 14, 21, 28, 35, 42, 49]

    def test_all_quiet_accounts_for_future_work(self):
        sim = Simulator()
        sim.add(Sleeper(wake_after=30))
        sim.run(1)
        assert not sim.all_quiet()  # a wake is pending in the heap

    def test_all_quiet_when_everything_retired(self):
        sim = Simulator()
        sim.add(Sleeper())
        sim.run(5)
        assert sim.all_quiet()

    def test_drain_transparent_source_does_not_block_all_quiet(self):
        source = Sleeper(wake_after=100)
        source.drain_transparent = True
        sim = Simulator()
        sim.add(source)
        sim.run(1)
        assert sim.all_quiet()

    def test_active_count_shrinks_and_grows(self):
        sim = Simulator()
        sim.add(Ticker())
        sleeper = sim.add(Sleeper())
        sim.run(5)
        assert sim.active_count == 1
        sleeper.wake(sim.now)
        sim.run(1)
        assert sleeper.ticks == [0, 5]


class Waker(Component):
    """Wakes ``target`` (for the current cycle) on the cycles in ``at``."""

    def __init__(self, target, at, log):
        self.target = target
        self.at = set(at)
        self.log = log

    def step(self, now):
        self.log.append(("waker", now))
        if now in self.at:
            self.target.wake()


class Logged(Component):
    """Steps once per wake, recording when."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def step(self, now):
        self.log.append((self.tag, now))
        return True


class TestOrderAwareWake:
    def test_registered_after_the_waker_steps_the_same_cycle_behind_it(self):
        log = []
        sim = Simulator()
        target = Logged("late", log)
        sim.add(Waker(target, at=[3], log=log))
        sim.add(target)
        sim.run(5)
        assert [e for e in log if e[0] == "late"] == [("late", 0), ("late", 3)]
        assert log.index(("waker", 3)) < log.index(("late", 3))

    def test_registered_before_the_waker_steps_the_next_cycle(self):
        log = []
        sim = Simulator()
        target = sim.add(Logged("early", log))
        sim.add(Waker(target, at=[3], log=log))
        sim.run(6)
        assert [e for e in log if e[0] == "early"] == [("early", 0),
                                                       ("early", 4)]

    def test_both_orders_match_the_always_step_view(self):
        """The rule *is* always-step's: a component sees a same-cycle
        change iff it steps after the component that made it."""
        for activity in (True, False):
            sim = Simulator(activity=activity)
            seen = {}

            class Flag(Component):
                value = 0

                def step(self, now):
                    if now == 2:
                        self.value = 1
                        before.wake()
                        after.wake()

            class Reader(Component):
                def __init__(self, tag, flag):
                    self.tag, self.flag = tag, flag

                def step(self, now):
                    if self.flag.value and self.tag not in seen:
                        seen[self.tag] = now
                    return True

            flag = Flag()
            before, after = Reader("before", flag), Reader("after", flag)
            sim.extend([before, flag, after])
            sim.run(6)
            assert seen == {"before": 3, "after": 2}, activity

    def test_wake_outside_run_lands_at_now(self):
        log = []
        sim = Simulator()
        target = sim.add(Logged("t", log))
        sim.run(7)
        target.wake()
        sim.run(3)
        assert log == [("t", 0), ("t", 7)]

    def test_active_list_stays_sorted_under_same_cycle_wakes(self):
        log = []
        sim = Simulator()
        sleepers = [Logged(k, log) for k in range(6)]

        class WakeAll(Component):
            def step(self, now):
                if now == 4:
                    for s in reversed(sleepers):  # worst insertion order
                        s.wake()

        sim.extend(sleepers[:2])
        sim.add(WakeAll())
        sim.extend(sleepers[2:])
        sim.run(5)  # cycle 4: sleepers 2..5 join this cycle, 0..1 the next
        assert [tag for tag, now in log if now == 4] == [2, 3, 4, 5]
        sim.run(1)
        assert [tag for tag, now in log if now == 5] == [0, 1]
        orders = [c._order for c in sim._active]
        assert orders == sorted(orders)

    def test_raising_step_leaves_the_kernel_reusable(self):
        log = []

        class Bomb(Component):
            armed = True

            def step(self, now):
                if now == 2 and self.armed:
                    self.armed = False
                    raise RuntimeError("boom")

        sim = Simulator()
        early = sim.add(Logged("early", log))
        sim.add(Bomb())
        late = sim.add(Logged("late", log))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(5)
        assert sim.now == 2  # the failed cycle did not complete
        # Outside run() again: wakes land at now, for either order.
        early.wake()
        late.wake()
        sim.run(3)
        assert sim.now == 5
        assert ("early", 2) in log and ("late", 2) in log
        orders = [c._order for c in sim._active]
        assert orders == sorted(orders)


class Stuck(Component):
    """Holds one piece of work it cannot move until ``release`` is
    called; the step after that finishes it."""

    def __init__(self):
        self.held = True
        self.done = False
        self.ticks = []

    def release(self):
        self.held = False
        self.wake()

    def quiet(self):
        return self.done

    def step(self, now):
        self.ticks.append(now)
        if self.held:
            return BLOCKED
        self.done = True
        return True


class TestBlockedSleepers:
    def test_blocked_component_sleeps_but_is_not_quiet(self):
        fast, slow = Simulator(), Simulator(activity=False)
        a, b = fast.add(Stuck()), slow.add(Stuck())
        fast.run(100)
        slow.run(100)
        assert a.ticks == [0] and b.ticks == list(range(100))
        assert not fast.all_quiet() and not slow.all_quiet()
        assert fast.blocked() == [a]
        for stuck, sim in ((a, fast), (b, slow)):
            stuck.release()
            sim.run(10)
            assert sim.all_quiet()
        assert a.ticks == [0, 100] and fast.blocked() == []

    def test_until_idle_agrees_between_schedulers_with_a_sleeper(self):
        """A blocked sleeper keeps ``until_idle=all_quiet`` from firing;
        both schedulers then stop on the same cycle after the release."""
        stops = []
        for activity in (True, False):
            sim = Simulator(activity=activity)
            stuck = sim.add(Stuck())

            class Releaser(Component):
                def step(self, now):
                    if now == 40:
                        stuck.release()
                    return now >= 40

                def quiet(self):
                    return sim.now > 40

                def next_event(self, now):
                    return 40 if now < 40 else None

            sim.add(Releaser())
            sim.run(1000, until_idle=sim.all_quiet)
            stops.append(sim.now)
        assert stops[0] == stops[1] == 42  # released at 40, seen at 41

    def test_step_and_skip_counters(self):
        fast, slow = Simulator(), Simulator(activity=False)
        fast.add(Sleeper(wake_after=10))
        slow.add(Sleeper(wake_after=10))
        fast.run(35)
        slow.run(35)
        assert (fast.steps, fast.cycles_skipped) == (4, 31)
        assert (slow.steps, slow.cycles_skipped) == (35, 0)
