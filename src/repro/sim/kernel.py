"""Activity-driven simulation kernel with quiet-cycle fast-forward.

The kernel owns a list of :class:`Component` objects and advances them
cycle by cycle.  Two execution modes share identical cycle-accurate
semantics (DESIGN.md §2):

* **always-step** (``activity=False``) — every registered component is
  stepped once per cycle in registration order.  This is the reference
  semantics; the golden-equivalence tests pin the activity mode to it.
* **activity-driven** (``activity=True``, the default) — only components
  in the *active set* are stepped.  A component leaves the active set
  when its step reports it *quiet* (nothing to do) or :data:`BLOCKED`
  (work held by something only another component can release); it
  re-enters when something wakes it: a
  :class:`~repro.sim.fifo.TimedFifo` push towards it, a pop that makes
  room in a full FIFO it produces into, a :meth:`Component.wake` (a DMA
  ``submit``, a completion callback, an event signal), or a
  self-scheduled :meth:`Component.next_event`.  When the active set is
  empty the kernel jumps ``now`` straight to the earliest scheduled
  wake, making idle stretches O(1) instead of O(components × cycles).

All inter-component communication happens through
:class:`~repro.sim.fifo.TimedFifo` register stages, which make the step
order within a cycle immaterial for correctness (DESIGN.md §1) and give
the kernel its wake-up spine.

The contract every activity-aware component must honour:

1. ``quiet()`` returns True only if stepping the component would be a
   no-op now *and on every future cycle* unless new input arrives
   through a watched FIFO, an explicit ``wake``, or the cycle named by
   ``next_event`` is reached.  (``quiet`` is about *steppability* — a
   component may be quiet while transactions it initiated are still in
   flight elsewhere; domain-level idleness keeps its usual ``idle()``
   spelling on the components that have one.)  ``quiet()`` is a pure
   function of the component's state, the same under both schedulers.
   A step that returns :data:`BLOCKED` makes the same promise for a
   component that is *not* quiet: it holds work, this step moved none
   of it, and every cause is one whose release raises a wake — a full
   FIFO it produces into (pop-side wake), a transfer or event it waits
   for (completion wake).  A blocked sleeper keeps
   :meth:`Simulator.all_quiet` False until it steps again: whoever
   takes its work away from outside must wake it, so that it can report
   the new state itself.
2. ``next_event(now)`` returns the earliest future cycle at which a
   quiet component must be stepped again for time-driven internal state
   (e.g. a Poisson arrival clock or a memory's access-latency queue);
   ``None`` means "only a wake revives me".
3. A spurious step must be harmless: stepping a quiet component may not
   change simulation state.  (This lets the kernel admit wakes early
   without affecting results.)
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterable

#: ``step()`` return value: "I hold work, this step moved none of it, and
#: only a wake can change that".  Truthy, so the component retires like a
#: quiet one, but the kernel counts it as a blocked sleeper.
BLOCKED = 2


class Component:
    """Base class for anything stepped by the simulator.

    Subclasses override :meth:`step`; activity-aware subclasses also
    override :meth:`quiet` (and :meth:`next_event` when they keep
    time-driven internal state).  The default ``quiet() -> False`` keeps
    legacy components stepped every cycle, which is always correct.
    """

    name: str = ""
    #: Open-loop sources (e.g. Poisson traffic generators) set this True:
    #: their pending future work never blocks :meth:`Simulator.all_quiet`,
    #: so a drain can complete between their injections.  Finite,
    #: scheduled work (a DNN core mid-compute) must leave it False.
    drain_transparent: bool = False
    #: Back-reference to the owning simulator (set by ``Simulator.add``).
    _sim: "Simulator | None" = None
    #: True while the component is in the simulator's active set.
    _in_active_set: bool = False
    #: Earliest scheduled wake cycle, or None (kernel bookkeeping).
    _wake_cycle: int | None = None
    #: Registration index; preserves step order among active components.
    _order: int = -1
    #: True while retired on a :data:`BLOCKED` step (kernel bookkeeping).
    _asleep_blocked: bool = False

    def step(self, now: int) -> bool | int | None:
        """Advance this component by one cycle.

        May return the value :meth:`quiet` would return after this step
        (hot components do, saving the kernel a second dispatch), or
        :data:`BLOCKED`; a ``None`` return means "ask :meth:`quiet`".
        """
        raise NotImplementedError

    def quiet(self) -> bool:
        """True when stepping can make no progress without new input."""
        return False

    def next_event(self, now: int) -> int | None:
        """Earliest cycle > ``now`` a quiet component needs a step, or None."""
        return None

    def blocked_on(self) -> str:
        """What a :data:`BLOCKED` component waits for (deadlock reports)."""
        return ""

    def wake(self, cycle: int | None = None) -> None:
        """Ensure this component is stepped at ``cycle`` (default: now).

        Call this whenever state the component depends on changes outside
        its watched FIFOs — queueing a transfer on a DMA engine, popping
        a full FIFO it produces into, completing a transfer it waits for.
        A wake raised *during* cycle ``t`` for cycle ``t`` is order-aware
        (:meth:`Simulator.wake_at`): it lands in ``t`` when this component
        is registered after the one being stepped — always-step would
        step it later in ``t`` and it would see the change — and in
        ``t + 1`` when registered before (it has already stepped).  No-op
        when the component is already active or not registered with a
        simulator.
        """
        sim = self._sim
        if sim is None or self._in_active_set:
            return
        sim.wake_at(self, sim.now if cycle is None else cycle)


class Simulator:
    """Steps registered components cycle by cycle.

    Parameters
    ----------
    freq_hz:
        Clock frequency used to convert cycle counts to wall-clock rates
        (the paper evaluates everything at 1 GHz).
    activity:
        True (default) enables the activity-driven kernel with
        quiet-cycle fast-forward; False forces the reference always-step
        mode (every component stepped every cycle).  Both modes produce
        identical simulation results for contract-honouring components.
    """

    def __init__(self, freq_hz: float = 1e9, activity: bool = True):
        if freq_hz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_hz}")
        self.freq_hz = freq_hz
        self.activity = activity
        self.now = 0
        self._components: list[Component] = []
        #: Components stepped this cycle, sorted by registration order.
        self._active: list[Component] = []
        #: Min-heap of (cycle, registration order, component) future wakes.
        self._heap: list[tuple[int, int, Component]] = []
        #: The component being stepped (None outside the activity loop):
        #: what makes a same-cycle wake order-aware.
        self._stepping: Component | None = None
        #: Components asleep on a BLOCKED step.
        self._n_blocked = 0
        #: ``step()`` calls made / cycles jumped over in quiet gaps.
        self.steps = 0
        self.cycles_skipped = 0

    def add(self, component: Component) -> Component:
        """Register ``component`` and return it (for chaining).

        Newly added components start in the active set; if they are
        already quiet they fall out after their first step.
        """
        component._sim = self
        component._order = len(self._components)
        component._in_active_set = True
        component._wake_cycle = None
        self._components.append(component)
        self._active.append(component)
        return component

    def extend(self, components: Iterable[Component]) -> None:
        for component in components:
            self.add(component)

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components)

    @property
    def active_count(self) -> int:
        """Number of components currently in the active set."""
        return len(self._active)

    def all_quiet(self) -> bool:
        """True when no component can ever act again without external
        input: every component is quiet with no pending ``next_event``.
        Always-step mode asks all of them; activity mode asks the active
        set (a component still in it may already be quiet — freshly
        added, or not yet stepped since its last input left), counts the
        blocked sleepers (retired, but by construction not quiet) and
        reads the wake heap for the rest, so both modes observe the same
        truth value at the same cycle.

        This is the exact termination condition
        :meth:`repro.noc.network.NocNetwork.drain` uses: unlike a
        network-state scan it also accounts for *future* work — a DNN
        core mid-``compute``, a memory response still in its latency
        queue — that would otherwise make a momentarily empty network
        look drained.  Components marked ``drain_transparent`` (open-loop
        traffic sources) are exempt: their endless arrival clocks must
        not hold a drain open forever.
        """
        last = self.now - 1
        for component in (self._active if self.activity
                          else self._components):
            if component.drain_transparent:
                continue
            if not component.quiet() or component.next_event(last) is not None:
                return False
        if self.activity:
            if self._n_blocked:
                return False
            for cycle, _, component in self._heap:
                if component.drain_transparent:
                    continue
                if component._in_active_set or component._wake_cycle != cycle:
                    continue  # superseded wake entry
                return False
        return True

    def blocked(self) -> list[Component]:
        """The components asleep on a :data:`BLOCKED` step, in
        registration order.  With the active set and the wake heap empty
        nothing can ever wake them: that state *is* a deadlock."""
        return [c for c in self._components if c._asleep_blocked]

    def wake_at(self, component: Component, cycle: int) -> None:
        """Schedule ``component`` to be active at ``cycle``.

        Idempotent and monotone: scheduling a later wake than one already
        pending is a no-op; earlier wakes supersede (the superseded heap
        entry is dropped lazily on pop).  Wakes for already-active
        components are no-ops.

        A wake for the current cycle raised while a component is being
        stepped is order-aware: a target registered after the stepping
        component joins this cycle's active list behind the cursor (the
        always-step loop would reach it later this cycle); one registered
        before has already had its turn and wakes next cycle.
        """
        if component._in_active_set:
            return
        cursor = self._stepping
        if cursor is not None and cycle <= self.now:
            if component._order > cursor._order:
                self._activate(component)
                return
            cycle = self.now + 1
        pending = component._wake_cycle
        if pending is not None and pending <= cycle:
            return
        component._wake_cycle = cycle
        heappush(self._heap, (cycle, component._order, component))

    def _activate(self, component: Component) -> None:
        """Insert a sleeping component into the active list, keeping it
        sorted by registration order.  Called mid-cycle only for a
        component registered after the cursor, so the insert lands
        strictly behind the list position being iterated."""
        component._wake_cycle = None
        component._in_active_set = True
        if component._asleep_blocked:
            component._asleep_blocked = False
            self._n_blocked -= 1
        active = self._active
        order = component._order
        lo, hi = 0, len(active)
        while lo < hi:
            mid = (lo + hi) // 2
            if active[mid]._order < order:
                lo = mid + 1
            else:
                hi = mid
        active.insert(lo, component)

    def _admit(self, now: int) -> None:
        """Move every wake due at or before ``now`` into the active set."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            cycle, _, component = heappop(heap)
            if component._in_active_set or component._wake_cycle != cycle:
                continue  # superseded by an earlier wake or already awake
            self._activate(component)

    def run(
        self,
        cycles: int,
        until: Callable[[int], bool] | None = None,
        until_idle: Callable[[], bool] | None = None,
    ) -> int:
        """Run for up to ``cycles`` more cycles.

        Parameters
        ----------
        cycles:
            Maximum number of cycles to advance.
        until:
            Optional predicate ``until(now)`` evaluated after each cycle;
            simulation stops early when it returns True.  May depend on
            ``now`` arbitrarily — during quiet-cycle fast-forward it is
            still evaluated at every intermediate cycle (component state
            is frozen across the gap, so results match always-step mode
            exactly).
        until_idle:
            Optional 0-argument predicate over *simulation state only*
            (it must not depend on ``now``), evaluated after each stepped
            cycle and once per quiet gap.  Stops the run when True.  This
            is what :meth:`repro.noc.network.NocNetwork.drain` uses to
            terminate on the exact cycle the network empties.

        Returns
        -------
        int
            The cycle count after the run (``self.now``).
        """
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        end = self.now + cycles
        if not self.activity:
            return self._run_always_step(end, until, until_idle)
        # Settled at entry consumes zero cycles, like the always-step
        # loop's top-of-iteration check.  The checks below come after a
        # stepped cycle, too late when a drain-transparent component (an
        # armed fault controller) keeps the active set non-empty.
        if until_idle is not None and until_idle():
            return self.now
        heap = self._heap
        while self.now < end:
            now = self.now
            if heap and heap[0][0] <= now:
                self._admit(now)
            active = self._active
            if not active:
                # Quiet gap: no component can make progress before the
                # next scheduled wake.  State is frozen, so jump.
                if until_idle is not None and until_idle():
                    break
                target = heap[0][0] if heap else end
                if target > end:
                    target = end
                if target <= now:  # defensive; wakes are always future
                    target = now + 1
                if until is None:
                    self.cycles_skipped += target - now
                    self.now = target
                    continue
                stopped = False
                while now < target:
                    now += 1
                    if until(now):
                        stopped = True
                        break
                self.cycles_skipped += now - self.now
                self.now = now
                if stopped:
                    break
                continue
            # Step and retire in one pass.  Retiring right after a
            # component's own step is safe: whatever a later component
            # does for it this cycle — a push towards it, a pop that
            # frees a FIFO it fills, a completion — finds it flagged
            # inactive and raises a wake, which lands exactly when
            # always-step mode would first act on the change.  Same-cycle
            # wakes insert into ``active`` behind the cursor, so the loop
            # reaches them in registration order.
            dirty = False
            try:
                for component in active:
                    self._stepping = component
                    retire = component.step(now)
                    if retire is None:
                        retire = component.quiet()
                    if retire:
                        component._in_active_set = False
                        dirty = True
                        if retire == BLOCKED:
                            component._asleep_blocked = True
                            self._n_blocked += 1
                        wake = component.next_event(now)
                        if wake is not None:
                            if wake <= now:
                                wake = now + 1
                            self.wake_at(component, wake)
            finally:
                # Also on a raising step(): the kernel stays usable.
                self._stepping = None
                self.steps += len(active)
                if dirty:
                    self._active = [c for c in active if c._in_active_set]
            self.now = now = now + 1
            if until is not None and until(now):
                break
            if until_idle is not None and until_idle():
                break
        return self.now

    def _run_always_step(self, end, until, until_idle) -> int:
        """Reference semantics: every component stepped every cycle.

        ``until_idle`` is evaluated at the top of each iteration — i.e.
        before a cycle is stepped — which covers both "settled after the
        previous cycle" and "already settled at entry".  This mirrors
        the activity kernel exactly: its quiet-gap check fires before
        advancing, so a drain entered on a settled network must consume
        zero cycles in both modes.
        """
        components = self._components
        while self.now < end:
            if until_idle is not None and until_idle():
                break
            now = self.now
            for component in components:
                component.step(now)
            self.steps += len(components)
            self.now = now + 1
            if until is not None and until(self.now):
                break
        return self.now
