"""Per-core command scripts: the execution model for DNN traffic.

GVSoC runs real software on simulated RISC-V cores; our substitute runs
small command scripts per core that produce the same *communication
structure*: DMA transfers with data dependencies and compute gaps.

Ops (tuples, first element is the opcode):

* ``("compute", cycles)`` — core busy for ``cycles``.
* ``("read", dest_ep, offset, nbytes)`` / ``("write", ...)`` — blocking
  DMA transfer; the script resumes when the transfer completes.
* ``("read_async", dest_ep, offset, nbytes, event|None)`` /
  ``("write_async", ...)`` — fire-and-forget; optionally signals an
  :class:`Event` on completion (how a producer tells a consumer its tile
  landed).
* ``("signal", event)`` — increment an event counter now.
* ``("await", event, count)`` — block until the event has been signalled
  at least ``count`` times (absolute; for one-shot scripts).
* ``("await_next", event, n)`` — block until ``n`` *further* signals have
  arrived beyond what this op already consumed — the loop-safe
  handshake used by steady-state workloads (barriers, pipelines).
* ``("drain",)`` — block until this core's DMA has nothing in flight.
* ``("throttle", k)`` — block while more than ``k`` transfers are queued
  or in flight at this core's DMA (bounded run-ahead, i.e. double/multi
  buffering).

Scripts loop forever (steady-state measurement) unless ``loop=False``.
"""

from __future__ import annotations

from repro.axi.transaction import Transfer
from repro.endpoints.dma import DmaEngine
from repro.noc.network import NocNetwork
from repro.sim.kernel import BLOCKED, Component


class Event:
    """A monotonically counting synchronisation event."""

    __slots__ = ("name", "count", "last_cycle", "waiters")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.last_cycle = -1
        #: Scripts asleep in an ``await``/``await_next`` on this event.
        self.waiters: list[Component] = []

    def signal(self, now: int) -> None:
        self.count += 1
        self.last_cycle = now
        waiters = self.waiters
        if waiters:
            self.waiters = []
            for waiter in waiters:
                waiter.wake()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event({self.name}, count={self.count})"


class CoreScript(Component):
    """Executes one core's op list against its DMA engine."""

    def __init__(self, net: NocNetwork, core: int, ops: list[tuple], *,
                 loop: bool = True, name: str = ""):
        dma = net.dmas[core]
        if dma is None:
            raise ValueError(f"core {core} has no DMA engine")
        self.net = net
        self.core = core
        self.dma: DmaEngine = dma
        dma.watchers.append(self)  # burst issue/completion wakes us
        self.ops = ops
        self.loop = loop
        self.name = name or f"script{core}"
        self._pc = 0
        self._busy_until = 0
        self._last_now = -1
        self._waiting_transfer = False
        self._transfer_done_at = -1
        self._consumed: dict[int, int] = {}  # per-op event consumption
        self.iterations = 0
        self.done = len(ops) == 0
        self.bytes_requested = 0

    # ------------------------------------------------------------------
    def _submit(self, dest_ep: int, offset: int, nbytes: int, is_read: bool,
                now: int, event: Event | None, blocking: bool) -> None:
        addr = self.net.addr_of(dest_ep, offset)
        if blocking:
            self._waiting_transfer = True

            def on_complete(cycle: int, script=self, ev=event) -> None:
                script._waiting_transfer = False
                script._transfer_done_at = cycle
                if ev is not None:
                    ev.signal(cycle)
        else:
            def on_complete(cycle: int, ev=event) -> None:
                if ev is not None:
                    ev.signal(cycle)
        self.dma.submit(Transfer(src=self.core, addr=addr, nbytes=nbytes,
                                 is_read=is_read, dest=dest_ep, created=now,
                                 on_complete=on_complete))
        self.bytes_requested += nbytes

    def quiet(self) -> bool:
        """Finished scripts are quiet forever; a core mid-``compute`` is
        quiet until the op elapses (nothing external can shorten it).  A
        core blocked on a transfer, an event, ``drain`` or ``throttle``
        is not quiet, yet it sleeps: ``step`` returns BLOCKED, and what
        it waits for wakes it the cycle always-step would see it move —
        its DMA engine on every burst issue and completion (it is one
        of the engine's ``watchers``), an event on ``signal``."""
        return self.done or (not self._waiting_transfer
                             and self._busy_until > self._last_now + 1)

    def blocked_on(self) -> str:
        if self._waiting_transfer:
            return "a blocking transfer"
        op = self.ops[self._pc]
        return f"{op[0]} {op[1]!r}" if len(op) > 1 else op[0]

    def next_event(self, now: int) -> int | None:
        if self.done or self._busy_until <= now:
            return None  # blocked, not computing: only a wake revives us
        return self._busy_until

    def _await(self, event: Event) -> int:
        if self not in event.waiters:
            event.waiters.append(self)
        return BLOCKED

    def step(self, now: int) -> bool | int:
        self._last_now = now
        if self.done:
            return True
        if self._waiting_transfer:
            return BLOCKED
        if now < self._busy_until:
            return self._busy_until > now + 1
        while True:
            if self._pc >= len(self.ops):
                self.iterations += 1
                if not self.loop:
                    self.done = True
                    return True
                self._pc = 0
                return False  # at most one loop iteration per cycle
            op = self.ops[self._pc]
            kind = op[0]
            if kind == "compute":
                self._pc += 1
                if op[1] > 0:
                    self._busy_until = now + op[1]
                    return op[1] > 1
            elif kind == "read" or kind == "write":
                self._pc += 1
                self._submit(op[1], op[2], op[3], kind == "read", now,
                             None, blocking=True)
                return BLOCKED
            elif kind == "read_async" or kind == "write_async":
                self._pc += 1
                self._submit(op[1], op[2], op[3], kind == "read_async", now,
                             op[4], blocking=False)
                # Async submission costs no script time; continue.
            elif kind == "signal":
                op[1].signal(now)
                self._pc += 1
            elif kind == "await":
                if op[1].count >= op[2]:
                    self._pc += 1
                else:
                    return self._await(op[1])
            elif kind == "await_next":
                consumed = self._consumed.get(self._pc, 0)
                if op[1].count >= consumed + op[2]:
                    self._consumed[self._pc] = consumed + op[2]
                    self._pc += 1
                else:
                    return self._await(op[1])
            elif kind == "drain":
                if self.dma.idle():
                    self._pc += 1
                else:
                    return BLOCKED
            elif kind == "throttle":
                if self.dma.backlog() <= op[1]:
                    self._pc += 1
                else:
                    return BLOCKED
            else:
                raise ValueError(f"{self.name}: unknown op {kind!r}")


def install_scripts(net: NocNetwork, scripts: dict[int, list[tuple]], *,
                    loop: bool = True) -> list[CoreScript]:
    """Create and register a :class:`CoreScript` per core."""
    runners = []
    for core, ops in scripts.items():
        runner = CoreScript(net, core, ops, loop=loop)
        net.sim.add(runner)
        runners.append(runner)
    return runners
