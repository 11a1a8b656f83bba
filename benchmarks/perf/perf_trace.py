"""In-memory span recorder, the host-speed reference clock, and the
small statistics the harness reports.

Spans are recorded by the harness around its calls into each layer's
public functions (nothing inside ``src/repro`` is instrumented).  A
span is ``{name, start, end, parent, op}``; spans of one op share the
``op`` identifier.  They stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Nested wall-clock spans of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": op}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, children's time excluded: a span's
        self time is its duration minus the part its child spans cover
        (children of one span never overlap — the harness is serial)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            own = span["end"] - span["start"] - child_time
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def hi_percentile(samples) -> tuple[float, int, int]:
    """``(value, percentile, n)``: the highest whole percentile that
    still has at least ten samples beyond it — the tail the sample
    count can actually support (p50 when there are fewer than 20)."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n else 50
    index = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return ordered[index], pct, n


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (0 when there are too few values to have quartiles)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# host-speed reference
# ----------------------------------------------------------------------
#: The unit of every gated time: seconds on a host that runs one
#: ``HostClock`` sample in 20 ms.  A definition, not a measurement; the
#: box the baseline was recorded on takes 17-35 ms, depending on the
#: minute.
REFERENCE_SAMPLE_S = 0.020


class _Node:
    __slots__ = ("queue", "next")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.next: "_Node | None" = None

    def step(self, now: int) -> None:
        queue = self.queue
        if queue:
            self.next.queue.append(queue.popleft())
        else:
            queue.append(now)


class HostClock:
    """How fast is the host right now?

    The same pass of the same simulator takes 1x to 1.9x as long on the
    sandbox from one ten seconds to the next, CPU time moving with wall
    time, so that no statistic over raw timings is steady enough to gate
    on (README.md, "Statistics", has the measurements).  A sample times
    a fixed piece of interpreter work that owes nothing to the
    simulator: objects passing items along a shuffled ring of 5000
    deques (larger than the L1 cache), then a tight integer loop.  A
    time is scaled by the samples taken just before and just after it.
    """

    def __init__(self) -> None:
        nodes = [_Node() for _ in range(5000)]
        order = list(range(len(nodes)))
        random.Random(1).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            nodes[a].next = nodes[b]
        self._nodes = nodes
        self._taken, self._seconds = -math.inf, 0.0
        #: Seconds spent sampling so far (set-up time leaves them out).
        self.spent = 0.0

    def sample(self, max_age: float = 0.0) -> float:
        """Seconds the fixed work takes now; a sample taken less than
        ``max_age`` seconds ago is reused."""
        t0 = time.perf_counter()
        if t0 - self._taken <= max_age:
            return self._seconds
        for now in range(12):
            for node in self._nodes:
                node.step(now)
        acc = 0
        for i in range(150_000):
            acc += i & 7
        self._taken = time.perf_counter()
        self._seconds = self._taken - t0
        self.spent += self._seconds
        return self._seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns a time measured between those two samples
        into reference-host seconds."""
        return 2 * REFERENCE_SAMPLE_S / (before + after)
