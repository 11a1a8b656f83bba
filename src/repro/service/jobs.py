"""Async sweep jobs for the scenario service (DESIGN.md §12).

A :class:`JobManager` builds each job's
:class:`~repro.scenarios.sweep.SweepPlan` in the thread that submits
it, so what the result store already holds is answered there, and
queues the plan only if something is left to simulate: one daemon
worker thread runs the queued plans in FIFO order — on the existing
process-pool execution path (``jobs`` workers, retry hardening, store
write-back) — and the HTTP layer stays a thin, non-blocking front end.
Every finalized point appends one progress event, stored as the NDJSON
line the server streams back.  A finished job keeps its ``/results``
body, encoded once and compressed, and drops its Scenarios and Results
(DESIGN.md §12 "What a finished job keeps").
"""

from __future__ import annotations

import itertools
import json
import threading
import zlib
from collections import deque

from repro.scenarios.result import paired_payload
from repro.scenarios.spec import Scenario
from repro.scenarios.sweep import ProgressEvent, SweepPlan, check_jobs
from repro.store import ResultStore, check_cache_mode

#: Lifecycle of a job.  queued → running → done | failed, or done at
#: submit when the store holds every point.  "failed" means the sweep
#: itself raised (bad spec interactions, broken store root); individual
#: point failures leave the job "done" with a non-zero ``errors``
#: counter and ``None`` results.
JOB_STATUSES = ("queued", "running", "done", "failed")


def _line(event: dict) -> str:
    return json.dumps(event) + "\n"


def _point_line(ev: ProgressEvent) -> str:
    return _line({"index": ev.index, "done": ev.done, "total": ev.total,
                  "status": ev.status, "label": ev.scenario.label})


def _encode(points: list[Scenario], results: list) -> bytes:
    """The zlib-compressed ``/results`` body of a finished job."""
    return zlib.compress(
        (json.dumps(paired_payload(points, results)) + "\n").encode(), 1)


class Job:
    """One submitted sweep and everything observable about it: its
    counters, its progress ``lines`` and ``body`` — the
    zlib-compressed ``/results`` bytes (``None`` unless ``done``).
    Every hit is known at submit, its event already in ``lines``; the
    worker's events follow them."""

    def __init__(self, job_id: str, total: int, hit_lines: list[str]):
        self.id = job_id
        self.total = total
        self.status = "queued"
        self.done = self.hits = len(hit_lines)
        self.misses = 0
        self.errors = 0
        self.lines: list[str] = hit_lines
        self.body: bytes | None = None
        self.error: str | None = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    def snapshot(self) -> dict:
        """The status document the HTTP layer serves (caller holds the
        manager lock)."""
        return {"job": self.id, "status": self.status,
                "total": self.total, "done": self.done,
                "hits": self.hits, "misses": self.misses,
                "errors": self.errors, "error": self.error}

    def finish(self, body: bytes) -> None:
        """Publish ``done`` (caller holds the manager lock): body,
        status and end line land together, so a client that has seen
        ``end`` gets a 200.  Every point has sent its event by now, so
        the counters are final."""
        self.body = body
        self.status = "done"
        self.lines.append(_line({"event": "end", "status": "done",
                                 "hits": self.hits, "misses": self.misses,
                                 "errors": self.errors,
                                 "total": self.total}))


class JobManager:
    """Sweep plans built at submit + a FIFO of the ones with misses,
    run by one worker thread."""

    def __init__(self, store=None, *, cache: str = "rw", jobs: int = 1):
        check_cache_mode(cache)
        self.cache = cache
        self.store = (ResultStore.coerce(store)
                      if cache != "off" else None)
        self.jobs = check_jobs(jobs)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: deque[tuple[Job, SweepPlan]] = deque()
        self._by_id: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._shutdown = False
        self._worker = threading.Thread(
            target=self._loop, name="repro-job-worker", daemon=True)
        self._worker.start()

    # -- client surface ------------------------------------------------
    def submit(self, points: list[Scenario]) -> Job:
        """Plan a sweep in the calling thread — its store hits are
        answered here — and queue the plan if it has misses; returns
        the Job, already ``done`` when the store held every point.  It
        runs with the manager's ``jobs`` and ``cache``."""
        if not points:
            raise ValueError("a job needs at least one scenario point")
        # The reads, and an all-hit job's encode, run outside the lock.
        # ``put`` replaces an entry atomically, so a read racing the
        # worker's write-back sees the old entry, the new one or a miss.
        hit_lines: list[str] = []
        plan = SweepPlan(points, cache=self.cache, store=self.store,
                         on_point=lambda ev: hit_lines.append(_point_line(ev)))
        body = _encode(points, plan.results) if not plan.pending else None
        with self._wake:
            job = Job(f"j{next(self._ids)}", len(points), hit_lines)
            self._by_id[job.id] = job
            if body is not None:  # never queued
                job.finish(body)
            else:
                self._queue.append((job, plan))
                self._wake.notify()
        return job

    def snapshots(self) -> list[dict]:
        with self._lock:
            return [job.snapshot() for job in self._by_id.values()]

    def snapshot(self, job_id: str) -> dict | None:
        with self._lock:
            job = self._by_id.get(job_id)
            return job.snapshot() if job is not None else None

    def events_since(self, job_id: str, since: int
                     ) -> tuple[list[str], bool] | None:
        """(NDJSON lines[since:], finished) — one poll of the progress
        stream; ``None`` for an unknown job."""
        with self._lock:
            job = self._by_id.get(job_id)
            if job is None:
                return None
            return job.lines[since:], job.finished

    def results_payload(self, job_id: str) -> bytes | None:
        """The ``/results`` body: compact JSON of the scenario + result
        pairs (``save_results_json`` shape) plus a newline; ``None``
        unless the job is done."""
        with self._lock:
            job = self._by_id.get(job_id)
            body = job.body if job is not None else None
        # A finished body never changes: inflate it unlocked.
        return zlib.decompress(body) if body is not None else None

    def shutdown(self) -> None:
        """Stop the worker after the current job (daemon thread: safe
        to skip on interpreter exit)."""
        with self._wake:
            self._shutdown = True
            self._wake.notify()

    # -- worker --------------------------------------------------------
    def _loop(self) -> None:
        """Run queued plans in FIFO order.  One frame holds a job's plan
        and drops it, with its Scenarios and Results, before the job is
        published ``done``."""
        while True:
            with self._wake:
                while not self._queue and not self._shutdown:
                    self._wake.wait()
                if self._shutdown and not self._queue:
                    return
                job, plan = self._queue.popleft()
                job.status = "running"

            def on_point(ev: ProgressEvent) -> None:
                line = _point_line(ev)
                with self._lock:
                    job.done = ev.done
                    if ev.status == "error":
                        job.errors += 1
                    else:
                        job.misses += 1
                    job.lines.append(line)

            try:
                results = plan.run(self.jobs, on_point)
            except Exception as exc:
                del plan
                with self._lock:
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.status = "failed"
                    job.lines.append(_line({"event": "end",
                                            "status": "failed",
                                            "error": job.error}))
                continue
            # Encoded once, outside the lock; the job stays "running",
            # with no end line, until ``finish`` publishes it whole.
            body = _encode(plan.points, results)
            del plan, results  # a done job keeps none of them alive
            with self._lock:
                job.finish(body)
