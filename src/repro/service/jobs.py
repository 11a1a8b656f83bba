"""Async sweep jobs for the scenario service (DESIGN.md §12).

A :class:`JobManager` answers what the result store already holds in
the thread that submits a job, and queues only the rest: one daemon
worker thread drains a FIFO of miss sets through
:func:`~repro.scenarios.sweep.run_sweep` — so misses land on the
existing process-pool execution path (``jobs`` workers, retry
hardening, store write-back) and the HTTP layer stays a thin,
non-blocking front end.  Every finalized point appends one progress
event, stored as the NDJSON line the server streams back.  A finished
job keeps its ``/results`` body, encoded once and compressed, and drops
its Scenarios and Results (DESIGN.md §12 "What a finished job keeps").
"""

from __future__ import annotations

import itertools
import json
import threading
import zlib
from collections import deque

from repro.scenarios.result import paired_payload
from repro.scenarios.spec import Scenario
from repro.scenarios.sweep import ProgressEvent, run_sweep
from repro.store import ResultStore, check_cache_mode

#: Lifecycle of a job.  queued → running → done | failed, or done at
#: submit when the store holds every point.  "failed" means run_sweep
#: itself raised (bad spec interactions, broken store root); individual
#: point failures leave the job "done" with a non-zero ``errors``
#: counter and ``None`` results.
JOB_STATUSES = ("queued", "running", "done", "failed")


def _check_jobs(jobs: int) -> int:
    """``jobs``, or ValueError if it is below 1 (as ``run_sweep``)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _line(event: dict) -> str:
    return json.dumps(event) + "\n"


def _point_line(index: int, done: int, total: int, status: str,
                scenario: Scenario) -> str:
    return _line({"index": index, "done": done, "total": total,
                  "status": status, "label": scenario.label})


def _encode(points: list[Scenario], results: list) -> bytes:
    """The zlib-compressed ``/results`` body of a finished job."""
    return zlib.compress(
        (json.dumps(paired_payload(points, results)) + "\n").encode(), 1)


class Job:
    """One submitted sweep and everything observable about it.

    ``work`` is what the worker takes when it starts the job: the
    points and their submit-time results (a store hit, or ``None`` at
    each miss); ``None`` once taken, and for a job finished at submit.
    From then on the job is its counters, its progress ``lines`` and
    ``body`` — the zlib-compressed ``/results`` bytes (``None`` unless
    ``done``)."""

    def __init__(self, job_id: str, total: int, hit_lines: list[str], *,
                 jobs: int, cache: str):
        self.id = job_id
        self.work: tuple[list[Scenario], list] | None = None
        self.total = total
        self.jobs = jobs
        self.cache = cache
        self.status = "queued"
        #: Points the store answered at submit, their events already in
        #: ``lines``; the worker's events follow them.
        self.submit_hits = len(hit_lines)
        self.done = self.submit_hits
        self.hits = self.submit_hits
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
                "errors": self.errors, "jobs": self.jobs,
                "cache": self.cache, "error": self.error}

    def finish(self, body: bytes, *, hits: int, misses: int,
               errors: int) -> None:
        """Publish ``done`` (caller holds the manager lock): body,
        counters, status and end line land together, so a client that
        has seen ``end`` gets a 200."""
        self.body = body
        self.done = self.total
        self.hits, self.misses, self.errors = hits, misses, errors
        self.status = "done"
        self.lines.append(_line({"event": "end", "status": "done",
                                 "hits": hits, "misses": misses,
                                 "errors": errors, "total": self.total}))


class JobManager:
    """Store hits answered at submit + a FIFO of misses drained by one
    worker thread over ``run_sweep``."""

    def __init__(self, store=None, *, cache: str = "rw", jobs: int = 1):
        check_cache_mode(cache)
        self.cache = cache
        self.store = (ResultStore.coerce(store)
                      if cache != "off" else None)
        self.jobs = _check_jobs(jobs)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: deque[Job] = deque()
        self._by_id: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._shutdown = False
        self._worker = threading.Thread(
            target=self._loop, name="repro-job-worker", daemon=True)
        self._worker.start()

    # -- client surface ------------------------------------------------
    def submit(self, points: list[Scenario], *, jobs: int | None = None,
               cache: str | None = None) -> Job:
        """Answer a sweep's store hits in the calling thread and queue
        only its misses; returns the Job — already ``done`` when the
        store held every point."""
        if not points:
            raise ValueError("a job needs at least one scenario point")
        jobs = _check_jobs(self.jobs if jobs is None else jobs)
        cache = self.cache if cache is None else cache
        check_cache_mode(cache)
        if cache != "off" and self.store is None:
            raise ValueError(
                "service was started with cache='off' (no store); "
                "submit with cache=off or restart with a store")
        # The reads, and an all-hit job's encode, run outside the lock.
        # ``put`` replaces an entry atomically, so a read racing the
        # worker's write-back sees the old entry, the new one or a miss.
        results = ([self.store.get(sc) for sc in points] if cache != "off"
                   else [None] * len(points))
        hit_lines = []
        for i, hit in enumerate(results):
            if hit is not None:
                hit_lines.append(_point_line(i, len(hit_lines) + 1,
                                             len(points), "hit", points[i]))
        body = (_encode(points, results) if len(hit_lines) == len(points)
                else None)
        with self._wake:
            job = Job(f"j{next(self._ids)}", len(points), hit_lines,
                      jobs=jobs, cache=cache)
            self._by_id[job.id] = job
            if body is not None:  # never queued
                job.finish(body, hits=job.total, misses=0, errors=0)
            else:
                job.work = points, results
                self._queue.append(job)
                self._wake.notify()
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._by_id.get(job_id)

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
        while True:
            with self._wake:
                while not self._queue and not self._shutdown:
                    self._wake.wait()
                if self._shutdown and not self._queue:
                    return
                job = self._queue.popleft()
                job.status = "running"
            self._run(job)

    def _run(self, job: Job) -> None:
        """Run ``job``'s misses — the ``None`` slots of its results —
        and finish it; its events and counters follow the hits
        answered at submit."""
        (points, results), job.work = job.work, None
        pending = [i for i, result in enumerate(results) if result is None]
        first = job.submit_hits

        def on_point(ev: ProgressEvent) -> None:
            line = _point_line(pending[ev.index], first + ev.done,
                               job.total, ev.status, ev.scenario)
            with self._lock:
                job.done = first + ev.done
                if ev.status == "hit":
                    job.hits += 1
                elif ev.status == "error":
                    job.errors += 1
                else:
                    job.misses += 1
                job.lines.append(line)

        try:
            fresh = run_sweep(
                [points[i] for i in pending], jobs=job.jobs, cache=job.cache,
                store=self.store if job.cache != "off" else None,
                on_point=on_point)
        except Exception as exc:
            with self._lock:
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = "failed"
                job.lines.append(_line({"event": "end", "status": "failed",
                                        "error": job.error}))
            return
        for i, result in zip(pending, fresh):
            results[i] = result
        # Encoded once, outside the lock; the job stays "running", with
        # no end line, until ``finish`` publishes it whole.
        body = _encode(points, results)
        stats = fresh.stats
        del points, results, fresh  # a done job keeps none of them alive
        with self._lock:
            job.finish(body, hits=first + stats.hits, misses=stats.misses,
                       errors=stats.errors)
