"""Async sweep jobs for the scenario service (DESIGN.md §12).

A :class:`JobManager` owns a FIFO queue of submitted sweeps and one
daemon worker thread that drains it through
:func:`~repro.scenarios.sweep.run_sweep` — so jobs land on the existing
process-pool execution path (``jobs`` workers, retry hardening,
result-store caching) and the HTTP layer stays a thin,
non-blocking front end.  Every finalized point appends one progress
event (the ``run_sweep(on_point=...)`` hook), stored as the NDJSON line
the server streams back.  A finished job keeps its ``/results`` body,
encoded once and compressed, and drops its Scenarios and Results
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
from repro.scenarios.sweep import ProgressEvent, run_sweep
from repro.store import ResultStore, check_cache_mode

#: Lifecycle of a job.  queued → running → done | failed.  "failed"
#: means run_sweep itself raised (bad spec interactions, broken store
#: root); individual point failures leave the job "done" with a
#: non-zero ``errors`` counter and ``None`` results.
JOB_STATUSES = ("queued", "running", "done", "failed")


def _check_jobs(jobs: int) -> int:
    """``jobs``, or ValueError if it is below 1 (as ``run_sweep``)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _line(event: dict) -> str:
    return json.dumps(event) + "\n"


class Job:
    """One submitted sweep and everything observable about it.

    The worker takes ``points`` when it starts the job; from then on
    the job is its counters, its progress ``lines`` and ``body`` — the
    zlib-compressed ``/results`` bytes (``None`` unless ``done``)."""

    def __init__(self, job_id: str, points: list[Scenario], *,
                 jobs: int, cache: str):
        self.id = job_id
        self.points: list[Scenario] | None = points
        self.total = len(points)
        self.jobs = jobs
        self.cache = cache
        self.status = "queued"
        self.done = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.lines: list[str] = []
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


class JobManager:
    """FIFO job queue + one worker thread over ``run_sweep``."""

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
        """Enqueue a sweep; returns the (already-queued) Job."""
        if not points:
            raise ValueError("a job needs at least one scenario point")
        jobs = _check_jobs(self.jobs if jobs is None else jobs)
        cache = self.cache if cache is None else cache
        check_cache_mode(cache)
        if cache != "off" and self.store is None:
            raise ValueError(
                "service was started with cache='off' (no store); "
                "submit with cache=off or restart with a store")
        with self._wake:
            job = Job(f"j{next(self._ids)}", points, jobs=jobs,
                      cache=cache)
            self._by_id[job.id] = job
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
        def on_point(ev: ProgressEvent) -> None:
            line = _line({"index": ev.index, "done": ev.done,
                          "total": ev.total, "status": ev.status,
                          "label": ev.scenario.label})
            with self._lock:
                job.done = ev.done
                if ev.status == "hit":
                    job.hits += 1
                elif ev.status == "error":
                    job.errors += 1
                else:
                    job.misses += 1
                job.lines.append(line)

        points, job.points = job.points, None
        try:
            results = run_sweep(
                points, jobs=job.jobs, cache=job.cache,
                store=self.store if job.cache != "off" else None,
                on_point=on_point)
        except Exception as exc:
            with self._lock:
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = "failed"
                job.lines.append(_line({"event": "end", "status": "failed",
                                        "error": job.error}))
            return
        # Encoded once, outside the lock; the job stays "running", with
        # no end line, until body, counters and status land together.
        body = zlib.compress(
            (json.dumps(paired_payload(points, results)) + "\n").encode(),
            1)
        stats = results.stats
        del points, results  # a done job keeps none of them alive
        end = _line({"event": "end", "status": "done", "hits": stats.hits,
                     "misses": stats.misses, "errors": stats.errors,
                     "total": job.total})
        with self._lock:
            job.body = body
            job.hits = stats.hits
            job.misses = stats.misses
            job.errors = stats.errors
            job.status = "done"
            job.lines.append(end)
