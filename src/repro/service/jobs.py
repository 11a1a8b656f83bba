"""Async sweep jobs for the scenario service (DESIGN.md §12).

A :class:`JobManager` owns a FIFO queue of submitted sweeps and one
daemon worker thread that drains it through
:func:`~repro.scenarios.sweep.run_sweep` — so jobs land on the existing
process-pool execution path (``jobs`` workers, chunking, retry
hardening, result-store caching) and the HTTP layer stays a thin,
non-blocking front end.  Every finalized point appends one progress
event (the ``run_sweep(on_point=...)`` hook), which the server streams
back as NDJSON.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque

from repro.scenarios.result import paired_payload
from repro.scenarios.spec import Scenario
from repro.scenarios.sweep import ProgressEvent, SweepResults, run_sweep
from repro.store import ResultStore, check_cache_mode

#: Lifecycle of a job.  queued → running → done | failed.  "failed"
#: means run_sweep itself raised (bad spec interactions, broken store
#: root); individual point failures leave the job "done" with a
#: non-zero ``errors`` counter and ``None`` results.
JOB_STATUSES = ("queued", "running", "done", "failed")


class Job:
    """One submitted sweep and everything observable about it."""

    def __init__(self, job_id: str, points: list[Scenario], *,
                 jobs: int, cache: str):
        self.id = job_id
        self.points = points
        self.jobs = jobs
        self.cache = cache
        self.status = "queued"
        self.done = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.events: list[dict] = []
        self.results: SweepResults | None = None
        self.error: str | None = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    def snapshot(self) -> dict:
        """The status document the HTTP layer serves (caller holds the
        manager lock)."""
        return {"job": self.id, "status": self.status,
                "total": len(self.points), "done": self.done,
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
        self.jobs = max(1, jobs)
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
        cache = self.cache if cache is None else cache
        check_cache_mode(cache)
        if cache != "off" and self.store is None:
            raise ValueError(
                "service was started with cache='off' (no store); "
                "submit with cache=off or restart with a store")
        with self._wake:
            job = Job(f"j{next(self._ids)}", points,
                      jobs=max(1, jobs if jobs is not None else self.jobs),
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
                     ) -> tuple[list[dict], bool] | None:
        """(events[since:], finished) — one poll of the progress stream;
        ``None`` for an unknown job."""
        with self._lock:
            job = self._by_id.get(job_id)
            if job is None:
                return None
            return list(job.events[since:]), job.finished

    def results_payload(self, job_id: str) -> list | None:
        """Completed results in ``save_results_json`` shape (scenario +
        result pairs); ``None`` until the job is done."""
        with self._lock:
            job = self._by_id.get(job_id)
            if job is None or job.results is None:
                return None
            points, results = job.points, job.results
        # Finished results never change: build the payload unlocked.
        return paired_payload(points, results)

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
            with self._lock:
                job.done = ev.done
                if ev.status == "hit":
                    job.hits += 1
                elif ev.status == "error":
                    job.errors += 1
                else:
                    job.misses += 1
                job.events.append({
                    "index": ev.index, "done": ev.done, "total": ev.total,
                    "status": ev.status, "label": ev.scenario.label})

        try:
            results = run_sweep(
                job.points, jobs=job.jobs, cache=job.cache,
                store=self.store if job.cache != "off" else None,
                on_point=on_point)
        except Exception as exc:
            with self._lock:
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = "failed"
                job.events.append({"event": "end", "status": "failed",
                                   "error": job.error})
            return
        with self._lock:
            job.results = results
            job.hits = results.stats.hits
            job.misses = results.stats.misses
            job.errors = results.stats.errors
            job.status = "done"
            job.events.append({
                "event": "end", "status": "done",
                "hits": job.hits, "misses": job.misses,
                "errors": job.errors, "total": len(job.points)})
