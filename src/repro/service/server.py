"""Stdlib HTTP front end for the scenario service (DESIGN.md §12).

A :class:`ThreadingHTTPServer` that accepts Scenario/Sweep JSON,
schedules the points onto the sweep worker pool through the
:class:`~repro.service.jobs.JobManager`, streams per-point progress,
and serves completed Results (cache hits included) back as JSON.

Endpoints::

    GET  /healthz                    liveness + store/cache config
    POST /jobs[?jobs=N&cache=MODE]   body = sweep / scenario / list JSON
                                     (exactly the shapes `load_spec`
                                     accepts from a .json file)
    GET  /jobs                       all job status snapshots
    GET  /jobs/<id>                  one job's status snapshot
    GET  /jobs/<id>/progress?since=K NDJSON: one line per finalized
                                     point from event K on; a terminal
                                     {"event": "end", ...} line appears
                                     once the job finishes.  Poll with
                                     since=<lines seen> until then.
    GET  /jobs/<id>/results          scenario+result pairs (the
                                     results.json artifact shape);
                                     409 until done, naming the error
                                     of a failed job
    GET  /store/stats                result-store entry/byte counts

Run it with ``python -m repro serve`` or embed it via
:func:`make_server` (used by the tests and the CI smoke).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.scenarios.sweep import points_from_data
from repro.service.jobs import JobManager

#: Largest submission body ``POST /jobs`` reads (a 256-point grid is
#: ~100 KB); a longer ``Content-Length`` is refused with 413, unread.
MAX_BODY_BYTES = 32 << 20


class ScenarioServer(ThreadingHTTPServer):
    """HTTP server owning the JobManager handlers talk to."""

    def __init__(self, address, manager: JobManager, *,
                 quiet: bool = True):
        self.manager = manager
        self.quiet = quiet
        super().__init__(address, ServiceHandler)


class ServiceHandler(BaseHTTPRequestHandler):
    server: ScenarioServer

    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # pragma: no cover - log noise
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:  # e.g. a refused POST: tell the client
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, payload) -> None:
        # Compact: ``indent=`` would mean the pure-Python encoder.
        self._send(code, (json.dumps(payload) + "\n").encode(),
                   "application/json")

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        manager = self.server.manager
        if parts == ["healthz"]:
            store = manager.store
            return self._json(200, {
                "ok": True, "cache": manager.cache, "jobs": manager.jobs,
                "store": str(store.root) if store is not None else None})
        if parts == ["store", "stats"]:
            if manager.store is None:
                return self._error(404, "service runs with cache='off'")
            return self._json(200, manager.store.stats())
        if parts == ["jobs"]:
            return self._json(200, {"jobs": manager.snapshots()})
        if len(parts) == 2 and parts[0] == "jobs":
            snap = manager.snapshot(parts[1])
            if snap is None:
                return self._error(404, f"unknown job {parts[1]!r}")
            return self._json(200, snap)
        if len(parts) == 3 and parts[0] == "jobs":
            job_id, leaf = parts[1], parts[2]
            if leaf == "progress":
                try:
                    since = int(parse_qs(url.query).get("since", ["0"])[0])
                except ValueError:
                    return self._error(400, "since must be an integer")
                polled = manager.events_since(job_id, max(0, since))
                if polled is None:
                    return self._error(404, f"unknown job {job_id!r}")
                return self._send(200, "".join(polled[0]).encode(),
                                  "application/x-ndjson")
            if leaf == "results":
                body = manager.results_payload(job_id)
                if body is not None:
                    return self._send(200, body, "application/json")
                snap = manager.snapshot(job_id)
                if snap is None:
                    return self._error(404, f"unknown job {job_id!r}")
                if snap["status"] == "failed":
                    return self._error(
                        409, f"job {job_id!r} failed: {snap['error']}")
                return self._error(409, f"job {job_id!r} has no results yet")
        return self._error(404, f"no such endpoint: GET {url.path}")

    def do_POST(self) -> None:
        url = urlparse(self.path)
        if [p for p in url.path.split("/") if p] != ["jobs"]:
            # Its body stays unread and would be parsed as the next
            # request on a kept-alive connection: close, as below.
            self.close_connection = True
            return self._error(404, f"no such endpoint: POST {url.path}")
        query = parse_qs(url.query)
        declared = self.headers.get("Content-Length", "0").strip()
        refusal = None
        if not (declared.isascii() and declared.isdigit()):
            refusal = 400, "Content-Length must be a non-negative integer"
        # The digit count first: int() itself refuses a 4300-digit string.
        elif len(declared) > 12 or int(declared) > MAX_BODY_BYTES:
            refusal = 413, f"body exceeds the {MAX_BODY_BYTES}-byte limit"
        if refusal:  # the body stays unread, so the connection must close
            self.close_connection = True
            return self._error(*refusal)
        try:
            data = json.loads(self.rfile.read(int(declared)) or b"null")
            points = points_from_data(data)
            jobs = int(query["jobs"][0]) if "jobs" in query else None
            cache = query["cache"][0] if "cache" in query else None
            job = self.server.manager.submit(points, jobs=jobs, cache=cache)
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
            return self._error(400, f"bad submission: {exc}")
        # The status at acceptance, not a read of ``job.status``: the
        # worker may already have taken the job (``GET /jobs/<id>``).
        return self._json(202, {"job": job.id, "points": job.total,
                                "status": "queued"})


def make_server(host: str = "127.0.0.1", port: int = 0, *,
                store=None, cache: str = "rw", jobs: int = 1,
                quiet: bool = True) -> ScenarioServer:
    """Build a ready-to-serve :class:`ScenarioServer` (not yet
    serving; call ``serve_forever`` — typically on a thread).
    ``port=0`` binds an ephemeral port; read ``server_address``."""
    manager = JobManager(store=store, cache=cache, jobs=jobs)
    return ScenarioServer((host, port), manager, quiet=quiet)
