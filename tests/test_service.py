"""Tests for the scenario service (DESIGN.md §12): the JobManager's
async sweep execution and the HTTP front end — submission, status
polling, NDJSON progress streaming, result serving, and store-backed
resubmission hits."""

import dataclasses
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.scenarios import MeasureSpec, Result, Scenario, TrafficSpec
from repro.service import JobManager, make_server
from repro.service.server import MAX_BODY_BYTES

#: Small windows: these tests assert plumbing, not paper numbers.
SWEEP_SPEC = {
    "base": {"traffic": {"kind": "uniform", "load": 1.0,
                         "max_burst_bytes": 1000},
             "measure": {"warmup": 300, "window": 900}},
    "axes": {"traffic.load": [0.1, 1.0]},
}

POLL_DEADLINE_S = 120.0


def wait_finished(fetch, label="job"):
    """Poll ``fetch() -> snapshot`` until the job leaves the queue."""
    deadline = time.monotonic() + POLL_DEADLINE_S
    while time.monotonic() < deadline:
        snap = fetch()
        if snap["status"] in ("done", "failed"):
            return snap
        time.sleep(0.02)
    raise AssertionError(f"{label} did not finish in {POLL_DEADLINE_S}s")


class TestJobManager:
    @pytest.fixture
    def manager(self, tmp_path):
        mgr = JobManager(store=tmp_path / "store", cache="rw", jobs=1)
        yield mgr
        mgr.shutdown()

    def point(self, load=0.5, seed=1):
        return Scenario(traffic=TrafficSpec.uniform(load, 1000),
                        measure=MeasureSpec(300, 900), seed=seed)

    def test_jobs_run_fifo_and_complete(self, manager):
        first = manager.submit([self.point(0.1), self.point(0.5)])
        second = manager.submit([self.point(0.9)])
        snap1 = wait_finished(lambda: manager.snapshot(first.id))
        snap2 = wait_finished(lambda: manager.snapshot(second.id))
        assert snap1["status"] == snap2["status"] == "done"
        assert snap1["done"] == snap1["total"] == 2
        assert snap1["misses"] == 2 and snap1["hits"] == 0
        payload = manager.results_payload(first.id)
        assert len(payload) == 2
        assert all(e["result"]["throughput_gib_s"] > 0 for e in payload)

    def test_resubmission_hits_the_store(self, manager):
        points = [self.point(0.1), self.point(0.5)]
        warm = manager.submit(points)
        wait_finished(lambda: manager.snapshot(warm.id))
        again = manager.submit(points)
        snap = wait_finished(lambda: manager.snapshot(again.id))
        assert snap["hits"] == 2 and snap["misses"] == 0
        events, finished = manager.events_since(again.id, 0)
        assert finished
        assert [e["status"] for e in events[:-1]] == ["hit", "hit"]
        assert events[-1]["event"] == "end"

    def test_progress_events_are_incremental(self, manager):
        job = manager.submit([self.point(0.1)])
        snap = wait_finished(lambda: manager.snapshot(job.id))
        assert snap["error"] is None
        events, _ = manager.events_since(job.id, 0)
        later, finished = manager.events_since(job.id, len(events))
        assert later == [] and finished
        assert manager.events_since("nope", 0) is None

    def test_serving_results_does_not_hold_the_manager_lock(
            self, manager, monkeypatch):
        """While one thread builds a /results payload (a ``Result.to_dict``
        held on an event), status reads and submissions from another
        thread complete: they finish before the payload is released."""
        job = manager.submit([self.point(0.1)])
        wait_finished(lambda: manager.snapshot(job.id))
        inside, release = threading.Event(), threading.Event()
        real_to_dict = Result.to_dict

        def slow_to_dict(result):
            inside.set()
            assert release.wait(timeout=30)
            return real_to_dict(result)

        monkeypatch.setattr(Result, "to_dict", slow_to_dict)
        payloads = []
        reader = threading.Thread(
            target=lambda: payloads.append(manager.results_payload(job.id)))
        reads = {}

        def read_while_serving():
            reads["snap"] = manager.snapshot(job.id)
            reads["queued"] = manager.submit([self.point(0.1)], cache="ro")
            reads["events"] = manager.events_since(job.id, 0)
            reads["listing"] = manager.snapshots()

        reader.start()
        other = threading.Thread(target=read_while_serving)
        try:
            assert inside.wait(timeout=30)
            other.start()
            # A reader holding the lock would hold ``other`` until the
            # release below: it must finish while the payload is held.
            other.join(timeout=30)
            assert not other.is_alive()
        finally:
            release.set()
            reader.join(timeout=30)
            if other.is_alive():
                other.join(timeout=30)
        assert not reader.is_alive()
        snap, queued = reads["snap"], reads["queued"]
        events, listing = reads["events"], reads["listing"]
        assert snap["status"] == "done" and events[1] is True
        assert {j["job"] for j in listing} == {job.id, queued.id}
        assert payloads[0][0]["result"] == real_to_dict(job.results[0])

    def test_empty_submission_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.submit([])

    def test_cache_off_manager_rejects_cached_jobs(self, tmp_path):
        mgr = JobManager(cache="off")
        try:
            assert mgr.store is None
            with pytest.raises(ValueError):
                mgr.submit([self.point()], cache="rw")
            job = mgr.submit([self.point()])  # uncached still works
            snap = wait_finished(lambda: mgr.snapshot(job.id))
            assert snap["status"] == "done" and snap["misses"] == 1
        finally:
            mgr.shutdown()


class TestHttpService:
    @pytest.fixture
    def service(self, tmp_path):
        server = make_server("127.0.0.1", 0, store=tmp_path / "store",
                             cache="rw", jobs=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.manager.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def get(self, url):
        with urllib.request.urlopen(url) as resp:
            return json.load(resp)

    def submit(self, base, payload=SWEEP_SPEC, query=""):
        req = urllib.request.Request(
            f"{base}/jobs{query}", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req) as resp:
            assert resp.status == 202
            return json.load(resp)

    def test_healthz(self, service):
        health = self.get(f"{service}/healthz")
        assert health["ok"] is True
        assert health["cache"] == "rw"

    def test_submit_poll_progress_results(self, service):
        accepted = self.submit(service)
        assert accepted["points"] == 2
        job = accepted["job"]
        snap = wait_finished(lambda: self.get(f"{service}/jobs/{job}"))
        assert snap["status"] == "done"
        assert snap["misses"] == 2 and snap["errors"] == 0

        with urllib.request.urlopen(
                f"{service}/jobs/{job}/progress?since=0") as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(l) for l in resp.read().splitlines()]
        assert [e["status"] for e in lines[:-1]] == ["run", "run"]
        assert [e["done"] for e in lines[:-1]] == [1, 2]
        assert lines[-1] == {"event": "end", "status": "done", "hits": 0,
                             "misses": 2, "errors": 0, "total": 2}
        # Polling from a cursor returns only the tail.
        with urllib.request.urlopen(
                f"{service}/jobs/{job}/progress?since={len(lines) - 1}"
                ) as resp:
            tail = [json.loads(l) for l in resp.read().splitlines()]
        assert tail == lines[-1:]

        results = self.get(f"{service}/jobs/{job}/results")
        assert len(results) == 2
        assert {r["scenario"]["traffic"]["load"]
                for r in results} == {0.1, 1.0}
        assert all(r["result"]["throughput_gib_s"] > 0 for r in results)
        assert all("code_fingerprint" in r["result"]["provenance"]
                   for r in results)

    def test_resubmission_is_all_cache_hits(self, service):
        job1 = self.submit(service)["job"]
        wait_finished(lambda: self.get(f"{service}/jobs/{job1}"))
        job2 = self.submit(service)["job"]
        snap = wait_finished(lambda: self.get(f"{service}/jobs/{job2}"))
        assert snap["hits"] == snap["total"] == 2
        assert snap["misses"] == 0
        stats = self.get(f"{service}/store/stats")
        assert stats["entries"] == 2
        listing = self.get(f"{service}/jobs")
        assert {j["job"] for j in listing["jobs"]} == {job1, job2}

    def test_single_scenario_and_list_bodies(self, service):
        one = {"traffic": {"kind": "uniform", "load": 0.5,
                           "max_burst_bytes": 1000},
               "measure": {"warmup": 300, "window": 900}}
        accepted = self.submit(service, payload=one)
        assert accepted["points"] == 1
        accepted = self.submit(service, payload=[one, one])
        assert accepted["points"] == 2

    def test_cache_override_query(self, service):
        job = self.submit(service, query="?cache=off&jobs=1")["job"]
        snap = wait_finished(lambda: self.get(f"{service}/jobs/{job}"))
        assert snap["cache"] == "off" and snap["status"] == "done"
        assert self.get(f"{service}/store/stats")["entries"] == 0

    @pytest.mark.parametrize("body, code", [
        (b"{not json", 400),
        (b'{"axes": {"nope.axis": [1]}}', 400),
        (b"[]", 400),
        (b'"just a string"', 400),
    ], ids=["garbage", "bad-axis", "empty-list", "wrong-type"])
    def test_bad_submissions_rejected(self, service, body, code):
        req = urllib.request.Request(f"{service}/jobs", data=body)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == code
        assert "error" in json.load(err.value)

    def test_a_field_the_backend_ignores_is_refused_by_name(self, service):
        point = {"topology": {"backend": "baseline", "rows": 2, "cols": 2,
                              "data_width": 64},
                 "traffic": {"kind": "uniform", "load": 0.1,
                             "max_burst_bytes": 1}}
        req = urllib.request.Request(f"{service}/jobs",
                                     data=json.dumps(point).encode())
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        assert "data_width" in json.load(err.value)["error"]

    @pytest.mark.parametrize("declared, code", [
        ("twelve", 400),
        ("-1", 400),
        (str(MAX_BODY_BYTES + 1), 413),
        ("9" * 5000, 413),
        (None, 400),
    ], ids=["non-integer", "negative", "oversized", "absurd", "missing"])
    def test_content_length_is_checked_before_the_body_is_read(
            self, service, declared, code):
        """A bad or oversized Content-Length is answered at once, with
        no body sent at all: a handler that trusted the header would
        block in ``rfile.read`` until this client gave up."""
        url = urlparse(service)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            if declared is not None:
                conn.putheader("Content-Length", declared)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == code
            assert "error" in json.load(response)
        finally:
            conn.close()
        assert self.get(f"{service}/jobs") == {"jobs": []}

    def test_post_to_an_unknown_path_leaves_no_body_on_the_connection(
            self, service):
        """The 404 is answered without reading the body, so the
        connection closes: kept alive, the body would be parsed as the
        client's next request — here a second, smuggled one."""
        url = urlparse(service)
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (b"POST /frobnicate HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(smuggled)) + smuggled
        with socket.create_connection((url.hostname, url.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            answer = b"".join(iter(lambda: sock.recv(65536), b""))
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body) == {
            "error": "no such endpoint: POST /frobnicate"}

    def test_bodies_are_compact_json_of_the_documented_shape(self, service):
        """Every JSON endpoint: one compact line that parses to the same
        object the indented form did (clients parse; nobody reads it)."""
        def fetch(route):
            try:
                with urllib.request.urlopen(service + route) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as err:
                status, body = err.code, err.read()
            text = body.decode()
            assert text.endswith("\n") and "\n" not in text[:-1]
            data = json.loads(text)
            assert text == json.dumps(data) + "\n"
            return status, data

        store_root = fetch("/healthz")[1]["store"]
        assert fetch("/healthz") == (200, {
            "ok": True, "cache": "rw", "jobs": 1, "store": store_root})
        one = Scenario(traffic=TrafficSpec.uniform(0.5, 1000),
                       measure=MeasureSpec(300, 900), seed=3)
        job = self.submit(service, payload=one.to_dict())
        assert job == {"job": "j1", "points": 1, "status": "queued"}
        snap = wait_finished(lambda: self.get(f"{service}/jobs/j1"))
        assert fetch("/jobs/j1") == (200, snap) == (200, {
            "job": "j1", "status": "done", "total": 1, "done": 1, "hits": 0,
            "misses": 1, "errors": 0, "jobs": 1, "cache": "rw",
            "error": None})
        assert fetch("/jobs") == (200, {"jobs": [snap]})
        status, results = fetch("/jobs/j1/results")
        assert status == 200 and len(results) == 1
        assert results[0]["scenario"] == dataclasses.asdict(one)
        served = Result.from_dict(results[0]["result"])
        assert results[0]["result"] == dataclasses.asdict(served)
        assert served.provenance["seed"] == 3
        status, stats = fetch("/store/stats")
        assert status == 200 and stats["entries"] == 1
        assert sorted(stats) == ["bytes", "code_fingerprint", "entries",
                                 "fingerprints", "root"]
        assert fetch("/jobs/nope") == (404, {"error": "unknown job 'nope'"})
        assert fetch("/frobnicate") == (
            404, {"error": "no such endpoint: GET /frobnicate"})

    def test_unknown_routes_and_jobs_404(self, service):
        for url in ("/jobs/nope", "/jobs/nope/progress", "/jobs/nope/results",
                    "/frobnicate"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{service}{url}")
            assert err.value.code == 404

    def test_results_before_completion_is_409(self, tmp_path, monkeypatch):
        """``/results`` of a job that is not done is 409, then 200 once
        it is.  The worker is held inside ``run_sweep`` on an event, so
        the job is provably running when ``/results`` is asked."""
        import repro.service.jobs as jobs_mod

        entered, release = threading.Event(), threading.Event()
        real_run_sweep = jobs_mod.run_sweep

        def gated_run_sweep(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=POLL_DEADLINE_S)
            return real_run_sweep(*args, **kwargs)

        monkeypatch.setattr(jobs_mod, "run_sweep", gated_run_sweep)
        server = make_server("127.0.0.1", 0, store=tmp_path / "s",
                             cache="rw", jobs=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            job = server.manager.submit([Scenario(
                traffic=TrafficSpec.uniform(0.5, 1000),
                measure=MeasureSpec(300, 900))])
            assert entered.wait(timeout=POLL_DEADLINE_S)
            assert self.get(f"{base}/jobs/{job.id}")["status"] == "running"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/jobs/{job.id}/results")
            assert err.value.code == 409
            release.set()
            wait_finished(lambda: self.get(f"{base}/jobs/{job.id}"))
            assert self.get(f"{base}/jobs/{job.id}/results")
        finally:
            release.set()
            server.shutdown()
            server.manager.shutdown()
            server.server_close()
            thread.join(timeout=10)
