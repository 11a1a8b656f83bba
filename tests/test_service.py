"""Tests for the scenario service (DESIGN.md §12): the JobManager's
async sweep execution and the HTTP front end — submission, status
polling, NDJSON progress streaming, result serving, and store-backed
resubmission hits."""

import dataclasses
import gc
import http.client
import importlib
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref
from urllib.parse import urlparse

import pytest

import repro.service.jobs as jobs_mod
from repro.scenarios import (
    MeasureSpec,
    Result,
    Scenario,
    TrafficSpec,
    run_scenario,
)
from repro.scenarios.result import paired_payload
from repro.scenarios.sweep import points_from_data, run_sweep
from repro.service import JobManager, ScenarioServer, make_server
from repro.service.server import MAX_BODY_BYTES

#: Small windows: these tests assert plumbing, not paper numbers.
SWEEP_SPEC = {
    "base": {"traffic": {"kind": "uniform", "load": 1.0,
                         "max_burst_bytes": 1000},
             "measure": {"warmup": 300, "window": 900}},
    "axes": {"traffic.load": [0.1, 1.0]},
}

POLL_DEADLINE_S = 120.0


def hold_plan_run(monkeypatch, then=None):
    """Hold the job worker inside ``SweepPlan.run`` until ``release``
    is set, then call ``then`` (the real ``run`` by default).
    Returns ``(entered, release)``; ``entered`` is set once held."""
    entered, release = threading.Event(), threading.Event()
    then = then or jobs_mod.SweepPlan.run

    def held_run(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=POLL_DEADLINE_S)
        return then(*args, **kwargs)

    monkeypatch.setattr(jobs_mod.SweepPlan, "run", held_run)
    return entered, release


def direct_bytes(points) -> bytes:
    """What ``/results`` must serve for ``points``: the compact JSON of
    a direct ``run_sweep`` plus a newline."""
    return (json.dumps(paired_payload(points, run_sweep(points)))
            + "\n").encode()


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
        payload = json.loads(manager.results_payload(first.id))
        assert len(payload) == 2
        assert all(e["result"]["throughput_gib_s"] > 0 for e in payload)

    def test_resubmission_hits_the_store(self, manager):
        points = [self.point(0.1), self.point(0.5)]
        warm = manager.submit(points)
        wait_finished(lambda: manager.snapshot(warm.id))
        again = manager.submit(points)
        snap = wait_finished(lambda: manager.snapshot(again.id))
        assert snap["hits"] == 2 and snap["misses"] == 0
        lines, finished = manager.events_since(again.id, 0)
        assert finished
        events = [json.loads(line) for line in lines]
        assert [e["status"] for e in events[:-1]] == ["hit", "hit"]
        assert events[-1]["event"] == "end"

    def test_a_partly_cached_job_streams_its_hits_at_submit(
            self, manager, monkeypatch):
        """The store holds A.  ``[B, A]`` publishes A's hit at submit,
        while the worker is held before B; once released, the job ends
        one hit, one miss, with the bytes a direct sweep encodes."""
        a, b = self.point(0.1), self.point(0.5)
        run_sweep([a], cache="rw", store=manager.store)
        expected = direct_bytes([b, a])
        entered, release = hold_plan_run(monkeypatch)
        try:
            job = manager.submit([b, a])
            assert entered.wait(timeout=POLL_DEADLINE_S)
            lines, finished = manager.events_since(job.id, 0)
            assert not finished
            assert [json.loads(line) for line in lines] == [
                {"index": 1, "done": 1, "total": 2, "status": "hit",
                 "label": a.label}]
            snap = manager.snapshot(job.id)
            assert snap["status"] == "running"
            assert snap["done"] == snap["hits"] == 1
        finally:
            release.set()
        wait_finished(lambda: manager.snapshot(job.id))
        events = [json.loads(line)
                  for line in manager.events_since(job.id, 0)[0]]
        assert [(e["index"], e["done"], e["status"])
                for e in events[:-1]] == [(1, 1, "hit"), (0, 2, "run")]
        assert events[-1] == {"event": "end", "status": "done", "hits": 1,
                              "misses": 1, "errors": 0, "total": 2}
        assert manager.results_payload(job.id) == expected

    def test_concurrent_submissions_each_end_whole(self, manager):
        """Four threads submit a grid the store half holds, three times
        each, under a short switch interval, while the worker runs the
        misses: every job ends with one event per point (indices a
        permutation, ``done`` counting 1..total), hits + misses ==
        total on its end line and snapshot, and a direct sweep's bytes."""
        points = [self.point(load) for load in (0.1, 0.3, 0.5, 0.7)]
        run_sweep(points[::2], cache="rw", store=manager.store)
        expected = direct_bytes(points)
        jobs = []

        def client():
            for _ in range(3):
                jobs.append(manager.submit(points))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=POLL_DEADLINE_S)
            assert not any(thread.is_alive() for thread in clients)
            snaps = [wait_finished(lambda: manager.snapshot(job.id))
                     for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        assert len(jobs) == 12
        for job, snap in zip(jobs, snaps):
            events = [json.loads(line)
                      for line in manager.events_since(job.id, 0)[0]]
            end = events.pop()
            assert sorted(e["index"] for e in events) == [0, 1, 2, 3]
            assert [e["done"] for e in events] == [1, 2, 3, 4]
            assert end["status"] == snap["status"] == "done"
            assert end["hits"] + end["misses"] == end["total"] == 4
            assert (snap["hits"], snap["misses"], snap["done"]) == (
                end["hits"], end["misses"], 4)
            assert manager.results_payload(job.id) == expected

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
        """While the worker encodes a finished job's body (its
        ``paired_payload`` held on an event), status reads, a
        submission, a progress poll and the listing from another thread
        complete, and see the job still running with no end line; once
        released, the job is done and ``/results`` is 200.  The
        submission is a store hit, encoded and finished in the
        submitting thread: only the worker's encode is held."""
        inside, release = threading.Event(), threading.Event()
        real_payload = jobs_mod.paired_payload

        def held_payload(points, results):
            if threading.current_thread().name == "repro-job-worker":
                inside.set()
                assert release.wait(timeout=30)
            return real_payload(points, results)

        monkeypatch.setattr(jobs_mod, "paired_payload", held_payload)
        job = manager.submit([self.point(0.1)])
        reads = {}

        def read_while_encoding():
            reads["snap"] = manager.snapshot(job.id)
            again = manager.submit([self.point(0.1)], cache="ro")
            reads["again"] = manager.snapshot(again.id)
            reads["events"] = manager.events_since(job.id, 0)
            reads["listing"] = manager.snapshots()

        other = threading.Thread(target=read_while_encoding)
        try:
            assert inside.wait(timeout=POLL_DEADLINE_S)
            other.start()
            # A worker encoding under the lock would hold ``other`` until
            # the release below: it must finish while the encode is held.
            other.join(timeout=30)
            assert not other.is_alive()
        finally:
            release.set()
            if other.is_alive():
                other.join(timeout=30)
        snap, again = reads["snap"], reads["again"]
        lines, finished = reads["events"]
        assert snap["status"] == "running" and snap["done"] == 1
        assert not finished and len(lines) == 1
        assert json.loads(lines[0])["status"] == "run"
        assert again["status"] == "done" and again["hits"] == 1
        assert {j["job"] for j in reads["listing"]} == {job.id, again["job"]}
        server = ScenarioServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert wait_finished(
                lambda: manager.snapshot(job.id))["status"] == "done"
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                    f"http://{host}:{port}/jobs/{job.id}/results") as resp:
                assert resp.status == 200
                assert len(json.load(resp)) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_a_finished_job_keeps_no_scenario_and_no_result(
            self, manager, monkeypatch):
        """A done job holds its body, not the objects it was made from:
        every submitted Scenario and every Result ``SweepPlan.run``
        returned is collected."""
        returned = []
        real_run = jobs_mod.SweepPlan.run

        def recording_run(*args, **kwargs):
            results = real_run(*args, **kwargs)
            returned.extend(weakref.ref(r) for r in results)
            return results

        monkeypatch.setattr(jobs_mod.SweepPlan, "run", recording_run)
        points = [self.point(0.1), self.point(0.5)]
        submitted = [weakref.ref(sc) for sc in points]
        job = manager.submit(points)
        del points
        snap = wait_finished(lambda: manager.snapshot(job.id))
        assert snap["status"] == "done" and snap["misses"] == 2
        assert len(returned) == 2
        gc.collect()
        assert [ref() for ref in submitted + returned] == [None] * 4
        assert len(json.loads(manager.results_payload(job.id))) == 2

    def test_jobs_below_one_is_refused_by_name(self, manager):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            JobManager(cache="off", jobs=0)
        with pytest.raises(ValueError, match="jobs must be >= 1, got -1"):
            manager.submit([self.point()], jobs=-1)
        assert manager.snapshots() == []

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

    def test_a_job_reads_each_distinct_point_once(self, manager,
                                                   monkeypatch):
        """The store holds one of three points: the job looks up three
        entries — at submit — and none again for its two misses."""
        from repro.store import ResultStore

        points = [self.point(load) for load in (0.1, 0.3, 0.5)]
        run_sweep(points[1:2], cache="rw", store=manager.store)
        looked_up = []
        real_load = ResultStore.load

        def counting_load(store, key):
            looked_up.append(key)
            return real_load(store, key)

        monkeypatch.setattr(ResultStore, "load", counting_load)
        job = manager.submit(points)
        snap = wait_finished(lambda: manager.snapshot(job.id))
        assert (snap["hits"], snap["misses"]) == (1, 2)
        assert len(looked_up) == len(set(looked_up)) == 3

    def test_a_copied_point_is_simulated_once_and_served_twice(
            self, manager, monkeypatch):
        sweep_mod = importlib.import_module("repro.scenarios.sweep")
        calls = []

        def counted(sc):
            calls.append(sc)
            return run_scenario(sc)

        monkeypatch.setattr(sweep_mod, "run_scenario", counted)
        a, b = self.point(0.1), self.point(0.5)
        job = manager.submit([a, b, a])
        snap = wait_finished(lambda: manager.snapshot(job.id))
        assert snap["misses"] == 3 and len(calls) == 2
        payload = json.loads(manager.results_payload(job.id))
        assert payload[0] == payload[2] != payload[1]
        events = [json.loads(line)
                  for line in manager.events_since(job.id, 0)[0]]
        assert sorted(e["index"] for e in events[:-1]) == [0, 1, 2]
        assert [e["done"] for e in events[:-1]] == [1, 2, 3]
        assert events[-1]["misses"] == 3


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
        accepted = self.submit(service)
        assert accepted["status"] == "done"  # answered in the POST
        job2 = accepted["job"]
        snap = self.get(f"{service}/jobs/{job2}")
        assert snap["status"] == "done"
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

    @pytest.mark.parametrize("body, field", [
        ({"axes": 5}, "axes"),
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"axes": {"seed": [1, True]}}, "seed"),
        ({"axes": {"name": "ab"}}, "name"),
        ({"axes": {"traffic.load": "0.5"}}, "traffic.load"),
        ({"axes": {"seeds": 3}}, "seeds"),
        ({"measure": {"warmup": 25.5}}, "warmup"),
        ({"axes": {"measure.window": [100, 100.0]}}, "window"),
        ({"traffic": {"max_burst_bytes": 1000.0}}, "max_burst_bytes"),
    ], ids=["axes-int", "seed-str", "seed-float", "seed-bool",
            "seed-axis-bool", "axis-str", "axis-load-str", "axis-int",
            "warmup-float", "window-axis-float", "burst-float"])
    def test_a_mistyped_axes_or_seed_is_refused_by_name(
            self, service, body, field):
        """400 naming the field, not a dropped connection (``axes``) or
        a job of error points and a second store key (``seed``)."""
        req = urllib.request.Request(f"{service}/jobs",
                                     data=json.dumps(body).encode())
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        assert field in json.load(err.value)["error"]
        assert self.get(f"{service}/jobs") == {"jobs": []}

    def test_jobs_below_one_is_refused_by_name(self, service):
        req = urllib.request.Request(f"{service}/jobs?jobs=0",
                                     data=json.dumps(SWEEP_SPEC).encode())
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        assert json.load(err.value) == {
            "error": "bad submission: jobs must be >= 1, got 0"}
        assert self.get(f"{service}/jobs") == {"jobs": []}

    def test_results_are_the_bytes_a_direct_sweep_encodes(self, service):
        """A miss job, a hit job and a mixed job (a new point, then a
        stored one) each serve, on every fetch, exactly the compact JSON
        of a direct ``run_sweep`` of its points plus a newline; every
        progress line is compact JSON too."""
        mixed = {**SWEEP_SPEC, "axes": {"traffic.load": [0.5, 1.0]}}
        for spec, counts in ((SWEEP_SPEC, (0, 2)), (SWEEP_SPEC, (2, 0)),
                             (mixed, (1, 1))):
            expected = direct_bytes(points_from_data(spec))
            job = self.submit(service, payload=spec)["job"]
            snap = wait_finished(lambda: self.get(f"{service}/jobs/{job}"))
            assert (snap["hits"], snap["misses"]) == counts
            assert snap["done"] == snap["total"] == 2
            for _ in range(2):
                with urllib.request.urlopen(
                        f"{service}/jobs/{job}/results") as resp:
                    assert resp.headers["Content-Type"] == "application/json"
                    assert resp.read() == expected
            with urllib.request.urlopen(
                    f"{service}/jobs/{job}/progress?since=0") as resp:
                lines = resp.read().decode().splitlines(keepends=True)
            assert len(lines) == 3
            assert all(line == json.dumps(json.loads(line)) + "\n"
                       for line in lines)

    def test_a_field_the_backend_ignores_is_refused_by_name(self, service):
        """An AXI-only field on a baseline point, a fault link that
        carries the removed ``width_factor``, fault specs that carry the
        removed ``ports`` / ``byzantine_rate``, a measure that carries
        the removed ``per_link``, a topology that carries the removed
        ``register_slices``, a stuck VC on the AXI mesh and a DNN point
        with a burst cap: 400, naming the field."""
        baseline = {"topology": {"backend": "baseline", "rows": 2,
                                 "cols": 2, "data_width": 64},
                    "traffic": {"kind": "uniform", "load": 0.1,
                                "max_burst_bytes": 1}}
        degraded = {"topology": {"backend": "patronoc", "rows": 2,
                                 "cols": 2},
                    "traffic": {"kind": "uniform", "load": 0.1},
                    "faults": {"links": [{"src": 0, "dst": 1,
                                          "width_factor": 0.5}]}}
        removed = {key: {**degraded, "faults": {key: value}}
                   for key, value in (("ports", [{"node": 0, "port": 1}]),
                                      ("byzantine_rate", 1e-3))}
        removed["per_link"] = {"topology": degraded["topology"],
                               "traffic": degraded["traffic"],
                               "measure": {"per_link": True}}
        removed["register_slices"] = {
            "topology": {**degraded["topology"], "register_slices": "all"},
            "traffic": degraded["traffic"]}
        removed["stuck_vcs"] = {**degraded, "faults": {
            "stuck_vcs": [{"node": 0, "port": 1}]}}
        removed["max_burst_bytes"] = {
            "topology": degraded["topology"],
            "traffic": {"kind": "dnn", "workload": "par",
                        "max_burst_bytes": 64}}
        for field, point in (("data_width", baseline),
                             ("width_factor", degraded), *removed.items()):
            req = urllib.request.Request(f"{service}/jobs",
                                         data=json.dumps(point).encode())
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 400
            assert field in json.load(err.value)["error"]

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
        it is.  The worker is held inside ``SweepPlan.run`` on an event,
        so the job is provably running when ``/results`` is asked."""
        entered, release = hold_plan_run(monkeypatch)
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

    def test_a_hit_job_does_not_wait_behind_a_running_job(
            self, service, tmp_path, monkeypatch):
        """With the worker held inside ``SweepPlan.run`` on a miss job,
        a grid the store holds is answered in its POST: 202 ``done``, its
        end line, every point a hit, and ``/results`` the bytes a
        direct sweep encodes — all before the worker is released."""
        run_sweep(points_from_data(SWEEP_SPEC), cache="rw",
                  store=tmp_path / "store")
        expected = direct_bytes(points_from_data(SWEEP_SPEC))
        entered, release = hold_plan_run(monkeypatch)
        try:
            blocker = self.submit(service, payload={
                **SWEEP_SPEC, "axes": {"traffic.load": [0.5]}})
            assert blocker["status"] == "queued"
            assert entered.wait(timeout=POLL_DEADLINE_S)
            accepted = self.submit(service)
            assert accepted["status"] == "done"
            job = accepted["job"]
            with urllib.request.urlopen(
                    f"{service}/jobs/{job}/progress?since=0") as resp:
                lines = [json.loads(l) for l in resp.read().splitlines()]
            assert [e["status"] for e in lines[:-1]] == ["hit", "hit"]
            assert lines[-1] == {"event": "end", "status": "done",
                                 "hits": 2, "misses": 0, "errors": 0,
                                 "total": 2}
            snap = self.get(f"{service}/jobs/{job}")
            assert snap["hits"] == snap["total"] == 2
            with urllib.request.urlopen(
                    f"{service}/jobs/{job}/results") as resp:
                assert resp.status == 200 and resp.read() == expected
            assert self.get(
                f"{service}/jobs/{blocker['job']}")["status"] == "running"
        finally:
            release.set()

    def test_a_failed_job_names_its_failure(self, tmp_path, monkeypatch):
        """``/results`` of a job whose ``SweepPlan.run`` raised is a 409
        that carries the job's error, not "no results yet"."""
        def failing_run(*args, **kwargs):
            raise RuntimeError("store root vanished")

        entered, release = hold_plan_run(monkeypatch, failing_run)
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
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/jobs/{job.id}/results")
            assert err.value.code == 409
            assert json.load(err.value) == {
                "error": f"job {job.id!r} has no results yet"}
            release.set()
            snap = wait_finished(lambda: self.get(f"{base}/jobs/{job.id}"))
            assert snap["error"] == "RuntimeError: store root vanished"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/jobs/{job.id}/results")
            assert err.value.code == 409
            assert json.load(err.value) == {"error": (
                f"job {job.id!r} failed: RuntimeError: store root vanished")}
        finally:
            release.set()
            server.shutdown()
            server.manager.shutdown()
            server.server_close()
            thread.join(timeout=10)
