#!/usr/bin/env python
"""End-to-end smoke test for the scenario service (DESIGN.md §12).

Starts the HTTP service in-process on an ephemeral port, submits
``examples/sweep_quick.json`` twice, and asserts the second submission
is served entirely from the content-addressed result store — already
done when its POST is answered.  Then another process wipes the store
(``repro cache gc --wipe``), and a third submission must simulate
every point again: the live service never serves an entry the disk
lost.  Every ``/results`` fetch of every job returns the same bytes —
the "millions of users" workflow of DESIGN.md §12 in one script:

    PYTHONPATH=src python examples/service_smoke.py [store-dir]

CI runs this (with a throwaway store dir) and then ``repro cache
verify`` over the store it leaves behind.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import repro
from repro.service import make_server

SPEC_PATH = Path(__file__).parent / "sweep_quick.json"
DEADLINE_S = 300.0


def get(base: str, route: str):
    with urllib.request.urlopen(base + route) as resp:
        return json.load(resp)


def submit(base: str, body: bytes) -> dict:
    """POST a spec; the 202 reply (``job``, ``points``, ``status``)."""
    req = urllib.request.Request(base + "/jobs", data=body,
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as resp:
        assert resp.status == 202, resp.status
        accepted = json.load(resp)
    print(f"submitted {accepted['job']}: {accepted['points']} point(s), "
          f"{accepted['status']}")
    return accepted


def wait(base: str, job: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    while time.monotonic() < deadline:
        snap = get(base, f"/jobs/{job}")
        if snap["status"] in ("done", "failed"):
            assert snap["status"] == "done", snap
            return snap
        time.sleep(0.1)
    raise SystemExit(f"{job} did not finish within {DEADLINE_S}s")


def results_body(base: str, snap: dict) -> bytes:
    """``/results`` of a done job, fetched twice: the same bytes, one
    entry per point."""
    route = f"{base}/jobs/{snap['job']}/results"
    bodies = []
    for _ in range(2):
        with urllib.request.urlopen(route) as resp:
            bodies.append(resp.read())
    assert bodies[0] == bodies[1], f"{snap['job']}: two fetches differ"
    assert len(json.loads(bodies[0])) == snap["total"], snap
    return bodies[0]


def progress_lines(base: str, job: str) -> list[dict]:
    with urllib.request.urlopen(base + f"/jobs/{job}/progress?since=0") as r:
        return [json.loads(line) for line in r.read().splitlines()]


def wipe(store: str) -> None:
    """``repro cache gc --wipe`` on the store, from another process."""
    src = Path(repro.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-m", "repro", "cache", "gc", "--wipe",
                    "--store", store], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def main() -> int:
    store = sys.argv[1] if len(sys.argv) > 1 else "service-smoke-store"
    server = make_server("127.0.0.1", 0, store=store, cache="rw", jobs=1)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"scenario service on {base} (store={store})")
    spec = SPEC_PATH.read_bytes()
    try:
        assert get(base, "/healthz")["ok"] is True

        first = wait(base, submit(base, spec)["job"])
        assert first["misses"] == first["total"], first
        lines = progress_lines(base, first["job"])
        assert lines[-1]["event"] == "end" and lines[-1]["status"] == "done"
        print(f"{first['job']}: {first['misses']} miss(es), "
              f"{len(lines) - 1} progress event(s)")

        accepted = submit(base, spec)
        assert accepted["status"] == "done", accepted
        lines = progress_lines(base, accepted["job"])
        assert [e.get("status") for e in lines[:-1]] == (
            ["hit"] * accepted["points"]), lines
        assert lines[-1]["event"] == "end", lines
        second = wait(base, accepted["job"])
        assert second["hits"] == second["total"], second
        assert second["misses"] == 0, second
        print(f"{second['job']}: {second['hits']}/{second['total']} "
              f"served from the store — zero simulations")

        body = results_body(base, second)
        assert results_body(base, first) == body, "miss and hit bodies differ"
        for entry in json.loads(body):
            r = entry["result"]
            assert r["throughput_gib_s"] > 0
            assert r["provenance"]["code_fingerprint"]

        wipe(store)
        third = wait(base, submit(base, spec)["job"])
        assert third["misses"] == third["total"], third
        assert results_body(base, third) == body, "body after a wipe differs"
        print(f"{third['job']}: {third['misses']}/{third['total']} "
              f"simulated again after another process wiped the store")
        stats = get(base, "/store/stats")
        print(f"store: {stats['entries']} entr(ies), {stats['bytes']} bytes")
    finally:
        server.shutdown()
        server.manager.shutdown()
        server.server_close()
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
