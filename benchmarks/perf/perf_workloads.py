"""The seven benchmark workloads: what each runs, how a pass over it is
timed, and which outputs make an op count as failed.

Everything here drives the simulator through its public API only
(``run_scenario``, ``run_sweep``, ``ResultStore``, ``make_server``,
``NocNetwork``, ``PacketMesh`` and ``.run()``); no ``REPRO_*`` variable
is set and no ``kernel=`` is passed, so a change of the default kernel
shows up without a benchmark edit.  All load is closed-loop with one
client: the next point or job is issued when the previous one returns.

The figure workloads run their points at ``MeasureSpec.quick()``, the
windows ``repro run --quick`` users run, with the figures' own loads and
caps.  A run is five passes in about ten seconds, so each point list is
a subset of its figure's that takes about two seconds a pass; README.md
records the sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import math
import random
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

from perf_trace import HostClock
from repro.faults.spec import FaultSpec, LinkFault, StuckVcFault
from repro.scenarios import (
    MeasureSpec,
    Result,
    Scenario,
    TopologySpec,
    TrafficSpec,
    run_scenario,
    run_sweep,
    sweep,
)

HERE = Path(__file__).resolve().parent

#: ``run_scenario`` builds this scaled-down ResNet-34 for quick-fidelity
#: DNN points; the traced replay must build the same one.  If the two
#: drift apart the replay's throughput check fails, loudly.
QUICK_DNN_MODEL = {"shrink": 0.95, "input_hw": 112}


def _no_span(_name, op=None):
    return contextlib.nullcontext()


# ----------------------------------------------------------------------
# results: digests, output checks, paper error
# ----------------------------------------------------------------------
def result_digest(results) -> str:
    """sha256 over the canonical JSON of every ``Result.to_dict()`` with
    ``provenance`` removed (it names the code version, not the output)."""
    h = hashlib.sha256()
    for result in results:
        data = result.to_dict() if result is not None else None
        if data is not None:
            data.pop("provenance", None)
        h.update(json.dumps(data, sort_keys=True,
                            separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def result_defect(result) -> str | None:
    """Why this op's output counts as failed, or None if it is sound."""
    if result is None:
        return "returned None"
    thr = result.throughput_gib_s
    if not math.isfinite(thr) or thr <= 0:
        return f"throughput {thr!r}"
    counters = result.counters
    if counters.get("measured_bytes", 0) > counters.get("total_bytes",
                                                        math.inf):
        return "measured_bytes exceeds total_bytes"
    if counters.get("flits_received_measured", 0) > counters.get(
            "flits_received", math.inf):
        return "measured flits exceed received flits"
    return None


def paper_err_pct(workload: str, by_op: dict) -> float | None:
    """Mean over the workload's reference points (``paper_refs.json``) of
    |simulated - paper| / paper, in percent; None without references."""
    refs = json.loads((HERE / "paper_refs.json").read_text())["workloads"]
    errors = [abs(getattr(by_op[ident], ref["field"]) - ref["paper"])
              / ref["paper"]
              for ident, ref in refs.get(workload, {}).items()
              if by_op.get(ident) is not None]
    return 100.0 * sum(errors) / len(errors) if errors else None


# ----------------------------------------------------------------------
# traced replay of run_scenario's phases through the public API
# ----------------------------------------------------------------------
def build_network(sc: Scenario, **net_kwargs):
    """(network, scripts-or-None) for one scenario, traffic installed.
    ``net_kwargs`` go to the network constructor (the optional
    ``kernel=``/``always_step=`` probes; nothing gated passes any)."""
    net_kwargs.update(faults=sc.faults, fault_seed=sc.seed)
    tr = sc.traffic
    if sc.topology.backend == "baseline":
        from repro.baseline.network import PacketMesh

        return PacketMesh(sc.topology.mesh_config(), injection_rate=tr.load,
                          seed=sc.seed, **net_kwargs), None
    cfg = sc.topology.noc_config()
    if tr.kind == "dnn":
        from repro.traffic.dnn.workloads import WORKLOADS

        workload = WORKLOADS[tr.workload](cfg, **QUICK_DNN_MODEL)
        net = workload.build_network(cfg, **net_kwargs)
        return net, workload.install(net)
    traffic_args = dict(load=tr.load, max_burst_bytes=tr.max_burst_bytes,
                        read_fraction=tr.read_fraction,
                        min_burst_bytes=tr.min_burst_bytes, seed=sc.seed)
    if tr.kind == "synthetic":
        from repro.traffic.synthetic import (
            PATTERNS,
            build_synthetic_network,
            synthetic_traffic,
        )

        pattern = PATTERNS[tr.pattern]
        net, _slaves = build_synthetic_network(cfg, pattern, **net_kwargs)
        synthetic_traffic(net, pattern, **traffic_args).install()
        return net, None
    from repro.noc.network import NocNetwork
    from repro.traffic.uniform import uniform_random

    net = NocNetwork(cfg, **net_kwargs)
    uniform_random(net, **traffic_args).install()
    return net, None


def _collect(sc: Scenario, net) -> tuple[float, int]:
    """The reads ``run_scenario`` ends a point with, so the span around
    this holds their cost; only (throughput, cycles) is compared."""
    if sc.topology.backend == "baseline":
        throughput, stats = net.throughput_gib_s_node(), [net.latency]
    elif sc.traffic.workload == "train":
        from repro.sim.stats import GIB

        throughput = net.total_bytes() / net.sim.now * net.cfg.freq_hz / GIB
        stats = []
    else:
        throughput = net.aggregate_throughput_gib_s()
        stats = [b.dma.latency_stats for b in net.tiles if b.dma is not None]
    for stat in stats:
        for q in (0.5, 0.9, 0.99):
            stat.percentile(q)
    net.fault_report()
    return throughput, net.sim.now


def replay_scenario(sc: Scenario, tracer, ident: str,
                    cycles: int) -> tuple[float, int]:
    """One scenario, phase by phase, each phase under its own span;
    returns (throughput, cycles) for the caller to check against the
    untraced Result, whose cycle count is ``cycles``.

    ``Simulator.run`` is relative, so running the warm-up and the window
    as two calls simulates exactly what ``run_scenario``'s single call
    does.
    """
    from repro.store import provenance_for

    with tracer.span("run_scenario", op=ident):
        with tracer.span("build"):
            net, scripts = build_network(sc)
        if sc.traffic.workload == "train":
            # One full batch, ended by the predicate run_scenario uses.
            for script in scripts:
                script.loop = False
            with tracer.span("window"):
                net.run(cycles, until=lambda now: (
                    now % 2048 == 0 and all(s.done for s in scripts)
                    and net.idle()))
        else:
            warmup, window = sc.measure.resolve()
            net.set_warmup(warmup)
            with tracer.span("warmup"):
                net.run(warmup)
            with tracer.span("window"):
                net.run(window)
        with tracer.span("collect"):
            measured = _collect(sc, net)
        provenance_for(sc)
        return measured


# ----------------------------------------------------------------------
# passes and ops
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


class Op:
    """One timed unit of a pass: a scenario point, a sweep or a job.
    ``wall`` and ``cpu`` are host seconds as measured; times ``scale``
    they are reference-host seconds (``perf_trace.HostClock``)."""

    __slots__ = ("ident", "results", "wall", "cpu", "scale")

    def __init__(self, ident, results, wall, cpu, scale):
        self.ident = ident
        self.results = results
        self.wall = wall
        self.cpu = cpu
        self.scale = scale


class Outcome:
    """What one pass did: its ops with their Results and times, and the
    extra checks (replay equality, job status, ...) that failed."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.ops: list[Op] = []
        self.notes: list[str] = []
        self.extra_attempted = 0
        self.extra_failed = 0

    def timed(self, ident: str, fn):
        """Run ``fn`` (→ a list of Results) as one op under the wall and
        CPU clocks, between two host-clock samples (the one that ended
        the previous op serves if that was a moment ago).  An op that
        raises is a failed op, not a crash."""
        before = self.clock.sample(max_age=0.05)
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            results = fn()
        except Exception as exc:
            self.notes.append(f"{ident}: {type(exc).__name__}: {exc}")
            results = [None]
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        scale = self.clock.scale(before, self.clock.sample())
        self.ops.append(Op(ident, list(results), wall, cpu, scale))
        return results

    def check(self, ok: bool, note: str) -> None:
        self.extra_attempted += 1
        if not ok:
            self.extra_failed += 1
            self.notes.append(note)

    @property
    def results(self) -> list:
        return [r for op in self.ops for r in op.results]

    def seconds(self, clock: str, scaled: bool = True) -> float:
        """The pass's ``"wall"`` or ``"cpu"`` seconds: on the reference
        host, or as measured."""
        return sum(getattr(op, clock) * (op.scale if scaled else 1.0)
                   for op in self.ops)

    @property
    def cycles(self) -> int:
        return sum(r.cycles for r in self.results if r is not None)


def op_id(sc: Scenario) -> str:
    """Seed-free op name, e.g. ``slim/uniform@1/burst<4``."""
    topo = sc.topology
    if topo.backend == "baseline":
        fabric = f"mesh{topo.rows}x{topo.cols}/vc{topo.n_vcs}buf{topo.buf_depth}"
    else:
        fabric = "slim" if topo.data_width <= 64 else "wide"
    ident = f"{fabric}/{sc.traffic.label}"
    if sc.faults is not None:
        ident += f"/{sc.faults.recovery}"
        if sc.faults.response_faults:
            ident += "+resp"
    return ident


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Base: scenario points generated from ``seed``; one op per point."""

    name = ""
    #: False where a pass simulates nothing: no ``sim_kcycles_per_s``.
    simulates = True

    def __init__(self, seed: int, smoke: bool,
                 clock: HostClock | None = None):
        self.smoke = smoke
        self.clock = clock
        self.rng = random.Random(f"{seed}/{self.name}")
        self.points: list[Scenario] = self.generate()
        self.workdir: Path | None = None

    # -- generation ----------------------------------------------------
    def generate(self) -> list[Scenario]:
        raise NotImplementedError

    def point_seed(self) -> int:
        return self.rng.randrange(1, 2 ** 31)

    def quick(self, warmup: int | None = None,
              window: int | None = None) -> MeasureSpec:
        """``MeasureSpec.quick()``, or that with both windows written
        out; ``--smoke`` runs 50 + 150 cycles instead."""
        if self.smoke:
            warmup, window = 50, 150
        return MeasureSpec(warmup=warmup, window=window, fidelity="quick")

    def describe(self) -> list[dict]:
        """The generated inputs, for the equal-seed determinism check."""
        return [sc.to_dict() for sc in self.points]

    # -- lifecycle -----------------------------------------------------
    def setup(self, workdir: Path) -> None:
        """Everything before the first timed op: the warm-up op pays
        ``run_scenario``'s lazy imports here, not in a timed pass."""
        self.workdir = workdir
        run_scenario(self.warmup_point())

    def warmup_point(self) -> Scenario:
        for sc in self.points:
            if sc.traffic.workload != "train":
                return replace(sc, measure=MeasureSpec(
                    warmup=20, window=60, fidelity=sc.measure.fidelity))
        raise ValueError(f"{self.name}: no windowed point to warm up on")

    def run_pass(self) -> Outcome:
        out = Outcome(self.clock)
        for sc in self.points:
            out.timed(op_id(sc), lambda: [run_scenario(sc)])
        return out

    def traced_pass(self, tracer, reference: Outcome) -> Outcome:
        """The same ops, replayed phase by phase with spans on."""
        out = Outcome(self.clock)
        for sc, expected in zip(self.points, reference.results):
            out.timed(op_id(sc), lambda: self.replay(
                out, sc, tracer, op_id(sc), expected))
        return out

    @staticmethod
    def replay(out: Outcome, sc, tracer, ident: str, expected) -> list:
        measured = replay_scenario(sc, tracer, ident, expected.cycles)
        out.check(measured == (expected.throughput_gib_s, expected.cycles),
                  f"{ident}: traced replay diverged from run_scenario")
        return []

    def verify(self, first: Outcome) -> None:
        """Untimed checks after the passes (default: none)."""

    def close(self) -> None:
        pass


class AxiWrite(Workload):
    """Fig. 4's push-DMA points: both widths, both loads, both caps.
    Slim at load 0.2 with cap 64000 is left out: a DMA starts such a
    transfer every 40000 cycles, and on 2 of 80 seeds tried none
    completed in the 10000 — a failed op."""

    name = "axi_write"

    def generate(self):
        slim, wide = TopologySpec.slim(), TopologySpec.wide()
        return [Scenario(topology=topo,
                         traffic=TrafficSpec.uniform(load, cap),
                         measure=self.quick(), seed=self.point_seed())
                for topo, load, cap in ((slim, 1.0, 4), (slim, 1.0, 64000),
                                        (wide, 0.2, 64000),
                                        (wide, 1.0, 64000))]


class AxiRw(Workload):
    """Fig. 6 points: hot-spot short bursts, nearest-neighbour long ones."""

    name = "axi_rw"

    def generate(self):
        slim, wide = TopologySpec.slim(), TopologySpec.wide()
        return [Scenario(topology=topo,
                         traffic=TrafficSpec.synthetic(pattern, cap),
                         measure=self.quick(), seed=self.point_seed())
                for topo, pattern, cap in ((slim, "all_global", 100),
                                           (slim, "one_hop", 64000),
                                           (wide, "one_hop", 64000))]


class MeshUniform(Workload):
    """Fig. 4's baseline (VC=1, Buf=4) below and at saturation."""

    name = "mesh_uniform"

    def generate(self):
        return [Scenario(topology=TopologySpec.baseline(1, 4),
                         traffic=TrafficSpec.uniform(rate, 1),
                         measure=self.quick(), seed=self.point_seed())
                for rate in (0.2, 1.0)]


class DnnFig8(Workload):
    """Fig. 8's wide bars par and train.  The windows are the ones
    ``MeasureSpec.quick()`` resolves to for a DNN point on the wide
    fabric, written out so that the traced replay can split at the
    warm-up boundary; the batch has no window and runs to completion."""

    name = "dnn_fig8"

    def generate(self):
        bars = [("par", self.quick(6_000, 10_000))]
        if not self.smoke:  # the batch cannot be shortened: 1.4 s
            bars.append(("train", self.quick()))
        return [Scenario(topology=TopologySpec.wide(),
                         traffic=TrafficSpec.dnn(key), measure=measure,
                         seed=self.point_seed())
                for key, measure in bars]


class Faulted(Workload):
    """The resilience experiment's armed path, one point per fabric.
    The AXI point recovers by retransmission: with ``recovery="reroute"``
    and ``txn_timeout=900`` the simulator raises ``response for unknown
    id`` in ``dma._complete`` on 3 of 200 seeds tried (README) — a failed
    op — and with retransmission on none of 500."""

    name = "faulted"

    def generate(self):
        measure = self.quick()
        warmup, window = measure.resolve()
        # Quick windows: dead over cycles [2500, 5500).
        start, duration = warmup + window // 16, 3 * window // 8
        dead = tuple(LinkFault(src, dst, start=start, duration=duration)
                     for src, dst in ((5, 6), (6, 5)))
        stuck = StuckVcFault(node=9, port=1, vc=1, start=start,
                             duration=duration)
        return [
            Scenario(topology=TopologySpec.slim(),
                     traffic=TrafficSpec.uniform(1.0, 1000), measure=measure,
                     faults=FaultSpec(links=dead, corrupt_rate=2e-4,
                                      txn_timeout=900, recovery="retransmit",
                                      response_faults=True),
                     seed=self.point_seed()),
            Scenario(topology=TopologySpec.baseline(2, 8),
                     traffic=TrafficSpec.uniform(0.3, 1), measure=measure,
                     faults=FaultSpec(links=dead, stuck_vcs=(stuck,),
                                      recovery="reroute"),
                     seed=self.point_seed())]


class SweepCold(Workload):
    """One op: the whole grid through the pool into an empty store."""

    name = "sweep_cold"
    JOBS = 2

    def generate(self):
        seeds = [self.point_seed() for _ in range(2 if self.smoke else 4)]
        window = 150 if self.smoke else 800
        base = Scenario(topology=TopologySpec.slim(),
                        measure=MeasureSpec(warmup=window // 4,
                                            window=window))
        return sweep(base, loads=[0.1, 0.3, 0.6, 1.0],
                     burst_caps=[100, 1000], seeds=seeds).points()

    def run_pass(self) -> Outcome:
        return self._sweep(_no_span)

    def _sweep(self, span) -> Outcome:
        store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        out = Outcome(self.clock)
        try:
            with span("run_sweep", op="sweep"):
                results = out.timed("sweep", lambda: run_sweep(
                    self.points, jobs=self.JOBS, cache="rw", store=store))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        stats = getattr(results, "stats", None)
        out.check(stats is not None and stats.misses == len(self.points),
                  f"cold sweep: {stats.summary() if stats else 'raised'}")
        return out

    def traced_pass(self, tracer, reference: Outcome) -> Outcome:
        """The real pooled sweep under one span, then every point again
        serially, phase by phase: the pool hides the phases, and the
        difference between the two is what the pool and store cost."""
        out = self._sweep(tracer.span)
        for i, (sc, expected) in enumerate(zip(self.points,
                                               reference.results)):
            self.replay(out, sc, tracer, f"{op_id(sc)}/{i}", expected)
        return out

    def verify(self, first: Outcome) -> None:
        subset = slice(0, 16)
        serial = run_sweep(self.points[subset], jobs=1)
        for i, (one, two) in enumerate(zip(serial, first.results[subset])):
            first.check(one == two,
                        f"point {i}: jobs=1 and jobs={self.JOBS} differ")


class StoreReplay(Workload):
    """Twelve ops a pass: four 100 %-hit sweeps, then eight HTTP jobs."""

    name = "store_replay"
    simulates = False
    SWEEPS = 4
    JOBS = 8

    def generate(self):
        # Real points, as cheap as they come (2x2 mesh, 125 cycles, 5 ms):
        # populating the store is set-up, paid three times per run.
        topo = TopologySpec.baseline(1, 4, rows=2, cols=2)
        measure = MeasureSpec(warmup=25, window=100)
        return [Scenario(topology=topo, traffic=TrafficSpec.uniform(0.6, 1),
                         measure=measure, seed=self.point_seed())
                for _ in range(16 if self.smoke else 256)]

    def setup(self, workdir: Path) -> None:
        from repro.service import make_server

        self.workdir = workdir
        self.store = tempfile.mkdtemp(prefix="store-", dir=workdir)
        self.stored = list(run_sweep(self.points, cache="rw",
                                     store=self.store))
        self.body = json.dumps([sc.to_dict() for sc in self.points]).encode()
        self.server = make_server(port=0, store=self.store, cache="rw",
                                  jobs=1)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.02},
                                       daemon=True)
        self.thread.start()

    def run_pass(self) -> Outcome:
        return self._pass(_no_span)

    def traced_pass(self, tracer, reference: Outcome) -> Outcome:
        return self._pass(tracer.span)

    def _pass(self, span) -> Outcome:
        out = Outcome(self.clock)
        for i in range(self.SWEEPS):
            ident = f"replay_sweep/{i}"
            with span("run_sweep", op=ident):
                results = out.timed(ident, lambda: run_sweep(
                    self.points, cache="rw", store=self.store))
            stats = getattr(results, "stats", None)
            out.check(list(results) == self.stored and stats is not None
                      and stats.hits == len(self.points),
                      f"{ident}: replay differs from the stored results")
        for i in range(self.JOBS):
            ident = f"http_job/{i}"
            with span("http_job", op=ident):
                out.timed(ident, lambda: self._job(ident, out, span))
        return out

    def _job(self, ident: str, out: Outcome, span) -> list:
        job = http_job(self.server.server_address, self.body, span)
        end = job["end"]
        out.check(end.get("status") == "done" and end.get("hits")
                  == end.get("total") == len(self.points),
                  f"{ident}: ended {end}")
        results = [Result.from_dict(entry["result"])
                   if entry["result"] is not None else None
                   for entry in job["results"]]
        out.check(results == self.stored,
                  f"{ident}: served results differ from the store")
        return results

    def close(self) -> None:
        self.server.shutdown()
        self.server.manager.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


def _request(address, method: str, path: str, body: bytes | None = None):
    """One request on its own connection, as ``examples/service_smoke.py``
    and any urllib client make it; returns (status, body bytes)."""
    conn = http.client.HTTPConnection(address[0], address[1], timeout=30)
    try:
        conn.request(method, path, body,
                     {"Content-Type": "application/json"} if body else {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def http_job(address, body: bytes, span=_no_span, deadline_s: float = 60.0
             ) -> dict:
    """One service job as a user runs it: POST ``/jobs``, poll
    ``/progress?since=K`` every 1 ms until the end event, GET
    ``/results`` — one connection open at a time.  Returns the end
    event, the results payload and the client-side timings in seconds."""
    t0 = time.perf_counter()
    with span("http.submit"):
        status, data = _request(address, "POST", "/jobs", body)
    accepted = json.loads(data)
    if status != 202:
        raise RuntimeError(f"submit refused: {accepted}")
    submit_s = time.perf_counter() - t0
    job = accepted["job"]
    seen, end, first_event_s, polls = 0, None, None, []
    with span("http.progress"):
        while end is None:
            if time.perf_counter() - t0 > deadline_s:
                raise TimeoutError(f"{job} did not end in {deadline_s}s")
            t_poll = time.perf_counter()
            _status, data = _request(
                address, "GET", f"/jobs/{job}/progress?since={seen}")
            polls.append(time.perf_counter() - t_poll)
            for line in data.splitlines():
                seen += 1
                if first_event_s is None:
                    first_event_s = time.perf_counter() - t0
                event = json.loads(line)
                if event.get("event") == "end":
                    end = event
            if end is None:
                time.sleep(0.001)
    t_fetch = time.perf_counter()
    with span("http.results"):
        _status, data = _request(address, "GET", f"/jobs/{job}/results")
    results = json.loads(data)
    now = time.perf_counter()
    return {"end": end, "results": results, "submit_s": submit_s,
            "first_event_s": first_event_s, "polls_s": polls,
            "results_s": now - t_fetch, "total_s": now - t0}


WORKLOADS = {cls.name: cls for cls in (
    AxiWrite, AxiRw, MeshUniform, DnnFig8, Faulted, SweepCold, StoreReplay)}
