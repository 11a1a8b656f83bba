"""Probes for the workload-independent per-layer metrics
(``perf_decl.PROBED``): each times one layer through its public
functions, sized so that all of them together take about ten seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from statistics import median

from perf_decl import PROBED
from perf_trace import hi_percentile
from perf_workloads import build_network, http_job


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _samples(fn, n: int) -> list[float]:
    return [_timed(fn) for _ in range(n)]


class Probes:
    """Runs the probes and collects ``{metric: value}`` plus, for the
    percentile rows, a note naming the percentile and sample count."""

    def __init__(self, workdir: Path, smoke: bool):
        self.workdir = workdir
        self.smoke = smoke
        self.values: dict[str, float | None] = {}
        self.notes: dict[str, str] = {}
        #: Cycles per kernel probe after a 300-cycle fill.
        self.cycles = 150 if smoke else 1200
        self.reps = 1 if smoke else 3

    def run(self) -> None:
        for probe in (self.cli, self.store, self.scenarios, self.noc,
                      self.baseline, self.other_kernels, self.traffic,
                      self.faults, self.service, self.eval):
            probe()
        missing = set(PROBED) - set(self.values)
        if missing:
            raise RuntimeError(f"probes left out {sorted(missing)}")

    def _hi(self, name: str, samples, scale: float) -> None:
        value, pct, n = hi_percentile(samples)
        self.values[name] = value * scale
        self.notes[name] = f"p{pct} of {n}"

    # -- cli -----------------------------------------------------------
    def cli(self) -> None:
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)

        def cold(*args):
            subprocess.run([sys.executable, *args], env=env, check=True,
                           stdout=subprocess.DEVNULL)

        reps = 1 if self.smoke else 5
        self.values["cli.import_s"] = median(_samples(
            lambda: cold("-c", "import repro"), reps))
        self.values["cli.list_cold_s"] = median(_samples(
            lambda: cold("-m", "repro", "list"), reps))

    # -- store ---------------------------------------------------------
    def store(self) -> None:
        from repro.scenarios import (
            MeasureSpec,
            Scenario,
            TopologySpec,
            TrafficSpec,
            run_scenario,
        )
        from repro.store import ResultStore, code_fingerprint, spec_hash

        n = 30 if self.smoke else 200
        base = Scenario(topology=TopologySpec.baseline(1, 4, rows=2, cols=2),
                        traffic=TrafficSpec.uniform(0.3, 1),
                        measure=MeasureSpec(warmup=100, window=400))
        result = run_scenario(base)
        points = [replace(base, seed=i + 1) for i in range(n)]
        absent = [replace(base, seed=n + i + 1) for i in range(n)]
        store = ResultStore(tempfile.mkdtemp(prefix="probe-store-",
                                             dir=self.workdir))
        self.values["store.fingerprint_s"] = median(_samples(
            lambda: code_fingerprint(refresh=True), self.reps))
        self.values["store.spec_hash_us"] = 1e6 * median(
            [_timed(lambda: spec_hash(sc)) for sc in points])
        puts = [_timed(lambda: store.put(sc, replace(result, seed=sc.seed)))
                for sc in points]
        hits = [_timed(lambda: store.get(sc)) for sc in points]
        misses = [_timed(lambda: store.get(sc)) for sc in absent]
        self.values["store.put_p50_us"] = 1e6 * median(puts)
        self._hi("store.put_hi_us", puts, 1e6)
        self.values["store.get_hit_p50_us"] = 1e6 * median(hits)
        self._hi("store.get_hit_hi_us", hits, 1e6)
        self.values["store.get_miss_p50_us"] = 1e6 * median(misses)
        stats = store.stats()
        self.values["store.entry_bytes"] = stats["bytes"] / stats["entries"]
        report = {}
        verify_s = _timed(lambda: report.update(store.verify()))
        if report["ok"] != n:
            raise RuntimeError(f"store verify: {report}")
        self.values["store.verify_ms_per_entry"] = 1e3 * verify_s / n
        self._probe_store, self._probe_points = store, points

    # -- scenarios -----------------------------------------------------
    def scenarios(self) -> None:
        from repro.scenarios import (
            MeasureSpec,
            Result,
            Scenario,
            TopologySpec,
            run_sweep,
            save_artifacts,
            sweep,
        )

        store, points = self._probe_store, self._probe_points
        replayed = run_sweep(points, cache="rw", store=store)
        result, sc = replayed[0], points[0]
        text = json.dumps(result.to_dict())
        spec = sc.to_dict()
        n = 200
        self.values["scenarios.result_json_us"] = 1e6 * median(_samples(
            lambda: json.dumps(result.to_dict()), n))
        self.values["scenarios.result_load_us"] = 1e6 * median(_samples(
            lambda: Result.from_dict(json.loads(text)), n))
        self.values["scenarios.spec_from_dict_us"] = 1e6 * median(_samples(
            lambda: Scenario.from_dict(spec), n))
        self.values["scenarios.sweep_hit_us_per_point"] = 1e6 * median(
            _samples(lambda: run_sweep(points, cache="rw", store=store),
                     self.reps)) / len(points)
        out = tempfile.mkdtemp(prefix="probe-artifacts-", dir=self.workdir)
        self.values["scenarios.save_artifacts_ms"] = 1e3 * median(_samples(
            lambda: save_artifacts(points, replayed, out), self.reps))
        # The sweep_cold grid at four seeds: 32 points, cache off.
        window = 150 if self.smoke else 800
        grid = sweep(Scenario(topology=TopologySpec.slim(),
                              measure=MeasureSpec(warmup=window // 4,
                                                  window=window)),
                     loads=[0.1, 0.3, 0.6, 1.0], burst_caps=[100, 1000],
                     seeds=[1] if self.smoke else [1, 2, 3, 4])
        self.values["scenarios.sweep_expand_us_per_point"] = 1e6 * median(
            _samples(grid.points, 20)) / len(grid)
        cold = grid.points()
        serial, pooled = [], []
        for _ in range(self.reps):  # interleaved: drift hits both alike
            serial.append(_timed(lambda: run_sweep(cold, jobs=1)))
            pooled.append(_timed(lambda: run_sweep(cold, jobs=2)))
        jobs1, jobs2 = median(serial), median(pooled)
        self.values["scenarios.sweep_jobs1_s"] = jobs1
        self.values["scenarios.sweep_jobs2_s"] = jobs2
        self.values["scenarios.sweep_parallel_efficiency"] = \
            jobs1 / (2 * jobs2)
        self.values["scenarios.sweep_pool_overhead_s"] = jobs2 - jobs1 / 2

    # -- the two fabrics, default kernel --------------------------------
    def _stepped(self, sc, cycles=None, **net_kwargs):
        """(seconds per cycle, bytes or flits delivered) over ``cycles``
        of a fabric that 300 cycles have filled; the scenario is built
        as the traced replay builds it."""
        net, _scripts = build_network(sc, **net_kwargs)
        if sc.topology.backend == "baseline":
            def delivered():
                return net.flits_received
        else:
            delivered = net.total_bytes
        net.run(300)
        before = delivered()
        cycles = cycles or self.cycles
        seconds = _timed(lambda: net.run(cycles))
        return seconds / cycles, delivered() - before

    def noc(self) -> None:
        from repro.noc.config import NocConfig
        from repro.noc.network import NocNetwork
        from repro.noc.reroute import compute_fault_tables
        from repro.noc.topology import Mesh2D
        from repro.scenarios import Scenario, TopologySpec, TrafficSpec

        slim, wide = TopologySpec.slim(), TopologySpec.wide()
        self.values["noc.build_ms"] = 1e3 * median(_samples(
            lambda: NocNetwork(NocConfig.slim()), 2 * self.reps))
        us = 1e6
        for row, topo, traffic in (
                ("write_short", slim, TrafficSpec.uniform(1.0, 4)),
                ("rw_short", slim, TrafficSpec.synthetic("all_global", 100)),
                ("rw_long", wide, TrafficSpec.synthetic("one_hop", 64000)),
                ("dnn", wide, TrafficSpec.dnn("pipe"))):
            self.values[f"noc.us_per_cycle.{row}"] = us * self._stepped(
                Scenario(topology=topo, traffic=traffic))[0]
        for name, topo in (("slim", slim), ("wide", wide)):
            per_cycle, delivered = self._stepped(Scenario(
                topology=topo, traffic=TrafficSpec.uniform(1.0, 64000)))
            if name == "slim":
                self.values["noc.us_per_cycle.write_long"] = us * per_cycle
            beats = delivered / (topo.data_width // 8)
            if not beats:
                raise RuntimeError(f"{name}: no beat delivered in the probe")
            self.values[f"noc.us_per_delivered_beat.{name}"] = \
                us * per_cycle * self.cycles / beats
        idle = NocNetwork(NocConfig.slim())
        idle_cycles = 100 * self.cycles  # fast-forwarded: needs many
        self.values["noc.us_per_cycle.idle"] = us * _timed(
            lambda: idle.run(idle_cycles)) / idle_cycles
        mesh = Mesh2D(4, 4)
        dead = {(src, port) for src, port, dst, _in in mesh.directed_links()
                if (src, dst) in ((5, 6), (6, 5))}
        self.values["noc.reroute_tables_ms"] = 1e3 * median(_samples(
            lambda: compute_fault_tables(mesh, dead, {}, range(16)),
            2 * self.reps))

    @staticmethod
    def _mesh_point(n_vcs, buf, rate, faults=None):
        from repro.scenarios import Scenario, TopologySpec, TrafficSpec

        return Scenario(topology=TopologySpec.baseline(n_vcs, buf),
                        traffic=TrafficSpec.uniform(rate, 1), faults=faults)

    def baseline(self) -> None:
        from repro.baseline.network import PacketMesh, PacketMeshConfig

        self.values["baseline.build_ms"] = 1e3 * median(_samples(
            lambda: PacketMesh(PacketMeshConfig(), injection_rate=0.2,
                               seed=1), 2 * self.reps))
        cycles = self.cycles // 2
        for row, args in (("vc1_low", (1, 4, 0.2)), ("vc1_sat", (1, 4, 1.0)),
                          ("vc4_sat", (4, 32, 1.0))):
            per_cycle, flits = self._stepped(self._mesh_point(*args), cycles)
            self.values[f"baseline.us_per_cycle.{row}"] = 1e6 * per_cycle
        self.values["baseline.us_per_flit"] = 1e6 * per_cycle * cycles / flits

    # -- the other kernels, while the constructors still take them -----
    def other_kernels(self) -> None:
        from repro.scenarios import Scenario, TopologySpec, TrafficSpec

        def optional(*args, **net_kwargs):
            """None, not an error, once ``kernel=``/``always_step=`` is
            gone from the constructor."""
            try:
                return 1e6 * self._stepped(*args, **net_kwargs)[0]
            except (TypeError, ValueError):
                return None

        # Same traffic as noc.us_per_cycle.rw_short and
        # baseline.us_per_cycle.vc4_sat: the quotients are the ratios.
        loaded = Scenario(topology=TopologySpec.slim(),
                          traffic=TrafficSpec.synthetic("all_global", 100))
        mesh = self._mesh_point(4, 32, 1.0)
        self.values["soa.us_per_cycle.axi"] = optional(loaded, kernel="soa")
        self.values["soa.us_per_cycle.mesh"] = optional(
            mesh, self.cycles // 2, kernel="soa")
        self.values["sim.always_step_us_per_cycle"] = optional(
            loaded, always_step=True)

    # -- traffic -------------------------------------------------------
    def traffic(self) -> None:
        from repro.noc.config import NocConfig
        from repro.noc.network import NocNetwork
        from repro.scenarios import Scenario, TopologySpec, TrafficSpec
        from repro.traffic.uniform import uniform_random

        for key in ("train", "par", "pipe"):
            sc = Scenario(topology=TopologySpec.wide(),
                          traffic=TrafficSpec.dnn(key))
            self.values[f"traffic.dnn_build_ms.{key}"] = 1e3 * median(
                _samples(lambda: build_network(sc), self.reps))
        net = NocNetwork(NocConfig.slim())
        self.values["traffic.uniform_install_ms"] = 1e3 * _timed(
            lambda: uniform_random(net, load=1.0, max_burst_bytes=1000,
                                   read_fraction=0.0, seed=1).install())

    # -- faults --------------------------------------------------------
    def faults(self) -> None:
        from repro.faults.spec import FaultSpec, LinkFault, StuckVcFault
        from repro.scenarios import Scenario, TopologySpec, TrafficSpec

        def dead(start, duration=None):
            return tuple(LinkFault(s, d, start=start, duration=duration)
                         for s, d in ((5, 6), (6, 5)))

        def per_cycle(sc, faults, cycles):
            return self._stepped(replace(sc, faults=faults), cycles)[0]

        # Armed but inert: the only event starts long after the probe.
        inert = FaultSpec(links=dead(10 ** 9), recovery="retransmit")
        axi = Scenario(topology=TopologySpec.slim(),
                       traffic=TrafficSpec.uniform(1.0, 1000))
        mesh = self._mesh_point(2, 8, 0.3)
        for name, sc, cycles in (("axi", axi, self.cycles),
                                 ("mesh", mesh, self.cycles // 2)):
            clean, armed = [], []
            for _ in range(self.reps):  # interleaved: drift hits both alike
                clean.append(per_cycle(sc, None, cycles))
                armed.append(per_cycle(sc, inert, cycles))
            self.values[f"faults.armed_inert_ratio.{name}"] = \
                median(armed) / median(clean)
        active = FaultSpec(links=dead(400, self.cycles // 2),
                           corrupt_rate=2e-4, txn_timeout=900,
                           recovery="retransmit", response_faults=True)
        self.values["faults.active_us_per_cycle.axi"] = 1e6 * per_cycle(
            axi, active, self.cycles)
        stuck = StuckVcFault(node=9, port=1, vc=1, start=400,
                             duration=self.cycles // 4)
        active = FaultSpec(links=dead(400, self.cycles // 4),
                           stuck_vcs=(stuck,), recovery="reroute")
        self.values["faults.active_us_per_cycle.mesh"] = 1e6 * per_cycle(
            mesh, active, self.cycles // 2)

    # -- service -------------------------------------------------------
    def service(self) -> None:
        from repro.service import make_server

        points = self._probe_points[:32]
        body = json.dumps([sc.to_dict() for sc in points]).encode()
        server = make_server(port=0, store=self._probe_store, cache="rw",
                             jobs=1)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.02},
                                  daemon=True)
        thread.start()
        try:
            jobs = [http_job(server.server_address, body)
                    for _ in range(12 if self.smoke else 40)]
        finally:
            server.shutdown()
            server.manager.shutdown()
            server.server_close()
            thread.join(timeout=10)
        for job in jobs:
            end = job["end"]
            if end.get("status") != "done" or end.get("hits") != len(points):
                raise RuntimeError(f"service probe job ended {end}")
        ms = 1e3
        self.values["service.submit_p50_ms"] = ms * median(
            [j["submit_s"] for j in jobs])
        self.values["service.first_event_p50_ms"] = ms * median(
            [j["first_event_s"] for j in jobs])
        totals = [j["total_s"] for j in jobs]
        self.values["service.hit_job_p50_ms"] = ms * median(totals)
        self._hi("service.hit_job_hi_ms", totals, ms)
        self.values["service.results_fetch_ms"] = ms * median(
            [j["results_s"] for j in jobs])
        self.values["service.progress_poll_ms"] = ms * median(
            [p for j in jobs for p in j["polls_s"]])

    # -- eval ----------------------------------------------------------
    def eval(self) -> None:
        from repro.eval.experiments import run_experiment

        # table2 is nearly all of it (1 s); --smoke leaves it out.
        experiments = ("table1", "fig2", "fig3", "power") + (
            () if self.smoke else ("table2",))
        self.values["eval.analytic_s"] = _timed(lambda: [
            run_experiment(exp, quick=True) for exp in experiments])
