"""Tests for the declarative scenario layer (DESIGN.md §9): spec
validation, JSON round-trips, sweep expansion, parallel == serial
execution, and figure-output pinning against pre-refactor goldens."""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from repro.scenarios import (
    DEFAULT_WARMUP,
    DEFAULT_WINDOW,
    QUICK_WARMUP,
    QUICK_WINDOW,
    MeasureSpec,
    Result,
    Scenario,
    Sweep,
    TopologySpec,
    TrafficSpec,
    load_results_json,
    load_spec,
    run_scenario,
    run_sweep,
    save_artifacts,
    save_results_json,
    sweep,
)
from repro.scenarios.run import build_network
from test_faults import kill_workers_running

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small windows: these tests assert plumbing, not paper numbers.
FAST = MeasureSpec(300, 900)

#: A valid value other than the default for every TopologySpec field.
NON_DEFAULT = dict(
    rows=3, cols=3, freq_hz=5e8, data_width=64, id_width=3,
    max_outstanding=4, full_connectivity=True,
    dma_issue_overhead=4, memory_latency=3, hop_latency=1, n_vcs=2,
    buf_depth=8)
#: Former TopologySpec fields, now constants (``addr_width`` only sizes
#: the area model): a spec naming one fails.
REMOVED_TOPOLOGY = dict(memory_outstanding=8, w_order_depth=4, flit_bytes=8,
                        packet_flits=4, addr_width=64)

#: A valid value other than the default for every TrafficSpec field but
#: ``kind``, and the name each kind needs.
TRAFFIC_NON_DEFAULT = dict(load=0.3, max_burst_bytes=64, min_burst_bytes=2,
                           read_fraction=0.5, pattern="one_hop",
                           workload="par")
TRAFFIC_NAMES = {"synthetic": {"pattern": "all_global"},
                 "dnn": {"workload": "pipe"}}
#: The fields each traffic kind does not read: a DNN workload script
#: defines its own bursts and rate.
UNREAD_TRAFFIC = {
    "uniform": {"pattern", "workload"},
    "synthetic": {"workload"},
    "dnn": {"load", "max_burst_bytes", "min_burst_bytes", "read_fraction",
            "pattern"},
}
#: What a baseline point's burst fields read, whatever the spec says.
BASELINE_BURSTS = dict(max_burst_bytes=1, min_burst_bytes=1,
                       read_fraction=0.0)


class TestTopologySpec:
    def test_bad_backend(self):
        with pytest.raises(ValueError):
            TopologySpec(backend="torus")

    def test_patronoc_validation_delegates_to_nocconfig(self):
        with pytest.raises(ValueError):
            TopologySpec(data_width=33)

    def test_from_noc_config_is_lossless(self):
        from repro.noc.config import NocConfig

        cfg = NocConfig.slim().with_(memory_latency=9, hop_latency=3)
        spec = TopologySpec.from_noc_config(cfg)
        assert spec.noc_config() == cfg

    def test_coerce_labels(self):
        assert TopologySpec.coerce("slim").data_width == 32
        assert TopologySpec.coerce("wide").data_width == 512
        assert TopologySpec.coerce("AXI_32_64_4").data_width == 64

    def test_an_address_width_other_than_32_is_refused(self):
        """No simulated component reads AW: a config or label that sets
        another is refused by name, and the label still prints 32."""
        from repro.noc.config import NocConfig

        for build in (
                lambda: TopologySpec.from_noc_config(
                    NocConfig(addr_width=64)),
                lambda: TopologySpec.from_label("AXI_64_64_4"),
                lambda: TopologySpec.coerce("AXI_64_64_4")):
            with pytest.raises(ValueError,
                               match="addr_width=64 does nothing"):
                build()
        assert TopologySpec.coerce("AXI_32_64_4").label == "AXI_32_64_4@4x4"

    def test_baseline_label(self):
        spec = TopologySpec.baseline(4, 32)
        assert spec.mesh_config().n_vcs == 4
        assert "VC=4" in spec.label

    @pytest.mark.parametrize("backend", ["patronoc", "baseline"])
    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(TopologySpec)
        if f.name != "backend"] + list(REMOVED_TOPOLOGY))
    def test_ignored_field_is_refused(self, field, backend):
        """A non-default value of a field the backend's config does not
        take is refused by name; one it takes is accepted.  A field no
        config takes, or one missing from ``NON_DEFAULT``, fails here.
        A removed field is an unexpected keyword, named."""
        from repro.baseline.network import PacketMeshConfig
        from repro.noc.config import NocConfig

        if field in REMOVED_TOPOLOGY:
            with pytest.raises(TypeError, match=f"'{field}'"):
                TopologySpec(backend=backend,
                             **{field: REMOVED_TOPOLOGY[field]})
            return

        noc = {f.name for f in dataclasses.fields(NocConfig)}
        mesh = set(inspect.signature(PacketMeshConfig).parameters)
        assert field in noc | mesh, f"{field} is wired into no config"
        taken = noc if backend == "patronoc" else mesh
        kwargs = {"backend": backend, field: NON_DEFAULT[field]}
        if field in taken:
            assert getattr(TopologySpec(**kwargs), field) == NON_DEFAULT[field]
        else:
            with pytest.raises(ValueError, match=f"{field}=.*{backend}"):
                TopologySpec(**kwargs)


class TestTrafficSpec:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            TrafficSpec(kind="bursty")

    def test_synthetic_needs_known_pattern(self):
        with pytest.raises(ValueError):
            TrafficSpec(kind="synthetic", pattern="diagonal")

    def test_dnn_needs_known_workload(self):
        with pytest.raises(ValueError):
            TrafficSpec(kind="dnn", workload="transformer")

    def test_burst_bounds(self):
        with pytest.raises(ValueError):
            TrafficSpec(max_burst_bytes=4, min_burst_bytes=8)

    def test_read_fraction_range(self):
        with pytest.raises(ValueError):
            TrafficSpec(read_fraction=1.5)

    @pytest.mark.parametrize("backend, kind, field", [
        (backend, kind, f.name)
        for backend, kind in (("patronoc", "uniform"),
                              ("patronoc", "synthetic"),
                              ("patronoc", "dnn"), ("baseline", "uniform"))
        for f in dataclasses.fields(TrafficSpec) if f.name != "kind"])
    def test_a_field_the_point_does_not_read(self, backend, kind, field):
        """A non-default value of a traffic field the point does not
        read is refused by name, or, for a baseline point's burst
        fields, replaced by Fig. 4's values, so the spec hash does not
        see it.  A field the point reads keeps its value."""
        from repro.store import spec_hash

        base = {"kind": kind, **TRAFFIC_NAMES.get(kind, {})}
        point = {"topology": {"backend": backend},
                 "traffic": {**base, field: TRAFFIC_NON_DEFAULT[field]}}
        unread = UNREAD_TRAFFIC[kind]
        if backend == "baseline" and field in BASELINE_BURSTS:
            sc = Scenario.from_dict(point)
            assert getattr(sc.traffic, field) == BASELINE_BURSTS[field]
            assert spec_hash(sc) == spec_hash(Scenario.from_dict(
                {**point, "traffic": base}))
        elif field in unread:
            with pytest.raises(ValueError,
                               match=f"{field}=.* in {kind} traffic"):
                Scenario.from_dict(point)
        else:
            sc = Scenario.from_dict(point)
            assert getattr(sc.traffic, field) == TRAFFIC_NON_DEFAULT[field]


class TestMeasureSpec:
    def test_presets(self):
        assert MeasureSpec.full().resolve() == (DEFAULT_WARMUP,
                                                DEFAULT_WINDOW)
        assert MeasureSpec.quick().resolve() == (QUICK_WARMUP, QUICK_WINDOW)
        assert MeasureSpec.quick().is_quick

    def test_presets_leave_windows_derivable(self):
        # Presets pin fidelity only; None windows mean "derive", which
        # is what lets DNN scenarios pick workload-specific windows.
        assert MeasureSpec.quick().warmup is None
        assert MeasureSpec.full().window is None

    def test_coerce_legacy_bool(self):
        """A bool is not a MeasureSpec: ``run_experiment(quick=)`` picks
        the preset."""
        assert MeasureSpec.coerce(None) == MeasureSpec.full()
        with pytest.raises(TypeError, match="cannot coerce True"):
            MeasureSpec.coerce(True)


class TestSpecTypes:
    """A scalar field takes exactly its annotated type (``float`` also
    an int): a bool or a float where an int belongs would run under a
    second spec hash, or as a different point (DESIGN.md §9)."""

    @pytest.mark.parametrize("head, field, value", [
        ("measure", "window", True),
        ("measure", "window", 100.0),
        ("measure", "warmup", 25.5),
        ("topology", "rows", 2.0),
        ("topology", "hop_latency", True),
        ("topology", "full_connectivity", 1),
        ("traffic", "max_burst_bytes", 1000.0),
        ("traffic", "load", True),
        ("traffic", "load", "0.5"),
        ("faults", "txn_timeout", 900.0),
        ("faults", "link_duration", True),
        ("faults", "response_faults", 0),
        (None, "seed", True),
    ])
    def test_a_mistyped_field_is_refused_by_name(self, head, field, value):
        data = {field: value} if head is None else {head: {field: value}}
        with pytest.raises(TypeError, match=f"^{field} must be "):
            Scenario.from_dict(data)

    def test_ints_in_float_fields_and_none_where_allowed_pass(self):
        sc = Scenario.from_dict({
            "topology": {"freq_hz": 1000000000},
            "traffic": {"load": 1, "read_fraction": 0},
            "measure": {"warmup": None, "window": 900, "max_wall_s": 5},
            "faults": {"corrupt_rate": 0, "txn_timeout": None}})
        assert sc.traffic.load == 1 and sc.measure.window == 900


class TestScenarioValidation:
    def test_canonical_baseline_traffic_is_kept(self):
        """A baseline point whose burst fields already hold Fig. 4's
        values keeps its TrafficSpec; any other value or type of them
        is canonicalised (``0`` would hash apart from ``0.0``).  A
        ``1.0`` burst cap never gets that far: the TrafficSpec refuses
        it."""
        from repro.store import spec_hash

        t = TrafficSpec.uniform(0.2, 1)
        sc = Scenario(topology=TopologySpec.baseline(), traffic=t)
        assert sc.traffic is t
        for burst in ({"max_burst_bytes": 64}, {"read_fraction": 0.5},
                      {"read_fraction": 0}):
            other = Scenario(topology=TopologySpec.baseline(),
                             traffic=dataclasses.replace(t, **burst))
            assert other.traffic == t
            assert spec_hash(other) == spec_hash(sc)
        with pytest.raises(TypeError, match="max_burst_bytes must be an int"):
            dataclasses.replace(t, max_burst_bytes=1.0)

    def test_baseline_rejects_synthetic(self):
        with pytest.raises(ValueError):
            Scenario(topology=TopologySpec.baseline(),
                     traffic=TrafficSpec.synthetic("one_hop", 1000))

    def test_pattern_must_fit_mesh(self):
        with pytest.raises(ValueError):
            Scenario(topology=TopologySpec.slim(rows=2, cols=2),
                     traffic=TrafficSpec.synthetic("one_hop", 1000))

    def test_baseline_rejects_per_link(self):
        """Per-link capture is gone from every backend: a spec whose
        ``measure`` still carries ``per_link`` is refused by name."""
        for backend in ("baseline", "patronoc"):
            with pytest.raises(TypeError, match="'per_link'"):
                Scenario.from_dict({
                    "topology": {"backend": backend},
                    "traffic": {"kind": "uniform", "load": 0.5,
                                "max_burst_bytes": 1},
                    "measure": {"warmup": 300, "window": 900,
                                "per_link": False}})

    def test_train_rejects_pinned_windows(self):
        # One full batch, not a window: pinned windows cannot be
        # honored, so the spec rejects them instead of ignoring them.
        with pytest.raises(ValueError):
            Scenario(traffic=TrafficSpec.dnn("train"),
                     measure=MeasureSpec(100, 1000))
        # Derived windows (the presets) are fine.
        Scenario(traffic=TrafficSpec.dnn("train"),
                 measure=MeasureSpec.quick())

    @pytest.mark.parametrize("seed", ["x", 1.5, 1.0, True, None])
    def test_a_seed_that_is_not_an_int_is_refused_by_name(self, seed):
        """Exactly ``int``, as the baseline burst fields: ``True``
        would run as seed 1 under another label and store key."""
        with pytest.raises(TypeError, match="seed must be an int"):
            Scenario(seed=seed)
        with pytest.raises(TypeError, match="seed"):
            Scenario.from_dict({"seed": seed})
        with pytest.raises(TypeError, match="seed"):
            Scenario().with_(seed=seed)
        with pytest.raises(TypeError, match="seed"):
            sweep(Scenario(), seeds=[1, seed]).points()

    def test_label_is_descriptive(self):
        sc = Scenario(traffic=TrafficSpec.uniform(0.5, 1000), seed=7)
        assert "uniform@0.5" in sc.label
        assert "seed7" in sc.label


class TestJsonRoundTrip:
    SCENARIOS = [
        Scenario(traffic=TrafficSpec.uniform(0.5, 1000), measure=FAST),
        Scenario(topology=TopologySpec.wide(),
                 traffic=TrafficSpec.synthetic("one_hop", 64000),
                 measure=MeasureSpec.quick(), seed=3),
        Scenario(traffic=TrafficSpec.dnn("pipe"),
                 measure=MeasureSpec.quick()),
        Scenario(topology=TopologySpec.baseline(4, 32),
                 traffic=TrafficSpec.uniform(0.2, 1), name="noxim"),
    ]

    @pytest.mark.parametrize("sc", SCENARIOS,
                             ids=lambda sc: sc.traffic.kind)
    def test_scenario_round_trips(self, sc):
        assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc

    def test_sweep_round_trips(self):
        """A sweep's JSON form expands to the points of the same sweep
        built in Python."""
        sw = sweep(self.SCENARIOS[0], loads=[0.1, 1.0], seeds=[1, 2])
        data = {"base": self.SCENARIOS[0].to_dict(),
                "axes": {"loads": [0.1, 1.0], "seeds": [1, 2]}}
        again = Sweep.from_dict(json.loads(json.dumps(data)))
        assert again.points() == sw.points()

    def test_sweep_with_spec_valued_axes_round_trips(self):
        configs = [TopologySpec.slim(), TopologySpec.wide()]
        sw = sweep(self.SCENARIOS[0], configs=configs)
        data = {"base": self.SCENARIOS[0].to_dict(),
                "axes": {"configs": [c.to_dict() for c in configs]}}
        again = Sweep.from_dict(json.loads(json.dumps(data)))
        assert again.points() == sw.points()

    def test_result_round_trips(self):
        result = run_scenario(self.SCENARIOS[0])
        assert Result.from_dict(result.to_dict()) == result


class TestSweepExpansion:
    def test_grid_is_row_major_product(self):
        sw = sweep(Scenario(measure=FAST), loads=[0.1, 0.5], seeds=[1, 2])
        points = sw.points()
        assert len(sw) == len(points) == 4
        assert [(p.traffic.load, p.seed) for p in points] == [
            (0.1, 1), (0.1, 2), (0.5, 1), (0.5, 2)]

    def test_aliases_and_dotted_paths_agree(self):
        base = Scenario(measure=FAST)
        via_alias = sweep(base, burst_caps=[4, 100]).points()
        via_path = sweep(base, **{"traffic.max_burst_bytes": [4, 100]}).points()
        assert via_alias == via_path

    def test_whole_spec_axis_coerces(self):
        points = sweep(Scenario(measure=FAST),
                       configs=["slim", "wide"]).points()
        assert [p.topology.data_width for p in points] == [32, 512]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(Scenario(), voltage=[0.8, 1.0])
        with pytest.raises(ValueError):
            sweep(Scenario(), **{"traffic.color": ["red"]})

    @pytest.mark.parametrize("axes, message", [
        (5, "axes must be an object"),
        ([["traffic.load", [0.1]]], "axes must be an object"),
        ("x", "axes must be an object"),
        ({"name": "ab"}, "name must be a list or tuple of values, got str"),
        ({"traffic.load": "0.5"}, "traffic.load must be a list"),
        ({"seeds": 3}, "seeds must be a list or tuple of values, got int"),
    ], ids=["5", "axes1", "x", "name-str", "load-str", "seeds-int"])
    def test_axes_that_are_not_an_object_are_refused_by_name(
            self, axes, message):
        """An axis's values, too: a string would run one point per
        character, a scalar fails mid-expansion or mid-simulation."""
        with pytest.raises(TypeError, match=message):
            Sweep.from_dict({"axes": axes})

    def test_colliding_axes_rejected(self):
        # loads= and traffic.load= resolve to the same path: an error,
        # not a silent overwrite.
        with pytest.raises(ValueError):
            sweep(Scenario(), loads=[0.1, 0.5],
                  **{"traffic.load": [1.0]})

    def test_axes_are_checked_together(self):
        """A point is checked once all its axes are applied: a
        ``response_faults`` axis may come before the ``txn_timeout``
        axis it needs."""
        points = sweep(Scenario(measure=FAST), **{
            "faults.response_faults": [True],
            "faults.txn_timeout": [500, 900]}).points()
        assert [p.faults.txn_timeout for p in points] == [500, 900]

    def test_expanded_points_are_validated(self):
        sw = sweep(Scenario(measure=FAST),
                   **{"traffic.load": [0.5, -1.0]})
        with pytest.raises(ValueError):
            sw.points()


class TestRunScenario:
    def test_uniform_point(self):
        result = run_scenario(Scenario(
            traffic=TrafficSpec.uniform(0.5, 1000), measure=FAST))
        assert result.throughput_gib_s > 0
        assert result.backend == "patronoc"
        assert result.label == "burst<1000"
        assert result.counters["measured_bytes"] > 0

    def test_baseline_point(self):
        result = run_scenario(Scenario(
            topology=TopologySpec.baseline(1, 4),
            traffic=TrafficSpec.uniform(0.1, 1), measure=FAST))
        assert 0 < result.throughput_gib_s < 2.0
        assert result.counters["aggregate_gib_s"] == pytest.approx(
            16 * result.throughput_gib_s, rel=1e-6)

    def test_synthetic_point_has_utilization(self):
        result = run_scenario(Scenario(
            traffic=TrafficSpec.synthetic("one_hop", 1000), measure=FAST))
        assert result.utilization_pct is not None
        assert result.utilization_pct > 0

    @pytest.mark.parametrize("topology, traffic, scripted", [
        (TopologySpec.slim(), TrafficSpec.uniform(0.5, 1000), False),
        (TopologySpec.slim(), TrafficSpec.synthetic("one_hop", 1000), False),
        (TopologySpec.wide(), TrafficSpec.dnn("pipe"), True),
        (TopologySpec.baseline(1, 4), TrafficSpec.uniform(0.1, 1), False),
    ], ids=["uniform", "synthetic", "dnn", "baseline"])
    def test_build_network_returns_scripts_for_dnn_only(
            self, topology, traffic, scripted):
        net, scripts = build_network(Scenario(
            topology=topology, traffic=traffic, measure=MeasureSpec.quick()))
        assert net.sim.now == 0  # built and installed, not driven
        if scripted:
            assert len(scripts) == len(net.dma_endpoints())
        else:
            assert scripts is None

    def test_dnn_windows_fill_per_field(self):
        # Pinned windows are honored exactly...
        pinned = run_scenario(Scenario(
            traffic=TrafficSpec.dnn("par"),
            measure=MeasureSpec(500, 1500, "quick")))
        assert pinned.cycles == 2_000
        # ...and a half-pinned spec fills only the None field from the
        # workload table (quick+slim warmup = 12_000).
        half = run_scenario(Scenario(
            traffic=TrafficSpec.dnn("par"),
            measure=MeasureSpec(None, 1500, "quick")))
        assert half.cycles == 12_000 + 1_500

    def test_dnn_preset_derives_workload_windows(self):
        # The stock preset must NOT impose its generic windows on DNN
        # scenarios: quick+slim par derives (12_000, 20_000).
        result = run_scenario(Scenario(
            traffic=TrafficSpec.dnn("par"), measure=MeasureSpec.quick()))
        assert result.cycles == 12_000 + 20_000

    def test_scenario_is_a_pure_function_of_the_spec(self):
        sc = Scenario(traffic=TrafficSpec.uniform(0.5, 1000), measure=FAST)
        assert run_scenario(sc) == run_scenario(sc)

    def test_seed_changes_measured_points(self):
        sc = Scenario(traffic=TrafficSpec.uniform(0.5, 1000), measure=FAST)
        a = run_scenario(sc)
        b = run_scenario(sc.with_(seed=2))
        assert a.throughput_gib_s != b.throughput_gib_s


class TestParallelSweep:
    def test_parallel_equals_serial_on_two_seeds(self):
        """4-point grid, jobs=4 vs jobs=1: bit-identical Results."""
        sw = sweep(Scenario(traffic=TrafficSpec.uniform(0.5, 1000),
                            measure=FAST),
                   loads=[0.1, 0.5], seeds=[1, 2])
        serial = run_sweep(sw, jobs=1)
        parallel = run_sweep(sw, jobs=4)
        assert serial == parallel  # bit-identical Results

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], jobs=0)


class TestPooledSweep:
    """One pool task per point: a failing or crashing point costs only
    itself."""

    def _sweep(self):
        return sweep(Scenario(traffic=TrafficSpec.uniform(0.5, 1000),
                              measure=FAST),
                     loads=[0.1, 0.5], seeds=[1, 2, 3])

    def test_pooled_equals_serial(self):
        """6-point grid: serial and pooled submission (one task per
        point) produce bit-identical Results in the same order."""
        serial = run_sweep(self._sweep(), jobs=1)
        assert run_sweep(self._sweep(), jobs=2) == serial

    def test_failing_point_costs_only_itself(self, capsys):
        """One raising point costs only itself: the other points
        complete in the pool, the failure retries serially and is
        reported as None."""
        points = self._sweep().points()
        points[1] = points[1].with_(
            measure=MeasureSpec(warmup=1000, window=50_000_000,
                                max_wall_s=0.1))
        results = run_sweep(points, jobs=2)
        assert results[1] is None
        assert all(r is not None for i, r in enumerate(results) if i != 1)
        assert "failed after one retry" in capsys.readouterr().err

    def test_a_lone_miss_runs_here_and_is_not_retried(self, capsys,
                                                      monkeypatch):
        """One point to simulate runs in this process even at
        ``jobs=2``, so its failure is final after one try."""
        from test_faults import sweep_mod

        point = self._sweep().points()[0].with_(
            measure=MeasureSpec(warmup=1000, window=50_000_000,
                                max_wall_s=0.1))
        real, calls = sweep_mod.run_scenario, []

        def counted(sc):
            calls.append(sc)
            return real(sc)

        monkeypatch.setattr(sweep_mod, "run_scenario", counted)
        assert run_sweep([point, point], jobs=2) == [None, None]
        assert calls == [point]
        assert "2/2 point(s) failed serially" in capsys.readouterr().err

    def test_worker_crash_recovers_every_point(self, monkeypatch):
        """A worker dying mid-point (BrokenProcessPool) fails every
        in-flight future, not the sweep: every point recovers via the
        serial retry."""
        points = self._sweep().points()
        clean = run_sweep(points, jobs=1)
        kill_workers_running(monkeypatch, "seed2")
        assert run_sweep(points, jobs=2) == clean


class TestArtifacts:
    def test_save_and_reload(self, tmp_path):
        sw = sweep(Scenario(traffic=TrafficSpec.uniform(0.5, 1000),
                            measure=FAST), seeds=[1, 2])
        points = sw.points()
        results = run_sweep(points, out=tmp_path)
        assert (tmp_path / "results.json").exists()
        assert (tmp_path / "results.csv").exists()
        assert load_results_json(tmp_path / "results.json") == results
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header.startswith("name,backend,label,load,seed")

    def test_save_artifacts_returns_paths(self, tmp_path):
        points = [Scenario(traffic=TrafficSpec.uniform(0.5, 1000),
                           measure=FAST)]
        results = run_sweep(points)
        paths = save_artifacts(points, results, tmp_path / "deep" / "dir")
        assert all(p.exists() for p in paths)

    def test_mixed_list_with_none_placeholders_round_trips(self, tmp_path):
        """A hardened sweep leaves None at failed points; the JSON
        artifact keeps the slot (as null) so it stays index-aligned."""
        sc = Scenario(traffic=TrafficSpec.uniform(0.5, 1000), measure=FAST)
        ok = run_scenario(sc)
        mixed = [None, ok, None]
        path = save_results_json(mixed, tmp_path / "mixed.json")
        assert load_results_json(path) == mixed
        # The same list paired with its scenarios round-trips too.
        path = save_results_json(mixed, tmp_path / "paired.json",
                                 scenarios=[sc, sc, sc])
        assert load_results_json(path) == mixed

    def test_result_with_faults_round_trips(self, tmp_path):
        """Fault-loop reports (DESIGN.md §10) survive serialization,
        both via Result.to_dict and the sweep artifact."""
        from repro.scenarios import FaultSpec, LinkFault

        sc = Scenario(
            traffic=TrafficSpec.uniform(0.5, 1000),
            measure=MeasureSpec(300, 1500),
            faults=FaultSpec(links=[LinkFault(src=0, dst=1, start=400,
                                              duration=200)]))
        result = run_scenario(sc)
        assert result.faults  # populated, not the empty default
        assert Result.from_dict(result.to_dict()) == result
        path = save_results_json([result, None], tmp_path / "faults.json",
                                 scenarios=[sc, sc])
        assert load_results_json(path) == [result, None]


class TestSpecFiles:
    def test_json_sweep_spec(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text("""{
            "base": {"traffic": {"kind": "uniform", "load": 1.0,
                                 "max_burst_bytes": 1000},
                     "measure": {"warmup": 300, "window": 900}},
            "axes": {"traffic.load": [0.1, 1.0]}
        }""")
        points = load_spec(spec)
        assert [p.traffic.load for p in points] == [0.1, 1.0]

    def test_json_base_without_axes_is_a_one_point_sweep(self, tmp_path):
        spec = tmp_path / "base_only.json"
        spec.write_text("""{
            "base": {"traffic": {"kind": "uniform", "load": 0.7,
                                 "max_burst_bytes": 1000}}
        }""")
        points = load_spec(spec)
        assert len(points) == 1
        assert points[0].traffic.load == 0.7  # base spec not discarded

    def test_json_single_scenario(self, tmp_path):
        spec = tmp_path / "one.json"
        spec.write_text('{"traffic": {"kind": "uniform", "load": 0.5}}')
        points = load_spec(spec)
        assert len(points) == 1
        assert points[0].traffic.load == 0.5

    def test_py_spec(self, tmp_path):
        """Specs are JSON only: a ``.py`` spec is refused, never run."""
        ran = tmp_path / "ran"
        spec = tmp_path / "spec.py"
        spec.write_text(
            f"open({str(ran)!r}, 'w')\n"
            "from repro.scenarios import *\n"
            "SWEEP = sweep(Scenario(measure=MeasureSpec(300, 900)),\n"
            "              loads=[0.1, 0.2, 0.4])\n")
        with pytest.raises(ValueError):
            load_spec(spec)
        assert not ran.exists()

    def test_typoed_keys_rejected(self, tmp_path):
        # "axis" instead of "axes": an error, not a silent 1-point run.
        spec = tmp_path / "typo.json"
        spec.write_text('{"base": {}, "axis": {"traffic.load": [0.1]}}')
        with pytest.raises(ValueError):
            load_spec(spec)
        # Unknown scenario keys: an error, not an all-defaults run.
        with pytest.raises(ValueError):
            Scenario.from_dict({"topo": {"data_width": 512}})

    def test_py_spec_without_definitions_rejected(self, tmp_path):
        spec = tmp_path / "empty.py"
        spec.write_text("x = 1\n")
        with pytest.raises(ValueError):
            load_spec(spec)

    def test_shipped_example_spec_loads(self):
        repo = Path(__file__).parent.parent
        points = load_spec(repo / "examples" / "sweep_quick.json")
        assert len(points) == 2


class TestFigureGoldens:
    """No refactor or speed-up may change any figure output: compare
    against goldens captured at seed=1 — fig4 and fig6 from the
    pre-scenario-API runner, fig8 (all six DNN bars) from the per-beat
    read path before R trains, the analytic four and table2 (fig6's
    wide max-1-hop 64 kB bar, a store hit after fig6) before the
    points/layout split.  resilience (~10 s) is pinned by
    ``tests/golden/repin.py --check`` alone."""

    @pytest.mark.parametrize("exp_id", ["table1", "fig2", "fig3", "fig4",
                                        "fig6", "fig8", "table2", "power"])
    def test_quick_output_is_pinned(self, exp_id, figure_store):
        from repro.eval.experiments import run_experiment
        from repro.eval.report import render_text

        text = render_text(run_experiment(exp_id, quick=True, cache="rw",
                                          store=figure_store))
        golden = (GOLDEN_DIR / f"{exp_id}_quick.txt").read_text()
        assert text == golden, (
            f"{exp_id} --quick output drifted from its golden; a change "
            f"that means to move it runs tests/golden/repin.py")
