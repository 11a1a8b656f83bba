"""Declarative experiment specs: what to build, drive, and measure.

A NoC experiment point is fully described by three small frozen specs
(DESIGN.md §9):

* :class:`TopologySpec` — which fabric to instantiate: a PATRONoC AXI
  mesh (any Table I point plus the testbench knobs) or the
  packet-switched baseline mesh.
* :class:`TrafficSpec` — what drives it: uniform random DMA traffic,
  one of the Fig. 5 synthetic patterns, or a §IV-C DNN workload.
* :class:`MeasureSpec` — how it is measured: warm-up and measurement
  window and fidelity preset (full / quick).

They compose into a :class:`Scenario` — one immutable, picklable,
JSON-serialisable experiment point that
:func:`repro.scenarios.run.run_scenario` turns into a
:class:`repro.scenarios.result.Result`.  Every paper figure is a set of
Scenario instantiations; sweeps over arbitrary grids are built with
:class:`repro.scenarios.sweep.Sweep`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.baseline.config import PacketMeshConfig
from repro.faults.spec import (
    FaultSpec,
    flat_dict,
    refuse_mistyped,
    refuse_unread,
)
from repro.noc.config import NocConfig

#: Default measurement windows (cycles).  "quick" shrinks these for
#: CI-speed runs; shapes survive, absolute noise grows.
DEFAULT_WARMUP = 5_000
DEFAULT_WINDOW = 25_000
QUICK_WARMUP = 2_000
QUICK_WINDOW = 8_000

BACKENDS = ("patronoc", "baseline")
#: The fields each backend's config takes, read once from the configs.
_CONFIG_FIELDS = {
    "patronoc": tuple(f.name for f in fields(NocConfig)),
    "baseline": tuple(f.name for f in fields(PacketMeshConfig)),
}
TRAFFIC_KINDS = ("uniform", "synthetic", "dnn")
#: Per traffic kind, the TrafficSpec fields its traffic does not read:
#: a DNN workload script defines its own bursts and rate.
_UNREAD_TRAFFIC = {
    "uniform": ("pattern", "workload"),
    "synthetic": ("workload",),
    "dnn": ("load", "max_burst_bytes", "min_burst_bytes", "read_fraction",
            "pattern"),
}
#: The burst fields of a baseline point: the packet mesh reads only the
#: injection rate, so every baseline point carries the values Fig. 4
#: writes, and its spec hash does not see them.
_BASELINE_BURSTS = dict(max_burst_bytes=1, min_burst_bytes=1,
                        read_fraction=0.0)
FIDELITIES = ("full", "quick")


@dataclass(frozen=True)
class TopologySpec:
    """Which fabric to build.

    ``backend="patronoc"`` uses the AXI mesh (all
    :class:`~repro.noc.config.NocConfig` fields apply, with the same
    defaults); ``backend="baseline"`` uses the packet mesh (``n_vcs``,
    ``buf_depth``, ``flit_bytes``, ``packet_flits`` apply).  Shared:
    ``rows``, ``cols``, ``freq_hz``.  A field the backend's config does
    not take must keep its default (DESIGN.md §9).
    """

    backend: str = "patronoc"
    rows: int = 4
    cols: int = 4
    freq_hz: float = 1e9
    # -- PATRONoC (NocConfig) knobs -----------------------------------
    data_width: int = 32
    addr_width: int = 32
    id_width: int = 4
    max_outstanding: int = 8
    full_connectivity: bool = False
    dma_issue_overhead: int = 20
    memory_latency: int = 5
    memory_outstanding: int = 16
    w_order_depth: int = 8
    hop_latency: int = 2
    # -- baseline (PacketMeshConfig) knobs ----------------------------
    n_vcs: int = 1
    buf_depth: int = 4
    flit_bytes: int = 4
    packet_flits: int = 8

    def __post_init__(self) -> None:
        refuse_mistyped(self)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        refuse_unread(self, _UNREAD_TOPOLOGY[self.backend],
                      f"on the {self.backend} backend")
        # Construct the backing config once: its validation is the spec's.
        if self.backend == "patronoc":
            self.noc_config()
        else:
            self.mesh_config()

    # ------------------------------------------------------------------
    def noc_config(self) -> NocConfig:
        """The :class:`NocConfig` this spec describes (patronoc only)."""
        if self.backend != "patronoc":
            raise ValueError(f"{self.backend!r} spec has no NocConfig")
        return NocConfig(**self._config_kwargs())

    def mesh_config(self) -> PacketMeshConfig:
        """The :class:`PacketMeshConfig` this spec describes."""
        if self.backend != "baseline":
            raise ValueError(f"{self.backend!r} spec has no PacketMeshConfig")
        return PacketMeshConfig(**self._config_kwargs())

    def _config_kwargs(self) -> dict:
        return {name: getattr(self, name)
                for name in _CONFIG_FIELDS[self.backend]}

    @property
    def label(self) -> str:
        if self.backend == "patronoc":
            return (f"AXI_{self.addr_width}_{self.data_width}_"
                    f"{self.id_width}@{self.rows}x{self.cols}")
        return (f"mesh{self.rows}x{self.cols}/"
                f"VC={self.n_vcs},Buf={self.buf_depth}")

    # -- constructors --------------------------------------------------
    @classmethod
    def slim(cls, rows: int = 4, cols: int = 4) -> "TopologySpec":
        """The §IV *slim* NoC: DW=32, AW=32, IW=4, MOT=8."""
        return cls.from_noc_config(NocConfig.slim(rows, cols))

    @classmethod
    def wide(cls, rows: int = 4, cols: int = 4) -> "TopologySpec":
        """The §IV *wide* NoC: DW=512, AW=32, IW=4, MOT=8."""
        return cls.from_noc_config(NocConfig.wide(rows, cols))

    @classmethod
    def from_label(cls, label: str, rows: int = 2, cols: int = 2,
                   **kwargs) -> "TopologySpec":
        """Parse the paper's ``AXI_AW_DW_IW`` naming into a spec."""
        return cls.from_noc_config(
            NocConfig.from_label(label, rows=rows, cols=cols, **kwargs))

    @classmethod
    def from_noc_config(cls, cfg: NocConfig) -> "TopologySpec":
        """Lossless capture of an existing :class:`NocConfig`."""
        return cls(backend="patronoc", **asdict(cfg))

    @classmethod
    def baseline(cls, n_vcs: int = 1, buf_depth: int = 4, *,
                 rows: int = 4, cols: int = 4, **kwargs) -> "TopologySpec":
        """The Noxim-class packet mesh of Fig. 4."""
        return cls(backend="baseline", rows=rows, cols=cols, n_vcs=n_vcs,
                   buf_depth=buf_depth, **kwargs)

    @classmethod
    def coerce(cls, value) -> "TopologySpec":
        """Accept a spec, a NocConfig, a dict, or a label string
        (``"slim"``, ``"wide"``, ``"AXI_32_64_4"``)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, NocConfig):
            return cls.from_noc_config(value)
        if isinstance(value, dict):
            return cls(**value)
        if isinstance(value, str):
            if value == "slim":
                return cls.slim()
            if value == "wide":
                return cls.wide()
            return cls.from_label(value, rows=4, cols=4)
        raise TypeError(f"cannot coerce {value!r} to TopologySpec")

    def to_dict(self) -> dict:
        return flat_dict(self)


#: Per backend, the TopologySpec fields its config does not take.
_UNREAD_TOPOLOGY = {
    backend: tuple(f.name for f in fields(TopologySpec)
                   if f.name != "backend" and f.name not in taken)
    for backend, taken in _CONFIG_FIELDS.items()}


@dataclass(frozen=True)
class TrafficSpec:
    """What drives the fabric.

    ``kind="uniform"`` — uniform random DMA traffic (on the baseline
    backend, ``load`` is the Noxim flit injection rate and a
    :class:`Scenario` sets the burst fields to Fig. 4's values).
    ``kind="synthetic"`` — one of the Fig. 5 patterns, named by
    ``pattern``.  ``kind="dnn"`` — a §IV-C workload, named by
    ``workload``; the workload script defines its own traffic.  A field
    the kind does not read must keep its default (DESIGN.md §9).

    Note: ``read_fraction`` defaults to 0.0 (pure DMA writes — the
    paper's Fig. 4 push-DMA convention), NOT the 0.5 mixed default of
    the imperative :func:`repro.traffic.uniform.uniform_random`; set it
    explicitly when porting imperative code (the Fig. 6 convention is
    0.5, see :meth:`synthetic`).
    """

    kind: str = "uniform"
    load: float = 1.0
    max_burst_bytes: int = 1000
    min_burst_bytes: int = 1
    read_fraction: float = 0.0
    pattern: str | None = None
    workload: str | None = None

    def __post_init__(self) -> None:
        refuse_mistyped(self)
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"kind must be one of {TRAFFIC_KINDS}, got {self.kind!r}")
        refuse_unread(self, _UNREAD_TRAFFIC[self.kind],
                      f"in {self.kind} traffic")
        if self.load <= 0:
            raise ValueError(f"load must be > 0, got {self.load}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if self.min_burst_bytes < 1:
            raise ValueError("min_burst_bytes must be >= 1")
        if self.max_burst_bytes < self.min_burst_bytes:
            raise ValueError("max_burst_bytes must be >= min_burst_bytes")
        if self.kind == "synthetic":
            from repro.traffic.synthetic import PATTERNS
            if self.pattern not in PATTERNS:
                raise ValueError(
                    f"synthetic traffic needs pattern in {sorted(PATTERNS)}, "
                    f"got {self.pattern!r}")
        if self.kind == "dnn":
            from repro.traffic.dnn.workloads import WORKLOADS
            if self.workload not in WORKLOADS:
                raise ValueError(
                    f"dnn traffic needs workload in {sorted(WORKLOADS)}, "
                    f"got {self.workload!r}")

    @property
    def label(self) -> str:
        if self.kind == "dnn":
            return f"dnn:{self.workload}"
        base = self.pattern if self.kind == "synthetic" else "uniform"
        return f"{base}@{self.load:g}/burst<{self.max_burst_bytes}"

    # -- constructors --------------------------------------------------
    @classmethod
    def uniform(cls, load: float, max_burst_bytes: int, *,
                read_fraction: float = 0.0, **kwargs) -> "TrafficSpec":
        return cls(kind="uniform", load=load,
                   max_burst_bytes=max_burst_bytes,
                   read_fraction=read_fraction, **kwargs)

    @classmethod
    def synthetic(cls, pattern: str, max_burst_bytes: int, *,
                  load: float = 1.0, read_fraction: float = 0.5,
                  **kwargs) -> "TrafficSpec":
        return cls(kind="synthetic", pattern=pattern, load=load,
                   max_burst_bytes=max_burst_bytes,
                   read_fraction=read_fraction, **kwargs)

    @classmethod
    def dnn(cls, workload: str) -> "TrafficSpec":
        return cls(kind="dnn", workload=workload)

    @classmethod
    def coerce(cls, value) -> "TrafficSpec":
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(f"cannot coerce {value!r} to TrafficSpec")

    def to_dict(self) -> dict:
        return flat_dict(self)


@dataclass(frozen=True)
class MeasureSpec:
    """How to measure: warm-up + window, fidelity, wall-clock budget.

    ``warmup``/``window`` of ``None`` (the default, and what the
    :meth:`full`/:meth:`quick` presets use) mean *derive*: the runner
    fills them per-field from the fidelity preset, or — for DNN
    workloads — from the workload/configuration table (pipeline fill
    and batch structure make one fixed window wrong there; see the
    runner docstring).  Explicitly pinned fields are always honored.

    ``fidelity="quick"`` additionally shrinks model-level detail where
    the experiment supports it (fewer sweep points, scaled-down DNN
    models) — the single knob that replaced the ``quick: bool`` threaded
    through every signature.

    ``max_wall_s`` (default None = off) arms a wall-clock watchdog: the
    runner raises :class:`~repro.scenarios.run.SimulationTimeout` (with
    the cycle count reached) if one scenario's simulation exceeds the
    budget — protection against hung or pathologically slow points in
    long sweeps.
    """

    warmup: int | None = None
    window: int | None = None
    fidelity: str = "full"
    max_wall_s: float | None = None

    def __post_init__(self) -> None:
        refuse_mistyped(self)
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.max_wall_s is not None and self.max_wall_s <= 0:
            raise ValueError(
                f"max_wall_s must be > 0 (or None = no watchdog), got "
                f"{self.max_wall_s}")

    @property
    def is_quick(self) -> bool:
        return self.fidelity == "quick"

    def resolve(self) -> tuple[int, int]:
        """Concrete (warmup, window), filling ``None`` from the preset."""
        if self.is_quick:
            defaults = (QUICK_WARMUP, QUICK_WINDOW)
        else:
            defaults = (DEFAULT_WARMUP, DEFAULT_WINDOW)
        return (self.warmup if self.warmup is not None else defaults[0],
                self.window if self.window is not None else defaults[1])

    # -- the two presets every experiment shares -----------------------
    @classmethod
    def full(cls) -> "MeasureSpec":
        return cls(fidelity="full")

    @classmethod
    def quick(cls) -> "MeasureSpec":
        return cls(fidelity="quick")

    @classmethod
    def coerce(cls, value) -> "MeasureSpec":
        """Accept a spec, a dict, or ``None`` (→ full)."""
        if isinstance(value, cls):
            return value
        if value is None:
            return cls.full()
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(f"cannot coerce {value!r} to MeasureSpec")

    def to_dict(self) -> dict:
        return flat_dict(self)


@dataclass(frozen=True)
class Scenario:
    """One immutable experiment point: fabric × traffic × measurement.

    Picklable (sweeps ship Scenarios to worker processes) and
    JSON-round-trippable (:meth:`to_dict` / :meth:`from_dict`).  The
    ``seed`` drives every RNG in the point, so a Scenario's result is a
    pure function of the Scenario.

    Construction is where a point is refused (DESIGN.md §10): a
    baseline point takes Fig. 4's burst fields, and a fault spec is
    checked against the backend before anything is built.
    """

    topology: TopologySpec = TopologySpec()
    traffic: TrafficSpec = TrafficSpec()
    measure: MeasureSpec = MeasureSpec()
    faults: FaultSpec | None = None
    seed: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        refuse_mistyped(self)  # the seed: ``True`` would be a second key
        backend = self.topology.backend
        if backend == "baseline":
            if self.traffic.kind != "uniform":
                raise ValueError(
                    f"the baseline backend only supports uniform traffic, "
                    f"got {self.traffic.kind!r}")
            # Rebuilt (and validated again) only when a value or its
            # type differs: ``0`` would hash apart from ``0.0``.
            traffic = self.traffic
            if any(type(getattr(traffic, k)) is not type(v)
                   or getattr(traffic, k) != v
                   for k, v in _BASELINE_BURSTS.items()):
                object.__setattr__(self, "traffic", replace(
                    traffic, **_BASELINE_BURSTS))
        if self.faults is not None:
            self.faults.check(backend)
        if self.traffic.kind == "dnn" and self.traffic.workload == "train" \
                and (self.measure.warmup is not None
                     or self.measure.window is not None):
            raise ValueError(
                "the 'train' workload measures one full batch, not a "
                "steady-state window — leave MeasureSpec warmup/window "
                "as None (derive)")
        if self.traffic.kind == "synthetic":
            from repro.traffic.synthetic import PATTERNS
            pattern = PATTERNS[self.traffic.pattern]
            for x, y in pattern.slave_coords:
                if x >= self.topology.cols or y >= self.topology.rows:
                    raise ValueError(
                        f"pattern {pattern.key!r} places a slave at "
                        f"({x}, {y}), outside the "
                        f"{self.topology.rows}x{self.topology.cols} mesh")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        return (f"{self.topology.label}/{self.traffic.label}/"
                f"seed{self.seed}")

    def with_(self, **changes) -> "Scenario":
        """A modified copy; spec fields accept coercible values."""
        coerced = {k: SPEC_COERCERS[k](v) if k in SPEC_COERCERS else v
                   for k, v in changes.items()}
        return replace(self, **coerced)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {"topology": self.topology.to_dict(),
                "traffic": self.traffic.to_dict(),
                "measure": self.measure.to_dict(),
                "faults": (self.faults.to_dict()
                           if self.faults is not None else None),
                "seed": self.seed, "name": self.name}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        unknown = set(data) - {"topology", "traffic", "measure", "faults",
                               "seed", "name"}
        if unknown:
            raise ValueError(
                f"unknown scenario key(s) {sorted(unknown)}; expected "
                f"topology / traffic / measure / faults / seed / name")
        return cls(
            topology=TopologySpec.coerce(data.get("topology", {})),
            traffic=TrafficSpec.coerce(data.get("traffic", {})),
            measure=MeasureSpec.coerce(data.get("measure", {})),
            faults=_coerce_faults(data.get("faults")),
            seed=data.get("seed", 1), name=data.get("name", ""))


def _coerce_faults(value) -> FaultSpec | None:
    """FaultSpec coercion where ``None`` means no fault injection."""
    if value is None:
        return None
    return FaultSpec.coerce(value)


#: Scenario field → coercer, shared by :meth:`Scenario.with_` and the
#: sweep layer's axis application.
SPEC_COERCERS = {
    "topology": TopologySpec.coerce,
    "traffic": TrafficSpec.coerce,
    "measure": MeasureSpec.coerce,
    "faults": _coerce_faults,
}
