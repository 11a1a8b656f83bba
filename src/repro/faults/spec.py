"""Declarative fault-injection specs (DESIGN.md §10).

A :class:`FaultSpec` describes *what goes wrong* in a run: dead links
(explicit, or drawn from a Poisson process), stuck baseline VCs, and
payload corruption that surfaces as AXI SLVERR at the endpoints — plus
the recovery policy the endpoints apply.  Like the scenario specs it
composes with, a FaultSpec is frozen, picklable, and
JSON-round-trippable, and every random choice it implies is derived
deterministically from the run's seed: the same (spec, seed) pair
produces the same fault history in every process and in both kernel
modes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Recovery policies.  "retransmit" retries a lost or corrupted burst
#: at the AXI DMA; the packet baseline has no endpoint that resends, so
#: there it behaves as "none".  "reroute" routes around dead links —
#: escape-VC adaptive routing on the packet baseline, up*/down* fault
#: tables on the AXI mesh (DESIGN.md §10).
RECOVERY_POLICIES = ("none", "retransmit", "reroute")

#: Per backend, the fields ``FaultSpec.check`` refuses a non-default
#: value of.  The packet baseline has no endpoint that retries, waits
#: for a response or checks one, and no figure corrupts its payload;
#: the AXI mesh has no router VCs to pin.
_UNREAD_FIELDS = {
    "baseline": ("corrupt_rate", "max_retries", "response_faults",
                 "txn_timeout"),
    "patronoc": ("stuck_vcs",),
}


def flat_dict(spec) -> dict:
    """A fresh dict, in field order, of an all-scalar dataclass."""
    return {name: getattr(spec, name) for name in spec.__dataclass_fields__}


#: Scalar annotation → the types its values may have, and their name: a
#: ``bool`` is an ``int`` and ``100.0 == 100``, yet each hashes apart.
_SCALARS = {
    "int": ((int,), "an int"),
    "int | None": ((int, type(None)), "an int or None"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or None"),
    "bool": ((bool,), "a bool"),
}


def refuse_mistyped(spec) -> None:
    """Refuse, by name, a scalar field's value of a type its annotation
    does not allow (DESIGN.md §9)."""
    for name, f in spec.__dataclass_fields__.items():
        scalar, value = _SCALARS.get(f.type), getattr(spec, name)
        if scalar is not None and type(value) not in scalar[0]:
            raise TypeError(f"{name} must be {scalar[1]}, got {value!r}")


def refuse_unread(spec, names, context: str) -> None:
    """Refuse, by name, the first of ``names`` that does not keep its
    default on ``spec``: ``context`` does not read it, so it would
    change nothing, yet enter the spec hash (DESIGN.md §9)."""
    for name in names:
        value, default = (getattr(spec, name),
                          spec.__dataclass_fields__[name].default)
        if value != default:
            raise ValueError(f"{name}={value!r} does nothing {context}: "
                             f"leave it at {default!r}")


@dataclass(frozen=True)
class LinkFault:
    """One directed mesh link going dead over ``[start, start +
    duration)``: new requests routed into it are terminated with SLVERR
    (AXI); baseline packets are dropped or rerouted.  A link is alive
    or dead — there is no partial width.
    """

    src: int
    dst: int
    start: int = 0
    duration: int | None = None  # None = permanent

    def __post_init__(self) -> None:
        refuse_mistyped(self)
        if self.src < 0 or self.dst < 0 or self.src == self.dst:
            raise ValueError(
                f"link fault needs two distinct nodes, got "
                f"{self.src}->{self.dst}")
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if self.duration is not None and self.duration < 1:
            raise ValueError(
                f"fault duration must be >= 1 (or None), got {self.duration}")


@dataclass(frozen=True)
class StuckVcFault:
    """One baseline-router input VC that stops draining.

    The buffer keeps accepting flits (up to its depth) but the switch
    allocator never grants it, modelling a stuck arbiter/credit wire.
    Traffic in that VC is pinned until the fault clears; other VCs keep
    flowing, and escape-VC adaptive routing (``recovery="reroute"``)
    keeps the rest of the mesh live.  Baseline backend only.
    """

    node: int
    port: int
    vc: int = 0
    start: int = 0
    duration: int | None = None

    def __post_init__(self) -> None:
        refuse_mistyped(self)
        if self.node < 0 or self.port < 0 or self.vc < 0:
            raise ValueError(
                f"stuck-VC fault needs node/port/vc >= 0, got "
                f"node={self.node} port={self.port} vc={self.vc}")
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if self.duration is not None and self.duration < 1:
            raise ValueError(
                f"fault duration must be >= 1 (or None), got {self.duration}")


@dataclass(frozen=True)
class FaultSpec:
    """Everything that goes wrong in one run, and how endpoints recover.

    Parameters
    ----------
    links:
        Explicit dead-link events (see :class:`LinkFault`).
    link_rate:
        Poisson rate (faults per cycle, mesh-wide) of *transient dead
        link* events; each victim link is drawn uniformly and stays dead
        for ``link_duration`` cycles.  0 disables the process.
    corrupt_rate:
        Per-beat, per-hop probability that a burst's payload is
        corrupted in flight.  Corruption is detected at the receiving
        endpoint and surfaces as an SLVERR response; corrupted payload
        is never credited to throughput.  AXI only.
    recovery:
        One of :data:`RECOVERY_POLICIES` (``"retransmit"`` behaves as
        ``"none"`` on the baseline).
    max_retries:
        Retransmission budget (``recovery == "retransmit"``) per burst.
        AXI only, as are the next two.  A burst older than
        :attr:`~repro.faults.runtime.Recovery.MAX_AGE` cycles since its
        first issue is dropped instead of retried.
    response_faults:
        Close the response-path fault loop: B/R beats are lost on dead
        links just like requests, orphaning the issuing transaction
        until its ``txn_timeout`` watchdog aborts it.  Off by default,
        which preserves the historical fail-fast-only model.
    txn_timeout:
        Per-transaction cycle budget at the DMA endpoints: an
        outstanding burst with no response after this many cycles is
        aborted (counted ``orphaned``) and handed to the retransmission
        path.  ``None`` disables the watchdog.
    stuck_vcs:
        Explicit :class:`StuckVcFault` events (baseline backend only).
    """

    links: tuple[LinkFault, ...] = ()
    link_rate: float = 0.0
    link_duration: int = 500
    corrupt_rate: float = 0.0
    recovery: str = "none"
    max_retries: int = 3
    response_faults: bool = False
    txn_timeout: int | None = None
    stuck_vcs: tuple[StuckVcFault, ...] = ()

    def __post_init__(self) -> None:
        # Normalize list/dict inputs (JSON round-trips give lists of
        # dicts) into the canonical tuple-of-frozen-dataclass form.
        object.__setattr__(self, "links", tuple(
            lf if isinstance(lf, LinkFault) else LinkFault(**lf)
            for lf in self.links))
        object.__setattr__(self, "stuck_vcs", tuple(
            sv if isinstance(sv, StuckVcFault) else StuckVcFault(**sv)
            for sv in self.stuck_vcs))
        refuse_mistyped(self)
        if not 0.0 <= self.link_rate < 1.0:
            raise ValueError(
                f"link_rate must be in [0, 1) faults/cycle, got "
                f"{self.link_rate}")
        if self.link_duration < 1:
            raise ValueError(
                f"link_duration must be >= 1, got {self.link_duration}")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError(
                f"corrupt_rate must be in [0, 1], got {self.corrupt_rate}")
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, got "
                f"{self.recovery!r}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.txn_timeout is not None and self.txn_timeout < 1:
            raise ValueError(
                f"txn_timeout must be >= 1 (or None), got "
                f"{self.txn_timeout}")

    def active(self) -> bool:
        """True if this spec injects anything at all.  An inactive spec
        is behaviourally identical to ``faults=None`` (no controller,
        no models, bit-identical results)."""
        return bool(self.links or self.stuck_vcs
                    or self.link_rate > 0.0 or self.corrupt_rate > 0.0)

    def check(self, backend: str) -> None:
        """Reject what ``backend`` ("patronoc"/"baseline") cannot model."""
        refuse_unread(self, _UNREAD_FIELDS[backend],
                      f"on the {backend} backend")
        if self.response_faults and self.txn_timeout is None:
            raise ValueError(
                "response_faults needs txn_timeout: with responses lost "
                "on dead links, only the endpoint watchdog can terminate "
                "an orphaned burst")

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        data = flat_dict(self)
        for name in ("links", "stuck_vcs"):
            data[name] = tuple(flat_dict(fault) for fault in data[name])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown fault key(s) {sorted(unknown)}; expected "
                f"{sorted(cls.__dataclass_fields__)}")
        return cls(**data)

    @classmethod
    def coerce(cls, value) -> "FaultSpec":
        """Accept a spec or a dict (the JSON form)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(f"cannot coerce {value!r} to FaultSpec")
