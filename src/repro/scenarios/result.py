"""The uniform measurement record every scenario run produces.

Whatever the backend (AXI mesh or packet baseline) and traffic kind, a
run yields one :class:`Result` with the same fields — throughput,
latency percentiles, raw counters, a fault report — so
sweeps, figures, and serialized artifacts all consume one shape.
Results compare with ``==`` (used to assert parallel == serial sweeps)
and round-trip through JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: Flat CSV column order (counters/faults are JSON-encoded into one
#: cell; the fault-loop headline numbers additionally get flat columns
#: so spreadsheet filters don't need to parse the JSON).
CSV_COLUMNS = [
    "name", "backend", "label", "load", "seed", "cycles",
    "throughput_gib_s", "utilization_pct",
    "latency_p50", "latency_p90", "latency_p99",
    "response_errors", "orphaned", "timeout_recovered",
    "counters", "faults",
]

#: Flat columns pulled out of the ``faults`` report dict.
_FAULT_COLUMNS = ("orphaned", "timeout_recovered")


def _copy_containers(value):
    """``value`` with every dict/list/tuple in it copied, scalars as is."""
    if isinstance(value, dict):
        return {k: _copy_containers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_copy_containers(v) for v in value)
    return value


@dataclass(frozen=True)
class Result:
    """One scenario's measurements."""

    name: str
    backend: str
    label: str
    load: float
    seed: int
    throughput_gib_s: float
    utilization_pct: float | None = None
    latency_p50: float | None = None
    latency_p90: float | None = None
    latency_p99: float | None = None
    cycles: int = 0
    counters: dict = field(default_factory=dict)
    #: Fault-injection report (DESIGN.md §10): injected/detected/
    #: recovered counts, retransmissions, drops, recovery latency.
    #: Empty when the scenario had no active FaultSpec.
    faults: dict = field(default_factory=dict)
    #: Measurement provenance (DESIGN.md §12), stamped by
    #: ``run_scenario``: ``spec_hash`` (canonical spec JSON, seed
    #: excluded), ``seed``, and ``code_fingerprint`` — the result
    #: store's full key, so any serialized Result is attributable to
    #: the exact code version that produced it.  Deterministic for a
    #: given (spec, seed, source tree), so it never breaks the
    #: parallel == serial or cached == fresh bit-identity guarantees.
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {name: _copy_containers(getattr(self, name))
                for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict) -> "Result":
        return cls(**data)

    def csv_row(self) -> list:
        row = []
        for col in CSV_COLUMNS:
            if col == "response_errors":
                value = self.counters.get("response_errors", 0)
            elif col in _FAULT_COLUMNS:
                value = self.faults.get(col, 0)
            else:
                value = getattr(self, col)
                if col in ("counters", "faults"):
                    value = json.dumps(value, sort_keys=True)
            row.append("" if value is None else value)
        return row


def paired_payload(scenarios: list, results: list[Result | None]) -> list:
    """Index-aligned ``{"scenario", "result"}`` dicts — the shape of
    ``results.json`` and of the service's ``/results`` body."""
    return [{"scenario": sc.to_dict(),
             "result": r.to_dict() if r is not None else None}
            for sc, r in zip(scenarios, results)]


def save_results_json(results: list[Result | None], path: str | Path,
                      scenarios: list | None = None) -> Path:
    """Dump results (optionally paired with their scenarios) as JSON.

    ``None`` entries (points a hardened sweep could not produce) are
    serialized as JSON ``null`` so the artifact stays index-aligned with
    its scenarios.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if scenarios is not None:
        payload = paired_payload(scenarios, results)
    else:
        payload = [r.to_dict() if r is not None else None for r in results]
    path.write_text(json.dumps(payload, indent=2))
    return path


def save_results_csv(results: list[Result | None], path: str | Path) -> Path:
    """Dump results as one flat CSV table (failed points are skipped)."""
    import csv

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for result in results:
            if result is not None:
                writer.writerow(result.csv_row())
    return path


def load_results_json(path: str | Path) -> list[Result | None]:
    """Read back a :func:`save_results_json` artifact."""
    payload = json.loads(Path(path).read_text())
    out = []
    for entry in payload:
        if entry is None:
            out.append(None)
            continue
        data = entry["result"] if "result" in entry else entry
        out.append(Result.from_dict(data) if data is not None else None)
    return out
