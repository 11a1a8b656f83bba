#!/usr/bin/env python
"""Rewrite every golden the repo owns from this checkout, and print a
table of what moved.

    PYTHONPATH=src python tests/golden/repin.py          # rewrite them
    PYTHONPATH=src python tests/golden/repin.py --check  # write nothing;
                                                         # exit 1 if any
                                                         # would change

The goldens, all under ``tests/golden/``, and the tests that read them:

* ``results/<workload>-s<seed>.json``: every point's ``Result.to_dict()``
  without ``provenance``, for the six workloads x seeds 1-2 that
  ``benchmarks/perf/perf_workloads.py`` generates
  (``tests/test_pinned_digests.py``);
* ``<fig>_quick.txt``: ``repro run <fig> --quick`` for every
  experiment (``tests/test_scenarios.py`` reads all but
  ``resilience``, which only this script checks);
* ``address_path_pr16.json`` (``tests/test_address_path.py``) and
  ``stall_intervals_pr19.json`` (``tests/test_stall_intervals.py``):
  what each point's ``observe`` reads under the production scheduler.

The table has one row per point and field that moved: old -> new, and
the relative change of a number.  A change that means to move a
statistic runs this and pastes the table; a change that does not may
not.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
for _path in (ROOT / "tests", ROOT / "benchmarks" / "perf"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: The workloads and seeds of ``results/``.
SNAPSHOT_WORKLOADS = ("axi_write", "axi_rw", "dnn_fig8", "faulted",
                      "mesh_uniform", "sweep_cold")
SNAPSHOT_SEEDS = (1, 2)
FIGURES = ("table1", "fig2", "fig3", "fig4", "fig6", "fig8", "table2",
           "power", "resilience")

ABSENT = "(absent)"


# ----------------------------------------------------------------------
# producers: each returns the golden file's text for this checkout
# ----------------------------------------------------------------------
def snapshot_path(name: str, seed: int) -> Path:
    return GOLDEN / "results" / f"{name}-s{seed}.json"


def snapshot(name: str, seed: int) -> list[dict]:
    """Every point's ``Result.to_dict()`` without ``provenance`` (it
    names the code version, not the output), as JSON reads it back."""
    import perf_workloads

    from repro.scenarios import run_scenario

    points = []
    for sc in perf_workloads.WORKLOADS[name](seed, False).points:
        data = run_scenario(sc).to_dict()
        del data["provenance"]
        points.append(data)
    return json.loads(json.dumps(points))


def snapshot_points(points: list[dict]) -> dict:
    """A snapshot's points by index and label, as the table names them."""
    return {f"#{i} {point['label']}": point
            for i, point in enumerate(points)}


def figure_text(exp_id: str) -> str:
    from repro.eval.experiments import run_experiment
    from repro.eval.report import render_text

    return render_text(run_experiment(exp_id, quick=True))


def figure_points(text: str) -> dict:
    return {f"line {i}": line
            for i, line in enumerate(text.splitlines(), start=1)}


def observed_text(points, observe) -> str:
    """One ``"name": {...}`` line per point, as the two exact-count
    goldens have always been laid out."""
    return "{\n" + ",\n".join(
        f' "{name}": {json.dumps(observe(name, False), sort_keys=True)}'
        for name in points) + "\n}\n"


def address_path_text() -> str:
    from test_address_path import ALL_POINTS, observe

    return observed_text(ALL_POINTS, observe)


def stall_intervals_text() -> str:
    from test_stall_intervals import POINTS, observe

    return observed_text(sorted(POINTS), observe)


@dataclass
class Golden:
    path: Path
    render: Callable[[], str]
    points: Callable[[str], dict]

    @property
    def name(self) -> str:
        return self.path.relative_to(GOLDEN).as_posix()


def goldens() -> list[Golden]:
    out = [Golden(snapshot_path(name, seed),
                  lambda name=name, seed=seed: json.dumps(
                      snapshot(name, seed), indent=1, sort_keys=True) + "\n",
                  lambda text: snapshot_points(json.loads(text)))
           for name in SNAPSHOT_WORKLOADS for seed in SNAPSHOT_SEEDS]
    out += [Golden(GOLDEN / f"{exp_id}_quick.txt",
                   lambda exp_id=exp_id: figure_text(exp_id), figure_points)
            for exp_id in FIGURES]
    out += [Golden(GOLDEN / "address_path_pr16.json", address_path_text,
                   json.loads),
            Golden(GOLDEN / "stall_intervals_pr19.json",
                   stall_intervals_text, json.loads)]
    return out


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def flatten(value, prefix: str = "") -> dict:
    """Field path -> leaf: dict keys joined by ``.``, list items
    ``[i]``; an empty container is a leaf."""
    if isinstance(value, dict) and value:
        items = ((f"{prefix}.{k}" if prefix else str(k), v)
                 for k, v in value.items())
    elif isinstance(value, list) and value:
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(value))
    else:
        return {prefix: value}
    out = {}
    for path, item in items:
        out.update(flatten(item, path))
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_change(old, new) -> str:
    if not (_is_number(old) and _is_number(new)) or old == new:
        return ""
    if old == 0:
        return "from 0"
    return f"{(new - old) / abs(old):+.3%}"


def _show(value) -> str:
    text = value if value is ABSENT else json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def diff_rows(golden: str, old: dict, new: dict) -> list[tuple]:
    """(golden, point, field, old, new, relative change) for every
    point and field that differs; a point only one side has is one
    row with an empty field."""
    rows = []
    for point in [*old, *(p for p in new if p not in old)]:
        if point not in new or point not in old:
            rows.append((golden, point, "",
                         "present" if point in old else ABSENT,
                         "present" if point in new else ABSENT, ""))
            continue
        a, b = flatten(old[point]), flatten(new[point])
        for field in [*a, *(f for f in b if f not in a)]:
            before, after = a.get(field, ABSENT), b.get(field, ABSENT)
            if before != after:
                rows.append((golden, point, field, _show(before),
                             _show(after), relative_change(before, after)))
    return rows


def format_table(rows: list[tuple]) -> str:
    if not rows:
        return "no field of any point moved"
    header = ("golden", "point", "field", "old", "new", "change")
    cells = [header] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(6)]

    def line(row):
        golden, point, field, old, new, change = (
            c.ljust(w) for c, w in zip(row, widths))
        return f"{golden}  {point}  {field}  {old} -> {new}  {change}".rstrip()

    return "\n".join(line(row) for row in cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any golden would "
                             "change")
    args = parser.parse_args(argv)
    rows, moved = [], []
    for golden in goldens():
        new = golden.render()
        old = golden.path.read_text() if golden.path.exists() else None
        if new == old:
            continue
        moved.append(golden.name)
        rows += diff_rows(golden.name,
                          golden.points(old) if old is not None else {},
                          golden.points(new))
        if not args.check:
            golden.path.parent.mkdir(parents=True, exist_ok=True)
            golden.path.write_text(new)
    print(format_table(rows))
    verb = "would change" if args.check else "rewritten"
    print(f"\n{len(moved)} golden(s) {verb}"
          + (": " + ", ".join(moved) if moved else ""))
    return 1 if args.check and moved else 0


if __name__ == "__main__":
    sys.exit(main())
