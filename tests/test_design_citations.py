"""Code cites the docs by DESIGN.md section, and every section it cites
exists: each ``DESIGN.md §N`` in ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` or ``.github/`` names a ``## §N`` heading of DESIGN.md.
A citation may wrap, the section sign on the next line behind a
comment marker.  Files are only read.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples", ".github")
SUFFIXES = (".py", ".md", ".yml", ".yaml")
CITATION = re.compile(r"DESIGN\.md[\s#]*§(\d+)")
HEADING = re.compile(r"^## §(\d+) ", re.M)


def citations() -> dict[str, list[str]]:
    """Section number -> ``file:line`` of every citation of it."""
    out: dict[str, list[str]] = {}
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*")):
            if path.suffix not in SUFFIXES or "__pycache__" in path.parts:
                continue
            text = path.read_text(encoding="utf-8")
            for match in CITATION.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                out.setdefault(match.group(1), []).append(
                    f"{path.relative_to(ROOT)}:{line}")
    return out


def test_every_cited_design_section_exists():
    headings = set(HEADING.findall((ROOT / "DESIGN.md").read_text(
        encoding="utf-8")))
    cited = citations()
    assert cited, "no DESIGN.md citation found: the pattern is stale"
    missing = {f"§{n}": where for n, where in cited.items()
               if n not in headings}
    assert not missing, f"cited DESIGN.md sections with no heading: {missing}"
