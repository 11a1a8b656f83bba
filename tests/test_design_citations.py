"""The docs cite what exists, and stay short enough to read.

* Every ``DESIGN.md §N`` in ``src/``, ``tests/``, ``benchmarks/``,
  ``examples/``, ``.github/``, ``.claude/`` or the root README names a
  ``## §N`` heading of DESIGN.md.  A citation may wrap, the section
  sign on the next line behind a comment marker.
* Every quoted citation ``§N "Title"`` there or in DESIGN.md itself
  names a bold or italic lead (``**Title`` or ``*Title``) inside
  DESIGN.md §N.
* Every backticked private name (``_name``) or member (``Class.member``)
  in DESIGN.md, the README or ``.claude/`` names something defined
  under ``src/``, ``tests/`` or ``benchmarks/``.  DESIGN.md §13 is
  exempt: its deleted list names removed code on purpose.
* DESIGN.md, CHANGES.md and the README stay within their byte budgets:
  each says a rule once, and git keeps the history.

Files are only read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples", ".github", ".claude")
SUFFIXES = (".py", ".md", ".yml", ".yaml")
CITATION = re.compile(r"DESIGN\.md[\s#]*§(\d+)")
SECTION = re.compile(r"^## §(\d+) .*?(?=^## |\Z)", re.M | re.S)
QUOTED = re.compile(r'§(\d+)\s+"([^"]+)"')
#: A line break and the comment marker that continues a wrapped line.
WRAP = re.compile(r"\s*\n\s*(?:#:?\s*)?")
#: ``_name`` or ``Class.member``, optionally called or indexed; a file
#: name such as ``README.md`` is not a member.
NAME = re.compile(r"`((?:_\w+|[A-Z]\w*\.(?!(?:md|py|json|txt)`)\w+)"
                  r"(?:\.\w+)*)(?:\([^`()]*\))?(?:\[[^`\]]*\])*`")
BUDGETS = {"DESIGN.md": 45_000, "CHANGES.md": 45_000, "README.md": 15_000}


def cited_files() -> list[Path]:
    out = [ROOT / "README.md"]
    for tree in TREES:
        out += [path for path in sorted((ROOT / tree).rglob("*"))
                if path.suffix in SUFFIXES
                and "__pycache__" not in path.parts]
    return out


def citations() -> dict[str, list[str]]:
    """Section number -> ``file:line`` of every citation of it."""
    out: dict[str, list[str]] = {}
    for path in cited_files():
        text = path.read_text(encoding="utf-8")
        for match in CITATION.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            out.setdefault(match.group(1), []).append(
                f"{path.relative_to(ROOT)}:{line}")
    return out


def design() -> str:
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


def sections() -> dict[str, str]:
    """Section number -> the text of DESIGN.md's ``## §N`` section."""
    return {m.group(1): m.group(0) for m in SECTION.finditer(design())}


def test_every_cited_design_section_exists():
    headings = sections()
    cited = citations()
    assert cited, "no DESIGN.md citation found: the pattern is stale"
    missing = {f"§{n}": where for n, where in cited.items()
               if n not in headings}
    assert not missing, f"cited DESIGN.md sections with no heading: {missing}"


def test_every_quoted_lead_exists_in_its_section():
    text_of = sections()
    found, missing = 0, []
    for path in [ROOT / "DESIGN.md", *cited_files()]:
        text = WRAP.sub(" ", path.read_text(encoding="utf-8"))
        for match in QUOTED.finditer(text):
            found += 1
            number, title = match.groups()
            lead = r"\*\*?" + r"\s+".join(map(re.escape, title.split()))
            if not re.search(lead, text_of.get(number, "")):
                missing.append(
                    f'{path.relative_to(ROOT)}: §{number} "{title}"')
    assert found, 'no §N "Title" citation found: the pattern is stale'
    assert not missing, f"quoted leads DESIGN.md does not have: {missing}"


def defined_names() -> set[str]:
    """Every name a ``.py`` file under src/, tests/ or benchmarks/
    defines, assigns, takes as a parameter or spells as a string."""
    out: set[str] = set()
    for tree in ("src", "tests", "benchmarks"):
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    out.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Store):
                    out.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Store):
                    out.add(node.attr)
                elif isinstance(node, ast.arg):
                    out.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(
                        node.value, str) and node.value.isidentifier():
                    out.add(node.value)
    return out


def test_every_named_private_or_member_is_defined():
    defined = defined_names()
    full = design()
    docs = {"DESIGN.md": full[:full.index("\n## §13")],
            "README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    for path in sorted((ROOT / ".claude").rglob("*.md")):
        docs[str(path.relative_to(ROOT))] = path.read_text(encoding="utf-8")
    stale = []
    for doc, text in docs.items():
        for match in NAME.finditer(text):
            parts = match.group(1).split(".")
            if any(p not in defined and not p.startswith("__")
                   for p in parts):
                line = text.count("\n", 0, match.start()) + 1
                stale.append(f"{doc}:{line} {match.group(0)}")
    assert not stale, f"names defined nowhere in the code: {stale}"


def test_the_docs_every_session_reads_stay_within_budget():
    sizes = {name: len((ROOT / name).read_bytes()) for name in BUDGETS}
    over = {name: f"{size} > {BUDGETS[name]} bytes"
            for name, size in sizes.items() if size > BUDGETS[name]}
    assert not over, f"docs over budget: {over}"
