"""Every module earns its place (DESIGN.md §13).

A static guard: a ``src/repro`` module that only tests, examples or a
package ``__init__``'s re-export import fails here, by name.  The
function-level census is ``tests/reach.py``; this catches the new
module that nothing but its own test file uses before any run does.
The public names the package ``__init__`` files export must import.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from reach import (
    REFUSED_SPECS,
    ROOT,
    defined_functions,
    unreached_ceiling,
    verdict_modules,
)
from repro.eval.experiments import EXPERIMENTS


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _exports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Name → (module, name there) for what a package ``__init__`` binds
    by import, plus its lazy ``_EXPORTS`` table (module → names)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) == "_EXPORTS"):
            for module, names in ast.literal_eval(node.value).items():
                out.update({name: (module, name) for name in names})
    return out


def unimported(root: Path) -> list[str]:
    """The ``repro`` modules under ``root`` that no ``src/repro`` module
    and no ``benchmarks/`` file imports, apart from package ``__init__``
    re-exports.  A name imported from a package counts for the module
    that defines it.  Exempt: entry points (``__main__``), the
    registry's figure modules (imported by id) and DESIGN.md's reach
    verdicts."""
    src = root / "src"
    trees = {_module_name(p, src): (p, ast.parse(p.read_text()))
             for p in sorted((src / "repro").rglob("*.py"))}
    packages = {name for name, (p, _) in trees.items()
                if p.name == "__init__.py"}
    exports = {name: _exports(tree) for name, (_, tree) in trees.items()
               if name in packages}

    def defining(module: str, name: str) -> str:
        if f"{module}.{name}" in trees:
            return f"{module}.{name}"
        seen = set()
        while module in packages and name in exports[module] \
                and (module, name) not in seen:
            seen.add((module, name))
            module, name = exports[module][name]
            if f"{module}.{name}" in trees:
                return f"{module}.{name}"
        return module

    used: set[str] = set()
    importers = [(name, tree) for name, (_, tree) in trees.items()
                 if name not in packages]
    importers += [(None, ast.parse(p.read_text()))
                  for p in sorted((root / "benchmarks").rglob("*.py"))]
    for me, tree in importers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                hits = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                hits = {defining(node.module, alias.name)
                        for alias in node.names}
            else:
                continue
            used |= {m for m in hits if m in trees and m != me}
    used |= {f"repro.eval.{exp_id}" for exp_id in EXPERIMENTS}
    kept = {"repro." + m.removesuffix(".py").replace("/", ".")
            for m in verdict_modules(root / "DESIGN.md")}
    return sorted(name for name in trees
                  if name not in packages | used | kept
                  and not name.endswith(".__main__"))


def test_every_module_is_imported_by_the_simulator_or_a_benchmark():
    assert unimported(ROOT) == []


def test_every_reach_verdict_names_a_module_that_exists():
    for module in sorted(verdict_modules()):
        assert (ROOT / "src" / "repro" / module).is_file(), (
            f"DESIGN.md's reach verdicts keep {module}, which is gone")


def test_the_unreached_ceiling_is_recorded_and_below_the_definitions():
    """``reach.py --check`` reads its ceiling from DESIGN.md §13."""
    defined = sum(len(funcs) for funcs in defined_functions().values())
    assert 0 < unreached_ceiling() < defined


def test_every_lazy_public_name_resolves():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


@pytest.mark.parametrize("package", sorted(
    _module_name(p, ROOT / "src")
    for p in (ROOT / "src" / "repro").rglob("__init__.py")))
def test_every_package_all_imports(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", ()):
        assert getattr(module, name) is not None, f"{package}.{name}"


def test_ci_refuses_the_specs_the_census_runs():
    """CI's refusal loop and ``REFUSED_SPECS`` are one list kept twice:
    the same fields in the same order, each with an equal spec."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    specs = {m[1]: json.loads(m[2]) for m in re.finditer(
        r"cat > refusal-smoke/(\w+)\.json <<'EOF'\n(.*?)\n\s*EOF\n",
        text, re.S)}
    loop = re.search(r"for field in ([\w ]+); do", text)[1].split()
    assert loop == list(specs) == list(REFUSED_SPECS)
    assert specs == REFUSED_SPECS
