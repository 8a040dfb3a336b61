"""Every top-level import in the package and its tests is used, and every
exported name exists.

An import that nothing reads costs load time and hides what a module
depends on. Names listed in a module's ``__all__`` count as used (they are
re-exported), and ``from __future__`` imports are compiler directives. An
export whose definition was deleted fails only when someone imports it, so
the export lists are resolved here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import zetasphere

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
MODULES = sorted(p.stem for p in (ROOT / "src" / "zetasphere").glob("*.py") if p.stem != "__init__")


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {e.value for e in node.value.elts}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom a import b, c\n__all__ = ['c']\nsys.exit(0)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_top_level_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"zetasphere.{name}")
    assert [e for e in module.__all__ if not hasattr(module, e)] == []


def test_package_exports_resolve():
    missing = [
        f"{module}.{name}"
        for name, module in zetasphere._EXPORTS.items()
        if not hasattr(importlib.import_module(f"zetasphere.{module}"), name)
    ]
    assert missing == []
    assert [e for e in zetasphere.__all__ if not hasattr(zetasphere, e)] == []
