"""Every top-level import in the package and its tests is used, every
private helper of the package is referenced, every exported name exists,
and the CLI keeps its import floor.

An import that nothing reads costs load time and hides what a module
depends on. Names listed in a module's ``__all__`` count as used (they are
re-exported), and ``from __future__`` imports are compiler directives. An
export whose definition was deleted fails only when someone imports it, so
the export lists are resolved here. Every command runs in a fresh process,
so a module it loads for one small job is paid on every run: OpenSSL's
libcrypto behind ``hashlib`` is 3.5 MB of resident memory, and
``numpy.polynomial``, ``numpy.random`` and ``configparser`` add import time
and memory that no command needs. The package's records are NamedTuples:
``dataclasses`` generates six methods per frozen record at import, which
cost every command 13 to 31 ms for 25 records.
"""

import ast
import importlib
import os
import subprocess
import sys
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


def _private_names(node: ast.stmt) -> list[str]:
    """Private names a top-level statement defines: a function, a class or
    the targets of an assignment; dunder names are not private."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node: ast.AST) -> set[str]:
    """Names a statement reads: loaded names, attributes and imported names."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name)
    return refs


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level private names that no other top-level statement of the
    given sources reads, as ``path:line: name``."""
    stmts = [(path, node) for path, text in sources.items() for node in ast.parse(text).body]
    refs = [_references(node) for _, node in stmts]
    return [
        f"{path}:{node.lineno}: {name}"
        for i, (path, node) in enumerate(stmts)
        for name in _private_names(node)
        if not any(name in r for j, r in enumerate(refs) if j != i)
    ]


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "_A, _B = 1, 2\ndef _f():\n    return _f()\n"
                "def _g():\n    return _A\nclass _C:\n    pass\n__all__ = []\n",
        "b.py": "from a import _g\nx = _C\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:1: _B", "a.py:2: _f"]


def test_every_private_name_is_referenced():
    package = ROOT / "src" / "zetasphere"
    sources = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for p in sorted(package.glob("*.py"))
    }
    assert unreferenced_private_names(sources) == []


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


_FLOOR_MODULES = ("_hashlib", "numpy.polynomial", "numpy.random", "configparser", "dataclasses")

_FLOOR_PROBE = f"""
import sys
from zetasphere.cli import main
assert main(sys.argv[1:]) == 0
print("loaded=" + ",".join(m for m in {_FLOOR_MODULES!r} if m in sys.modules))
"""


@pytest.mark.parametrize(
    "command", ["spectrum", "theta", "zeta", "torsion", "anomaly", "converge", "selftest"]
)
def test_cli_import_floor(tmp_path, command):
    """A flag-only run of each command loads none of ``_FLOOR_MODULES``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("ZETASPHERE_CACHE", None)
    result = subprocess.run(
        [sys.executable, "-c", _FLOOR_PROBE, command, "--L", "16",
         "--output-dir", "out", "--cache-dir", "cache"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "loaded="


def test_anomaly_loads_no_solver_or_cache():
    """The anomaly layer computes from the results it is handed: importing
    it loads neither the solver pipeline nor the spectrum cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys\nimport zetasphere.anomaly\n"
        "print([m for m in ('zetasphere.pipeline', 'zetasphere.cache') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
