"""Every top-level import in the package and its tests is used, every
top-level name and class method of the package is read, every export is read by another
module and exists, and the CLI keeps its import floor.

An import that nothing reads costs load time and hides what a module
depends on. Names listed in a module's ``__all__`` count as used (they are
re-exported), and ``from __future__`` imports are compiler directives. An
export whose definition was deleted fails only when someone imports it, so
the export lists are resolved here. The package's surface is what the
program reads: a public name or method that no other statement reads is dead code,
and an ``__all__`` entry that no other module imports advertises a library
the program does not use. Only the library API that README names
(`cli.main` and the package-level names) is exempt. Every command runs in a fresh process,
so a module it loads for one small job is paid on every run: OpenSSL's
libcrypto behind ``hashlib`` is 3.5 MB of resident memory, and
``numpy.polynomial``, ``numpy.random`` and ``configparser`` add import time
and memory that no command needs. The package's records are NamedTuples:
``dataclasses`` generates six methods per frozen record at import, which
cost every command 13 to 31 ms for 25 records. The layers import downward
only: the solve and its cache (`eigensolve`, `pipeline`) know nothing of
the zeta record or the anomaly checks built on them, anywhere in a module,
so a solved `Spectrum` is the one thing handed up.
"""

import ast
import copy
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


# Package modules each module may not import, at module level or in a function.
_LAYERS = {
    "pipeline": {"heatzeta", "anomaly"},
    "eigensolve": {"pipeline", "cache"},
    "heatzeta": {"pipeline", "discretize", "harness"},
}


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports anywhere in its source, by a
    relative or an absolute import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("zetasphere.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "zetasphere":
                continue
            parts = module.split(".")[1:] if node.level == 0 else module.split(".")
            found |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
    return found


def test_scan_finds_package_imports():
    tree = ast.parse(
        "import os\nfrom .a import x\ndef f():\n    from zetasphere.b import y\n"
        "    import zetasphere.c\n    from . import d\n    from zetasphere import e\n"
    )
    assert package_imports(tree) == {"a", "b", "c", "d", "e"}


def test_layers_import_downward():
    package = ROOT / "src" / "zetasphere"
    upward = {
        module: sorted(banned & package_imports(ast.parse((package / f"{module}.py").read_text())))
        for module, banned in _LAYERS.items()
    }
    assert upward == {module: [] for module in _LAYERS}


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or the
    targets of an assignment; dunder names are not counted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if not n.startswith("__")]


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


def _units(tree: ast.Module) -> list[tuple[ast.AST, list[str]]]:
    """The statements the scan compares, each with the names it defines:
    every top-level statement, except that each method or property of a
    top-level class is a unit of its own, named ``Class.method``, and the
    class keeps the rest of its body. A dunder method defines no name."""
    units = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            units.append((node, _defined_names(node)))
            continue
        methods = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        shell = copy.copy(node)
        shell.body = [n for n in node.body if n not in methods]
        units.append((shell, [node.name]))
        units += [
            (fn, [] if fn.name.startswith("__") else [f"{node.name}.{fn.name}"]) for fn in methods
        ]
    return units


def unreferenced_names(sources: dict[str, str], private: bool) -> list[str]:
    """Top-level private (or public) names, and methods of top-level
    classes, that no other unit of the given sources reads, as
    ``path:line: name``. A method is read by its bare name, as an attribute
    anywhere else, its own class's other methods included. ``__all__``
    lists strings, so a mention there is not a read."""
    units = [
        (path, node, names)
        for path, text in sources.items()
        for node, names in _units(ast.parse(text))
    ]
    refs = [_references(node) for _, node, _ in units]
    return [
        f"{path}:{node.lineno}: {name}"
        for i, (path, node, names) in enumerate(units)
        for name in names
        if (bare := name.rsplit(".", 1)[-1]).startswith("_") == private
        and not any(bare in r for j, r in enumerate(refs) if j != i)
    ]


def unread_exports(sources: dict[str, str], api: set[str]) -> list[str]:
    """``__all__`` entries that no other module imports, as ``module.name``.

    An import anywhere in a module counts, also one inside a function. The
    package ``__init__`` is skipped, and the names in ``api`` are exempt:
    both are the library API, which README documents.
    """
    read, exports = set(), {}
    for path, text in sources.items():
        module = Path(path).stem
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                read |= {(source, a.name) for a in node.names if source != module}
        for node in tree.body:
            if module != "__init__" and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exports[module] = [e.value for e in node.value.elts]
    return [
        f"{module}.{name}"
        for module, names in exports.items()
        for name in names
        if (module, name) not in read and f"{module}.{name}" not in api
    ]


def _package_sources() -> dict[str, str]:
    package = ROOT / "src" / "zetasphere"
    return {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for p in sorted(package.glob("*.py"))
    }


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "_A, _B = 1, 2\ndef _f():\n    return _f()\n"
                "def _g():\n    return _A\nclass _C:\n    pass\n__all__ = []\n",
        "b.py": "from a import _g\nx = _C\n",
    }
    assert unreferenced_names(sources, private=True) == ["a.py:1: _B", "a.py:2: _f"]


def test_scan_finds_an_unread_public_name():
    sources = {
        "pkg/a.py": "__all__ = ['f', 'g', 'h', 'main']\ndef f():\n    return g()\n"
                    "def g():\n    pass\ndef h():\n    pass\ndef main():\n    pass\n",
        "pkg/b.py": "def k():\n    from .a import f\n    return f()\n__all__ = ['k']\n",
    }
    assert unreferenced_names(sources, private=False) == [
        "pkg/a.py:6: h", "pkg/a.py:8: main", "pkg/b.py:1: k",
    ]
    assert unread_exports(sources, {"a.main"}) == ["a.g", "a.h", "b.k"]


def test_scan_finds_an_unread_method():
    sources = {
        "a.py": "class A:\n"
                "    def __init__(self):\n        self.x = self._helper()\n"
                "    def _helper(self):\n        return self.used()\n"
                "    def used(self):\n        return 1\n"
                "    @property\n    def shape(self):\n        return 2\n"
                "    def _dead(self):\n        return self._dead()\n"
                "    def unread(self):\n        pass\n",
        "b.py": "print(A().shape)\n",
    }
    assert unreferenced_names(sources, private=True) == ["a.py:11: A._dead"]
    assert unreferenced_names(sources, private=False) == ["a.py:13: A.unread"]


def test_every_private_name_is_referenced():
    assert unreferenced_names(_package_sources(), private=True) == []


def test_every_public_name_is_read():
    assert unreferenced_names(_package_sources(), private=False) == []


def test_every_export_is_read_by_another_module():
    """A module exports only what another module of the package imports;
    the library API is `cli.main` and the package-level names."""
    api = {"cli.main", *(f"{m}.{name}" for name, m in zetasphere._EXPORTS.items())}
    assert unread_exports(_package_sources(), api) == []


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


_SCALAR_PROBE = """
import sys
from zetasphere.cli import main
assert main(sys.argv[1:]) == 0
print([m for m in ("zetasphere.anomaly", "zetasphere.harness") if m in sys.modules])
"""


@pytest.mark.parametrize("command", ["spectrum", "theta", "zeta", "torsion"])
def test_scalar_commands_load_no_checks(tmp_path, command):
    """A flag-only run of a one-metric command loads neither the anomaly
    checks nor the harness: log h_Q is a field of the zeta record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("ZETASPHERE_CACHE", None)
    result = subprocess.run(
        [sys.executable, "-c", _SCALAR_PROBE, command, "--L", "16",
         "--output-dir", "out", "--cache-dir", "cache"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


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
