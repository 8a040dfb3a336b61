"""Traced launcher: one zetasphere CLI command with timing spans per function.

    python3 bench/tracer.py SPANS.json SUBCOMMAND [ARGS...]

Imports every ``zetasphere.*`` module, wraps the public functions named in
``TARGETS`` in every namespace that binds them, then calls
``zetasphere.cli.main(ARGS)`` exactly as the console script does. The
wrappers live on the benchmark side so the program runs as committed.
Spans stay in memory and are written to SPANS.json when the command ends.

A target that no longer exists (renamed or deleted by a refactor) is listed
under ``absent`` instead of failing the run, so the benchmark keeps working
across commits that reshape the modules it watches.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import pkgutil
import sys
import time
from pathlib import Path

# (module, attribute); a method is written "Class.method".
TARGETS = (
    ("harmonics", "legendre_tables"),
    ("discretize", "build_basis"),
    ("discretize", "stiffness"),
    ("discretize", "mass"),
    ("discretize", "assemble"),
    ("eigensolve", "generalized_eigs"),
    ("eigensolve", "apply_function"),
    ("operators", "operator_norm"),
    ("heatzeta", "theta_values"),
    ("heatzeta", "fit_asymptotics"),
    ("heatzeta", "zeta_result"),
    ("heatzeta", "heat_operator"),
    ("heatzeta", "duhamel_residual"),
    ("anomaly", "torsion_report"),
    ("anomaly", "two_route_check"),
    ("anomaly", "bott_chern_integral"),
    ("anomaly", "bott_chern_bound"),
    ("anomaly", "quillen_limit"),
    ("harness", "sweep"),
    ("harness", "cauchy_check"),
    ("harness", "limit_agreement"),
    ("harness", "lambda1_floor"),
    ("harness", "resolvent_convergence"),
    ("harness", "bornelapbelt_check"),
    ("harness", "duhamel_at"),
    ("pipeline", "spectral_data"),
    ("pipeline", "compute_spectrum"),
    ("pipeline", "compute_fit"),
    ("cache", "SpectrumCache.load"),
    ("cache", "SpectrumCache.store"),
    ("cli", "write_json"),
    ("cli", "write_csv"),
)

TARGET_NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)

# Counters read off return values; "max" keeps the largest single value.
COUNTERS = {
    "harmonics.table_bytes": "max",
    "discretize.pencil_bytes": "max",
    "cache.hits": "sum",
    "cache.misses": "sum",
    "cache.bytes_written": "sum",
}


def _nbytes(obj) -> int:
    """Array bytes held by a return value: arrays, tuples, dataclass fields."""
    if isinstance(getattr(obj, "nbytes", None), int):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (TypeError, OSError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counters = {name: 0 for name in COUNTERS}
        self.absent: list[str] = []

    def _count(self, name: str, result) -> None:
        if name == "harmonics.legendre_tables":
            self._bump("harmonics.table_bytes", _nbytes(result))
        elif name == "discretize.assemble":
            self._bump("discretize.pencil_bytes", _nbytes(result))
        elif name == "cache.SpectrumCache.load":
            self._bump("cache.misses" if result is None else "cache.hits", 1)
        elif name == "cache.SpectrumCache.store":
            self._bump("cache.bytes_written", _file_size(result))

    def _bump(self, counter: str, value: int) -> None:
        if COUNTERS[counter] == "max":
            self.counters[counter] = max(self.counters[counter], value)
        else:
            self.counters[counter] += value

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), None])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][3] = time.perf_counter()
            self._count(name, result)
            return result

        return traced

    def install(self) -> None:
        import zetasphere

        namespaces = [zetasphere] + [
            importlib.import_module(f"zetasphere.{info.name}")
            for info in pkgutil.iter_modules(zetasphere.__path__)
        ]
        by_name = {ns.__name__: ns for ns in namespaces}
        for (module, attr), name in zip(TARGETS, TARGET_NAMES):
            owner_path, _, fn_name = attr.rpartition(".")
            owner = by_name.get(f"zetasphere.{module}")
            if owner is not None and owner_path:
                owner = getattr(owner, owner_path, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self.wrap(name, original)
            if owner_path:
                # a class attribute is shared by every module that imports the class
                setattr(owner, fn_name, traced)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)


def _thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from zetasphere.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    except SystemExit as stop:  # argparse rejects its arguments this way
        code = stop.code if isinstance(stop.code, int) else 2
    spans_path.write_text(json.dumps({
        "spans": tracer.spans,
        "counters": tracer.counters,
        "absent": tracer.absent,
        "threads": _thread_count(),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
