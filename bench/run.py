"""zetasphere benchmark: the real CLI, one process per command, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from anywhere; the package is taken from ``src/`` next to this
directory. Each pass runs the workload's command list one command after
another, each in a fresh process (closed loop, one client), with a fresh
``--cache-dir`` and ``--output-dir`` and ``ZETASPHERE_CACHE`` removed from
the child environment. Passes repeat until ``--seconds`` have been measured,
and at least three times; timings are medians over passes. ``--trace 1``
adds one pass under ``tracer.py`` and reports per-function metrics instead
of end-to-end ones. ``scalar_warm`` can be run by name but is not among the
workloads ``BENCHMARK.json`` gates (see README.md).

Every command's outputs are checked (see ``check_command``); a command that
exits nonzero or fails a check counts in ``failed``. The last line of
standard output is the JSON result; a fuller record, with the environment,
goes to ``.bench_runs/results/``. See README.md for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

RUN_BUDGET_S = 170.0          # every child is killed past this point
SETUP_REPEATS = 7
MIN_PASSES = 3                # a cold pass can outlast --seconds; a median of three drops one outlier
IMPORT_REPEATS = 3
SELF_CHECK_L = 16             # smallest L whose fit window is usable

# seed 0 -> p = 3; other seeds walk the grid 2.5, 3, ..., 8
P_GRID = tuple(2.5 + 0.5 * i for i in range(12))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

CLI_MAIN = "import sys; from zetasphere.cli import main; sys.exit(main())"
# a plain import statement, so that -X importtime logs the top-level modules
SETUP_PROBE = (
    "import importlib.util, sys\n"
    "for name in sys.argv[1:]:\n"
    "    if importlib.util.find_spec(name):\n"
    "        exec('import ' + name)\n"
)
ENV_PROBE = (
    "import json, numpy, scipy\n"
    "def blas(mod):\n"
    "    try:\n"
    "        info = mod.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "        return f\"{info.get('name')} {info.get('version')}\"\n"
    "    except Exception as e:\n"
    "        return f'unknown ({e})'\n"
    "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
    "                  'numpy_blas': blas(numpy), 'scipy_blas': blas(scipy)}))\n"
)
NUMPY_PROBE = "import sys, zetasphere.cli; print(int('numpy' in sys.modules))"

SCALAR_MODULES = ("zetasphere.cli", "zetasphere.pipeline", "zetasphere.anomaly")
HARNESS_MODULES = ("zetasphere.cli", "zetasphere.harness")


@dataclass(frozen=True)
class Workload:
    name: str
    primed: bool              # timed passes start from a copy of a primed cache
    modules: tuple[str, ...]  # what the handlers import; loaded by the setup probe
    kind: str                 # "scalar" or "harness"

    def commands(self, p: float, small_L: int | None = None) -> list[list[str]]:
        if self.kind == "scalar":
            big, mid = (small_L, small_L) if small_L else (48, 32)
            return [
                ["spectrum", "--metric", "fs", "--L", str(big)],
                ["torsion", "--metric", "fs", "--L", str(big)],
                ["torsion", "--metric", f"pnorm:{p:g}", "--L", str(big)],
                ["anomaly", "--L", str(mid)],
            ]
        return [["converge", "--L", str(small_L or 24)]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scalar_cold", False, SCALAR_MODULES, "scalar"),
        Workload("scalar_warm", True, SCALAR_MODULES, "scalar"),
        Workload("harness_l24", True, HARNESS_MODULES, "harness"),
    )
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.TARGET_NAMES:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.calls": "count"})
    units.update({
        "harmonics.table_bytes": "B",
        "discretize.pencil_bytes": "B",
        "cache.hits": "count",
        "cache.misses": "count",
        "cache.bytes_written": "B",
        "process.threads": "count",
        "import.numpy.s": "s",
        "import.scipy.s": "s",
        "import.zetasphere.s": "s",
        "import.cli_loads_numpy": "bool",
        "trace.overhead_s": "s",
        "trace.absent": "count",
    })
    return units


# ---------------------------------------------------------------- oracles

def closed_forms() -> dict[str, float]:
    """Exact zeta'(0) of the round metric, kernel excluded.

    ``fs`` is 2/(1+|z|^2)^2 (area 2): -(2/3) log 2 - 1/2 + 4 zeta'(-1).
    ``pnorm:1`` is fs/2, so its eigenvalues double and, with zeta_fs(0) =
    -2/3, its zeta'(0) is larger by (2/3) log 2.
    """
    import mpmath

    mpmath.mp.dps = 30
    fs = -mpmath.mpf(2) / 3 * mpmath.log(2) - mpmath.mpf(1) / 2 + 4 * mpmath.zeta(-1, derivative=1)
    return {"fs": float(fs), "pnorm:1": float(fs + mpmath.mpf(2) / 3 * mpmath.log(2))}


# ----------------------------------------------------------------- checks

def _arg(cmd: list[str], flag: str) -> str | None:
    return cmd[cmd.index(flag) + 1] if flag in cmd else None


def _read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_round_spectrum(values: list[float], L: int) -> list[str]:
    """lambda_0 = 0, then ell(ell+1)/2 with multiplicity 2 ell + 1."""
    if len(values) != (L + 1) ** 2:
        return [f"spectrum has {len(values)} values, expected {(L + 1) ** 2}"]
    if values[0] != 0.0:
        return [f"lambda_0 = {values[0]!r}, expected 0"]
    worst = 0.0
    for ell in range(1, L + 1):
        exact = ell * (ell + 1) / 2.0
        for value in values[ell * ell:(ell + 1) ** 2]:
            worst = max(worst, abs(value - exact) / exact)
    return [] if worst <= 1e-10 else [f"round spectrum off by {worst:.3e} relative (> 1e-10)"]


def check_spectrum_shape(values, L_choices) -> str | None:
    """Finite, ascending, (L+1)^2 values, lambda_0 = 0."""
    n = len(values)
    if not all(math.isfinite(v) for v in values):
        return "spectrum has non-finite values"
    if any(b < a for a, b in zip(values, values[1:])):
        return "spectrum is not ascending"
    if values[0] != 0.0:
        return f"lambda_0 = {values[0]!r}, expected 0"
    if n not in {(L + 1) ** 2 for L in L_choices}:
        return f"spectrum has {n} values, not (L+1)^2 for L in {sorted(L_choices)}"
    return None


def check_command(cmd: list[str], out: Path, exact: dict[str, float]) -> tuple[list[str], float | None]:
    """Output checks of one command; returns (failures, round zeta'(0) error)."""
    sub, metric, L = cmd[0], _arg(cmd, "--metric"), int(_arg(cmd, "--L"))
    try:
        if sub == "spectrum" and metric == "fs":
            with open(out / "spectrum.csv", newline="", encoding="utf-8") as handle:
                values = [float(row["eigenvalue"]) for row in csv.DictReader(handle)]
            return check_round_spectrum(values, L), None
        if sub == "torsion" and metric == "fs":
            zeta = _read_json(out / "zeta.json")
            err = abs(zeta["zeta_prime0"] - exact["fs"])
            if err > zeta["error_budget"]:
                return [f"fs zeta'(0) error {err:.3e} exceeds its budget {zeta['error_budget']:.3e}"], err
            return [], err
        if sub == "torsion":
            _read_json(out / "zeta.json")
            _read_json(out / "quillen.json")
            return [], None
        if sub == "anomaly":
            ok = _read_json(out / "anomaly.json").get("passed") is True
            return ([] if ok else ["anomaly.json has passed != true"]), None
        if sub == "converge":
            tags = _read_json(out / "summary.json").get("tags", {})
            bad = sorted(k for k, ok in tags.items() if ok is not True)
            failures = [f"converge tags not true: {bad}"] if bad else []
            if len(tags) != 8:
                failures.append(f"converge reports {len(tags)} tags, expected 8")
            with open(out / "converge.csv", newline="", encoding="utf-8") as handle:
                rows = [r for r in csv.DictReader(handle) if float(r["param"]) == 1.0]
            err = abs(float(rows[0]["zeta_prime0"]) - exact["pnorm:1"]) if rows else None
            if err is None:
                failures.append("converge.csv has no p = 1 row")
            return failures, err
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"], None
    return [], None


def check_cache(cache: Path, commands: list[list[str]]) -> dict[int, list[str]]:
    """Every spectrum a cold pass wrote must pass check_spectrum_shape.

    A bad entry is charged to the last command at its L, the one that wrote it.
    """
    import numpy as np

    Ls = [int(_arg(cmd, "--L")) for cmd in commands]
    failures: dict[int, list[str]] = {}
    for entry in sorted(cache.glob("*.npz")):
        try:
            with np.load(entry, allow_pickle=False) as payload:
                values = [float(v) for v in payload["eigenvalues"]]
        except (OSError, ValueError, KeyError) as e:
            values, problem = None, f"unreadable cache entry {entry.name}: {e}"
        if values is not None:
            problem = check_spectrum_shape(values, set(Ls))
        if problem:
            sizes = [(L + 1) ** 2 for L in Ls]
            owner = max((i for i, s in enumerate(sizes) if values and s == len(values)),
                        default=len(commands) - 1)
            failures.setdefault(owner, []).append(f"cache {entry.name[:12]}: {problem}")
    return failures


def _tree(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


# ------------------------------------------------------------ processes

@dataclass
class CommandRun:
    argv: list[str]
    code: int
    wall: float
    cpu: float
    rss_mb: float
    out: Path
    failures: list[str] = field(default_factory=list)
    zp0_err: float | None = None
    trace: dict | None = None


@dataclass
class Pass:
    label: str
    runs: list[CommandRun]

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.runs)

    @property
    def rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


class Bench:
    def __init__(self, workload: Workload, seed: int, small_L: int | None = None):
        self.workload = workload
        self.seed = seed
        self.p = P_GRID[(seed + 1) % len(P_GRID)]
        self.commands = workload.commands(self.p, small_L)
        self.exact = closed_forms()
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S
        RUNS.mkdir(exist_ok=True)
        self.work = RUNS / f"tmp-{os.getpid()}-{workload.name}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if k != "ZETASPHERE_CACHE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["TMPDIR"] = str(self.work / "tmp")
        self.env = env

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def child(self, argv: list[str], log: Path) -> tuple[int, float, float, float]:
        """Run one process to completion: (exit code, wall s, cpu s, peak RSS MB)."""
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=sink, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def probe(self, code: str, *args: str, tag: str, python_flags: tuple[str, ...] = ()) -> tuple[int, float, str]:
        log = self.work / f"{tag}.log"
        rc, wall, _, _ = self.child([sys.executable, *python_flags, "-c", code, *args], log)
        return rc, wall, log.read_text(encoding="utf-8", errors="replace")

    def run_pass(self, label: str, primed_cache: Path | None, traced: bool = False) -> Pass:
        base = self.work / label
        cache = base / "cache"
        if primed_cache is not None:
            shutil.copytree(primed_cache, cache)
        else:
            cache.mkdir(parents=True)
        runs = []
        for i, cmd in enumerate(self.commands):
            out = base / f"out{i}"
            args = [*cmd, "--cache-dir", str(cache), "--output-dir", str(out)]
            spans = base / f"spans{i}.json"
            launcher = [str(BENCH / "tracer.py"), str(spans)] if traced else ["-c", CLI_MAIN]
            code, wall, cpu, rss = self.child([sys.executable, *launcher, *args], base / f"out{i}.log")
            run = CommandRun(cmd, code, wall, cpu, rss, out)
            if code != 0:
                run.failures.append(f"exit code {code}")
            else:
                run.failures, run.zp0_err = check_command(cmd, out, self.exact)
            if traced:
                try:
                    run.trace = _read_json(spans)
                except (OSError, ValueError):
                    run.failures.append("traced launcher wrote no spans")
            runs.append(run)
        if primed_cache is None:
            for i, problems in check_cache(cache, self.commands).items():
                runs[i].failures.extend(problems)
        return Pass(label, runs)

    def compare(self, reference: Pass, other: Pass) -> None:
        """Outputs must be byte-identical to the reference pass, command by command."""
        for ref, run in zip(reference.runs, other.runs):
            if run.code == 0 and _tree(ref.out) != _tree(run.out):
                run.failures.append(f"outputs differ from pass {reference.label}")


# ----------------------------------------------------------- aggregation

def importtime_totals(stderr: str, packages: tuple[str, ...]) -> dict[str, float]:
    """Seconds spent importing each package, from ``python -X importtime``.

    Sums the cumulative time of the outermost entries of each package, so a
    package's figure includes what it imports in turn.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    totals = {pkg: 0.0 for pkg in packages}
    stack: list[tuple[int, str]] = []
    # importtime prints children before parents; reversed, ancestors come first
    for depth, name, cumulative_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for pkg in packages:
            if name.split(".")[0] == pkg and not any(a.split(".")[0] == pkg for _, a in stack):
                totals[pkg] += cumulative_us * 1e-6
        stack.append((depth, name))
    return totals


def span_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-function inclusive, self and call totals over the traced processes."""
    out = {}
    for name in tracer.TARGET_NAMES:
        out.update({f"{name}.s": 0.0, f"{name}.self_s": 0.0, f"{name}.calls": 0})
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end) in enumerate(spans):
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][1]
            if ancestor < 0:  # nested calls of the same function count once
                out[f"{name}.s"] += duration
    return out


def _median(values):
    return statistics.median(values) if values else float("nan")


def typical_pass(passes: list[Pass], attr: str) -> float:
    """A pass's total, as the sum over its commands of each one's median.

    One slow process start among many short commands moves this less than
    it moves the median of whole-pass totals.
    """
    return sum(_median([getattr(p.runs[i], attr) for p in passes])
               for i in range(len(passes[0].runs)))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(bench: Bench, versions: dict) -> dict:
    mem_total = "unknown"
    try:
        with open("/proc/meminfo", encoding="ascii") as meminfo:
            mem_total = next(line.split(":", 1)[1].strip() for line in meminfo
                             if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    return {
        **versions,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": mem_total,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": bench.seed,
        "pnorm_p": bench.p,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 small_L: int | None = None) -> dict:
    bench = Bench(workload, seed, small_L)
    try:
        return _run(bench, seconds, trace)
    finally:
        bench.close()


def _run(bench: Bench, seconds: float, trace: bool) -> dict:
    w = bench.workload
    rc, _, text = bench.probe(ENV_PROBE, tag="env")   # also warms the bytecode cache
    try:
        versions = json.loads(text.strip().splitlines()[-1]) if rc == 0 else {}
    except (ValueError, IndexError):
        versions = {}
    env = environment(bench, versions)

    setup = []
    for k in range(SETUP_REPEATS):
        rc, wall, _ = bench.probe(SETUP_PROBE, *w.modules, tag=f"setup{k}")
        if rc != 0:
            raise SystemExit(f"error: importing {w.modules} failed (exit {rc})")
        setup.append(wall)

    passes = []
    reference = primed = None
    if w.primed:
        reference = bench.run_pass("prime", None)
        primed = bench.work / "prime" / "cache"
        passes.append(reference)
    timed = []
    clock = time.perf_counter()
    while len(timed) < MIN_PASSES or time.perf_counter() - clock < seconds:
        p = bench.run_pass(f"pass{len(timed)}", primed)
        if reference is None:
            reference = p
        else:
            bench.compare(reference, p)
        timed.append(p)
        passes.append(p)
        if time.monotonic() > bench.deadline:
            break

    wall_s = typical_pass(timed, "wall")
    if trace:
        traced = bench.run_pass("traced", primed, traced=True)
        bench.compare(reference, traced)
        passes.append(traced)
        traces = [r.trace for r in traced.runs if r.trace]
        imports = []
        for k in range(IMPORT_REPEATS):
            _, _, text = bench.probe(SETUP_PROBE, *w.modules, tag=f"importtime{k}",
                                     python_flags=("-X", "importtime"))
            imports.append(importtime_totals(text, ("numpy", "scipy", "zetasphere")))
        _, _, text = bench.probe(NUMPY_PROBE, tag="numpy")
        units = per_layer_units()
        values = span_metrics(traces)
        for counter, how in tracer.COUNTERS.items():
            per_proc = [t["counters"].get(counter, 0) for t in traces]
            values[counter] = max(per_proc, default=0) if how == "max" else sum(per_proc)
        values["process.threads"] = max((t["threads"] for t in traces), default=0)
        for pkg in ("numpy", "scipy", "zetasphere"):
            values[f"import.{pkg}.s"] = _median([imp[pkg] for imp in imports])
        values["import.cli_loads_numpy"] = int(text.strip().splitlines()[-1] == "1") if text.strip() else 0
        values["trace.overhead_s"] = traced.wall - wall_s
        absent = sorted({name for t in traces for name in t.get("absent", [])})
        values["trace.absent"] = len(absent)
        metrics = {name: (values[name], unit) for name, unit in units.items()}
    else:
        errs = [r.zp0_err for p in timed for r in p.runs if r.zp0_err is not None]
        metrics = {
            "wall_s": (wall_s, "s"),
            "cpu_s": (typical_pass(timed, "cpu"), "s"),
            "peak_rss_mb": (_median([p.rss_mb for p in timed]), "MB"),
            "setup_s": (_median(setup), "s"),
            "fs_zp0_abs_err": (_median(errs), "1"),
        }
        absent = []

    runs = [r for p in passes for r in p.runs]
    failures = [(p.label, " ".join(r.argv), f) for p in passes for r in p.runs for f in r.failures]
    failed = sum(1 for r in runs if r.failures)
    return {
        "workload": w.name,
        "seed": bench.seed,
        "trace": int(trace),
        "commands": [" ".join(c) for c in bench.commands],
        "timed_passes": len(timed),
        "setup_runs": len(setup),
        "setup_s_each": setup,
        "elapsed_s": time.monotonic() - bench.started,
        "environment": env,
        "pass_rows": [
            {"label": p.label, "wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb,
             "commands": [{"argv": " ".join(r.argv), "code": r.code, "wall_s": r.wall}
                          for r in p.runs]}
            for p in passes
        ],
        "failures": failures,
        "absent": absent,
        "metrics": metrics,
        "attempted": len(runs),
        "failed": failed,
    }


def report(record: dict) -> dict:
    """Print the human-readable summary; return the one-line result."""
    n = record["timed_passes"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{n} timed pass(es), {record['setup_runs']} setup runs")
    for cmd in record["commands"]:
        print(f"  command: zetasphere {cmd}")
    for name, (value, unit) in record["metrics"].items():
        runs = (record["setup_runs"] if name == "setup_s" else n) if not record["trace"] else 1
        print(f"  {name:44s} {value:>14.6g} {unit:6s} (runs: {runs})")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'error_rate':44s} {failed / attempted:>14.6g} {'1':6s} ({failed}/{attempted} commands)")
    for label, cmd, problem in record["failures"]:
        print(f"  FAILED [{label}] zetasphere {cmd}: {problem}")
    if record["absent"]:
        print(f"  absent trace targets: {', '.join(record['absent'])}")
    print(json.dumps({"environment": record["environment"]}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }


def save(record: dict, result: dict) -> Path:
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=2, sort_keys=True) + "\n")
    return path


def self_check() -> int:
    """Run an L = 16 variant of every workload, traced and untraced.

    Checks that the output checks pass and that exactly the metric names and
    units of BENCHMARK.json are printed.
    """
    spec = _read_json(ROOT / "BENCHMARK.json")
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            record = run_workload(workload, 0, 0.0, bool(trace), small_L=SELF_CHECK_L)
            result = report(record)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if not result["correct"]:
                problems.append(f"{result['failed']} of {result['attempted']} commands failed")
            if got != expected[trace]:
                problems.append(f"metric names/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if record["absent"]:
                problems.append(f"absent targets {record['absent']}")
            ok &= not problems
            print(f"self-check {name} trace {trace}: {'ok' if not problems else problems}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="quick L = 16 run of every workload; checks names, units and outputs")
    args = parser.parse_args(argv)
    if not (SRC / "zetasphere" / "cli.py").is_file():
        print(f"error: no zetasphere sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = report(record)
    print(f"record: {save(record, result)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
