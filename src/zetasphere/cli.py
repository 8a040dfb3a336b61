"""Command-line entry point: compute, serialize, and verify.

Subcommands: spectrum, theta, zeta, torsion, anomaly, converge, selftest.
Exit codes: 0 success, 2 validation failure (bad config, bad metric spec,
a domain error such as an overflowing spectrum), 3 tolerance failure (a
named check did not pass; summary.json in the output directory says which).

Heavy imports happen inside the command handlers so the thread environment
from the config takes effect before the linear algebra libraries load. The
``threads`` setting (default 1) overrides any exported thread variable;
``--threads 0`` keeps the environment and the library default.
Every file write is atomic (temp file + rename) and deterministic: the same
config produces byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

from .config import RunConfig, load_config
from .errors import ConfigError, ZetasphereError

__all__ = ["main"]

# RunConfig fields the common flags set, over the config file's values.
_FLAG_FIELDS = ("metric", "L", "output_dir", "cache_dir", "threads")

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return "%.17g" % float(value)


def write_csv(path: Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    lines += [",".join(_cell(c) for c in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def _jsonable(obj):
    """Plain-JSON view: records to dicts, arrays to lists, nan to null."""
    import numpy as np

    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a NamedTuple record
        return {name: _jsonable(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return obj


def write_json(path: Path, payload) -> Path:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    _atomic_write(path, text)
    return path


def _verdict(tags: dict[str, bool]) -> dict:
    """summary.json's verdict on named checks: every tag, whether all passed,
    and the failed tags in the dict's order."""
    failed = [name for name, ok in tags.items() if not ok]
    return {"tags": dict(tags), "passed": not failed, "failed": failed}


def _make_cache(config: RunConfig):
    from .pipeline import SpectrumCache

    return SpectrumCache(config.cache_dir)


def _metric_data(config: RunConfig):
    """The configured metric and its spectrum data, served from the cache
    when it can be."""
    from .metrics import parse_metric_spec
    from .pipeline import family_spectral_data

    metric = parse_metric_spec(config.metric)
    (data,) = family_spectral_data((metric,), config.L, _make_cache(config))
    return metric, data


def _make_family(config: RunConfig):
    from .metrics import FAMILIES

    return FAMILIES[config.family](config.family_parameters)


def _theta_grid(config: RunConfig):
    import numpy as np

    if config.t_geometric:
        return np.geomspace(config.t_lo, config.t_hi, config.t_count)
    return np.linspace(config.t_lo, config.t_hi, config.t_count)


def _zeta_payload(data, zres, s_values) -> dict:
    """zeta.json of one metric's spectrum: its zeta(s) points at
    ``s_values`` and its zeta record ``zres``."""
    from .discretize import colatitude_nodes
    from .eigensolve import SOLVER_VERSION
    from .heatzeta import zeta_direct

    points = [zeta_direct(data.eigenvalues, s, data.volume) for s in s_values]
    return {
        "metric": data.metric_id,
        "L": data.L,
        "n_theta": colatitude_nodes(data.L),
        "solver_version": SOLVER_VERSION,
        "volume": data.volume,
        "s_points": [{"s": p.s, "value": p.value, "tail_bound": p.tail_bound} for p in points],
        "kernel_dim": 1,
        "zeta0": zres.zeta0,
        "zeta_prime0": zres.zeta_prime0,
        "error_budget": zres.error_budget,
        "method": zres.method,
    }


def _quillen_payload(zres) -> dict:
    return {
        "metric": zres.metric_id,
        "vol": zres.volume,
        "log_l2": math.log(zres.volume),
        "zeta_prime0": zres.zeta_prime0,
        "log_quillen": zres.log_quillen,
        "error_budget": zres.error_budget,
    }


def _cmd_spectrum(config: RunConfig, out: Path) -> int:
    _, data = _metric_data(config)
    path = write_csv(
        out / "spectrum.csv",
        ["index", "eigenvalue"],
        ((i, lam) for i, lam in enumerate(data.eigenvalues)),
    )
    print(
        f"spectrum: {data.metric_id} L={data.L} modes={data.eigenvalues.size} "
        f"lambda1={data.lambda1:.6g} -> {path}"
    )
    return 0


def _cmd_theta(config: RunConfig, out: Path) -> int:
    import numpy as np

    from .heatzeta import theta_values

    _, data = _metric_data(config)
    lam = data.eigenvalues
    t = _theta_grid(config)
    # trunc_bound = n exp(-lambda_max t) is no error bound: it misses the
    # Galerkin error of the modes kept (2.5e-35 against an error of 5.4e-7
    # on pnorm:8 at L = 32, t = 0.1), and where lambda_max t < 1 it does not
    # bound the tail past the cutoff either
    path = write_csv(
        out / "theta.csv",
        ["t", "theta", "trunc_bound"],
        zip(t, theta_values(lam, t), lam.size * np.exp(-lam[-1] * t)),
    )
    print(
        f"theta: {data.metric_id} L={data.L} grid={t.size} "
        f"[{config.t_lo:g}, {config.t_hi:g}] -> {path}"
    )
    return 0


def _cmd_zeta(config: RunConfig, out: Path) -> int:
    from .heatzeta import zeta_result

    metric, data = _metric_data(config)
    zres = zeta_result(data, metric)
    path = write_json(out / "zeta.json", _zeta_payload(data, zres, config.s_values))
    print(
        f"zeta: {data.metric_id} L={data.L} zeta_prime0={zres.zeta_prime0:.12g} "
        f"budget={zres.error_budget:.3g} -> {path}"
    )
    return 0


def _cmd_torsion(config: RunConfig, out: Path) -> int:
    from .heatzeta import zeta_result

    metric, data = _metric_data(config)
    zres = zeta_result(data, metric)
    zeta_path = write_json(out / "zeta.json", _zeta_payload(data, zres, config.s_values))
    quillen_path = write_json(out / "quillen.json", _quillen_payload(zres))
    print(
        f"torsion: {data.metric_id} L={data.L} "
        f"zeta_prime0={zres.zeta_prime0:.12g} "
        f"log_quillen={zres.log_quillen:.12g} -> {zeta_path}, {quillen_path}"
    )
    return 0


def _cmd_anomaly(config: RunConfig, out: Path) -> int:
    from .anomaly import two_route_pairs
    from .heatzeta import zeta_result
    from .pipeline import family_spectral_data

    family = _make_family(config)
    data = family_spectral_data(family.members, config.L, _make_cache(config))
    reports = two_route_pairs([(m, zeta_result(d, m)) for m, d in zip(family.members, data)])
    passed = all(r.passed for r in reports)
    payload = {
        "family": family.id,
        "L": config.L,
        "pairs": reports,
        "passed": passed,
    }
    path = write_json(out / "anomaly.json", payload)
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        print(
            f"anomaly {status}: ({r.metric_p}, {r.metric_q}) "
            f"gap={r.gap:.3e} tolerance={r.tolerance:.3e}"
        )
    print(f"anomaly: {len(reports)} pairs -> {path}")
    if not passed:
        write_json(out / "summary.json", _verdict({"compare2methods": False}))
        print("anomaly: tolerance failure on tag compare2methods", file=sys.stderr)
        return 3
    return 0


def _cmd_converge(config: RunConfig, out: Path) -> int:
    from .harness import convergence_summary

    family = _make_family(config)
    summary = convergence_summary(family, L=config.L, t_set=config.t_set)
    rows, cauchy = summary.sweep.rows, summary.cauchy
    csv_path = write_csv(
        out / "converge.csv",
        ["param", *rows[0].columns, "sup_log_dist_to_limit"],
        ((row.param, *row.columns.values(), row.sup_log_dist_to_limit) for row in rows),
    )
    quillen_path = write_csv(
        out / "converge_quillen.csv",
        ["p", "vol", "zeta_prime0", "log_quillen", "prediction", "budget"],
        summary.quillen.rows,
    )
    verdict = _verdict(summary.tags)
    payload = {
        "family": summary.family_id,
        "L": summary.L,
        **verdict,
        "detail": {
            "cauchy_violations": [v for name in rows[0].columns for v in cauchy[name].violations],
            "floor": {
                "c": summary.floor.c,
                "floor": summary.floor.floor,
                "kappa": summary.floor.kappa,
                "margin": summary.floor.margin,
            },
            "resolvent": {
                "limit_dist": cauchy["resolvent"].diffs[-1],
                "heat_limit_dist": cauchy["heat"].diffs[-1],
                "failures": [*cauchy["resolvent"].violations, *cauchy["heat"].violations],
            },
            "borne": {
                "u": summary.borne.u,
                "max_ratio": summary.borne.max_ratio,
                "delta_nodes": summary.borne.delta_nodes,
            },
            "duhamel_ratio": summary.duhamel.ratio,
            "two_route": summary.two_route,
            "quillen_limit": summary.quillen.limit,
            "quillen_failures": list(summary.quillen.failures),
        },
    }
    summary_path = write_json(out / "summary.json", payload)
    for tag, ok in summary.tags.items():
        print(f"converge {'ok  ' if ok else 'FAIL'} {tag}")
    print(f"converge: {summary.family_id} L={summary.L} -> {csv_path}, {quillen_path}, {summary_path}")
    if verdict["failed"]:
        print(
            "converge: tolerance failure on tags " + ", ".join(verdict["failed"]),
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_selftest(config: RunConfig, out: Path) -> int:
    from .selftest import run_selftest

    tags, details = run_selftest()
    for line in details:
        print(line)
    verdict = _verdict(tags)
    write_json(out / "summary.json", verdict)
    if verdict["failed"]:
        print("selftest: failure on tags " + ", ".join(verdict["failed"]), file=sys.stderr)
        return 3
    print(f"selftest: {len(tags)} checks ok")
    return 0


# Each subcommand's handler and its line in --help.
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "eigenvalues of one metric -> spectrum.csv"),
    "theta": (_cmd_theta, "heat trace on the time grid -> theta.csv"),
    "zeta": (_cmd_zeta, "zeta values and derivative at 0 -> zeta.json"),
    "torsion": (_cmd_torsion, "zeta derivative and determinant metric -> zeta.json, quillen.json"),
    "anomaly": (_cmd_anomaly, "two-route determinant comparison over the family -> anomaly.json"),
    "converge": (
        _cmd_converge, "full family harness -> converge.csv, converge_quillen.csv, summary.json"
    ),
    "selftest": (_cmd_selftest, "fast built-in checks -> summary.json"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasphere",
        description="Spectra, heat traces, zeta values, and determinant\n"
        "metrics of conformal Laplacians on the sphere.",
        epilog="subcommands:\n"
        + "\n".join(f"  {name:<10} {text}" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=tuple(_COMMANDS), metavar="SUBCOMMAND")
    parser.add_argument("-c", "--config", metavar="FILE", help="config file (INI)")
    parser.add_argument("--metric", help="metric spec, e.g. fs, max, pnorm:3")
    parser.add_argument("--L", type=int, dest="L", help="spectral degree cutoff")
    parser.add_argument("--output-dir", dest="output_dir", help="directory for result files")
    parser.add_argument("--cache-dir", dest="cache_dir",
                        help="spectrum cache directory (converge and selftest use none)")
    parser.add_argument(
        "--threads", type=int,
        help="BLAS/OpenMP threads: N pins N (default 1); 0 keeps the library "
        "default and any exported OPENBLAS_NUM_THREADS etc.",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        given = vars(args)
        flags = {name: given[name] for name in _FLAG_FIELDS if given[name] is not None}
        config = load_config(args.config or None, **flags)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if config.threads > 0:
        for var in _THREAD_VARS:
            os.environ[var] = str(config.threads)

    out = Path(config.output_dir)
    started = time.monotonic()
    try:
        code = _COMMANDS[args.command][0](config, out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ZetasphereError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if code == 0:
        threads = config.threads or "library default"
        print(f"done in {time.monotonic() - started:.2f}s (threads={threads})")
    return code


if __name__ == "__main__":
    sys.exit(main())
