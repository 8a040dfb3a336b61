"""Command-line entry point: compute, serialize, and verify.

Subcommands: spectrum, theta, zeta, torsion, anomaly, converge, selftest.
Exit codes: 0 success, 2 validation failure (bad config, bad metric spec,
unusable fit window), 3 tolerance failure (a named check did not pass;
summary.json in the output directory says which).

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

from .config import RunConfig, _file_values, validated
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


def _make_cache(config: RunConfig):
    from .cache import SpectrumCache

    return SpectrumCache(config.cache_dir)


def _metric_data(config: RunConfig):
    """The configured metric and its spectrum data, served from the cache
    when it can be."""
    from .metrics import parse_metric_spec
    from .pipeline import family_spectral_data

    metric = parse_metric_spec(config.metric)
    (data,) = family_spectral_data((metric,), config.L, config.n_theta, _make_cache(config))
    return metric, data


def _make_family(config: RunConfig):
    from .metrics import geomean_family, pnorm_family

    make = {"pnorm": pnorm_family, "geomean-pnorm": geomean_family}[config.family]
    return make(config.family_parameters)


def _theta_grid(config: RunConfig):
    import numpy as np

    from .heatzeta import geometric_grid

    if config.t_geometric:
        return geometric_grid(config.t_lo, config.t_hi, config.t_count)
    return np.linspace(config.t_lo, config.t_hi, config.t_count)


def _zeta_payload(data, zres) -> dict:
    return {
        "metric": data.metric_id,
        "L": data.L,
        "n_theta": data.n_theta,
        "solver_version": data.solver_version,
        "volume": data.volume,
        "s_points": [
            {"s": p.s, "value": p.value, "tail_bound": p.tail_bound}
            for p in zres.s_points
        ],
        "kernel_dim": 1,
        "zeta0": zres.zeta0,
        "zeta0_minus_kernel": zres.zeta0_minus_kernel,
        "zeta_prime0": zres.zeta_prime0,
        "error_budget": zres.error_budget,
        "fit": zres.fit,
        "method": zres.method,
    }


def _quillen_payload(quillen) -> dict:
    return {
        "metric": quillen.metric_id,
        "vol": quillen.vol,
        "log_l2": quillen.log_l2,
        "zeta_prime0": quillen.zeta_prime0,
        "log_quillen": quillen.log_quillen,
        "error_budget": quillen.error_budget,
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
    # n exp(-lambda_max t) bounds the trace of the modes above the cutoff
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
    from .pipeline import compute_zeta

    metric, data = _metric_data(config)
    zres = compute_zeta(
        data.eigenvalues, metric, config.fit_window, config.s_values, config.trunc_tol
    )
    path = write_json(out / "zeta.json", _zeta_payload(data, zres))
    print(
        f"zeta: {data.metric_id} L={data.L} zeta_prime0={zres.zeta_prime0:.12g} "
        f"budget={zres.error_budget:.3g} -> {path}"
    )
    return 0


def _cmd_torsion(config: RunConfig, out: Path) -> int:
    from .anomaly import quillen_log
    from .pipeline import compute_zeta

    metric, data = _metric_data(config)
    zres = compute_zeta(
        data.eigenvalues, metric, config.fit_window, config.s_values, config.trunc_tol
    )
    quillen = quillen_log(zres, data.volume)
    zeta_path = write_json(out / "zeta.json", _zeta_payload(data, zres))
    quillen_path = write_json(out / "quillen.json", _quillen_payload(quillen))
    print(
        f"torsion: {data.metric_id} L={data.L} "
        f"zeta_prime0={zres.zeta_prime0:.12g} "
        f"log_quillen={quillen.log_quillen:.12g} -> {zeta_path}, {quillen_path}"
    )
    return 0


def _cmd_anomaly(config: RunConfig, out: Path) -> int:
    from .anomaly import quillen_log, two_route_check
    from .pipeline import compute_zeta, family_spectral_data

    family = _make_family(config)
    data = family_spectral_data(
        family.members, config.L, config.n_theta, _make_cache(config)
    )
    members = []
    for m, d in zip(family.members, data):
        zres = compute_zeta(d.eigenvalues, m, config.fit_window, trunc_tol=config.trunc_tol)
        members.append((m, quillen_log(zres, d.volume)))
    reports = [two_route_check(*p, *q) for p, q in zip(members[:-1], members[1:])]
    passed = all(r.passed for r in reports)
    payload = {
        "family": family.id,
        "L": config.L,
        "pairs": [_jsonable(r) for r in reports],
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
        write_json(
            out / "summary.json",
            {"tags": {"compare2methods": False}, "passed": False,
             "failed": ["compare2methods"]},
        )
        print("anomaly: tolerance failure on tag compare2methods", file=sys.stderr)
        return 3
    return 0


def _cmd_converge(config: RunConfig, out: Path) -> int:
    from .harness import convergence_summary

    family = _make_family(config)
    summary = convergence_summary(
        family,
        L=config.L,
        t_set=config.t_set,
        window=config.fit_window,
        trunc_tol=config.trunc_tol,
        n_theta=config.n_theta,
    )
    rows, resolvents = summary.sweep.rows, summary.resolvents
    csv_path = write_csv(
        out / "converge.csv",
        ["param", *rows[0].columns, "sup_log_dist_to_limit"],
        ((row.param, *row.columns.values(), row.sup_log_dist_to_limit) for row in rows),
    )
    quillen_path = write_csv(
        out / "converge_quillen.csv",
        ["p", "vol", "zeta_prime0", "log_quillen", "diff_to_prev", "bound"],
        (
            (r.param, r.vol, r.zeta_prime0, r.log_quillen, r.diff_to_prev, r.bound)
            for r in summary.quillen.rows
        ),
    )
    payload = {
        "family": summary.family_id,
        "L": summary.L,
        "tags": dict(summary.tags),
        "passed": summary.passed,
        "failed": list(summary.failed_tags),
        "detail": {
            "cauchy_violations": list(summary.cauchy.violations),
            "floor": {
                "c": summary.floor.c,
                "floor": summary.floor.floor,
                "kappa": summary.floor.kappa,
                "margin": summary.floor.margin,
            },
            "resolvent": {
                "c3": resolvents.columns["resolvent"].c_frozen,
                "c3_heat": resolvents.columns["heat"].c_frozen,
                "limit_dist": resolvents.limit_dist["resolvent"],
                "heat_limit_dist": resolvents.limit_dist["heat"],
                "failures": list(resolvents.failures),
            },
            "borne": {
                "u": summary.borne.u,
                "max_ratio": summary.borne.max_ratio,
                "delta_nodes": summary.borne.delta_nodes,
            },
            "duhamel_ratio": summary.duhamel.ratio,
            "two_route_gap": summary.two_route.gap,
            "two_route_tolerance": summary.two_route.tolerance,
            "quillen_limit": summary.quillen.limit,
            "quillen_failures": list(summary.quillen.failures),
        },
    }
    summary_path = write_json(out / "summary.json", payload)
    for tag, ok in summary.tags.items():
        print(f"converge {'ok  ' if ok else 'FAIL'} {tag}")
    print(f"converge: {summary.family_id} L={summary.L} -> {csv_path}, {quillen_path}, {summary_path}")
    if not summary.passed:
        print(
            "converge: tolerance failure on tags " + ", ".join(summary.failed_tags),
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_selftest(config: RunConfig, out: Path) -> int:
    from .selftest import run_selftest

    tags, details = run_selftest()
    for line in details:
        print(line)
    failed = [name for name, ok in tags.items() if not ok]
    write_json(
        out / "summary.json",
        {"tags": dict(tags), "passed": not failed, "failed": failed},
    )
    if failed:
        print("selftest: failure on tags " + ", ".join(failed), file=sys.stderr)
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
        values = _file_values(args.config) if args.config else {}
        for name in _FLAG_FIELDS:
            if getattr(args, name) is not None:
                values[name] = getattr(args, name)
        config = validated(RunConfig(**values))
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
