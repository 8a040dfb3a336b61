"""Config parsing/validation and the command-line entry point."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zetasphere
from zetasphere import anomaly, eigensolve, pipeline
from zetasphere.cli import _THREAD_VARS, _jsonable, main, write_csv
from zetasphere.config import RunConfig, load_config, validated
from zetasphere.errors import ConfigError
from zetasphere.harness import THEOREM_TAGS
from zetasphere.heatzeta import ZetaPoint, ZetaResult, theta_values
from zetasphere.metrics import fs_metric, pnorm_metric
from zetasphere.pipeline import SpectrumCache

SRC = str(Path(zetasphere.__file__).resolve().parents[1])


def cfg(**kwargs) -> RunConfig:
    return RunConfig()._replace(**kwargs)


def run_cli(args, out_dir, cache_dir, capsys):
    code = main([*args, "--output-dir", str(out_dir), "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(code, *args, cwd):
    """Run ``python -c code args`` with the package importable and no thread
    variable set; return the result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for var in _THREAD_VARS:
        env.pop(var, None)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


# ---------------------------------------------------------------- config


def test_defaults_validate():
    config = validated(RunConfig())
    assert config.metric == "fs"
    assert config.L == 16
    assert config.threads == 1
    assert config.s_values == (1.5, 2.0, 3.0)
    assert config.family == "pnorm"
    assert config.t_set == (0.5, 1.0, 2.0)


def test_fit_defaults_match_heatzeta():
    """The zeta(s) points default to s = 1.5, 2, 3; the config is the one
    place that default is defined."""
    config = RunConfig()
    assert config.s_values == (1.5, 2.0, 3.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(L=0),
        dict(L=513),
        dict(threads=-1),
        dict(threads=1025),
        dict(t_lo=0.0),
        dict(t_lo=2.0, t_hi=1.0),
        dict(t_count=1),
        dict(t_count=200000),
        dict(s_values=()),
        dict(s_values=(2.0, 1.0)),
        dict(family_parameters=(2.0,)),
        dict(family_parameters=(0.5, 2.0)),
        dict(family_parameters=(2.0, 2.0)),
        dict(t_set=()),
        dict(t_set=(0.5, -1.0)),
    ],
    ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
)
def test_validated_rejects(bad):
    with pytest.raises(ConfigError):
        validated(cfg(**bad))


def test_validated_boundary_values():
    validated(cfg(L=512))
    validated(cfg(threads=1024))


def load_text(tmp_path, text: str) -> RunConfig:
    """Load config ``text`` as the CLI does: from a file, by `load_config`."""
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


def test_config_file_round_trip(tmp_path):
    text = """
# comment line
[run]
metric = pnorm:3
L = 20
threads = 2

[theta]
t_lo = 0.05
t_hi = 5.0
count = 40
geometric = off

[zeta]
s_values = 1.5, 2.0 3.0

[family]
name = geomean-pnorm
parameters = 1, 2, 4
"""
    config = load_text(tmp_path, text)
    assert config.metric == "pnorm:3"
    assert config.L == 20
    assert config.threads == 2
    assert config.t_lo == 0.05 and config.t_hi == 5.0
    assert config.t_count == 40 and config.t_geometric is False
    assert config.s_values == (1.5, 2.0, 3.0)
    assert config.family == "geomean-pnorm"
    assert config.family_parameters == (1.0, 2.0, 4.0)


def test_readme_config_block_matches_schema(tmp_path):
    """The ```ini block of README's Configuration section loads with the
    package parser, equals the defaults but for its metric, and names exactly
    the sections and keys of the config schema, so the docs cannot drift."""
    import configparser

    from zetasphere.config import _SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    assert load_text(tmp_path, block) == RunConfig(metric="pnorm:3")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(block)
    documented = {name: set(parser[name]) for name in parser.sections()}
    assert documented == {name: set(keys) for name, keys in _SCHEMA.items()}


def test_config_file_rejects_unknowns(tmp_path):
    with pytest.raises(ConfigError, match="valid keys"):
        load_text(tmp_path, "[run]\nbogus = 3\n")
    with pytest.raises(ConfigError, match="valid sections"):
        load_text(tmp_path, "[runs]\nL = 8\n")
    with pytest.raises(ConfigError, match="DEFAULT"):
        load_text(tmp_path, "[DEFAULT]\nL = 8\n")
    with pytest.raises(ConfigError, match="malformed config"):
        load_text(tmp_path, "L = 8\n")  # key before any section header
    with pytest.raises(ConfigError, match=r"\[run\] L"):
        load_text(tmp_path, "[run]\nL = eight\n")
    with pytest.raises(ConfigError):
        load_text(tmp_path, "[run]\nL = 0\n")  # parses, fails validation


@pytest.mark.parametrize("section", ["run", "theta", "zeta", "family", "converge"])
def test_blank_values_load_the_defaults(tmp_path, section):
    """A blank or whitespace-only value means "use the default", for every
    key of every section; an unknown key is refused even when blank."""
    from zetasphere.config import _SCHEMA

    keys = _SCHEMA[section]
    blank = f"[{section}]\n" + "".join(f"{key} =\t\n" for key in keys)
    assert load_text(tmp_path, blank) == RunConfig()
    with pytest.raises(ConfigError, match="valid keys"):
        load_text(tmp_path, f"[{section}]\nbogus =\n")


def test_load_config_lays_flags_over_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nL = 1000\nmetric = max\n")
    assert load_config(path, L=20) == RunConfig(metric="max", L=20)
    assert load_config(L=8) == RunConfig(L=8)
    with pytest.raises(ConfigError, match="L must be"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "absent.ini")


# ---------------------------------------------------------------- serialization


def test_jsonable_float_conventions():
    payload = _jsonable(
        {
            "nan": float("nan"),
            "inf": float("inf"),
            "ninf": -float("inf"),
            "np_float": np.float64(1.5),
            "np_int": np.int64(3),
            "array": np.arange(3.0),
            "tuple": (1, 2),
        }
    )
    assert payload == {
        "nan": None,
        "inf": "inf",
        "ninf": "-inf",
        "np_float": 1.5,
        "np_int": 3,
        "array": [0.0, 1.0, 2.0],
        "tuple": [1, 2],
    }


def test_jsonable_maps_records_to_dicts():
    """A record is a tuple, but it serializes as a dict keyed by its field
    names, and a tuple of records as a list of such dicts."""
    result = ZetaResult(
        metric_id="fs", volume=4.0 * math.pi,
        zeta0=-1.0 / 3.0, zeta_prime0=0.5, error_budget=1e-6,
        method={"window": "default"},
    )
    payload = _jsonable(result)
    assert sorted(payload) == sorted(ZetaResult._fields)
    assert payload["method"] == {"window": "default"}
    points = (ZetaPoint(2.0, 1.5, 0.25), ZetaPoint(3.0, 1.125, float("nan")))
    assert _jsonable({"s_points": points}) == {"s_points": [
        {"s": 2.0, "value": 1.5, "tail_bound": 0.25},
        {"s": 3.0, "value": 1.125, "tail_bound": None},
    ]}
    config = _jsonable(cfg(L=24))
    assert config["L"] == 24 and config["s_values"] == [1.5, 2.0, 3.0]


def test_write_csv_formats_cells(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["a", "b", "c", "d"],
        [(1, 0.1, True, "x"), (2, 3.0, False, "y")],
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "1,0.10000000000000001,true,x"
    assert lines[2] == "2,3,false,y"


# ---------------------------------------------------------------- CLI commands


def test_cli_spectrum(tmp_path, cache, capsys):
    code, out, err = run_cli(
        ["spectrum", "--metric", "fs", "--L", "8"], tmp_path, cache.root, capsys
    )
    assert code == 0 and err == ""
    assert "spectrum: fs L=8 modes=81" in out
    assert "done in" in out
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 82
    assert lines[1] == "0,0"  # exact kernel eigenvalue
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_cli_spectrum_refuses_overflowing_eigenvalues(tmp_path, capsys):
    """A metric scaled to a volume near the float minimum has eigenvalues
    1 / (vol mu) beyond the float range: spectrum exits 2 naming the block
    and the metric, writes no file and stores no entry. One scaled just
    inside the range still solves, lambda1 = 1e305 to 1e-12 relative."""
    for spec in ("scaled:1e-320:fs", "scaled:1e-310:fs"):
        out_dir, cache_dir = tmp_path / spec, tmp_path / "cache"
        code, out, err = run_cli(
            ["spectrum", "--metric", spec, "--L", "4"], out_dir, cache_dir, capsys
        )
        assert code == 2 and out == "", spec
        assert f"block m = 0 of {spec!r}" in err and "overflow" in err, err
        assert not (out_dir / "spectrum.csv").exists()
        assert not list(cache_dir.glob("*.npz"))

    code, _, err = run_cli(
        ["spectrum", "--metric", "scaled:1e-305:fs", "--L", "4"],
        tmp_path / "inside", tmp_path / "cache", capsys,
    )
    assert code == 0 and err == ""
    lines = (tmp_path / "inside" / "spectrum.csv").read_text().splitlines()
    assert float(lines[2].split(",")[1]) == pytest.approx(1e305, rel=1e-12)


def test_cli_theta_with_config(tmp_path, cache, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        "[run]\nmetric = fs\nL = 8\n\n"
        "[theta]\nt_lo = 0.05\nt_hi = 5.0\ncount = 40\ngeometric = false\n"
    )
    code, out, err = run_cli(["theta", "-c", str(config_path)], tmp_path, cache.root, capsys)
    assert code == 0 and err == ""
    assert "theta: fs L=8 grid=40 [0.05, 5]" in out
    rows = (tmp_path / "theta.csv").read_text().splitlines()
    assert rows[0] == "t,theta,trunc_bound"
    assert len(rows) == 41
    t, theta, bound = np.array([[float(c) for c in r.split(",")] for r in rows[1:]]).T
    assert np.allclose(t, np.linspace(0.05, 5.0, 40), rtol=1e-15)
    assert np.all(np.diff(theta) < 0)
    # theta of the cached spectrum, and the bound n exp(-lambda_max t) on the
    # trace of the modes above the cutoff, both to the last digit written
    lam = pipeline.family_spectral_data((fs_metric(),), 8, cache=cache)[0].eigenvalues
    assert np.array_equal(theta, theta_values(lam, t))
    assert np.array_equal(bound, lam.size * np.exp(-lam[-1] * t))


def test_cli_flag_overrides_config(tmp_path, cache, capsys):
    config_path = tmp_path / "run.ini"
    config_path.write_text("[run]\nmetric = fs\nL = 10\n")
    code, out, _ = run_cli(
        ["spectrum", "-c", str(config_path), "--L", "8"], tmp_path, cache.root, capsys
    )
    assert code == 0
    assert "L=8" in out
    # flags are laid over the file before one validation, so a flag mends a
    # file value that alone would be refused
    config_path.write_text("[run]\nL = 1000\n")
    code, out, err = run_cli(
        ["spectrum", "-c", str(config_path), "--L", "4"], tmp_path, cache.root, capsys
    )
    assert code == 0 and err == ""
    assert "L=4" in out


def test_cli_zeta_schema(tmp_path, cache, capsys):
    code, out, err = run_cli(
        ["zeta", "--metric", "pnorm:3", "--L", "16"], tmp_path, cache.root, capsys
    )
    assert code == 0 and err == ""
    assert "zeta: pnorm:3 L=16 zeta_prime0=" in out
    payload = json.loads((tmp_path / "zeta.json").read_text())
    assert set(payload) == {
        "metric", "L", "n_theta", "solver_version", "volume",
        "s_points", "kernel_dim", "zeta0", "zeta_prime0",
        "error_budget", "method",
    }
    assert payload["metric"] == "pnorm:3" and payload["L"] == 16
    assert payload["kernel_dim"] == 1
    assert [p["s"] for p in payload["s_points"]] == [1.5, 2.0, 3.0]
    assert all(p["tail_bound"] >= 0.0 for p in payload["s_points"])
    assert payload["zeta0"] == -2.0 / 3.0
    method = payload["method"]
    assert set(method) == {"tau_lo", "scale", "order", "b", "zeta_prime0_parts", "budget_parts"}
    assert set(method["b"]) == {"b_minus1", "b0", "b1", "b2"}
    assert set(method["budget_parts"]) == {"law", "nested", "weyl_tail", "quadrature"}
    assert payload["error_budget"] == pytest.approx(sum(method["budget_parts"].values()))
    assert payload["error_budget"] > 0.0


def test_cli_torsion_cache_roundtrip(tmp_path, capsys, monkeypatch):
    """Cold solve and warm cache hit produce byte-identical files.

    The warm run must be a pure cache hit: it may neither build a mass
    block nor solve a pencil.
    """
    cache_dir = tmp_path / "cache"
    args = ["torsion", "--metric", "pnorm:5", "--L", "20"]

    code, out, _ = run_cli(args, tmp_path / "cold", cache_dir, capsys)
    assert code == 0
    assert "log_quillen=" in out

    def no_solve(*args, **kwargs):
        raise AssertionError("warm run built a mass block or solved a pencil")

    solvers = ("family_eigvals", "masses")
    for name in solvers:
        monkeypatch.setattr(pipeline, name, no_solve)
    code, _, _ = run_cli(args, tmp_path / "warm", cache_dir, capsys)
    assert code == 0

    for name in ("zeta.json", "quillen.json"):
        cold_bytes = (tmp_path / "cold" / name).read_bytes()
        warm_bytes = (tmp_path / "warm" / name).read_bytes()
        assert cold_bytes == warm_bytes, name
    quillen = json.loads((tmp_path / "cold" / "quillen.json").read_text())
    assert set(quillen) == {
        "metric", "vol", "log_l2", "zeta_prime0", "log_quillen", "error_budget",
    }


def test_cli_spectrum_rewrites_empty_cache_entry(tmp_path, capsys):
    """A zero-length cache entry is a miss: spectrum recomputes the metric,
    writes the same file, and stores the entry again."""
    cache_dir = tmp_path / "cache"
    args = ["spectrum", "--metric", "pnorm:3", "--L", "8"]
    code, _, _ = run_cli(args, tmp_path / "first", cache_dir, capsys)
    assert code == 0
    (entry,) = cache_dir.glob("*.npz")
    good = entry.read_bytes()
    entry.write_bytes(b"")

    code, _, err = run_cli(args, tmp_path / "again", cache_dir, capsys)
    assert code == 0 and err == ""
    assert entry.read_bytes() == good
    first = (tmp_path / "first" / "spectrum.csv").read_bytes()
    assert (tmp_path / "again" / "spectrum.csv").read_bytes() == first


def test_cli_zeta_repeat_byte_identical(tmp_path, cache, capsys):
    args = ["zeta", "--metric", "pnorm:3", "--L", "16"]
    code, _, _ = run_cli(args, tmp_path / "a", cache.root, capsys)
    assert code == 0
    code, _, _ = run_cli(args, tmp_path / "b", cache.root, capsys)
    assert code == 0
    assert (tmp_path / "a" / "zeta.json").read_bytes() == (
        tmp_path / "b" / "zeta.json"
    ).read_bytes()


def test_cli_anomaly(tmp_path, cache, capsys):
    config_path = tmp_path / "fam.ini"
    config_path.write_text("[run]\nL = 16\n\n[family]\nname = pnorm\nparameters = 1, 2, 3\n")
    code, out, err = run_cli(["anomaly", "-c", str(config_path)], tmp_path, cache.root, capsys)
    assert code == 0 and err == ""
    assert out.count("anomaly ok:") == 2
    assert "anomaly ok: (pnorm:1, pnorm:2)" in out
    payload = json.loads((tmp_path / "anomaly.json").read_text())
    assert set(payload) == {"family", "L", "pairs", "passed"}
    assert payload["passed"] is True
    assert payload["family"] == "pnorm"
    assert len(payload["pairs"]) == 2
    for pair in payload["pairs"]:
        assert pair["passed"] is True
        assert pair["gap"] <= pair["tolerance"]


@pytest.mark.parametrize("command", ["converge", "anomaly"])
@pytest.mark.parametrize("family", ["frobenius", "fs", "scaled:{p}:fs", "pnorm:{q}", "pnorm:{p-1}"])
def test_bad_family_is_refused_before_solving(family, command, tmp_path, solved, capsys):
    """The config checks no family template, as it checks no metric spec;
    the two commands that build the family refuse a name that is neither a
    family name nor a template whose only fields are pnorm:{p} or
    pnorm:{p+k}, with exit 2 and a message naming it, before any pencil is
    solved."""
    assert validated(cfg(family=family)).family == family
    config_path = tmp_path / "fam.ini"
    config_path.write_text(f"[run]\nL = 16\n\n[family]\nname = {family}\n")
    code, _, err = run_cli([command, "-c", str(config_path)], tmp_path / "out",
                           tmp_path / "cache", capsys)
    assert code == 2
    assert f"family {family!r}" in err
    assert solved == []
    assert not (tmp_path / "out").exists()


def test_converge_checks_the_pairs_anomaly_checks(tmp_path, cache, capsys):
    """At L = 16 on the pnorm family, summary.json's two-route records are
    anomaly.json's pairs: one rule for every consecutive pair. anomaly
    solves for eigenvalues alone and converge with eigenvectors, so the
    numbers agree to roundoff, not bitwise: the fit's error budgets differ
    most, by 1.6e-10 relative."""
    code, _, _ = run_cli(["anomaly", "--L", "16"], tmp_path / "a", cache.root, capsys)
    assert code == 0
    code, _, _ = run_cli(["converge", "--L", "16"], tmp_path / "c", cache.root, capsys)
    assert code == 0
    pairs = json.loads((tmp_path / "a" / "anomaly.json").read_text())["pairs"]
    detail = json.loads((tmp_path / "c" / "summary.json").read_text())["detail"]
    assert "two_route_gap" not in detail and "two_route_tolerance" not in detail
    assert len(pairs) == 5 and len(detail["two_route"]) == 5
    for got, want in zip(detail["two_route"], pairs):
        assert set(got) == set(want)
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-13), key
            else:
                assert got[key] == value, key


def test_cli_anomaly_failure_writes_summary(tmp_path, cache, capsys, monkeypatch):
    """A pair whose routes disagree ends anomaly with exit code 3, names the
    tag on stderr and writes the one-tag summary.json."""
    real = anomaly.bott_chern_integral

    def shifted(metric_p, metric_q):
        return real(metric_p, metric_q) + (1.0 if metric_p.id == "pnorm:2" else 0.0)

    monkeypatch.setattr(anomaly, "bott_chern_integral", shifted)
    code, out, err = run_cli(["anomaly", "--L", "16"], tmp_path, cache.root, capsys)
    assert code == 3
    assert "compare2methods" in err
    assert "anomaly FAIL: (pnorm:2, pnorm:3)" in out
    assert json.loads((tmp_path / "summary.json").read_text()) == {
        "tags": {"compare2methods": False}, "passed": False, "failed": ["compare2methods"],
    }


def test_cli_anomaly_partly_warm_cache(tmp_path, monkeypatch, capsys):
    """With pnorm:2 and pnorm:5 cached, anomaly loads those two and solves
    the other four members in one family solve, storing each under its own
    key; anomaly.json is byte-identical to a cold run's."""
    code, _, _ = run_cli(["anomaly", "--L", "16"], tmp_path / "cold", tmp_path / "cold-cache",
                         capsys)
    assert code == 0
    warm = SpectrumCache(tmp_path / "warm-cache")
    for p in (2.0, 5.0):
        pipeline.family_spectral_data((pnorm_metric(p),), 16, cache=warm)

    families, stored, hits = [], [], []
    real_solve = eigensolve._solve_stacks
    real_store, real_load = SpectrumCache.store, SpectrumCache.load

    def solve(stacks, L, metric_ids, reduce):
        families.append(tuple(metric_ids))
        return real_solve(stacks, L, metric_ids, reduce)

    def store(self, spectrum):
        stored.append((spectrum.metric_id, spectrum.L))
        return real_store(self, spectrum)

    def load(self, metric_id, L):
        entry = real_load(self, metric_id, L)
        if entry is not None:
            hits.append((metric_id, L))
        return entry

    monkeypatch.setattr(eigensolve, "_solve_stacks", solve)
    monkeypatch.setattr(SpectrumCache, "store", store)
    monkeypatch.setattr(SpectrumCache, "load", load)
    code, _, _ = run_cli(["anomaly", "--L", "16"], tmp_path / "warm", warm.root, capsys)
    assert code == 0

    assert families == [("pnorm:1", "pnorm:3", "pnorm:4", "pnorm:6")]
    assert stored == [(f"pnorm:{p}", 16) for p in (1, 3, 4, 6)]
    assert hits == [("pnorm:2", 16), ("pnorm:5", 16)]
    assert len(list(warm.root.glob("*.npz"))) == 6
    cold = (tmp_path / "cold" / "anomaly.json").read_bytes()
    assert (tmp_path / "warm" / "anomaly.json").read_bytes() == cold


def test_cli_converge(tmp_path, capsys):
    """converge passes every tag, leaves its cache directory empty, and two
    runs write byte-identical files."""
    config_path = tmp_path / "fam.ini"
    config_path.write_text(
        "[run]\nL = 16\n\n[family]\nname = pnorm\nparameters = 1, 2, 3, 4\n"
    )
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    out_dir = tmp_path / "first"
    code, out, err = run_cli(["converge", "-c", str(config_path)], out_dir, cache_dir, capsys)
    assert code == 0 and err == ""
    for tag in THEOREM_TAGS:
        assert f"converge ok   {tag}" in out
    assert "converge FAIL" not in out

    rows = (out_dir / "converge.csv").read_text().splitlines()
    assert rows[0] == (
        "param,vol,lambda1,theta_t0.5,theta_t1,theta_t2,"
        "zeta_prime0,log_quillen,sup_log_dist_to_limit"
    )
    assert len(rows) == 5
    assert [float(r.split(",")[0]) for r in rows[1:]] == [1.0, 2.0, 3.0, 4.0]

    quillen_rows = (out_dir / "converge_quillen.csv").read_text().splitlines()
    assert quillen_rows[0] == "p,vol,zeta_prime0,log_quillen,prediction,budget"
    cells = [[float(c) for c in r.split(",")] for r in quillen_rows[1:]]
    assert [c[0] for c in cells] == [1.0, 2.0, 3.0, 4.0, math.inf]
    # the intervals prediction +- budget share a point
    assert max(c[4] - c[5] for c in cells) <= min(c[4] + c[5] for c in cells)

    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["tags"]) == set(THEOREM_TAGS)
    assert all(summary["tags"].values())
    assert summary["passed"] is True and summary["failed"] == []
    assert "sweep_failures" not in summary["detail"]
    assert summary["detail"]["floor"]["margin"] > 0.0

    assert list(cache_dir.iterdir()) == []
    code, _, _ = run_cli(["converge", "-c", str(config_path)], tmp_path / "second", cache_dir, capsys)
    assert code == 0
    for name in ("converge.csv", "converge_quillen.csv", "summary.json"):
        assert (out_dir / name).read_bytes() == (tmp_path / "second" / name).read_bytes(), name
    assert list(cache_dir.iterdir()) == []


def test_cli_selftest(tmp_path, cache, capsys):
    code, out, err = run_cli(["selftest"], tmp_path, cache.root, capsys)
    assert code == 0 and err == ""
    assert "selftest: 14 checks ok" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True and summary["failed"] == []
    module_checks = {"quadrature", "round_spectrum", "operators", "heatzeta",
                     "determinism", "cache"}
    assert set(summary["tags"]) == module_checks | set(THEOREM_TAGS)


# ---------------------------------------------------------------- failure exits


def test_cli_bad_metric_spec(tmp_path, cache, capsys):
    code, _, err = run_cli(
        ["spectrum", "--metric", "nope:xyz", "--L", "8"], tmp_path, cache.root, capsys
    )
    assert code == 2
    assert err.startswith("error:")
    assert "unknown metric spec" in err


@pytest.mark.parametrize(
    "spec",
    ["interp:inf:pnorm", "interp:-inf:pnorm", "interp:nan:pnorm", "interp:1e9:pnorm",
     "interp:1e9:geomean-pnorm", "pnorm:inf", "pnorm:nan", "scaled:inf:fs"],
)
def test_cli_nonfinite_or_huge_spec_numbers(tmp_path, cache, capsys, spec):
    """Non-finite numbers and an interp u above the cap exit 2 with a message."""
    code, out, err = run_cli(
        ["spectrum", "--metric", spec, "--L", "4"], tmp_path, cache.root, capsys
    )
    assert code == 2
    assert err.startswith("error:") and spec in err
    assert "Traceback" not in out + err


def test_cli_deeply_nested_scaled_spec(tmp_path, cache, capsys):
    """1200 stacked scaled: prefixes exit 2 with a message, not a RecursionError."""
    spec = "scaled:1:" * 1200 + "fs"
    code, out, err = run_cli(
        ["spectrum", "--metric", spec, "--L", "4"], tmp_path, cache.root, capsys
    )
    assert code == 2
    assert err.startswith("error:") and "nested scaled" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("spec", ["scaled:1e308:pnorm:3", "scaled:1e308:fs", "scaled:1e308:max"])
def test_cli_overflowing_density_is_one_refusal(tmp_path, cache, capsys, spec):
    """A density ratio that overflows a double exits 2 with one error line;
    no numpy overflow warning comes first (and none raises under pytest's
    error filter for RuntimeWarning)."""
    code, out, err = run_cli(
        ["spectrum", "--metric", spec, "--L", "8"], tmp_path, cache.root, capsys
    )
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: InvalidMetricError: ")


def test_cli_bad_config_key(tmp_path, cache, capsys):
    """Unknown keys exit 2 naming the key; the removed n_phi is one of them."""
    config_path = tmp_path / "bad.ini"
    for key in ("bogus", "n_phi"):
        config_path.write_text(f"[run]\n{key} = 40\n")
        code, out, err = run_cli(
            ["spectrum", "-c", str(config_path)], tmp_path, cache.root, capsys
        )
        assert code == 2
        assert f"unknown key '{key}'" in err
        assert "Traceback" not in out + err


def test_cli_missing_config_file(tmp_path, cache, capsys):
    code, _, err = run_cli(
        ["spectrum", "-c", str(tmp_path / "absent.ini")], tmp_path, cache.root, capsys
    )
    assert code == 2
    assert "cannot read config file" in err


def test_cli_config_file_not_utf8(tmp_path, cache, capsys):
    """A config file whose bytes are not UTF-8 exits 2 with the unreadable-file
    message, never a UnicodeDecodeError traceback."""
    config_path = tmp_path / "bad.ini"
    config_path.write_bytes(b"[run]\nmetric = \xff\xfe\n")
    code, out, err = run_cli(["spectrum", "-c", str(config_path)], tmp_path, cache.root, capsys)
    assert code == 2
    assert "cannot read config file" in err
    assert "Traceback" not in out + err


def test_cli_extreme_scale_factor_exits_2(tmp_path, cache, capsys):
    """A scale whose zeta(2) overflows a double is a DomainError, not an inf
    in zeta.json or a numpy traceback."""
    code, _, err = run_cli(
        ["torsion", "--metric", "scaled:1e200:fs", "--L", "16"], tmp_path, cache.root, capsys
    )
    assert code == 2
    assert "DomainError" in err and "zeta(2) of this spectrum overflows" in err
    assert "Traceback" not in err
    assert not (tmp_path / "zeta.json").exists()


def test_cli_scaled_metrics_obey_rescaling_law(tmp_path, cache, capsys):
    """torsion fits a metric scaled by c in its window's time scale: at
    c = 1e-6, 1e40 and 1e-100 it succeeds, and zeta'(0) moves from the
    unscaled metric's by zeta(0) log c."""

    def zeta(spec):
        out = tmp_path / spec
        code, _, err = run_cli(["torsion", "--metric", spec, "--L", "32"], out, cache.root, capsys)
        assert code == 0, err
        return json.loads((out / "zeta.json").read_text())

    base = zeta("fs")
    for c in ("1e-06", "1e40", "1e-100"):
        scaled = zeta(f"scaled:{c}:fs")
        law = base["zeta_prime0"] + base["zeta0"] * math.log(float(c))
        assert abs(scaled["zeta_prime0"] - law) <= 1e-10, c


# ---------------------------------------------------------------- cache location


def test_cache_env_var(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "envcache"
    monkeypatch.setenv("ZETASPHERE_CACHE", str(env_dir))
    assert SpectrumCache().root == env_dir
    code = main(["spectrum", "--metric", "fs", "--L", "8",
                 "--output-dir", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0
    assert list(env_dir.glob("*.npz"))

    monkeypatch.delenv("ZETASPHERE_CACHE")
    home_default = SpectrumCache().root
    assert home_default.name == "zetasphere"
    assert home_default.parent.name == ".cache"


def test_cli_rejects_bad_flag_values(tmp_path, cache, capsys):
    code, _, err = run_cli(["spectrum", "--L", "0"], tmp_path, cache.root, capsys)
    assert code == 2
    assert "L must be in" in err
    code, _, err = run_cli(["spectrum", "--threads", "-2"], tmp_path, cache.root, capsys)
    assert code == 2
    assert "threads must be in" in err
    # the colatitude rule and the fit window are the method's own, not keys
    config_path = tmp_path / "method.ini"
    for text, message in (
        ("[run]\nn_theta = 36\n", "unknown key 'n_theta' in section [run]"),
        ("[fit]\ntrunc_tol = 1e-8\n", "unknown section 'fit'"),
    ):
        config_path.write_text(text)
        code, out, err = run_cli(["spectrum", "-c", str(config_path)], tmp_path, cache.root, capsys)
        assert code == 2, text
        assert message in err, text
        assert "Traceback" not in out + err


# ---------------------------------------------------------------- scale and threads


# The child's own peak is VmHWM of its address space. ru_maxrss can report
# the test process instead: Linux folds the peak of the address space that
# exec replaces into it, and subprocess may vfork from the test process.
_RSS_PROBE = """
import sys
from zetasphere.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print("maxrss_kb", hwm)
sys.exit(code)
"""


def _torsion_peak_kb(tmp_path, L):
    """Peak RSS in KB of a cold ``torsion --metric pnorm:3 --L L`` process."""
    result = run_python(
        _RSS_PROBE, "torsion", "--metric", "pnorm:3", "--L", str(L),
        "--output-dir", "out", "--cache-dir", "cache", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "out" / "quillen.json").read_text())["metric"] == "pnorm:3"
    return int(result.stdout.split("maxrss_kb")[-1])


def test_torsion_runs_at_L128(tmp_path):
    """L = 128 runs in under 58 MB, about 1.5 times the measured 38.6 MB."""
    maxrss_kb = _torsion_peak_kb(tmp_path, 128)
    assert maxrss_kb < 58 * 1024, f"peak RSS {maxrss_kb / 1024:.0f} MB"


def test_torsion_runs_at_L256(tmp_path):
    """L = 256 runs in under 70 MB, about 1.5 times the measured 46.4 MB: the
    scalar solve keeps one mass block at a time. Keeping every block and
    its eigenvectors (the vectors path) peaks at 127 MB, and the packed
    Legendre table of the earlier solver at 341 MB, so neither can come back
    unnoticed."""
    maxrss_kb = _torsion_peak_kb(tmp_path, 256)
    assert maxrss_kb < 70 * 1024, f"peak RSS {maxrss_kb / 1024:.0f} MB"


def test_converge_runs_at_L64(tmp_path):
    """converge at L = 64 passes every tag in under 90 MB, about 1.5 times
    the measured 59 MB."""
    result = run_python(
        _RSS_PROBE, "converge", "--L", "64",
        "--output-dir", "out", "--cache-dir", "cache", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    maxrss_kb = int(result.stdout.split("maxrss_kb")[-1])
    assert maxrss_kb < 90 * 1024, f"peak RSS {maxrss_kb / 1024:.0f} MB"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["L"] == 64
    assert summary["tags"] == {tag: True for tag in THEOREM_TAGS}


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    """The CLI sets the thread variables before anything loads a BLAS."""
    result = run_python(
        "import sys, zetasphere.cli; print(int('numpy' in sys.modules))", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


_NO_SCIPY_PROBE = """
import sys
import zetasphere.anomaly, zetasphere.harness, zetasphere.pipeline
assert "scipy" not in sys.modules, "importing the pipeline loaded scipy"
from zetasphere.cli import main
for command in ("torsion", "anomaly", "converge", "selftest"):
    args = [command, "--L", "16", "--output-dir", command, "--cache-dir", "cache"]
    assert main(args) == 0, command
    assert "scipy" not in sys.modules, f"{command} loaded scipy"
    assert "numpy.random" not in sys.modules, f"{command} loaded numpy.random"
print("ok")
"""


def test_cli_runs_never_load_scipy(tmp_path):
    """Every subcommand, selftest included, runs on numpy alone and never
    loads numpy.random."""
    result = run_python(_NO_SCIPY_PROBE, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-1] == "ok"


needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")

_THREADS_PROBE = """
import json, os, sys
from zetasphere.cli import _THREAD_VARS, main
assert main(sys.argv[1:]) == 0
import numpy, scipy.linalg
with open("/proc/self/status") as status:
    threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
print(json.dumps({"Threads": threads, **{var: os.environ.get(var) for var in _THREAD_VARS}}))
"""


def _threads_probe(tmp_path, *flags):
    """Run ``spectrum --L 8`` with ``flags`` in a child started with no thread
    variable set; return its closing line and the probe's report."""
    result = run_python(
        _THREADS_PROBE, "spectrum", "--metric", "fs", "--L", "8", *flags,
        "--output-dir", "out", "--cache-dir", "cache", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    return lines[-2], json.loads(lines[-1])


@needs_proc
def test_threads_flag_pins_blas(tmp_path):
    done, report = _threads_probe(tmp_path, "--threads", "1")
    assert report["Threads"] == "1"
    assert done.endswith("(threads=1)")


@needs_proc
def test_threads_default_is_one(tmp_path):
    """With no --threads the CLI pins every BLAS library to one thread."""
    done, report = _threads_probe(tmp_path)
    assert report["Threads"] == "1"
    assert all(report[var] == "1" for var in _THREAD_VARS)
    assert done.endswith("(threads=1)")


@needs_proc
def test_threads_zero_leaves_environment(tmp_path):
    """--threads 0 writes no thread variable: the library default stands."""
    done, report = _threads_probe(tmp_path, "--threads", "0")
    assert all(report[var] is None for var in _THREAD_VARS)
    assert done.endswith("(threads=library default)")


@needs_proc
def test_threads_n_pins_every_variable(tmp_path):
    done, report = _threads_probe(tmp_path, "--threads", "2")
    assert all(report[var] == "2" for var in _THREAD_VARS)
    assert done.endswith("(threads=2)")


def test_package_names_still_resolve():
    from zetasphere import IndefiniteMassError, fs_metric, parse_metric_spec

    assert fs_metric().id == "fs"
    assert parse_metric_spec("pnorm:3").id == "pnorm:3"
    assert issubclass(IndefiniteMassError, zetasphere.ZetasphereError)
    with pytest.raises(AttributeError):
        zetasphere.no_such_name
