"""Run configuration: flat ``key = value`` text with ``[section]`` headers.

The format is plain INI (no interpolation, ``#``/``;`` comments) so configs
diff cleanly and parse with the standard library alone. Unknown sections and
unknown keys are rejected, not ignored; a typo must fail loudly. Values left
blank mean "use the default", which for the colatitude node count and fit
window is a metric- or degree-dependent choice made downstream.

Sections and keys::

    [run]      metric, L, n_theta, output_dir, cache_dir, threads
    [theta]    t_lo, t_hi, count, geometric
    [fit]      window_lo, window_hi, trunc_tol
    [zeta]     s_values
    [family]   name, parameters
    [converge] t_set

``L`` is at most 512. ``n_theta`` is at least 2L + 2 and at most 2052, twice
that minimum at the largest L, which bounds the mass assembly, whose work
grows linearly in n_theta. The Gauss-Legendre rule is Newton on the Legendre
recurrence, O(n_theta^2) time and O(n_theta) memory: about 40 ms and under
1 MB at 2052 nodes, where numpy's companion-matrix ``leggauss`` took 1.1 s
and 68 MB. The scalar solve keeps one mass block and one block of Legendre
rows at a time, so its memory stays small at any L up to the cap. The basis
Gram is exact from L + 1 nodes per panel; the minimum 2L + 2 is accuracy
margin for the metric density, which is no polynomial.

``threads`` defaults to 1: every operator is radial, so the largest dense
matrix BLAS sees is one azimuthal block, at most 513 wide at L = 512, and a
second BLAS thread only spins. The CLI writes ``threads`` into
``OMP/OPENBLAS/MKL/NUMEXPR_NUM_THREADS``, overriding any exported value;
``threads = 0`` leaves the environment, and so the library default, alone.

This module stays import-light (no numpy) so the CLI can fix the thread
environment before any linear algebra loads, and ``configparser`` loads
only when a config is parsed, so a flag-only command never pays for it.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "load_config", "validated"]

_MAX_L = 512
_MAX_N_THETA = 2 * (2 * _MAX_L + 2)
_MAX_THREADS = 1024
_FAMILY_NAMES = ("pnorm", "geomean-pnorm")


class RunConfig(NamedTuple):
    """All run parameters; every field has a working default."""

    metric: str = "fs"
    L: int = 16
    n_theta: int | None = None
    output_dir: str = "out"
    cache_dir: str | None = None
    threads: int = 1
    t_lo: float = 0.01
    t_hi: float = 10.0
    t_count: int = 120
    t_geometric: bool = True
    window_lo: float | None = None
    window_hi: float | None = None
    trunc_tol: float = 1e-8
    s_values: tuple[float, ...] = (1.5, 2.0, 3.0)
    family: str = "pnorm"
    family_parameters: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    t_set: tuple[float, ...] = (0.5, 1.0, 2.0)

    @property
    def fit_window(self) -> tuple[float, float] | None:
        """Explicit fit window, or None for the metric-scaled default."""
        if self.window_lo is None and self.window_hi is None:
            return None
        return (self.window_lo, self.window_hi)  # validated as a pair


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as e:
        raise ConfigError(f"expected an integer, got {raw!r}") from e


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as e:
        raise ConfigError(f"expected a number, got {raw!r}") from e
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected true/false, got {raw!r}")


def _parse_floats(raw: str) -> tuple[float, ...]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError("expected a comma-separated list of numbers, got nothing")
    return tuple(_parse_float(p) for p in parts)


def _optional(parser):
    def parse(raw: str):
        return None if raw.strip() == "" else parser(raw)

    return parse


def _parse_str(raw: str) -> str:
    value = raw.strip()
    if not value:
        raise ConfigError("expected a nonempty value")
    return value


# section -> key -> (RunConfig attribute, parser)
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {
        "metric": ("metric", _parse_str),
        "L": ("L", _parse_int),
        "n_theta": ("n_theta", _optional(_parse_int)),
        "output_dir": ("output_dir", _parse_str),
        "cache_dir": ("cache_dir", _optional(_parse_str)),
        "threads": ("threads", _parse_int),
    },
    "theta": {
        "t_lo": ("t_lo", _parse_float),
        "t_hi": ("t_hi", _parse_float),
        "count": ("t_count", _parse_int),
        "geometric": ("t_geometric", _parse_bool),
    },
    "fit": {
        "window_lo": ("window_lo", _optional(_parse_float)),
        "window_hi": ("window_hi", _optional(_parse_float)),
        "trunc_tol": ("trunc_tol", _parse_float),
    },
    "zeta": {
        "s_values": ("s_values", _parse_floats),
    },
    "family": {
        "name": ("family", _parse_str),
        "parameters": ("family_parameters", _parse_floats),
    },
    "converge": {
        "t_set": ("t_set", _parse_floats),
    },
}


def validated(config: RunConfig) -> RunConfig:
    """Return the config if every field is in its documented range.

    The metric spec string is validated downstream where the metric is
    built; everything numeric is checked here.
    """
    if not (1 <= config.L <= _MAX_L):
        raise ConfigError(f"L must be in [1, {_MAX_L}], got {config.L}")
    minimum = 2 * config.L + 2
    if config.n_theta is not None and config.n_theta < minimum:
        raise ConfigError(
            f"n_theta = {config.n_theta} is below the minimum 2L + 2 = {minimum} "
            f"for L = {config.L}"
        )
    if config.n_theta is not None and config.n_theta > _MAX_N_THETA:
        raise ConfigError(f"n_theta must be at most {_MAX_N_THETA}, got {config.n_theta}")
    if not (0 <= config.threads <= _MAX_THREADS):
        raise ConfigError(f"threads must be in [0, {_MAX_THREADS}], got {config.threads}")
    if not (config.t_lo > 0.0 and config.t_hi > config.t_lo):
        raise ConfigError(
            f"theta grid needs 0 < t_lo < t_hi, got ({config.t_lo}, {config.t_hi})"
        )
    if not (2 <= config.t_count <= 100000):
        raise ConfigError(f"theta grid count must be in [2, 100000], got {config.t_count}")
    if (config.window_lo is None) != (config.window_hi is None):
        raise ConfigError("window_lo and window_hi must be set together or both left blank")
    if config.window_lo is not None and not (0.0 < config.window_lo < config.window_hi):
        raise ConfigError(
            f"fit window needs 0 < window_lo < window_hi, got "
            f"({config.window_lo}, {config.window_hi})"
        )
    if not (0.0 < config.trunc_tol <= 1e-2):
        raise ConfigError(f"trunc_tol must be in (0, 1e-2], got {config.trunc_tol}")
    if not config.s_values or any(s <= 1.0 for s in config.s_values):
        raise ConfigError(f"s_values must all exceed 1, got {config.s_values}")
    if config.family not in _FAMILY_NAMES:
        raise ConfigError(
            f"family name must be one of {_FAMILY_NAMES}, got {config.family!r}"
        )
    params = config.family_parameters
    if len(params) < 2 or any(p < 1.0 for p in params):
        raise ConfigError(
            f"family parameters need at least two values, all >= 1, got {params}"
        )
    if any(b <= a for a, b in zip(params, params[1:])):
        raise ConfigError(f"family parameters must be strictly ascending, got {params}")
    if not config.t_set or any(t <= 0.0 for t in config.t_set):
        raise ConfigError(f"t_set must be positive times, got {config.t_set}")
    return config


def _values(text: str) -> dict[str, object]:
    """Parse config text into ``RunConfig`` field values, not yet validated."""
    import configparser  # loaded only when a config is given, not per command

    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#", ";")
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from e
    if parser.defaults():
        raise ConfigError("unknown section 'DEFAULT'; valid sections: "
                          + ", ".join(sorted(_SCHEMA)))

    updates: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section {section!r}; valid sections: "
                + ", ".join(sorted(_SCHEMA))
            )
        keys = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; valid keys: "
                    + ", ".join(sorted(keys))
                )
            attr, value_parser = keys[key]
            try:
                updates[attr] = value_parser(raw)
            except ConfigError as e:
                raise ConfigError(f"[{section}] {key}: {e}") from e
    return updates


def _file_values(path: str | Path) -> dict[str, object]:
    """Read a config file into ``RunConfig`` field values, not yet validated.

    The CLI lays its flags over these before it validates, so a flag such as
    ``--L`` is what a file value like ``n_theta`` is checked against.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return _values(text)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse config text over ``base`` (package defaults when omitted)."""
    return validated((base if base is not None else RunConfig())._replace(**_values(text)))


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    """Read and parse a config file."""
    return validated((base if base is not None else RunConfig())._replace(**_file_values(path)))
