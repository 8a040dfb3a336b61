"""Run configuration: flat ``key = value`` text with ``[section]`` headers.

The format is plain INI (no interpolation, ``#``/``;`` comments) so configs
diff cleanly and parse with the standard library alone. Unknown sections and
unknown keys are rejected, not ignored; a typo must fail loudly. A blank
value means "use the default". The config says what to compute; how (the
2L + 2 colatitude rule, the rung ladder of zeta'(0), the 256-node jet rule)
is the method's own choice, made downstream.

Sections and keys::

    [run]      metric, L, output_dir, cache_dir, threads
    [theta]    t_lo, t_hi, count, geometric
    [zeta]     s_values
    [family]   name (a `metrics.metric_family` template), parameters
    [converge] t_set

``L`` is at most 512. The scalar solve keeps one mass block and one block of
Legendre rows at a time, so its memory stays small at any L up to the cap.

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

__all__ = ["RunConfig", "load_config"]

_MAX_L = 512
_MAX_THREADS = 1024


class RunConfig(NamedTuple):
    """All run parameters; every field has a working default."""

    metric: str = "fs"
    L: int = 16
    output_dir: str = "out"
    cache_dir: str | None = None
    threads: int = 1
    t_lo: float = 0.01
    t_hi: float = 10.0
    t_count: int = 120
    t_geometric: bool = True
    s_values: tuple[float, ...] = (1.5, 2.0, 3.0)
    family: str = "pnorm"
    family_parameters: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    t_set: tuple[float, ...] = (0.5, 1.0, 2.0)


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


# section -> key -> (RunConfig attribute, parser)
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {
        "metric": ("metric", str.strip),
        "L": ("L", _parse_int),
        "output_dir": ("output_dir", str.strip),
        "cache_dir": ("cache_dir", str.strip),
        "threads": ("threads", _parse_int),
    },
    "theta": {
        "t_lo": ("t_lo", _parse_float),
        "t_hi": ("t_hi", _parse_float),
        "count": ("t_count", _parse_int),
        "geometric": ("t_geometric", _parse_bool),
    },
    "zeta": {
        "s_values": ("s_values", _parse_floats),
    },
    "family": {
        "name": ("family", str.strip),
        "parameters": ("family_parameters", _parse_floats),
    },
    "converge": {
        "t_set": ("t_set", _parse_floats),
    },
}


def validated(config: RunConfig) -> RunConfig:
    """Return the config if every field is in its documented range.

    The metric spec and the family template are validated downstream,
    where they are built; everything numeric is checked here.
    """
    if not (1 <= config.L <= _MAX_L):
        raise ConfigError(f"L must be in [1, {_MAX_L}], got {config.L}")
    if not (0 <= config.threads <= _MAX_THREADS):
        raise ConfigError(f"threads must be in [0, {_MAX_THREADS}], got {config.threads}")
    if not (config.t_lo > 0.0 and config.t_hi > config.t_lo):
        raise ConfigError(
            f"theta grid needs 0 < t_lo < t_hi, got ({config.t_lo}, {config.t_hi})"
        )
    if not (2 <= config.t_count <= 100000):
        raise ConfigError(f"theta grid count must be in [2, 100000], got {config.t_count}")
    if not config.s_values or any(s <= 1.0 for s in config.s_values):
        raise ConfigError(f"s_values must all exceed 1, got {config.s_values}")
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
            if not raw.strip():
                continue  # a blank value means "use the default"
            attr, value_parser = keys[key]
            try:
                updates[attr] = value_parser(raw)
            except ConfigError as e:
                raise ConfigError(f"[{section}] {key}: {e}") from e
    return updates


def load_config(path: str | Path | None = None, **flags) -> RunConfig:
    """The config file at ``path`` (if given) with the ``RunConfig`` field
    values ``flags`` laid over it, validated once: a flag may mend a file
    value that alone would be refused."""
    values: dict[str, object] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        values = _values(text)
    return validated(RunConfig(**{**values, **flags}))
