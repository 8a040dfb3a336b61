"""Property tests of the two text inputs: metric specs and INI configs.

Every input string either parses or raises ConfigError, which the CLI turns
into exit 2 with a message; no other exception may escape. The generators
mix well-formed pieces (spec prefixes, geomean pairs, section names,
schema keys) with numbers in every spelling float() accepts or rejects
(nan, inf, overflow, underscores, blanks) and with arbitrary text; a
config text is written to a file and loaded by `load_config`, as the CLI
loads it. Example counts are fixed and the search is derandomized, so a
run is repeatable.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasphere.config import RunConfig, load_config
from zetasphere.errors import ConfigError
from zetasphere.metrics import MAX_INTERP_U, ConformalMetric, parse_metric_spec

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=-4.0, max_value=2.0 * MAX_INTERP_U).map(repr),
    st.integers(min_value=-10, max_value=300).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "1e9", "1_0", " 3 ", "", "0x10", "2.5"]),
    st.text(max_size=6),
)

leaf_specs = st.one_of(
    st.sampled_from(["fs", "max", " fs ", "pnorm", "interp:2.5", ""]),
    st.builds("pnorm:{}".format, numbers),
    st.builds(
        "interp:{}:{}".format,
        numbers,
        st.sampled_from(["pnorm", "geomean-pnorm", "bogus", ""]),
    ),
    st.text(max_size=12),
)

specs = st.recursive(
    leaf_specs,
    lambda inner: st.one_of(
        st.builds("scaled:{}:{}".format, numbers, inner),
        st.builds("geomean({},{})".format, inner, inner),
    ),
    max_leaves=3,
)


@PROPERTY_SETTINGS
@given(specs)
@example("interp:inf:pnorm")
@example("interp:nan:geomean-pnorm")
@example("scaled:2:interp:1e9:pnorm")
@example("pnorm:1e308")
def test_metric_spec_parses_or_raises_config_error(spec):
    try:
        metric = parse_metric_spec(spec)
    except ConfigError:
        return
    assert isinstance(metric, ConformalMetric)
    again = parse_metric_spec(metric.id)
    assert again.id == metric.id
    # the id carries the exact parameters, so it names the same metric
    r = np.array([0.0, 0.3, 0.7, 1.0, 1.4, 5.0])
    np.testing.assert_array_equal(again.log_density(r), metric.log_density(r))


_SCHEMA_KEYS = {
    "run": ["metric", "L", "output_dir", "cache_dir", "threads"],
    "theta": ["t_lo", "t_hi", "count", "geometric"],
    "zeta": ["s_values"],
    "family": ["name", "parameters"],
    "converge": ["t_set"],
}

values = st.one_of(
    numbers,
    st.lists(numbers, max_size=4).map(", ".join),
    st.sampled_from(["true", "no", "pnorm", "geomean-pnorm", "pnorm:3", "out"]),
)


@st.composite
def ini_texts(draw):
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        section = draw(st.sampled_from([*_SCHEMA_KEYS, "DEFAULT", "bogus"]))
        lines.append(f"[{section}]")
        known = _SCHEMA_KEYS.get(section, ["L"])
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            key = draw(st.one_of(st.sampled_from(known), st.text(max_size=5)))
            lines.append(f"{key} = {draw(values)}")
    return "\n".join(lines)


@PROPERTY_SETTINGS
@given(st.one_of(ini_texts(), st.text(max_size=40)))
@example("[zeta]\ns_values = 2, nan")
@example("[converge]\nt_set = 0.5, inf")
@example("[family]\nparameters = 1, 2, nan")
def test_ini_parses_or_raises_config_error(text):
    try:
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "run.ini"
            path.write_text(text, encoding="utf-8")
            config = load_config(path)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)
    for name in RunConfig._fields:
        value = getattr(config, name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float):
                assert math.isfinite(x), (name, text)
