"""Property tests of the text inputs: metric specs, family templates and
INI configs.

Every input string either parses or raises ConfigError, which the CLI turns
into exit 2 with a message; no other exception may escape. The generators
mix well-formed pieces (spec prefixes, geomean pairs, template fields,
section names, schema keys) with numbers in every spelling float() accepts
or rejects (nan, inf, overflow, underscores, blanks) and with arbitrary
text; a config text is written to a file and loaded by `load_config`, and
its family built by `metric_family`, as the CLI does. Example counts are
fixed and the search is derandomized, so a run is repeatable.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasphere.config import RunConfig, load_config
from zetasphere.errors import ConfigError
from zetasphere.metrics import (
    MAX_INTERP_U,
    ConformalMetric,
    MetricFamily,
    interpolate,
    metric_family,
    parse_metric_spec,
)

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
        st.sampled_from(["pnorm", "geomean-pnorm", "bogus", "", "pnorm:{p}",
                         "geomean(fs,pnorm:{p+1})", "scaled:{p}:fs", "pnorm:{q}"]),
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
    _assert_id_parses_back(metric)


def _assert_id_parses_back(metric: ConformalMetric) -> None:
    again = parse_metric_spec(metric.id)
    assert again.id == metric.id
    # the id carries the exact parameters, so it names the same metric
    r = np.array([0.0, 0.3, 0.7, 1.0, 1.4, 5.0])
    for got, want in zip(again.jet(r), metric.jet(r), strict=True):
        np.testing.assert_array_equal(got, want)


templates = st.one_of(
    st.sampled_from(["pnorm", "geomean-pnorm", "bogus", ""]),
    st.recursive(
        st.one_of(
            st.sampled_from(["pnorm:{p}", "pnorm:{p+1}", "pnorm:{p+0}", "fs", "max", "pnorm:3"]),
            st.sampled_from(["pnorm:{q}", "pnorm:{p-1}", "scaled:{p}:fs", "pnorm:{p", "{p}"]),
            st.builds("interp:{}:{}".format, numbers, st.sampled_from(["pnorm", "pnorm:{p}"])),
        ),
        lambda inner: st.one_of(
            st.builds("scaled:{}:{}".format, st.one_of(st.just("2.5"), numbers), inner),
            st.builds("geomean({},{})".format, inner, inner),
        ),
        max_leaves=3,
    ),
    st.text(max_size=12),
)


@PROPERTY_SETTINGS
@given(templates, st.floats(min_value=1.0, max_value=4.0))
@example("geomean(fs,pnorm:{p})", 2.5)
@example("scaled:3:geomean(pnorm:{p},pnorm:{p+2})", 1.5)
def test_family_template_ids_parse_back(template, u):
    """A template either builds a family or raises ConfigError; every member
    id, the limit id and the ``interp:<u>:<template>`` id then parse back
    to the same id and the same jet."""
    try:
        family = metric_family(template, range(1, 6))
    except ConfigError:
        return
    assert isinstance(family, MetricFamily) and family.id == template
    for metric in (*family.members, family.limit, interpolate(family, u)):
        _assert_id_parses_back(metric)


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
    st.sampled_from(["true", "no", "pnorm", "geomean-pnorm", "pnorm:3", "out", "bogus",
                     "geomean(fs,pnorm:{p})", "pnorm:{q}"]),
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
@example("[family]\nname = bogus")
def test_ini_parses_or_raises_config_error(text):
    """The config loads and its family builds, or one of them raises
    ConfigError: the family template is refused downstream, where the
    family is built."""
    try:
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "run.ini"
            path.write_text(text, encoding="utf-8")
            config = load_config(path)
        family = metric_family(config.family, config.family_parameters)
    except ConfigError:
        return
    assert isinstance(family, MetricFamily)
    assert isinstance(config, RunConfig)
    for name in RunConfig._fields:
        value = getattr(config, name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float):
                assert math.isfinite(x), (name, text)
