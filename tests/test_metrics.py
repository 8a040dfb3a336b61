"""Conformal factors, their volumes and curvatures, families, interpolation.

Volumes are checked against the Beta-function closed form in
``tests/oracles.py`` and curvature densities against an independently
derived radial formula, so the metric layer never certifies itself.
"""

import itertools
import math

import numpy as np
import pytest

import oracles
from zetasphere.errors import ConfigError, DomainError
from zetasphere.metrics import (
    MAX_GEOMEAN_DEPTH,
    MAX_SCALED_DEPTH,
    ConformalMetric,
    MetricFamily,
    bump,
    bump_derivative,
    d_log_density_du,
    fs_metric,
    geomean_metric,
    interpolate,
    max_metric,
    metric_family,
    parse_metric_spec,
    pnorm_metric,
    scaled_metric,
    sup_log_distances,
    volume,
)
from zetasphere.pipeline import family_spectral_data
from zetasphere.quadrature import build_quadrature


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(192)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 7.5])
def test_pnorm_volume_closed_form(quad, p):
    got = volume(pnorm_metric(p), quad)
    assert got == pytest.approx(oracles.pnorm_volume(p), rel=1e-12)


def test_special_volumes(quad):
    """Round factor and the kinked limit both enclose area 2."""
    assert volume(fs_metric(), quad) == pytest.approx(2.0, rel=1e-13)
    assert volume(max_metric(), quad) == pytest.approx(2.0, rel=1e-12)


def test_volume_chart_independence(quad):
    """The same nodes read as radii |w| of w = 1/z give the same volume."""
    r = quad.radii_theta
    for metric in (fs_metric(), pnorm_metric(3.0), max_metric()):
        log_ratio = oracles.inverted_log_density(metric.log_density, r) + 2.0 * np.log1p(r**2)
        v1 = float(np.sum(quad.weights_theta * np.exp(log_ratio)))
        assert v1 == pytest.approx(volume(metric, quad), rel=1e-12), metric.id


def test_scaled_volume(quad):
    base = pnorm_metric(2.0)
    assert volume(scaled_metric(3.0, base), quad) == pytest.approx(
        3.0 * volume(base, quad), rel=1e-14
    )


def test_fs_density_closed_form():
    r = np.array([0.0, 0.5, 1.0, 2.0])
    got = fs_metric().density(r)
    assert np.allclose(got, 2.0 / (1.0 + r * r) ** 2, rtol=1e-14)


def test_max_density_closed_form():
    r = np.array([0.2, 0.999, 1.001, 5.0])
    got = max_metric().density(r)
    expect = np.minimum(1.0, 1.0 / r**4)
    assert np.allclose(got, expect, rtol=1e-12)


def test_chart_one_origin_values():
    """log lambda(r) + 4 log r as r -> inf, the factor at w = 1/z = 0: log 2
    for the round factor, 0 for pnorm and max, log 6 for 3 * fs."""
    for spec, want in (("fs", np.log(2.0)), ("pnorm:4", 0.0), ("max", 0.0),
                       ("scaled:3:fs", np.log(6.0))):
        got = oracles.log_density_at_infinity(parse_metric_spec(spec).log_density)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14), spec


@pytest.mark.parametrize("p", [1.0, 2.0, 4.5])
def test_pnorm_c1_closed_form(p):
    """Analytic curvature density against the radial-Laplacian derivation."""
    r = np.array([0.3, 0.8, 1.0, 1.7, 4.0])
    got = pnorm_metric(p).jet(r)[2]
    assert np.allclose(got, oracles.pnorm_c1_density(r, p), rtol=1e-12)


def test_fs_c1_equals_density():
    """The round factor's curvature density is the factor itself; at the
    origin pnorm:1 = fs/2 has c1 = 2, and sharper members and their blends
    are flat there."""
    r = np.array([0.0, 0.6, 1.3])
    m = fs_metric()
    assert np.allclose(m.jet(r)[2], m.density(r), rtol=1e-14)
    for spec, want in (("pnorm:1", 2.0), ("pnorm:3", 0.0), ("interp:2.5:pnorm", 0.0)):
        assert parse_metric_spec(spec).jet(np.array([0.0]))[2][0] == want, spec


GEOMEAN = "geomean(pnorm:2,pnorm:3)"


def _metric(name):
    """A smooth test metric: pnorm by its parameter, else by spec or id."""
    if isinstance(name, float):
        return pnorm_metric(name)
    return parse_metric_spec(name)


@pytest.mark.parametrize(
    "name",
    [1.0, 2.0, 3.0, 4.5, "fs", "scaled:3:pnorm:4", GEOMEAN, "interp:2.5:pnorm",
     "interp:100.5:pnorm", "interp:100.5:geomean-pnorm"],
)
def test_total_curvature(quad, name):
    """int c1 (dxdy/pi) = 2: the degree of the anticanonical bundle."""
    r = quad.radii_theta
    c1 = _metric(name).jet(r)[2]
    total = float(np.sum(quad.weights_theta * (1.0 + r * r) ** 2 * c1))
    assert total == pytest.approx(2.0, abs=1e-13)


def _mp_interp_pnorm(u):
    """interp:u:pnorm at u = n + 1/2 blends pnorm:(n+1) and pnorm:(n+2) with
    bump weight 1/2."""
    return oracles.mp_log_blend(
        oracles.mp_log_pnorm(u + 0.5), oracles.mp_log_pnorm(u + 1.5), 0.5
    )


_MP_LOG = {
    "fs": oracles.mp_log_fs,
    "pnorm:1": oracles.mp_log_pnorm(1.0),
    "pnorm:3": oracles.mp_log_pnorm(3.0),
    "pnorm:8": oracles.mp_log_pnorm(8.0),
    "scaled:3:pnorm:4": lambda x: oracles.mp.log(3) + oracles.mp_log_pnorm(4.0)(x),
    GEOMEAN: lambda x: (oracles.mp_log_pnorm(2.0)(x) + oracles.mp_log_pnorm(3.0)(x)) / 2,
    **{f"interp:{u}:pnorm": _mp_interp_pnorm(u) for u in (2.5, 8.5, 32.5, 100.5)},
}


def _assert_c1_close(got, want):
    """c1 agrees to 1e-12 of its largest value on the radii."""
    want = np.asarray(want)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", list(_MP_LOG))
def test_jet_matches_mpmath(name):
    """Every part of the jet against mpmath differentiation of log lambda."""
    r = np.logspace(-3.0, 3.0, 9)
    f, df, c1, dc1 = _metric(name).jet(r)
    want = np.array([oracles.radial_jet(_MP_LOG[name], x) for x in r])
    # the blend's logaddexp keeps f to absolute, not relative, precision near 0
    np.testing.assert_allclose(f, want[:, 0], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(df, want[:, 1], rtol=1e-12, atol=0.0)
    _assert_c1_close(c1, want[:, 2])
    _assert_c1_close(dc1, want[:, 3])


@pytest.mark.parametrize("u", [2.5, 8.5, 32.5, 100.5])
def test_interp_c1_matches_mpmath_blend(u):
    """The blend's curvature matches the mpmath radial Laplacian also where
    the sharp members concentrate it near the equator."""
    r = np.array([0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 20.0])
    got = parse_metric_spec(f"interp:{u}:pnorm").jet(r)[2]
    _assert_c1_close(got, [oracles.radial_jet(_mp_interp_pnorm(u), x)[2] for x in r])


def test_max_metric_kink_handling():
    m = max_metric()
    assert m.kink_radii == (1.0,)
    # the factor is continuous and its whole curvature is the line mass on
    # the kink circle: off the kink the jet is flat inside and -4 log r outside
    assert m.line_masses() == (2.0,)
    _, df, c1, dc1 = m.jet(np.array([0.5, 2.0]))
    assert df.tolist() == [0.0, -2.0] and c1.tolist() == dc1.tolist() == [0.0, 0.0]
    # a mixture keeps the kink and its share of the mass
    joined = geomean_metric(fs_metric(), max_metric())
    assert joined.kink_radii == (1.0,)
    assert joined.line_masses() == pytest.approx((1.0,), abs=1e-15)


def test_smoothness_classes():
    """A metric's smoothness is its kink radii: none for the smooth factors
    and their compositions, the union of the parts' kinks otherwise."""
    mixed = geomean_metric(pnorm_metric(2.0), pnorm_metric(3.0))
    for smooth in (fs_metric(), pnorm_metric(5.0), mixed):
        assert smooth.kink_radii == () and smooth.line_masses() == ()
    for kinked in (geomean_metric(fs_metric(), max_metric()), scaled_metric(2.0, max_metric())):
        assert kinked.kink_radii == (1.0,)


def test_order_classes():
    """A metric's order is how many of b_1, b_2 its jet pins: 2 for fs and
    integer pnorm, 1 for a non-integer pnorm, whose |z|^(2p) at the poles is
    only finitely smooth, 0 at a kink and for a hand-built jet; a
    composition takes the lower of its parts'."""
    orders = {
        "fs": 2, "pnorm:1": 2, "pnorm:32": 2, "pnorm:1.5": 1, "pnorm:2.5": 1,
        "max": 0, "scaled:2:max": 0, "scaled:1e-06:pnorm:3.5": 1,
        "interp:2.5:pnorm": 2, "interp:2.5:geomean-pnorm": 2,
    }
    for spec, order in orders.items():
        assert parse_metric_spec(spec).order == order, spec
    assert geomean_metric(fs_metric(), pnorm_metric(3.0)).order == 2
    assert geomean_metric(pnorm_metric(3.0), pnorm_metric(1.5)).order == 1
    assert geomean_metric(fs_metric(), max_metric()).order == 0
    assert ConformalMetric("hand-built", fs_metric().jet).order == 0


@pytest.mark.parametrize(
    "metric",
    [fs_metric(), pnorm_metric(3.0), max_metric(), parse_metric_spec("scaled:2:max"),
     geomean_metric(fs_metric(), max_metric()), parse_metric_spec("interp:2.5:pnorm")],
    ids=lambda m: m.id,
)
def test_gauss_bonnet(metric):
    """The curvature measure, c1 dA off the kinks plus the line masses, has
    total mass 2 (chi = 2 in the normalization of the area form)."""
    quad = build_quadrature(128)
    r = quad.radii_theta
    smooth = float(np.sum(quad.weights_theta * (1.0 + r**2) ** 2 * metric.jet(r)[2]))
    assert abs(smooth + sum(metric.line_masses()) - 2.0) <= 1e-13


def test_scaled_metric_shifts_log_density():
    base = pnorm_metric(2.0)
    m = scaled_metric(4.0, base)
    r = np.array([0.1, 1.0, 3.0])
    assert np.allclose(
        m.log_density(r), base.log_density(r) + np.log(4.0), atol=1e-14
    )
    assert m.scale_hint == pytest.approx(4.0)
    with pytest.raises(DomainError):
        scaled_metric(0.0, base)


def test_geomean_is_log_average():
    a, b = pnorm_metric(2.0), pnorm_metric(3.0)
    g = geomean_metric(a, b)
    r = np.array([0.2, 1.0, 2.0])
    assert np.allclose(
        g.log_density(r), 0.5 * (a.log_density(r) + b.log_density(r)), atol=1e-14
    )


def test_bump_shape():
    x = np.linspace(-0.5, 1.5, 401)
    y = bump(x)
    assert np.all(y[x <= 0.0] == 0.0)
    assert np.all(y[x >= 1.0] == 1.0)
    assert np.all(np.diff(y) >= 0.0)
    assert bump(0.5) == pytest.approx(0.5, abs=1e-14)  # symmetric transition


def test_bump_derivative_matches_stencil():
    x = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (bump(x + h) - bump(x - h)) / (2.0 * h)
    assert np.allclose(bump_derivative(x), fd, atol=1e-8)
    assert np.all(bump_derivative(np.array([-0.2, 0.0, 1.0, 1.3])) == 0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 8.0, 16.0])
def test_sup_log_distance_to_max(quad, p):
    d = sup_log_distances((pnorm_metric(p), max_metric()), quad.radii_theta)
    assert d[0, 1] == pytest.approx(oracles.sup_log_pnorm_to_max(p), abs=1e-12)
    assert d[1, 0] == d[0, 1] and d[0, 0] == d[1, 1] == 0.0


def test_sup_log_distance_shrinks_along_family(quad):
    fam = metric_family("pnorm", range(1, 7))
    dists = sup_log_distances((*fam.members, fam.limit), quad.radii_theta)[:-1, -1]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_pnorm_family_layout():
    fam = metric_family("pnorm", range(1, 7))
    assert fam.id == "pnorm"
    assert fam.parameters == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert len(fam.members) == 6
    assert fam.limit.id == max_metric().id
    assert [m.id for m in fam.members] == [f"pnorm:{k}" for k in range(1, 7)]


def test_geomean_family_layout():
    """The limit fills both fields with max: geomean(max,max), whose jet is
    max's own, bit for bit."""
    fam = metric_family("geomean-pnorm", (2.0, 3.0))
    assert fam.id == "geomean-pnorm"
    assert len(fam.members) == 2
    assert [m.id for m in fam.members] == ["geomean(pnorm:2,pnorm:3)", "geomean(pnorm:3,pnorm:4)"]
    assert fam.limit.id == "geomean(max,max)"
    r = np.array([0.0, 0.3, 1.0, 1.4, 5.0])
    for got, want in zip(fam.limit.jet(r), max_metric().jet(r), strict=True):
        np.testing.assert_array_equal(got, want)
    assert fam.limit.kink_radii == max_metric().kink_radii


def test_interpolate_integer_endpoints():
    """At an integer u the blend's rho is 1 and rho' is 0: the jet is the
    member's own, bit for bit, and the u-derivative vanishes."""
    r = np.array([0.3, 1.0, 2.0])
    families = [metric_family(n, range(1, 7)) for n in ("pnorm", "geomean-pnorm")]
    for fam, u in itertools.product(families, (1.0, 2.0, 5.0)):
        m = interpolate(fam, u)
        base = fam.members[int(u)]
        for got, want in zip(m.jet(r), base.jet(r)):
            assert np.array_equal(got, want)
        assert np.all(d_log_density_du(fam, u, r) == 0.0)
        assert m.id == f"interp:{int(u)}:{fam.id}"
        assert m.kink_radii == base.kink_radii


def test_interpolate_integer_spectrum_is_the_members():
    (interp,) = family_spectral_data((parse_metric_spec("interp:2:pnorm"),), 16)
    (member,) = family_spectral_data((parse_metric_spec("pnorm:3"),), 16)
    assert np.array_equal(interp.eigenvalues, member.eigenvalues)
    assert interp.volume == member.volume


def test_interpolate_midpoint_between_members():
    # u = 2.5 sits on the segment joining members[2] and members[3]
    fam = metric_family("pnorm", range(1, 7))
    r = np.array([0.5, 1.0, 1.5])
    m = interpolate(fam, 2.5)
    lo = fam.members[2].density(r)
    hi = fam.members[3].density(r)
    got = m.density(r)
    assert np.all(got <= np.maximum(lo, hi) + 1e-15)
    assert np.all(got >= np.minimum(lo, hi) - 1e-15)
    # density-level mixture at the symmetric transition point
    assert np.allclose(got, 0.5 * (lo + hi), rtol=1e-12)


def test_interpolate_du_matches_stencil():
    fam = metric_family("pnorm", range(1, 7))
    r = np.array([0.4, 1.0, 2.5])
    u, h = 2.3, 1e-6
    got = d_log_density_du(fam, u, r)
    fd = (
        interpolate(fam, u + h).log_density(r)
        - interpolate(fam, u - h).log_density(r)
    ) / (2.0 * h)
    assert np.allclose(got, fd, atol=1e-8)


def _mp_member_log(family_id, p):
    """mpmath log lambda of the member with parameter p of a built-in family."""
    if family_id == "pnorm":
        return oracles.mp_log_pnorm(p)
    a, b = oracles.mp_log_pnorm(p), oracles.mp_log_pnorm(p + 1.0)
    return lambda x: (a(x) + b(x)) / 2


@pytest.mark.parametrize("family", [
    metric_family(n, range(1, 7)) for n in ("pnorm", "geomean-pnorm")
], ids=lambda f: f.id)
@pytest.mark.parametrize("u", [1.5, 2.3, 4.7])
def test_d_log_density_du_matches_mpmath(family, u):
    """The family's u-derivative against mpmath differentiation in u of the
    blend with an mpmath bump, to 1e-12 relative plus 1e-14 absolute; the
    absolute part covers r = 2.5 at u = 4.7, where the members' densities
    nearly cancel."""
    r = np.array([0.3, 1.0, 2.5])
    k = math.ceil(u)
    lo, hi = (_mp_member_log(family.id, family.parameters[i]) for i in (k - 1, k))
    want = np.array([oracles.d_log_blend_du(lo, hi, u - (k - 1), x) for x in r])
    got = d_log_density_du(family, u, r)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-14)


def test_interpolate_domain_errors():
    fam = metric_family("pnorm", (1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        interpolate(fam, 0.5)
    with pytest.raises(DomainError):
        interpolate(fam, 3.5)
    with pytest.raises(DomainError):
        interpolate(fam, 3.0)  # integer index beyond the last member


def test_d_log_density_du_vanishes_at_integer_u(quad):
    """The blend is stationary at a member, u = 2, and varies in between."""
    fam = metric_family("pnorm", range(1, 7))
    r = quad.radii_theta
    assert np.all(d_log_density_du(fam, 2.0, r) == 0.0)
    assert np.abs(d_log_density_du(fam, 2.5, r)).max() > 0.0
    with pytest.raises(DomainError):
        d_log_density_du(fam, 0.5, r)


def test_node_variation_bounds_chart_one_variation(quad):
    """The node sup of |d log H/du| also dominates its values at the
    inverted radii 1/r of w = 1/z, where the |w|^-4 gluing factor does not
    depend on u."""
    fam = metric_family("pnorm", range(1, 7))
    r = quad.radii_theta
    inverted = np.abs(d_log_density_du(fam, 2.5, 1.0 / r)).max()
    assert inverted <= np.abs(d_log_density_du(fam, 2.5, r)).max() * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "spec",
    ["fs", "max", "pnorm:3", "pnorm:2.5", "scaled:2:pnorm:3", "interp:2.5:pnorm",
     "scaled:0.5:fs", "interp:1.5:geomean-pnorm", "interp:256:pnorm",
     "scaled:2:scaled:0.5:pnorm:3", "scaled:1:" * MAX_SCALED_DEPTH + "fs",
     "geomean(fs,max)", " geomean( scaled:2:fs , geomean(pnorm:3,interp:2.5:pnorm) ) ",
     "geomean(" * MAX_GEOMEAN_DEPTH + "fs" + ",max)" * MAX_GEOMEAN_DEPTH],
)
def test_parse_metric_spec_roundtrip(spec):
    m = parse_metric_spec(spec)
    r = np.array([0.7, 1.0, 1.4])
    again = parse_metric_spec(m.id)
    assert np.allclose(m.log_density(r), again.log_density(r), atol=1e-14)


@pytest.mark.parametrize(
    "spec, want",
    [("pnorm:3", "pnorm:3"), ("pnorm:3.0", "pnorm:3"), ("pnorm:1024", "pnorm:1024"),
     ("pnorm:3.0000001", "pnorm:3.0000001"), ("scaled:1.2345671:fs", "scaled:1.2345671:fs"),
     ("scaled:1e-5:max", "scaled:1e-05:max"), ("interp:2.3:pnorm", "interp:2.3:pnorm"),
     ("interp:2.0:pnorm", "interp:2:pnorm")],
)
def test_metric_ids_are_exact(spec, want):
    """Ids print each number as the shortest text that parses back to it."""
    assert parse_metric_spec(spec).id == want


@pytest.mark.parametrize(
    "spec",
    ["", "bogus", "pnorm", "pnorm:zero", "pnorm:0.5", "scaled:2", "scaled:x:fs",
     "scaled:-1:fs", "interp:2.5", "interp:0.5:pnorm", "interp:2.5:bogus",
     "interp:256.5:pnorm", "interp:inf:pnorm", "interp:nan:pnorm", "pnorm:inf", "pnorm:1e301",
     "scaled:nan:fs",
     "scaled:1:" * (MAX_SCALED_DEPTH + 1) + "fs", "geomean(fs)", "geomean(fs,max",
     "geomean(fs,)", "geomean(fs),(max)", "geomean(fs,max,fs)", "geomean(fs,bogus)",
     "geomean(" * (MAX_GEOMEAN_DEPTH + 1) + "fs" + ",max)" * (MAX_GEOMEAN_DEPTH + 1),
     "geomean(fs," * (MAX_GEOMEAN_DEPTH + 1) + "max" + ")" * (MAX_GEOMEAN_DEPTH + 1)],
)
def test_parse_metric_spec_rejects(spec):
    with pytest.raises(ConfigError):
        parse_metric_spec(spec)


@pytest.mark.parametrize("family", [
    metric_family(n, range(1, 7)) for n in ("pnorm", "geomean-pnorm")
], ids=lambda f: f.id)
def test_family_ids_are_specs(family):
    """Every member and limit id of a family, bare and under ``scaled:``,
    parses back to the same id and to a bitwise-equal jet."""
    r = np.array([0.0, 0.3, 0.7, 1.0, 1.4, 5.0])
    for metric in (*family.members, family.limit):
        for m in (metric, scaled_metric(2.5, metric)):
            again = parse_metric_spec(m.id)
            assert again.id == m.id
            for got, want in zip(again.jet(r), m.jet(r), strict=True):
                np.testing.assert_array_equal(got, want)


def test_metric_family_manual_construction():
    members = (pnorm_metric(2.0), pnorm_metric(4.0))
    fam = MetricFamily("pair", members, max_metric(), (2.0, 4.0))
    assert fam.limit.id == "max"
    assert len(fam.members) == 2
