"""Conformal factors, their volumes and curvatures, families, interpolation.

Volumes are checked against the Beta-function closed form in
``tests/oracles.py`` and curvature densities against an independently
derived radial formula, so the metric layer never certifies itself.
"""

import numpy as np
import pytest

import oracles
from zetasphere.errors import ConfigError, DomainError, UnsupportedPointError
from zetasphere.metrics import (
    MAX_SCALED_DEPTH,
    ChartPoint,
    ConformalMetric,
    MetricFamily,
    bump,
    bump_derivative,
    chern_c1,
    delta_X,
    equal_area_grid,
    fs_metric,
    geomean_family,
    geomean_metric,
    interpolate,
    max_metric,
    parse_metric_spec,
    pnorm_family,
    pnorm_metric,
    scaled_metric,
    sup_log_distance,
    volume,
)
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
    for metric in (fs_metric(), pnorm_metric(3.0), max_metric()):
        v0 = volume(metric, quad, chart=0)
        v1 = volume(metric, quad, chart=1)
        assert v1 == pytest.approx(v0, rel=1e-12), metric.id


def test_scaled_volume(quad):
    base = pnorm_metric(2.0)
    assert volume(scaled_metric(3.0, base), quad) == pytest.approx(
        3.0 * volume(base, quad), rel=1e-14
    )


def test_fs_density_closed_form():
    r = np.array([0.0, 0.5, 1.0, 2.0])
    got = fs_metric().density(r.astype(complex))
    assert np.allclose(got, 2.0 / (1.0 + r * r) ** 2, rtol=1e-14)


def test_max_density_closed_form():
    r = np.array([0.2, 0.999, 1.001, 5.0])
    got = max_metric().density(r.astype(complex))
    expect = np.minimum(1.0, 1.0 / r**4)
    assert np.allclose(got, expect, rtol=1e-12)


def test_chart_transition_rule():
    """lambda_1(w) = lambda_0(1/w) / |w|^4 away from the chart origin."""
    z = np.array([0.3, 1.0, 2.5]).astype(complex)
    for metric in (fs_metric(), pnorm_metric(3.0), max_metric()):
        lhs = metric.density(1.0 / z, chart=1)
        rhs = metric.density(z, chart=0) * np.abs(z) ** 4
        assert np.allclose(lhs, rhs, rtol=1e-12), metric.id


def test_chart_one_origin_values():
    """The r -> inf limits: 2 for the round factor, 1 for pnorm and max."""
    w0 = np.array([0.0]).astype(complex)
    assert fs_metric().density(w0, chart=1)[0] == pytest.approx(2.0, rel=1e-14)
    assert pnorm_metric(4.0).density(w0, chart=1)[0] == pytest.approx(1.0, rel=1e-14)
    assert max_metric().density(w0, chart=1)[0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.5])
def test_pnorm_c1_closed_form(p):
    """Analytic curvature density against the radial-Laplacian derivation."""
    r = np.array([0.3, 0.8, 1.0, 1.7, 4.0])
    got = pnorm_metric(p).c1_density(r.astype(complex))
    assert np.allclose(got, oracles.pnorm_c1_density(r, p), rtol=1e-12)


def test_fs_c1_equals_density():
    """The round factor's curvature density is the factor itself."""
    r = np.array([0.0, 0.6, 1.3]).astype(complex)
    m = fs_metric()
    assert np.allclose(m.c1_density(r), m.density(r), rtol=1e-14)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
def test_total_curvature(quad, p):
    """int c1 (dxdy/pi) = 2: the degree of the anticanonical bundle."""
    r = quad.radii_theta
    c1 = pnorm_metric(p).c1_density(r.astype(complex))
    total = float(np.sum(quad.weights_theta * (1.0 + r * r) ** 2 * c1))
    assert total == pytest.approx(2.0, abs=1e-12)


def test_chern_c1_finite_difference_matches_analytic():
    m = pnorm_metric(3.0)
    for z in (0.4 + 0.0j, 1.0 + 0.0j, 2.2 + 0.0j):
        fd = chern_c1(
            ConformalMetric("probe", m.smoothness, m._log_radial, m._log_at_infinity),
            ChartPoint(0, z),
        )
        assert fd == pytest.approx(float(m.c1_density(np.array([z]))[0]), rel=1e-6)


def test_max_metric_kink_handling():
    m = max_metric()
    assert m.kink_radii == (1.0,)
    # the class tracks curvature integrability: the factor is continuous but
    # its curvature lives on the kink circle
    assert m.smoothness == "singular-integrable"
    with pytest.raises(UnsupportedPointError):
        m.c1_density(np.array([0.5 + 0.0j]))
    # flat away from the kink circle, refused on it
    assert chern_c1(m, ChartPoint(0, 2.0 + 0.0j)) == pytest.approx(0.0, abs=1e-6)
    assert chern_c1(m, ChartPoint(0, 0.3 + 0.0j)) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(UnsupportedPointError):
        chern_c1(m, ChartPoint(0, 1.001 + 0.0j))


def test_smoothness_classes():
    assert fs_metric().smoothness == "smooth"
    assert pnorm_metric(5.0).smoothness == "smooth"
    assert geomean_metric(pnorm_metric(2.0), pnorm_metric(3.0)).smoothness == "smooth"
    # joining always takes the worst class
    joined = geomean_metric(fs_metric(), max_metric())
    assert joined.smoothness == "singular-integrable"
    with pytest.raises(DomainError):
        ConformalMetric("bad", "bogus-class", lambda r: r, 0.0)


def test_scaled_metric_shifts_log_density():
    base = pnorm_metric(2.0)
    m = scaled_metric(4.0, base)
    r = np.array([0.1, 1.0, 3.0]).astype(complex)
    assert np.allclose(
        m.log_density(r), base.log_density(r) + np.log(4.0), atol=1e-14
    )
    assert m.scale_hint == pytest.approx(4.0)
    with pytest.raises(DomainError):
        scaled_metric(0.0, base)


def test_geomean_is_log_average():
    a, b = pnorm_metric(2.0), pnorm_metric(3.0)
    g = geomean_metric(a, b)
    r = np.array([0.2, 1.0, 2.0]).astype(complex)
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
def test_sup_log_distance_to_max(p):
    got = sup_log_distance(pnorm_metric(p), max_metric())
    assert got == pytest.approx(oracles.sup_log_pnorm_to_max(p), abs=1e-12)


def test_sup_log_distance_shrinks_along_family():
    fam = pnorm_family()
    dists = [sup_log_distance(m, fam.limit) for m in fam.members]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_pnorm_family_layout():
    fam = pnorm_family()
    assert fam.id == "pnorm"
    assert fam.parameters == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert len(fam) == 6
    assert fam.limit.id == max_metric().id
    assert [m.id for m in fam.members] == [f"pnorm:{k}" for k in range(1, 7)]


def test_geomean_family_layout():
    fam = geomean_family(params=(2.0, 3.0))
    assert fam.id == "geomean-pnorm"
    assert len(fam) == 2
    assert fam.limit.id == max_metric().id


def test_interpolate_integer_endpoints():
    fam = pnorm_family()
    r = np.array([0.3, 1.0, 2.0]).astype(complex)
    for u in (1.0, 2.0, 5.0):
        m = interpolate(fam, u)
        base = fam.members[int(u)]
        assert np.allclose(m.log_density(r), base.log_density(r), atol=1e-14)
        assert np.all(m.d_log_density_du(r) == 0.0)
        assert m.id == f"interp:{int(u)}:pnorm"


def test_interpolate_midpoint_between_members():
    # u = 2.5 sits on the segment joining members[2] and members[3]
    fam = pnorm_family()
    r = np.array([0.5, 1.0, 1.5]).astype(complex)
    m = interpolate(fam, 2.5)
    lo = fam.members[2].density(r)
    hi = fam.members[3].density(r)
    got = m.density(r)
    assert np.all(got <= np.maximum(lo, hi) + 1e-15)
    assert np.all(got >= np.minimum(lo, hi) - 1e-15)
    # density-level mixture at the symmetric transition point
    assert np.allclose(got, 0.5 * (lo + hi), rtol=1e-12)


def test_interpolate_du_matches_stencil():
    fam = pnorm_family()
    r = np.array([0.4, 1.0, 2.5]).astype(complex)
    u, h = 2.3, 1e-6
    got = interpolate(fam, u).d_log_density_du(r)
    fd = (
        interpolate(fam, u + h).log_density(r)
        - interpolate(fam, u - h).log_density(r)
    ) / (2.0 * h)
    assert np.allclose(got, fd, atol=1e-8)


def test_interpolate_domain_errors():
    fam = pnorm_family(params=(1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        interpolate(fam, 0.5)
    with pytest.raises(DomainError):
        interpolate(fam, 3.5)
    with pytest.raises(DomainError):
        interpolate(fam, 3.0)  # integer index beyond the last member


def test_delta_x_values():
    fam = pnorm_family()
    assert delta_X(fam, 2.0) == 0.0
    assert delta_X(fam, 2.5) > 0.0
    with pytest.raises(DomainError):
        delta_X(fam, 1.0)
    with pytest.raises(DomainError):
        delta_X(fam, 2.5, grid=np.array([]))


def test_delta_x_bounds_chart_one_variation():
    """The chart-0 grid sup also dominates the chart-1 values."""
    fam = pnorm_family()
    m = interpolate(fam, 2.5)
    grid = equal_area_grid().astype(complex)
    chart1 = np.abs(m.d_log_density_du(grid, chart=1)).max()
    assert chart1 <= delta_X(fam, 2.5) * (1.0 + 1e-12)


def test_equal_area_grid_properties():
    g = equal_area_grid(64)
    assert g.shape == (64,)
    assert np.all(g > 0.0)
    assert np.all(np.diff(g) < 0.0)  # descending radii from the south cap


@pytest.mark.parametrize(
    "spec",
    ["fs", "max", "pnorm:3", "pnorm:2.5", "scaled:2:pnorm:3", "interp:2.5:pnorm",
     "scaled:0.5:fs", "interp:1.5:geomean-pnorm", "interp:256:pnorm",
     "scaled:2:scaled:0.5:pnorm:3", "scaled:1:" * MAX_SCALED_DEPTH + "fs"],
)
def test_parse_metric_spec_roundtrip(spec):
    m = parse_metric_spec(spec)
    r = np.array([0.7, 1.0, 1.4]).astype(complex)
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
     "interp:256.5:pnorm", "interp:inf:pnorm", "interp:nan:pnorm", "pnorm:inf", "scaled:nan:fs",
     "scaled:1:" * (MAX_SCALED_DEPTH + 1) + "fs"],
)
def test_parse_metric_spec_rejects(spec):
    with pytest.raises(ConfigError):
        parse_metric_spec(spec)


def test_metric_family_manual_construction():
    members = (pnorm_metric(2.0), pnorm_metric(4.0))
    fam = MetricFamily("pair", members, parameters=(2.0, 4.0))
    assert fam.limit is None
    assert len(fam) == 2
