"""Anomaly integrals, determinant metrics, and the two-route consistency check.

The curvature integral has a closed form on pnorm pairs, (1/p - 1/q)/3,
verified in the oracle module by high-precision quadrature from the
definition; the tests here compare the library's node sums against it.
"""

import math

import pytest

import oracles
from zetasphere.anomaly import (
    TWO_ROUTE_BUDGET_FACTOR,
    bott_chern_bound,
    bott_chern_integral,
    quillen_limit,
    two_route_check,
)
from zetasphere.errors import DomainError, UnsupportedPointError
from zetasphere.harness import sweep
from zetasphere.metrics import (
    MetricFamily,
    fs_metric,
    geomean_family,
    max_metric,
    pnorm_family,
    pnorm_metric,
    scaled_metric,
    sup_log_distance,
)
from zetasphere.pipeline import compute_zeta, family_spectral_data


PAIRS = [(1.0, 2.0), (2.0, 3.0), (3.0, 8.0)]


@pytest.mark.parametrize("p,q", PAIRS)
def test_bott_chern_closed_form(p, q):
    got = bott_chern_integral(pnorm_metric(p), pnorm_metric(q))
    assert got == pytest.approx(oracles.bott_chern_pnorm_pair(p, q), abs=1e-10)


def test_bott_chern_antisymmetry():
    p, q = pnorm_metric(2.0), pnorm_metric(5.0)
    assert bott_chern_integral(p, q) == pytest.approx(
        -bott_chern_integral(q, p), abs=1e-15
    )
    assert bott_chern_integral(p, p) == 0.0


@pytest.mark.parametrize("base_id", ["fs", "pnorm:2"])
@pytest.mark.parametrize("t0", [0.5, 10.0])
def test_bott_chern_scaling_slope(base_id, t0):
    """Constant log shift integrates against total curvature 2 + 2."""
    base = fs_metric() if base_id == "fs" else pnorm_metric(2.0)
    got = bott_chern_integral(scaled_metric(t0, base), base)
    assert got == pytest.approx(-math.log(t0) / 3.0, rel=1e-12)


@pytest.mark.parametrize("p,q", PAIRS)
def test_bott_chern_bound_dominates(p, q):
    mp_, mq = pnorm_metric(p), pnorm_metric(q)
    assert abs(bott_chern_integral(mp_, mq)) <= bott_chern_bound(
        mp_, mq, sup_log_distance(mp_, mq)
    )


def test_bott_chern_bound_value():
    """For pnorm pairs: K = (2+2)/12 and sup = 2 log2 |1/p - 1/q|."""
    p, q = 2.0, 4.0
    want = (4.0 / 12.0) * 2.0 * math.log(2.0) * abs(1.0 / p - 1.0 / q)
    mp_, mq = pnorm_metric(p), pnorm_metric(q)
    assert bott_chern_bound(mp_, mq, sup_log_distance(mp_, mq)) == pytest.approx(
        want, rel=1e-10
    )


def test_kinked_factor_is_refused():
    with pytest.raises(UnsupportedPointError):
        bott_chern_integral(max_metric(), fs_metric())
    with pytest.raises(UnsupportedPointError):
        bott_chern_bound(fs_metric(), max_metric(), math.log(2.0))


def test_quillen_log_assembly(cache):
    """log h_Q = log vol + zeta'(0) of the zeta record, on its volume."""
    data, zres = _torsion(pnorm_metric(2.0), 16, cache)
    assert zres.metric_id == "pnorm:2"
    assert zres.volume == data.volume
    assert zres.log_quillen == math.log(zres.volume) + zres.zeta_prime0
    # the volume is reported as passed
    other = zres._replace(volume=2.5)
    assert other.volume == 2.5
    assert other.log_quillen == pytest.approx(math.log(2.5) + zres.zeta_prime0, rel=1e-15)


def test_spectral_route_scaling_slope(cache):
    """Under h -> t0 h the spectral route moves by (1 + zeta0) log t0.

    The fitted zeta0 sits near -2/3, so the slope matches the curvature
    route's 1/3; the decomposition below checks the exact covariance and the
    closeness of zeta0 to its continuum value separately.
    """
    t0 = 10.0
    metric = pnorm_metric(2.0)
    _, z_base = _torsion(metric, 16, cache)
    scaled = scaled_metric(t0, pnorm_metric(2.0))
    _, z_scaled = _torsion(scaled, 16, cache)
    spectral = z_scaled.log_quillen - z_base.log_quillen
    assert spectral == pytest.approx(
        (1.0 + z_base.zeta0) * math.log(t0), abs=1e-7
    )
    assert z_base.zeta0 == pytest.approx(-2.0 / 3.0, abs=2e-2)
    curvature = -bott_chern_integral(scaled, metric)
    assert curvature == pytest.approx(math.log(t0) / 3.0, rel=1e-12)


def _torsion(metric, L, cache):
    """The metric's spectrum data and its compute_zeta result."""
    (data,) = family_spectral_data((metric,), L, cache=cache)
    return data, compute_zeta(data, metric)


def _limit(family, L, cache):
    """quillen_limit of the family, one pipeline run per member."""
    members = [
        (p, m, _torsion(m, L, cache)[1]) for p, m in zip(family.parameters, family.members)
    ]
    metrics = family.members
    dists = [sup_log_distance(a, b) for a, b in zip(metrics, metrics[1:])]
    return quillen_limit(members, dists)


def _two_route(metric_p, metric_q, L, cache):
    return two_route_check(
        metric_p, _torsion(metric_p, L, cache)[1], metric_q, _torsion(metric_q, L, cache)[1]
    )


def test_two_route_check_smooth_pair(cache):
    report = _two_route(fs_metric(), pnorm_metric(2.0), 20, cache)
    assert report.metric_p == "fs"
    assert report.metric_q == "pnorm:2"
    assert report.passed
    assert report.gap == pytest.approx(
        abs(report.route_spectral - report.route_curvature), rel=1e-15
    )
    assert report.tolerance == TWO_ROUTE_BUDGET_FACTOR * report.budget
    assert report.gap <= report.tolerance
    assert report.budget > 0.0


def test_two_route_tolerance_is_a_multiple_of_the_budgets(cache):
    """The tolerance is TWO_ROUTE_BUDGET_FACTOR times the two budgets and
    nothing larger: with budgets of 1e-6 the (pnorm:1, pnorm:2) pair at
    L = 16 no longer passes."""
    metrics = (pnorm_metric(1.0), pnorm_metric(2.0))
    zp, zq = (_torsion(m, 16, cache)[1]._replace(error_budget=1e-6) for m in metrics)
    report = two_route_check(metrics[0], zp, metrics[1], zq)
    assert report.tolerance == TWO_ROUTE_BUDGET_FACTOR * report.budget
    assert not report.passed


def test_two_route_check_pnorm_pair(cache):
    report = _two_route(pnorm_metric(2.0), pnorm_metric(3.0), 20, cache)
    assert report.passed
    assert report.route_curvature == pytest.approx(
        -oracles.bott_chern_pnorm_pair(2.0, 3.0), abs=1e-10
    )


def test_two_routes_agree_with_plus_zeta_prime_only(cache):
    """On (fs, pnorm:2) at L = 16 the spectral route log vol + zeta'(0)
    meets the curvature route within the tolerance; log vol - zeta'(0)
    misses it."""
    metrics = (fs_metric(), pnorm_metric(2.0))
    (dp, zp), (dq, zq) = (
        (d, compute_zeta(d, m))
        for m, d in zip(metrics, family_spectral_data(metrics, 16, cache=cache))
    )
    report = two_route_check(metrics[0], zp, metrics[1], zq)
    assert report.passed and report.gap <= report.tolerance
    minus = math.log(dp.volume / dq.volume) - (zp.zeta_prime0 - zq.zeta_prime0)
    assert abs(minus - report.route_curvature) > report.tolerance


def test_quillen_limit_pnorm(cache):
    fam = pnorm_family([1.0, 2.0, 3.0, 4.0])
    out = _limit(fam, 16, cache)
    assert out.converged
    assert out.failures == ()
    assert [r.param for r in out.rows] == [1.0, 2.0, 3.0, 4.0]
    first, rest = out.rows[0], out.rows[1:]
    assert math.isnan(first.diff_to_prev) and math.isnan(first.bound)
    for row in rest:
        assert row.bound > 0.0
        assert math.isfinite(row.diff_to_prev)
    diffs = [abs(r.diff_to_prev) for r in rest]
    assert diffs == sorted(diffs, reverse=True)
    assert math.isfinite(out.limit)
    assert abs(out.limit - out.rows[-1].log_quillen) <= 5.0 * diffs[-1]


def test_quillen_limit_takes_computed_members(cache):
    """The sweep computes the members; quillen_limit tabulates the
    results and pair distances it is handed, and refuses an empty table."""
    fam = pnorm_family([2.0, 4.0])
    metrics = fam.members
    rep = sweep(fam, L=16)
    rows = rep.rows
    members = [(r.param, m, r.zeta) for r, m in zip(rows, metrics)]
    out = quillen_limit(members, rep.pair_dist)
    assert [r.param for r in out.rows] == [2.0, 4.0]
    assert out.rows[1].diff_to_prev == rows[1].zeta.log_quillen - rows[0].zeta.log_quillen
    assert out.rows[1].bound == bott_chern_bound(*metrics, rep.pair_dist[0])
    with pytest.raises(DomainError):
        quillen_limit([], ())


def test_quillen_limit_flags_growing_differences(cache):
    fam = MetricFamily(
        id="pnorm-misordered",
        members=(pnorm_metric(4.0), pnorm_metric(3.0), pnorm_metric(1.0)),
        limit=max_metric(),
        parameters=(4.0, 3.0, 1.0),
    )
    out = _limit(fam, 16, cache)
    assert not out.converged
    assert any("grow" in msg for msg in out.failures)


def test_limit_agreement_between_families(cache):
    """Two different smoothing families extrapolate to the same limit."""
    p_fam, g_fam = (
        _limit(fam, 20, cache)
        for fam in (pnorm_family([2.0, 3.0, 4.0, 5.0]), geomean_family([2.0, 3.0, 4.0, 5.0]))
    )
    assert p_fam.converged and g_fam.converged
    assert abs(p_fam.limit - g_fam.limit) <= 2e-3


def test_torsion_consistency(cache):
    data, zres = _torsion(pnorm_metric(3.0), 16, cache)
    assert data.metric_id == "pnorm:3"
    assert zres.metric_id == "pnorm:3"
    assert zres.volume == data.volume
    assert zres.log_quillen == pytest.approx(
        math.log(data.volume) + zres.zeta_prime0, rel=1e-14
    )
