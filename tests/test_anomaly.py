"""Anomaly integrals, determinant metrics, and the two-route consistency check.

The curvature integral has a closed form on pnorm pairs, (1/p - 1/q)/3,
verified in the oracle module by high-precision quadrature from the
definition; the tests here compare the library's node sums against it. With
the max factor's line mass the closed forms extend to the kinked limit,
1/(3p) for (pnorm:p, max) and (log 2 - 1)/3 for (max, fs), and the oracle
integrates any pair by parts from first derivatives alone, where no line
mass enters.
"""

import math

import numpy as np
import pytest

import oracles
from zetasphere.anomaly import (
    TWO_ROUTE_BUDGET_FACTOR,
    bott_chern_bound,
    bott_chern_integral,
    quillen_limit,
    two_route_check,
)
from zetasphere.errors import DomainError
from zetasphere.harness import sweep
from zetasphere.heatzeta import zeta_result
from zetasphere.metrics import (
    ConformalMetric,
    fs_metric,
    geomean_metric,
    max_metric,
    metric_family,
    pnorm_metric,
    scaled_metric,
    sup_log_distances,
)
from zetasphere.pipeline import family_spectral_data
from zetasphere.quadrature import JET_RULE_NODES, build_quadrature


PAIRS = [(1.0, 2.0), (2.0, 3.0), (3.0, 8.0)]


def test_anomaly_integrals_read_each_jet_once():
    """The integral and the bound each evaluate a metric's jet on the rule's
    nodes once; f and c1 both come from that one call. (The line masses
    read the jet beside each kink, on no node.)"""
    nodes = build_quadrature(JET_RULE_NODES).radii_theta.size
    calls: list[str] = []

    def counted(metric):
        def jet(r):
            if np.size(r) == nodes:
                calls.append(metric.id)
            return metric.jet(r)

        return metric._replace(jet=jet)

    p, q = counted(pnorm_metric(2.0)), counted(geomean_metric(fs_metric(), pnorm_metric(3.0)))
    bott_chern_integral(p, q)
    assert sorted(calls) == sorted([p.id, q.id])
    calls.clear()
    bott_chern_bound(p, q, 1.0)
    assert sorted(calls) == sorted([p.id, q.id])


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


def rule_distance(metric_p, metric_q) -> float:
    """sup |log(h_p/h_q)| on the anomaly rule's own nodes (and r = 1), the
    sup the integral's bound needs."""
    pair = (metric_p, metric_q)
    return float(sup_log_distances(pair, build_quadrature(JET_RULE_NODES).radii_theta)[0, 1])


@pytest.mark.parametrize("p,q", PAIRS)
def test_bott_chern_bound_dominates(p, q):
    mp_, mq = pnorm_metric(p), pnorm_metric(q)
    assert abs(bott_chern_integral(mp_, mq)) <= bott_chern_bound(mp_, mq, rule_distance(mp_, mq))


def test_bott_chern_bound_value():
    """For pnorm pairs: K = (2+2)/12 and sup = 2 log2 |1/p - 1/q|."""
    p, q = 2.0, 4.0
    want = (4.0 / 12.0) * 2.0 * math.log(2.0) * abs(1.0 / p - 1.0 / q)
    mp_, mq = pnorm_metric(p), pnorm_metric(q)
    assert bott_chern_bound(mp_, mq, rule_distance(mp_, mq)) == pytest.approx(want, rel=1e-10)


# log h_Q(max) = log 2 + zeta'(0)(max), the closed form
MAX_LOG_QUILLEN = math.log(2.0) + oracles.max_zeta_prime0()


@pytest.mark.parametrize("p", [2.0, 8.0, 32.0])
def test_kinked_limit_closed_forms(p):
    """The max factor's line mass pairs with the log ratio on |z| = 1."""
    kinked_fs = bott_chern_integral(max_metric(), fs_metric())
    assert abs(kinked_fs - (math.log(2.0) - 1.0) / 3.0) <= 1e-15
    assert abs(bott_chern_integral(pnorm_metric(p), max_metric()) - 1.0 / (3.0 * p)) <= 1e-15


@pytest.mark.parametrize(
    "metric_p,jet_p,metric_q,jet_q",
    [
        (geomean_metric(fs_metric(), max_metric()),
         oracles.mp_jet_geomean(oracles.mp_jet_fs, oracles.mp_jet_max),
         fs_metric(), oracles.mp_jet_fs),
        (geomean_metric(fs_metric(), max_metric()),
         oracles.mp_jet_geomean(oracles.mp_jet_fs, oracles.mp_jet_max),
         pnorm_metric(3.0), oracles.mp_jet_pnorm(3.0)),
        (max_metric(), oracles.mp_jet_max, pnorm_metric(2.0), oracles.mp_jet_pnorm(2.0)),
    ],
    ids=["geomean(fs,max)-fs", "geomean(fs,max)-pnorm:3", "max-pnorm:2"],
)
def test_kinked_pairs_match_the_by_parts_oracle(metric_p, jet_p, metric_q, jet_q):
    got = bott_chern_integral(metric_p, metric_q)
    assert abs(got - oracles.bott_chern_by_parts(jet_p, jet_q)) <= 1e-13


@pytest.mark.parametrize("q", [fs_metric(), pnorm_metric(3.0)])
def test_kinked_bound_counts_the_line_mass(q):
    """K is (1/12) of the total curvature variation: 2 from the smooth
    factor's density and 2 from max's line mass, and the bound dominates."""
    dist = rule_distance(max_metric(), q)
    bound = bott_chern_bound(max_metric(), q, dist)
    assert bound == pytest.approx(4.0 / 12.0 * dist, rel=1e-12)
    assert abs(bott_chern_integral(max_metric(), q)) <= bound


def test_kink_off_the_panel_break_is_refused():
    """The rule splits its panels at r = 1 only, so a kink elsewhere,
    possible in a hand-built metric, raises DomainError."""

    def jet(r):
        f, df, c1, dc1 = max_metric().jet(r / 2.0)
        return f, df / 2.0, c1, dc1

    kinked = ConformalMetric("kink-at-2", jet, kink_radii=(2.0,))
    assert kinked.line_masses() == pytest.approx((2.0,), rel=1e-15)
    with pytest.raises(DomainError, match="panel break"):
        bott_chern_integral(kinked, fs_metric())
    with pytest.raises(DomainError, match="panel break"):
        bott_chern_bound(fs_metric(), kinked, 1.0)


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
    """The metric's spectrum and its zeta record."""
    (data,) = family_spectral_data((metric,), L, cache=cache)
    return data, zeta_result(data, metric)


def _limit(family, L, cache):
    """quillen_limit of the family, one pipeline run per member and one for
    the limit."""
    members = [
        (p, m, _torsion(m, L, cache)[1]) for p, m in zip(family.parameters, family.members)
    ]
    return quillen_limit(members, (family.limit, _torsion(family.limit, L, cache)[1]))


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
    nothing larger: with budgets of 1e-7 the (pnorm:1, pnorm:2) pair at
    L = 16, whose gap is 3.7e-6, no longer passes."""
    metrics = (pnorm_metric(1.0), pnorm_metric(2.0))
    zp, zq = (_torsion(m, 16, cache)[1]._replace(error_budget=1e-7) for m in metrics)
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
        (d, zeta_result(d, m))
        for m, d in zip(metrics, family_spectral_data(metrics, 16, cache=cache))
    )
    report = two_route_check(metrics[0], zp, metrics[1], zq)
    assert report.passed and report.gap <= report.tolerance
    minus = math.log(dp.volume / dq.volume) - (zp.zeta_prime0 - zq.zeta_prime0)
    assert abs(minus - report.route_curvature) > report.tolerance


def test_quillen_limit_pnorm(cache):
    """Each member row predicts log h_Q(limit) along the anomaly, the last
    row at parameter inf is the limit's own log h_Q, and every row's
    interval prediction +- budget contains the smallest-budget member's
    prediction, which is the limit reported."""
    fam = metric_family("pnorm", [1.0, 2.0, 3.0, 4.0])
    out = _limit(fam, 16, cache)
    assert out.converged
    assert out.failures == ()
    assert [r.param for r in out.rows] == [1.0, 2.0, 3.0, 4.0, math.inf]
    for row, metric in zip(out.rows, fam.members):
        assert row.prediction == row.log_quillen + bott_chern_integral(metric, fam.limit)
    assert out.rows[-1].prediction == out.rows[-1].log_quillen
    assert all(r.budget > 0.0 for r in out.rows)
    assert out.limit == min(out.rows[:-1], key=lambda r: r.budget).prediction
    assert all(abs(r.prediction - out.limit) <= r.budget for r in out.rows)


def test_quillen_limit_takes_computed_members(cache):
    """The sweep computes the members and the limit; quillen_limit reads
    their records, carries the member with the smaller budget to the limit
    along the anomaly, and refuses an empty table."""
    fam = metric_family("pnorm", [2.0, 4.0])
    metrics = fam.members
    rep = sweep(fam, L=16)
    rows = rep.rows
    members = [(r.param, m, r.zeta) for r, m in zip(rows, metrics)]
    out = quillen_limit(members, (fam.limit, rep.limit_row.zeta))
    assert [r.param for r in out.rows] == [2.0, 4.0, math.inf]
    assert out.rows[1].prediction == (
        rows[1].zeta.log_quillen + bott_chern_integral(metrics[1], fam.limit)
    )
    assert [r.budget for r in out.rows] == [
        r.zeta.error_budget for r in (*rows, rep.limit_row)
    ]
    assert out.rows[-1].prediction == rep.limit_row.zeta.log_quillen
    best = min(range(2), key=lambda i: rows[i].zeta.error_budget)
    assert out.limit == rows[best].zeta.log_quillen + bott_chern_integral(metrics[best], fam.limit)
    with pytest.raises(DomainError):
        quillen_limit([], (fam.limit, rep.limit_row.zeta))


@pytest.mark.parametrize("name", ["pnorm", "geomean-pnorm"])
@pytest.mark.parametrize("L", [8, 16, 24, 48])
def test_quillen_limit_covers_the_closed_form(name, L):
    """Every member's prediction of log h_Q(max) and the direct max row lie
    within their own budgets of the closed form -1/6 + 4 zeta'(-1): measured
    0.29-0.62 of the budget for the members and 0.32-0.36 for the direct
    row over L = 8 to 48 on both six-member families."""
    fam = metric_family(name, range(1, 7))
    rep = sweep(fam, L=L)
    out = quillen_limit(
        [(r.param, r.metric, r.zeta) for r in rep.rows], (fam.limit, rep.limit_row.zeta)
    )
    assert out.converged
    for row in out.rows:
        assert abs(row.prediction - MAX_LOG_QUILLEN) <= row.budget, row.param


@pytest.mark.parametrize("name", ["pnorm", "geomean-pnorm"])
def test_bott_chern_cocycle(name):
    """The anomaly integral on its fixed rule is a cocycle: for every member
    pair, I(p, limit) - I(q, limit) = I(p, q) (measured to 8.3e-17), so two
    members' predictions of the limit differ exactly by their two-route gap."""
    fam = metric_family(name, range(1, 7))
    for i, p in enumerate(fam.members):
        for q in fam.members[i + 1:]:
            cocycle = bott_chern_integral(p, fam.limit) - bott_chern_integral(q, fam.limit)
            assert cocycle == pytest.approx(bott_chern_integral(p, q), abs=1e-15), (p.id, q.id)


def test_limit_agreement_between_families(cache):
    """Two different smoothing families, each carried to the limit along the
    exact anomaly, meet the max factor's closed form at L = 24: 9.5e-6 off
    for pnorm and 4.5e-4 for geomean-pnorm, whose members resolve less well.
    Aitken extrapolation of the same tables was 5.0e-2 and 4.9e-2 off."""
    for name, tol in (("pnorm", 1e-4), ("geomean-pnorm", 1e-3)):
        out = _limit(metric_family(name, range(1, 7)), 24, cache)
        assert out.converged
        assert abs(out.limit - MAX_LOG_QUILLEN) <= tol, name


def test_torsion_consistency(cache):
    data, zres = _torsion(pnorm_metric(3.0), 16, cache)
    assert data.metric_id == "pnorm:3"
    assert zres.metric_id == "pnorm:3"
    assert zres.volume == data.volume
    assert zres.log_quillen == pytest.approx(
        math.log(data.volume) + zres.zeta_prime0, rel=1e-14
    )
