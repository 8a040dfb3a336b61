"""Curvature anomaly integrals, determinant metrics, and the two-route check.

Two independent routes compute the change of the determinant metric between
conformal factors. The spectral route assembles

    log h_Q = log vol + zeta'(0)

per metric (``l2``-volume of the constant section times the regularized
determinant). The curvature route evaluates the anomaly integral

    I(p, q) = -(1/12) * integral of log(h_p/h_q) * (mu_p + mu_q)

against the curvature measures mu = c1 dA + (a line mass on each kink), and
predicts log h_Q(p) - log h_Q(q) = -I(p, q), exactly for any two continuous
factors (Polyakov's formula), kinked ones included. ``two_route_pairs``
checks the two routes on each consecutive pair of a family within
``TWO_ROUTE_BUDGET_FACTOR`` times the two zeta'(0) budgets. ``quillen_limit``
checks the paper's theorem along a smoothing family: each member's
prediction of the limit, log h_Q(member) + I(member, limit), and the
limit's own log h_Q agree within their zeta budgets.

One metric's log h_Q is ``ZetaResult.log_quillen`` of its
``heatzeta.zeta_result``, which records the volume of its spectrum.
The checks take those computed results, so a caller runs the pipeline once
per metric and hands each result to every check that reads it.

The sign of zeta'(0) is fixed by the scaling laws. For log vol +
sigma * zeta'(0), under lambda -> t*lambda the volume moves by log t and
zeta'(0) by zeta(0) log t, so the spectral route moves by
(1 + sigma*zeta(0))*log t; the curvature route moves by (1/3)*log t, the
constant log t against the total curvature 2 + 2. With the kernel-excluded
zeta(0) = -2/3 of smooth factors the two agree only for sigma = +1.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .heatzeta import ZetaResult
from .metrics import ConformalMetric
from .quadrature import JET_RULE_NODES, build_quadrature

__all__ = ["TwoRouteReport", "two_route_pairs", "QuillenLimit", "quillen_limit"]

# Tolerance of the two-route check, as a multiple of the two zeta budgets.
TWO_ROUTE_BUDGET_FACTOR = 3.0


def _kinks(*metrics: ConformalMetric) -> list[tuple[float, float]]:
    """(radius, line mass) of every kink of the metrics. The rule is exact
    across a kink only at its panel break r = 1; a kink elsewhere raises
    DomainError."""
    kinks = [(r, m) for metric in metrics for r, m in zip(metric.kink_radii, metric.line_masses())]
    if any(r != 1.0 for r, _ in kinks):
        raise DomainError(f"kink radii {[r for r, _ in kinks]} leave the panel break r = 1")
    return kinks


def _on_rule(
    metric_p: ConformalMetric, metric_q: ConformalMetric
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The area weights w (1 + r^2)^2 of the anomaly rule on its colatitude
    nodes, and (f, c1) of each metric there, from one jet call each."""
    quad = build_quadrature(JET_RULE_NODES)
    r = quad.radii_theta
    (f_p, _, c1_p, *_), (f_q, _, c1_q, *_) = metric_p.jet(r), metric_q.jet(r)
    return quad.weights_theta * (1.0 + r**2) ** 2, (f_p, c1_p), (f_q, c1_q)


def bott_chern_integral(metric_p: ConformalMetric, metric_q: ConformalMetric) -> float:
    """Anomaly integral -(1/12) * int log(h_p/h_q) * (mu_p + mu_q).

    mu is the curvature measure: c1 dA off the kinks plus each kink's line
    mass, which pairs with log(h_p/h_q) on its circle. Antisymmetric in
    (p, q); zero when p = q; affine in log t under p -> scaled(t, p) with
    slope -1/3, the constant log t against the total curvature 2 + 2.
    Radial factors only (all built-in factors are radial), so the integral
    collapses to the colatitude nodes.
    """
    area, (f_p, c1_p), (f_q, c1_q) = _on_rule(metric_p, metric_q)
    lines = sum(
        mass * float(metric_p.log_density(rk) - metric_q.log_density(rk))
        for rk, mass in _kinks(metric_p, metric_q)
    )
    return float(-(np.sum(area * (f_p - f_q) * (c1_p + c1_q)) + lines) / 12.0)


def bott_chern_bound(
    metric_p: ConformalMetric, metric_q: ConformalMetric, distance: float
) -> float:
    """Bound K * sup|log(h_p/h_q)| with K = (1/12) (|mu_p| + |mu_q|)(sphere).

    The total variation |mu| of a curvature measure is int |c1| dA plus the
    kinks' |line mass|. ``distance`` is sup|log(h_p/h_q)|,
    ``metrics.sup_log_distances`` of the pair.
    """
    area, (_, c1_p), (_, c1_q) = _on_rule(metric_p, metric_q)
    lines = sum(abs(mass) for _, mass in _kinks(metric_p, metric_q))
    k = float((np.sum(area * (np.abs(c1_p) + np.abs(c1_q))) + lines) / 12.0)
    return k * distance


class TwoRouteReport(NamedTuple):
    """Spectral-route vs curvature-route change of log h_Q for one pair."""

    metric_p: str
    metric_q: str
    route_spectral: float
    route_curvature: float
    gap: float
    budget: float
    tolerance: float
    passed: bool


def two_route_check(
    metric_p: ConformalMetric,
    zp: ZetaResult,
    metric_q: ConformalMetric,
    zq: ZetaResult,
) -> TwoRouteReport:
    """Compare the two routes to log h_Q(p) - log h_Q(q) on one pair.

    ``zp`` and ``zq`` are the ``zeta_result`` records of ``metric_p`` and
    ``metric_q``; the tolerance is ``TWO_ROUTE_BUDGET_FACTOR`` times the sum
    of their budgets. The anomaly integral has its own fixed rule.
    """
    route1 = zp.log_quillen - zq.log_quillen
    route2 = -bott_chern_integral(metric_p, metric_q)
    budget = zp.error_budget + zq.error_budget
    tol = TWO_ROUTE_BUDGET_FACTOR * budget
    gap = abs(route1 - route2)
    return TwoRouteReport(
        metric_p=metric_p.id,
        metric_q=metric_q.id,
        route_spectral=route1,
        route_curvature=route2,
        gap=gap,
        budget=budget,
        tolerance=tol,
        passed=bool(gap <= tol),
    )


def two_route_pairs(
    members: Sequence[tuple[ConformalMetric, ZetaResult]],
) -> tuple[TwoRouteReport, ...]:
    """`two_route_check` on each consecutive pair of a family's members,
    given in family order with their ``zeta_result`` records."""
    return tuple(two_route_check(*p, *q) for p, q in zip(members, members[1:]))


class QuillenLimitRow(NamedTuple):
    """One row of the limit table: a family member, or the limit itself at
    ``param`` inf, with its prediction of log h_Q(limit) and that
    prediction's budget."""

    param: float
    vol: float
    zeta_prime0: float
    log_quillen: float
    prediction: float
    budget: float


class QuillenLimit(NamedTuple):
    """The predictions of log h_Q(limit) along a family, and its value."""

    rows: tuple[QuillenLimitRow, ...]
    limit: float
    converged: bool
    failures: tuple[str, ...]


def quillen_limit(
    members: Sequence[tuple[float, ConformalMetric, ZetaResult]],
    limit: tuple[ConformalMetric, ZetaResult],
) -> QuillenLimit:
    """Check that every prediction of log h_Q(limit) along a family lies in
    one common budget interval.

    ``members`` lists each member's parameter, metric and ``zeta_result``
    record in family order, as the sweep computed them; ``limit`` is the
    family's limit factor with its own record. A member predicts
    log h_Q(member) + I(member, limit), and a last row at parameter inf
    carries the limit's direct log h_Q, each within its zeta budget. On a
    line the intervals share a point exactly when every pair agrees within
    its two budgets; the pair whose intervals lie farthest apart lands in
    ``failures`` and flips ``converged`` instead of raising. ``limit`` of
    the result is the smallest-budget member's prediction.
    """
    if not members:
        raise DomainError("quillen_limit needs at least one family member")
    limit_metric, z_limit = limit

    def row(param: float, z: ZetaResult, prediction: float) -> QuillenLimitRow:
        return QuillenLimitRow(
            param, z.volume, z.zeta_prime0, z.log_quillen, prediction, z.error_budget
        )

    member_rows = [
        row(float(p), z, z.log_quillen + bott_chern_integral(m, limit_metric))
        for p, m, z in members
    ]
    rows = (*member_rows, row(math.inf, z_limit, z_limit.log_quillen))
    lo = max(rows, key=lambda r: r.prediction - r.budget)
    hi = min(rows, key=lambda r: r.prediction + r.budget)
    failures = ()
    if lo.prediction - lo.budget > hi.prediction + hi.budget:
        failures = (
            f"log h_Q(limit) {lo.prediction:.6e} +- {lo.budget:.3e} from parameter {lo.param:g}"
            f" misses {hi.prediction:.6e} +- {hi.budget:.3e} from parameter {hi.param:g}",
        )
    return QuillenLimit(
        rows=rows,
        limit=min(member_rows, key=lambda r: r.budget).prediction,
        converged=not failures,
        failures=failures,
    )
