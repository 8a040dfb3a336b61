"""Curvature anomaly integrals, determinant metrics, and the two-route check.

Two independent routes compute the change of the determinant metric between
conformal factors. The spectral route assembles

    log h_Q = log vol + zeta'(0)

per metric (``l2``-volume of the constant section times the regularized
determinant). The curvature route evaluates the anomaly integral

    I(p, q) = -(1/12) * integral of log(h_p/h_q) * (c1(h_p) + c1(h_q))

and predicts log h_Q(p) - log h_Q(q) = -I(p, q). Agreement of the two routes
within the propagated error budget is the headline consistency check; the
Cauchy table of ``quillen_limit`` tracks the same quantity along a smoothing
family approaching a non-smooth limit factor.

``quillen_log`` assembles one metric's ``QuillenData`` from its
``pipeline.compute_zeta`` result and the volume of its spectrum. The checks
(``two_route_check``, ``quillen_limit``) take those computed results
instead of rerunning the pipeline, so a caller runs it once per metric and
hands each result to every check that reads it.

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
from .quadrature import QuadratureRule, build_quadrature

__all__ = [
    "TWO_ROUTE_FLOOR",
    "TWO_ROUTE_BUDGET_FACTOR",
    "bott_chern_integral",
    "bott_chern_bound",
    "QuillenData",
    "quillen_log",
    "TwoRouteReport",
    "two_route_check",
    "QuillenLimitRow",
    "QuillenLimit",
    "quillen_limit",
]

# Tolerance of the two-route check: the larger of an absolute floor and a
# multiple of the two zeta budgets.
TWO_ROUTE_FLOOR = 1e-3
TWO_ROUTE_BUDGET_FACTOR = 3.0


def _anomaly_quadrature() -> QuadratureRule:
    # 256 radial nodes split at the equator, where the smoothing families
    # concentrate their curvature.
    return build_quadrature(128)


def bott_chern_integral(metric_p: ConformalMetric, metric_q: ConformalMetric) -> float:
    """Anomaly integral -(1/12) * int log(h_p/h_q) * (c1(h_p) + c1(h_q)).

    Antisymmetric in (p, q); zero when p = q; affine in log t under
    p -> scaled(t, p) with slope -1/3, the constant log t against the total
    curvature 2 + 2. Radial factors only (all built-in factors are radial),
    so the integral collapses to the colatitude nodes. Kinked factors are
    refused: their curvature carries a distributional part on the kink
    circle that no pointwise quadrature sees.
    """
    quad = _anomaly_quadrature()
    r = quad.radii_theta
    dlog = metric_p.log_density(r) - metric_q.log_density(r)
    c1_sum = metric_p.c1_density(r) + metric_q.c1_density(r)
    jac = (1.0 + r**2) ** 2
    return float(-np.sum(quad.weights_theta * jac * dlog * c1_sum) / 12.0)


def bott_chern_bound(
    metric_p: ConformalMetric, metric_q: ConformalMetric, distance: float
) -> float:
    """Bound K * sup|log(h_p/h_q)| with K = (1/12) int (|c1_p| + |c1_q|).

    ``distance`` is sup|log(h_p/h_q)|, ``metrics.sup_log_distance`` of the
    pair.
    """
    quad = _anomaly_quadrature()
    r = quad.radii_theta
    c1_abs = np.abs(metric_p.c1_density(r)) + np.abs(metric_q.c1_density(r))
    jac = (1.0 + r**2) ** 2
    k = float(np.sum(quad.weights_theta * jac * c1_abs) / 12.0)
    return k * distance


class QuillenData(NamedTuple):
    """The determinant-metric logarithm of one conformal factor."""

    metric_id: str
    vol: float
    log_l2: float
    zeta_prime0: float
    log_quillen: float
    error_budget: float


def quillen_log(zeta: ZetaResult, vol: float) -> QuillenData:
    """Assemble log h_Q = log vol + zeta'(0) for one metric.

    ``zeta`` is the metric's ``compute_zeta`` result, which names it, and
    ``vol`` the volume of its solved spectrum, the mass entry M_0[0, 0].
    """
    log_l2 = math.log(vol)
    return QuillenData(
        metric_id=zeta.metric_id,
        vol=float(vol),
        log_l2=log_l2,
        zeta_prime0=zeta.zeta_prime0,
        log_quillen=log_l2 + zeta.zeta_prime0,
        error_budget=zeta.error_budget,
    )


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
    qp: QuillenData,
    metric_q: ConformalMetric,
    qq: QuillenData,
) -> TwoRouteReport:
    """Compare the two routes to log h_Q(p) - log h_Q(q) on a smooth pair.

    ``qp`` and ``qq`` are the determinant-metric logarithms of ``metric_p``
    and ``metric_q`` (``quillen_log`` of each one's ``compute_zeta``); their
    budgets set the tolerance. The anomaly integral has its own fixed rule.
    """
    route1 = qp.log_quillen - qq.log_quillen
    route2 = -bott_chern_integral(metric_p, metric_q)
    budget = qp.error_budget + qq.error_budget
    tol = max(TWO_ROUTE_FLOOR, TWO_ROUTE_BUDGET_FACTOR * budget)
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


class QuillenLimitRow(NamedTuple):
    """One family member in the Cauchy table of log h_Q."""

    param: float
    vol: float
    zeta_prime0: float
    log_quillen: float
    diff_to_prev: float
    bound: float


class QuillenLimit(NamedTuple):
    """Extrapolated limit of log h_Q along a smoothing family."""

    family_id: str
    rows: tuple[QuillenLimitRow, ...]
    limit: float
    converged: bool
    failures: tuple[str, ...]


def _aitken(values: list[float]) -> float:
    """Aitken extrapolation from the last three values (last value fallback)."""
    if len(values) < 3:
        return values[-1]
    x0, x1, x2 = values[-3], values[-2], values[-1]
    d1, d0 = x2 - x1, x1 - x0
    denom = d1 - d0
    if abs(denom) <= 1e-14 * max(abs(d1), abs(d0), 1e-300):
        return x2
    return x2 - d1 * d1 / denom


def quillen_limit(
    family_id: str,
    members: Sequence[tuple[float, ConformalMetric, QuillenData]],
    pair_dist: Sequence[float],
) -> QuillenLimit:
    """Cauchy table and extrapolated limit of log h_Q along a family.

    ``members`` lists each member's parameter, metric and determinant-metric
    logarithm in family order, as the sweep computed them, and ``pair_dist``
    the sweep's sup log-density distance of each consecutive pair. Each
    successive difference is checked against the anomaly bound
    K * sup|log(h_p/h_q)| plus the two members' zeta budgets, and the
    absolute differences must not grow. Violations land in ``failures`` and
    flip ``converged`` instead of raising: non-Cauchy behavior is a finding
    to report, not an input error.
    """
    if not members:
        raise DomainError("quillen_limit needs at least one family member")

    def row(param: float, qd: QuillenData, diff: float, bound: float) -> QuillenLimitRow:
        return QuillenLimitRow(float(param), qd.vol, qd.zeta_prime0, qd.log_quillen, diff, bound)

    rows = [row(members[0][0], members[0][2], math.nan, math.nan)]
    failures: list[str] = []
    for (p0, m0, q0), (p1, m1, q1), dist in zip(members, members[1:], pair_dist):
        diff = q1.log_quillen - q0.log_quillen
        bound = bott_chern_bound(m0, m1, dist)
        slack = q0.error_budget + q1.error_budget
        if abs(diff) > bound + slack:
            failures.append(
                f"|log h_Q({p1:g}) - log h_Q({p0:g})| = {abs(diff):.3e} exceeds "
                f"the anomaly bound {bound:.3e} plus budget {slack:.3e}"
            )
        rows.append(row(p1, q1, diff, bound))

    budgets = [qd.error_budget for _, _, qd in members]
    diffs = [abs(r.diff_to_prev) for r in rows[1:]]
    for i in range(1, len(diffs)):
        slack = budgets[i] + budgets[i + 1]
        if diffs[i] > diffs[i - 1] + slack:
            failures.append(
                f"successive differences grow at parameter {rows[i + 1].param:g}: "
                f"{diffs[i]:.3e} after {diffs[i - 1]:.3e}"
            )
    return QuillenLimit(
        family_id=family_id,
        rows=tuple(rows),
        limit=_aitken([r.log_quillen for r in rows]),
        converged=not failures,
        failures=tuple(failures),
    )
