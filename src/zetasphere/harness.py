"""Convergence harness: run a metric family through the pipeline and check limits.

A smoothing family approaches its singular limit metric in the uniform
log-density sense. Every spectral quantity we compute should then settle
down at a rate controlled by that distance, and several of them obey exact
finite-dimensional inequalities along the way. This module sweeps a family,
tabulates the scalar pipeline per member, and turns each limiting statement
into a quantitative pass/fail check. ``sweep`` is the only place that solves
a family's pencils and runs the scalar pipeline on them: the members and the
limit in one family solve (one Legendre sweep, one stacked LAPACK call per
m), then the pipeline once per row. Each row keeps its metric's ``Spectrum`` (block
eigenvectors and mass blocks), its ``ZetaResult`` and its ordered scalar
``columns``, and every check on the family's own metrics reads the
``SweepReport``: the Cauchy table, the gap floor (mass blocks), the operator
limits (eigenvectors) and the determinant checks of ``anomaly``. No check
solves one of those pencils again; the sweep solves them all on one basis
and uses no disk cache.

- ``sweep`` / ``cauchy_check``: every scalar column is Cauchy with
  differences bounded by (constant) x (sup log-density distance). The limit
  metric's own row closes each column as one more pair at the last member's
  distance to it, since a continuous limit assembles fine.
- ``lambda1_floor``: a uniform positive lower bound on the spectral gap from
  mass-matrix equivalence and the min-max principle.
- ``resolvent_convergence``: resolvents and heat operators form Cauchy
  sequences in operator norm, bounded by the integrated density variation;
  each operator function is one Cauchy column, frozen as the sweep's are.
- ``variation_checks``: the operator's u-variation on one solved path,
  the interpolated pencils at u - h, u, u + h and the mass derivative at u
  from one Legendre sweep. Its parameter derivative is dominated by the sup
  of the density variation, exactly: the spectral radius of the Gram pencil
  (dM, M) is at most that sup (tag bornelapbelt). The heat operator obeys
  the integrated variation identity (the Duhamel half of variationEu).

Every built-in metric is radial, so each operator above is block diagonal
in the harmonic basis with one block per azimuthal index m (the cos and sin
copies share it). The checks work on those blocks: an operator norm is the
largest block norm in the mass inner product (`eigensolve.block_operator_norms`,
handed the mass blocks themselves), a Gram pencil's top eigenvalue or
spectral radius the largest over the blocks, and no n x n matrix is built. Where a check meets
the same block m of several operators or pencils (the gap floor, the
operator limits), it solves them as one stack per m.

Constants in the bounds (written c, c3, C below) are existential, so the
harness measures each one on the first pair of the sweep, freezes it with a
2x safety factor, and asserts the bound on all remaining pairs. That turns
"there exists a constant" into a regression test without inventing values.

``convergence_summary`` orchestrates all checks and reports one boolean per
named check tag; the CLI writes these to summary.json. It hands the sweep
rows to ``anomaly.quillen_limit`` (tag convergenceAnomaly) and every
consecutive pair to ``anomaly.two_route_pairs`` (tag compare2methods), as
the ``anomaly`` command does. A member whose pipeline raises ends the
sweep, and the run, with that member's own error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .anomaly import QuillenLimit, TwoRouteReport, quillen_limit, two_route_pairs
from .discretize import build_basis, mass_weights, stiffness, variation_weights, weighted_grams
from .eigensolve import (
    Spectrum,
    block_operator_norms,
    family_eigs,
    heat_operator,
    pencil_eigvalsh,
    resolvent,
)
from .errors import DomainError
from .heatzeta import ZetaResult, theta_values, zeta_result
from .metrics import (
    ConformalMetric,
    MetricFamily,
    d_log_density_du,
    delta_X,
    interpolate,
    sup_log_distance,
)
from .pipeline import family_spectra
from .quadrature import gauss_legendre

__all__ = ["THEOREM_TAGS", "convergence_summary"]

# Safety factor applied to every constant measured on the first sweep pair.
FROZEN_SAFETY = 2.0

# Residual of the integrated variation identity, relative to the derivative
# norm, at the default step; refinement tests halve it further.
DUHAMEL_RATIO_TOL = 1e-4

# Stable identifiers of the named checks, in reporting order.
THEOREM_TAGS = (
    "laplaceTX",
    "bornelapbelt",
    "deltacompact",
    "variationEu",
    "key2",
    "convergenceAnomaly",
    "compare2methods",
    "lowerbound",
)

# Sweep columns that carry the zeta error budget as measurement noise.
_BUDGET_COLUMNS = frozenset({"zeta_prime0", "log_quillen"})

_TINY_REL = 1e-9

# Gauss-Legendre nodes of the density-variation integral over one segment.
_DELTA_GL_NODES = 8

# Resolvent shift and heat time of the operator-limit checks.
_RESOLVENT_SHIFT = 1.0
_HEAT_TIME = 1.0

# Parameter step of the centered difference in the variation identity.
_DUHAMEL_STEP = 1e-3


class SweepRow(NamedTuple):
    """Scalar pipeline output for one family member, with its spectrum.

    ``columns`` is the row's ordered table of scalars, the one the Cauchy
    check and converge.csv read: ``vol``, ``lambda1``, ``theta_t<t>`` per
    tabulated time, ``zeta_prime0``, ``log_quillen``. The volume is b_-1 of
    the heat trace exactly, and the theta columns test the discrete trace.
    ``zeta`` is the member's ``heatzeta.zeta_result``, with its volume and
    log h_Q, as the checks of ``anomaly`` take it. ``spectrum`` is the
    member's solved pencil, which the operator checks read.
    """

    param: float
    columns: dict[str, float]
    sup_log_dist_to_limit: float
    zeta: ZetaResult
    spectrum: Spectrum


class SweepReport(NamedTuple):
    """One family sweep: a row per member and the limit metric's own row.

    ``family`` is the swept family, whose density variation
    ``resolvent_convergence`` integrates; ``rows`` follow its parameters.
    ``limit_row`` is the limit metric's row (parameter inf, distance 0 to
    itself); it closes the Cauchy table but never enters converge.csv.
    ``pair_dist`` holds the sup log-density distance of consecutive members.
    """

    family: MetricFamily
    rows: tuple[SweepRow, ...]
    limit_row: SweepRow
    pair_dist: tuple[float, ...]


def _pipeline_row(
    param: float,
    metric: ConformalMetric,
    limit: ConformalMetric,
    theta_columns: dict[str, float],
    spectrum: Spectrum,
) -> SweepRow:
    """Run the scalar pipeline on one metric's solved pencil, tabulate its row."""
    zres = zeta_result(spectrum, metric)
    th = theta_values(spectrum.eigenvalues, np.array(list(theta_columns.values())))
    return SweepRow(
        param=param,
        columns={
            "vol": zres.volume,
            "lambda1": spectrum.lambda1,
            **{name: float(v) for name, v in zip(theta_columns, th)},
            "zeta_prime0": zres.zeta_prime0,
            "log_quillen": zres.log_quillen,
        },
        sup_log_dist_to_limit=sup_log_distance(metric, limit),
        zeta=zres,
        spectrum=spectrum,
    )


def sweep(
    family: MetricFamily,
    L: int = 24,
    t_set: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> SweepReport:
    """Solve and run the scalar pipeline once per family member and for the limit.

    Parameters
    ----------
    family : MetricFamily
        The family to sweep, with strictly ascending parameters; rows are
        produced for its members and its limit, never for interpolated
        metrics. A caller that wants fewer members builds a smaller family.
    L : int
        Spectral truncation degree for every metric.
    t_set : tuple of float
        Heat-trace times tabulated per row, one ``theta_t<t>`` column each;
        two times whose column names coincide are refused.

    Returns
    -------
    SweepReport
        Member rows in parameter order plus the limit's row; each row keeps
        its spectrum, solved in process. A member whose pipeline raises, or
        whose row is non-finite, ends the sweep with that error. A
        nonpositive gap is not an error here: the ``laplaceTX`` tag of
        ``convergence_summary`` reports it.
    """
    params = tuple(float(p) for p in family.parameters)
    if len(params) < 1:
        raise DomainError("sweep needs at least one parameter")
    if any(b <= a for a, b in zip(params, params[1:])):
        raise DomainError(f"sweep parameters must be strictly ascending, got {params}")
    t_arr = np.asarray(t_set, dtype=float)
    if t_arr.size == 0 or np.any(t_arr <= 0.0):
        raise DomainError(f"t_set must be positive times, got {t_set}")
    theta_columns = {f"theta_t{t:g}": float(t) for t in t_arr}
    if len(theta_columns) < t_arr.size:
        raise DomainError(f"t_set times must have distinct column names, got {t_set}")

    limit = family.limit
    spectra = family_spectra((*family.members, limit), L)
    rows: list[SweepRow] = []
    for p, metric, spectrum in zip(params, family.members, spectra):
        row = _pipeline_row(p, metric, limit, theta_columns, spectrum)
        if not all(math.isfinite(v) for v in (*row.columns.values(), row.sup_log_dist_to_limit)):
            raise DomainError(f"non-finite sweep column for parameter {p}")
        rows.append(row)
    limit_row = _pipeline_row(math.inf, limit, limit, theta_columns, spectra[-1])
    members = family.members
    pair_dist = tuple(sup_log_distance(a, b) for a, b in zip(members, members[1:]))
    return SweepReport(
        family=family,
        rows=tuple(rows),
        limit_row=limit_row,
        pair_dist=pair_dist,
    )


class CauchyColumn(NamedTuple):
    """Cauchy data of one sweep column: |differences| against frozen bounds."""

    name: str
    c_frozen: float
    diffs: tuple[float, ...]
    bounds: tuple[float, ...]
    passed: bool


class CauchyReport(NamedTuple):
    """Per-column Cauchy verdicts for one sweep."""

    columns: tuple[CauchyColumn, ...]
    violations: tuple[str, ...]
    passed: bool


def _cauchy_column(
    name: str, labels: list[str], diffs: list[float], scales, slack
) -> tuple[CauchyColumn, list[str]]:
    """Freeze the constant of |diffs[i]| <= c scales[i] + slack[i] on pair 0.

    c is measured on the first pair and multiplied by ``FROZEN_SAFETY``; the
    bound is asserted on the remaining pairs. A first scale below
    ``_TINY_REL`` (a family that does not vary) gives c = 0, and then every
    pair must stay within its slack. Returns the column and a message for
    each pair, named by its label, that exceeds its bound.
    """
    measured = scales[0] > _TINY_REL
    c = float(FROZEN_SAFETY * diffs[0] / scales[0]) if measured else 0.0
    bounds = tuple(float(c * x + e) for x, e in zip(scales, slack))
    violations = [
        f"column {name}: pair {labels[i]} difference {diffs[i]:.3e} "
        f"exceeds frozen bound {bounds[i]:.3e}"
        for i in range(1 if measured else 0, len(diffs))
        if diffs[i] > bounds[i]
    ]
    return CauchyColumn(name, c, tuple(diffs), bounds, not violations), violations


def cauchy_check(report: SweepReport) -> CauchyReport:
    """Check every sweep column is Cauchy at the sup-log-distance rate.

    The pairs of a column are the consecutive members, closed by (last
    member, limit) at the last member's distance to the limit. For each
    column the constant C in |x_i - x_{i+1}| <= C * dist_i is measured on
    the first pair, frozen with the 2x safety factor, and asserted on every
    other pair, the closing one included. The zeta'(0) and log h_Q columns
    get the two rows' zeta error budgets as slack, the exact columns only a
    relative epsilon of the pair's larger value. A constant family (zero
    distances) must have zero differences up to the slack.
    """
    rows = report.rows
    if len(rows) < 2:
        raise DomainError("cauchy_check needs at least two sweep rows")

    pairs = [*zip(rows, rows[1:]), (rows[-1], report.limit_row)]
    scales = [*report.pair_dist, rows[-1].sup_log_dist_to_limit]
    labels = [f"({a.param:g}, {b.param:g})" for a, b in pairs]
    columns: list[CauchyColumn] = []
    violations: list[str] = []
    for name in rows[0].columns:
        values = [(a.columns[name], b.columns[name]) for a, b in pairs]
        d = [abs(x - y) for x, y in values]
        if name in _BUDGET_COLUMNS:
            slack = [a.zeta.error_budget + b.zeta.error_budget for a, b in pairs]
        else:
            slack = [_TINY_REL * (1.0 + max(abs(x), abs(y))) for x, y in values]
        column, bad = _cauchy_column(name, labels, d, scales, slack)
        columns.append(column)
        violations += bad
    return CauchyReport(
        columns=tuple(columns),
        violations=tuple(violations),
        passed=not violations,
    )


class Lambda1FloorRow(NamedTuple):
    """One metric in the uniform gap bound: its gap and equivalence constant."""

    param: float
    lambda1: float
    c_member: float


class Lambda1Floor(NamedTuple):
    """Uniform lower bound on the spectral gap across a family.

    The Dirichlet form is metric-independent, so mass-matrix equivalence
    v'M_p v <= c v'M_ref v pushes every Rayleigh quotient up by 1/c and the
    min-max principle gives lambda1(p) >= lambda1(ref)/c. A member's constant
    is the top eigenvalue of the Gram pencil (M_p, M_ref), the largest over
    the azimuthal blocks; ``c`` is the largest over the members, ``floor``
    the first member's gap over c, ``kappa`` the smallest gap.
    """

    c: float
    floor: float
    kappa: float
    margin: float
    rows: tuple[Lambda1FloorRow, ...]
    passed: bool


def lambda1_floor(report: SweepReport) -> Lambda1Floor:
    """Verify the uniform spectral-gap floor lambda1 >= lambda1(ref)/c.

    Everything comes from the sweep ``report``: each row's gap and the mass
    blocks of its solved pencil, so nothing is assembled here; the Gram
    pencils of every row share one stacked solve per m. The reference
    is the first member; the limit metric joins the rows (parameter
    reported as inf) since the bound must be uniform up to the limit.
    """
    if len(report.rows) < 2:
        raise DomainError("lambda1_floor needs at least two members")
    rows_in = [*report.rows, report.limit_row]

    # per m, one stacked pencil solve of every row's M_m against M_ref
    tops = np.max([
        pencil_eigvalsh(np.stack([row.spectrum.mass_blocks[m] for row in rows_in]), M_ref)[:, -1]
        for m, M_ref in enumerate(report.rows[0].spectrum.mass_blocks)
    ], axis=0)
    rows = [
        Lambda1FloorRow(row.param, row.spectrum.lambda1, float(c_member))
        for row, c_member in zip(rows_in, tops)
    ]

    c = max(r.c_member for r in rows)
    floor = rows[0].lambda1 / c
    kappa = min(r.lambda1 for r in rows)
    margin = kappa - floor
    return Lambda1Floor(
        c=c,
        floor=floor,
        kappa=kappa,
        margin=margin,
        rows=tuple(rows),
        passed=bool(math.isfinite(margin) and kappa >= floor * (1.0 - 1e-12)),
    )


class ResolventReport(NamedTuple):
    """Cauchy columns of resolvents and heat operators along a family.

    ``columns`` holds one `CauchyColumn` per operator function, keyed
    ``resolvent`` and ``heat``: the distances of consecutive member pairs,
    operator norms in the first member's mass inner product (the largest
    over the azimuthal blocks), against their frozen bounds. A column's
    ``c_frozen`` is the c3 of its bound. A column passes when every pair is
    within its bound and the distances do not grow. ``limit_dist`` maps each
    function to the distance from the last member to the limit metric's
    operator, reported without a bound (the interpolation path stops at the
    last member).
    """

    columns: dict[str, CauchyColumn]
    limit_dist: dict[str, float]
    failures: tuple[str, ...]
    passed: bool


def resolvent_convergence(report: SweepReport) -> ResolventReport:
    """Check resolvents and heat operators are Cauchy along the family.

    The operators are built from the spectra of the sweep ``report``, in the
    mass inner product of its first member, so no pencil is solved here.
    For each of the two operator functions, consecutive member pairs (from
    the second member on, matching the interpolation domain) are compared in
    operator norm, and the distances form one Cauchy column: each must stay
    below c3 times the integrated density variation over the joining
    segment, with c3 frozen on the first pair as for `cauchy_check` (0 for a
    family without density variation, whose distances must then stay below
    the roundoff slack). Differences must not grow either, and the distance
    to the limit row's operator is reported beside each column. The norms of
    all pairs share one stacked solve and SVD per block m.
    """
    members = report.rows
    if len(members) < 3:
        raise DomainError("resolvent_convergence needs at least three members")

    gram_ref = members[0].spectrum.mass_blocks
    xg, wg = gauss_legendre(_DELTA_GL_NODES)
    deltas = [
        float(np.sum(wg * 0.5 * np.array([delta_X(report.family, k + 0.5 + 0.5 * x) for x in xg])))
        for k in range(1, len(members) - 1)
    ]
    labels = [f"({a.param:g}, {b.param:g})" for a, b in zip(members[1:], members[2:])]
    slack = [_TINY_REL] * len(deltas)

    chain = [*(row.spectrum for row in members[1:]), report.limit_row.spectrum]
    operators = {
        "resolvent": lambda spec: resolvent(spec, _RESOLVENT_SHIFT),
        "heat": lambda spec: heat_operator(spec, _HEAT_TIME),
    }
    columns: dict[str, CauchyColumn] = {}
    limit_dist: dict[str, float] = {}
    failures: list[str] = []
    for name, op in operators.items():
        # per m, the differences of consecutive operators along the chain as
        # one stack, the last pair (last member, limit)
        blocks = [np.stack(bm) for bm in zip(*(op(spec) for spec in chain))]
        norms = block_operator_norms([b[:-1] - b[1:] for b in blocks], gram_ref)
        dists = [float(x) for x in norms[: len(labels)]]
        column, bad = _cauchy_column(name, labels, dists, deltas, slack)
        grew = [
            f"column {name}: distances grew at pair {labels[i]}: "
            f"{dists[i]:.3e} after {dists[i - 1]:.3e}"
            for i in range(1, len(dists))
            if dists[i] > dists[i - 1] * (1.0 + _TINY_REL) + _TINY_REL
        ]
        columns[name] = column._replace(passed=column.passed and not grew)
        failures += bad + grew
        limit_dist[name] = float(norms[-1])

    return ResolventReport(
        columns=columns,
        limit_dist=limit_dist,
        failures=tuple(failures),
        passed=all(c.passed for c in columns.values()),
    )


class BorneReport(NamedTuple):
    """The operator variation's exact bound against the density variation."""

    u: float
    delta_nodes: float
    max_ratio: float
    passed: bool


class DuhamelReport(NamedTuple):
    """Defect of the integrated variation identity at one (u, t)."""

    residual: float
    derivative_norm: float
    ratio: float


def _duhamel_residual(
    spec_lo: Spectrum, spec_mid: Spectrum, spec_hi: Spectrum, h: float, t: float, n_nodes: int
) -> DuhamelReport:
    """Check d/du exp(-t Delta_u) = -int_0^t E(t-s) (d Delta/du) E(s) ds.

    The time integral is an ``n_nodes``-point Gauss-Legendre rule on [0, t].
    Both derivatives are centered differences with the same step h, so the
    residual measures the integral identity itself, not the differencing.
    Everything runs per azimuthal block m; norms are operator norms in the
    mass inner product of the middle metric, the largest over the blocks.
    """
    dE = tuple(
        (hi - lo) / (2.0 * h)
        for hi, lo in zip(heat_operator(spec_hi, t), heat_operator(spec_lo, t))
    )
    d_lap = tuple(
        (np.linalg.inv(M_hi) - np.linalg.inv(M_lo)) * (stiffness(spec_mid.L, m) / (2.0 * h))
        for m, (M_hi, M_lo) in enumerate(zip(spec_hi.mass_blocks, spec_lo.mass_blocks))
    )

    xg, wg = gauss_legendre(n_nodes)
    s_nodes = 0.5 * t * (xg + 1.0)
    s_wts = 0.5 * t * wg
    acc = []
    for lam, V, M, D in zip(
        spec_mid.block_values, spec_mid.block_vectors, spec_mid.mass_blocks, d_lap
    ):
        # E(t - s) and E(s) of this block at every node, as two stacks
        VtM = V.T @ M
        late = (V * np.exp(-(t - s_nodes)[:, None] * lam)[:, None, :]) @ VtM
        early = (V * np.exp(-s_nodes[:, None] * lam)[:, None, :]) @ VtM
        a = np.zeros_like(D)
        for w, term in zip(s_wts, late @ D @ early):  # in node order
            a += w * term
        acc.append(a)
    resid, d_norm = block_operator_norms(
        [np.stack((d + a, d)) for d, a in zip(dE, acc)], spec_mid.mass_blocks
    )
    ratio = resid / d_norm if d_norm > 0.0 else 0.0
    return DuhamelReport(float(resid), float(d_norm), float(ratio))


def variation_checks(
    family: MetricFamily,
    u: float = 2.5,
    L: int = 16,
    h: float = _DUHAMEL_STEP,
    t: float = 0.5,
    n_nodes: int = 32,
) -> tuple[BorneReport, DuhamelReport]:
    """Both variation checks at u, on one basis and one Legendre sweep: per
    m, one stack of the Gram blocks of the mass at u - h, u, u + h and of
    its u-derivative at u.

    Borne: the Dirichlet form does not depend on u, so the operator varies
    only through the mass matrix, d(Lap) = -B Lap with B = M^{-1} dM. B is
    self-adjoint in the mass inner product, so

        ||d(Lap) v||_M <= ||B||_M ||Lap v||_M   for every v,

    and ``max_ratio`` = ||B||_M is the largest |eigenvalue| of the Gram
    pencils (dM_m, M_m). A Rayleigh quotient of a block is an average of
    d(log density)/du over the nodes with positive weights, hence
    max_ratio <= ``delta_nodes`` = max over the nodes of |d log density/du|
    holds exactly in the discretization, up to roundoff.

    Duhamel: the three mass stacks are solved together, and the centered
    difference of the heat operator at time ``t`` must match the integral
    of E(t - s) dLap E(s) (`_duhamel_residual`), to the quadrature and
    differencing level, far below the derivative's norm.
    """
    if t <= 0.0 or h <= 0.0:
        raise DomainError("need positive t and h")
    path = [interpolate(family, v) for v in (u - h, u, u + h)]
    basis = build_basis(L)
    dlog = d_log_density_du(family, u, basis.quad.radii_theta)
    rows = np.stack([
        *(mass_weights(basis, g) for g in path), variation_weights(basis, path[1], dlog)
    ])
    grams = tuple(weighted_grams(basis, rows))
    max_ratio = max(float(np.abs(pencil_eigvalsh(G[3], G[1])).max()) for G in grams)
    delta_nodes = float(np.abs(dlog).max())
    borne = BorneReport(
        u=float(u),
        delta_nodes=delta_nodes,
        max_ratio=max_ratio,
        passed=bool(max_ratio <= delta_nodes * (1.0 + 1e-9) + 1e-15),
    )
    spectra = family_eigs([G[:3] for G in grams], L, [g.id for g in path])
    return borne, _duhamel_residual(*spectra, h, t, n_nodes)


class ConvergenceSummary(NamedTuple):
    """Every harness check on one family, with one verdict per named tag."""

    family_id: str
    L: int
    sweep: SweepReport
    cauchy: CauchyReport
    floor: Lambda1Floor
    resolvents: ResolventReport
    borne: BorneReport
    duhamel: DuhamelReport
    quillen: QuillenLimit
    two_route: tuple[TwoRouteReport, ...]
    tags: dict[str, bool]


def convergence_summary(
    family: MetricFamily,
    L: int = 24,
    t_set: tuple[float, ...] = (0.5, 1.0, 2.0),
    variation_u: float = 2.5,
    variation_L: int = 16,
) -> ConvergenceSummary:
    """Run every convergence check on one family and aggregate tag verdicts.

    The sweep, Cauchy rates, gap floor, operator limits, transported
    limit determinant and two-route checks run at degree ``L``; the variation
    checks run at the lighter ``variation_L``, since they solve three
    interpolated pencils of their own, in one solve. Every family member
    takes part. A family with fewer than three members (the operator limits)
    or fewer than the ceil(variation_u + h) + 1 the variation checks
    interpolate is refused before any pencil is solved.

    Each member's and the limit's pencil is solved once, in the sweep,
    which also runs the scalar pipeline on it; the Cauchy table, the gap
    floor, the operator limits and the determinant checks read its report.
    No disk cache is read or written. A member whose pipeline raises ends
    the run with that member's own error.
    """
    need = max(3, math.ceil(variation_u + _DUHAMEL_STEP) + 1)
    if len(family.members) < need:
        raise DomainError(
            f"convergence_summary needs at least {need} family members, "
            f"only {len(family.members)} present"
        )
    rep = sweep(family, L=L, t_set=t_set)
    cauchy = cauchy_check(rep)
    floor = lambda1_floor(rep)
    resolvents = resolvent_convergence(rep)
    borne, duhamel = variation_checks(family, u=variation_u, L=variation_L)
    members = [(r.param, m, r.zeta) for r, m in zip(rep.rows, family.members)]
    quillen = quillen_limit(members, rep.pair_dist, family.limit)
    two_route = two_route_pairs([(m, z) for _, m, z in members])

    tags = {
        "laplaceTX": bool(rep.rows) and all(r.spectrum.lambda1 > 0.0 for r in rep.rows),
        "bornelapbelt": borne.passed,
        "deltacompact": resolvents.columns["resolvent"].passed,
        "variationEu": resolvents.columns["heat"].passed and duhamel.ratio < DUHAMEL_RATIO_TOL,
        "key2": cauchy.passed,
        "convergenceAnomaly": quillen.converged,
        "compare2methods": all(r.passed for r in two_route),
        "lowerbound": floor.passed,
    }
    return ConvergenceSummary(
        family_id=family.id,
        L=L,
        sweep=rep,
        cauchy=cauchy,
        floor=floor,
        resolvents=resolvents,
        borne=borne,
        duhamel=duhamel,
        quillen=quillen,
        two_route=two_route,
        tags=tags,
    )
