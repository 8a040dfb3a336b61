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
eigenvectors and mass blocks), ``QuillenData`` and its ordered scalar
``columns``, and every check on the family's own metrics reads the
``SweepReport``: the Cauchy table, the gap floor (mass blocks), the operator
limits (eigenvectors) and the determinant checks of ``anomaly``. No check
solves one of those pencils again; the sweep solves them all on one basis
and uses no disk cache.

- ``sweep`` / ``cauchy_check``: every scalar column is Cauchy with
  differences bounded by (constant) x (sup log-density distance). When the
  family has a limit, the limit metric's own row closes each column as one
  more pair at the last member's distance to it, since a continuous limit
  assembles fine.
- ``lambda1_floor``: a uniform positive lower bound on the spectral gap from
  mass-matrix equivalence and the min-max principle.
- ``resolvent_convergence``: resolvents and heat operators form Cauchy
  sequences in operator norm, bounded by the integrated density variation;
  each operator function is one Cauchy column, frozen as the sweep's are.
- ``bornelapbelt_check``: the parameter derivative of the operator is
  dominated by the sup of the density variation, exactly: the spectral
  radius of the Gram pencil (dM, M) is at most that sup.
- ``duhamel_at``: the integrated variation identity for the heat operator,
  on three interpolated pencils solved together.

Every built-in metric is radial, so each operator above is block diagonal
in the harmonic basis with one block per azimuthal index m (the cos and sin
copies share it). The checks work on those blocks: an operator norm is the
largest block norm, a Gram pencil's top eigenvalue or spectral radius the
largest over the blocks, and no n x n matrix is built. Where a check meets
the same block m of several operators or pencils (the gap floor, the
operator limits), it solves them as one stack per m.

Constants in the bounds (written c, c3, C below) are existential, so the
harness measures each one on the first pair of the sweep, freezes it with a
2x safety factor, and asserts the bound on all remaining pairs. That turns
"there exists a constant" into a regression test without inventing values.

``convergence_summary`` orchestrates all checks and reports one boolean per
named check tag; the CLI writes these to summary.json. It hands the sweep
rows to ``anomaly.quillen_limit`` (tag convergenceAnomaly) and the first two
rows to ``anomaly.two_route_check`` (tag compare2methods). A member whose
pipeline raises ends the sweep, and the run, with that member's own error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .anomaly import (
    QuillenData,
    QuillenLimit,
    TwoRouteReport,
    quillen_limit,
    quillen_log,
    two_route_check,
)
from .discretize import (
    build_basis,
    mass_weights,
    variation_weights,
    weighted_grams,
)
from .eigensolve import Spectrum, pencil_eigvalsh, resolvent
from .errors import DomainError
from .heatzeta import (
    DEFAULT_TRUNC_TOL,
    DuhamelReport,
    duhamel_residual,
    heat_operator,
    theta_values,
)
from .metrics import ConformalMetric, MetricFamily, delta_X, interpolate, sup_log_distance
from .operators import InnerProduct, block_operator_norms
from .pipeline import compute_zeta, family_spectra
from .quadrature import gauss_legendre

__all__ = [
    "FROZEN_SAFETY",
    "DUHAMEL_RATIO_TOL",
    "THEOREM_TAGS",
    "SweepRow",
    "SweepReport",
    "sweep",
    "CauchyColumn",
    "CauchyReport",
    "cauchy_check",
    "Lambda1FloorRow",
    "Lambda1Floor",
    "lambda1_floor",
    "ResolventReport",
    "resolvent_convergence",
    "BorneReport",
    "bornelapbelt_check",
    "duhamel_at",
    "ConvergenceSummary",
    "convergence_summary",
]

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

# Sweep columns whose values come out of the heat-trace fit and therefore
# carry the zeta error budget as measurement noise.
_BUDGET_COLUMNS = frozenset({"b_minus1", "b0", "zeta_prime0", "log_quillen"})

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
    tabulated time, ``b_minus1``, ``b0``, ``zeta_prime0``, ``log_quillen``.
    ``quillen`` holds the member's volume, zeta'(0), log h_Q and zeta error
    budget, as the checks of ``anomaly`` take them. ``spectrum`` is the
    member's solved pencil, which the operator checks read.
    """

    param: float
    columns: dict[str, float]
    sup_log_dist_to_limit: float
    quillen: QuillenData
    spectrum: Spectrum

    @property
    def lambda1(self) -> float:
        return self.spectrum.lambda1


class SweepReport(NamedTuple):
    """One family sweep: a row per member and the limit metric's own row.

    ``rows`` follow ``family.parameters``. ``limit_row`` is the limit
    metric's row (parameter inf, no distance to itself), or None for a
    family without a limit; it closes the Cauchy table but never enters
    converge.csv. ``pair_dist`` holds the sup log-density distance of
    consecutive members.
    """

    family: MetricFamily
    L: int
    t_set: tuple[float, ...]
    rows: tuple[SweepRow, ...]
    limit_row: SweepRow | None
    pair_dist: tuple[float, ...]

    @property
    def family_id(self) -> str:
        return self.family.id


def _check_row_finite(row: SweepRow, require_dist: bool) -> None:
    values = list(row.columns.values())
    if require_dist:
        values.append(row.sup_log_dist_to_limit)
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"non-finite sweep column for parameter {row.param}")


def _pipeline_row(
    param: float,
    metric: ConformalMetric,
    limit: ConformalMetric | None,
    theta_columns: dict[str, float],
    spectrum: Spectrum,
    window: tuple[float, float] | None,
    trunc_tol: float,
) -> SweepRow:
    """Run the scalar pipeline on one metric's solved pencil, tabulate its row."""
    zres = compute_zeta(spectrum.eigenvalues, metric, window, trunc_tol=trunc_tol)
    q = quillen_log(zres, spectrum.volume)
    th = theta_values(spectrum.eigenvalues, np.array(list(theta_columns.values())))
    return SweepRow(
        param=param,
        columns={
            "vol": q.vol,
            "lambda1": spectrum.lambda1,
            **{name: float(v) for name, v in zip(theta_columns, th)},
            "b_minus1": zres.fit.b_minus1,
            "b0": zres.fit.b0,
            "zeta_prime0": q.zeta_prime0,
            "log_quillen": q.log_quillen,
        },
        sup_log_dist_to_limit=(
            math.nan if limit is None else sup_log_distance(metric, limit)
        ),
        quillen=q,
        spectrum=spectrum,
    )


def sweep(
    family: MetricFamily,
    L: int = 24,
    t_set: tuple[float, ...] = (0.5, 1.0, 2.0),
    window: tuple[float, float] | None = None,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    n_theta: int | None = None,
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
    window, trunc_tol
        Passed through to the heat-trace fit.
    n_theta : int, optional
        Colatitude nodes per panel of the basis; 2L + 2 by default.

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

    limit = () if family.limit is None else (family.limit,)
    spectra = family_spectra((*family.members, *limit), L, n_theta)
    rows: list[SweepRow] = []
    for p, metric, spectrum in zip(params, family.members, spectra):
        row = _pipeline_row(
            p, metric, family.limit, theta_columns, spectrum, window, trunc_tol
        )
        _check_row_finite(row, require_dist=family.limit is not None)
        rows.append(row)
    limit_row = None
    if family.limit is not None:
        limit_row = _pipeline_row(
            math.inf, family.limit, None, theta_columns, spectra[-1], window, trunc_tol
        )
    members = family.members
    pair_dist = tuple(sup_log_distance(a, b) for a, b in zip(members, members[1:]))
    return SweepReport(
        family=family,
        L=L,
        t_set=tuple(float(t) for t in t_arr),
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

    family_id: str
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
    member, limit) at the last member's distance to the limit when the
    family has one. For each column the constant C in
    |x_i - x_{i+1}| <= C * dist_i is measured on the first pair, frozen with
    the 2x safety factor, and asserted on every other pair, the closing one
    included. Fit-derived columns get the two rows' zeta error budgets as
    slack; exact columns only a relative epsilon of the pair's larger value.
    A constant family (zero distances) must have zero differences up to the
    slack.
    """
    rows = report.rows
    if len(rows) < 2:
        raise DomainError("cauchy_check needs at least two sweep rows")

    pairs = list(zip(rows, rows[1:]))
    scales = list(report.pair_dist)
    if report.limit_row is not None:
        pairs.append((rows[-1], report.limit_row))
        scales.append(rows[-1].sup_log_dist_to_limit)
    labels = [f"({a.param:g}, {b.param:g})" for a, b in pairs]
    columns: list[CauchyColumn] = []
    violations: list[str] = []
    for name in rows[0].columns:
        values = [(a.columns[name], b.columns[name]) for a, b in pairs]
        d = [abs(x - y) for x, y in values]
        if name in _BUDGET_COLUMNS:
            slack = [a.quillen.error_budget + b.quillen.error_budget for a, b in pairs]
        else:
            slack = [_TINY_REL * (1.0 + max(abs(x), abs(y))) for x, y in values]
        column, bad = _cauchy_column(name, labels, d, scales, slack)
        columns.append(column)
        violations += bad
    return CauchyReport(
        family_id=report.family_id,
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
    the azimuthal blocks; ``c`` is the largest over the members, ``kappa``
    the smallest gap.
    """

    family_id: str
    L: int
    reference_param: float
    lambda1_ref: float
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
    is the first member; the limit metric joins the rows when present
    (parameter reported as inf) since the bound must be uniform up to the
    limit.
    """
    if len(report.rows) < 2:
        raise DomainError("lambda1_floor needs at least two members")
    rows_in = list(report.rows)
    if report.limit_row is not None:
        rows_in.append(report.limit_row)

    # per m, one stacked pencil solve of every row's M_m against M_ref
    tops = np.max([
        pencil_eigvalsh(np.stack([row.spectrum.mass_blocks[m] for row in rows_in]), M_ref)[:, -1]
        for m, M_ref in enumerate(report.rows[0].spectrum.mass_blocks)
    ], axis=0)
    rows = [
        Lambda1FloorRow(row.param, row.lambda1, float(c_member))
        for row, c_member in zip(rows_in, tops)
    ]

    c = max(r.c_member for r in rows)
    lambda1_ref = rows[0].lambda1
    floor = lambda1_ref / c
    kappa = min(r.lambda1 for r in rows)
    margin = kappa - floor
    return Lambda1Floor(
        family_id=report.family_id,
        L=report.L,
        reference_param=rows[0].param,
        lambda1_ref=lambda1_ref,
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
    last member), or NaN for a family without a limit.
    """

    family_id: str
    L: int
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

    ip_ref = [InnerProduct.from_gram(M) for M in members[0].spectrum.mass_blocks]
    xg, wg = gauss_legendre(_DELTA_GL_NODES)
    deltas = [
        float(np.sum(wg * 0.5 * np.array([delta_X(report.family, k + 0.5 + 0.5 * x) for x in xg])))
        for k in range(1, len(members) - 1)
    ]
    labels = [f"({a.param:g}, {b.param:g})" for a, b in zip(members[1:], members[2:])]
    slack = [_TINY_REL] * len(deltas)

    chain = [row.spectrum for row in members[1:]]
    if report.limit_row is not None:
        chain.append(report.limit_row.spectrum)
    operators = {
        "resolvent": lambda spec: resolvent(spec, _RESOLVENT_SHIFT),
        "heat": lambda spec: heat_operator(spec, _HEAT_TIME),
    }
    columns: dict[str, CauchyColumn] = {}
    limit_dist: dict[str, float] = {}
    failures: list[str] = []
    for name, op in operators.items():
        # per m, the differences of consecutive operators along the chain as
        # one stack, the last pair (last member, limit) when there is a limit
        blocks = [np.stack(bm) for bm in zip(*(op(spec) for spec in chain))]
        norms = block_operator_norms([b[:-1] - b[1:] for b in blocks], ip_ref)
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
        limit_dist[name] = math.nan if report.limit_row is None else float(norms[-1])

    return ResolventReport(
        family_id=report.family_id,
        L=report.L,
        columns=columns,
        limit_dist=limit_dist,
        failures=tuple(failures),
        passed=all(c.passed for c in columns.values()),
    )


class BorneReport(NamedTuple):
    """The operator variation's exact bound against the density variation."""

    family_id: str
    u: float
    L: int
    delta_nodes: float
    delta_grid: float
    max_ratio: float
    passed: bool


def bornelapbelt_check(family: MetricFamily, u: float = 2.5, L: int = 16) -> BorneReport:
    """Check the operator's parameter derivative against the density variation.

    The Dirichlet form does not depend on the family parameter, so the
    operator varies only through the mass matrix: d(Lap) = -B Lap with
    B = M^{-1} dM. B is self-adjoint in the mass inner product, so its
    M-norm is the spectral radius of the Gram pencil (dM, M), and

        ||d(Lap) v||_M <= ||B||_M ||Lap v||_M   for every v.

    The pencil is block diagonal, so ``max_ratio`` = ||B||_M is the largest
    |eigenvalue| of the blocks (dM_m, M_m). A Rayleigh quotient of a block
    is an average of d(log density)/du over the quadrature nodes with
    positive weights, hence max_ratio <= ``delta_nodes`` = max over the
    nodes of |d log density/du| holds exactly in the discretization, up to
    roundoff.
    """
    metric = interpolate(family, u)
    basis = build_basis(L)
    rows = np.stack([mass_weights(basis, metric), variation_weights(basis, metric)])
    max_ratio = max(  # M and dM of each m come from one Legendre block
        float(np.abs(pencil_eigvalsh(dM, M)).max())
        for M, dM in weighted_grams(basis, rows)
    )
    r = basis.quad.radii_theta
    delta_nodes = float(np.abs(metric.d_log_density_du(r)).max())
    return BorneReport(
        family_id=family.id,
        u=float(u),
        L=L,
        delta_nodes=delta_nodes,
        delta_grid=delta_X(family, u),
        max_ratio=max_ratio,
        passed=bool(max_ratio <= delta_nodes * (1.0 + 1e-9) + 1e-15),
    )


def duhamel_at(
    family: MetricFamily,
    u: float = 2.5,
    h: float = _DUHAMEL_STEP,
    t: float = 0.5,
    L: int = 16,
    n_nodes: int = 32,
) -> DuhamelReport:
    """Integrated variation identity for the heat operator at one (u, t).

    Solves the three pencils at u - h, u, u + h together and checks that
    the centered difference of the heat operator matches the integral of
    E(t - s) dLap E(s); the residual should sit at the quadrature and
    differencing level, far below the derivative's norm.
    """
    spec_lo, spec_mid, spec_hi = family_spectra(
        tuple(interpolate(family, v) for v in (u - h, u, u + h)), L
    )
    return duhamel_residual(spec_lo, spec_mid, spec_hi, h, t=t, n_nodes=n_nodes)


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
    two_route: TwoRouteReport
    tags: dict[str, bool]
    passed: bool

    @property
    def failed_tags(self) -> tuple[str, ...]:
        return tuple(t for t in THEOREM_TAGS if not self.tags[t])


def convergence_summary(
    family: MetricFamily,
    L: int = 24,
    t_set: tuple[float, ...] = (0.5, 1.0, 2.0),
    window: tuple[float, float] | None = None,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    variation_u: float = 2.5,
    variation_L: int = 16,
    n_theta: int | None = None,
) -> ConvergenceSummary:
    """Run every convergence check on one family and aggregate tag verdicts.

    The sweep, Cauchy rates, gap floor, operator limits, extrapolated
    determinant and two-route check run at degree ``L`` with ``n_theta``
    colatitude nodes per panel; the variation checks run at the lighter
    ``variation_L`` and its default rule, since they need interpolated
    pencils of their own. Every family member takes part. A family with
    fewer than three members (the operator limits) or fewer than the
    ceil(variation_u + h) + 1 the variation checks interpolate is refused
    before any pencil is solved.

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
    rep = sweep(
        family, L=L, t_set=t_set, window=window, trunc_tol=trunc_tol, n_theta=n_theta
    )
    cauchy = cauchy_check(rep)
    floor = lambda1_floor(rep)
    resolvents = resolvent_convergence(rep)
    borne = bornelapbelt_check(family, u=variation_u, L=variation_L)
    duhamel = duhamel_at(family, u=variation_u, L=variation_L)
    members = [(r.param, m, r.quillen) for r, m in zip(rep.rows, family.members)]
    quillen = quillen_limit(family.id, members, rep.pair_dist)
    two_route = two_route_check(*members[0][1:], *members[1][1:])

    tags = {
        "laplaceTX": bool(rep.rows) and all(r.lambda1 > 0.0 for r in rep.rows),
        "bornelapbelt": borne.passed,
        "deltacompact": resolvents.columns["resolvent"].passed,
        "variationEu": resolvents.columns["heat"].passed and duhamel.ratio < DUHAMEL_RATIO_TOL,
        "key2": cauchy.passed,
        "convergenceAnomaly": quillen.converged,
        "compare2methods": two_route.passed,
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
        passed=all(tags.values()),
    )
