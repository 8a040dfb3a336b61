"""Convergence harness: run a metric family through the pipeline and check limits.

A smoothing family approaches its singular limit metric in the uniform
log-density sense. Every spectral quantity we compute should then settle
down at a rate controlled by that distance, and several of them obey exact
finite-dimensional inequalities along the way. This module sweeps a family,
tabulates the scalar pipeline per member, and turns each limiting statement
into a quantitative pass/fail check. ``sweep`` is the only place that solves
a family's pencils and runs the scalar pipeline on them: once per member
and once for the limit. Each row keeps its metric's ``Spectrum`` (block
eigenvectors and the pencil) and ``QuillenData``, and every check on the
family's own metrics reads the ``SweepReport``: the Cauchy table, the limit
agreement, the gap floor (mass blocks), the operator limits (eigenvectors)
and the determinant checks of ``anomaly``. No check solves one of those
pencils again, and the sweep uses no disk cache.

- ``sweep`` / ``cauchy_check``: every scalar column is Cauchy with
  differences bounded by (constant) x (sup log-density distance).
- ``limit_agreement``: the last member's row agrees with the limit metric's
  own row, since a continuous limit assembles fine.
- ``lambda1_floor``: a uniform positive lower bound on the spectral gap from
  mass-matrix equivalence and the min-max principle.
- ``resolvent_convergence``: resolvents and heat operators form Cauchy
  sequences in operator norm, bounded by the integrated density variation.
- ``bornelapbelt_check``: the parameter derivative of the operator is
  dominated by the sup of the density variation, exactly, on test vectors.
- ``duhamel_at``: the integrated variation identity for the heat operator.

Every built-in metric is radial, so each operator above is block diagonal
in the harmonic basis with one block per azimuthal index m (the cos and sin
copies share it). The checks work on those blocks: an operator norm is the
largest block norm, a Gram pencil's top eigenvalue the largest over the
blocks, and no n x n matrix is built.

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
from dataclasses import dataclass, field

import numpy as np

from .anomaly import (
    QuillenData,
    QuillenLimit,
    TwoRouteReport,
    quillen_limit,
    torsion_report,
    two_route_check,
)
from .discretize import Blocks, assemble, block_rows, mass_log_variation
from .eigensolve import Spectrum, pencil_eigh, resolvent
from .errors import DomainError
from .heatzeta import DuhamelReport, duhamel_residual, heat_operator, theta_values
from .metrics import ConformalMetric, MetricFamily, delta_X, interpolate, sup_log_distance
from .operators import InnerProduct, block_operator_norm
from .pipeline import SpectralData, compute_spectrum, get_basis

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
    "LimitColumn",
    "LimitAgreement",
    "limit_agreement",
    "Lambda1FloorRow",
    "Lambda1Floor",
    "lambda1_floor",
    "ResolventRow",
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

# Gaussian test vectors of the derivative bound.
_BORNE_VECTORS = 100


def _frozen_rate(diffs, scales, slack) -> tuple[float, tuple[float, ...], list[int]]:
    """Freeze the constant of |diffs[i]| <= c scales[i] + slack[i] on pair 0.

    c is measured on the first pair and multiplied by ``FROZEN_SAFETY``; the
    bound is asserted on the remaining pairs. A first scale below
    ``_TINY_REL`` (a family that does not vary) gives c = 0, and then every
    pair must stay within its slack. Returns c, the bound of every pair and
    the indices of the pairs that exceed theirs.
    """
    measured = scales[0] > _TINY_REL
    c = float(FROZEN_SAFETY * diffs[0] / scales[0]) if measured else 0.0
    bounds = tuple(float(c * x + e) for x, e in zip(scales, slack))
    start = 1 if measured else 0
    return c, bounds, [i for i in range(start, len(diffs)) if diffs[i] > bounds[i]]


@dataclass(frozen=True)
class SweepRow:
    """Scalar pipeline output for one family member, with its spectrum.

    ``quillen`` holds the member's volume, zeta'(0), log h_Q and zeta error
    budget, as the checks of ``anomaly`` take them. ``spectrum`` is the
    member's solved pencil, which the operator checks read.
    """

    param: float
    theta: dict[float, float]
    b_minus1: float
    b0: float
    sup_log_dist_to_limit: float
    quillen: QuillenData
    spectrum: Spectrum = field(repr=False)

    @property
    def lambda1(self) -> float:
        return self.spectrum.lambda1


@dataclass(frozen=True)
class SweepReport:
    """One family sweep: a row per member and the limit metric's own row.

    ``rows`` follow ``family.parameters``. ``limit_row`` is the limit
    metric's row (parameter inf, no distance to itself), or None for a
    family without a limit; it never joins the Cauchy table. ``pair_dist``
    holds the sup log-density distance of consecutive members.
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
    q = row.quillen
    values = [q.vol, row.lambda1, row.b_minus1, row.b0, q.zeta_prime0,
              q.log_quillen, *row.theta.values()]
    if require_dist:
        values.append(row.sup_log_dist_to_limit)
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"non-finite sweep column for parameter {row.param}")


def _pipeline_row(
    param: float,
    metric: ConformalMetric,
    limit: ConformalMetric | None,
    t_arr: np.ndarray,
    L: int,
    n_theta: int | None,
    window: tuple[float, float] | None,
    trunc_tol: float,
) -> SweepRow:
    """Solve one metric's pencil, run the scalar pipeline on it, tabulate its row."""
    spectrum = compute_spectrum(metric, L, n_theta)
    rep = torsion_report(
        SpectralData.of(spectrum, n_theta), metric, window, trunc_tol=trunc_tol
    )
    th = theta_values(rep.data.eigenvalues, t_arr)
    return SweepRow(
        param=param,
        theta={float(t): float(v) for t, v in zip(t_arr, th)},
        b_minus1=rep.fit.b_minus1,
        b0=rep.fit.b0,
        sup_log_dist_to_limit=(
            math.nan if limit is None else sup_log_distance(metric, limit)
        ),
        quillen=rep.quillen,
        spectrum=spectrum,
    )


def sweep(
    family: MetricFamily,
    L: int = 24,
    t_set: tuple[float, ...] = (0.5, 1.0, 2.0),
    window: tuple[float, float] | None = None,
    trunc_tol: float = 1e-8,
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
        Heat-trace times tabulated per row.
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

    rows: list[SweepRow] = []
    for p, metric in zip(params, family.members):
        row = _pipeline_row(p, metric, family.limit, t_arr, L, n_theta, window, trunc_tol)
        _check_row_finite(row, require_dist=family.limit is not None)
        rows.append(row)
    limit_row = None
    if family.limit is not None:
        limit_row = _pipeline_row(
            math.inf, family.limit, None, t_arr, L, n_theta, window, trunc_tol
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


@dataclass(frozen=True)
class CauchyColumn:
    """Cauchy data of one sweep column: |differences| against frozen bounds."""

    name: str
    c_frozen: float
    diffs: tuple[float, ...]
    bounds: tuple[float, ...]
    passed: bool


@dataclass(frozen=True)
class CauchyReport:
    """Per-column Cauchy verdicts for one sweep."""

    family_id: str
    columns: tuple[CauchyColumn, ...]
    violations: tuple[str, ...]
    passed: bool


def _sweep_columns(rows, t_set) -> list[tuple[str, np.ndarray]]:
    cols: list[tuple[str, np.ndarray]] = [
        ("vol", np.array([r.quillen.vol for r in rows])),
        ("lambda1", np.array([r.lambda1 for r in rows])),
    ]
    for t in t_set:
        cols.append((f"theta_t{t:g}", np.array([r.theta[t] for r in rows])))
    cols += [
        ("b_minus1", np.array([r.b_minus1 for r in rows])),
        ("b0", np.array([r.b0 for r in rows])),
        ("zeta_prime0", np.array([r.quillen.zeta_prime0 for r in rows])),
        ("log_quillen", np.array([r.quillen.log_quillen for r in rows])),
    ]
    return cols


def _column_slack(name: str, values: np.ndarray, budgets, i: int) -> float:
    """Measurement noise allowed on the pair (i, i+1) of one column."""
    if name in _BUDGET_COLUMNS:
        return budgets[i] + budgets[i + 1]
    return _TINY_REL * (1.0 + float(np.abs(values).max()))


def cauchy_check(report: SweepReport) -> CauchyReport:
    """Check every sweep column is Cauchy at the sup-log-distance rate.

    For each column the constant C in |x_i - x_{i+1}| <= C * dist_i is
    measured on the first pair, frozen with the 2x safety factor, and
    asserted on the remaining pairs. Fit-derived columns additionally get
    the two rows' zeta error budgets as slack; exact columns only a
    relative epsilon. A constant family (zero distances) must have zero
    differences up to the slack.
    """
    if len(report.rows) < 2:
        raise DomainError("cauchy_check needs at least two sweep rows")

    budgets = [r.quillen.error_budget for r in report.rows]
    columns: list[CauchyColumn] = []
    violations: list[str] = []
    for name, values in _sweep_columns(report.rows, report.t_set):
        d = np.abs(np.diff(values))
        slack = [_column_slack(name, values, budgets, i) for i in range(d.size)]
        c_frozen, bounds, bad = _frozen_rate(d, report.pair_dist, slack)
        for i in bad:
            violations.append(
                f"column {name}: pair ({report.rows[i].param:g}, "
                f"{report.rows[i + 1].param:g}) difference {d[i]:.3e} exceeds "
                f"frozen bound {bounds[i]:.3e}"
            )
        columns.append(CauchyColumn(name, c_frozen, tuple(map(float, d)), bounds, not bad))
    return CauchyReport(
        family_id=report.family_id,
        columns=tuple(columns),
        violations=tuple(violations),
        passed=not violations,
    )


@dataclass(frozen=True)
class LimitColumn:
    """Last-row vs directly-computed-limit agreement for one column."""

    name: str
    last_value: float
    limit_value: float
    diff: float
    allowance: float
    ok: bool


@dataclass(frozen=True)
class LimitAgreement:
    """Agreement of the sweep's final row with the limit metric's own row.

    The limit metric is continuous, so its mass matrix assembles directly
    and the limit can be computed both as a limit and in one shot; the two
    must agree within the frozen Cauchy rate at the remaining distance.
    """

    limit_id: str
    dist_last: float
    columns: tuple[LimitColumn, ...]
    passed: bool


def limit_agreement(report: SweepReport, cauchy: CauchyReport) -> LimitAgreement:
    """Compare the sweep's last row against the limit metric's own row.

    Both rows come from the sweep, so no pipeline runs here. Each column
    may differ by its frozen Cauchy constant times the remaining distance,
    plus the two zeta error budgets for the fit-derived columns.
    """
    limit_row = report.limit_row
    if limit_row is None:
        raise DomainError(f"family {report.family_id!r} has no limit member")

    last = report.rows[-1]
    dist_last = last.sup_log_dist_to_limit
    budget_slack = last.quillen.error_budget + limit_row.quillen.error_budget
    c_by_name = {c.name: c.c_frozen for c in cauchy.columns}

    columns: list[LimitColumn] = []
    for (name, values), (_, limit_values) in zip(
        _sweep_columns(report.rows, report.t_set),
        _sweep_columns((limit_row,), report.t_set),
    ):
        last_value = float(values[-1])
        limit_value = float(limit_values[0])
        diff = abs(last_value - limit_value)
        if name in _BUDGET_COLUMNS:
            slack = budget_slack
        else:
            slack = _TINY_REL * (1.0 + max(abs(last_value), abs(limit_value)))
        allowance = c_by_name[name] * dist_last + slack
        columns.append(
            LimitColumn(name, last_value, limit_value, diff, allowance, diff <= allowance)
        )
    return LimitAgreement(
        limit_id=limit_row.quillen.metric_id,
        dist_last=dist_last,
        columns=tuple(columns),
        passed=all(c.ok for c in columns),
    )


@dataclass(frozen=True)
class Lambda1FloorRow:
    """One metric in the uniform gap bound: its gap and equivalence constant."""

    param: float
    lambda1: float
    c_member: float


@dataclass(frozen=True)
class Lambda1Floor:
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
    blocks of its solved pencil, so nothing is assembled here. The reference
    is the first member; the limit metric joins the rows when present
    (parameter reported as inf) since the bound must be uniform up to the
    limit.
    """
    if len(report.rows) < 2:
        raise DomainError("lambda1_floor needs at least two members")
    rows_in = list(report.rows)
    if report.limit_row is not None:
        rows_in.append(report.limit_row)

    m_ref = report.rows[0].spectrum.pair.mass_blocks
    rows: list[Lambda1FloorRow] = []
    for row in rows_in:
        c_member = max(
            float(pencil_eigh(M_p, M_ref)[0][-1])
            for M_p, M_ref in zip(row.spectrum.pair.mass_blocks, m_ref)
        )
        rows.append(Lambda1FloorRow(row.param, row.lambda1, c_member))

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


@dataclass(frozen=True)
class ResolventRow:
    """Operator distance of one consecutive member pair with its bound."""

    param_lo: float
    param_hi: float
    dist: float
    heat_dist: float
    delta_integral: float
    bound: float
    heat_bound: float


@dataclass(frozen=True)
class ResolventReport:
    """Cauchy table of resolvents and heat operators along a family.

    Distances are operator norms in the first member's mass inner product,
    the largest over the azimuthal blocks.
    ``limit_dist`` is the final column: distance from the last member to the
    limit metric's operator, reported without a bound (the interpolation
    path stops at the last member).
    """

    family_id: str
    L: int
    c3: float
    c3_heat: float
    rows: tuple[ResolventRow, ...]
    limit_dist: float
    heat_limit_dist: float
    failures: tuple[str, ...]
    resolvent_ok: bool
    heat_ok: bool
    passed: bool


def resolvent_convergence(report: SweepReport) -> ResolventReport:
    """Check resolvents and heat operators are Cauchy along the family.

    The operators are built from the spectra of the sweep ``report``, in the
    mass inner product of its first member, so no pencil is solved here.
    Consecutive member pairs (from the second member on, matching the
    interpolation domain) are compared in operator norm; each distance must
    stay below c3 times the integrated density variation over the joining
    segment, where c3 is measured on the first pair and frozen with the
    safety factor (0 for a family without density variation, whose
    distances must then stay below the roundoff slack). Differences must not
    grow, and the distance to the limit row's operator is reported as the
    final column.
    """
    members = report.rows
    params = tuple(r.param for r in members)
    if len(members) < 3:
        raise DomainError("resolvent_convergence needs at least three members")

    ip_ref = [InnerProduct.from_gram(M) for M in members[0].spectrum.pair.mass_blocks]
    xg, wg = np.polynomial.legendre.leggauss(_DELTA_GL_NODES)

    def operators_at(k: int) -> tuple[Blocks, Blocks]:
        spec = members[k].spectrum
        return resolvent(spec, _RESOLVENT_SHIFT), heat_operator(spec, _HEAT_TIME)

    def distance(a: Blocks, b: Blocks) -> float:
        return block_operator_norm([x - y for x, y in zip(a, b)], ip_ref)

    raw: list[tuple[float, float, float, float, float]] = []
    r_prev, e_prev = operators_at(1)
    for k in range(1, len(members) - 1):
        r_next, e_next = operators_at(k + 1)
        dist = distance(r_prev, r_next)
        heat_dist = distance(e_prev, e_next)
        mid, half = k + 0.5, 0.5
        delta_int = float(
            np.sum(wg * half * np.array([delta_X(report.family, mid + half * x) for x in xg]))
        )
        raw.append((params[k], params[k + 1], dist, heat_dist, delta_int))
        r_prev, e_prev = r_next, e_next

    tiny = _TINY_REL
    deltas = [r[4] for r in raw]
    slack = [tiny] * len(raw)
    c3, bounds, bad = _frozen_rate([r[2] for r in raw], deltas, slack)
    c3_heat, heat_bounds, bad_heat = _frozen_rate([r[3] for r in raw], deltas, slack)

    resolvent_ok, heat_ok = not bad, not bad_heat
    rows: list[ResolventRow] = []
    failures: list[str] = []
    for i, (p_lo, p_hi, dist, heat_dist, delta_int) in enumerate(raw):
        bound, heat_bound = bounds[i], heat_bounds[i]
        rows.append(ResolventRow(p_lo, p_hi, dist, heat_dist, delta_int, bound, heat_bound))
        if i in bad:
            failures.append(
                f"resolvent pair ({p_lo:g}, {p_hi:g}): distance {dist:.3e} "
                f"exceeds bound {bound:.3e}"
            )
        if i in bad_heat:
            failures.append(
                f"heat pair ({p_lo:g}, {p_hi:g}): distance {heat_dist:.3e} "
                f"exceeds bound {heat_bound:.3e}"
            )
        if i >= 1:
            prev = raw[i - 1]
            if dist > prev[2] * (1.0 + tiny) + tiny:
                resolvent_ok = False
                failures.append(
                    f"resolvent distances grew at pair ({p_lo:g}, {p_hi:g}): "
                    f"{dist:.3e} after {prev[2]:.3e}"
                )
            if heat_dist > prev[3] * (1.0 + tiny) + tiny:
                heat_ok = False
                failures.append(
                    f"heat distances grew at pair ({p_lo:g}, {p_hi:g}): "
                    f"{heat_dist:.3e} after {prev[3]:.3e}"
                )

    limit_dist = math.nan
    heat_limit_dist = math.nan
    if report.limit_row is not None:
        spec_lim = report.limit_row.spectrum
        limit_dist = distance(r_prev, resolvent(spec_lim, _RESOLVENT_SHIFT))
        heat_limit_dist = distance(e_prev, heat_operator(spec_lim, _HEAT_TIME))

    return ResolventReport(
        family_id=report.family_id,
        L=report.L,
        c3=c3,
        c3_heat=c3_heat,
        rows=tuple(rows),
        limit_dist=limit_dist,
        heat_limit_dist=heat_limit_dist,
        failures=tuple(failures),
        resolvent_ok=resolvent_ok,
        heat_ok=heat_ok,
        passed=resolvent_ok and heat_ok,
    )


@dataclass(frozen=True)
class BorneReport:
    """Test-vector check that the operator variation obeys the density bound."""

    family_id: str
    u: float
    L: int
    n_vectors: int
    delta_nodes: float
    delta_grid: float
    max_ratio: float
    passed: bool


def bornelapbelt_check(
    family: MetricFamily,
    u: float = 2.5,
    L: int = 16,
    n_theta: int | None = None,
    seed: int = 20260818,
) -> BorneReport:
    """Check the operator's parameter derivative against the density variation.

    The Dirichlet form does not depend on the family parameter, so the
    operator varies only through the mass matrix: d(Lap) = -B Lap with
    B = M^{-1} dM. B is self-adjoint in the mass inner product and its
    Rayleigh quotient is a weighted average of d(log density)/du over the
    quadrature nodes, hence for every test vector

        ||d(Lap) v||_M <= max_nodes |d log density/du| * ||Lap v||_M

    holds exactly in the discretization, up to roundoff. K, M and dM are
    block diagonal, so each block copy acts on its own rows of the test
    vectors (columns of one n x n_vectors Gaussian draw) and the squared
    M-norms add up over the copies.
    """
    metric = interpolate(family, u)
    basis = get_basis(L, n_theta)
    pair = assemble(basis, metric)
    d_mass = mass_log_variation(basis, metric)

    rng = np.random.default_rng(seed)
    test = rng.standard_normal((pair.n, _BORNE_VECTORS))
    num2 = np.zeros(_BORNE_VECTORS)
    den2 = np.zeros(_BORNE_VECTORS)
    for m, rows in block_rows(L):
        K, M = pair.stiffness_blocks[m], pair.mass_blocks[m]
        lap_v = np.linalg.solve(M, K @ test[rows])
        dlap_v = -np.linalg.solve(M, d_mass[m] @ lap_v)
        num2 += np.einsum("ij,ij->j", dlap_v, M @ dlap_v)
        den2 += np.einsum("ij,ij->j", lap_v, M @ lap_v)

    max_ratio = float((np.sqrt(num2) / np.sqrt(den2)).max())
    r = basis.quad.radii_theta
    delta_nodes = float(np.abs(metric.d_log_density_du(r)).max())
    return BorneReport(
        family_id=family.id,
        u=float(u),
        L=L,
        n_vectors=_BORNE_VECTORS,
        delta_nodes=delta_nodes,
        delta_grid=delta_X(family, u),
        max_ratio=max_ratio,
        passed=bool(max_ratio <= delta_nodes * (1.0 + 1e-9) + 1e-15),
    )


def duhamel_at(
    family: MetricFamily,
    u: float = 2.5,
    h: float = 1e-3,
    t: float = 0.5,
    L: int = 16,
    n_theta: int | None = None,
    n_nodes: int = 32,
) -> DuhamelReport:
    """Integrated variation identity for the heat operator at one (u, t).

    Solves the three pencils at u - h, u, u + h and checks that the
    centered difference of the heat operator matches the integral of
    E(t - s) dLap E(s); the residual should sit at the quadrature and
    differencing level, far below the derivative's norm.
    """
    spec_lo = compute_spectrum(interpolate(family, u - h), L, n_theta)
    spec_mid = compute_spectrum(interpolate(family, u), L, n_theta)
    spec_hi = compute_spectrum(interpolate(family, u + h), L, n_theta)
    return duhamel_residual(spec_lo, spec_mid, spec_hi, h, t=t, n_nodes=n_nodes)


@dataclass(frozen=True)
class ConvergenceSummary:
    """Every harness check on one family, with one verdict per named tag."""

    family_id: str
    L: int
    sweep: SweepReport
    cauchy: CauchyReport
    limit_check: LimitAgreement | None
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
    trunc_tol: float = 1e-8,
    variation_u: float = 2.5,
    variation_L: int = 16,
    n_theta: int | None = None,
) -> ConvergenceSummary:
    """Run every convergence check on one family and aggregate tag verdicts.

    The sweep, Cauchy rates, limit agreement, gap floor, operator limits,
    extrapolated determinant and two-route check run at degree ``L`` with
    ``n_theta`` colatitude nodes per panel; the variation checks run at the
    lighter ``variation_L`` and its default rule, since they need
    interpolated pencils of their own. Every family member takes part.

    Each member's and the limit's pencil is solved once, in the sweep,
    which also runs the scalar pipeline on it; the limit agreement, the gap
    floor, the operator limits and the determinant checks read its report.
    No disk cache is read or written. A member whose pipeline raises ends
    the run with that member's own error.
    """
    rep = sweep(
        family, L=L, t_set=t_set, window=window, trunc_tol=trunc_tol, n_theta=n_theta
    )
    cauchy = cauchy_check(rep)
    limit_check = None if rep.limit_row is None else limit_agreement(rep, cauchy)
    floor = lambda1_floor(rep)
    resolvents = resolvent_convergence(rep)
    borne = bornelapbelt_check(family, u=variation_u, L=variation_L)
    duhamel = duhamel_at(family, u=variation_u, L=variation_L)
    members = [(r.param, m, r.quillen) for r, m in zip(rep.rows, family.members)]
    quillen = quillen_limit(family.id, members)
    two_route = two_route_check(*members[0][1:], *members[1][1:])

    tags = {
        "laplaceTX": bool(rep.rows) and all(r.lambda1 > 0.0 for r in rep.rows),
        "bornelapbelt": borne.passed,
        "deltacompact": resolvents.resolvent_ok,
        "variationEu": resolvents.heat_ok and duhamel.ratio < DUHAMEL_RATIO_TOL,
        "key2": cauchy.passed and (limit_check.passed if limit_check else True),
        "convergenceAnomaly": quillen.converged,
        "compare2methods": two_route.passed,
        "lowerbound": floor.passed,
    }
    return ConvergenceSummary(
        family_id=family.id,
        L=L,
        sweep=rep,
        cauchy=cauchy,
        limit_check=limit_check,
        floor=floor,
        resolvents=resolvents,
        borne=borne,
        duhamel=duhamel,
        quillen=quillen,
        two_route=two_route,
        tags=tags,
        passed=all(tags.values()),
    )
