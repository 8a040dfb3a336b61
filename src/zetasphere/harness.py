"""Convergence harness: run a metric family through the pipeline and check limits.

A smoothing family approaches its singular limit metric in the uniform
log-density sense. Every spectral quantity we compute should then settle
down at a rate controlled by that distance, and several of them obey exact
finite-dimensional inequalities along the way. This module sweeps a family,
tabulates the scalar pipeline per member, and turns each limiting statement
into a quantitative pass/fail check. ``sweep`` is the only place that solves
a family's pencils and runs the scalar pipeline on them: the members and the
limit in one family solve (one Legendre sweep, one stacked LAPACK call per
m), then the pipeline once per row. Each row keeps its metric, its
``Spectrum`` (block eigenvectors and mass blocks), its ``ZetaResult`` and
its ordered scalar ``columns``, and every check on the family's own metrics
reads the ``SweepReport``: the Cauchy table (its operator columns read the
eigenvectors and mass blocks), the gap floor and the determinant checks of
``anomaly``. No check solves one of those pencils again; the sweep solves
them all on one basis and uses no disk cache.

Every verdict is an exact bound, with no measured constant and no rule
on how the distances of successive pairs compare. The Dirichlet form does
not depend on the metric, and the mass weights are positive on the nodes,
so for two metrics p, q with d = max over the mass's nodes and r = 1 of
|log rho_p - log rho_q| (`metrics.sup_log_distance`) the mass matrices obey
e^-d M_q <= M_p <= e^d M_q, and Courant-Fischer min-max bounds each
quantity in closed form, to roundoff:

- ``cauchy_check``: one table of Cauchy columns, the rows' scalars plus the
  resolvent and the heat operator (each pair in the mass norm of its first
  metric). Consecutive rows, closed by (last member, limit), differ by at
  most the bounds of their pair's d, checked on every pair.
- ``lambda1_floor``: the uniform gap floor lambda1 >= lambda1(ref) e^-d.
- ``variation_checks``: the operator's u-variation on one solved path
  between the family's middle members, at a fixed degree. Its parameter
  derivative is dominated by the sup of the density variation, exactly:
  the spectral radius of the Gram pencil (dM, M) is at most that sup (tag
  bornelapbelt). The heat operator obeys the integrated variation identity,
  its time integral exact in the eigenbasis (the Duhamel half of
  variationEu).

Every built-in metric is radial, so each operator above is block diagonal
in the harmonic basis with one block per azimuthal index m (the cos and sin
copies share it). The checks work on those blocks: an operator norm is the
largest block norm in the mass inner product (`eigensolve.block_operator_norms`,
handed the mass blocks themselves), a Gram pencil's spectral radius the
largest over the blocks, and no n x n matrix is built. The operator columns
take the norms of all pairs in one stacked solve and SVD per m.

``convergence_summary`` orchestrates all checks and reports one boolean per
named check tag; the CLI writes these to summary.json. It hands the sweep
rows and the limit row to ``anomaly.quillen_limit`` (tag convergenceAnomaly:
every member's prediction of the limit's log h_Q and the limit's own value
share one budget interval) and every consecutive pair to
``anomaly.two_route_pairs`` (tag compare2methods), as the ``anomaly``
command does. A member whose pipeline raises ends the sweep, and the run,
with that member's own error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .anomaly import QuillenLimit, TwoRouteReport, bott_chern_bound, quillen_limit, two_route_pairs
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
    interpolate,
    sup_log_distance,
)
from .pipeline import family_spectra

__all__ = ["THEOREM_TAGS", "convergence_summary"]

# Residual of the integrated variation identity, relative to the derivative
# norm: up to 2e-7 on the built-in families, and e for an error e in dLap.
DUHAMEL_RATIO_TOL = 1e-5

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

# Roundoff slack of the exact bounds, relative to the values compared.
_TINY_REL = 1e-9

# Resolvent shift and heat time of the operator-limit checks.
_RESOLVENT_SHIFT = 1.0
_HEAT_TIME = 1.0

# Degree, centered-difference step and heat time of the variation path.
_VARIATION_L = 16
_DUHAMEL_STEP = 1e-3
_DUHAMEL_TIME = 0.5


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
    metric: ConformalMetric
    columns: dict[str, float]
    sup_log_dist_to_limit: float
    zeta: ZetaResult
    spectrum: Spectrum


class SweepReport(NamedTuple):
    """One family sweep: a row per member and the limit metric's own row.

    ``rows`` follow the family's parameters. ``limit_row`` is the limit
    metric's row (parameter inf, distance 0 to itself); it closes the Cauchy
    table but never enters converge.csv. ``pair_dist`` holds the sup
    log-density distance of each consecutive pair of members, closed by
    (last member, limit), read on ``radii``, the radii of the mass's
    colatitude nodes at the sweep's degree.
    ``theta_times`` maps each ``theta_t<t>`` column to its time t.
    """

    rows: tuple[SweepRow, ...]
    limit_row: SweepRow
    pair_dist: tuple[float, ...]
    radii: np.ndarray
    theta_times: dict[str, float]


def _pipeline_row(
    param: float,
    metric: ConformalMetric,
    limit: ConformalMetric,
    theta_times: dict[str, float],
    spectrum: Spectrum,
    radii: np.ndarray,
) -> SweepRow:
    """Run the scalar pipeline on one metric's solved pencil, tabulate its row."""
    zres = zeta_result(spectrum, metric)
    th = theta_values(spectrum.eigenvalues, np.array(list(theta_times.values())))
    return SweepRow(
        param=param,
        metric=metric,
        columns={
            "vol": zres.volume,
            "lambda1": spectrum.lambda1,
            **{name: float(v) for name, v in zip(theta_times, th)},
            "zeta_prime0": zres.zeta_prime0,
            "log_quillen": zres.log_quillen,
        },
        sup_log_dist_to_limit=sup_log_distance(metric, limit, radii),
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
    theta_times = {f"theta_t{t:g}": float(t) for t in t_arr}
    if len(theta_times) < t_arr.size:
        raise DomainError(f"t_set times must have distinct column names, got {t_set}")

    limit = family.limit
    radii = build_basis(L).quad.radii_theta
    spectra = family_spectra((*family.members, limit), L)
    rows: list[SweepRow] = []
    for p, metric, spectrum in zip(params, family.members, spectra):
        row = _pipeline_row(p, metric, limit, theta_times, spectrum, radii)
        if not all(math.isfinite(v) for v in (*row.columns.values(), row.sup_log_dist_to_limit)):
            raise DomainError(f"non-finite sweep column for parameter {p}")
        rows.append(row)
    chain = (*family.members, limit)
    return SweepReport(
        rows=tuple(rows),
        limit_row=_pipeline_row(math.inf, limit, limit, theta_times, spectra[-1], radii),
        pair_dist=tuple(sup_log_distance(a, b, radii) for a, b in zip(chain, chain[1:])),
        radii=radii,
        theta_times=theta_times,
    )


class CauchyColumn(NamedTuple):
    """One column's pairs: |differences| against their exact bounds, and a
    message for each pair whose difference exceeds its bound."""

    name: str
    diffs: tuple[float, ...]
    bounds: tuple[float, ...]
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def cauchy_check(report: SweepReport) -> dict[str, CauchyColumn]:
    """Check every sweep column, and the resolvent and heat operators, on
    every pair of the chain of members closed by (last member, limit), the
    first pair included, against the exact bound of the pair's distance d
    (``report.pair_dist``). The columns come back by name, the sweep's in
    row order, then ``resolvent`` and ``heat``:

    - ``vol`` and ``lambda1``: |x - y| <= (e^d - 1) min(x, y);
    - ``theta_t<t>``: the first row's theta(t) lies between the second's
      theta(e^d t) and theta(e^-d t);
    - ``log_quillen``: at most the anomaly bound
      ``anomaly.bott_chern_bound`` of the pair, plus the two rows' zeta
      error budgets;
    - ``zeta_prime0``: the same plus d, which bounds |Delta log vol|;
    - ``resolvent`` and ``heat``: the operator norm of the pair's
      difference in the mass inner product of its first metric p. With
      B = 1 - M_p^-1 M_q, whose norm is at most e^d - 1, and norms of q's
      operators in p's mass norm costing e^d at most, R_p - R_q =
      R_p B A_q R_q is at most e^d (e^d - 1) / shift; the Duhamel integral
      of E_p(t - s) B A_q E_q(s), split at t/2 and integrated by parts on
      the first half, gives (e^d - 1)(1 + e^d (1 + 2 ln 2 / e)) at any t.

    The exact columns get a relative epsilon of the pair's larger value for
    roundoff, the operator columns an absolute one. A constant family (zero
    distances) must have zero differences up to that slack. The operators
    are built from the sweep's spectra, so no pencil is solved here; the
    norms of all pairs share one stacked solve and SVD per block m.
    """
    if len(report.rows) < 2:
        raise DomainError("cauchy_check needs at least two members")
    chain = (*report.rows, report.limit_row)
    pairs = list(zip(chain, chain[1:]))
    dists = report.pair_dist
    quillen = [
        bott_chern_bound(a.metric, b.metric, d) + a.zeta.error_budget + b.zeta.error_budget
        for (a, b), d in zip(pairs, dists)
    ]
    diffs: dict[str, list[float]] = {}
    bounds: dict[str, list[float]] = {}
    for name in report.rows[0].columns:
        values = [(a.columns[name], b.columns[name]) for a, b in pairs]
        t = report.theta_times.get(name)
        diffs[name] = [abs(x - y) for x, y in values]
        if name == "log_quillen":
            bounds[name] = quillen
        elif name == "zeta_prime0":
            bounds[name] = [q + d for q, d in zip(quillen, dists)]
        else:
            bounds[name] = []
            for (x, y), (_, b), d in zip(values, pairs, dists):
                if t is None:  # vol and lambda1
                    width = math.expm1(d) * min(x, y)
                else:  # theta_b(e^d t) <= x <= theta_b(e^-d t)
                    low, high = theta_values(b.spectrum.eigenvalues, t * np.exp([d, -d]))
                    width = high - y if x >= y else y - low
                bounds[name].append(float(width) + _TINY_REL * (1.0 + max(abs(x), abs(y))))
    spectra = [row.spectrum for row in chain]
    grams = [np.stack(M[:-1]) for M in zip(*(spec.mass_blocks for spec in spectra))]
    operators = (
        ("resolvent", lambda spec: resolvent(spec, _RESOLVENT_SHIFT),
         lambda d: math.exp(d) * math.expm1(d) / _RESOLVENT_SHIFT),
        ("heat", lambda spec: heat_operator(spec, _HEAT_TIME),
         lambda d: math.expm1(d) * (1.0 + math.exp(d) * (1.0 + 2.0 * math.log(2.0) / math.e))),
    )
    for name, op, bound in operators:
        # per m, the differences of consecutive operators along the chain as one stack
        blocks = [np.stack(bm) for bm in zip(*(op(spec) for spec in spectra))]
        diffs[name] = block_operator_norms([b[:-1] - b[1:] for b in blocks], grams).tolist()
        bounds[name] = [bound(d) + _TINY_REL for d in dists]
    labels = [f"({a.param:g}, {b.param:g})" for a, b in pairs]
    return {
        name: CauchyColumn(name, tuple(diffs[name]), tuple(bounds[name]), tuple(
            f"column {name}: pair {label} difference {x:.3e} exceeds bound {b:.3e}"
            for label, x, b in zip(labels, diffs[name], bounds[name])
            if x > b
        ))
        for name in diffs
    }


class Lambda1FloorRow(NamedTuple):
    """One metric in the uniform gap bound: its gap and equivalence constant."""

    param: float
    lambda1: float
    c_member: float


class Lambda1Floor(NamedTuple):
    """Uniform lower bound on the spectral gap across a family.

    The Dirichlet form is metric-independent, so mass-matrix equivalence
    M_p <= c M_ref pushes every Rayleigh quotient up by 1/c and the min-max
    principle gives lambda1(p) >= lambda1(ref)/c. A member's constant is
    e^d, d its sup log-density distance to the reference on the mass's
    nodes; ``c`` is the largest over the members, ``floor`` the first
    member's gap over c, ``kappa`` the smallest gap.
    """

    c: float
    floor: float
    kappa: float
    margin: float
    rows: tuple[Lambda1FloorRow, ...]
    passed: bool


def lambda1_floor(report: SweepReport) -> Lambda1Floor:
    """Verify the uniform spectral-gap floor lambda1 >= lambda1(ref)/c.

    Everything comes from the sweep ``report``: each row's gap and metric,
    and the nodes it was solved on, so nothing is assembled or solved here.
    The reference is the first member; the limit metric joins the rows
    (parameter reported as inf) since the bound must be uniform up to the
    limit.
    """
    if len(report.rows) < 2:
        raise DomainError("lambda1_floor needs at least two members")
    ref = report.rows[0].metric
    rows = [
        Lambda1FloorRow(
            row.param,
            row.spectrum.lambda1,
            math.exp(sup_log_distance(row.metric, ref, report.radii)),
        )
        for row in (*report.rows, report.limit_row)
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


def _duhamel_integral(spec: Spectrum, d_lap) -> list[np.ndarray]:
    """int_0^t E(t - s) D E(s) ds per block m at t = ``_DUHAMEL_TIME``, exactly:
    with E(s) = V diag(exp(-s lam)) V'M it is V (Phi o V'M D V) V'M, Phi the
    divided differences of exp(-t lam) (Daleckii-Krein),
    Phi_ij = t exp(-t min(lam_i, lam_j)) g(t |lam_i - lam_j|) with
    g(x) = (1 - exp(-x)) / x and g(0) = 1."""
    t, out = _DUHAMEL_TIME, []
    for lam, V, M, D in zip(spec.block_values, spec.block_vectors, spec.mass_blocks, d_lap):
        x = t * np.abs(np.subtract.outer(lam, lam))
        g = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0.0)
        VtM = V.T @ M
        out.append(V @ (t * np.exp(-t * np.minimum.outer(lam, lam)) * g * (VtM @ D @ V)) @ VtM)
    return out


def _duhamel_residual(lo: Spectrum, mid: Spectrum, hi: Spectrum, h: float) -> DuhamelReport:
    """Check d/du exp(-t Delta_u) = -int_0^t E(t-s) (d Delta/du) E(s) ds.

    Both derivatives are centered differences with the step h of the path
    u - h, u, u + h; the time integral is exact (`_duhamel_integral`), so
    the residual is the O(h^2) error of the differencing alone. Everything
    runs per azimuthal block m; norms are operator norms in the mass inner
    product of the middle metric, the largest over the blocks.
    """
    t = _DUHAMEL_TIME
    dE = [(a - b) / (2.0 * h) for a, b in zip(heat_operator(hi, t), heat_operator(lo, t))]
    d_lap = [
        (np.linalg.inv(M_hi) - np.linalg.inv(M_lo)) * (stiffness(mid.L, m) / (2.0 * h))
        for m, (M_hi, M_lo) in enumerate(zip(hi.mass_blocks, lo.mass_blocks))
    ]
    pairs = [np.stack((d + a, d)) for d, a in zip(dE, _duhamel_integral(mid, d_lap))]
    resid, d_norm = block_operator_norms(pairs, mid.mass_blocks)
    ratio = resid / d_norm if d_norm > 0.0 else 0.0
    return DuhamelReport(float(resid), float(d_norm), float(ratio))


def variation_checks(family: MetricFamily) -> tuple[BorneReport, DuhamelReport]:
    """Both variation checks on one path, solved at degree ``_VARIATION_L``
    on one basis and one Legendre sweep: per m, one stack of the Gram
    blocks of the mass at u - h, u, u + h and of its u-derivative at u.

    u = ceil(n/2) - 1/2 for n members, mid-segment between the middle
    members (2.5 for six, 1.5 for three); h is ``_DUHAMEL_STEP``. The path
    keeps its own degree: both ratios and the derivative norm agree to four
    digits from L = 24 to 128, and folding it into the sweep's solve made
    a converge at L = 64 slower than this separate small solve.

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
    difference of the heat operator at time ``_DUHAMEL_TIME`` must match
    the integral of E(t - s) dLap E(s) (`_duhamel_residual`), to the
    differencing level, far below the derivative's norm.
    """
    u = math.ceil(len(family.members) / 2) - 0.5
    h = _DUHAMEL_STEP
    path = [interpolate(family, v) for v in (u - h, u, u + h)]
    basis = build_basis(_VARIATION_L)
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
    spectra = family_eigs([G[:3] for G in grams], _VARIATION_L, [g.id for g in path])
    return borne, _duhamel_residual(*spectra, h)


class ConvergenceSummary(NamedTuple):
    """Every harness check on one family, with one verdict per named tag."""

    family_id: str
    L: int
    sweep: SweepReport
    cauchy: dict[str, CauchyColumn]
    floor: Lambda1Floor
    borne: BorneReport
    duhamel: DuhamelReport
    quillen: QuillenLimit
    two_route: tuple[TwoRouteReport, ...]
    tags: dict[str, bool]


def convergence_summary(
    family: MetricFamily, L: int = 24, t_set: tuple[float, ...] = (0.5, 1.0, 2.0)
) -> ConvergenceSummary:
    """Run every convergence check on one family and aggregate tag verdicts.

    The sweep, Cauchy table, gap floor, transported limit determinant
    and two-route checks run at degree ``L``; the variation
    checks solve their own path between the middle members at the fixed
    ``_VARIATION_L`` (`variation_checks`). Every family member takes part. A
    family with fewer than the three members that the variation path needs
    is refused before any pencil is solved.

    Each member's and the limit's pencil is solved once, in the sweep,
    which also runs the scalar pipeline on it; the Cauchy table, the gap
    floor and the determinant checks read its report.
    No disk cache is read or written. A member whose pipeline raises ends
    the run with that member's own error.
    """
    n = len(family.members)
    if n < 3:
        raise DomainError(f"convergence_summary needs at least 3 family members, only {n} present")
    rep = sweep(family, L=L, t_set=t_set)
    cauchy = cauchy_check(rep)
    floor = lambda1_floor(rep)
    borne, duhamel = variation_checks(family)
    members = [(r.param, r.metric, r.zeta) for r in rep.rows]
    quillen = quillen_limit(members, (family.limit, rep.limit_row.zeta))
    two_route = two_route_pairs([(m, z) for _, m, z in members])

    tags = {
        "laplaceTX": bool(rep.rows) and all(r.spectrum.lambda1 > 0.0 for r in rep.rows),
        "bornelapbelt": borne.passed,
        "deltacompact": cauchy["resolvent"].passed,
        "variationEu": cauchy["heat"].passed and duhamel.ratio < DUHAMEL_RATIO_TOL,
        "key2": all(cauchy[name].passed for name in rep.rows[0].columns),
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
        borne=borne,
        duhamel=duhamel,
        quillen=quillen,
        two_route=two_route,
        tags=tags,
    )
