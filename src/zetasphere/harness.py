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
``Spectrum`` (eigenvalues, volume, nested eigenvalues), its ``ZetaResult``
and its ordered scalar ``columns``, and every check on the family's own
metrics reads the ``SweepReport``: the Cauchy table and the determinant
checks of ``anomaly``. No check solves one of those pencils again; the
sweep solves them all on one basis and uses no disk cache.

Every verdict is an exact bound, with no measured constant and no rule
on how the distances of successive pairs compare. The Dirichlet form does
not depend on the metric, and the mass weights are positive on the nodes,
so for two metrics p, q with d = max over the mass's nodes and r = 1 of
|log rho_p - log rho_q| (`metrics.sup_log_distances`, which reads each
metric's log density once) the mass matrices obey
e^-d M_q <= M_p <= e^d M_q, and Courant-Fischer min-max bounds each
quantity in closed form, to roundoff.

- ``cauchy_check``: one table of Cauchy columns, the rows' scalars plus the
  resolvent and the heat operator (each pair in the mass norm of its first
  metric). Consecutive rows, closed by (last member, limit), differ by at
  most the bounds of their pair's d, checked on every pair. The
  ``lambda1`` column gives lambda1(b) >= lambda1(a) e^-d on each pair, and
  these steps telescope to the uniform gap floor
  lambda1 >= lambda1(first member) e^-(sum of the pairs' d) up to the
  limit, so tag lowerbound is that column's verdict. summary.json's
  ``detail.floor`` reports it: ``c`` = e^(sum of d), ``floor`` = the first
  member's lambda1 / c, ``kappa`` = the least lambda1 over the members and
  the limit, ``margin`` = kappa - floor. The ``heat`` column's bound lies
  7.6 to 19.9 times above its differences (pnorm and geomean-pnorm at
  L = 24), so it misses faults of the limit's spectrum that the
  ``resolvent`` column sees: the limit's eigenvalues scaled by 0.25 fail the
  resolvent column (1.06 and 1.16 of its bound) and leave the heat column
  at 0.63 and 0.69 of its own; scaled by 0.1 they bring the closing pair's
  heat distance to only 0.94 of its bound on pnorm, 1.03 on geomean-pnorm.
- ``variation_checks``: the operator's u-variation on one solved path
  between the family's middle members, at a fixed degree. Its parameter
  derivative is dominated by the sup of the density variation, exactly:
  the Borne radius ||M^-1 dM||_M is at most that sup (tag bornelapbelt).
  The heat operator obeys the integrated variation identity, its time
  integral exact in the eigenbasis (the Duhamel half of variationEu).

Every built-in metric is radial, so each operator above is block diagonal
in the harmonic basis with one block per azimuthal index m (the cos and sin
copies share it), and its norm in the mass inner product is the largest of
its block norms. The checks work one m at a time, and no n x n matrix is
built: the solve hands each m's mass stack, block values and vectors to a
reducer (`eigensolve.BlockMax`) that forms the block operators
(`eigensolve.block_function`), takes their norms and keeps, per pair, the
running maximum over m, and then drops the block. The sweep's reducer takes
both operator columns of every pair in one stacked solve and SVD per m, with
one Cholesky factor per pair, so converge holds one block stack at a time.

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
from .discretize import (
    build_basis, mass_weights, masses, stiffness, variation_weights, weighted_grams,
)
from .eigensolve import BlockMax, Spectrum, block_function, family_eigvals, singular_values
from .errors import DomainError
from .heatzeta import ZetaResult, theta_values, zeta_result
from .metrics import ConformalMetric, MetricFamily, d_log_density_du, interpolate, sup_log_distances

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

# The operator columns of the Cauchy table: name, f of the operator, and the
# exact bound of a pair at distance d (`cauchy_check`).
_OPERATORS = (
    ("resolvent", lambda lam: 1.0 / (_RESOLVENT_SHIFT + lam),
     lambda d: math.exp(d) * math.expm1(d) / _RESOLVENT_SHIFT),
    ("heat", lambda lam: np.exp(-_HEAT_TIME * lam),
     lambda d: math.expm1(d) * (1.0 + math.exp(d) * (1.0 + 2.0 * math.log(2.0) / math.e))),
)

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
    member's solved pencil.
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
    table but never enters converge.csv. ``chain_dist`` holds the sup
    log-density distance of every two rows of the chain of members closed
    by the limit, read on the radii of the mass's colatitude nodes at the
    sweep's degree, and ``pair_dist`` is that of each consecutive pair of
    the chain. ``operator_dists`` maps each operator column of the Cauchy
    table to each pair's operator-norm distance, taken one m at a time while
    the sweep solves. ``theta_times`` maps each ``theta_t<t>`` column to its
    time t.
    """

    rows: tuple[SweepRow, ...]
    limit_row: SweepRow
    chain_dist: np.ndarray
    operator_dists: dict[str, tuple[float, ...]]
    theta_times: dict[str, float]

    @property
    def pair_dist(self) -> tuple[float, ...]:
        return tuple(np.diagonal(self.chain_dist, 1).tolist())


def _pair_norms(m: int, M: np.ndarray, lam: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Block m's norms of the differences of consecutive operators along a
    chain, each in the mass norm of its pair's first metric: one row per
    operator of ``_OPERATORS``, both against one Cholesky factor per pair
    in one stacked solve and SVD."""
    operators = (block_function(lam, V, M, f) for _, f, _ in _OPERATORS)
    return singular_values(np.stack([E[:-1] - E[1:] for E in operators]), M[:-1])[..., 0]


def _pipeline_row(
    param: float,
    metric: ConformalMetric,
    theta_times: dict[str, float],
    spectrum: Spectrum,
    dist_to_limit: float,
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
        sup_log_dist_to_limit=dist_to_limit,
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
        its spectrum, solved in process. The solve's reducer takes the
        operator columns' distances block by block (`_pair_norms`), so no
        block outlives its m. A member whose pipeline raises, or whose row
        is non-finite, ends the sweep with that error. A nonpositive gap is
        not an error here: the ``laplaceTX`` tag of ``convergence_summary``
        reports it.
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

    chain = (*family.members, family.limit)
    basis = build_basis(L)
    pairs = BlockMax(_pair_norms)
    spectra = family_eigvals(masses(basis, chain), L, [g.id for g in chain], reduce=pairs)
    dist = sup_log_distances(chain, basis.quad.radii_theta)
    to_limit = dist[:, -1].tolist()
    rows: list[SweepRow] = []
    for p, metric, spectrum, d in zip(params, family.members, spectra, to_limit):
        row = _pipeline_row(p, metric, theta_times, spectrum, d)
        if not all(math.isfinite(v) for v in (*row.columns.values(), row.sup_log_dist_to_limit)):
            raise DomainError(f"non-finite sweep column for parameter {p}")
        rows.append(row)
    return SweepReport(
        rows=tuple(rows),
        limit_row=_pipeline_row(math.inf, family.limit, theta_times, spectra[-1], to_limit[-1]),
        chain_dist=dist,
        operator_dists={
            name: tuple(dists) for (name, _, _), dists in zip(_OPERATORS, pairs.value.tolist())
        },
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
      difference in the mass inner product of its first metric p, which
      the sweep took block by block (``report.operator_dists``). With
      B = 1 - M_p^-1 M_q, whose norm is at most e^d - 1, and norms of q's
      operators in p's mass norm costing e^d at most, R_p - R_q =
      R_p B A_q R_q is at most e^d (e^d - 1) / shift; the Duhamel integral
      of E_p(t - s) B A_q E_q(s), split at t/2 and integrated by parts on
      the first half, gives (e^d - 1)(1 + e^d (1 + 2 ln 2 / e)) at any t.

    The exact columns get a relative epsilon of the pair's larger value for
    roundoff, the operator columns an absolute one. A constant family (zero
    distances) must have zero differences up to that slack. Everything is
    read from the sweep, so no pencil is solved here.
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
    for name, _, bound in _OPERATORS:
        diffs[name] = list(report.operator_dists[name])
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


def _duhamel_integral(lam: np.ndarray, V: np.ndarray, M: np.ndarray, D: np.ndarray) -> np.ndarray:
    """int_0^t E(t - s) D E(s) ds on one block m at t = ``_DUHAMEL_TIME``, exactly:
    with E(s) = V diag(exp(-s lam)) V'M it is V (Phi o V'M D V) V'M, Phi the
    divided differences of exp(-t lam) (Daleckii-Krein),
    Phi_ij = t exp(-t min(lam_i, lam_j)) g(t |lam_i - lam_j|) with
    g(x) = (1 - exp(-x)) / x and g(0) = 1."""
    t = _DUHAMEL_TIME
    x = t * np.abs(np.subtract.outer(lam, lam))
    g = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0.0)
    VtM = V.T @ M
    return V @ (t * np.exp(-t * np.minimum.outer(lam, lam)) * g * (VtM @ D @ V)) @ VtM


def _duhamel_residual(stacks, L: int, metric_ids, h: float) -> DuhamelReport:
    """Check d/du exp(-t Delta_u) = -int_0^t E(t-s) (d Delta/du) E(s) ds.

    ``stacks`` are the mass stacks of the path u - h, u, u + h at degree L,
    solved here together. Both derivatives are centered differences with
    the step h; the time integral is exact (`_duhamel_integral`), so the
    residual is the O(h^2) error of the differencing alone. Everything runs
    per azimuthal block m, in the solve's reducer; norms are operator norms
    in the mass inner product of the middle metric, the largest over the
    blocks.
    """
    t = _DUHAMEL_TIME

    def norms(m, M, lam, V):
        E_lo, E_hi = block_function(lam[::2], V[::2], M[::2], lambda x: np.exp(-t * x))
        dE = (E_hi - E_lo) / (2.0 * h)
        d_lap = (np.linalg.inv(M[2]) - np.linalg.inv(M[0])) * (stiffness(L, m) / (2.0 * h))
        a = _duhamel_integral(lam[1], V[1], M[1], d_lap)
        return singular_values(np.stack((dE + a, dE)), M[1])[:, 0]

    reduce = BlockMax(norms)
    family_eigvals(stacks, L, metric_ids, reduce=reduce)
    resid, d_norm = reduce.value
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

    and ``max_ratio`` = ||B||_M, the largest over m of ||M_m^-1 dM_m|| in
    the M_m norm, taken by `singular_values`. As B is M-self-adjoint,
    that is the spectral radius of the Gram pencil (dM, M), and each of its
    Rayleigh quotients is an average of d(log density)/du over the nodes
    with positive weights, hence max_ratio <= ``delta_nodes`` = max over
    the nodes of |d log density/du| holds exactly in the discretization,
    up to roundoff.

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
    max_ratio = float(max(
        singular_values(np.linalg.solve(G[1:2], G[3:4]), G[1])[0, 0] for G in grams
    ))
    delta_nodes = float(np.abs(dlog).max())
    borne = BorneReport(
        u=float(u),
        delta_nodes=delta_nodes,
        max_ratio=max_ratio,
        passed=bool(max_ratio <= delta_nodes * (1.0 + 1e-9) + 1e-15),
    )
    stacks = [G[:3] for G in grams]
    return borne, _duhamel_residual(stacks, _VARIATION_L, [g.id for g in path], h)


class ConvergenceSummary(NamedTuple):
    """Every harness check on one family, with one verdict per named tag."""

    family_id: str
    L: int
    sweep: SweepReport
    cauchy: dict[str, CauchyColumn]
    borne: BorneReport
    duhamel: DuhamelReport
    quillen: QuillenLimit
    two_route: tuple[TwoRouteReport, ...]
    tags: dict[str, bool]


def convergence_summary(
    family: MetricFamily, L: int = 24, t_set: tuple[float, ...] = (0.5, 1.0, 2.0)
) -> ConvergenceSummary:
    """Run every convergence check on one family and aggregate tag verdicts.

    The sweep, Cauchy table, transported limit determinant and
    two-route checks run at degree ``L``; the variation
    checks solve their own path between the middle members at the fixed
    ``_VARIATION_L`` (`variation_checks`). Every family member takes part. A
    family with fewer than the three members that the variation path needs
    is refused before any pencil is solved.

    Each member's and the limit's pencil is solved once, in the sweep,
    which also runs the scalar pipeline on it; the Cauchy table and the
    determinant checks read its report.
    No disk cache is read or written. A member whose pipeline raises ends
    the run with that member's own error.
    """
    n = len(family.members)
    if n < 3:
        raise DomainError(f"convergence_summary needs at least 3 family members, only {n} present")
    rep = sweep(family, L=L, t_set=t_set)
    cauchy = cauchy_check(rep)
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
        "lowerbound": cauchy["lambda1"].passed,
    }
    return ConvergenceSummary(
        family_id=family.id,
        L=L,
        sweep=rep,
        cauchy=cauchy,
        borne=borne,
        duhamel=duhamel,
        quillen=quillen,
        two_route=two_route,
        tags=tags,
    )
