"""Convergence harness: sweeps, Cauchy rates, operator limits, gap floors.

Two independent oracles back the harness claims here: a direct min-max
argument on a hand-perturbed mass matrix (for the gap floor) and centered
finite differences of resolvent/heat operators along the interpolation
parameter (for the d -> 0 forms of the exact operator bounds).
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from zetasphere import discretize, harness, heatzeta, metrics, pipeline
from zetasphere.anomaly import bott_chern_bound
from zetasphere.cli import main
from zetasphere.discretize import (
    build_basis,
    mass_weights,
    masses,
    variation_weights,
    weighted_grams,
)
from zetasphere.eigensolve import (
    Spectrum,
    block_operator_norms,
    heat_operator,
    pencil_eigvalsh,
    resolvent,
)
from zetasphere.errors import DomainError, InvalidMetricError
from zetasphere.harness import (
    DUHAMEL_RATIO_TOL,
    THEOREM_TAGS,
    BorneReport,
    cauchy_check,
    convergence_summary,
    lambda1_floor,
    sweep,
    variation_checks,
)
from zetasphere.heatzeta import theta_values
from zetasphere.metrics import (
    ConformalMetric,
    MetricFamily,
    d_log_density_du,
    fs_metric,
    geomean_family,
    interpolate,
    max_metric,
    pnorm_family,
    pnorm_metric,
    sup_log_distance,
)
from zetasphere.pipeline import SpectrumCache, family_spectra, family_spectral_data

import oracles


def broken_metric() -> ConformalMetric:
    def bad_jet(r):
        nan = np.full_like(r, np.nan)
        return nan, nan, nan

    return ConformalMetric("broken", bad_jet)


def constant_family(n: int = 4) -> MetricFamily:
    member = pnorm_metric(2.0)
    return MetricFamily(
        id="const",
        members=(member,) * n,
        limit=member,
        parameters=tuple(float(k + 1) for k in range(n)),
    )


def test_theorem_tags_frozen():
    assert THEOREM_TAGS == (
        "laplaceTX",
        "bornelapbelt",
        "deltacompact",
        "variationEu",
        "key2",
        "convergenceAnomaly",
        "compare2methods",
        "lowerbound",
    )
    assert DUHAMEL_RATIO_TOL == 1e-5


def test_sweep_rows():
    fam = pnorm_family([1.0, 2.0, 3.0])
    t_set = (0.5, 1.0, 2.0)
    rep = sweep(fam, L=16, t_set=t_set)
    assert rep.limit_row.param == math.inf
    assert rep.limit_row.zeta.metric_id == "max"
    assert [r.param for r in rep.rows] == [1.0, 2.0, 3.0]
    assert [r.zeta.metric_id for r in rep.rows] == ["pnorm:1", "pnorm:2", "pnorm:3"]
    assert [r.metric for r in rep.rows] == list(fam.members)
    assert rep.theta_times == {"theta_t0.5": 0.5, "theta_t1": 1.0, "theta_t2": 2.0}
    np.testing.assert_array_equal(rep.radii, build_basis(16).quad.radii_theta)
    for row, p in zip(rep.rows, (1.0, 2.0, 3.0)):
        assert row.zeta.volume == pytest.approx(float(oracles.pnorm_volume(p)), rel=1e-6)
        assert row.sup_log_dist_to_limit == pytest.approx(
            float(oracles.sup_log_pnorm_to_max(p)), abs=1e-12
        )
        assert row.spectrum.lambda1 > 0.0
        assert row.columns["lambda1"] == row.spectrum.lambda1
        assert row.columns["vol"] == row.zeta.volume
        assert row.columns["zeta_prime0"] == row.zeta.zeta_prime0
        assert row.columns["log_quillen"] == row.zeta.log_quillen
        theta = [row.columns[f"theta_t{t}"] for t in ("0.5", "1", "2")]
        assert theta == list(theta_values(row.spectrum.eigenvalues, np.array(t_set)))
    # consecutive distances follow the closed form 2 log2 |1/p - 1/q|
    assert len(rep.pair_dist) == 3
    for dist, (p, q) in zip(rep.pair_dist, [(1.0, 2.0), (2.0, 3.0)]):
        assert dist == pytest.approx(2.0 * math.log(2.0) * abs(1 / p - 1 / q), abs=1e-12)
    # the closing pair (3, limit) at the last row's own distance to the limit
    assert rep.pair_dist[-1] == rep.rows[-1].sup_log_dist_to_limit


def test_sweep_validation():
    fam = pnorm_family([1.0, 2.0, 3.0])
    descending = MetricFamily(
        id="pnorm-descending",
        members=(pnorm_metric(3.0), pnorm_metric(2.0)),
        limit=max_metric(),
        parameters=(3.0, 2.0),
    )
    with pytest.raises(DomainError):
        sweep(descending, L=16)
    with pytest.raises(DomainError):
        sweep(fam, L=16, t_set=())
    with pytest.raises(DomainError):
        sweep(fam, L=16, t_set=(0.5, 0.0))
    with pytest.raises(DomainError, match="distinct column names"):
        sweep(fam, L=16, t_set=(0.5, 1.0, 0.5))


def test_sweep_raises_member_failure():
    """A member whose pipeline raises ends the sweep, and the summary, with
    that member's own error."""
    fam = MetricFamily(
        id="with-hole",
        members=(pnorm_metric(1.0), broken_metric(), pnorm_metric(3.0)),
        limit=max_metric(),
        parameters=(1.0, 2.0, 3.0),
    )
    with pytest.raises(InvalidMetricError, match="broken"):
        sweep(fam, L=16)
    with pytest.raises(InvalidMetricError, match="broken"):
        convergence_summary(fam, L=16)  # three members suffice


def test_cauchy_check_passes_on_smoothing_family():
    rep = sweep(pnorm_family([2.0, 4.0, 8.0]), L=16)
    cy = cauchy_check(rep)
    assert list(cy) == [
        "vol", "lambda1", "theta_t0.5", "theta_t1", "theta_t2",
        "zeta_prime0", "log_quillen", "resolvent", "heat",
    ]
    dists = rep.pair_dist
    for name, col in cy.items():
        assert col.name == name
        assert col.passed
        assert col.violations == ()
        # two member pairs, closed by (8, limit), the first pair checked too
        assert len(col.diffs) == len(col.bounds) == 3
        assert all(0.0 < x <= b for x, b in zip(col.diffs, col.bounds))
        if col.name in ("vol", "lambda1"):
            chain = [r.columns[col.name] for r in (*rep.rows, rep.limit_row)]
            for x, y, d, bound in zip(chain, chain[1:], dists, col.bounds):
                slack = 1e-9 * (1.0 + max(x, y))
                assert bound == pytest.approx(math.expm1(d) * min(x, y) + slack, rel=1e-12)


def test_cauchy_check_constant_family():
    """Zero distances force zero differences up to the recorded slack."""
    rep = sweep(constant_family(3), L=16)
    assert rep.pair_dist == (0.0, 0.0, 0.0)
    cy = cauchy_check(rep)
    for col in cy.values():
        assert col.passed
        assert max(col.diffs) == 0.0
        assert len(col.diffs) == 3  # two member pairs, closed by (3, limit)
        if col.name not in ("zeta_prime0", "log_quillen"):  # the roundoff slack alone
            assert max(col.bounds) < 1e-8


def test_cauchy_check_needs_two_rows():
    rep = sweep(pnorm_family([2.0]), L=16)
    with pytest.raises(DomainError):
        cauchy_check(rep)


def test_limit_agreement():
    """The limit row closes each Cauchy column: the pair (last member, limit)
    at the last member's distance d to the limit, under the exact bounds:
    the min-max widths of d for the exact columns, the anomaly bound plus
    the budgets (and d for zeta'(0)) for the others."""
    fam = pnorm_family([2.0, 4.0, 8.0])
    rep = sweep(fam, L=16)
    cy = cauchy_check(rep)
    last, limit = rep.rows[-1], rep.limit_row
    assert limit.zeta.metric_id == "max"
    scale = last.sup_log_dist_to_limit
    assert scale == pytest.approx(2.0 * math.log(2.0) / 8.0, abs=1e-12)
    assert all(col.passed for col in cy.values())
    budgets = last.zeta.error_budget + limit.zeta.error_budget
    anomaly = bott_chern_bound(last.metric, limit.metric, scale)
    for name in last.columns:
        col, x, y = cy[name], last.columns[name], limit.columns[name]
        assert col.diffs[-1] == abs(x - y)
        slack = 1e-9 * (1.0 + max(abs(x), abs(y)))
        if col.name == "log_quillen":
            want = anomaly + budgets
        elif col.name == "zeta_prime0":
            want = anomaly + budgets + scale
        elif col.name in ("vol", "lambda1"):
            want = math.expm1(scale) * min(x, y) + slack
        else:
            t = rep.theta_times[col.name]
            low, high = theta_values(limit.spectrum.eigenvalues, t * np.exp([scale, -scale]))
            assert low < y < high
            want = (high - y if x >= y else y - low) + slack
        assert col.bounds[-1] == pytest.approx(want, rel=1e-12)


def shift_limit_zeta_prime0(report):
    lim = report.limit_row
    columns = {**lim.columns, "zeta_prime0": lim.columns["zeta_prime0"] + 1.0}
    return report._replace(limit_row=lim._replace(columns=columns))


def test_limit_disagreement_fails_key2(monkeypatch):
    """A limit row off by one in zeta_prime0 fails that column at the
    closing pair, and with it the key2 tag."""
    fam = pnorm_family([2.0, 4.0, 8.0])
    cy = cauchy_check(shift_limit_zeta_prime0(sweep(fam, L=16)))
    assert [name for name, c in cy.items() if not c.passed] == ["zeta_prime0"]
    assert len(cy["zeta_prime0"].violations) == 1
    assert cy["zeta_prime0"].violations[0].startswith(
        "column zeta_prime0: pair (8, inf) difference "
    )

    real_sweep = harness.sweep
    monkeypatch.setattr(
        harness, "sweep", lambda *a, **k: shift_limit_zeta_prime0(real_sweep(*a, **k))
    )
    summary = convergence_summary(fam, L=16)
    assert summary.tags["key2"] is False
    assert [tag for tag, ok in summary.tags.items() if not ok] == ["key2"]
    assert [c.violations for c in summary.cauchy.values()] == [c.violations for c in cy.values()]


@pytest.mark.parametrize("name", ["lambda1", "vol"])
def test_first_pair_moved_by_its_distance_fails_key2(name):
    """The first member's lambda1, or its volume, moved by the factor
    e^(d_0) away from its neighbour's, d_0 the first pair's distance,
    leaves the min-max bound e^-d <= x / y <= e^d of that pair: key2 fails
    there, on the first pair."""
    rep = sweep(pnorm_family([1.0, 2.0, 3.0]), L=16)
    assert all(col.passed for col in cauchy_check(rep).values())
    first, second = rep.rows[0].columns[name], rep.rows[1].columns[name]
    d0 = rep.pair_dist[0]
    moved = first * math.exp(d0 if first > second else -d0)
    row = rep.rows[0]._replace(columns={**rep.rows[0].columns, name: moved})
    cy = cauchy_check(rep._replace(rows=(row, *rep.rows[1:])))
    assert [c.name for c in cy.values() if not c.passed] == [name]
    assert len(cy[name].violations) == 1
    assert cy[name].violations[0].startswith(f"column {name}: pair (1, 2) difference ")


def test_lambda1_floor():
    fam = pnorm_family([1.0, 2.0, 3.0, 4.0])
    rep = sweep(fam, L=16)
    fl = lambda1_floor(rep)
    assert fl.passed
    assert fl.rows[0].c_member == 1.0
    assert fl.rows[-1].param == math.inf  # the limit metric joins the rows
    for row, metric in zip(fl.rows, (*fam.members, fam.limit)):
        assert row.c_member == math.exp(sup_log_distance(metric, fam.members[0], rep.radii))
    assert fl.c == pytest.approx(4.0, rel=1e-14)  # pnorm:1 to max: e^(2 log 2) on the equator
    assert fl.c == max(r.c_member for r in fl.rows)
    assert fl.floor == pytest.approx(fl.rows[0].lambda1 / fl.c, rel=1e-15)
    assert fl.kappa == min(r.lambda1 for r in fl.rows)
    assert fl.margin > 0.0
    assert [r.lambda1 for r in fl.rows] == [r.spectrum.lambda1 for r in (*rep.rows, rep.limit_row)]
    single = pnorm_family([2.0])
    with pytest.raises(DomainError):
        lambda1_floor(sweep(single, L=16))


def test_lambda1_floor_matches_dense_gram_pencil():
    """Each c_member = e^d bounds the top eigenvalue of the dense Gram
    pencil (M_p, M_ref), the sharpest constant of M_p <= c M_ref, on every
    row: the mass weights are positive on the nodes."""
    fam = pnorm_family([1.0, 2.0, 3.0])
    fl = lambda1_floor(sweep(fam, L=16))
    basis = build_basis(16)
    m_ref = tuple(M for (M,) in masses(basis, (fam.members[0],)))
    for row, metric in zip(fl.rows, (*fam.members, fam.limit)):
        top = oracles.dense_gram_pencil_top((M for (M,) in masses(basis, (metric,))), m_ref)
        assert top <= row.c_member * (1.0 + 1e-12), row.param


def test_minmax_oracle_for_gap_floor():
    """Direct min-max check: scaling the density up by 10 on a cap can
    lower the gap by at most the measured mass-equivalence constant.

    The cap |z| < 0.5 is radial, so the perturbed factor is a radial metric;
    its block mass is first checked against the package-free full-grid
    oracle."""
    basis = build_basis(8)
    K = oracles.dense_matrix(oracles.exact_stiffness_blocks(8))
    m_ref = oracles.dense_matrix([M for (M,) in masses(basis, (fs_metric(),))])
    fs = fs_metric()

    def capped_jet(r):
        f, df, c1, dc1 = fs.jet(r)
        return f + np.where(r < 0.5, math.log(10.0), 0.0), df, c1, dc1

    capped = ConformalMetric("fs-cap", capped_jet, kink_radii=(0.5,))
    m_pert = oracles.dense_matrix([M for (M,) in masses(basis, (capped,))])
    want = oracles.full_grid_mass(
        8, lambda r: 2.0 / (1.0 + r * r) ** 2 * np.where(r < 0.5, 10.0, 1.0)
    )
    assert np.abs(m_pert - want).max() < 1e-12
    c = float(scipy.linalg.eigh(m_pert, m_ref, eigvals_only=True)[-1])
    assert c <= 10.0 * (1.0 + 1e-9)
    lam1_ref = scipy.linalg.eigh(K, m_ref, eigvals_only=True)[1]
    lam1_pert = scipy.linalg.eigh(K, m_pert, eigvals_only=True)[1]
    assert lam1_pert >= lam1_ref / c * (1.0 - 1e-10)


def test_resolvent_convergence():
    """The resolvent and heat columns close the Cauchy table: every pair of
    the chain of members closed by (5, limit) is within its exact bound,
    the first included. On this family the member pairs' distances also
    fall, a measured fact that no check relies on."""
    fam = pnorm_family(range(1, 6))
    rep = sweep(fam, L=16)
    cy = cauchy_check(rep)
    assert list(cy)[-2:] == ["resolvent", "heat"]
    factors = {"resolvent": lambda d: math.exp(d) * math.expm1(d),
               "heat": lambda d: math.expm1(d) * (1 + math.exp(d) * (1 + 2 * math.log(2) / math.e))}
    for name in ("resolvent", "heat"):
        column = cy[name]
        assert column.name == name and column.passed
        assert column.violations == ()
        assert len(column.diffs) == 5  # pairs (1,2), ..., (4,5), (5,inf)
        assert list(column.diffs[:4]) == sorted(column.diffs[:4], reverse=True)
        assert column.bounds == pytest.approx(
            [factors[name](d) + 1e-9 for d in rep.pair_dist], rel=1e-12
        )
        assert all(0.0 < dist <= bound for dist, bound in zip(column.diffs, column.bounds))
    with pytest.raises(DomainError):
        cauchy_check(sweep(pnorm_family([1.0]), L=16))


def test_resolvent_pairs_in_the_first_metrics_norm():
    """Each pair's distance is the block norm of the operators' difference
    in the mass inner product of the pair's first metric, one pair at a
    time: the closing pair (5, limit) in pnorm:5's."""
    rep = sweep(pnorm_family(range(1, 6)), L=16)
    cy = cauchy_check(rep)
    last, limit = rep.rows[-1].spectrum, rep.limit_row.spectrum
    for name, op in (("resolvent", lambda s: resolvent(s, 1.0)),
                     ("heat", lambda s: heat_operator(s, 1.0))):
        (want,) = block_operator_norms(
            [(a - b)[None] for a, b in zip(op(last), op(limit))], last.mass_blocks
        )
        assert cy[name].diffs[-1] == want


def test_operator_derivative_bounded_by_density_variation():
    """The d -> 0 forms of the exact operator bounds, on the u-derivative
    itself: with delta = max over the nodes and r = 1 of |d log rho/du|,
    ||dR/du|| <= delta and ||dE/du|| <= (2 + 2 ln 2 / e) delta in the mass
    norm at u (measured 3.2 to 3.4 and 7.0 to 7.2 times below at L = 10)."""
    fam = pnorm_family(range(1, 6))
    L, h = 10, 1e-3
    radii = np.append(build_basis(L).quad.radii_theta, 1.0)

    def dist(a, b, grams):
        (norm,) = block_operator_norms([(x - y)[None] for x, y in zip(a, b)], grams)
        return norm

    for u in (1.5, 2.5, 3.5):
        lo, mid, hi = family_spectra(tuple(interpolate(fam, v) for v in (u - h, u, u + h)), L)
        dr = dist(resolvent(hi, 1.0), resolvent(lo, 1.0), mid.mass_blocks) / (2 * h)
        de = dist(heat_operator(hi, 1.0), heat_operator(lo, 1.0), mid.mass_blocks) / (2 * h)
        delta = float(np.abs(d_log_density_du(fam, u, radii)).max())
        assert 0.0 < dr <= delta, u
        assert 0.0 < de <= (2.0 + 2.0 * math.log(2.0) / math.e) * delta, u


def test_bornelapbelt_report():
    fam = pnorm_family(range(1, 6))
    report, _ = variation_checks(fam)
    assert report.u == 2.5  # ceil(5/2) - 1/2: between members p = 3 and p = 4
    assert report.passed
    assert 0.0 < report.max_ratio <= report.delta_nodes * (1.0 + 1e-9) + 1e-15
    assert report.delta_nodes > 0.0


def test_bornelapbelt_matches_dense_pencil():
    """max_ratio is the largest |eigenvalue| of the dense Gram pencil
    (dM, M), scattered by the oracle and solved by scipy: the M-norm of
    B = M^-1 dM, to 1e-12 relative. It dominates the ratio
    ||d(Lap) v||_M / ||Lap v||_M of the dense form M^-1 dM M^-1 K on
    Gaussian test vectors."""
    fam = pnorm_family(range(1, 6))
    report, _ = variation_checks(fam)
    L = harness._VARIATION_L
    basis = build_basis(L)
    metric = interpolate(fam, 2.5)
    dlog = d_log_density_du(fam, 2.5, basis.quad.radii_theta)
    rows = np.stack([mass_weights(basis, metric), variation_weights(basis, metric, dlog)])
    stacks = list(weighted_grams(basis, rows))
    M, d_mass = (oracles.dense_matrix(G[k] for G in stacks) for k in (0, 1))
    want = float(np.abs(scipy.linalg.eigh(d_mass, M, eigvals_only=True)).max())
    assert report.max_ratio == pytest.approx(want, rel=1e-12)

    K = oracles.dense_matrix(oracles.exact_stiffness_blocks(L))
    test = np.random.default_rng(7).standard_normal((K.shape[0], 100))
    lap_v = np.linalg.solve(M, K @ test)
    dlap_v = -np.linalg.solve(M, d_mass @ lap_v)

    def m_norms(x):
        return np.sqrt(np.einsum("ij,ij->j", x, M @ x))

    sampled = m_norms(dlap_v) / m_norms(lap_v)
    assert sampled.max() <= report.max_ratio * (1.0 + 1e-12)


@pytest.mark.parametrize("family", [pnorm_family(), geomean_family()], ids=lambda f: f.id)
def test_bornelapbelt_bound_is_nearly_attained(family):
    """The exact radius sits within 10% of the node sup it is checked
    against (measured 0.953 for pnorm and 0.944 for geomean-pnorm at
    u = 2.5, L = 16), so the check is not vacuous."""
    report, _ = variation_checks(family)
    assert report.passed
    assert report.max_ratio >= 0.9 * report.delta_nodes


def test_bornelapbelt_deterministic():
    """Both variation reports, bornelapbelt's and the Duhamel one, repeat
    exactly."""
    fam = pnorm_family(range(1, 6))
    assert variation_checks(fam) == variation_checks(fam)


def variation_path(family: MetricFamily, u: float, h: float, L: int) -> tuple[Spectrum, ...]:
    """The pencils at u - h, u, u + h, solved by ``family_spectra``."""
    return family_spectra(tuple(interpolate(family, v) for v in (u - h, u, u + h)), L)


def test_duhamel_refinement():
    """With the time integral exact, the residual is the centered
    difference's O(h^2) error alone: halving h quarters it (ratio 4.195e-8
    -> 1.049e-8 on pnorm at u = 2.5, L = 16)."""
    fam = pnorm_family()
    h, L = harness._DUHAMEL_STEP, harness._VARIATION_L
    base = harness._duhamel_residual(*variation_path(fam, 2.5, h, L), h)
    assert base.ratio < DUHAMEL_RATIO_TOL
    assert base.derivative_norm > 0.0
    refined = harness._duhamel_residual(*variation_path(fam, 2.5, h / 2, L), h / 2)
    assert refined.residual == pytest.approx(base.residual / 4.0, rel=0.02)


@pytest.mark.parametrize("family", [pnorm_family(), geomean_family()], ids=lambda f: f.id)
def test_duhamel_integral_matches_quadrature(family):
    """The closed-form time integral of every block matches the 128-node
    Gauss-Legendre rule on [0, t] to 1e-13 relative (measured 5.7e-16 at
    L = 12), for the path's own variation operator."""
    h, L = harness._DUHAMEL_STEP, 12
    lo, mid, hi = variation_path(family, 2.5, h, L)
    d_lap = [
        (np.linalg.inv(M_hi) - np.linalg.inv(M_lo)) * (discretize.stiffness(L, m) / (2.0 * h))
        for m, (M_hi, M_lo) in enumerate(zip(hi.mass_blocks, lo.mass_blocks))
    ]
    got = harness._duhamel_integral(mid, d_lap)
    want = oracles.duhamel_integral_by_quadrature(
        mid.block_values, mid.block_vectors, mid.mass_blocks, d_lap, harness._DUHAMEL_TIME, 128
    )
    scale = max(float(np.abs(w).max()) for w in want)
    assert scale > 0.0
    assert max(float(np.abs(g - w).max()) for g, w in zip(got, want)) <= 1e-13 * scale


def test_duhamel_trivial_family():
    """Members that do not vary give a zero residual and derivative, hence
    ratio 0."""
    _, report = variation_checks(constant_family(4))
    assert report == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("family", [pnorm_family(), geomean_family()], ids=lambda f: f.id)
def test_variation_checks_match_separate_solves(family):
    """The shared path reports what the two checks report on their own:
    the Borne pencils from a Gram stack of the mass and its derivative at
    u alone, and the Duhamel residual from the three pencils solved by
    ``family_spectra``. u = ceil(n/2) - 1/2 for n members, and the degree
    is the path's own."""
    u = math.ceil(len(family.members) / 2) - 0.5
    L, h = harness._VARIATION_L, harness._DUHAMEL_STEP
    basis = build_basis(L)
    metric = interpolate(family, u)
    dlog = d_log_density_du(family, u, basis.quad.radii_theta)
    rows = np.stack([mass_weights(basis, metric), variation_weights(basis, metric, dlog)])
    max_ratio = max(
        float(np.abs(pencil_eigvalsh(dM, M)).max()) for M, dM in weighted_grams(basis, rows)
    )
    delta_nodes = float(np.abs(dlog).max())
    passed = max_ratio <= delta_nodes * (1.0 + 1e-9) + 1e-15
    borne = BorneReport(u, delta_nodes, max_ratio, passed)
    duhamel = harness._duhamel_residual(*variation_path(family, u, h, L), h)
    assert variation_checks(family) == (borne, duhamel)


def test_variation_operator_error_fails_variationEu(tmp_path, monkeypatch, capsys):
    """An error of 1e-4 in the variation operator, the stiffness inside it
    scaled by 1 + 1e-4, gives a Duhamel ratio of about 1e-4, ten times the
    tolerance: variationEu is the only failed tag, and converge exits 3
    naming it."""
    real = harness.stiffness
    monkeypatch.setattr(harness, "stiffness", lambda L, m: real(L, m) * (1.0 + 1e-4))
    config_path = tmp_path / "fam.ini"
    config_path.write_text("[run]\nL = 16\n\n[family]\nparameters = 1, 2, 3\n")
    code = main(["converge", "-c", str(config_path), "--output-dir", str(tmp_path / "out"),
                 "--cache-dir", str(tmp_path / "cache")])
    err = capsys.readouterr().err
    assert code == 3
    assert "tolerance failure on tags variationEu" in err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failed"] == ["variationEu"]
    assert summary["detail"]["duhamel_ratio"] == pytest.approx(1e-4, rel=0.05)


def test_convergence_summary_smoothing_family():
    fam = pnorm_family([1.0, 2.0, 3.0, 4.0])
    summary = convergence_summary(fam, L=16)
    assert set(summary.tags) == set(THEOREM_TAGS)
    assert all(summary.tags.values())
    assert summary.family_id == "pnorm"
    assert all(c.passed for c in summary.cauchy.values())
    # three member pairs closed by (4, limit)
    assert all(len(c.diffs) == 4 for c in summary.cauchy.values())
    assert summary.sweep.rows and summary.sweep.limit_row is not None
    assert summary.quillen.converged
    # every consecutive member pair, as the anomaly command checks them
    assert [(r.metric_p, r.metric_q) for r in summary.two_route] == [
        ("pnorm:1", "pnorm:2"), ("pnorm:2", "pnorm:3"), ("pnorm:3", "pnorm:4")
    ]
    assert all(r.passed for r in summary.two_route)
    assert summary.borne.passed
    assert summary.duhamel.ratio < DUHAMEL_RATIO_TOL
    assert summary.floor.margin > 0.0


@pytest.mark.parametrize("make", [pnorm_family, geomean_family], ids=["pnorm", "geomean-pnorm"])
def test_convergence_summary_at_L48_four_members(make):
    """Every tag passes at L = 48 on four members of either family: the
    zeta'(0) budgets are small enough there that no column, and no limit
    row, rests on a fitted coefficient."""
    summary = convergence_summary(make([1.0, 2.0, 3.0, 4.0]), L=48)
    assert summary.tags == {tag: True for tag in THEOREM_TAGS}
    limit = oracles.max_zeta_prime0() + math.log(2.0)
    assert abs(summary.quillen.limit - limit) <= 1e-7


@pytest.mark.parametrize("make", [pnorm_family, geomean_family], ids=["pnorm", "geomean-pnorm"])
def test_compare2methods_sees_a_seeded_error(make, monkeypatch):
    """Every zeta'(0) raised by 5e-5 vol, an error the parent's fitted
    budgets let through up to 3e-3 vol, fails compare2methods at L = 24:
    the members' volumes differ, so the two routes no longer agree within
    three times the budgets. Unseeded, every pair passes, and the limit
    log h_Q is within 1e-6 of the closed form."""
    family = make()
    summary = convergence_summary(family, L=24)
    assert summary.tags["compare2methods"]
    limit = oracles.max_zeta_prime0() + math.log(2.0)
    assert abs(summary.quillen.limit - limit) <= 1e-6

    real = harness.zeta_result

    def seeded(spectrum, metric):
        zres = real(spectrum, metric)
        return zres._replace(zeta_prime0=zres.zeta_prime0 + 5e-5 * zres.volume)

    monkeypatch.setattr(harness, "zeta_result", seeded)
    assert not convergence_summary(family, L=24).tags["compare2methods"]


def _seed_zeta_prime0(monkeypatch, metric_id, budgets):
    """Move the zeta'(0) of ``metric_id``'s record by ``budgets`` times its
    own error budget, wherever the harness computes it."""
    real = harness.zeta_result

    def seeded(spectrum, metric):
        zres = real(spectrum, metric)
        if metric.id != metric_id:
            return zres
        return zres._replace(zeta_prime0=zres.zeta_prime0 + budgets * zres.error_budget)

    monkeypatch.setattr(harness, "zeta_result", seeded)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("make", [pnorm_family, geomean_family], ids=["pnorm", "geomean-pnorm"])
def test_convergence_anomaly_sees_a_seeded_member_error(make, k, sign, monkeypatch):
    """Member k's zeta'(0) moved by 3 times its budget, either way, fails
    convergenceAnomaly at L = 24: its prediction of the limit leaves the
    interval the other rows share. Member 1 is not tested, and a move of
    it is not caught: its budget is the smallest (2.1e-7 on pnorm, 8 times
    below member 2's; 2.6 times on geomean-pnorm), so its moved interval
    still meets member 2's."""
    family = make()
    _seed_zeta_prime0(monkeypatch, family.members[k - 1].id, 3.0 * sign)
    summary = convergence_summary(family, L=24)
    assert not summary.tags["convergenceAnomaly"]
    assert f"from parameter {family.parameters[k - 1]:g}" in summary.quillen.failures[0]


@pytest.mark.parametrize("make", [pnorm_family, geomean_family], ids=["pnorm", "geomean-pnorm"])
def test_convergence_anomaly_sees_a_seeded_limit_error(make, monkeypatch):
    """The limit row's direct zeta'(0) moved by 3 times its budget (7.7e-2
    at L = 24) fails convergenceAnomaly: the members predict the limit far
    inside that budget. Unseeded, the tag passes."""
    family = make()
    assert convergence_summary(family, L=24).tags["convergenceAnomaly"]
    _seed_zeta_prime0(monkeypatch, family.limit.id, 3.0)
    summary = convergence_summary(family, L=24)
    assert not summary.tags["convergenceAnomaly"]
    assert "from parameter inf" in summary.quillen.failures[0]


def test_converge_refuses_small_family_before_solving(tmp_path, solved, capsys):
    """converge needs three members, for the variation path; it says so
    before any pencil is solved."""
    config_path = tmp_path / "fam.ini"
    config_path.write_text("[run]\nL = 16\n\n[family]\nparameters = 1, 2\n")
    code = main(["converge", "-c", str(config_path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "needs at least 3 family members, only 2 present" in capsys.readouterr().err
    with pytest.raises(DomainError, match="needs at least 3 family members, only 2 present"):
        convergence_summary(pnorm_family([1.0, 2.0]), L=16)
    assert solved == []
    assert not (tmp_path / "out").exists()


def test_converge_accepts_three_members(tmp_path, capsys):
    """Three members are enough for every check: the variation path runs at
    u = 1.5, between the second and third members, and every tag passes."""
    config_path = tmp_path / "fam.ini"
    config_path.write_text("[run]\nL = 16\n\n[family]\nparameters = 1, 2, 3\n")
    code = main(["converge", "-c", str(config_path), "--output-dir", str(tmp_path / "out"),
                 "--cache-dir", str(tmp_path / "cache")])
    capsys.readouterr()
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["tags"] == {tag: True for tag in THEOREM_TAGS}
    assert summary["detail"]["borne"]["u"] == 1.5


@pytest.mark.parametrize("make, params", [
    (pnorm_family, (1.0, 2.0, 3.0, 10.0)),
    (geomean_family, (1.0, 2.0, 3.0, 10.0)),
    (pnorm_family, (1.0, 1.5, 2.0, 6.0)),
])
def test_uneven_families_pass_every_tag(make, params):
    """Any ascending spacing is a valid family: a wide step after narrow
    ones moves the operators further than the step before, and every pair
    still lies within its exact bound, so every tag passes."""
    summary = convergence_summary(make(params), L=16)
    assert summary.tags == {tag: True for tag in THEOREM_TAGS}
    resolvent = summary.cauchy["resolvent"].diffs
    assert resolvent[2] > resolvent[1]  # the wide step's operators move further


def test_converge_accepts_uneven_spacing(tmp_path, capsys):
    """converge passes a family whose last step is the widest."""
    config_path = tmp_path / "fam.ini"
    config_path.write_text("[run]\nL = 16\n\n[family]\nparameters = 1, 2, 3, 10\n")
    code = main(["converge", "-c", str(config_path), "--output-dir", str(tmp_path / "out"),
                 "--cache-dir", str(tmp_path / "cache")])
    capsys.readouterr()
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failed"] == []
    assert summary["detail"]["resolvent"]["failures"] == []


def shrink_limit_values(report, factor=0.25):
    """The sweep ``report`` with its limit row's block eigenvalues scaled by
    ``factor``: the limit's operators move, its scalar columns do not."""
    lim = report.limit_row
    spectrum = lim.spectrum._replace(
        block_values=tuple(factor * v for v in lim.spectrum.block_values)
    )
    return report._replace(limit_row=lim._replace(spectrum=spectrum))


@pytest.mark.parametrize("make", [pnorm_family, geomean_family])
def test_shrunk_limit_fails_deltacompact(make, monkeypatch):
    """A limit whose eigenvalues are scaled by 1/4 moves its resolvent
    beyond the exact bound of the closing pair (1.06 times it on pnorm,
    1.16 on geomean-pnorm at L = 24), while the heat operator stays within
    its own: the resolvent column fails there alone, and with it the
    deltacompact tag alone."""
    family = make()
    cy = cauchy_check(shrink_limit_values(sweep(family, L=24)))
    assert [name for name, c in cy.items() if not c.passed] == ["resolvent"]
    (violation,) = cy["resolvent"].violations
    assert violation.startswith("column resolvent: pair (6, inf) difference ")

    real_sweep = harness.sweep
    monkeypatch.setattr(harness, "sweep", lambda *a, **k: shrink_limit_values(real_sweep(*a, **k)))
    summary = convergence_summary(family, L=24)
    assert [tag for tag, ok in summary.tags.items() if not ok] == ["deltacompact"]
    assert summary.cauchy["resolvent"].violations == (violation,)


def test_pipeline_runs_once_per_metric(cache, tmp_path, monkeypatch, solved, capsys):
    """Every command solves each distinct metric and evaluates its zeta
    record once: the checks
    read the results the sweep (or the per-member pass of anomaly) computed.
    ``convergence_summary`` solves each (metric, L) pencil once, reads no
    disk cache, and its gap floor and Cauchy table neither assemble a mass
    block nor solve a pencil: they read the sweep's spectra."""
    # name each metric by its L = 16 spectrum,
    # from the values-only solve (which the disk cache serves bit for bit)
    # and from the vectors path the harness sweep runs
    family = pnorm_family()
    metrics = (*family.members, family.limit)
    metric_of = {
        data.eigenvalues.tobytes(): m.id
        for m in metrics
        for data in (*family_spectral_data((m,), 16, cache=cache), *family_spectra((m,), 16))
    }
    evaluated: list[str] = []
    solved.clear()  # the solves that named the spectra above are not the commands'
    loads: list[tuple[str, int]] = []
    in_checks: list[str] = []
    inside = [False]
    real_zeta = heatzeta.zeta_result
    real_load = SpectrumCache.load

    def counting_zeta(spectrum, metric):
        evaluated.append(metric_of[spectrum.eigenvalues.tobytes()])
        return real_zeta(spectrum, metric)

    def counting_load(self, metric_id, L):
        loads.append((metric_id, L))
        return real_load(self, metric_id, L)

    def flagged(fn):
        def wrapper(*args, **kwargs):
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False
        return wrapper

    def watched(name, fn):
        def wrapper(*args, **kwargs):
            if inside[0]:
                in_checks.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (heatzeta, harness):
        monkeypatch.setattr(module, "zeta_result", counting_zeta)
    monkeypatch.setattr(SpectrumCache, "load", counting_load)
    for check in ("lambda1_floor", "cauchy_check"):
        monkeypatch.setattr(harness, check, flagged(getattr(harness, check)))
    for module in (discretize, pipeline, harness):
        for name in ("masses", "weighted_grams", "family_spectra"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, watched(name, getattr(module, name)))
    members = [f"pnorm:{p}" for p in range(1, 7)]

    convergence_summary(pnorm_family(), L=16)
    assert evaluated == [*members, "max"]
    assert len(set(solved)) == len(solved)
    assert {(m, 16) for m in [*members, "max"]} <= set(solved)
    assert loads == []
    assert in_checks == []

    evaluated.clear()
    code = main(["anomaly", "--L", "16", "--output-dir", str(tmp_path),
                 "--cache-dir", str(cache.root)])
    capsys.readouterr()
    assert code == 0
    assert evaluated == members


def test_family_commands_share_legendre_sweeps(tmp_path, monkeypatch, capsys):
    """A family's pencils share one Legendre sweep: a cold ``anomaly`` runs
    one, ``convergence_summary`` two (the sweep at L, the variation path at
    its own fixed degree)."""
    sweeps: list[int] = []
    real = discretize.legendre_blocks

    def counting(L, x):
        sweeps.append(L)
        return real(L, x)

    monkeypatch.setattr(discretize, "legendre_blocks", counting)
    code = main(["anomaly", "--L", "16", "--output-dir", str(tmp_path / "out"),
                 "--cache-dir", str(tmp_path / "cache")])
    capsys.readouterr()
    assert code == 0
    assert sweeps == [16]

    sweeps.clear()
    convergence_summary(pnorm_family(), L=24)
    assert sweeps == [24, harness._VARIATION_L]


def test_only_the_variation_checks_interpolate(monkeypatch):
    """``convergence_summary`` builds three interpolated metrics, the
    variation path at u - h, u and u + h, which both variation checks read.
    No other check builds one."""
    calls: list[tuple[str, float]] = []
    real = metrics.interpolate

    def counting(family, u):
        calls.append((family.id, u))
        return real(family, u)

    monkeypatch.setattr(metrics, "interpolate", counting)
    monkeypatch.setattr(harness, "interpolate", counting)
    convergence_summary(pnorm_family(), L=24)
    h = harness._DUHAMEL_STEP
    assert calls == [("pnorm", 2.5 - h), ("pnorm", 2.5), ("pnorm", 2.5 + h)]


def test_nonpositive_gap_fails_laplaceTX(tmp_path, monkeypatch, capsys):
    """A member without a positive spectral gap is a failed laplaceTX check:
    converge writes its summary and exits 3 naming the tag."""
    real_gap = Spectrum.lambda1.fget

    def gap(spectrum):
        return 0.0 if spectrum.metric_id == "pnorm:2" else real_gap(spectrum)

    monkeypatch.setattr(Spectrum, "lambda1", property(gap))
    config_path = tmp_path / "fam.ini"
    config_path.write_text("[run]\nL = 16\n\n[family]\nname = pnorm\nparameters = 1, 2, 3, 4\n")
    code = main(["converge", "-c", str(config_path), "--output-dir", str(tmp_path / "out"),
                 "--cache-dir", str(tmp_path / "cache")])
    err = capsys.readouterr().err
    assert code == 3
    assert "laplaceTX" in err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["tags"]["laplaceTX"] is False
    assert "laplaceTX" in summary["failed"]
    lambda1 = [row.split(",")[2] for row in (tmp_path / "out" / "converge.csv").read_text().splitlines()]
    assert lambda1[2] == "0"


def test_convergence_summary_constant_family():
    """A family of identical members exercises every degenerate branch."""
    summary = convergence_summary(constant_family(4), L=16)
    assert all(summary.tags.values())
    # the limit is the member itself: distance 0, one more pair to close
    assert summary.sweep.limit_row.sup_log_dist_to_limit == 0.0
    assert all(len(c.diffs) == 4 for c in summary.cauchy.values())
    # zero density variation
    assert all(max(summary.cauchy[name].diffs) == 0.0 for name in ("resolvent", "heat"))
    assert summary.duhamel.ratio == 0.0
    assert summary.borne.max_ratio == 0.0
    assert len(summary.two_route) == 3
    assert all(r.gap == pytest.approx(0.0, abs=1e-12) for r in summary.two_route)
