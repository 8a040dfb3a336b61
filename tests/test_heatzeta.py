"""Heat trace, heat invariants, zeta values, and the zeta'(0) estimator.

The regularized determinant path is validated against oracles that never
import the package:

* the heat invariants b_1 and b_2 against mpmath quadrature of closed-form
  jets in s = log r;
* the closed form sum E1(lambda t) - b_-1/t + b_0 (gamma + log t)
  + b_1 t + b_2 t^2 / 2 and an exact finite-spectrum identity, evaluated
  with mpmath;
* zeta'(0) of fs, pnorm, max and their compositions against the exact
  smoothing law, the Polyakov formula and the rescaling law: the error at
  every L tested lies within the reported budget, and a deliberately wrong
  b_1 or b_2 breaks that.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import blocks
import oracles
from zetasphere import heatzeta
from zetasphere.discretize import build_basis, colatitude_nodes, masses
from zetasphere.eigensolve import SOLVER_VERSION, Spectrum, family_eigvals, nested_degree
from zetasphere.errors import DomainError
from zetasphere.heatzeta import (
    B0,
    LADDER,
    exp_e1,
    heat_invariants,
    theta_values,
    zeta_direct,
    zeta_result,
)
from zetasphere.metrics import (
    MetricFamily,
    fs_metric,
    geomean_metric,
    interpolate,
    max_metric,
    parse_metric_spec,
    pnorm_metric,
    scaled_metric,
)
from zetasphere import pipeline
from zetasphere.pipeline import SpectrumCache, family_spectral_data
from zetasphere.quadrature import JET_RULE_NODES

EULER_GAMMA = float(np.euler_gamma)

# A synthetic positive spectrum, its nested part and volume, for the closed
# form: the round metric's invariants apply to it as to any spectrum.
SYNTH = np.array([0.0, 0.8, 2.0, 3.7, 6.1])
SYNTH_NESTED = SYNTH[:3]
SYNTH_VOLUME = 2.0


def _synthetic(lam, nested, volume=SYNTH_VOLUME) -> Spectrum:
    """The record of a synthetic spectrum; `zeta_result` reads its
    eigenvalues, volume and nested eigenvalues alone."""
    return Spectrum("synth", 0, lam, volume, nested)


SYNTH_SPECTRUM = _synthetic(SYNTH, SYNTH_NESTED)


# ---------------------------------------------------------------- exp_e1


def test_exp_e1_against_mpmath():
    xs = np.logspace(-3, 2, 25)
    got = exp_e1(xs)
    want = np.array([oracles.e1(x) for x in xs])
    assert np.abs(got - want).max() < 1e-14 * np.maximum(1.0, np.abs(want)).max()


def test_exp_e1_continued_fraction_against_mpmath():
    """From 1 up, the backward continued fraction is within 4 ulp of mpmath
    on every normal value, across the series seam at 1 and the ends of the
    spectra's range, and exactly 0.0 wherever mpmath's E1 rounds to 0.0.
    Below 1 the fixed-depth series is within 4 ulp too, down to 1e-300."""
    xs = np.concatenate([
        np.geomspace(1.0, 2000.0, 4000),
        [1.0 - 1e-12, 1.0, 1.0 + 1e-12, 0.85],
        [1e-300, 1e-12, 0.02, 0.5],
        [744.4, 745.1, 745.13, 745.14, 745.2, 745.21],
    ])
    got = exp_e1(xs)
    want = np.array([oracles.e1(x) for x in xs])
    assert np.array_equal(got == 0.0, want == 0.0)
    normal = want >= np.finfo(float).tiny
    assert np.all(np.abs(got[normal] - want[normal]) <= 4 * np.finfo(float).eps * want[normal])


def test_exp_e1_scalar_and_domain():
    v = exp_e1(1.0)
    assert isinstance(v, float)
    assert v == pytest.approx(oracles.e1(1.0), rel=1e-14)
    with pytest.raises(DomainError):
        exp_e1(0.0)
    with pytest.raises(DomainError):
        exp_e1(np.array([1.0, -2.0]))


# ---------------------------------------------------------------- theta


def test_theta_excludes_kernel_and_counts_multiplicity():
    lam = np.array([0.0, 1.0, 1.0, 2.0])
    t = 0.7
    want = 2.0 * math.exp(-t) + math.exp(-2.0 * t)
    assert theta_values(lam, np.array([t]))[0] == pytest.approx(want, rel=1e-15)


def test_theta_values_memory_is_bounded():
    """2000 times over n positive values (L = 16 and L = 128 sized spectra):
    the sum runs over one reused block of 8192 floats, as many times at once
    as fit, so its peak allocation stays under 1 MB (measured 0.21 and
    0.28 MB) against the 266 MB of one (len(t), n) matrix at n = 16640, and
    every value is bitwise the sum a single row, or the whole matrix, gives."""
    t = np.geomspace(1e-3, 10.0, 2000)
    for n in (288, 16640):
        lam = np.concatenate([[0.0], np.linspace(2.0, 2.0 * n, n)])
        tracemalloc.start()
        try:
            values = theta_values(lam, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, (n, peak)
        per_time = [
            np.exp(-np.outer(t[i : i + 1], lam[1:])).sum(axis=1)[0] for i in range(t.size)
        ]
        assert np.array_equal(values, per_time), n
        some = t[::10]
        want = np.exp(-np.outer(some, lam[1:])).sum(axis=1)
        assert np.array_equal(theta_values(lam, some), want), n


def test_theta_grid_shape_properties():
    (spec,) = blocks.solve_blocks((pnorm_metric(3.0),), 10)
    t = np.linspace(0.05, 3.0, 60)
    th = theta_values(spec.eigenvalues, t)
    assert np.all(th > 0.0)
    assert np.all(np.diff(th) < 0.0)
    # log-convexity of a positive sum of decaying exponentials
    logs = np.log(th)
    assert np.all(np.diff(logs, 2) > -1e-12)
    # decay no slower than the bottom of the positive spectrum allows
    n_pos = spec.eigenvalues.size - 1
    assert np.all(th <= n_pos * np.exp(-spec.lambda1 * t) * (1.0 + 1e-12))


def test_theta_polynomial_domination():
    """exp(-x) <= 2/x^2 turns theta into a zeta bound: theta(t) <= 2 zeta(2)/t^2."""
    (spec,) = blocks.solve_blocks((pnorm_metric(3.0),), 10)
    z2 = zeta_direct(spec.eigenvalues, 2.0).value
    for t in (0.2, 0.8, 2.0):
        assert theta_values(spec.eigenvalues, np.array([t]))[0] <= 2.0 * z2 / t**2 * (1.0 + 1e-12)


def test_theta_resolvent_domination():
    """exp(-t a) <= c_t / (1+a)^2 with c_t = sup_a exp(-t a)(1+a)^2."""
    (spec,) = blocks.solve_blocks((pnorm_metric(3.0),), 10)
    lam = spec.eigenvalues[1:]
    trace_r2 = float(np.sum(1.0 / (1.0 + lam) ** 2))
    a = np.linspace(0.0, 200.0, 400001)
    for t in (0.5, 1.0, 3.0):
        c_t = 4.0 * math.exp(t - 2.0) / t**2 if t <= 2.0 else 1.0
        sup = np.max(np.exp(-t * a) * (1.0 + a) ** 2)
        assert c_t == pytest.approx(sup, rel=1e-6)
        assert theta_values(spec.eigenvalues, np.array([t]))[0] <= c_t * trace_r2 * (1.0 + 1e-12)


def test_heat_trace_samples_bookkeeping():
    """The heat-trace samples the theta command uses agree pointwise with
    one time at a time, and the E1 sums of the estimator with a sum of
    exp_e1 calls."""
    (spec,) = blocks.solve_blocks((pnorm_metric(3.0),), 8)
    assert spec.metric_id == "pnorm:3"
    lam = spec.eigenvalues
    t = np.geomspace(0.05, 1.0, 10)
    values = theta_values(lam, t)
    want = np.array([theta_values(lam, np.array([ti]))[0] for ti in t])
    assert np.allclose(values, want, rtol=1e-15)
    distinct, count = np.unique(lam[1:], return_counts=True)
    sums = heatzeta._row_sums([(ti, distinct, count) for ti in t], exp_e1)
    assert np.allclose(sums, [exp_e1(lam[1:] * ti).sum() for ti in t], rtol=1e-15)


# ---------------------------------------------------------------- invariants


_MP_S_JETS = {
    "fs": oracles.s_jet_fs,
    **{f"pnorm:{p}": oracles.s_jet_pnorm(p) for p in (2, 3, 4, 8)},
    "interp:2.5:pnorm": oracles.s_jet_blend(
        oracles.s_jet_pnorm(3), oracles.s_jet_pnorm(4), 0.5
    ),
    "geomean(fs,pnorm:3)": oracles.s_jet_geomean(oracles.s_jet_fs, oracles.s_jet_pnorm(3)),
}


def test_round_metric_heat_invariants():
    """b_1 = 1/30 and b_2 = 1/315 for fs, on the jet rule and on half of it."""
    for n in (JET_RULE_NODES, JET_RULE_NODES // 2):
        b1, b2 = heat_invariants(fs_metric(), n)
        assert abs(b1 - 1.0 / 30.0) <= 1e-14 and abs(b2 - 1.0 / 315.0) <= 1e-14, n


@pytest.mark.parametrize("spec", list(_MP_S_JETS))
def test_heat_invariants_match_mpmath(spec):
    """b_1 and b_2 from the jet on the shared rule against mpmath quadrature
    of closed-form s-jets, to 1e-12 relative (measured at most 2.3e-15)."""
    got = heat_invariants(parse_metric_spec(spec))
    want = oracles.heat_invariants(_MP_S_JETS[spec])
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w), (spec, got, want)


def test_heat_invariants_scaling_and_order():
    """In tau = t / s the invariants of scaled:c:g are g's; an order-1
    metric pins b_1 alone and a kinked one neither."""
    for c in (1e-3, 1e6, 1e-300):
        for base in (fs_metric(), pnorm_metric(3.0)):
            got, want = heat_invariants(scaled_metric(c, base)), heat_invariants(base)
            assert got == pytest.approx(want, rel=1e-12), (c, base.id)
    b1, b2 = heat_invariants(pnorm_metric(1.5))
    assert b1 > 0.0 and b2 == 0.0
    assert heat_invariants(max_metric()) == (0.0, 0.0)
    assert heat_invariants(geomean_metric(fs_metric(), max_metric())) == (0.0, 0.0)


# ---------------------------------------------------------------- zeta(s)


def test_zeta_direct_values():
    lam = np.array([0.0, 1.0, 2.0, 4.0])
    point = zeta_direct(lam, 2.0)
    assert point.value == pytest.approx(1.0 + 0.25 + 0.0625, rel=1e-15)
    assert point.tail_bound == 0.0
    with_tail = zeta_direct(lam, 2.0, b_minus1=3.0)
    assert with_tail.tail_bound == pytest.approx(3.0 / 4.0, rel=1e-15)
    for s in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            zeta_direct(lam, s)
    with pytest.raises(DomainError):
        zeta_direct(np.array([0.0]), 2.0)


def test_zeta_mellin_matches_direct():
    lam = family_spectral_data((pnorm_metric(3.0),), 24)[0].eigenvalues
    for s in (1.5, 2.0, 3.0):
        point = zeta_direct(lam, s)
        # same discrete quantity through an independent quadrature route
        assert abs(oracles.zeta_mellin(lam, s) - point.value) / point.value < 1e-8, s


def test_zeta_mellin_validation():
    lam = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        oracles.zeta_mellin(lam, 1.0)


# ---------------------------------------------------------------- zeta'(0)


def test_zeta_prime_zero_four_term_closed_form():
    """An order-1 metric pins b_1 but not b_2, so zeta'(0) is the four-term
    closed form sum E1(lambda t) - b_-1/t + b_0 (gamma + log t) + b_1 t at
    the chosen rung t, evaluated by mpmath."""
    metric = pnorm_metric(1.5)
    zres = zeta_result(SYNTH_SPECTRUM, metric)
    b1, b2 = heat_invariants(metric)
    assert b2 == 0.0 and zres.method["b"]["b1"] == b1
    want = oracles.closed_form_zeta_prime(
        SYNTH, SYNTH_VOLUME, -2.0 / 3.0, b1, 0.0, zres.method["tau_lo"]
    )
    assert zres.zeta_prime0 == pytest.approx(want, abs=1e-12)


def test_zeta_prime_zero_closed_form():
    """With the round metric's invariants, zeta'(0) is the closed form
    sum E1(lambda t) - b_-1/t + b_0 (gamma + log t) + b_1 t + b_2 t^2 / 2
    at the chosen rung t, evaluated by mpmath."""
    zres = zeta_result(SYNTH_SPECTRUM, fs_metric())
    t = zres.method["tau_lo"]
    want = oracles.closed_form_zeta_prime(
        SYNTH, SYNTH_VOLUME, -2.0 / 3.0, 1.0 / 30.0, 1.0 / 315.0, t
    )
    assert zres.zeta_prime0 == pytest.approx(want, abs=1e-12)


def test_zeta_prime_zero_finite_spectrum_identity():
    """Against mpmath through the exact correction to -sum(log lambda)."""
    lam = 0.5 + 0.25 * np.arange(40.0)
    zres = zeta_result(_synthetic(lam, lam[:30]), fs_metric())
    want = -oracles.finite_spectrum_log_det(lam) + oracles.finite_spectrum_correction(
        lam, SYNTH_VOLUME, -2.0 / 3.0, 1.0 / 30.0, 1.0 / 315.0, zres.method["tau_lo"]
    )
    assert zres.zeta_prime0 == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("scale", [None, 1.0, 100.0])
def test_zeta_prime_zero_e1_parts_against_mpmath(scale):
    """The spectral part, a sum of exponential integrals at t = s tau_lo,
    matches mpmath's E1 to 1e-13 relative: on the synthetic spectrum, and
    on pnorm:3 at L = 16, whose t passes 1 when scaled by 100."""
    if scale is None:
        lam, zres = SYNTH, zeta_result(SYNTH_SPECTRUM, fs_metric())
    else:
        metric = scaled_metric(scale, pnorm_metric(3.0))
        (data,) = family_spectral_data((metric,), 16)
        lam, zres = data.eigenvalues, zeta_result(data, metric)
    t = zres.method["scale"] * zres.method["tau_lo"]
    if scale is not None:
        assert (t > 1.0) == (scale > 1.0)
    spectral = oracles.e1_zeta_prime_parts(lam, t)
    assert zres.method["zeta_prime0_parts"]["spectral"] == pytest.approx(spectral, rel=1e-13)


def test_zeta_result_evaluates_no_heat_trace(monkeypatch):
    """zeta'(0) reads the trace through the E1 closed form alone: a call
    evaluates no heat trace."""
    (data,) = family_spectral_data((pnorm_metric(3.0),), 16)
    asked = []

    def counting(eigenvalues, t):
        asked.append(np.size(t))
        return theta_values(eigenvalues, t)

    monkeypatch.setattr(heatzeta, "theta_values", counting)
    zeta_result(data, pnorm_metric(3.0))
    assert asked == []


def test_zeta_result_evaluates_e1_once(monkeypatch):
    """E1 is evaluated once per argument: on the distinct eigenvalues at the
    nine times of the ladder and its doubled top, on the distinct nested
    ones at the eight rungs, and at the top eigenvalue for the Weyl tail, in
    blocks no larger than the spectrum or 8192 arguments. The cos and sin
    copies of each m >= 1 block are one distinct value."""
    (data,) = family_spectral_data((pnorm_metric(3.0),), 24)
    calls = []

    def counting(x):
        calls.append(np.size(x))
        return exp_e1(x)

    monkeypatch.setattr(heatzeta, "exp_e1", counting)
    zeta_result(data, pnorm_metric(3.0))
    n, n_nested = (np.unique(lam[lam > 0.0]).size for lam in (data.eigenvalues, data.nested))
    assert n < 0.52 * data.eigenvalues.size
    assert sum(calls) == 9 * n + 8 * n_nested + 8
    assert max(calls) <= max(8192, n)


@pytest.mark.parametrize("L", [48, 128])
def test_zeta_result_memory_is_bounded(L):
    """The E1 sums run in bounded blocks, so zeta_result on the round
    spectrum at L = 48 and 128 allocates at most 1.5 MB beyond its inputs
    (measured 0.08 and 0.47 MB; one stacked (9, n) E1 call peaks at 0.76
    and 5.2 MB)."""
    ell = np.arange(L + 1)
    lam = np.repeat(ell * (ell + 1) / 2.0, 2 * ell + 1)
    spectrum = _synthetic(lam, lam[: (nested_degree(L) + 1) ** 2])
    tracemalloc.start()
    try:
        zeta_result(spectrum, fs_metric())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


@pytest.mark.parametrize("spec, keys", [
    ("fs", {"b_minus1", "b0", "b1", "b2"}),
    ("scaled:100:fs", {"b_minus1", "b0", "b1", "b2"}),
    ("pnorm:1.5", {"b_minus1", "b0", "b1"}),
    ("max", {"b_minus1", "b0"}),
])
def test_zeta_prime_zero_parts_by_order(spec, keys):
    """zeta'(0) is the sum of its three parts at t = s tau_lo; the method
    records the pinned coefficients, as many as the order pins, in tau."""
    metric = parse_metric_spec(spec)
    zres = zeta_result(SYNTH_SPECTRUM, metric)
    method = zres.method
    assert set(method) == {"tau_lo", "scale", "order", "b", "zeta_prime0_parts", "budget_parts"}
    assert set(method["b"]) == keys and method["order"] == metric.order
    s, tau, b = metric.scale_hint, method["tau_lo"], method["b"]
    assert method["scale"] == s and tau in LADDER
    assert b["b_minus1"] == SYNTH_VOLUME / s and b["b0"] == B0 == zres.zeta0
    parts = method["zeta_prime0_parts"]
    assert parts["head"] == pytest.approx(b.get("b1", 0.0) * tau + b.get("b2", 0.0) * tau**2 / 2)
    assert parts["regularization"] == pytest.approx(
        B0 * (EULER_GAMMA + math.log(s * tau)) - b["b_minus1"] / tau, rel=1e-12
    )
    pieces = parts["spectral"] + parts["regularization"] + parts["head"]
    assert zres.zeta_prime0 == pytest.approx(pieces, rel=1e-12)


def test_zeta_prime_zero_variants_and_parts():
    """On a real spectrum, pnorm:3 at L = 16, the parts sum to zeta'(0),
    the head is the pinned b_1 and b_2 at tau_lo, and the record's zeta(0)
    is b_0."""
    (data,) = family_spectral_data((pnorm_metric(3.0),), 16)
    zres = zeta_result(data, pnorm_metric(3.0))
    parts, b, tau = zres.method["zeta_prime0_parts"], zres.method["b"], zres.method["tau_lo"]
    assert set(parts) == {"spectral", "regularization", "head"}
    assert parts["head"] == pytest.approx(b["b1"] * tau + b["b2"] * tau**2 / 2, rel=1e-12)
    pieces = parts["spectral"] + parts["regularization"] + parts["head"]
    assert zres.zeta_prime0 == pytest.approx(pieces, rel=1e-12)
    assert zres.zeta0 == B0


def _ladder(lam, nested, volume, metric):
    """The estimator's rungs recomputed term by term from exp_e1: Z at the
    ladder and its doubled top, and per rung the law, nested, tail and
    quadrature parts."""
    s, a = metric.scale_hint, (0.5, 1.0, 3.0)[metric.order]
    b1, b2 = heat_invariants(metric)
    h1, h2 = heat_invariants(metric, JET_RULE_NODES // 2)
    lam, nested = lam[lam > 0.0] * s, nested[nested > 0.0] * s
    taus = [*LADDER, 2.0 * LADDER[-1]]
    z = [
        exp_e1(lam * t).sum() - volume / s / t + B0 * (EULER_GAMMA + math.log(t))
        + b1 * t + b2 * t * t / 2.0
        for t in taus
    ]
    rungs = []
    for j, t in enumerate(LADDER):
        x = lam[-1] * t
        rungs.append((
            abs(z[j] - z[j + 1]) / (2.0**a - 1.0),
            abs(exp_e1(lam * t).sum() - exp_e1(nested * t).sum()),
            volume / s * (math.exp(-x) - x * exp_e1(x)) / t,
            abs((b1 - h1) * t + (b2 - h2) * t * t / 2.0),
        ))
    return rungs


def test_zeta_prime_zero_budget_assembly():
    """lo is the qualifying rung (nested + tail <= law) with the smallest
    budget 3 law + nested + tail + quadrature, and the budget and its parts
    are that rung's, recomputed term by term, for each order and a scaled
    metric, at L = 24. The law and nested parts are differences of E1 sums,
    so they agree to the roundoff of those sums, 1e-14 of the rung's."""
    metrics = [parse_metric_spec(s) for s in ("pnorm:3", "pnorm:1.5", "max", "scaled:1e-06:fs")]
    for metric, data in zip(metrics, family_spectral_data(metrics, 24)):
        zres = zeta_result(data, metric)
        rungs = _ladder(data.eigenvalues, data.nested, data.volume, metric)
        budgets = [3.0 * e + d + w + q if d + w <= e else math.inf for e, d, w, q in rungs]
        j = int(np.argmin(budgets))
        assert math.isfinite(budgets[j]) and zres.method["tau_lo"] == LADDER[j], metric.id
        e, d, w, q = rungs[j]
        parts = zres.method["budget_parts"]
        roundoff = 1e-14 * zres.method["zeta_prime0_parts"]["spectral"]
        got = (parts["law"], parts["nested"], parts["weyl_tail"], parts["quadrature"])
        for g, want in zip(got, (3.0 * e, d, w, q)):
            assert g == pytest.approx(want, rel=1e-9, abs=roundoff), (metric.id, parts)
        assert zres.error_budget == pytest.approx(budgets[j], rel=1e-9, abs=5 * roundoff)
        assert zres.error_budget == pytest.approx(sum(parts.values()), rel=1e-12)


def test_no_qualifying_rung_takes_the_top():
    """A nested spectrum far from the full one makes every rung fail
    nested + tail <= law, and zeta'(0) is then read at the top rung."""
    (data,) = family_spectral_data((pnorm_metric(3.0),), 16)
    zres = zeta_result(data._replace(nested=2.0 * data.nested), pnorm_metric(3.0))
    assert zres.method["tau_lo"] == LADDER[-1]
    parts = zres.method["budget_parts"]
    assert parts["nested"] > parts["law"] / 3.0


def test_zeta_result_bundle():
    metric = pnorm_metric(3.0)
    (data,) = family_spectral_data((metric,), 16)
    result = zeta_result(data, metric)
    assert result.metric_id == "pnorm:3"
    assert result.volume == data.volume
    assert result.zeta0 == B0 == -2.0 / 3.0
    assert result.error_budget > 0.0
    for s in (1.5, 2.0, 3.0):
        p = zeta_direct(data.eigenvalues, s, data.volume)
        assert p.s == s and p.value == zeta_direct(data.eigenvalues, s).value
        # the continuum tail past lambda_max, with b_-1 = vol
        assert p.tail_bound == pytest.approx(
            data.volume * data.eigenvalues[-1] ** (1.0 - s) / (s - 1.0), rel=1e-15
        )


# ------------------------------------------------- pipeline and scaling


def _zeta(metric, L, cache=None):
    """(Spectrum, ZetaResult) of one metric at degree L."""
    (data,) = family_spectral_data((metric,), L, cache=cache)
    return data, zeta_result(data, metric)


def test_pipeline_scaling_covariance():
    """Rescaling the metric by t0 rescales the volume, b_-1, by t0 and keeps
    every coefficient in tau = t / s, and the rung."""
    base_metric = pnorm_metric(3.0)
    data_base, z_base = _zeta(base_metric, 16)
    for t0 in (0.5, 2.0):
        data, zres = _zeta(scaled_metric(t0, pnorm_metric(3.0)), 16)
        assert zres.method["scale"] == t0
        assert data.volume == pytest.approx(t0 * data_base.volume, rel=1e-12)
        assert zres.method["tau_lo"] == z_base.method["tau_lo"]
        for name, value in z_base.method["b"].items():
            assert zres.method["b"][name] == pytest.approx(value, rel=1e-12), name


@pytest.mark.parametrize("base", [fs_metric(), pnorm_metric(3.0)], ids=lambda g: g.id)
def test_zeta_prime_rescaling_law_across_scales(base):
    """zeta'(0; c g) = zeta'(0; g) + zeta(0; g) log c to 1e-10 for c from
    1e-300 to 1e40: every term but b_0 log s is computed in tau = t / s."""
    factors = (1e-300, 1e-10, 1e-6, 1e-3, 2.0, 1e3, 1e6, 1e40)
    metrics = (base, *(scaled_metric(c, base) for c in factors))
    z = [
        zeta_result(d, m)
        for m, d in zip(metrics, family_spectral_data(metrics, 32))
    ]
    for c, zc in zip(factors, z[1:]):
        law = z[0].zeta_prime0 + z[0].zeta0 * math.log(c)
        assert abs(zc.zeta_prime0 - law) <= 1e-10, c


def test_budget_is_scale_covariant():
    """The budget of scaled:c:fs is fs's for c from 1e-300 to 1e40 at
    L = 32, to 1e-7 relative. What is left is roundoff: the eigenvalues of
    the scaled pencil differ from fs's by 1e-14 relative, and the budget of
    2.1e-7 is a difference of sums near 22, whose nested part is roundoff
    alone (1e-14); measured at most 3.8e-8."""
    factors = (1e-300, 1e-6, 1e6, 1e40)
    metrics = (fs_metric(), *(scaled_metric(c, fs_metric()) for c in factors))
    z = [zeta_result(d, m) for m, d in zip(metrics, family_spectral_data(metrics, 32))]
    for c, zc in zip(factors, z[1:]):
        assert zc.method["tau_lo"] == z[0].method["tau_lo"], c
        assert zc.error_budget == pytest.approx(z[0].error_budget, rel=1e-7), c


def test_compositions_keep_their_parts_time_scale():
    """geomean and interpolate carry their parts' scale_hint, so a
    composition of scaled:0.001 metrics is evaluated on their ladder in
    t = s tau: the geometric mean of a metric with itself has its zeta'(0)
    bitwise."""
    m = scaled_metric(0.001, fs_metric())
    g = geomean_metric(m, m)
    assert g.scale_hint == m.scale_hint
    (data_m, data_g) = (family_spectral_data((x,), 32)[0] for x in (m, g))
    assert np.array_equal(data_g.eigenvalues, data_m.eigenvalues)
    assert (
        zeta_result(data_g, g).zeta_prime0
        == zeta_result(data_m, m).zeta_prime0
    )
    params = (1.0, 2.0, 3.0)
    fam = MetricFamily(
        "scaled-pnorm",
        tuple(scaled_metric(0.001, pnorm_metric(p)) for p in params),
        scaled_metric(0.001, max_metric()),
        params,
    )
    for u in (1.0, 1.5, 2.0):
        assert interpolate(fam, u).scale_hint == 0.001


@pytest.mark.parametrize(
    "a, b, want", [(1e-200, 1e-200, 1e-200), (1e200, 1e200, 1e200), (1e200, 1e-200, 1.0)]
)
def test_geomean_time_scale_neither_underflows_nor_overflows(a, b, want):
    """The product of two scales can leave the doubles while their geometric
    mean does not; the geometric mean of scaled:1e-200:fs with itself then
    keeps the part's time scale and its zeta'(0) bitwise."""
    ma, mb = scaled_metric(a, fs_metric()), scaled_metric(b, fs_metric())
    g = geomean_metric(ma, mb)
    assert g.scale_hint == want
    if (a, b) == (1e-200, 1e-200):
        data = family_spectral_data((ma, g), 32)
        assert zeta_result(data[1], g).zeta_prime0 == zeta_result(data[0], ma).zeta_prime0


@pytest.mark.parametrize("L", [16, 24, 32])
@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_both_solve_paths_give_one_zeta(spec, L):
    """The harness's solve (eigenvectors handed to a reducer, eigh) and the
    scalar commands' (values only, eigvalsh) feed one zeta_result: the same
    volume bitwise, and zeta'(0) and log h_Q within 1e-11."""
    m = parse_metric_spec(spec)
    with_vectors = zeta_result(blocks.solve_blocks((m,), L)[0], m)
    values_only = zeta_result(family_spectral_data((m,), L)[0], m)
    assert with_vectors.volume == values_only.volume
    assert abs(with_vectors.zeta_prime0 - values_only.zeta_prime0) <= 1e-11
    assert abs(with_vectors.log_quillen - values_only.log_quillen) <= 1e-11


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max"])
def test_every_solve_path_returns_one_record(tmp_path, spec):
    """The vectors solve (eigh, its blocks handed to a reducer), the values
    solve (a cache miss) and the cache hit of one metric at L = 16 are each
    a `Spectrum`. The hit is the values solve bit for bit, and so is its
    zeta record. The vectors solve hands over every block and has the same
    volume and nested eigenvalues bitwise; its eigenvalues differ only by
    how LAPACK rounds with and without vectors (measured at most 1.7e-12,
    max), and its zeta'(0) by at most 1e-11."""
    m, L = parse_metric_spec(spec), 16
    cache = SpectrumCache(tmp_path)
    handed = []
    (vectors,) = family_eigvals(
        masses(build_basis(L), (m,)), L, (m.id,), lambda *block: handed.append(block[0])
    )
    (values,) = family_spectral_data((m,), L, cache)
    (hit,) = family_spectral_data((m,), L, cache)
    for record in (vectors, values, hit):
        assert isinstance(record, Spectrum) and (record.metric_id, record.L) == (m.id, L)
        assert record.volume == vectors.volume
        assert np.array_equal(record.nested, vectors.nested)
    assert np.array_equal(hit.eigenvalues, values.eigenvalues)
    assert np.allclose(vectors.eigenvalues, values.eigenvalues, rtol=1e-13, atol=0.0)
    assert handed == list(range(L + 1))
    assert zeta_result(hit, m) == zeta_result(values, m)
    assert abs(zeta_result(vectors, m).zeta_prime0 - zeta_result(hit, m).zeta_prime0) <= 1e-11


def test_round_metric_continuum_zeta_prime(cache):
    """zeta'(0) at L=32 sits within 1e-3 of the continuum value and improves on L=24."""
    want = oracles.round_zeta_prime0()
    gaps = {}
    for L in (24, 32):
        _, result = _zeta(fs_metric(), L, cache)
        gaps[L] = abs(result.zeta_prime0 - want)
    assert gaps[32] < 1e-3
    assert gaps[32] < gaps[24]


def test_round_metric_expansion_matches_the_trace(cache):
    """The pinned expansion vol/t - 2/3 + t/30 + t^2/315 of fs leaves the
    discrete trace at L = 64 a remainder of t^3/2520, the next term of the
    round sphere's expansion, to 2 % for t <= 0.1 (measured 0.5 % at
    t = 0.025 and 1.9 % at 0.1)."""
    data, zres = _zeta(fs_metric(), 64, cache)
    b = zres.method["b"]
    for t in (0.025, 0.05, 0.1):
        model = b["b_minus1"] / t + b["b0"] + b["b1"] * t + b["b2"] * t * t
        rest = theta_values(data.eigenvalues, np.array([t]))[0] - model
        assert rest == pytest.approx(t**3 / 2520.0, rel=2e-2), t


# ------------------------------------------------- coverage against oracles


_COVERAGE_METRICS = (
    *(parse_metric_spec(s) for s in (
        "fs", "pnorm:2", "pnorm:3", "pnorm:4", "pnorm:8", "pnorm:32", "pnorm:1.5",
        "pnorm:2.5", "interp:2.5:pnorm",
    )),
    geomean_metric(pnorm_metric(3.0), pnorm_metric(4.0)),
    *(parse_metric_spec(s) for s in ("scaled:1e-06:fs", "scaled:0.001:pnorm:3", "max",
                                     "scaled:2:max")),
    geomean_metric(fs_metric(), max_metric()),
)


@functools.cache
def _exact_zeta_prime0() -> dict[str, float]:
    """zeta'(0) of every coverage metric: fs's closed form, the exact
    smoothing law for pnorm, the max closed form, the rescaling law
    zeta'(0) - (2/3) log c, and the others carried from max along the exact
    anomaly (Polyakov's formula)."""
    fs, mx = oracles.round_zeta_prime0(), oracles.max_zeta_prime0()
    pnorm = {p: oracles.pnorm_zeta_prime0(p) for p in (2, 3, 4, 8, 32, 1.5, 2.5)}
    log_quillen_max = mx + math.log(2.0)

    def carried(jet):
        return oracles.zeta_prime0_by_anomaly(jet, oracles.mp_jet_max, log_quillen_max)

    blend = oracles.s_jet_blend(oracles.s_jet_pnorm(3), oracles.s_jet_pnorm(4), 0.5)
    return {
        "fs": fs,
        **{f"pnorm:{p:g}": v for p, v in pnorm.items()},
        "interp:2.5:pnorm": carried(oracles.r_jet(blend)),
        "geomean(pnorm:3,pnorm:4)": carried(
            oracles.mp_jet_geomean(oracles.mp_jet_pnorm(3), oracles.mp_jet_pnorm(4))
        ),
        "scaled:1e-06:fs": fs - 2.0 / 3.0 * math.log(1e-6),
        "scaled:0.001:pnorm:3": pnorm[3] - 2.0 / 3.0 * math.log(1e-3),
        "max": mx,
        "scaled:2:max": mx - 2.0 / 3.0 * math.log(2.0),
        "geomean(fs,max)": carried(oracles.mp_jet_geomean(oracles.mp_jet_fs, oracles.mp_jet_max)),
    }


def _errors(L, cache) -> dict[str, tuple[float, float]]:
    """(|zeta'_L - oracle|, budget) of every coverage metric at degree L."""
    exact = _exact_zeta_prime0()
    data = family_spectral_data(_COVERAGE_METRICS, L, cache=cache)
    out = {}
    for metric, d in zip(_COVERAGE_METRICS, data):
        zres = zeta_result(d, metric)
        out[metric.id] = (abs(zres.zeta_prime0 - exact[metric.id]), zres.error_budget)
    return out


def _uncovered(L, cache) -> list[str]:
    return [
        f"{mid} at L = {L}: error {err:.2e} > budget {budget:.2e}"
        for mid, (err, budget) in _errors(L, cache).items()
        if not err <= budget
    ]


@pytest.mark.parametrize("L", [8, 16, 24, 32, 64, 128])
def test_zeta_prime_budget_covers_the_oracle(L, cache):
    """|zeta'_L - oracle| <= budget for the smooth, finitely smooth, scaled
    and kinked metrics (measured worst error/budget 0.81, pnorm:32 at
    L = 8)."""
    assert _uncovered(L, cache) == []


@pytest.mark.parametrize("wrong", ["b2 + 1e-3", "b1 * 1.01"])
def test_coverage_sees_a_wrong_invariant(wrong, cache, monkeypatch):
    """A b_2 off by 1e-3 (order-2 metrics) or a b_1 1 % large, on both rules
    so that the quadrature part cannot absorb it, leaves some budget
    uncovered at every L of the coverage grid but 8."""
    real = heatzeta.heat_invariants

    def perturbed(metric, n_theta=JET_RULE_NODES):
        b1, b2 = real(metric, n_theta)
        if wrong == "b1 * 1.01":
            return 1.01 * b1, b2
        return b1, b2 + (1e-3 * metric.scale_hint**2 if metric.order == 2 else 0.0)

    monkeypatch.setattr(heatzeta, "heat_invariants", perturbed)
    for L in (16, 24, 32, 64, 128):
        assert _uncovered(L, cache), (wrong, L)


def test_zeta_prime_accuracy_at_L128(cache):
    """At L = 128 error and budget are at most 1e-10 for fs, 1e-8 for
    pnorm:3, pnorm:4 and interp:2.5:pnorm, and 2e-6 for pnorm:8; the kinked
    max is within 1e-2 with a budget that covers it."""
    errors = _errors(128, cache)
    for mid, bound in (("fs", 1e-10), ("pnorm:3", 1e-8), ("pnorm:4", 1e-8),
                       ("interp:2.5:pnorm", 1e-8), ("pnorm:8", 2e-6)):
        assert max(errors[mid]) <= bound, (mid, errors[mid])
    err, budget = errors["max"]
    assert err <= 1e-2 and err <= budget


def test_store_then_load_returns_the_spectrum(tmp_path):
    """``store(spectrum)`` then ``load(metric_id, L)`` returns its
    eigenvalues, volume and nested eigenvalues bitwise; another degree or
    another metric's id misses, also when a copy of the entry sits under
    that name."""
    cache = SpectrumCache(tmp_path)
    (fresh,) = blocks.solve_blocks((fs_metric(),), 4)
    assert cache.load("fs", 4) is None
    entry = cache.store(fresh)
    assert entry == cache.path_for("fs", 4) and list(tmp_path.glob("*.npz")) == [entry]
    hit = cache.load("fs", 4)
    assert isinstance(hit, Spectrum) and (hit.metric_id, hit.L) == ("fs", 4)
    assert hit.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
    assert hit.volume == fresh.volume
    assert hit.nested.tobytes() == fresh.nested.tobytes()
    for other in (("fs", 3), ("fs", 5), ("pnorm:3", 4)):
        assert cache.load(*other) is None, other
        cache.path_for(*other).write_bytes(entry.read_bytes())
        assert cache.load(*other) is None, other


def test_spectral_data_cache_roundtrip(tmp_path, solved):
    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (first,) = family_spectral_data((metric,), 8, cache=cache)
    assert solved == [(metric.id, 8)]
    (second,) = family_spectral_data((metric,), 8, cache=cache)
    assert solved == [(metric.id, 8)]
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.nested, second.nested)
    assert first.nested.size == (nested_degree(8) + 1) ** 2
    assert first.volume == second.volume
    assert first.lambda1 == second.lambda1 > 0.0


@pytest.mark.parametrize("L", [1, 16, 48])
def test_cache_key_names_the_basis_rule(tmp_path, L):
    """The key stored in a cache entry names the colatitude rule of the
    basis that solved it, 2L + 2 nodes per panel."""
    want = 2 * L + 2
    assert build_basis(L).quad.n_theta == colatitude_nodes(L) == want
    family_spectral_data((fs_metric(),), L, SpectrumCache(tmp_path))
    (entry,) = tmp_path.glob("*.npz")
    with np.load(entry) as payload:
        key = str(payload["key"])
    assert f"|n_theta={want}|" in key


def test_truncated_cache_entry_is_a_miss(tmp_path, solved):
    """An unreadable .npz is recomputed and overwritten, not a traceback."""
    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (first,) = family_spectral_data((metric,), 8, cache=cache)
    (entry,) = tmp_path.glob("*.npz")
    assert cache.path_for(metric.id, 8) == entry
    good = entry.read_bytes()
    entry.write_bytes(good[: len(good) // 2])
    assert cache.load(metric.id, 8) is None
    (again,) = family_spectral_data((metric,), 8, cache=cache)
    assert solved == [(metric.id, 8)] * 2
    assert np.array_equal(again.eigenvalues, first.eigenvalues)
    assert entry.read_bytes() == good
    family_spectral_data((metric,), 8, cache=cache)
    assert solved == [(metric.id, 8)] * 2


def test_every_truncated_or_flipped_cache_entry_reads_as_a_miss(tmp_path):
    """Each truncation and each single-byte flip of an L = 2 entry loads
    without raising, and an entry that passes validation holds the fresh
    spectrum bit for bit."""
    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (fresh,) = family_spectral_data((metric,), 2, cache=cache)
    (entry,) = tmp_path.glob("*.npz")
    assert cache.path_for(metric.id, 2) == entry
    good = entry.read_bytes()
    variants = [good[:k] for k in range(len(good))]
    variants += [good[:k] + bytes([good[k] ^ 0xFF]) + good[k + 1:] for k in range(len(good))]
    for k, variant in enumerate(variants):
        entry.write_bytes(variant)
        hit = cache.load(metric.id, 2)
        if hit is not None:
            assert hit.eigenvalues.tobytes() == fresh.eigenvalues.tobytes(), k
            assert hit.volume == fresh.volume, k
            assert hit.nested.tobytes() == fresh.nested.tobytes(), k


@pytest.mark.parametrize(
    "defect",
    ["short", "unsorted", "nonzero_kernel", "degenerate_kernel", "all_zero", "nonfinite", "volume",
     "nested_short", "nested_unsorted", "nested_missing"],
)
def test_wrong_cache_entry_is_a_miss(tmp_path, defect, solved):
    """Entries that do not describe an L = 4 spectrum and its nested one at
    L' = 3 are misses and get overwritten. Each defect is written into the
    stored entry by hand, under the key that entry holds."""
    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (fresh,) = family_spectral_data((metric,), 4, cache=cache)
    (entry,) = tmp_path.glob("*.npz")
    assert cache.path_for(metric.id, 4) == entry
    with np.load(entry) as payload:
        arrays = dict(payload)
    lam, nested = arrays["eigenvalues"], arrays["nested"]
    if defect == "short":
        arrays["eigenvalues"] = lam[:2]
    elif defect == "unsorted":
        lam[[1, -1]] = lam[[-1, 1]]
    elif defect == "nonzero_kernel":
        lam[0] = 1e-3
    elif defect == "degenerate_kernel":
        lam[1] = 0.0
    elif defect == "all_zero":
        lam[:] = 0.0
    elif defect == "nonfinite":
        lam[-1] = np.nan
    elif defect == "nested_short":
        arrays["nested"] = nested[:-1]
    elif defect == "nested_unsorted":
        nested[[1, -1]] = nested[[-1, 1]]
    elif defect == "nested_missing":
        del arrays["nested"]
    else:
        arrays["volume"] = -arrays["volume"]
    np.savez(entry, **arrays)
    assert cache.load(metric.id, 4) is None
    (again,) = family_spectral_data((metric,), 4, cache=cache)
    assert solved == [(metric.id, 4)] * 2
    assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
    assert again.volume == fresh.volume
    family_spectral_data((metric,), 4, cache=cache)
    assert solved == [(metric.id, 4)] * 2


def test_previous_solver_entry_is_not_served(tmp_path, solved, monkeypatch):
    """An entry stored under the blocks-6 solver key is never a hit.

    It holds a valid-looking spectrum and nested spectrum (twice the true
    ones), so only the solver version in the key keeps it out.
    """
    assert SOLVER_VERSION == pipeline.SOLVER_VERSION == "blocks-7"
    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (fresh,) = family_spectral_data((metric,), 4)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "SOLVER_VERSION", "blocks-6")
        cache.store(fresh._replace(eigenvalues=2.0 * fresh.eigenvalues, nested=2.0 * fresh.nested))
        assert cache.load(metric.id, 4) is not None
    (again,) = family_spectral_data((metric,), 4, cache=cache)
    assert solved == [(metric.id, 4)] * 2
    assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
    assert len(list(tmp_path.glob("*.npz"))) == 2


# Two metric ids whose blocks-7 keys at L = 4 share the CRC-32 0xdae9e924.
_COLLIDING_IDS = ("brjcykot", "nbpitdgr")


def test_colliding_cache_names_read_as_misses(tmp_path, monkeypatch):
    """Two keys with one CRC-32 name share a file; the entry answers only
    the key it was stored under, and a store under the other overwrites it."""
    monkeypatch.setattr(pipeline, "SOLVER_VERSION", "blocks-7")
    cache = SpectrumCache(tmp_path)
    a, b = _COLLIDING_IDS
    assert a != b and cache.path_for(a, 4) == cache.path_for(b, 4)
    (fresh,) = family_spectral_data((fs_metric(),), 4)
    cache.store(fresh._replace(metric_id=a))
    assert cache.load(b, 4) is None
    assert np.array_equal(cache.load(a, 4).eigenvalues, fresh.eigenvalues)
    cache.store(fresh._replace(metric_id=b, eigenvalues=2.0 * fresh.eigenvalues))
    assert cache.load(a, 4) is None
    hit = cache.load(b, 4)
    assert hit.metric_id == b
    assert np.array_equal(hit.eigenvalues, 2.0 * fresh.eigenvalues)
    assert len(list(tmp_path.glob("*.npz"))) == 1


def test_entry_under_another_key_is_a_miss_and_overwritten(tmp_path, solved):
    """A valid spectrum of another metric at this metric's file name, as a
    name collision leaves it, is never served: the stored key differs, so
    family_spectral_data solves again and its store replaces the entry."""
    cache = SpectrumCache(tmp_path)
    (other,) = family_spectral_data((pnorm_metric(3.0),), 4, cache=cache)
    metric = pnorm_metric(2.0)
    (fresh,) = family_spectral_data((metric,), 4)
    entry = cache.path_for(metric.id, 4)
    cache.path_for(other.metric_id, 4).rename(entry)
    assert cache.load(metric.id, 4) is None
    (again,) = family_spectral_data((metric,), 4, cache=cache)
    assert solved == [(other.metric_id, 4), (metric.id, 4), (metric.id, 4)]
    assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
    assert list(tmp_path.glob("*.npz")) == [entry]
    family_spectral_data((metric,), 4, cache=cache)
    assert solved == [(other.metric_id, 4), (metric.id, 4), (metric.id, 4)]


@pytest.mark.parametrize(
    "specs",
    [("scaled:1.2345671:fs", "scaled:1.2345672:fs"), ("pnorm:3", "pnorm:3.0000001")],
)
def test_close_specs_get_distinct_spectra(tmp_path, specs, solved):
    """Specs 1e-7 apart solve to distinct spectra with distinct disk entries.

    The spectra are the values-only block solve that ``family_spectral_data`` runs
    on a miss, so the cached entries must equal them bit for bit."""
    from zetasphere.metrics import parse_metric_spec

    a, b = (parse_metric_spec(spec) for spec in specs)
    assert a.id != b.id
    lam_a, lam_b = (
        family_eigvals(masses(build_basis(6), (g,)), 6, (g.id,))[0].eigenvalues for g in (a, b)
    )
    assert not np.array_equal(lam_a, lam_b)
    cache = SpectrumCache(tmp_path)
    (first,) = family_spectral_data((a,), 6, cache=cache)
    (second,) = family_spectral_data((b,), 6, cache=cache)
    assert solved == [(a.id, 6), (b.id, 6)] * 2
    assert np.array_equal(first.eigenvalues, lam_a)
    assert np.array_equal(second.eigenvalues, lam_b)
    assert len(list(tmp_path.glob("*.npz"))) == 2
