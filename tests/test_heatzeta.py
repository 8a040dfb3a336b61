"""Heat trace, asymptotic fit, zeta values, and the zeta'(0) assembly.

The regularized determinant path is validated two independent ways:

* a synthetic spectrum whose trace follows the three-term model exactly, so
  zeta'(0) is the closed form sum E1(lambda t_lo) - b_-1/t_lo
  + b_0 (gamma + log t_lo) + b_1 t_lo, evaluated with mpmath;
* an exact finite-spectrum identity: for any fitted coefficients, the
  returned value differs from -sum(log lambda) by a correction integral that
  mpmath evaluates directly from the definition.

Both agree with the library to 1e-12 or better, which pins the E1 sum and
every regularization constant at once.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from zetasphere import heatzeta
from zetasphere.discretize import build_basis, masses
from zetasphere.eigensolve import family_eigvals
from zetasphere.errors import DomainError, FitWindowError
from zetasphere.heatzeta import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_TRUNC_TOL,
    FIT_GRID_NODES,
    AsymptoticFit,
    _weighted_fit,
    duhamel_residual,
    exp_e1,
    fit_asymptotics,
    geometric_grid,
    heat_operator,
    theta,
    theta_values,
    truncation_time,
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
from zetasphere.operators import InnerProduct, operator_norm
from zetasphere.pipeline import (
    _valid_hit,
    compute_zeta,
    family_spectra,
    family_spectral_data,
)

EULER_GAMMA = float(np.euler_gamma)


def model_fit(window, coef=(3.0, 5.0, 0.1), sigma=(0.0, 0.0, 0.0)):
    """A fit holding the given coefficients on an unclipped ``window``."""
    return AsymptoticFit(
        *coef, residual=0.0, window_effective=window,
        scale=window[1] / DEFAULT_FIT_WINDOW[1], param_sigma=sigma,
    )


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


def test_geometric_grid():
    g = geometric_grid(0.01, 1.0, 5)
    assert g.shape == (5,)
    assert g[0] == pytest.approx(0.01) and g[-1] == pytest.approx(1.0)
    ratios = g[1:] / g[:-1]
    assert np.abs(ratios - ratios[0]).max() < 1e-12
    for bad in [(0.0, 1.0, 5), (1.0, 0.5, 5), (0.1, 1.0, 1)]:
        with pytest.raises(DomainError):
            geometric_grid(*bad)


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


def test_theta_validates_time():
    lam = np.array([0.0, 1.0])
    for t in (0.0, -1.0):
        with pytest.raises(DomainError):
            theta(lam, t)


def test_theta_grid_shape_properties():
    (spec,) = family_spectra((pnorm_metric(3.0),), 10)
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
    (spec,) = family_spectra((pnorm_metric(3.0),), 10)
    z2 = zeta_direct(spec.eigenvalues, 2.0).value
    for t in (0.2, 0.8, 2.0):
        assert theta(spec.eigenvalues, t) <= 2.0 * z2 / t**2 * (1.0 + 1e-12)


def test_theta_resolvent_domination():
    """exp(-t a) <= c_t / (1+a)^2 with c_t = sup_a exp(-t a)(1+a)^2."""
    (spec,) = family_spectra((pnorm_metric(3.0),), 10)
    lam = spec.positive
    trace_r2 = float(np.sum(1.0 / (1.0 + lam) ** 2))
    a = np.linspace(0.0, 200.0, 400001)
    for t in (0.5, 1.0, 3.0):
        c_t = 4.0 * math.exp(t - 2.0) / t**2 if t <= 2.0 else 1.0
        sup = np.max(np.exp(-t * a) * (1.0 + a) ** 2)
        assert c_t == pytest.approx(sup, rel=1e-6)
        assert theta(spec.eigenvalues, t) <= c_t * trace_r2 * (1.0 + 1e-12)


def test_heat_trace_samples_bookkeeping():
    """The heat-trace samples the fit and the theta command use: the values
    agree pointwise with theta, the truncation bound n exp(-lambda_max t)
    counts every mode and the top eigenvalue, and the fit clips its window
    where that bound reaches the tolerance."""
    (spec,) = family_spectra((pnorm_metric(3.0),), 8)
    assert spec.metric_id == "pnorm:3"
    lam = spec.eigenvalues
    t = geometric_grid(0.05, 1.0, 10)
    values = theta_values(lam, t)
    want = np.array([theta(lam, ti) for ti in t])
    assert np.allclose(values, want, rtol=1e-15)
    n_modes, lambda_max = lam.size, lam[-1]
    t_valid = truncation_time(n_modes, lambda_max, DEFAULT_TRUNC_TOL)
    assert n_modes * math.exp(-lambda_max * t_valid) == pytest.approx(
        DEFAULT_TRUNC_TOL, rel=1e-12
    )
    assert 0.1 < t_valid < 1.0
    # scale 5 asks for the window (0.1, 1.0), clipped at t_valid
    fit = fit_asymptotics(lam, 5.0)
    assert fit.scale == 5.0
    assert fit.window_effective == (t_valid, 1.0)
    with pytest.raises(DomainError):
        theta(lam, 0.0)


# ---------------------------------------------------------------- fit


def test_fit_recovers_model_coefficients():
    grid = geometric_grid(0.02, 0.2, 40)
    coef, resid, sigma = _weighted_fit(grid, 3.0 / grid + 5.0 + 0.1 * grid, 1.0)
    assert coef[0] == pytest.approx(3.0, abs=1e-10)
    assert coef[1] == pytest.approx(5.0, abs=1e-10)
    assert coef[2] == pytest.approx(0.1, abs=1e-10)
    assert resid < 1e-10
    assert max(sigma) < 1e-9


def test_fit_samples_the_window_on_the_fixed_grid():
    """Inside the valid region the window is kept and the trace sampled on
    FIT_GRID_NODES geometric times spanning it."""
    lam = family_spectral_data((fs_metric(),), 16)[0].eigenvalues
    # scale 10 asks for (0.2, 2.0), past t_valid ~ 0.1771
    fit = fit_asymptotics(lam, 10.0)
    assert fit.window_effective == (0.2, 2.0)
    assert fit.coefficients == (fit.b_minus1, fit.b0, fit.b1)
    t = geometric_grid(0.2, 2.0, FIT_GRID_NODES)
    # fitted in tau = t / scale
    coef, resid, sigma = _weighted_fit(t, theta_values(lam, t), 10.0)
    assert fit.coefficients == tuple(coef)
    assert fit.residual == resid and fit.param_sigma == sigma


def test_fit_window_clipping():
    """The effective window starts where the truncation bound clears the tol:
    fs at L = 16 has n = 289 and lambda_max = 136, so the default window
    starts at t = log(289 / 1e-8) / 136 ~ 0.1771."""
    lam = family_spectral_data((fs_metric(),), 16)[0].eigenvalues
    assert lam.size == 289 and lam[-1] == pytest.approx(136.0, rel=1e-9)
    fit = fit_asymptotics(lam, 1.0)
    t_valid = truncation_time(lam.size, lam[-1], 1e-8)
    assert t_valid == pytest.approx(0.1771, abs=1e-4)
    assert fit.window_effective[0] == t_valid
    assert fit.window_effective[1] == 0.2
    assert fit.scale == 1.0
    t = geometric_grid(t_valid, 0.2, FIT_GRID_NODES)
    assert fit.coefficients == tuple(_weighted_fit(t, theta_values(lam, t), 1.0)[0])


def test_fit_window_errors():
    # entirely invalid window: bound exceeds tol everywhere in it
    lam = np.linspace(0.0, 10.0, 100)
    with pytest.raises(FitWindowError, match="valid region starts at t = 2."):
        fit_asymptotics(lam, 1.0)
    # windows so far from the time scale of the fit that the weighted design
    # loses a column
    for lo, rank in ((5e-8, 2), (5e38, 1)):
        far = geometric_grid(lo, 4 * lo, 40)
        with pytest.raises(FitWindowError, match=f"rank {rank} of 3"):
            _weighted_fit(far, 3.0 / far + 5.0 + 0.1 * far, 1.0)


def test_negative_scale_on_a_large_spectrum_is_a_fit_window_error():
    """A negative time scale leaves no window on fs at L = 128 (the exact
    spectrum l (l + 1) / 2, 2l + 1 times): the fit says so with a
    FitWindowError, not an overflow of exp(-lambda_max t) at t < 0."""
    lam = np.concatenate([np.full(2 * l + 1, l * (l + 1) / 2.0) for l in range(129)])
    with pytest.raises(FitWindowError, match="valid region starts"):
        fit_asymptotics(lam, -1.0)


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
    """Model coefficients reduce zeta'(0) to a known four-term expression."""
    lam = np.array([0.0, 0.8, 2.0, 3.7, 6.1])
    zres = zeta_result(lam, 1.0, model_fit((0.02, 0.2)))
    want = oracles.four_term_zeta_prime(lam[lam > 0.0], 3.0, 5.0, 0.1, 0.02)
    assert zres.zeta_prime0 == pytest.approx(want, abs=1e-12)


def test_zeta_prime_zero_finite_spectrum_identity():
    """Against mpmath through the exact correction to -sum(log lambda)."""
    lam = 0.5 + 0.25 * np.arange(40.0)
    grid = geometric_grid(0.02, 0.2, 40)
    fit = model_fit((0.02, 0.2), coef=tuple(_weighted_fit(grid, theta_values(lam, grid), 1.0)[0]))
    zres = zeta_result(lam, 1.0, fit)
    want = -oracles.finite_spectrum_log_det(lam) + oracles.finite_spectrum_correction(
        lam, fit.b_minus1, fit.b0, fit.b1, 0.02
    )
    assert zres.zeta_prime0 == pytest.approx(want, abs=1e-13)


def _fit_l16(metric):
    (data,) = family_spectral_data((metric,), 16)
    return data.eigenvalues, fit_asymptotics(data.eigenvalues, metric.scale_hint)


@pytest.mark.parametrize("scale", [None, 1.0, 100.0])
def test_zeta_prime_zero_e1_parts_against_mpmath(scale):
    """The spectral part, a sum of exponential integrals, matches mpmath's
    E1 to 1e-13 relative: on the synthetic spectrum, and on pnorm:3 at
    L = 16, whose window starts past t = 1 when scaled by 100."""
    if scale is None:
        lam, fit = np.array([0.0, 0.8, 2.0, 3.7, 6.1]), model_fit((0.02, 0.2))
    else:
        lam, fit = _fit_l16(scaled_metric(scale, pnorm_metric(3.0)))
        assert (fit.window_effective[0] > 1.0) == (scale > 1.0)
    parts = zeta_result(lam, 1.0, fit).method["zeta_prime0_parts"]
    spectral = oracles.e1_zeta_prime_parts(lam, fit.window_effective[0])
    assert parts["spectral"] == pytest.approx(spectral, rel=1e-13)


def test_zeta_result_samples_the_trace_on_the_refit_grid_only(monkeypatch):
    """zeta'(0) reads the trace above t_lo through the E1 closed form: the
    only heat traces a call evaluates are the lower-half refit's
    FIT_GRID_NODES times."""
    lam, fit = _fit_l16(pnorm_metric(3.0))
    asked = []

    def counting(eigenvalues, t):
        asked.append(np.size(t))
        return theta_values(eigenvalues, t)

    monkeypatch.setattr(heatzeta, "theta_values", counting)
    zeta_result(lam, 1.0, fit)
    assert 0 < sum(asked) <= FIT_GRID_NODES


def test_zeta_result_evaluates_e1_once(monkeypatch):
    """The spectral part is one E1 evaluation over the positive spectrum
    scaled by t_lo."""
    lam, fit = _fit_l16(pnorm_metric(3.0))
    calls = []

    def counting(x):
        calls.append(np.size(x))
        return exp_e1(x)

    monkeypatch.setattr(heatzeta, "exp_e1", counting)
    zeta_result(lam, 1.0, fit)
    assert calls == [np.count_nonzero(lam > 0.0)]


def test_zeta_prime_zero_variants_and_parts():
    lam = np.array([0.0, 0.8, 2.0, 3.7, 6.1])
    fit = model_fit((0.02, 0.2))
    zres = zeta_result(lam, 1.0, fit)
    parts = zres.method["zeta_prime0_parts"]
    bm1, b0, b1 = fit.coefficients
    assert set(parts) == {"spectral", "regularization", "head", "window_spread"}
    t_lo = fit.window_effective[0]
    assert parts["head"] == pytest.approx(b1 * t_lo, rel=1e-12)
    assert parts["regularization"] == pytest.approx(
        b0 * (EULER_GAMMA + math.log(t_lo)) - bm1 / t_lo, rel=1e-12
    )
    pieces = parts["spectral"] + parts["regularization"] + parts["head"]
    assert zres.zeta_prime0 == pytest.approx(pieces, rel=1e-12)


def test_zeta_prime_zero_budget_assembly():
    lam = np.array([0.0, 0.8, 2.0, 3.7, 6.1])
    fit = model_fit((0.02, 0.2), sigma=(1e-3, 2e-3, 3e-3))
    zres = zeta_result(lam, 1.0, fit)
    t_lo = fit.window_effective[0]
    s1, s2, s3 = fit.param_sigma
    want = (
        s1 * (1.0 + 1.0 / t_lo)
        + s2 * (EULER_GAMMA + math.log(1.0 / t_lo))
        + s3 * t_lo
        + abs(fit.b1) * t_lo**2
        + DEFAULT_TRUNC_TOL * (1.0 + math.log(1.0 / t_lo))
        + zres.method["zeta_prime0_parts"]["window_spread"]
    )
    assert zres.error_budget == pytest.approx(want, rel=1e-12)
    assert zres.error_budget > 0.0


def test_window_spread_zero_when_window_thin():
    lam = np.array([0.0, 0.8, 2.0])
    zres = zeta_result(lam, 1.0, model_fit((0.02, 0.03)))
    assert zres.method["zeta_prime0_parts"]["window_spread"] == 0.0


def test_zeta_result_bundle():
    metric = pnorm_metric(3.0)
    (data,) = family_spectral_data((metric,), 16)
    fit = fit_asymptotics(data.eigenvalues, metric.scale_hint)
    result = zeta_result(data.eigenvalues, data.volume, fit, metric_id="pnorm:3")
    assert result.metric_id == "pnorm:3"
    assert result.volume == data.volume
    assert result.fit is fit
    assert result.zeta0 == fit.b0
    assert [p.s for p in result.s_points] == [1.5, 2.0, 3.0]
    for p in result.s_points:
        assert p.value == pytest.approx(
            zeta_direct(data.eigenvalues, p.s).value, rel=1e-15
        )
        assert p.tail_bound > 0.0
    assert result.error_budget > 0.0
    # the pipeline is exactly this fit and this bundle
    assert compute_zeta(data, metric) == result


# ------------------------------------------------- pipeline and scaling


def _fit_and_zeta(metric, L, cache=None):
    """(SpectralData, AsymptoticFit, ZetaResult) of one metric at degree L."""
    (data,) = family_spectral_data((metric,), L, cache=cache)
    zres = compute_zeta(data, metric)
    return data, zres.fit, zres


def test_pipeline_scaling_covariance():
    """Rescaling the metric by t0 rescales b_-1 by t0 and keeps b_0."""
    base_metric = pnorm_metric(3.0)
    _, fit_base, _ = _fit_and_zeta(base_metric, 16)
    for t0 in (0.5, 2.0):
        scaled = scaled_metric(t0, pnorm_metric(3.0))
        _, fit_scaled, _ = _fit_and_zeta(scaled, 16)
        assert fit_scaled.scale == t0
        assert fit_scaled.b_minus1 == pytest.approx(t0 * fit_base.b_minus1, rel=1e-9)
        assert fit_scaled.b0 == pytest.approx(fit_base.b0, abs=1e-8)


@pytest.mark.parametrize("base", [fs_metric(), pnorm_metric(3.0)], ids=lambda g: g.id)
def test_zeta_prime_rescaling_law_across_scales(base):
    """zeta'(0; c g) = zeta'(0; g) + zeta(0; g) log c to 1e-10 for c from
    1e-300 to 1e6: the fit runs in its window's time scale, so no scaled
    window leaves the weighted design rank-deficient."""
    factors = (1e-300, 1e-10, 1e-6, 1e-3, 2.0, 1e3, 1e6)
    metrics = (base, *(scaled_metric(c, base) for c in factors))
    z = [
        compute_zeta(d, m)
        for m, d in zip(metrics, family_spectral_data(metrics, 32))
    ]
    for c, zc in zip(factors, z[1:]):
        law = z[0].zeta_prime0 + z[0].zeta0 * math.log(c)
        assert abs(zc.zeta_prime0 - law) <= 1e-10, c


def test_compositions_keep_their_parts_time_scale():
    """geomean and interpolate carry their parts' scale_hint, so the default
    fit window of a composition of scaled:0.001 metrics is theirs: the
    geometric mean of a metric with itself has its zeta'(0) bitwise."""
    m = scaled_metric(0.001, fs_metric())
    g = geomean_metric(m, m)
    assert g.scale_hint == m.scale_hint
    (data_m, data_g) = (family_spectral_data((x,), 32)[0] for x in (m, g))
    assert np.array_equal(data_g.eigenvalues, data_m.eigenvalues)
    assert (
        compute_zeta(data_g, g).zeta_prime0
        == compute_zeta(data_m, m).zeta_prime0
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
        assert compute_zeta(data[1], g).zeta_prime0 == compute_zeta(data[0], ma).zeta_prime0


@pytest.mark.parametrize("L", [16, 24, 32])
@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_both_solve_paths_give_one_zeta(spec, L):
    """The harness's solve (eigenvectors kept, eigh) and the scalar commands'
    (values only, eigvalsh) feed one compute_zeta: the same volume bitwise,
    and zeta'(0) and log h_Q within 1e-11."""
    m = parse_metric_spec(spec)
    with_vectors = compute_zeta(family_spectra((m,), L)[0], m)
    values_only = compute_zeta(family_spectral_data((m,), L)[0], m)
    assert with_vectors.volume == values_only.volume
    assert abs(with_vectors.zeta_prime0 - values_only.zeta_prime0) <= 1e-11
    assert abs(with_vectors.log_quillen - values_only.log_quillen) <= 1e-11


def test_round_metric_continuum_zeta_prime(cache):
    """zeta'(0) at L=32 sits within 1e-3 of the continuum value and improves on L=24."""
    want = oracles.round_zeta_prime0()
    gaps = {}
    for L in (24, 32):
        _, _, result = _fit_and_zeta(fs_metric(), L, cache)
        gaps[L] = abs(result.zeta_prime0 - want)
    assert gaps[32] < 1e-3
    assert gaps[32] < gaps[24]


def test_round_metric_b_minus1_per_volume(cache):
    """The 1/t coefficient per unit volume, calibrated against the round metric."""
    data, fit, _ = _fit_and_zeta(fs_metric(), 32, cache)
    assert fit.b_minus1 / data.volume == pytest.approx(1.0, rel=2e-2)


def test_round_metric_fit_window_needs_resolution():
    with pytest.raises(FitWindowError):
        _fit_and_zeta(fs_metric(), 10)
    _, fit, _ = _fit_and_zeta(fs_metric(), 16)
    assert fit.window_effective[0] > DEFAULT_FIT_WINDOW[0]


def _entry_key(data) -> str:
    """The cache key ``family_spectral_data`` stores ``data`` under."""
    from zetasphere.cache import spectrum_cache_key

    return spectrum_cache_key(data.metric_id, data.L, data.n_theta, data.solver_version)


def test_spectral_data_cache_roundtrip(tmp_path):
    from zetasphere.cache import SpectrumCache

    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (first,) = family_spectral_data((metric,), 8, cache=cache)
    assert first.from_cache is False
    (second,) = family_spectral_data((metric,), 8, cache=cache)
    assert second.from_cache is True
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert first.volume == second.volume
    assert first.lambda1 == second.lambda1 > 0.0


@pytest.mark.parametrize("L", [1, 16, 48])
def test_cache_key_names_the_basis_rule(tmp_path, L):
    """The spectrum data and the key stored in its cache entry name the
    colatitude rule of the basis that solved it, 2L + 2 nodes per panel."""
    from zetasphere.cache import SpectrumCache

    want = 2 * L + 2
    assert build_basis(L).quad.n_theta == want
    (data,) = family_spectral_data((fs_metric(),), L, SpectrumCache(tmp_path))
    (entry,) = tmp_path.glob("*.npz")
    with np.load(entry) as payload:
        key = str(payload["key"])
    assert data.n_theta == want
    assert f"|n_theta={want}|" in key


def test_truncated_cache_entry_is_a_miss(tmp_path):
    """An unreadable .npz is recomputed and overwritten, not a traceback."""
    from zetasphere.cache import SpectrumCache

    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (first,) = family_spectral_data((metric,), 8, cache=cache)
    (entry,) = tmp_path.glob("*.npz")
    assert cache.path_for(_entry_key(first)) == entry
    good = entry.read_bytes()
    entry.write_bytes(good[: len(good) // 2])
    assert cache.load(_entry_key(first)) is None
    (again,) = family_spectral_data((metric,), 8, cache=cache)
    assert again.from_cache is False
    assert np.array_equal(again.eigenvalues, first.eigenvalues)
    assert entry.read_bytes() == good
    assert family_spectral_data((metric,), 8, cache=cache)[0].from_cache is True


def test_every_truncated_or_flipped_cache_entry_reads_as_a_miss(tmp_path):
    """Each truncation and each single-byte flip of an L = 2 entry loads
    without raising, and an entry that passes validation holds the fresh
    spectrum bit for bit."""
    from zetasphere.cache import SpectrumCache

    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (fresh,) = family_spectral_data((metric,), 2, cache=cache)
    (entry,) = tmp_path.glob("*.npz")
    assert cache.path_for(_entry_key(fresh)) == entry
    good = entry.read_bytes()
    variants = [good[:k] for k in range(len(good))]
    variants += [good[:k] + bytes([good[k] ^ 0xFF]) + good[k + 1:] for k in range(len(good))]
    for k, variant in enumerate(variants):
        entry.write_bytes(variant)
        hit = _valid_hit(cache.load(_entry_key(fresh)), 2)
        if hit is not None:
            assert hit[0].tobytes() == fresh.eigenvalues.tobytes(), k
            assert hit[1] == fresh.volume, k


@pytest.mark.parametrize(
    "defect",
    ["short", "unsorted", "nonzero_kernel", "degenerate_kernel", "all_zero", "nonfinite", "volume"],
)
def test_wrong_cache_entry_is_a_miss(tmp_path, defect):
    """Entries that do not describe an L = 4 spectrum are misses and get overwritten."""
    from zetasphere.cache import SpectrumCache

    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (fresh,) = family_spectral_data((metric,), 4, cache=cache)
    (entry,) = tmp_path.glob("*.npz")
    assert cache.path_for(_entry_key(fresh)) == entry
    lam, vol = fresh.eigenvalues.copy(), fresh.volume
    if defect == "short":
        lam = lam[:2]
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
    else:
        vol = -vol
    cache.store(_entry_key(fresh), eigenvalues=lam, volume=np.float64(vol))
    (again,) = family_spectral_data((metric,), 4, cache=cache)
    assert again.from_cache is False
    assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
    assert again.volume == fresh.volume
    assert family_spectral_data((metric,), 4, cache=cache)[0].from_cache is True


def test_previous_solver_entry_is_not_served(tmp_path):
    """An entry stored under the blocks-5 solver key is never a hit.

    It holds a valid-looking spectrum (twice the true one), so only the
    solver version in the key keeps it out.
    """
    from zetasphere.cache import SpectrumCache, spectrum_cache_key
    from zetasphere.eigensolve import SOLVER_VERSION

    assert SOLVER_VERSION == "blocks-6"
    cache = SpectrumCache(tmp_path)
    metric = pnorm_metric(2.0)
    (fresh,) = family_spectral_data((metric,), 4)
    old_key = spectrum_cache_key(metric.id, 4, fresh.n_theta, "blocks-5")
    cache.store(old_key, eigenvalues=2.0 * fresh.eigenvalues, volume=np.float64(fresh.volume))
    (again,) = family_spectral_data((metric,), 4, cache=cache)
    assert again.from_cache is False
    assert again.solver_version == SOLVER_VERSION
    assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
    assert len(list(tmp_path.glob("*.npz"))) == 2


def test_colliding_cache_names_read_as_misses(tmp_path):
    """Two keys with one CRC-32 name share a file; the entry answers only
    the key it was stored under, and a store under the other overwrites it."""
    from zetasphere.cache import SpectrumCache, spectrum_cache_key

    cache = SpectrumCache(tmp_path)
    a = spectrum_cache_key("uejgtcuo", 4, 10, "v1")
    b = spectrum_cache_key("iiwucoup", 4, 10, "v1")
    assert a != b and cache.path_for(a) == cache.path_for(b)
    cache.store(a, eigenvalues=np.arange(3.0), volume=np.float64(1.0))
    assert cache.load(b) is None
    assert np.array_equal(cache.load(a)["eigenvalues"], np.arange(3.0))
    cache.store(b, eigenvalues=np.arange(4.0), volume=np.float64(2.0))
    assert cache.load(a) is None
    hit = cache.load(b)
    assert sorted(hit) == ["eigenvalues", "volume"]
    assert np.array_equal(hit["eigenvalues"], np.arange(4.0))
    assert len(list(tmp_path.glob("*.npz"))) == 1


def test_entry_under_another_key_is_a_miss_and_overwritten(tmp_path):
    """A valid spectrum of another metric at this metric's file name, as a
    name collision leaves it, is never served: the stored key differs, so
    family_spectral_data solves again and its store replaces the entry."""
    from zetasphere.cache import SpectrumCache

    cache = SpectrumCache(tmp_path)
    (other,) = family_spectral_data((pnorm_metric(3.0),), 4, cache=cache)
    metric = pnorm_metric(2.0)
    (fresh,) = family_spectral_data((metric,), 4)
    entry = cache.path_for(_entry_key(fresh))
    cache.path_for(_entry_key(other)).rename(entry)
    assert cache.load(_entry_key(fresh)) is None
    (again,) = family_spectral_data((metric,), 4, cache=cache)
    assert again.from_cache is False
    assert np.array_equal(again.eigenvalues, fresh.eigenvalues)
    assert list(tmp_path.glob("*.npz")) == [entry]
    assert family_spectral_data((metric,), 4, cache=cache)[0].from_cache is True


@pytest.mark.parametrize(
    "specs",
    [("scaled:1.2345671:fs", "scaled:1.2345672:fs"), ("pnorm:3", "pnorm:3.0000001")],
)
def test_close_specs_get_distinct_spectra(tmp_path, specs):
    """Specs 1e-7 apart solve to distinct spectra with distinct disk entries.

    The spectra are the values-only block solve that ``family_spectral_data`` runs
    on a miss, so the cached entries must equal them bit for bit."""
    from zetasphere.cache import SpectrumCache
    from zetasphere.metrics import parse_metric_spec

    a, b = (parse_metric_spec(spec) for spec in specs)
    assert a.id != b.id
    ((lam_a, _),) = family_eigvals(masses(build_basis(6), (a,)), 6, (a.id,))
    ((lam_b, _),) = family_eigvals(masses(build_basis(6), (b,)), 6, (b.id,))
    assert not np.array_equal(lam_a, lam_b)
    cache = SpectrumCache(tmp_path)
    (first,) = family_spectral_data((a,), 6, cache=cache)
    (second,) = family_spectral_data((b,), 6, cache=cache)
    assert not second.from_cache
    assert np.array_equal(first.eigenvalues, lam_a)
    assert np.array_equal(second.eigenvalues, lam_b)
    assert len(list(tmp_path.glob("*.npz"))) == 2


# ------------------------------------------------- heat operator, duhamel


def test_heat_operator_semigroup():
    (spec,) = family_spectra((pnorm_metric(3.0),), 8)
    n = spec.eigenvalues.size
    E = {t: oracles.dense_matrix(heat_operator(spec, t)) for t in (0.0, 0.4, 0.6, 1.0)}
    assert np.abs(E[0.0] - np.eye(n)).max() < 1e-10
    assert np.abs(E[0.4] @ E[0.6] - E[1.0]).max() < 1e-10
    with pytest.raises(DomainError):
        heat_operator(spec, -0.1)


def test_heat_operator_self_adjoint_and_contractive():
    (spec,) = family_spectra((pnorm_metric(3.0),), 8)
    E = oracles.dense_matrix(heat_operator(spec, 0.8))
    M = oracles.dense_matrix(spec.mass_blocks)
    ME = M @ E
    assert np.abs(ME - ME.T).max() < 1e-10
    ip = InnerProduct.from_gram(M)
    # eigenvalue 0 rides along, so the norm is exactly one
    assert operator_norm(E, ip) == pytest.approx(1.0, abs=1e-10)


def test_heat_operator_solves_heat_equation():
    (spec,) = family_spectra((pnorm_metric(3.0),), 8)
    op = np.linalg.solve(
        oracles.dense_matrix(spec.mass_blocks),
        oracles.dense_matrix(oracles.exact_stiffness_blocks(spec.L)),
    )
    t, h = 0.7, 1e-5

    def E(s):
        return oracles.dense_matrix(heat_operator(spec, s))

    dE = (E(t + h) - E(t - h)) / (2.0 * h)
    want = -op @ E(t)
    assert np.abs(dE - want).max() < 1e-8


def test_duhamel_trivial_family():
    (spec,) = family_spectra((pnorm_metric(3.0),), 8)
    report = duhamel_residual(spec, spec, spec, h=1e-3, t=0.5, n_nodes=32)
    assert report.residual == 0.0
    assert report.derivative_norm == 0.0
    assert report.ratio == 0.0
    with pytest.raises(DomainError):
        duhamel_residual(spec, spec, spec, h=0.0, t=0.5, n_nodes=32)
    with pytest.raises(DomainError):
        duhamel_residual(spec, spec, spec, h=1e-3, t=0.0, n_nodes=32)
