"""Heat traces, spectral zeta values, and the zeta derivative at zero.

Every function here takes the eigenvalue array itself. The discrete heat
trace theta(t) = sum_k exp(-lambda_k t) over the positive eigenvalues is the
single object everything else is built from:

* ``fit_asymptotics`` is the one fit routine: it clips the window once, at
  the time the truncation bound n exp(-lambda_max t) reaches ``trunc_tol``,
  samples theta on ``FIT_GRID_NODES`` geometric times in what is left, and
  fits b_-1/t + b_0 + b_1 t, giving the volume coefficient and the constant
  term;
* zeta(s) for s > 1 comes directly from the eigenvalues;
* zeta'(0) is one closed form at the fitted window's lower end t_lo:

      zeta'(0) = sum_k E1(lambda_k t_lo)                    (spectral)
               - b_-1/t_lo + b_0 (gamma + log t_lo)         (regularization)
               + b_1 t_lo                                   (head)

  It is the derivative at s = 0 of the Mellin transform
  zeta(s) = (1/Gamma(s)) int_0^inf t^(s-1) theta(t) dt split at t_lo, with
  1/Gamma(s) = s + gamma s^2 + O(s^3). Above t_lo the discrete trace gives
  int_{t_lo}^inf theta(t)/t dt = sum_k E1(lambda_k t_lo) exactly. Below
  t_lo the model integrates term by term: b_a t^a contributes
  b_a t_lo^(s+a)/(s+a), whose product with 1/Gamma(s) has s-derivative
  b_a t_lo^a / a at s = 0 for a = -1 and 1, and b_0 (gamma + log t_lo) for
  a = 0. The sum reproduces
  -sum(log lambda_k) exactly for a finite spectrum and obeys the rescaling
  law zeta'(0; c*metric) = zeta(0) log c + zeta'(0; metric) to machine
  precision.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .discretize import Blocks, stiffness
from .eigensolve import Spectrum, apply_function
from .errors import DomainError, FitWindowError
from .operators import InnerProduct, block_operator_norms
from .quadrature import gauss_legendre

__all__ = [
    "exp_e1",
    "geometric_grid",
    "theta",
    "theta_values",
    "truncation_time",
    "AsymptoticFit",
    "fit_asymptotics",
    "ZetaPoint",
    "zeta_direct",
    "ZetaResult",
    "zeta_result",
    "heat_operator",
    "DuhamelReport",
    "duhamel_residual",
    "DEFAULT_FIT_WINDOW",
    "DEFAULT_TRUNC_TOL",
    "DEFAULT_S_VALUES",
    "FIT_GRID_NODES",
]

EULER_GAMMA = float(np.euler_gamma)
DEFAULT_FIT_WINDOW = (0.02, 0.2)
DEFAULT_TRUNC_TOL = 1e-8
DEFAULT_S_VALUES = (1.5, 2.0, 3.0)

# Geometric times at which every fit, and the lower-half refit of
# _window_sensitivity, samples the heat trace.
FIT_GRID_NODES = 25

# Floats in the exp(-t lambda) block of the heat-trace sum (64 KB): it holds
# as many times as fit, at least one, so its size does not grow with the
# spectrum or with the number of times asked.
_THETA_FLOATS = 8192


# Above this argument exp(-x), and with it E1(x), underflows to 0.0.
_E1_UNDERFLOW = 745.2
# Depth of the backward continued fraction; x = 1 converges slowest.
_E1_CF_DEPTH = 128


def exp_e1(x):
    """Exponential integral E1 on positive arguments, elementwise.

    Power series below 1, to 20 terms. From 1 up to ``_E1_UNDERFLOW`` the
    continued fraction E1 = e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...))),
    evaluated backward from a fixed depth ``_E1_CF_DEPTH`` over the whole
    array (within 2 ulp of mpmath on [1, 745]). Past ``_E1_UNDERFLOW`` the
    value is 0.0.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x <= 0.0):
        raise DomainError("exp_e1 requires positive arguments")
    out = np.zeros_like(x)
    small = x < 1.0
    if small.any():
        xs = x[small]
        acc = np.zeros_like(xs)
        term = np.ones_like(xs)
        # sum_k (-1)^(k+1) x^k / (k k!): for x < 1 the terms alternate and
        # fall, so the remainder after 20 is below x^21 / (21 * 21!) < 1e-21 x,
        # far under one ulp of the partial sum, which is at least 3x/4
        for k in range(1, 21):
            term *= xs / k
            acc += term / k if k % 2 else -(term / k)
        out[small] = -EULER_GAMMA - np.log(xs) + acc
    cf = ~small & ~(x > _E1_UNDERFLOW)  # a NaN takes this path and stays NaN
    if cf.any():
        xc = x[cf]
        t = np.zeros_like(xc)
        for j in range(_E1_CF_DEPTH, 0, -1):
            t = (j * j) / (xc + (2 * j + 1) - t)
        out[cf] = np.exp(-xc) / (xc + 1.0 - t)
    return float(out[0]) if scalar else out


def geometric_grid(lo: float, hi: float, count: int) -> np.ndarray:
    if not (0.0 < lo < hi) or count < 2:
        raise DomainError("need 0 < lo < hi and count >= 2")
    return np.geomspace(lo, hi, count)


def theta_values(eigenvalues: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum over positive eigenvalues of exp(-lambda t), kernel excluded.

    Evaluated in one reused block of ``_THETA_FLOATS`` floats, as many times
    at once as fit (at least one); each time's sum is the same row reduction
    as in one (len(t), n) matrix, so the values do not depend on the block
    size.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    lam = lam[lam > 0.0]
    t = np.asarray(t, dtype=float).ravel()
    out = np.empty(t.size)
    rows = max(1, _THETA_FLOATS // max(1, lam.size))
    buf = np.empty((min(rows, t.size), lam.size))
    for i in range(0, t.size, rows):
        block = t[i : i + rows]
        e = np.multiply.outer(-block, lam, out=buf[: block.size])
        out[i : i + block.size] = np.exp(e, out=e).sum(axis=1)
    return out


def theta(eigenvalues: np.ndarray, t: float) -> float:
    """Heat trace at one positive time; the kernel never contributes."""
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"heat trace time must be positive, got {t}")
    return float(theta_values(eigenvalues, np.array([t]))[0])


def truncation_time(n_modes: int, lambda_max: float, trunc_tol: float) -> float:
    """Smallest t at which the truncation bound n exp(-lambda_max t) is trunc_tol."""
    return math.log(n_modes / trunc_tol) / lambda_max


def _time_scale(window: tuple[float, float]) -> float:
    """The scale s of a requested fit window: its upper end in units of
    ``DEFAULT_FIT_WINDOW[1]``, exactly 1.0 for the default window."""
    return window[1] / DEFAULT_FIT_WINDOW[1]


def _weighted_fit(t: np.ndarray, th: np.ndarray, scale: float):
    """Least squares of th ~ b_-1/t + b_0 + b_1 t with weights t^2.

    The fit runs in tau = t / scale, so a window's design is as well
    conditioned as the default window's when ``scale`` is its
    ``_time_scale``; the coefficients and spreads come back in t units.
    Returns the coefficients, the largest absolute model residual and the
    parameter spread from the weighted normal equations. Raises FitWindowError
    when a window far from tau ~ 1 overflows or underflows the weighted design,
    or leaves it rank-deficient: the weighted columns tau, tau^2 and tau^3 then
    differ in scale by more than lstsq's cutoff, and it would drop one silently.
    """
    tau = t / scale
    with np.errstate(over="ignore"):
        A = np.stack([1.0 / tau, np.ones_like(tau), tau], axis=1)
        w = tau * tau
        Aw = A * w[:, None]
        bw = th * w
        normal = Aw.T @ Aw
    try:
        if not np.all(np.isfinite(normal)):
            raise np.linalg.LinAlgError("non-finite normal matrix")
        coef, _, rank, _ = np.linalg.lstsq(Aw, bw, rcond=None)
        if rank < A.shape[1]:
            raise np.linalg.LinAlgError(
                f"weighted design has rank {rank} of {A.shape[1]}"
            )
        normal_inv = np.linalg.inv(normal)
    except np.linalg.LinAlgError as e:
        raise FitWindowError(f"weighted fit on t in [{t[0]:.4g}, {t[-1]:.4g}] failed: {e}") from e
    resid = float(np.abs(A @ coef - th).max())
    dof = max(t.size - 3, 1)
    sigma2 = float(((bw - Aw @ coef) ** 2).sum()) / dof
    cov = sigma2 * normal_inv
    to_t = np.array([scale, 1.0, 1.0 / scale])
    sig = tuple(float(s) for s in np.sqrt(np.maximum(np.diag(cov), 0.0)) * to_t)
    return coef * to_t, resid, sig


class AsymptoticFit(NamedTuple):
    """Weighted least-squares fit of theta(t) ~ b_-1/t + b_0 + b_1 t."""

    b_minus1: float
    b0: float
    b1: float
    residual: float
    window_requested: tuple[float, float]
    window_effective: tuple[float, float]
    n_points: int
    trunc_tol: float
    param_sigma: tuple[float, float, float]

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return (self.b_minus1, self.b0, self.b1)


def fit_asymptotics(
    eigenvalues: np.ndarray,
    window: tuple[float, float],
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> AsymptoticFit:
    """Fit the three-term small-time model to the heat trace of ``eigenvalues``.

    The requested ``window`` (the pipeline's is ``default_fit_window``) is
    clipped to the region where the truncation bound stays below
    ``trunc_tol``; both windows are recorded. The trace is sampled on
    ``FIT_GRID_NODES`` geometric times spanning the clipped window. Raises
    FitWindowError when the clipped window is empty.
    """
    lo_req, hi_req = float(window[0]), float(window[1])
    if not (0.0 < lo_req < hi_req):
        raise DomainError(f"bad fit window {window}")
    lam = np.asarray(eigenvalues, dtype=float)
    n_modes, lambda_max = int(lam.size), float(lam[-1])
    t_valid = truncation_time(n_modes, lambda_max, trunc_tol)
    lo = max(lo_req, t_valid)
    if lo >= hi_req:
        raise FitWindowError(
            f"truncation bound exceeds {trunc_tol:g} on all of [{lo_req:g}, {hi_req:g}]"
            f" (valid region starts at t = {t_valid:.4g})",
            violated_bound=float(n_modes * math.exp(-lambda_max * hi_req)),
        )
    t = geometric_grid(lo, hi_req, FIT_GRID_NODES)
    coef, resid, sig = _weighted_fit(t, theta_values(lam, t), _time_scale(window))
    return AsymptoticFit(
        b_minus1=float(coef[0]),
        b0=float(coef[1]),
        b1=float(coef[2]),
        residual=resid,
        window_requested=(lo_req, hi_req),
        window_effective=(float(lo), float(hi_req)),
        n_points=FIT_GRID_NODES,
        trunc_tol=float(trunc_tol),
        param_sigma=sig,
    )


class ZetaPoint(NamedTuple):
    """zeta(s) by direct eigenvalue summation, with a continuum tail bound."""

    s: float
    value: float
    tail_bound: float


def zeta_direct(eigenvalues, s: float, b_minus1: float | None = None) -> ZetaPoint:
    """sum lambda^(-s) over the positive spectrum; needs s > 1 and a finite sum."""
    if s <= 1.0:
        raise DomainError(f"direct zeta summation needs s > 1, got {s}")
    lam = np.asarray(eigenvalues, dtype=float)
    lam = lam[lam > 0.0]
    if lam.size == 0:
        raise DomainError("no positive eigenvalues")
    with np.errstate(over="ignore"):
        value = float((lam ** (-s)).sum())
        tail = 0.0
        if b_minus1 is not None:
            # continuum modes above lambda_max contribute about
            # b_-1 * integral_{lambda_max}^inf x^(-s) dx
            tail = float(abs(b_minus1) * lam[-1] ** (1.0 - s) / (s - 1.0))
    if not (math.isfinite(value) and math.isfinite(tail)):
        raise DomainError(f"zeta({s:g}) of this spectrum overflows a double")
    return ZetaPoint(float(s), value, tail)


def _window_sensitivity(lam: np.ndarray, fit: AsymptoticFit) -> float:
    """Systematic-error probe: refit on the lower half of the window.

    Sharp conformal factors push the true small-time regime of the trace
    below the truncation-valid region, so the three-term model acquires a
    window-dependent bias that parameter covariance cannot see. Refitting on
    the lower geometric half of the window and pushing the coefficient shift
    through the closed-form sensitivity of zeta'(0),

        d zeta' = -d(b_-1)/t_lo - d(b_0) (log(1/t_lo) - gamma) + d(b_1) t_lo,

    measures that bias on the data itself. Returns 0 when the window is too
    thin to split. The midpoint and the refit run in the fit's time scale,
    where they neither overflow nor lose a column.
    """
    t_lo, t_hi = fit.window_effective
    scale = _time_scale(fit.window_requested)
    hi_sub = scale * math.sqrt((t_lo / scale) * (t_hi / scale))
    if hi_sub < 1.3 * t_lo:
        return 0.0
    t = geometric_grid(t_lo, hi_sub, FIT_GRID_NODES)
    coef = _weighted_fit(t, theta_values(lam, t), scale)[0]
    d_bm1, d_b0, d_b1 = (float(c) - f for c, f in zip(coef, fit.coefficients))
    return abs(
        -d_bm1 / t_lo
        - d_b0 * (math.log(1.0 / t_lo) - EULER_GAMMA)
        + d_b1 * t_lo
    )


class ZetaResult(NamedTuple):
    """Everything the zeta pipeline reports for one metric."""

    metric_id: str
    s_points: tuple[ZetaPoint, ...]
    zeta0: float
    zeta0_minus_kernel: float
    zeta_prime0: float
    error_budget: float
    fit: AsymptoticFit
    method: dict


def zeta_result(
    eigenvalues: np.ndarray,
    fit: AsymptoticFit,
    s_values: tuple[float, ...] = DEFAULT_S_VALUES,
    metric_id: str = "",
) -> ZetaResult:
    """The direct zeta points, zeta(0) and zeta'(0) of one spectrum.

    zeta'(0) is the closed form of the module docstring at t_lo, the lower
    end of the fit's effective window, with its error budget; its three
    terms and the window spread go to ``method``. The kernel is the
    constants alone, so ``zeta0_minus_kernel`` is zeta(0) - 1.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    points = tuple(zeta_direct(lam, s, fit.b_minus1) for s in s_values)
    lam = lam[lam > 0.0]
    t_lo = fit.window_effective[0]
    bm1, b0, b1 = fit.coefficients

    spectral = float(np.sum(exp_e1(lam * t_lo)))
    regularization = b0 * (EULER_GAMMA + math.log(t_lo)) - bm1 / t_lo
    head = b1 * t_lo
    value = spectral + regularization + head

    sig_bm1, sig_b0, sig_b1 = fit.param_sigma
    spread = _window_sensitivity(lam, fit)
    budget = (
        sig_bm1 * (1.0 + 1.0 / t_lo)
        + sig_b0 * (EULER_GAMMA + math.log(1.0 / t_lo))
        + sig_b1 * t_lo
        + abs(b1) * t_lo * t_lo
        + fit.trunc_tol * (1.0 + math.log(1.0 / t_lo))
        + spread
    )
    method = {
        "zeta_prime0_parts": {
            "spectral": spectral,
            "regularization": regularization,
            "head": head,
            "window_spread": spread,
        },
    }
    return ZetaResult(
        metric_id=metric_id,
        s_points=points,
        zeta0=fit.b0,
        zeta0_minus_kernel=fit.b0 - 1,
        zeta_prime0=float(value),
        error_budget=float(budget),
        fit=fit,
        method=method,
    )


def heat_operator(spectrum: Spectrum, t: float) -> Blocks:
    """Blocks of exp(-t * operator) acting on basis coefficients, one per m."""
    if t < 0.0:
        raise DomainError(f"heat time must be nonnegative, got {t}")
    return apply_function(spectrum, lambda lam: np.exp(-t * lam))


class DuhamelReport(NamedTuple):
    """Defect of the integrated variation identity at one (u, t)."""

    residual: float
    derivative_norm: float
    ratio: float
    h: float
    t: float
    n_nodes: int


def duhamel_residual(
    spec_lo: Spectrum,
    spec_mid: Spectrum,
    spec_hi: Spectrum,
    h: float,
    t: float,
    n_nodes: int,
) -> DuhamelReport:
    """Check d/du exp(-t Delta_u) = -int_0^t E(t-s) (d Delta/du) E(s) ds.

    The time integral is an ``n_nodes``-point Gauss-Legendre rule on [0, t];
    ``harness.duhamel_at`` picks h, t and n_nodes. Both derivatives are
    centered differences with the same step h, so the residual measures the
    integral identity itself, not the differencing.
    The operators are radial, so everything runs per azimuthal block m;
    norms are operator norms in the mass inner product of the middle metric,
    the largest over the blocks.
    """
    if t <= 0.0 or h <= 0.0:
        raise DomainError("need positive t and h")
    dE = tuple(
        (hi - lo) / (2.0 * h)
        for hi, lo in zip(heat_operator(spec_hi, t), heat_operator(spec_lo, t))
    )
    d_lap = tuple(
        (np.linalg.inv(M_hi) - np.linalg.inv(M_lo)) * (stiffness(spec_mid.L, m) / (2.0 * h))
        for m, (M_hi, M_lo) in enumerate(
            zip(spec_hi.mass_blocks, spec_lo.mass_blocks)
        )
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
    ips = [InnerProduct.from_gram(M) for M in spec_mid.mass_blocks]
    resid, d_norm = block_operator_norms([np.stack((d + a, d)) for d, a in zip(dE, acc)], ips)
    ratio = resid / d_norm if d_norm > 0.0 else 0.0
    return DuhamelReport(float(resid), float(d_norm), float(ratio), float(h), float(t), n_nodes)
