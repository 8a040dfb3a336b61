"""Heat traces, spectral zeta values, and the zeta derivative at zero.

The heat-trace and zeta sums take an eigenvalue array, and `zeta_result`
takes a solved `Spectrum` and its metric. The discrete heat trace
theta(t) = sum_k exp(-lambda_k t) over the positive eigenvalues has the
small-time expansion b_-1/t + b_0 + b_1 t + b_2 t^2 + ..., whose
coefficients are local invariants of the metric (McKean and Singer,
J. Diff. Geom. 1, 1967; Gilkey, *Invariance Theory, the Heat Equation and
the Atiyah-Singer Index Theorem*, 1984), so none is fitted: b_-1 is the
volume, b_0 = chi/6 - 1 = -2/3 (kernel excluded, line masses included) and
`heat_invariants` reads b_1 and b_2 off the jet, as far as the metric's
``order`` pins them. zeta(s) for s > 1 comes directly from the eigenvalues.

zeta'(0) is one closed form at t = s tau, s the metric's time scale,

    Z(tau) = sum_k E1(lambda_k s tau) - (b_-1 / s) / tau
             + b_0 (gamma + log s tau) + b_1 s tau + b_2 s^2 tau^2 / 2,

the s-derivative at 0 of the Mellin transform of theta split at t: above
t the discrete trace gives sum E1 exactly, below it each b_a u^a gives
b_a t^a / a (b_0 (gamma + log t) for a = 0). The omitted terms fall like
tau^a, a = 3 at order 2, 1 at order 1 and 1/2 at a kink (order 0), whose
trace has a t^(1/2) term. All but b_0 log s is computed in tau, so the
rescaling law zeta'(0; c g) = zeta'(0; g) + b_0 log c holds to roundoff and
the budget does not move with c.

`zeta_result` evaluates Z on the rungs tau_j = 0.0025 2^j, j = 0..7, each
with four budget parts: the law part e_j = |Z(tau_j) - Z(2 tau_j)| /
(2^a - 1), the nested part d_j (the E1 sum's change on the nested
spectrum at 7L/8, which the solve already has), the Weyl tail
w_j = (b_-1/s) E2(lambda_max s tau_j) / tau_j and the quadrature part q_j
(the head's change on a jet rule of half the nodes). A rung qualifies when
d_j + w_j <= e_j, where the spectrum resolves the trace better than the
expansion does; zeta'(0) is Z at the qualifying rung of least budget
3 e_j + d_j + w_j + q_j, or at the top rung if none qualifies.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .eigensolve import Spectrum
from .errors import DomainError
from .metrics import ConformalMetric
from .quadrature import JET_RULE_NODES, build_quadrature

__all__ = [
    "exp_e1",
    "theta_values",
    "heat_invariants",
    "zeta_direct",
    "ZetaResult",
    "zeta_result",
]

EULER_GAMMA = float(np.euler_gamma)

# b_0 of the kernel-excluded heat trace on the sphere: chi/6 - 1.
B0 = -2.0 / 3.0

# Rungs tau_j = 0.0025 2^j, j = 0..7, at which zeta'(0) may be evaluated.
LADDER = 0.0025 * 2.0 ** np.arange(8)

# Exponent a of the law part, by the metric's order, and the factor of the
# law part in the budget.
_LAW_EXPONENT = (0.5, 1.0, 3.0)
_LAW_FACTOR = 3.0

# Floats in the exp(-t lambda) and E1(t lambda) blocks of the heat-trace
# sums (64 KB): a block holds as many rows as fit, at least one, so its
# size does not grow with the spectrum or with the number of times asked.
_THETA_FLOATS = 8192

# Above this argument exp(-x), and with it E1(x), underflows to 0.0.
_E1_UNDERFLOW = 745.2
# Depth of the backward continued fraction by band of x, (upper edge, depth):
# x = 1 converges slowest, and a band of arguments four times larger needs
# about a quarter of the depth (each band within 2 ulp of mpmath).
_E1_CF_BANDS = ((4.0, 128), (16.0, 32), (64.0, 12), (math.inf, 6))


def exp_e1(x):
    """Exponential integral E1 on positive arguments, elementwise.

    Power series below 1, to 20 terms. From 1 up to ``_E1_UNDERFLOW`` the
    continued fraction E1 = e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...))),
    evaluated backward from the depth of each band of ``_E1_CF_BANDS``
    (within 2 ulp of mpmath on [1, 745]). Past ``_E1_UNDERFLOW`` the value
    is 0.0.
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
    rest = ~small & ~(x > _E1_UNDERFLOW)
    for edge, depth in _E1_CF_BANDS:  # a NaN joins the first band and stays NaN
        band, rest = rest & ~(x >= edge), rest & (x >= edge)
        if band.any():
            xc = x[band]
            t, buf = np.zeros_like(xc), np.empty_like(xc)
            for j in range(depth, 0, -1):  # t = j^2 / (x + 2j + 1 - t), in place
                np.subtract(np.add(xc, 2 * j + 1, out=buf), t, out=buf)
                np.divide(j * j, buf, out=t)
            out[band] = np.exp(-xc) / (xc + 1.0 - t)
    return float(out[0]) if scalar else out


def _row_sums(rows, f) -> list:
    """f on the rows (t, lam, count), packed into as few calls of f as fit.

    Per row, the sum over j of count_j f(t lam_j) or, with count None, the
    array f(t lam) itself. The rows are packed in order into blocks of at
    most ``_THETA_FLOATS`` floats, a block holding at least one whole row,
    and f takes one block per call: a zeta record makes one `exp_e1` call
    where its spectrum is small, and memory stays bounded where it is
    large. Each row's sum is the contiguous reduction of that row alone, the
    same as a row of one (len(t), n) matrix, so no value depends on the
    packing.
    """
    blocks = []
    for row in rows:
        if not blocks or sum(r[1].size for r in blocks[-1]) + row[1].size > _THETA_FLOATS:
            blocks.append([])
        blocks[-1].append(row)
    out = []
    for block in blocks:
        x = np.concatenate([t * lam for t, lam, _ in block])
        y = np.split(f(x), np.cumsum([lam.size for _, lam, _ in block[:-1]]))
        out += [v if count is None else (v * count).sum() for v, (_, _, count) in zip(y, block)]
    return out


def theta_values(eigenvalues: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum over positive eigenvalues of exp(-lambda t), kernel excluded, one
    sum per time, in blocks of bounded size (`_row_sums`)."""
    lam = np.asarray(eigenvalues, dtype=float)
    lam = lam[lam > 0.0]
    rows = [(ti, lam, 1.0) for ti in np.asarray(t, dtype=float).ravel()]
    return np.array(_row_sums(rows, lambda x: np.exp(np.negative(x, out=x), out=x)), dtype=float)


def heat_invariants(metric: ConformalMetric, n_theta: int = JET_RULE_NODES) -> tuple[float, float]:
    """(b_1 s, b_2 s^2): the heat invariants of ``metric`` in tau = t / s,
    s = ``metric.scale_hint``, each 0.0 where the metric's order does not
    pin it.

    Integrated on the two-panel rule of ``n_theta`` nodes per panel (the
    anomaly integral's, `JET_RULE_NODES`), with int g r dr = sum over the
    nodes of the weight times g (1 + r^2)^2 / 2. The density enters as
    lambda / s, so a scaled metric's invariants are its part's.
    """
    if metric.order == 0:
        return 0.0, 0.0
    quad = build_quadrature(n_theta)
    r = quad.radii_theta
    f, df, c1, dc1 = metric.jet(r)
    lam = np.exp(f - math.log(metric.scale_hint))
    w = quad.weights_theta * (1.0 + r**2) ** 2 / 2.0
    b1 = float(np.sum(w * c1**2 / lam)) / 30.0
    if metric.order == 1:
        return b1, 0.0
    K = 2.0 * c1 / lam
    dK = 2.0 * (dc1 - c1 * df) / lam
    b2 = float(np.sum(w * ((4.0 / 315.0) * K**3 * lam - dK**2 / 70.0))) / 32.0
    return b1, b2


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


class ZetaResult(NamedTuple):
    """The zeta record of one metric: zeta(0) and zeta'(0), with the volume
    M_0[0, 0] of its spectrum and so log h_Q = log vol + zeta'(0).
    ``zeta0`` is b_0; ``method`` records the rung ``tau_lo``, the metric's
    ``scale`` and ``order``, the pinned ``b`` in tau = t / scale, and the
    parts of zeta'(0) and of the budget at that rung."""

    metric_id: str
    volume: float
    zeta0: float
    zeta_prime0: float
    error_budget: float
    method: dict

    @property
    def log_quillen(self) -> float:
        return math.log(self.volume) + self.zeta_prime0


def zeta_result(spectrum: Spectrum, metric: ConformalMetric) -> ZetaResult:
    """zeta(0) and zeta'(0) of one metric's solved spectrum, from its
    eigenvalues, volume and nested eigenvalues.

    zeta'(0) and its budget are the closed form and the rung rule of the
    module docstring, with the invariants of ``metric``.
    """
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    scale = metric.scale_hint
    lam_s = lam[lam > 0.0] * scale
    b1, b2 = heat_invariants(metric)
    half = heat_invariants(metric, JET_RULE_NODES // 2)
    tau = np.append(LADDER, 2.0 * LADDER[-1])
    vol_s = spectrum.volume / scale

    # one E1 pass over the spectral rows, the nested rows and the Weyl tail's
    # arguments; a distinct eigenvalue counts with its multiplicity
    nested = np.asarray(spectrum.nested) * scale
    lam_u, count = np.unique(lam_s[lam_s > 0.0], return_counts=True)
    nest_u, nest_count = np.unique(nested[nested > 0.0], return_counts=True)
    *sums, e1_tail = _row_sums([
        *((t, lam_u, count) for t in tau),
        *((t, nest_u, nest_count) for t in LADDER),
        (lam_s[-1], LADDER, None),
    ], exp_e1)
    spectral = np.array(sums[: tau.size])
    head = b1 * tau + b2 * tau**2 / 2.0
    z = spectral - vol_s / tau + B0 * (EULER_GAMMA + np.log(tau)) + head
    law = np.abs(z[:-1] - z[1:]) / (2.0 ** _LAW_EXPONENT[metric.order] - 1.0)
    nest = np.abs(spectral[:-1] - np.array(sums[tau.size :]))
    x = lam_s[-1] * LADDER
    tail = vol_s * (np.exp(-x) - x * e1_tail) / LADDER
    quad = np.abs((b1 - half[0]) * LADDER + (b2 - half[1]) * LADDER**2 / 2.0)
    budget = _LAW_FACTOR * law + nest + tail + quad
    qualifies = nest + tail <= law
    j = int(np.argmin(np.where(qualifies, budget, np.inf))) if qualifies.any() else LADDER.size - 1

    t = float(LADDER[j])
    regularization = B0 * (EULER_GAMMA + math.log(t) + math.log(scale)) - vol_s / t
    pinned = {"b_minus1": vol_s, "b0": B0, "b1": b1, "b2": b2}
    method = {
        "tau_lo": t,
        "scale": scale,
        "order": metric.order,
        "b": dict(list(pinned.items())[: 2 + metric.order]),
        "zeta_prime0_parts": {
            "spectral": float(spectral[j]),
            "regularization": regularization,
            "head": float(head[j]),
        },
        "budget_parts": {
            "law": float(_LAW_FACTOR * law[j]),
            "nested": float(nest[j]),
            "weyl_tail": float(tail[j]),
            "quadrature": float(quad[j]),
        },
    }
    return ZetaResult(
        metric_id=metric.id,
        volume=float(spectrum.volume),
        zeta0=B0,
        zeta_prime0=float(spectral[j] + regularization + head[j]),
        error_budget=float(budget[j]),
        method=method,
    )
