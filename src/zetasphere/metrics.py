"""Conformal metrics on the Riemann sphere and operations on families of them.

A metric is described by its conformal factor ``lambda`` against the flat
coordinate of one of the two standard charts (chart 0: z, chart 1: w = 1/z).
On the overlap the factors are glued by ``lambda_1(w) = |z|^4 lambda_0(z)``.
The associated area form is ``(i/2pi) * lambda dz wedge dzbar``, i.e. the
density ``lambda(z)/pi`` against Lebesgue measure ``dx dy`` of the chart.

Every built-in factor is radial and symmetric under ``z -> 1/z``, but the
chart-1 evaluation always goes through the gluing rule so that the
compatibility identity is exercised rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedPointError

__all__ = [
    "ChartPoint",
    "ConformalMetric",
    "MetricFamily",
    "fs_metric",
    "max_metric",
    "pnorm_metric",
    "scaled_metric",
    "geomean_metric",
    "pnorm_family",
    "geomean_family",
    "interpolate",
    "delta_X",
    "bump",
    "bump_derivative",
    "chern_c1",
    "volume",
    "sup_log_distance",
    "equal_area_grid",
    "parse_metric_spec",
    "MAX_INTERP_U",
    "MAX_SCALED_DEPTH",
]

# Largest u an ``interp:<u>:<family>`` spec accepts. The spec builds the
# family's first ceil(u) + 1 members eagerly, a cost linear in u.
MAX_INTERP_U = 256.0
# Most ``scaled:<t>:`` prefixes one spec may stack. Each prefix wraps the
# density in one more closure, so evaluating the metric recurses once per
# prefix.
MAX_SCALED_DEPTH = 16


@dataclass(frozen=True)
class ChartPoint:
    """A point of the sphere given in one of the two standard charts."""

    chart: int
    z: complex

    def __post_init__(self):
        if self.chart not in (0, 1):
            raise DomainError(f"chart must be 0 or 1, got {self.chart}")

    def to_other_chart(self) -> "ChartPoint":
        if self.z == 0:
            raise DomainError("the chart origin has no image in the other chart")
        return ChartPoint(1 - self.chart, 1.0 / self.z)


def _spec_text(x: float) -> str:
    """A spec number as the shortest text that parses back to it.

    Integral values drop the ``.0``, so ``pnorm:3`` keeps its familiar id.
    """
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed without overflow."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


_SMOOTHNESS_ORDER = ("smooth", "continuous", "singular-integrable")


def _join_smoothness(*classes: str) -> str:
    return _SMOOTHNESS_ORDER[max(_SMOOTHNESS_ORDER.index(c) for c in classes)]


class ConformalMetric:
    """A conformal factor on the sphere, radial in each chart.

    Parameters
    ----------
    id : str
        Canonical spec string of the metric.
    smoothness : str
        One of ``smooth``, ``continuous``, ``singular-integrable``.
    log_radial : callable
        ``log lambda_0(r)`` for radius arrays ``r = |z|`` in chart 0.
    log_at_infinity : float
        ``lim_{r->inf} (log lambda_0(r) + 4 log r)``, the chart-1 value at
        ``w = 0``.
    c1_radial : callable or None
        Analytic curvature density ``-d2/dz dzbar log lambda`` against
        ``dx dy / pi`` in chart 0, when available in closed form.
    kink_radii : tuple of float
        Chart-0 radii where the factor fails to be C^2.
    scale_hint : float
        Global time scale carried by overall factors ``t * lambda``; used by
        pipelines to scale default time grids.
    """

    def __init__(
        self,
        id: str,
        smoothness: str,
        log_radial: Callable[[np.ndarray], np.ndarray],
        log_at_infinity: float,
        c1_radial: Callable[[np.ndarray], np.ndarray] | None = None,
        kink_radii: tuple[float, ...] = (),
        scale_hint: float = 1.0,
        d_log_du_radial: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if smoothness not in ("smooth", "continuous", "singular-integrable"):
            raise DomainError(f"unknown smoothness class {smoothness!r}")
        self.id = id
        self.smoothness = smoothness
        self._log_radial = log_radial
        self._log_at_infinity = float(log_at_infinity)
        self._c1_radial = c1_radial
        self.kink_radii = tuple(kink_radii)
        self.scale_hint = float(scale_hint)
        self._d_log_du_radial = d_log_du_radial

    @property
    def has_analytic_c1(self) -> bool:
        return self._c1_radial is not None

    def log_density(self, z, chart: int = 0) -> np.ndarray:
        """log of the conformal factor at complex coordinates ``z`` of ``chart``."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if chart == 0:
            return self._log_radial(r)
        if chart != 1:
            raise DomainError(f"chart must be 0 or 1, got {chart}")
        out = np.full(r.shape, self._log_at_infinity, dtype=float)
        pos = r > 0
        rp = r[pos]
        out[pos] = -4.0 * np.log(rp) + self._log_radial(1.0 / rp)
        return out

    def density(self, z, chart: int = 0) -> np.ndarray:
        return np.exp(self.log_density(z, chart))

    def c1_density(self, z, chart: int = 0) -> np.ndarray:
        """Analytic curvature density against ``dx dy / pi`` in ``chart``."""
        if self._c1_radial is None:
            raise UnsupportedPointError(
                f"metric {self.id!r} carries no analytic curvature density"
            )
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if chart == 0:
            return self._c1_radial(r)
        if chart != 1:
            raise DomainError(f"chart must be 0 or 1, got {chart}")
        out = np.empty(r.shape, dtype=float)
        pos = r > 0
        rp = r[pos]
        out[pos] = self._c1_radial(1.0 / rp) / rp**4
        if (~pos).any():
            # limit of r^4 * c1(r) as r -> inf, via a large finite radius
            out[~pos] = self._c1_radial(np.array([1e8]))[0] * 1e32
        return out

    def d_log_density_du(self, z, chart: int = 0) -> np.ndarray:
        """u-derivative of log lambda for interpolated metrics, else zero."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if self._d_log_du_radial is None:
            return np.zeros(r.shape, dtype=float)
        if chart == 1:
            out = np.zeros(r.shape, dtype=float)
            pos = r > 0
            # log lambda_1(w) = -4 log|w| + log lambda_0(1/w); the gluing term
            # does not depend on u.
            out[pos] = self._d_log_du_radial(1.0 / r[pos])
            out[~pos] = self._d_log_du_radial(np.array([1e12]))[0]
            return out
        return self._d_log_du_radial(r)

    def __repr__(self):
        return f"ConformalMetric({self.id!r})"


def fs_metric() -> ConformalMetric:
    """Round metric normalized to total volume 2: lambda = 2/(1+|z|^2)^2."""

    def logd(r):
        return math.log(2.0) - 2.0 * np.log1p(np.asarray(r, dtype=float) ** 2)

    def c1(r):
        return 2.0 / (1.0 + np.asarray(r, dtype=float) ** 2) ** 2

    return ConformalMetric("fs", "smooth", logd, math.log(2.0), c1)


def max_metric() -> ConformalMetric:
    """Factor lambda = 1/max(1, |z|)^4: continuous, with a kink on |z| = 1.

    The curvature of this factor concentrates on the kink circle, so it
    carries the ``singular-integrable`` class and no analytic c1 density.
    """

    def logd(r):
        r = np.asarray(r, dtype=float)
        return -4.0 * np.maximum(np.log(np.maximum(r, 1e-300)), 0.0)

    return ConformalMetric("max", "singular-integrable", logd, 0.0, None, kink_radii=(1.0,))


def pnorm_metric(p: float) -> ConformalMetric:
    """Smooth factor lambda = (1 + |z|^(2p))^(-2/p), p >= 1.

    Uniformly close to the max factor: sup |log ratio| = (2/p) log 2.
    """
    if p < 1:
        raise DomainError(f"pnorm requires p >= 1, got {p}")
    p = float(p)

    def logd(r):
        r = np.asarray(r, dtype=float)
        x = 2.0 * p * np.log(np.maximum(r, 1e-300))
        return -(2.0 / p) * _softplus(x)

    def c1(r):
        r = np.asarray(r, dtype=float)
        logr = np.log(np.maximum(r, 1e-300))
        x = 2.0 * p * logr
        # 2p r^(2p-2) / (1 + r^(2p))^2, evaluated in log form
        expo = math.log(2.0 * p) + (2.0 * p - 2.0) * logr - 2.0 * _softplus(x)
        out = np.exp(expo)
        if p == 1.0:
            out = np.where(r == 0.0, 2.0, out)
        else:
            out = np.where(r == 0.0, 0.0, out)
        return out

    return ConformalMetric(f"pnorm:{_spec_text(p)}", "smooth", logd, 0.0, c1)


def scaled_metric(t0: float, inner: ConformalMetric) -> ConformalMetric:
    """Overall rescaling t0 * lambda of another metric."""
    if t0 <= 0:
        raise DomainError(f"scale factor must be positive, got {t0}")
    t0 = float(t0)
    lt = math.log(t0)

    def logd(r):
        return inner._log_radial(r) + lt

    c1 = inner._c1_radial  # curvature is unchanged by constant rescaling
    return ConformalMetric(
        f"scaled:{_spec_text(t0)}:{inner.id}",
        inner.smoothness,
        logd,
        inner._log_at_infinity + lt,
        c1,
        kink_radii=inner.kink_radii,
        scale_hint=t0 * inner.scale_hint,
        d_log_du_radial=inner._d_log_du_radial,
    )


def geomean_metric(a: ConformalMetric, b: ConformalMetric) -> ConformalMetric:
    """Pointwise geometric mean sqrt(lambda_a * lambda_b)."""

    def logd(r):
        return 0.5 * (a._log_radial(r) + b._log_radial(r))

    c1 = None
    if a.has_analytic_c1 and b.has_analytic_c1:

        def c1(r):
            return 0.5 * (a._c1_radial(r) + b._c1_radial(r))

    smooth = _join_smoothness(a.smoothness, b.smoothness)
    return ConformalMetric(
        f"geomean({a.id},{b.id})",
        smooth,
        logd,
        0.5 * (a._log_at_infinity + b._log_at_infinity),
        c1,
        kink_radii=tuple(sorted(set(a.kink_radii) | set(b.kink_radii))),
    )


def bump(x) -> np.ndarray:
    """Smooth transition function: 0 for x <= 0, 1 for x >= 1, C^inf in between."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        f = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        g = np.where(x < 1.0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return f / (f + g)


def bump_derivative(x) -> np.ndarray:
    """Derivative of :func:`bump` (closed form)."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    out = np.zeros_like(x)
    xi = x[inside]
    f = np.exp(-1.0 / xi)
    g = np.exp(-1.0 / (1.0 - xi))
    fp = f / xi**2
    gp = g / (1.0 - xi) ** 2
    out[inside] = (fp * g + f * gp) / (f + g) ** 2
    return out


@dataclass(frozen=True)
class MetricFamily:
    """An ordered family of conformal metrics with an optional uniform limit."""

    id: str
    members: tuple[ConformalMetric, ...]
    limit: ConformalMetric | None = None
    parameters: tuple[float, ...] = field(default_factory=tuple)

    def __len__(self):
        return len(self.members)


def pnorm_family(params: Sequence[float] | None = None, count: int = 6) -> MetricFamily:
    """The canonical smoothing family pnorm(p) with the max metric as limit."""
    if params is None:
        params = list(range(1, count + 1))
    params = tuple(float(p) for p in params)
    members = tuple(pnorm_metric(p) for p in params)
    return MetricFamily("pnorm", members, max_metric(), params)


def geomean_family(params: Sequence[float] | None = None, count: int = 6) -> MetricFamily:
    """Independent smoothing family sqrt(pnorm(p) * pnorm(p+1)), same limit."""
    if params is None:
        params = list(range(1, count + 1))
    params = tuple(float(p) for p in params)
    members = tuple(
        geomean_metric(pnorm_metric(p), pnorm_metric(p + 1.0)) for p in params
    )
    return MetricFamily("geomean-pnorm", members, max_metric(), params)


def _segment(family: MetricFamily, u: float) -> tuple[int, ConformalMetric, ConformalMetric, float]:
    if u < 1.0:
        raise DomainError(f"interpolation parameter must satisfy u >= 1, got {u}")
    k = int(math.ceil(u))
    if k == u:
        k = int(u)
    if k >= len(family.members):
        raise DomainError(
            f"u = {u} needs {k + 1} family members, only {len(family.members)} present"
        )
    lo, hi = family.members[k - 1], family.members[k]
    return k, lo, hi, u - (k - 1)


def interpolate(family: MetricFamily, u: float) -> ConformalMetric:
    """Metric at family parameter u: convex combination of the two neighbours.

    On the segment [k-1, k] the factor is
    ``H(u) = (1 - rho(u-k+1)) h_{k-1} + rho(u-k+1) h_k``
    with the smooth transition rho, so H(n) equals member n exactly.
    """
    u = float(u)
    if u == int(u) and u >= 1.0:
        idx = int(u)
        if idx >= len(family.members):
            raise DomainError(
                f"u = {u} needs {idx + 1} family members, only {len(family.members)} present"
            )
        base = family.members[idx]
        # Rewrap with the interpolation id but identical values.
        return ConformalMetric(
            f"interp:{_spec_text(u)}:{family.id}",
            base.smoothness,
            base._log_radial,
            base._log_at_infinity,
            base._c1_radial,
            kink_radii=base.kink_radii,
            d_log_du_radial=lambda r: np.zeros(np.shape(np.asarray(r))),
        )
    k, lo, hi, x = _segment(family, u)
    rho = float(bump(x))
    rhop = float(bump_derivative(x))

    def logd(r):
        a = lo._log_radial(r)
        b = hi._log_radial(r)
        if rho <= 0.0:
            return a
        if rho >= 1.0:
            return b
        return np.logaddexp(math.log1p(-rho) + a, math.log(rho) + b)

    def dlog_du(r):
        a = lo._log_radial(r)
        b = hi._log_radial(r)
        ha = np.exp(a)
        hb = np.exp(b)
        H = (1.0 - rho) * ha + rho * hb
        return rhop * (hb - ha) / H

    smooth = _join_smoothness(lo.smoothness, hi.smoothness)
    log_inf = np.logaddexp(
        math.log1p(-rho) + lo._log_at_infinity, math.log(rho) + hi._log_at_infinity
    ) if 0.0 < rho < 1.0 else (lo._log_at_infinity if rho <= 0.0 else hi._log_at_infinity)

    c1 = None  # curvature of a density-level mixture has no simple closed form
    return ConformalMetric(
        f"interp:{_spec_text(u)}:{family.id}",
        smooth,
        logd,
        float(log_inf),
        c1,
        kink_radii=tuple(sorted(set(lo.kink_radii) | set(hi.kink_radii))),
        d_log_du_radial=dlog_du,
    )


def equal_area_grid(n_theta: int = 64) -> np.ndarray:
    """Chart-0 radii of a fixed equal-area grid (midpoints in cos theta).

    Every built-in factor is radial, so the radii carry the full information;
    the default takes 64 of them.
    """
    x = -1.0 + (2.0 * np.arange(n_theta) + 1.0) / n_theta
    # r = tan(theta/2), x = cos(theta) -> r = sqrt((1-x)/(1+x))
    return np.sqrt((1.0 - x) / (1.0 + x))


def delta_X(family: MetricFamily, u: float, grid: np.ndarray | None = None) -> float:
    """Max over the grid of |d/du log H(u)^-1| for the interpolated family."""
    if u <= 1.0:
        raise DomainError(f"delta_X requires u > 1, got {u}")
    if grid is None:
        grid = equal_area_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("delta_X needs a nonempty evaluation grid")
    if float(u) == int(u):
        return 0.0
    metric = interpolate(family, u)
    return float(np.abs(metric.d_log_density_du(grid.astype(complex))).max())


def volume(metric: ConformalMetric, quad, chart: int = 0) -> float:
    """Total area with the chosen normalization (integral of the area form).

    ``quad`` is a QuadratureRule from :mod:`zetasphere.quadrature`; the density
    ratio of the metric area form against the round probability measure is
    ``lambda(z) (1 + |z|^2)^2`` in either chart. The factor is radial, so the
    integral runs over the colatitude nodes alone. Computing in chart 1
    re-reads the node radii as |w| values, which parameterizes the same
    integral and serves as the chart-independence check.
    """
    r = quad.radii_theta
    log_ratio = metric.log_density(r.astype(complex), chart) + 2.0 * np.log1p(r**2)
    return float(np.sum(quad.weights_theta * np.exp(log_ratio)))


def sup_log_distance(
    metric: ConformalMetric, other: ConformalMetric, grid: np.ndarray | None = None
) -> float:
    """Sup over the grid of |log(lambda_metric / lambda_other)|.

    The default grid augments the equal-area radii with the equator r = 1,
    where the built-in families attain their extreme ratio.
    """
    if grid is None:
        grid = np.concatenate([equal_area_grid(), [1.0]])
    z = np.asarray(grid, dtype=float).astype(complex)
    return float(np.abs(metric.log_density(z, 0) - other.log_density(z, 0)).max())


def _fd_c1(metric: ConformalMetric, point: ChartPoint, h: float) -> float:
    """Fourth-order centered finite-difference curvature density."""
    z0 = complex(point.z)
    c = point.chart

    def ld(dx, dy):
        return float(metric.log_density(np.array([z0 + dx + 1j * dy]), c)[0])

    def second(axis):
        if axis == 0:
            f = [ld(k * h, 0.0) for k in (-2, -1, 0, 1, 2)]
        else:
            f = [ld(0.0, k * h) for k in (-2, -1, 0, 1, 2)]
        return (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12.0 * h * h)

    return -0.25 * (second(0) + second(1))


def chern_c1(metric: ConformalMetric, point: ChartPoint, h: float | None = None) -> float:
    """Curvature density of the metric at a chart point.

    Uses the analytic closed form when the metric carries one; otherwise a
    fourth-order finite difference of ``log lambda`` with step
    ``h = max(1e-4, 1e-3 (1 + |z|))``. Near a kink the finite-difference path
    refuses with an unsupported-point error.
    """
    if metric.has_analytic_c1:
        return float(metric.c1_density(np.array([point.z]), point.chart)[0])
    if h is None:
        h = max(1e-4, 1e-3 * (1.0 + abs(point.z)))
    # radius of the point in chart-0 terms for the kink check
    r = abs(point.z)
    if point.chart == 1:
        r = np.inf if r == 0 else 1.0 / r
    for k in metric.kink_radii:
        if abs(r - k) <= 2.5 * h:
            raise UnsupportedPointError(
                f"point at chart-0 radius {r:.6g} is within the finite-difference "
                f"stencil of the kink at radius {k:g} and the metric has no "
                "analytic curvature"
            )
    return _fd_c1(metric, point, h)


def _spec_number(text: str, what: str, spec: str) -> float:
    """A finite number field of a metric spec; ConfigError names a bad one."""
    try:
        x = float(text)
    except ValueError as e:
        raise ConfigError(f"bad {what} in {spec!r}") from e
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {x} in {spec!r}")
    return x


def parse_metric_spec(spec: str) -> ConformalMetric:
    """Build a metric from its canonical spec string.

    Grammar: ``fs`` | ``max`` | ``pnorm:<p>`` | ``scaled:<t>:<inner>`` |
    ``interp:<u>:<family>`` with ``<family>`` one of ``pnorm``,
    ``geomean-pnorm`` and u <= ``MAX_INTERP_U``. At most
    ``MAX_SCALED_DEPTH`` ``scaled:`` prefixes stack. Numbers must be finite.
    """
    spec = spec.strip()
    factors = []
    while spec.startswith("scaled:"):
        if len(factors) == MAX_SCALED_DEPTH:
            raise ConfigError(f"more than {MAX_SCALED_DEPTH} nested scaled: prefixes")
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise ConfigError(f"scaled spec needs scaled:<t>:<inner>, got {spec!r}")
        factors.append(_spec_number(parts[1], "scale factor", spec))
        spec = parts[2].strip()
    metric = _parse_unscaled(spec)
    for t0 in reversed(factors):
        try:
            metric = scaled_metric(t0, metric)
        except DomainError as e:
            raise ConfigError(str(e)) from e
    return metric


def _parse_unscaled(spec: str) -> ConformalMetric:
    """A metric spec without ``scaled:`` prefixes; see `parse_metric_spec`."""
    if spec == "fs":
        return fs_metric()
    if spec == "max":
        return max_metric()
    if spec.startswith("pnorm:"):
        p = _spec_number(spec.split(":", 1)[1], "pnorm parameter", spec)
        try:
            return pnorm_metric(p)
        except DomainError as e:
            raise ConfigError(str(e)) from e
    if spec.startswith("interp:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise ConfigError(f"interp spec needs interp:<u>:<family>, got {spec!r}")
        u = _spec_number(parts[1], "interpolation parameter", spec)
        if u > MAX_INTERP_U:
            raise ConfigError(
                f"interpolation parameter must be at most {MAX_INTERP_U:g}, got {u} in {spec!r}"
            )
        fam_name = parts[2]
        n_members = max(2, int(math.ceil(u)) + 1)
        if fam_name == "pnorm":
            fam = pnorm_family(count=n_members)
        elif fam_name == "geomean-pnorm":
            fam = geomean_family(count=n_members)
        else:
            raise ConfigError(f"unknown family {fam_name!r} in {spec!r}")
        try:
            return interpolate(fam, u)
        except DomainError as e:
            raise ConfigError(str(e)) from e
    raise ConfigError(f"unknown metric spec {spec!r}")
