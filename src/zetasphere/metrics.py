"""Conformal metrics on the Riemann sphere and operations on families of them.

Every built-in metric is radial: its conformal factor ``lambda`` against the
flat coordinate z depends on r = |z| alone, so a metric is a function of a
real radius. The associated area form is ``(i/2pi) * lambda dz wedge dzbar``,
i.e. the density ``lambda(r)/pi`` against Lebesgue measure ``dx dy``. Each
factor extends over z = inf, where the coordinate w = 1/z rescales it by
|z|^4, so ``log lambda(r) + 4 log r`` has a finite limit as r -> inf.

A metric is one radial jet ``(f, df/dr, c1)`` with f = log lambda and the
curvature density c1 = -(1/4) (f'' + f'/r). The built-in factors (fs, pnorm,
max) give it in closed form, and the compositions stay exact: ``scaled``
shifts f, ``geomean`` averages the three parts, and ``interpolate`` blends
the members' jets. The density, its logarithm and the curvature are all read
from the jet.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedPointError

__all__ = [
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
    "volume",
    "sup_log_distance",
    "equal_area_grid",
    "parse_metric_spec",
    "MAX_INTERP_U",
    "MAX_PNORM_P",
    "MAX_SCALED_DEPTH",
]

# Largest u an ``interp:<u>:<family>`` spec accepts. The spec builds the
# family's first ceil(u) + 1 members eagerly, a cost linear in u.
MAX_INTERP_U = 256.0
# Largest pnorm parameter. Up to it the jet's exponents, such as 2p log r,
# stay finite at every double radius; pnorm:1e300 is already max to 1e-300.
MAX_PNORM_P = 1e300
# Most ``scaled:<t>:`` prefixes one spec may stack. Each prefix wraps the
# density in one more closure, so evaluating the metric recurses once per
# prefix.
MAX_SCALED_DEPTH = 16


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
    """A radial conformal factor on the sphere, a function of r = |z|.

    Parameters
    ----------
    id : str
        Canonical spec string of the metric.
    smoothness : str
        One of ``smooth``, ``continuous``, ``singular-integrable``.
    jet : callable
        The radial jet ``(f, df/dr, c1)`` for arrays of radii ``r = |z|``,
        with ``f = log lambda`` and the curvature density
        ``c1 = -d2/dz dzbar f = -(1/4) (f'' + f'/r)`` against ``dx dy / pi``.
        Off the kinks all three parts are exact; at a kink ``df/dr`` takes
        either one-sided value and ``c1`` is meaningless.
    kink_radii : tuple of float
        Radii where the factor fails to be C^2.
    scale_hint : float
        Global time scale carried by overall factors ``t * lambda``; used by
        pipelines to scale default time grids.
    """

    def __init__(
        self,
        id: str,
        smoothness: str,
        jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
        kink_radii: tuple[float, ...] = (),
        scale_hint: float = 1.0,
        d_log_du_radial: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if smoothness not in ("smooth", "continuous", "singular-integrable"):
            raise DomainError(f"unknown smoothness class {smoothness!r}")
        self.id = id
        self.smoothness = smoothness
        self._jet = jet
        self.kink_radii = tuple(kink_radii)
        self.scale_hint = float(scale_hint)
        self._d_log_du_radial = d_log_du_radial

    def jet(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(log lambda, d log lambda / dr, c1)`` at radii ``r``.

        At r = inf, the point at infinity of the z chart, every factor falls
        like r^-4, so the jet there is its limit ``(-inf, 0, 0)``.
        """
        r = np.asarray(r, dtype=float)
        far = r == np.inf
        if not far.any():
            return self._jet(r)
        f, df, c1 = self._jet(np.where(far, 1.0, r))
        return np.where(far, -np.inf, f), np.where(far, 0.0, df), np.where(far, 0.0, c1)

    def log_density(self, r) -> np.ndarray:
        """log of the conformal factor at radii ``r``."""
        return self.jet(r)[0]

    def density(self, r) -> np.ndarray:
        return np.exp(self.log_density(r))

    def c1_density(self, r) -> np.ndarray:
        """Curvature density ``-d2/dz dzbar log lambda`` against ``dx dy / pi``.

        Kinked factors are refused: their curvature lives partly on the kink
        circle, which no pointwise density sees.
        """
        if self.kink_radii:
            raise UnsupportedPointError(
                f"metric {self.id!r} concentrates curvature on |z| in "
                f"{self.kink_radii} and has no pointwise curvature density; "
                "pass a smooth approximating family member instead"
            )
        return self.jet(r)[2]

    def d_log_density_du(self, r) -> np.ndarray:
        """u-derivative of log lambda for interpolated metrics, else zero."""
        r = np.asarray(r, dtype=float)
        if self._d_log_du_radial is None:
            return np.zeros(r.shape, dtype=float)
        return self._d_log_du_radial(r)

    def __repr__(self):
        return f"ConformalMetric({self.id!r})"


def fs_metric() -> ConformalMetric:
    """Round metric normalized to total volume 2: lambda = 2/(1+|z|^2)^2."""

    def jet(r):
        r2 = r**2
        return math.log(2.0) - 2.0 * np.log1p(r2), -4.0 * r / (1.0 + r2), 2.0 / (1.0 + r2) ** 2

    return ConformalMetric("fs", "smooth", jet)


def max_metric() -> ConformalMetric:
    """Factor lambda = 1/max(1, |z|)^4: continuous, with a kink on |z| = 1.

    The curvature of this factor concentrates on the kink circle, so it
    carries the ``singular-integrable`` class; off the circle it is flat.
    """

    def jet(r):
        f = -4.0 * np.maximum(np.log(np.maximum(r, 1e-300)), 0.0)
        df = np.where(r > 1.0, -4.0 / np.maximum(r, 1.0), 0.0)
        return f, df, np.zeros_like(f)

    return ConformalMetric("max", "singular-integrable", jet, kink_radii=(1.0,))


def pnorm_metric(p: float) -> ConformalMetric:
    """Smooth factor lambda = (1 + |z|^(2p))^(-2/p), p >= 1.

    Uniformly close to the max factor: sup |log ratio| = (2/p) log 2. p is
    capped at ``MAX_PNORM_P``.
    """
    if not 1 <= p <= MAX_PNORM_P:
        raise DomainError(f"pnorm requires 1 <= p <= {MAX_PNORM_P:g}, got {p}")
    p = float(p)

    def jet(r):
        logr = np.log(np.maximum(r, 1e-300))
        x = 2.0 * p * logr
        f = -(2.0 / p) * _softplus(x)
        # f' = -4 r^(2p-1) / (1 + r^(2p)) and c1 = 2p r^(2p-2) / (1 + r^(2p))^2,
        # both evaluated in log form
        df = -4.0 * np.exp(-_softplus(-x) - logr)
        c1 = np.exp(math.log(2.0 * p) + (2.0 * p - 2.0) * logr - 2.0 * _softplus(x))
        c1 = np.where(r == 0.0, 2.0 if p == 1.0 else 0.0, c1)
        return f, df, c1

    return ConformalMetric(f"pnorm:{_spec_text(p)}", "smooth", jet)


def scaled_metric(t0: float, inner: ConformalMetric) -> ConformalMetric:
    """Overall rescaling t0 * lambda of another metric."""
    if t0 <= 0:
        raise DomainError(f"scale factor must be positive, got {t0}")
    t0 = float(t0)
    lt = math.log(t0)

    def jet(r):
        # derivatives and curvature are unchanged by constant rescaling
        f, df, c1 = inner.jet(r)
        return f + lt, df, c1

    return ConformalMetric(
        f"scaled:{_spec_text(t0)}:{inner.id}",
        inner.smoothness,
        jet,
        kink_radii=inner.kink_radii,
        scale_hint=t0 * inner.scale_hint,
        d_log_du_radial=inner._d_log_du_radial,
    )


def geomean_metric(a: ConformalMetric, b: ConformalMetric) -> ConformalMetric:
    """Pointwise geometric mean sqrt(lambda_a * lambda_b)."""

    def jet(r):
        return tuple(0.5 * (x + y) for x, y in zip(a.jet(r), b.jet(r)))

    smooth = _join_smoothness(a.smoothness, b.smoothness)
    return ConformalMetric(
        f"geomean({a.id},{b.id})",
        smooth,
        jet,
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


class MetricFamily(NamedTuple):
    """An ordered family of conformal metrics with an optional uniform limit."""

    id: str
    members: tuple[ConformalMetric, ...]
    limit: ConformalMetric | None = None
    parameters: tuple[float, ...] = ()


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
            base.jet,
            kink_radii=base.kink_radii,
        )
    k, lo, hi, x = _segment(family, u)
    rho = float(bump(x))
    rhop = float(bump_derivative(x))

    def jet(r):
        if rho <= 0.0:
            return lo.jet(r)
        if rho >= 1.0:
            return hi.jet(r)
        fa, dfa, c1a = lo.jet(r)
        fb, dfb, c1b = hi.jet(r)
        f = np.logaddexp(math.log1p(-rho) + fa, math.log(rho) + fb)
        # shares of the members in the blend H: pb = rho h_b / H, pa = 1 - pb.
        # f' is the share-weighted mean of the members' f'; c1 also loses
        # the shares' variance of f', (1/4) pa pb (f_a' - f_b')^2
        pb = np.exp(math.log(rho) + fb - f)
        pa = 1.0 - pb
        df = pa * dfa + pb * dfb
        c1 = pa * c1a + pb * c1b - 0.25 * pa * pb * (dfa - dfb) ** 2
        return f, df, c1

    def dlog_du(r):
        ha = lo.density(r)
        hb = hi.density(r)
        H = (1.0 - rho) * ha + rho * hb
        return rhop * (hb - ha) / H

    return ConformalMetric(
        f"interp:{_spec_text(u)}:{family.id}",
        _join_smoothness(lo.smoothness, hi.smoothness),
        jet,
        kink_radii=tuple(sorted(set(lo.kink_radii) | set(hi.kink_radii))),
        d_log_du_radial=dlog_du,
    )


def equal_area_grid(n_theta: int = 64) -> np.ndarray:
    """Radii of a fixed equal-area grid (midpoints in cos theta).

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
    return float(np.abs(metric.d_log_density_du(grid)).max())


def volume(metric: ConformalMetric, quad) -> float:
    """Total area with the chosen normalization (integral of the area form).

    ``quad`` is a QuadratureRule from :mod:`zetasphere.quadrature`; the density
    ratio of the metric area form against the round probability measure is
    ``lambda(r) (1 + r^2)^2``. The factor is radial, so the integral runs
    over the colatitude nodes alone.
    """
    r = quad.radii_theta
    log_ratio = metric.log_density(r) + 2.0 * np.log1p(r**2)
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
    return float(np.abs(metric.log_density(grid) - other.log_density(grid)).max())


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
