"""Conformal metrics on the Riemann sphere and operations on families of them.

Every built-in metric is radial: its conformal factor ``lambda`` against the
flat coordinate z depends on r = |z| alone, so a metric is a function of a
real radius. The associated area form is ``(i/2pi) * lambda dz wedge dzbar``,
i.e. the density ``lambda(r)/pi`` against Lebesgue measure ``dx dy``. Each
factor extends over z = inf, where the coordinate w = 1/z rescales it by
|z|^4, so ``log lambda(r) + 4 log r`` has a finite limit as r -> inf.

A metric is one radial jet ``(f, df/dr, c1, dc1/dr)`` with f = log lambda
and the curvature density c1 = -(1/4) (f'' + f'/r). The built-in factors
(fs, pnorm, max) give it in closed form, and the compositions stay exact:
``scaled`` shifts f, ``geomean`` averages the four parts, and
``interpolate`` blends the members' jets. The density, its logarithm and
the curvature are all read from the jet; a kink adds a line mass of
curvature, from the one-sided jets (`ConformalMetric.line_masses`). A
family carries its uniform limit, and the u-derivative of its blend is the
family's (`d_log_density_du`). A metric's ``order`` says how many of the
heat invariants b_1 and b_2 its jet determines (`heatzeta.heat_invariants`).
Its ``id`` is a spec, which `parse_metric_spec` reads back to the same jet.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "ConformalMetric",
    "MetricFamily",
    "fs_metric",
    "max_metric",
    "pnorm_metric",
    "scaled_metric",
    "pnorm_family",
    "geomean_family",
    "FAMILIES",
    "interpolate",
    "d_log_density_du",
    "volume",
    "sup_log_distance",
    "parse_metric_spec",
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
# Most ``geomean(`` levels one spec may nest; each level recurses in the parser and the jet.
MAX_GEOMEAN_DEPTH = 16


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


class ConformalMetric(NamedTuple):
    """A radial conformal factor on the sphere, a function of r = |z|.

    ``id`` is the canonical spec string of the metric. ``jet`` gives the
    radial jet ``(f, df/dr, c1, dc1/dr)`` for arrays of finite radii
    ``r = |z|``, with ``f = log lambda`` and the curvature density
    ``c1 = -d2/dz dzbar f = -(1/4) (f'' + f'/r)`` against ``dx dy / pi``.
    Off the kinks every part is exact; at a kink ``df/dr`` takes either
    one-sided value and ``c1`` is meaningless. ``kink_radii`` are the radii
    where the factor fails to be C^2, each with a line mass of curvature,
    and ``scale_hint`` is the global time scale carried by overall factors
    ``t * lambda``, which pipelines use to scale default time grids.
    ``order`` is how many of the heat invariants b_1, b_2 the jet
    determines: 2 for a factor smooth on the whole sphere, 1 for one that
    is only finitely smooth at a pole, 0 at a kink and for a hand-built jet
    (which need give only its first three parts).
    """

    id: str
    jet: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    kink_radii: tuple[float, ...] = ()
    scale_hint: float = 1.0
    order: int = 0

    def log_density(self, r) -> np.ndarray:
        """log of the conformal factor at radii ``r``."""
        return self.jet(np.asarray(r, dtype=float))[0]

    def density(self, r) -> np.ndarray:
        return np.exp(self.log_density(r))

    def line_masses(self) -> tuple[float, ...]:
        """Curvature mass on each kink circle against ``dx dy / pi``: since
        c1 = -(1/(4r)) (r f')', it is -(1/2) times the jump of r f' across
        the circle, read from the jet at the neighbouring doubles."""
        rk = np.asarray(self.kink_radii, dtype=float)
        r = np.concatenate([np.nextafter(rk, 0.0), np.nextafter(rk, 2.0 * rk)])
        rdf = r * self.jet(r)[1]
        return tuple(float(m) for m in -0.5 * (rdf[rk.size:] - rdf[: rk.size]))

    def __repr__(self):
        return f"ConformalMetric({self.id!r})"


def fs_metric() -> ConformalMetric:
    """Round metric normalized to total volume 2: lambda = 2/(1+|z|^2)^2."""

    def jet(r):
        q = 1.0 + r**2
        return math.log(2.0) - 2.0 * np.log1p(r**2), -4.0 * r / q, 2.0 / q**2, -8.0 * r / q**3

    return ConformalMetric("fs", jet, order=2)


def max_metric() -> ConformalMetric:
    """Factor lambda = 1/max(1, |z|)^4: continuous, with a kink on |z| = 1.

    Off the circle the factor is flat; its whole curvature, 2, is the line
    mass on the kink.
    """

    def jet(r):
        f = -4.0 * np.maximum(np.log(np.maximum(r, 1e-300)), 0.0)
        df = np.where(r > 1.0, -4.0 / np.maximum(r, 1.0), 0.0)
        return f, df, np.zeros_like(f), np.zeros_like(f)

    return ConformalMetric("max", jet, kink_radii=(1.0,))


def pnorm_metric(p: float) -> ConformalMetric:
    """Smooth factor lambda = (1 + |z|^(2p))^(-2/p), p >= 1.

    Uniformly close to the max factor: sup |log ratio| = (2/p) log 2. p is
    capped at ``MAX_PNORM_P``. An integer p is smooth at the poles (order
    2); any other p has |z|^(2p) there, which pins b_1 but not b_2 (order 1).
    """
    if not 1 <= p <= MAX_PNORM_P:
        raise DomainError(f"pnorm requires 1 <= p <= {MAX_PNORM_P:g}, got {p}")
    p = float(p)
    # c1' at r = 0, where it is 2p (2p - 2) r^(2p-3)
    pole_dc1 = 0.0 if p == 1.0 or p > 1.5 else (3.0 if p == 1.5 else math.inf)

    def jet(r):
        logr = np.log(np.maximum(r, 1e-300))
        x = 2.0 * p * logr
        f = -(2.0 / p) * _softplus(x)
        # f' = -4 r^(2p-1) / (1 + r^(2p)), c1 = 2p r^(2p-2) / (1 + r^(2p))^2
        # and c1' = (c1 / r) (2p - 2 - 4p r^(2p) / (1 + r^(2p))), all
        # evaluated in log form
        df = -4.0 * np.exp(-_softplus(-x) - logr)
        log_c1 = math.log(2.0 * p) + (2.0 * p - 2.0) * logr - 2.0 * _softplus(x)
        c1 = np.where(r == 0.0, 2.0 if p == 1.0 else 0.0, np.exp(log_c1))
        with np.errstate(over="ignore", invalid="ignore"):
            dc1 = np.exp(log_c1 - logr) * (2.0 * p - 2.0 - 4.0 * p * np.exp(-_softplus(-x)))
        dc1 = np.where(r == 0.0, pole_dc1, dc1)
        return f, df, c1, dc1

    return ConformalMetric(f"pnorm:{_spec_text(p)}", jet, order=2 if p == math.floor(p) else 1)


def scaled_metric(t0: float, inner: ConformalMetric) -> ConformalMetric:
    """Overall rescaling t0 * lambda of another metric."""
    if t0 <= 0:
        raise DomainError(f"scale factor must be positive, got {t0}")
    t0 = float(t0)
    lt = math.log(t0)

    def jet(r):
        # derivatives and curvature are unchanged by constant rescaling
        f, *rest = inner.jet(r)
        return (f + lt, *rest)

    return ConformalMetric(
        f"scaled:{_spec_text(t0)}:{inner.id}",
        jet,
        kink_radii=inner.kink_radii,
        scale_hint=t0 * inner.scale_hint,
        order=inner.order,
    )


def geomean_metric(a: ConformalMetric, b: ConformalMetric) -> ConformalMetric:
    """Pointwise geometric mean sqrt(lambda_a * lambda_b); the time scale is
    the geometric mean of the parts' scales likewise, the order the lower."""

    def jet(r):
        return tuple(0.5 * (x + y) for x, y in zip(a.jet(r), b.jet(r)))

    prod = a.scale_hint * b.scale_hint
    if sys.float_info.min <= prod <= sys.float_info.max:
        scale = math.sqrt(prod)
    else:  # the product under- or overflows; the parts' roots do not
        scale = math.sqrt(a.scale_hint) * math.sqrt(b.scale_hint)
    return ConformalMetric(
        f"geomean({a.id},{b.id})",
        jet,
        kink_radii=tuple(sorted(set(a.kink_radii) | set(b.kink_radii))),
        scale_hint=scale,
        order=min(a.order, b.order),
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
    """An ordered family of conformal metrics, its parameters and its uniform
    limit. Its path between members is `interpolate`'s blend of two
    neighbours, whose u-derivative is `d_log_density_du`."""

    id: str
    members: tuple[ConformalMetric, ...]
    limit: ConformalMetric
    parameters: tuple[float, ...]


def pnorm_family(params: Sequence[float] = range(1, 7)) -> MetricFamily:
    """The canonical smoothing family pnorm(p) with the max metric as limit."""
    params = tuple(float(p) for p in params)
    members = tuple(pnorm_metric(p) for p in params)
    return MetricFamily("pnorm", members, max_metric(), params)


def geomean_family(params: Sequence[float] = range(1, 7)) -> MetricFamily:
    """Independent smoothing family sqrt(pnorm(p) * pnorm(p+1)), same limit."""
    params = tuple(float(p) for p in params)
    members = tuple(
        geomean_metric(pnorm_metric(p), pnorm_metric(p + 1.0)) for p in params
    )
    return MetricFamily("geomean-pnorm", members, max_metric(), params)


# The smoothing families by name, as ``[family] name`` and ``interp:`` specs
# give it; ``config`` keeps the same names numpy-free.
FAMILIES = {"pnorm": pnorm_family, "geomean-pnorm": geomean_family}


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
    with the smooth transition rho. At an integer u = k, rho = 1 and rho' = 0,
    so H is member k's own jet and its u-derivative is zero. The time scale
    is blended with the same weights as the densities; the order is the
    lower of the members'.
    """
    u = float(u)
    k, lo, hi, x = _segment(family, u)
    rho = float(bump(x))

    def jet(r):
        if rho <= 0.0:
            return lo.jet(r)
        if rho >= 1.0:
            return hi.jet(r)
        fa, dfa, c1a, dc1a = lo.jet(r)
        fb, dfb, c1b, dc1b = hi.jet(r)
        f = np.logaddexp(math.log1p(-rho) + fa, math.log(rho) + fb)
        # shares of the members in the blend H: pb = rho h_b / H, pa = 1 - pb.
        # f' is the share-weighted mean of the members' f'; c1 also loses
        # the shares' variance of f', (1/4) pa pb D^2 with D = f_a' - f_b'.
        # Differentiating once more with pb' = -pa pb D and, from the
        # definition of c1, D' = -4 (c1a - c1b) - D / r gives c1'.
        pb = np.exp(math.log(rho) + fb - f)
        pa = 1.0 - pb
        d = dfa - dfb
        df = pa * dfa + pb * dfb
        c1 = pa * c1a + pb * c1b - 0.25 * pa * pb * d**2
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(r > 0.0, d / r, 0.0)
        dc1 = pa * dc1a + pb * dc1b + pa * pb * d * (
            3.0 * (c1a - c1b) - 0.25 * (pb - pa) * d**2 + 0.5 * slope
        )
        return f, df, c1, dc1

    return ConformalMetric(
        f"interp:{_spec_text(u)}:{family.id}",
        jet,
        kink_radii=tuple(sorted(set(lo.kink_radii) | set(hi.kink_radii))),
        scale_hint=(1.0 - rho) * lo.scale_hint + rho * hi.scale_hint,
        order=min(lo.order, hi.order),
    )


def d_log_density_du(family: MetricFamily, u: float, r) -> np.ndarray:
    """u-derivative of log H(u) at radii ``r``, H the blend of `interpolate`.

    On the segment [k-1, k] it is ``rho'(x) (h_k - h_{k-1}) / H`` with
    x = u - k + 1: zero at an integer u, where rho' vanishes.
    """
    _, lo, hi, x = _segment(family, float(u))
    rho = float(bump(x))
    rhop = float(bump_derivative(x))
    ha = lo.density(r)
    hb = hi.density(r)
    H = (1.0 - rho) * ha + rho * hb
    return rhop * (hb - ha) / H


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


def sup_log_distance(metric: ConformalMetric, other: ConformalMetric, radii) -> float:
    """Max of |log(lambda_metric / lambda_other)| over ``radii`` and the
    equator r = 1, where the built-in families attain their extreme ratio.

    Read on the mass's colatitude nodes, it is the d of the exact mass
    equivalence e^-d M_other <= M_metric <= e^d M_other.
    """
    r = np.append(radii, 1.0)
    return float(np.abs(metric.log_density(r) - other.log_density(r)).max())


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
    ``geomean(<a>,<b>)`` | ``interp:<u>:<family>`` with ``<family>`` a name
    of ``FAMILIES`` and u <= ``MAX_INTERP_U``. A geomean splits at its
    comma outside every parenthesis, and its parts are specs themselves. At
    most ``MAX_SCALED_DEPTH`` ``scaled:`` prefixes stack, and at most
    ``MAX_GEOMEAN_DEPTH`` geomeans nest. Numbers must be finite.
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
    if spec.startswith("geomean(") and spec.endswith(")"):
        inner = spec[len("geomean("):-1]
        depth = list(itertools.accumulate((c == "(") - (c == ")") for c in inner))
        if max(depth, default=0) >= MAX_GEOMEAN_DEPTH:
            raise ConfigError(f"more than {MAX_GEOMEAN_DEPTH} nested geomean( levels in {spec!r}")
        cut = next((i for i, c in enumerate(inner) if c == "," and depth[i] == 0), None)
        if cut is None:
            raise ConfigError(f"geomean spec needs geomean(<a>,<b>), got {spec!r}")
        return geomean_metric(parse_metric_spec(inner[:cut]), parse_metric_spec(inner[cut + 1:]))
    if spec.startswith("interp:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise ConfigError(f"interp spec needs interp:<u>:<family>, got {spec!r}")
        u = _spec_number(parts[1], "interpolation parameter", spec)
        if u > MAX_INTERP_U:
            raise ConfigError(
                f"interpolation parameter must be at most {MAX_INTERP_U:g}, got {u} in {spec!r}"
            )
        if parts[2] not in FAMILIES:
            raise ConfigError(f"unknown family {parts[2]!r} in {spec!r}")
        n_members = max(2, math.ceil(u) + 1)
        fam = FAMILIES[parts[2]](range(1, n_members + 1))
        try:
            return interpolate(fam, u)
        except DomainError as e:
            raise ConfigError(str(e)) from e
    raise ConfigError(f"unknown metric spec {spec!r}")
