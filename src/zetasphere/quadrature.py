"""Colatitude quadrature on the sphere for the round probability measure.

Nodes are Gauss-Legendre in x = cos(theta), split into two panels at the
equator (x in [-1,0] and [0,1]) so that integrands with a kink on |z| = 1
are still integrated panel-exactly. Every built-in conformal factor is
radial, so the azimuth integrates in closed form and the rule has no
azimuthal nodes: the weights against the round probability measure
sin(theta) dtheta dphi / (4 pi) are the x weights halved, summing to 1.

The Gauss-Legendre rule itself (``gauss_legendre``, shared by every
quadrature in the package) is Newton's method on the three-term Legendre
recurrence, as in Hale and Townsend (SIAM J. Sci. Comput. 35, 2013): O(n^2)
time and O(n) memory, where a companion-matrix eigensolve needs O(n^3) and
O(n^2). Nodes are accurate to an ulp and weights to about 1e-13 relative at
n = 258.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = ["QuadratureRule", "build_quadrature", "gauss_legendre", "JET_RULE_NODES"]

# Nodes per panel of the one rule on which the metric's jet is integrated,
# the anomaly integral and the heat invariants: 256 radial nodes split at
# the equator, where the smoothing families concentrate their curvature.
JET_RULE_NODES = 128

# Newton from Tricomi's initial guesses settles in 3 or 4 steps for every n
# up to 1026, the rule at L = 512; the bound only stops a runaway loop.
_NEWTON_STEPS = 10
_NEWTON_TOL = 1e-15


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton runs on the nodes of the upper half at once, from Tricomi's
    approximation, and the lower half mirrors them (an odd n adds the node 0
    exactly). The weight 2 / ((1 - x)(1 + x) P_n'(x)^2) is taken at the last
    iterate and carried to the root along the last Newton step, so it does
    not inherit the rounding of the stored node. The arrays are cached per
    n and read-only.
    """
    if n < 1:
        raise DomainError("quadrature size must be positive")
    k = np.arange(n // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x = np.concatenate([[0.0], x])
    for _ in range(_NEWTON_STEPS):
        p, p_prev = _legendre_pair(n, x)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        step = p / dp
        w = 2.0 / (one_minus_x2 * dp**2) * (1.0 + 2.0 * x * step / one_minus_x2)
        x = x - step
        if np.max(np.abs(step)) < _NEWTON_TOL:
            break
    nodes = np.concatenate([-x[::-1][: n // 2], x])
    weights = np.concatenate([w[::-1][: n // 2], w])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class QuadratureRule(NamedTuple):
    """Two-panel Gauss-Legendre rule in x = cos(theta).

    Attributes
    ----------
    n_theta : int
        Gauss-Legendre nodes per panel (two panels total).
    x : ndarray, shape (2*n_theta,)
        cos(theta) nodes, ascending, interior to (-1, 1).
    wx : ndarray
        Weights for the x factor, summing to 2.
    """

    n_theta: int
    x: np.ndarray
    wx: np.ndarray

    @property
    def radii_theta(self) -> np.ndarray:
        """Radii r = |z| = tan(theta/2) of the x nodes."""
        return np.sqrt((1.0 - self.x) / (1.0 + self.x))

    @property
    def weights_theta(self) -> np.ndarray:
        """x-factor weights with the azimuth already integrated (sum = 1)."""
        return self.wx / 2.0


def build_quadrature(n_theta: int) -> QuadratureRule:
    """Two-panel Gauss-Legendre rule with ``n_theta`` nodes per panel.

    Each panel integrates polynomials in x of degree up to 2 n_theta - 1
    exactly, so products of basis harmonics up to degree L are exact from
    n_theta = L + 1.
    """
    xg, wg = gauss_legendre(n_theta)
    # panel [-1, 0], then panel [0, 1]: ascending, as the nodes are
    x = np.concatenate([0.5 * (xg - 1.0), 0.5 * (xg + 1.0)])
    wx = np.concatenate([0.5 * wg, 0.5 * wg])
    return QuadratureRule(n_theta, x, wx)
