"""Colatitude quadrature on the sphere for the round probability measure.

Nodes are Gauss-Legendre in x = cos(theta), split into two panels at the
equator (x in [-1,0] and [0,1]) so that integrands with a kink on |z| = 1
are still integrated panel-exactly. Every built-in conformal factor is
radial, so the azimuth integrates in closed form and the rule has no
azimuthal nodes: the weights against the round probability measure
sin(theta) dtheta dphi / (4 pi) are the x weights halved, summing to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

__all__ = ["QuadratureRule", "build_quadrature"]


@dataclass(frozen=True)
class QuadratureRule:
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
        """Chart-0 radii r = tan(theta/2) of the x nodes."""
        return np.sqrt((1.0 - self.x) / (1.0 + self.x))

    @property
    def weights_theta(self) -> np.ndarray:
        """x-factor weights with the azimuth already integrated (sum = 1)."""
        return self.wx / 2.0


def build_quadrature(n_theta: int) -> QuadratureRule:
    """Two-panel Gauss-Legendre rule with ``n_theta`` nodes per panel.

    Exact for products of basis harmonics up to combined degree 2L whenever
    n_theta >= 2L+2.
    """
    if n_theta < 1:
        raise DomainError("quadrature size must be positive")
    xg, wg = leggauss(n_theta)
    # panel [-1, 0]
    x_lo = 0.5 * (xg - 1.0)
    w_lo = 0.5 * wg
    # panel [0, 1]
    x_hi = 0.5 * (xg + 1.0)
    w_hi = 0.5 * wg
    x = np.concatenate([x_lo, x_hi])
    wx = np.concatenate([w_lo, w_hi])
    order = np.argsort(x, kind="stable")
    return QuadratureRule(n_theta, x[order], wx[order])
