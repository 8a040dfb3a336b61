"""Galerkin discretization of the conformal Laplace operator.

The trial space is spanned by real spherical harmonics up to degree L. Two
matrices represent the operator pencil:

* the stiffness matrix K of the Dirichlet form, which does not depend on the
  metric at all (the form is conformally invariant in complex dimension one),
  assembled once per basis in the plane coordinate z;
* the mass matrix M of the metric area form, whose density ratio against the
  round probability measure is ``lambda(z) (1 + |z|^2)^2``.

Generalized eigenvalues of (K, M) then discretize the spectrum of the
operator ``-lambda^{-1} d^2/(dz dzbar)`` acting on functions.

Every built-in conformal factor is radial, so both matrices split into one
block per azimuthal index m = 0..L (rows ell = m..L), and the cos and sin
copies of a block with m >= 1 coincide. The blocks are the only form of the
pencil, assembled straight from the packed Legendre table; `block_rows` states
where each copy sits among the (L+1)^2 basis functions. Reductions have a
fixed summation order, so repeated runs produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidMetricError
from .harmonics import legendre_tables, theta_derivative
from .metrics import ConformalMetric
from .quadrature import QuadratureRule, build_quadrature

__all__ = [
    "SpectralBasis",
    "OperatorPair",
    "block_rows",
    "build_basis",
    "stiffness",
    "mass",
    "mass_log_variation",
    "assemble",
]

Blocks = tuple[np.ndarray, ...]


class SpectralBasis:
    """The packed Legendre table, its quadrature, and the stiffness blocks.

    ``pbar[m]`` holds Pbar_{ell m} on the nodes for ell = m..L; every block
    of the pencil is assembled from it. Holding a basis is the one-time cost
    shared by every metric at a given resolution.
    """

    def __init__(self, L: int, quad: QuadratureRule | None = None):
        if L < 0:
            raise DomainError("harmonic degree bound L must be nonnegative")
        if quad is None:
            quad = build_quadrature(2 * L + 2)
        need = 2 * L + 2
        if quad.n_theta < need:
            raise DomainError(
                f"quadrature has {quad.n_theta} polar nodes per panel, "
                f"exactness at L = {L} needs at least {need}"
            )
        self.L = int(L)
        self.quad = quad
        self.pbar = legendre_tables(L, quad.x)
        self._stiffness: Blocks | None = None

    def gram_defect(self) -> float:
        """max over m of |P_m W P_m^T - I|; the exactness check.

        The azimuthal factors are orthonormal in closed form, so the Gram
        matrix of the basis is the identity exactly when every per-m block of
        the colatitude rule is.
        """
        return max(
            float(np.abs(G - np.eye(G.shape[0])).max())
            for G in _radial_weighted_gram(self, self.quad.weights_theta)
        )


def build_basis(L: int, n_theta: int | None = None) -> SpectralBasis:
    """Basis with its quadrature; n_theta defaults to the exactness minimum 2L+2."""
    if n_theta is None:
        n_theta = 2 * L + 2
    return SpectralBasis(L, build_quadrature(n_theta))


def block_rows(L: int):
    """Yield (m, rows) for every diagonal block copy, in solve order.

    The zonal block m = 0 comes first, then the cos and the sin copy of each
    m >= 1. ``rows`` are the copy's positions in the flat basis order, which
    lists for each ell the zonal function, then the cos and sin functions of
    m = 1..ell: ell^2 + (0 | 2m - 1 | 2m) for ell = m..L.
    """
    for m in range(L + 1):
        squares = np.arange(m, L + 1) ** 2
        if m == 0:
            yield 0, squares
        else:
            yield m, squares + (2 * m - 1)
            yield m, squares + 2 * m


def stiffness(basis: SpectralBasis) -> Blocks:
    """Dirichlet-form blocks K_m; metric independent, cached on the basis.

    Assembled in the plane coordinate z: the pairing of f and g is the
    quadrature of the flat gradient pairing (df/dr dg/dr + r^-2 df/dphi
    dg/dphi) against the weight (1+r^2)^2 / 4 per round-measure node, which is the real form
    of the normalized d/dz-dbar pairing. The d/dr rows come from
    `theta_derivative` per m; the (1/r) d/dphi amplitude is m Pbar / r, so
    that term is m^2 times the table's Gram block under the weight over r^2.
    Row and column 0 of K_0 vanish since the constant has no Dirichlet energy.
    """
    if basis._stiffness is None:
        quad = basis.quad
        r = quad.radii_theta
        jac = 2.0 / (1.0 + r * r)            # dtheta/dr
        gw = quad.weights_theta * (1.0 + r * r) ** 2 / 4.0
        angular = _radial_weighted_gram(basis, gw / (r * r))
        blocks = []
        for m in range(basis.L + 1):
            dth = theta_derivative(basis.pbar, m) * jac[None, :]   # d/dr values
            blk = (dth * gw[None, :]) @ dth.T + (m * m) * angular[m]
            blocks.append(0.5 * (blk + blk.T))
        basis._stiffness = tuple(blocks)
    return basis._stiffness


@dataclass(frozen=True)
class OperatorPair:
    """Stiffness/mass pencil of one metric: blocks (K_m, M_m) for m = 0..L."""

    stiffness_blocks: Blocks
    mass_blocks: Blocks
    metric_id: str
    L: int

    @property
    def n(self) -> int:
        return (self.L + 1) ** 2

    @property
    def volume(self) -> float:
        """Metric volume: the mass of the constant, ``M_0[0, 0]``."""
        return float(self.mass_blocks[0][0, 0])


def _radial_weighted_gram(basis: SpectralBasis, wr: np.ndarray) -> Blocks:
    """Gram blocks of the basis under a radial node weight ``wr``."""
    blocks = []
    for m in range(basis.L + 1):
        P = basis.pbar[m]
        blk = (P * wr[None, :]) @ P.T
        blocks.append(0.5 * (blk + blk.T))
    return tuple(blocks)


def _node_ratio(basis: SpectralBasis, metric: ConformalMetric) -> np.ndarray:
    """Density ratio ``lambda(z) (1+|z|^2)^2`` on the colatitude nodes."""
    r = basis.quad.radii_theta
    log_ratio = metric.log_density(r) + 2.0 * np.log1p(r * r)
    return np.exp(log_ratio)


def mass(basis: SpectralBasis, metric: ConformalMetric) -> Blocks:
    """Mass blocks M_m of the metric area form in the harmonic basis.

    The built-in metrics are radial, so each block is assembled from the
    packed Legendre table directly; ``M_0[0, 0]`` is the metric volume.
    """
    ratio = _node_ratio(basis, metric)
    if not np.all(np.isfinite(ratio)) or ratio.min() <= 0.0:
        raise InvalidMetricError(
            f"metric {metric.id!r} has a nonpositive or non-finite density "
            "ratio on the quadrature nodes"
        )
    return _radial_weighted_gram(basis, basis.quad.weights_theta * ratio)


def mass_log_variation(basis: SpectralBasis, metric: ConformalMetric) -> Blocks:
    """Parameter derivative of the mass blocks along a metric family.

    Differentiating the area form in the family parameter multiplies the
    mass integrand by ``d log lambda / du``, so the same radial assembly
    applies with that extra node factor. The result is symmetric but
    indefinite in general, and identically zero at the family's exact
    members where the blend is stationary.
    """
    r = basis.quad.radii_theta
    dlog = metric.d_log_density_du(r)
    if not np.all(np.isfinite(dlog)):
        raise InvalidMetricError(
            f"metric {metric.id!r} has a non-finite density variation on "
            "the quadrature nodes"
        )
    wr = basis.quad.weights_theta * _node_ratio(basis, metric) * dlog
    return _radial_weighted_gram(basis, wr)


def assemble(basis: SpectralBasis, metric: ConformalMetric) -> OperatorPair:
    """Build the block (K_m, M_m) pencil of a metric.

    Positive definiteness of each M_m is checked where it is used: the
    eigensolve factors every mass block.
    """
    return OperatorPair(stiffness(basis), mass(basis, metric), metric.id, basis.L)
