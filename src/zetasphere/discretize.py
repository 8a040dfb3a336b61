"""Galerkin discretization of the conformal Laplace operator.

The trial space is spanned by real spherical harmonics up to degree L. Two
matrices represent the operator pencil:

* the stiffness matrix K of the Dirichlet form. The form is conformally
  invariant in complex dimension one, so it is the round sphere's, and the
  orthonormal harmonics diagonalize it: K = diag(ell (ell + 1)) in closed
  form (`stiffness`), with nothing assembled;
* the mass matrix M of the metric area form, whose density ratio against the
  round probability measure is ``lambda(z) (1 + |z|^2)^2``.

Generalized eigenvalues of (K, M) then discretize the spectrum of the
operator ``-lambda^{-1} d^2/(dz dzbar)`` acting on functions.

Every built-in conformal factor is radial, so both matrices split into one
block per azimuthal index m = 0..L (rows ell = m..L), and the cos and sin
copies of a block with m >= 1 coincide. `mass` and `mass_log_variation`
build the blocks one m at a time, each from the Legendre rows of its own m
(`harmonics.legendre_blocks`), so no table outlives a block: the scalar
solve drops each M_m once its values are taken, and the eigenvector solve
keeps them all in its `eigensolve.Spectrum`. Reductions have a fixed
summation order, so repeated runs produce identical bytes.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DomainError, InvalidMetricError
from .harmonics import legendre_blocks
from .metrics import ConformalMetric
from .quadrature import QuadratureRule, build_quadrature

__all__ = [
    "SpectralBasis",
    "build_basis",
    "stiffness",
    "mass",
    "mass_log_variation",
]

Blocks = tuple[np.ndarray, ...]


class SpectralBasis:
    """The harmonic degree bound L and its colatitude quadrature.

    It holds no table: every mass block is built from the Legendre rows of
    its m on the nodes, made when the block is. The per-m Gram is a
    polynomial of degree 2L in x, exact from L + 1 nodes per panel; the basis
    asks for 2L + 2, an accuracy margin for the metric's density ratio, which
    is no polynomial.
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
                f"L = {L} needs at least 2L + 2 = {need} for the metric density"
            )
        self.L = int(L)
        self.quad = quad

    def gram_defect(self) -> float:
        """max over m of |P_m W P_m^T - I|; the quadrature check.

        The azimuthal factors are orthonormal in closed form, so the Gram
        matrix of the basis is the identity exactly when every per-m block of
        the colatitude rule is.
        """
        return max(
            float(np.abs(G - np.eye(G.shape[0])).max())
            for G in _radial_weighted_gram(self, self.quad.weights_theta)
        )


def build_basis(L: int, n_theta: int | None = None) -> SpectralBasis:
    """Basis with its quadrature; n_theta defaults to the minimum 2L + 2,
    accuracy margin for the metric density (the Gram is exact from L + 1)."""
    return SpectralBasis(L, build_quadrature(2 * L + 2 if n_theta is None else n_theta))


def stiffness(L: int, m: int) -> np.ndarray:
    """Diagonal of the Dirichlet-form block K_m: ell (ell + 1) for ell = m..L.

    The Dirichlet form of a conformal metric is the round sphere's, and the
    basis harmonics are eigenfunctions of the round Laplacian orthonormal
    for the round probability measure, so every block is diagonal whatever
    the metric. The first entry of K_0 is the constant's zero energy.
    """
    ell = np.arange(m, L + 1, dtype=float)
    return ell * (ell + 1.0)


def _radial_weighted_gram(basis: SpectralBasis, wr: np.ndarray) -> Iterator[np.ndarray]:
    """Gram blocks of the basis under a radial node weight ``wr``, m = 0..L,
    each built when it is asked for."""
    for P in legendre_blocks(basis.L, basis.quad.x):
        blk = (P * wr[None, :]) @ P.T
        yield 0.5 * (blk + blk.T)


def _node_ratio(basis: SpectralBasis, metric: ConformalMetric) -> np.ndarray:
    """Density ratio ``lambda(z) (1+|z|^2)^2`` on the colatitude nodes."""
    r = basis.quad.radii_theta
    log_ratio = metric.log_density(r) + 2.0 * np.log1p(r * r)
    return np.exp(log_ratio)


def mass(basis: SpectralBasis, metric: ConformalMetric) -> Iterator[np.ndarray]:
    """Mass blocks M_m of the metric area form in the harmonic basis, m = 0..L.

    The built-in metrics are radial, so each block is a Gram of its own m's
    Legendre rows, built when it is asked for; ``M_0[0, 0]`` is the metric
    volume. The density ratio is checked here, before the first block.
    """
    ratio = _node_ratio(basis, metric)
    if not np.all(np.isfinite(ratio)) or ratio.min() <= 0.0:
        raise InvalidMetricError(
            f"metric {metric.id!r} has a nonpositive or non-finite density "
            "ratio on the quadrature nodes"
        )
    return _radial_weighted_gram(basis, basis.quad.weights_theta * ratio)


def mass_log_variation(
    basis: SpectralBasis, metric: ConformalMetric
) -> Iterator[np.ndarray]:
    """Parameter derivative of the mass blocks along a metric family, m = 0..L.

    Differentiating the area form in the family parameter multiplies the
    mass integrand by ``d log lambda / du``, so the same radial assembly
    applies with that extra node factor, block by block as for `mass`. The
    result is symmetric but indefinite in general, and identically zero at
    the family's exact members where the blend is stationary.
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
