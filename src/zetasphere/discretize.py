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
copies of a block with m >= 1 coincide. A family of metrics shares one
Legendre sweep: `weighted_grams` takes a stack of radial node-weight rows
(`mass_weights`, `variation_weights`) and builds, for each m, the Legendre
rows P of that m once (`harmonics.legendre_blocks`) and every row's Gram
(P w_k) P^T from them, one product per row, as the (K, n, n) stack of that
m. `masses` is the stack of a family's mass blocks; one metric's are the
stacks of a family of one. No table outlives a block: the solve drops each
stack once its block is solved. Reductions have a fixed summation
order, so repeated runs produce identical bytes, and a block is the same
bytes whichever family it is built in.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .errors import DomainError, InvalidMetricError
from .harmonics import legendre_blocks
from .metrics import ConformalMetric
from .quadrature import QuadratureRule, build_quadrature

__all__ = [
    "colatitude_nodes",
    "build_basis",
    "stiffness",
    "mass_weights",
    "variation_weights",
    "weighted_grams",
    "masses",
]

class SpectralBasis:
    """The harmonic degree bound L and its colatitude quadrature.

    It holds no table: every mass block is built from the Legendre rows of
    its m on the nodes, made when the block is. The per-m Gram is a
    polynomial of degree 2L in x, exact from L + 1 nodes per panel; the basis
    refuses a ``quad`` with fewer than 2L + 2, an accuracy margin for the
    metric's density ratio, which is no polynomial. `colatitude_nodes` picks
    the rule and `build_basis` builds it.
    """

    def __init__(self, L: int, quad: QuadratureRule):
        if L < 0:
            raise DomainError("harmonic degree bound L must be nonnegative")
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
            for (G,) in weighted_grams(self, self.quad.weights_theta[None, :])
        )


def colatitude_nodes(L: int) -> int:
    """Colatitude nodes per panel of the basis at degree L: 2L + 2, the
    basis's minimum, accuracy margin for the metric density (the Gram is
    exact from L + 1). Doubling it moved no eigenvalue by more than 1.4e-12
    relative on the round, p-norm, max and interpolated metrics at L = 16,
    32 and 64. The spectrum cache key names it."""
    return 2 * L + 2


def build_basis(L: int) -> SpectralBasis:
    """Basis with its quadrature of ``colatitude_nodes(L)`` nodes per panel."""
    return SpectralBasis(L, build_quadrature(colatitude_nodes(L)))


def stiffness(L: int, m: int) -> np.ndarray:
    """Diagonal of the Dirichlet-form block K_m: ell (ell + 1) for ell = m..L.

    The Dirichlet form of a conformal metric is the round sphere's, and the
    basis harmonics are eigenfunctions of the round Laplacian orthonormal
    for the round probability measure, so every block is diagonal whatever
    the metric. The first entry of K_0 is the constant's zero energy.
    """
    ell = np.arange(m, L + 1, dtype=float)
    return ell * (ell + 1.0)


def weighted_grams(basis: SpectralBasis, rows: np.ndarray) -> Iterator[np.ndarray]:
    """Gram blocks of the basis under K radial node-weight rows, m = 0..L.

    ``rows`` has shape (K, n_theta). Block m is the (K, L+1-m, L+1-m) stack
    of the rows' Grams (P w_k) P^T, symmetrized, all from one Legendre block
    P of that m, built when it is asked for. Each Gram is its own product,
    so a block is bitwise the same in any stack.
    """
    for P in legendre_blocks(basis.L, basis.quad.x):
        out = np.empty((len(rows), P.shape[0], P.shape[0]))
        for k, w in enumerate(rows):
            blk = (P * w[None, :]) @ P.T
            out[k] = 0.5 * (blk + blk.T)
        yield out


def _node_ratio(basis: SpectralBasis, metric: ConformalMetric) -> np.ndarray:
    """Density ratio ``lambda(z) (1+|z|^2)^2`` on the colatitude nodes, inf on overflow."""
    r = basis.quad.radii_theta
    log_ratio = metric.log_density(r) + 2.0 * np.log1p(r * r)
    with np.errstate(over="ignore"):
        return np.exp(log_ratio)


def mass_weights(basis: SpectralBasis, metric: ConformalMetric) -> np.ndarray:
    """Node weights of the metric area form: quadrature weight x density ratio.

    Raises InvalidMetricError if the density ratio is nonpositive or
    non-finite on a node.
    """
    ratio = _node_ratio(basis, metric)
    if not np.all(np.isfinite(ratio)) or ratio.min() <= 0.0:
        raise InvalidMetricError(
            f"metric {metric.id!r} has a nonpositive or non-finite density "
            "ratio on the quadrature nodes"
        )
    return basis.quad.weights_theta * ratio


def variation_weights(basis: SpectralBasis, metric: ConformalMetric, dlog) -> np.ndarray:
    """Node weights of the mass's parameter derivative along a metric family.

    Differentiating the area form in the family parameter multiplies the
    mass integrand by ``d log lambda / du``; ``dlog`` holds its values on
    the colatitude nodes, as `metrics.d_log_density_du` gives them for the
    family the metric lies on. The Gram blocks of these weights are
    symmetric but indefinite in general, and identically zero at the
    family's exact members where the blend is stationary. Raises
    InvalidMetricError if the variation is non-finite on a node.
    """
    if not np.all(np.isfinite(dlog)):
        raise InvalidMetricError(
            f"metric {metric.id!r} has a non-finite density variation on "
            "the quadrature nodes"
        )
    return basis.quad.weights_theta * _node_ratio(basis, metric) * dlog


def masses(
    basis: SpectralBasis, metrics: Sequence[ConformalMetric]
) -> Iterator[np.ndarray]:
    """Mass blocks of a family, m = 0..L: block m stacks M_m of every metric.

    Every density ratio is checked here, in the order given, before the
    first block is built.
    """
    return weighted_grams(basis, np.stack([mass_weights(basis, g) for g in metrics]))

