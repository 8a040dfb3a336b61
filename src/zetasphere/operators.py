"""Finite-dimensional trace-ideal utilities in a weighted inner product.

All norms here are taken against an explicit Gram matrix G = R^T R: the
singular values of an operator A on the weighted space equal the ordinary
singular values of R A R^{-1}. This is what connects matrix computations on
basis coefficients to statements about the operator on the function space.
A block-diagonal operator, given as its blocks with one inner product per
block, has the largest of the block norms as its norm; `block_operator_norms`
takes the norms of several such operators at once, one stacked SVD per
block. The Gram pencil of `equivalence_bounds` is solved by
`eigensolve.pencil_eigvalsh`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .eigensolve import pencil_eigvalsh
from .errors import DomainError

__all__ = [
    "InnerProduct",
    "singular_values",
    "trace_norm",
    "operator_norm",
    "block_operator_norms",
    "block_operator_norm",
    "lidskii_defect",
    "equivalence_bounds",
]


class InnerProduct(NamedTuple):
    """A positive Gram matrix with its upper-triangular Cholesky factor."""

    gram: np.ndarray
    factor: np.ndarray  # upper triangular R with G = R^T R

    @classmethod
    def from_gram(cls, G: np.ndarray) -> "InnerProduct":
        G = np.asarray(G, dtype=float)
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as e:
            raise DomainError("inner product Gram matrix is not positive definite") from e
        return cls(G, L.T.copy())

    def to_orthonormal_frame(self, A: np.ndarray) -> np.ndarray:
        """R A R^{-1}: the same operator written in an orthonormal basis.

        A may be a stack (..., n, n); each matrix is mapped as it is alone.
        """
        R = self.factor
        return np.swapaxes(np.linalg.solve(R.T, np.swapaxes(R @ A, -1, -2)), -1, -2)

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(v @ (self.gram @ v)))


def singular_values(A: np.ndarray, ip: InnerProduct) -> np.ndarray:
    """Singular values of A in the weighted space, descending; per matrix
    along the last axis for a stack A."""
    return np.linalg.svd(ip.to_orthonormal_frame(A), compute_uv=False)


def trace_norm(A: np.ndarray, ip: InnerProduct) -> float:
    return float(singular_values(A, ip).sum())


def operator_norm(A: np.ndarray, ip: InnerProduct) -> float:
    sv = singular_values(A, ip)
    return float(sv[0]) if sv.size else 0.0


def block_operator_norms(stacks, ips) -> np.ndarray:
    """Operator norms of K block-diagonal operators: each the max of its block norms.

    ``stacks[m]`` is the (K, k_m, k_m) stack of the operators' blocks m and
    ``ips[m]`` the inner product on their rows; the blocks are orthogonal to
    each other in the full Gram matrix. One stacked solve and SVD per m
    serves all K operators, each bitwise as it would be alone.
    """
    return np.max(
        [singular_values(A, ip)[:, 0] for A, ip in zip(stacks, ips, strict=True)], axis=0
    )


def block_operator_norm(blocks, ips) -> float:
    """Operator norm of one block-diagonal operator, given by its blocks: the
    one-operator case of `block_operator_norms`."""
    return float(block_operator_norms([A[None] for A in blocks], ips)[0])


def lidskii_defect(A: np.ndarray) -> float:
    """|trace(A) - sum of eigenvalues|, a similarity-invariant consistency check."""
    return float(abs(np.trace(A) - np.linalg.eigvals(A).sum()))


class EquivalenceReport(NamedTuple):
    """Two-sided comparison of trace norms under a change of inner product."""

    kappa_min: float
    kappa_max: float
    lower: float
    upper: float
    ratio: float

    @property
    def consistent(self) -> bool:
        slack = 1e-12 * max(1.0, self.upper)
        return (self.lower - slack) <= self.ratio <= (self.upper + slack)


def equivalence_bounds(A: np.ndarray, ip1: InnerProduct, ip2: InnerProduct) -> EquivalenceReport:
    """Bound trace_norm(A, ip2) / trace_norm(A, ip1) by the Gram pencil range.

    If c_min, c_max are the extreme generalized eigenvalues of (G2, G1) then
    the ratio of the two trace norms lies in
    [sqrt(c_min / c_max), sqrt(c_max / c_min)].
    """
    kappas = pencil_eigvalsh(ip2.gram, ip1.gram)
    k_min, k_max = float(kappas[0]), float(kappas[-1])
    if k_min <= 0.0:
        raise DomainError("Gram pencil is not positive definite")
    lower = np.sqrt(k_min / k_max)
    upper = np.sqrt(k_max / k_min)
    t1 = trace_norm(A, ip1)
    t2 = trace_norm(A, ip2)
    return EquivalenceReport(k_min, k_max, float(lower), float(upper), t2 / t1)

