"""Finite-dimensional trace-ideal utilities in a weighted inner product.

All norms here are taken against an explicit Gram matrix G = R^T R: the
singular values of an operator A on the weighted space equal the ordinary
singular values of R A R^{-1}. This is what connects matrix computations on
basis coefficients to statements about the operator on the function space.
A block-diagonal operator, given as its blocks with one inner product per
block, has the largest of the block norms as its norm. The Gram pencil of
`equivalence_bounds` is solved by `eigensolve.pencil_eigh`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import pencil_eigh
from .errors import DomainError

__all__ = [
    "InnerProduct",
    "singular_values",
    "trace_norm",
    "operator_norm",
    "block_operator_norm",
    "lidskii_defect",
    "equivalence_bounds",
    "min_sum_gap",
]


@dataclass(frozen=True)
class InnerProduct:
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
        """R A R^{-1}: the same operator written in an orthonormal basis."""
        R = self.factor
        return np.linalg.solve(R.T, (R @ A).T).T

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(v @ (self.gram @ v)))


def singular_values(A: np.ndarray, ip: InnerProduct) -> np.ndarray:
    """Singular values of A in the weighted space, descending."""
    return np.linalg.svd(ip.to_orthonormal_frame(A), compute_uv=False)


def trace_norm(A: np.ndarray, ip: InnerProduct) -> float:
    return float(singular_values(A, ip).sum())


def operator_norm(A: np.ndarray, ip: InnerProduct) -> float:
    sv = singular_values(A, ip)
    return float(sv[0]) if sv.size else 0.0


def block_operator_norm(blocks, ips) -> float:
    """Operator norm of a block-diagonal operator: the max of its block norms.

    ``ips[m]`` is the inner product on the rows of ``blocks[m]``; the blocks
    are orthogonal to each other in the full Gram matrix.
    """
    return max(operator_norm(A, ip) for A, ip in zip(blocks, ips, strict=True))


def lidskii_defect(A: np.ndarray) -> float:
    """|trace(A) - sum of eigenvalues|, a similarity-invariant consistency check."""
    return float(abs(np.trace(A) - np.linalg.eigvals(A).sum()))


@dataclass(frozen=True)
class EquivalenceReport:
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
    kappas, _ = pencil_eigh(ip2.gram, ip1.gram)
    k_min, k_max = float(kappas[0]), float(kappas[-1])
    if k_min <= 0.0:
        raise DomainError("Gram pencil is not positive definite")
    lower = np.sqrt(k_min / k_max)
    upper = np.sqrt(k_max / k_min)
    t1 = trace_norm(A, ip1)
    t2 = trace_norm(A, ip2)
    return EquivalenceReport(k_min, k_max, float(lower), float(upper), t2 / t1)


def min_sum_gap(rows: np.ndarray) -> tuple[float, float]:
    """(min over rows of the row sum, sum over columns of the column min).

    For nonnegative entries the first is never smaller than the second; this
    is the finite form of the series lower-semicontinuity step used when
    passing traces to a limit.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise DomainError("need a nonempty 2-d array")
    return float(rows.sum(axis=1).min()), float(rows.min(axis=0).sum())
