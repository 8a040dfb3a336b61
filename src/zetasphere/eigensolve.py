"""Generalized symmetric eigensolve of the block stiffness/mass pencil.

`pencil_eigh` solves each azimuthal block (K_m, M_m) on its own with
numpy: a Cholesky factor of M_m reduces the block to a standard symmetric
problem, so a failure names its block m directly. A block with m >= 1
counts twice (cos and sin copies); a stable sort merges the values of all
copies, which keeps the order deterministic and the degeneracy exact. The
lowest value of the m = 0 block belongs to the constants and is snapped to
an exact zero once it passes the relative threshold check. Eigenvectors
stay per block, and so do functions of the operator: `apply_function`
returns one block per m, since a radial operator never couples two
azimuthal indices. No n x n matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import Blocks, OperatorPair
from .errors import EigenConvergenceError, IndefiniteMassError, InvalidMetricError

__all__ = [
    "Spectrum",
    "pencil_eigh",
    "generalized_eigs",
    "resolvent",
    "apply_function",
]

KERNEL_SNAP_REL = 1e-8
SOLVER_VERSION = "blocks-3"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one pencil, with M_m-orthonormal eigenvectors per block.

    ``eigenvalues`` holds every block copy merged in ascending order;
    ``eigenvalues[0]`` is exactly 0.0, and the constants are the whole
    kernel: `generalized_eigs` raises on any other.
    """

    eigenvalues: np.ndarray
    block_values: Blocks
    block_vectors: Blocks
    metric_id: str
    L: int
    pair: OperatorPair = field(repr=False)

    @property
    def positive(self) -> np.ndarray:
        return self.eigenvalues[1:]

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])


def pencil_eigh(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and B-orthonormal eigenvectors of A v = lambda B v.

    With B = C C^T, the pencil has the eigenvalues of the symmetric matrix
    C^-1 A C^-T, whose orthonormal eigenvectors W map back to V = C^-T W.

    Raises
    ------
    ValueError
        If A or B has a non-finite entry.
    numpy.linalg.LinAlgError
        If B is not positive definite or the symmetric solve does not converge.
    """
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("pencil has non-finite entries")
    Ci = np.linalg.inv(np.linalg.cholesky(B))
    lam, W = np.linalg.eigh(Ci @ A @ Ci.T)
    return lam, Ci.T @ W


def generalized_eigs(pair: OperatorPair) -> Spectrum:
    """All eigenvalues of K v = lambda M v, ascending, with kernel snap.

    Raises
    ------
    IndefiniteMassError
        If a mass block M_m is not positive definite; the message names m.
    EigenConvergenceError
        If the eigensolver stalls on a block; ``stuck_index`` is its m.
    InvalidMetricError
        If the bottom of the m = 0 block is not a one-dimensional kernel
        within the relative snap threshold.
    """
    values, vectors = [], []
    for m, (K, M) in enumerate(zip(pair.stiffness_blocks, pair.mass_blocks)):
        try:
            lam, vec = pencil_eigh(K, M)
        except (np.linalg.LinAlgError, ValueError) as e:
            where = f"block m = {m} of {pair.metric_id!r}"
            if not np.all(np.isfinite(M)) or np.linalg.eigvalsh(M)[0] <= 0.0:
                raise IndefiniteMassError(f"mass {where} is not positive definite") from e
            raise EigenConvergenceError(f"no convergence on {where} ({e})", stuck_index=m) from e
        values.append(lam)
        vectors.append(vec)

    lam0 = values[0][0]
    lam1 = np.concatenate([values[0][1:]] + [v[:1] for v in values[1:]]).min()
    if not (lam1 > 0.0) or abs(lam0) > KERNEL_SNAP_REL * lam1:
        raise InvalidMetricError(
            f"pencil of {pair.metric_id!r} has no clean one-dimensional kernel: "
            f"lowest eigenvalues {lam0:.3e}, {lam1:.3e}"
        )
    values[0][0] = 0.0
    copies = [values[0]] + [v for v in values[1:] for _ in ("cos", "sin")]
    eigenvalues = np.sort(np.concatenate(copies), kind="stable")
    return Spectrum(eigenvalues, tuple(values), tuple(vectors), pair.metric_id, pair.L, pair)


def apply_function(spectrum: Spectrum, f) -> Blocks:
    """Blocks of f(operator) in the basis: V_m diag(f(lambda_m)) V_m^T M_m per m.

    The cos and sin copies of a block share it.
    """
    return tuple(
        (V * np.asarray(f(lam), dtype=float)[None, :]) @ (V.T @ M)
        for lam, V, M in zip(
            spectrum.block_values, spectrum.block_vectors, spectrum.pair.mass_blocks
        )
    )


def resolvent(spectrum: Spectrum, shift: float = 1.0) -> Blocks:
    """Blocks of (shift + operator)^(-1) acting on basis coefficients."""
    if shift <= 0.0:
        raise InvalidMetricError(f"resolvent shift must be positive, got {shift}")
    return apply_function(spectrum, lambda lam: 1.0 / (shift + lam))
