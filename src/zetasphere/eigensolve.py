"""Generalized symmetric eigensolve of the block stiffness/mass pencil.

The stiffness block is D_m = diag(ell (ell + 1)) in closed form
(`discretize.stiffness`), so each azimuthal block is solved as its inverse
pencil: with A_m = M_m / vol, vol = M_0[0, 0] (which keeps the solve at unit
scale for any scaled metric), the symmetric D_m^-1/2 A_m D_m^-1/2 has the
eigenvalues mu, and the pencil has 1 / (vol mu). Block m = 0 first splits off
the constant, e_0 / sqrt(vol) with the eigenvalue exactly 0.0; its other rows
solve with the Schur complement of A_0 on the constant. No kernel is snapped.

One block routine serves two paths, and both take the mass blocks M_0..M_L,
the degree L and the metric id. `generalized_eigvals` takes the values alone
(``eigvalsh``) from blocks handed in one at a time, so the scalar commands
build, solve and drop each M_m in turn. `generalized_eigs` keeps the mass
blocks in its `Spectrum` and takes the vectors too (``eigh``, eigenvectors
W): D_m^-1/2 W (vol mu)^-1/2, M_m-orthonormal, which the operator and
harness checks read.

A block with m >= 1 counts twice (cos and sin copies); a stable sort merges
the values of all copies, which keeps the order deterministic and the
degeneracy exact. Eigenvectors and functions of the operator
(`apply_function`) stay per block, since a radial operator never couples
two azimuthal indices; no n x n matrix is formed. `pencil_eigvalsh` gives the
eigenvalues of the general symmetric-definite Gram pencils of the operators
and harness modules.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .discretize import Blocks, stiffness
from .errors import (
    DomainError,
    EigenConvergenceError,
    IndefiniteMassError,
    InvalidMetricError,
)

__all__ = [
    "Spectrum",
    "pencil_eigvalsh",
    "generalized_eigs",
    "generalized_eigvals",
    "resolvent",
    "apply_function",
]

SOLVER_VERSION = "blocks-6"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one pencil, with its mass blocks M_m and M_m-orthonormal
    eigenvectors per block, m = 0..L.

    ``eigenvalues`` holds every block copy merged in ascending order;
    ``eigenvalues[0]`` is exactly 0.0, the constant's, and every other
    eigenvalue is positive. The stiffness side is ``stiffness(L, m)`` for
    every metric.
    """

    eigenvalues: np.ndarray
    block_values: Blocks
    block_vectors: Blocks
    mass_blocks: Blocks = field(repr=False)
    metric_id: str
    L: int

    @property
    def volume(self) -> float:
        """Metric volume: the mass of the constant, ``M_0[0, 0]``."""
        return float(self.mass_blocks[0][0, 0])

    @property
    def positive(self) -> np.ndarray:
        return self.eigenvalues[1:]

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])


def pencil_eigvalsh(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of A v = lambda B v, A symmetric, B positive definite.

    With B = C C^T, the pencil has the eigenvalues of the symmetric matrix
    C^-1 A C^-T.

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
    return np.linalg.eigvalsh(Ci @ A @ Ci.T)


def _solve_blocks(
    blocks: Iterable[np.ndarray], L: int, metric_id: str, vectors: bool
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Solve the inverse pencil block by block, m = 0..L in the order given.

    The one block routine of both paths: per block the values in ascending
    order and, with ``vectors``, the M_m-orthonormal vectors (an empty list
    without). Each block is read once, so a caller may hand in blocks that
    are built as they are asked for and dropped after. Also returns the
    volume M_0[0, 0].
    """
    values, vecs, vol = [], [], 0.0
    for m, M in enumerate(blocks):
        where = f"block m = {m} of {metric_id!r}"
        if not (np.all(np.isfinite(M)) and M[0, 0] > 0.0):
            raise IndefiniteMassError(f"mass {where} is not positive definite")
        if m == 0:
            vol = float(M[0, 0])
        A, d = M / vol, stiffness(L, m)
        if m == 0:  # A[0, 0] == 1: the Schur complement on the constant
            head = A[:1, 1:]
            A, d = A[1:, 1:] - head.T @ head, d[1:]
        s = 1.0 / np.sqrt(d)
        S = s[:, None] * A * s[None, :]
        try:
            mu, W = np.linalg.eigh(S) if vectors else (np.linalg.eigvalsh(S), None)
        except np.linalg.LinAlgError as e:
            raise EigenConvergenceError(f"no convergence on {where} ({e})", stuck_index=m) from e
        if not np.all(mu > 0.0):
            raise IndefiniteMassError(f"mass {where} is not positive definite")
        mu = mu[::-1]  # ascending lambda = 1 / (vol mu)
        with np.errstate(over="ignore", divide="ignore"):
            lam = 1.0 / (vol * mu)
        if not np.all(np.isfinite(lam)):
            raise DomainError(
                f"eigenvalues of {where} overflow: 1 / (vol mu) is not finite "
                f"at volume {vol:.3g}"
            )
        if m == 0:
            lam = np.concatenate(([0.0], lam))
        values.append(lam)
        if vectors:
            V = s[:, None] * W[:, ::-1] / np.sqrt(vol * mu)[None, :]
            if m == 0:
                V = np.block([[np.full((1, 1), 1.0 / np.sqrt(vol)), -(head @ V)],
                              [np.zeros((V.shape[0], 1)), V]])
            vecs.append(V)
    return values, vecs, vol


def _merged(values: list[np.ndarray]) -> np.ndarray:
    """Every block copy's values in one ascending array, by a stable sort."""
    copies = [values[0]] + [v for v in values[1:] for _ in ("cos", "sin")]
    return np.sort(np.concatenate(copies), kind="stable")


def generalized_eigs(
    mass_blocks: Iterable[np.ndarray], L: int, metric_id: str
) -> Spectrum:
    """All eigenvalues of K v = lambda M v, ascending, through the inverse pencil,
    with the M_m-orthonormal eigenvectors of every block; the spectrum keeps
    the mass blocks M_0..M_L.

    Raises
    ------
    IndefiniteMassError
        If a mass block M_m is not positive definite; the message names m.
        That is a non-finite M_m, M_m[0, 0] <= 0 or, by Sylvester's law of
        inertia, a nonpositive mu.
    EigenConvergenceError
        If the symmetric solve fails on a block; ``stuck_index`` is its m.
    DomainError
        If an eigenvalue 1 / (vol mu) of a block overflows, as it does for a
        metric scaled to a volume near the float minimum; the message names m.
    """
    blocks = tuple(mass_blocks)
    values, vectors, _ = _solve_blocks(blocks, L, metric_id, True)
    return Spectrum(_merged(values), tuple(values), tuple(vectors), blocks, metric_id, L)


def generalized_eigvals(
    mass_blocks: Iterable[np.ndarray], L: int, metric_id: str
) -> tuple[np.ndarray, float]:
    """Eigenvalues and volume of the pencil with mass blocks M_0..M_L, values only.

    The blocks are solved one at a time in the order given (``eigvalsh``, no
    eigenvectors), so blocks that ``discretize.mass`` builds on demand are
    each dropped once solved. Same checks and errors as `generalized_eigs`.
    """
    values, _, vol = _solve_blocks(mass_blocks, L, metric_id, False)
    return _merged(values), vol


def apply_function(spectrum: Spectrum, f) -> Blocks:
    """Blocks of f(operator) in the basis: V_m diag(f(lambda_m)) V_m^T M_m per m.

    The cos and sin copies of a block share it.
    """
    return tuple(
        (V * np.asarray(f(lam), dtype=float)[None, :]) @ (V.T @ M)
        for lam, V, M in zip(
            spectrum.block_values, spectrum.block_vectors, spectrum.mass_blocks
        )
    )


def resolvent(spectrum: Spectrum, shift: float = 1.0) -> Blocks:
    """Blocks of (shift + operator)^(-1) acting on basis coefficients."""
    if shift <= 0.0:
        raise InvalidMetricError(f"resolvent shift must be positive, got {shift}")
    return apply_function(spectrum, lambda lam: 1.0 / (shift + lam))
