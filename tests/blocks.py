"""Test-side reducer: the blocks that the package's solve hands over, kept.

The package solves one azimuthal block m at a time and keeps none of its
vectors or mass blocks. The dense oracles of the tests need every block, so
`solve_blocks` runs the package's one solve entry, `family_eigvals`, with a
reducer that collects, per member, each block's values, M_m-orthonormal
vectors and mass block. `apply_function` builds the blocks of f(operator)
from them with the package's per-block helper, and `block_operator_norms`
takes the operator norms of operators whose blocks are all at hand.
"""

from typing import NamedTuple

import numpy as np

from zetasphere.discretize import build_basis, masses
from zetasphere.eigensolve import block_function, family_eigvals, singular_values


class Solved(NamedTuple):
    """A solved pencil's `Spectrum` fields, then the blocks its solve handed
    over, m = 0..L: each block's values, M_m-orthonormal vectors and mass
    block."""

    metric_id: str
    L: int
    eigenvalues: np.ndarray
    volume: float
    nested: np.ndarray
    block_values: tuple[np.ndarray, ...]
    block_vectors: tuple[np.ndarray, ...]
    mass_blocks: tuple[np.ndarray, ...]

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])


def solve_stacks(stacks, L: int, metric_ids) -> tuple[Solved, ...]:
    """Solve a family's mass stacks with a reducer that keeps every block."""
    kept = []
    spectra = family_eigvals(stacks, L, metric_ids, lambda m, M, lam, V: kept.append((M, lam, V)))
    return tuple(
        Solved(
            *spectrum,
            tuple(lam[k] for _, lam, _ in kept),
            tuple(V[k] for _, _, V in kept),
            tuple(M[k] for M, _, _ in kept),
        )
        for k, spectrum in enumerate(spectra)
    )


def solve_blocks(metrics, L: int) -> tuple[Solved, ...]:
    """The metrics' pencils at degree L, solved together on one basis, blocks kept."""
    return solve_stacks(masses(build_basis(L), metrics), L, [g.id for g in metrics])


def apply_function(solved: Solved, f) -> tuple[np.ndarray, ...]:
    """Blocks of f(operator): V_m diag(f(lambda_m)) V_m^T M_m per m."""
    return tuple(
        block_function(lam, V, M, f)
        for lam, V, M in zip(solved.block_values, solved.block_vectors, solved.mass_blocks)
    )


def block_operator_norms(stacks, grams) -> np.ndarray:
    """Operator norms of K block-diagonal operators held at once: each the
    largest of its block norms. ``stacks[m]`` is the (K, k_m, k_m) stack of
    the operators' blocks m, ``grams[m]`` the mass block M_m or a stack of K
    of them; one stacked solve and SVD per m serves all K operators."""
    return np.max(
        [singular_values(A, G)[:, 0] for A, G in zip(stacks, grams, strict=True)], axis=0
    )
