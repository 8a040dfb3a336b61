"""Generalized symmetric eigensolve of the block stiffness/mass pencil.

The stiffness block is D_m = diag(ell (ell + 1)) in closed form
(`discretize.stiffness`), so each azimuthal block is solved as its inverse
pencil: with A_m = M_m / vol, vol = M_0[0, 0] (which keeps the solve at unit
scale for any scaled metric), the symmetric D_m^-1/2 A_m D_m^-1/2 has the
eigenvalues mu, and the pencil has 1 / (vol mu). Block m = 0 first splits off
the constant, e_0 / sqrt(vol) with the eigenvalue exactly 0.0; its other rows
solve with the Schur complement of A_0 on the constant. No kernel is snapped.

One block routine solves a family of K pencils together, m = 0..L: it takes
per m the (K, n, n) stack of the members' M_m (`discretize.masses`), the
degree L and the metric ids, scales the stack and takes the Schur step
elementwise, and makes one stacked LAPACK call per m. numpy's linalg
gufuncs run the same routine once per matrix, so every member's values and
vectors are bitwise those of its own solve, and a failed check names the
member and m. It serves two paths, and each returns one `Spectrum` per
member, the one record of a solved pencil. `family_eigvals` takes the
values alone (``eigvalsh``) from stacks handed in one at a time, so the
scalar commands build, solve and drop each stack in turn; its records have
empty block fields. `family_eigs` keeps the mass blocks in each record and
takes the vectors too (``eigh``, eigenvectors W): D_m^-1/2 W (vol mu)^-1/2,
M_m-orthonormal, which the operator and harness checks read. One metric is
a family of one: its stack per m is the (1, n, n) stack of its own M_m.

The Galerkin spaces are nested: the pencil at L' < L is the leading
(L' + 1 - m) sub-block of each block, and the scaling and the Schur step
commute with taking it. So every solve also takes the values of those
sub-blocks at L' = `nested_degree`, a coarser spectrum for free.

A block with m >= 1 counts twice (cos and sin copies); a stable sort merges
the values of all copies, which keeps the order deterministic and the
degeneracy exact. Eigenvectors, and a function of the operator, stay per
block, since a radial operator never couples two azimuthal indices; no
n x n matrix is formed. `apply_function` is the one path to f(operator):
the resolvent, the heat operator and every other function the harness
reads are f handed to it.

Operator norms are taken in the mass inner product, with the same Cholesky
step: for a Gram matrix G = R^T R, `singular_values` gives the weighted
singular values of A as the ordinary ones of R A R^-1. A block-diagonal
operator has the largest of its block norms as its norm, and
`block_operator_norms` takes those of a stack of operators at once, one
stacked SVD per block m, each in one shared inner product or in its own,
and each norm bitwise that of its operator alone. It is the one norm
kernel: the harness measures with it resolvents and heat operators
converging in operator norm, the residual of the Duhamel identity, and the
M-norm of M^-1 dM, an M-self-adjoint operator whose norm is the spectral
radius of the Gram pencil (dM, M), so no pencil eigenvalues are taken.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from .discretize import Blocks, stiffness
from .errors import DomainError, EigenConvergenceError, IndefiniteMassError

__all__ = [
    "Spectrum",
    "apply_function",
    "singular_values",
    "block_operator_norms",
    "family_eigs",
    "family_eigvals",
    "nested_degree",
]

SOLVER_VERSION = "blocks-7"

_INDEFINITE = "mass {where} is not positive definite"


def nested_degree(L: int) -> int:
    """Degree L' = floor(7L/8) of the nested pencil every solve also takes."""
    return 7 * L // 8


class Spectrum(NamedTuple):
    """The one record of a solved pencil: its eigenvalues, volume and nested
    eigenvalues, with its mass blocks M_m and M_m-orthonormal eigenvectors
    per block, m = 0..L, where the solve kept them.

    ``eigenvalues`` holds every block copy merged in ascending order;
    ``eigenvalues[0]`` is exactly 0.0, the constant's, and every other
    eigenvalue is positive. ``volume`` is the mass of the constant,
    ``M_0[0, 0]``. ``nested`` holds, merged the same way, the eigenvalues
    of the nested pencil at degree `nested_degree`. `family_eigs` fills the
    block fields; `family_eigvals` and a cache hit leave them empty. The
    stiffness side is ``stiffness(L, m)`` for every metric.
    """

    metric_id: str
    L: int
    eigenvalues: np.ndarray
    volume: float
    nested: np.ndarray
    block_values: Blocks = ()
    block_vectors: Blocks = ()
    mass_blocks: Blocks = ()

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])


def singular_values(A: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Singular values of A in the inner product of ``gram``, descending.

    With the Cholesky factor gram = R^T R they are the ordinary singular
    values of R A R^-1, the operator written in an orthonormal frame. A may
    be a stack (..., n, n) against the one Gram matrix or against a stack
    of as many; each matrix of the stack is mapped as it would be alone.

    Raises
    ------
    DomainError
        If ``gram`` is not positive definite.
    """
    try:
        C = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as e:
        raise DomainError("inner product Gram matrix is not positive definite") from e
    R = np.swapaxes(C, -1, -2).copy()
    frame = np.swapaxes(np.linalg.solve(C, np.swapaxes(R @ A, -1, -2)), -1, -2)
    return np.linalg.svd(frame, compute_uv=False)


def block_operator_norms(stacks: Sequence[np.ndarray], grams: Blocks) -> np.ndarray:
    """Operator norms of K block-diagonal operators: each the max of its block norms.

    ``stacks[m]`` is the (K, k_m, k_m) stack of the operators' blocks m and
    ``grams[m]`` the mass block M_m, the inner product on their rows, or a
    stack of K of them, one per operator; the blocks are orthogonal to each
    other in the full Gram matrix. One stacked
    solve and SVD per m serves all K operators, each bitwise as it would be
    alone (one operator is a stack of one).
    """
    return np.max(
        [singular_values(A, G)[:, 0] for A, G in zip(stacks, grams, strict=True)], axis=0
    )


def _refuse(ok: np.ndarray, m: int, metric_ids: Sequence[str], vol: np.ndarray,
            exc: type[Exception], message: str) -> None:
    """Raise ``exc`` for the first member whose entry of ``ok`` is False at
    block m; ``message`` may name ``{where}`` and the member's ``{vol}``."""
    if not ok.all():
        k = int(np.argmin(ok))
        where = f"block m = {m} of {metric_ids[k]!r}"
        raise exc(message.format(where=where, vol=vol[k]))


def _stuck_member(S: np.ndarray, m: int, metric_ids: Sequence[str], vectors: bool, err):
    """The error of a stacked solve that did not converge, naming its member.

    Only reached once the stacked call has failed: block m is solved again
    one member at a time, and the first member whose solve fails is named
    (all of them if none fails alone).
    """
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    where = ", ".join(repr(i) for i in metric_ids)
    for metric_id, S_k in zip(metric_ids, S):
        try:
            solve(S_k)
        except np.linalg.LinAlgError as e:
            where, err = repr(metric_id), e
            break
    return EigenConvergenceError(f"no convergence on block m = {m} of {where} ({err})")


def _solve_stacks(
    stacks: Iterable[np.ndarray], L: int, metric_ids: Sequence[str], vectors: bool
) -> tuple[list[list[np.ndarray]], list[list[np.ndarray]], list[np.ndarray], np.ndarray]:
    """Solve the inverse pencils of a family block by block, m = 0..L in order.

    The one block routine of every path. ``stacks`` yields, per m, the
    (K, L+1-m, L+1-m) stack of the members' mass blocks M_m, K =
    len(metric_ids). Per member it returns the values of each block in
    ascending order and, with ``vectors``, the M_m-orthonormal vectors
    (empty lists without), the merged eigenvalues of the nested pencil at
    degree `nested_degree` (``eigvalsh`` of the leading sub-block of each
    scaled block), and the volumes M_0[0, 0]. Each stack is read
    once, so a caller may hand in stacks that are built as they are asked
    for and dropped after. The scaling, the Schur step and the checks act on
    the whole stack elementwise, and one stacked ``eigh``/``eigvalsh`` per m
    runs LAPACK once per member, so every member's values and vectors are
    bitwise those of its own solve. A failed check names the member and m;
    the first m that fails wins, then the first member.
    """
    K = len(metric_ids)
    values = [[] for _ in range(K)]
    vecs = [[] for _ in range(K)]
    nested = [[] for _ in range(K)]
    sub = nested_degree(L) + 1
    vol = np.zeros(K)
    for m, M in enumerate(stacks):
        _refuse(np.isfinite(M).all(axis=(1, 2)) & (M[:, 0, 0] > 0.0),
                m, metric_ids, vol, IndefiniteMassError, _INDEFINITE)
        if m == 0:
            vol = M[:, 0, 0].copy()
        A, d = M / vol[:, None, None], stiffness(L, m)
        if m == 0:  # A[k, 0, 0] == 1: the Schur complement on the constant
            head = A[:, :1, 1:]
            A, d = A[:, 1:, 1:] - head.transpose(0, 2, 1) @ head, d[1:]
        s = 1.0 / np.sqrt(d)
        S = s[:, None] * A * s[None, :]
        # the leading block of S at L' (the constant split off at m = 0), empty past L'
        n_sub = max(sub - m - (m == 0), 0)
        try:
            mu, W = np.linalg.eigh(S) if vectors else (np.linalg.eigvalsh(S), None)
            mu_sub = np.linalg.eigvalsh(S[:, :n_sub, :n_sub])
        except np.linalg.LinAlgError as e:
            raise _stuck_member(S, m, metric_ids, vectors, e) from e
        _refuse(np.all(mu > 0.0, axis=1), m, metric_ids, vol, IndefiniteMassError, _INDEFINITE)
        mu = mu[:, ::-1]  # ascending lambda = 1 / (vol mu)
        with np.errstate(over="ignore", divide="ignore"):
            lam = 1.0 / (vol[:, None] * mu)
        _refuse(np.all(np.isfinite(lam), axis=1), m, metric_ids, vol, DomainError,
                "eigenvalues of {where} overflow: 1 / (vol mu) is not finite "
                "at volume {vol:.3g}")
        lam_sub = 1.0 / (vol[:, None] * mu_sub[:, ::-1])
        if vectors:
            V = s[:, None] * W[:, :, ::-1] / np.sqrt(vol[:, None] * mu)[:, None, :]
        for k in range(K):
            values[k].append(np.concatenate(([0.0], lam[k])) if m == 0 else lam[k])
            nested[k].append(np.concatenate(([0.0], lam_sub[k])) if m == 0 else lam_sub[k])
            if not vectors:
                continue
            if m == 0:
                vecs[k].append(np.block([
                    [np.full((1, 1), 1.0 / np.sqrt(vol[k])), -(head[k] @ V[k])],
                    [np.zeros((V.shape[1], 1)), V[k]],
                ]))
            else:
                vecs[k].append(V[k])
    return values, vecs, [_merged(v) for v in nested], vol


def _merged(values: list[np.ndarray]) -> np.ndarray:
    """Every block copy's values in one ascending array, by a stable sort."""
    copies = [values[0]] + [v for v in values[1:] for _ in ("cos", "sin")]
    return np.sort(np.concatenate(copies), kind="stable")


def family_eigs(
    mass_stacks: Iterable[np.ndarray], L: int, metric_ids: Sequence[str]
) -> tuple[Spectrum, ...]:
    """The spectra of a family's pencils K v = lambda M v, solved together.

    ``mass_stacks`` yields per m the stack of the members' M_m
    (``discretize.masses``); each member's `Spectrum` keeps its mass blocks
    and the M_m-orthonormal eigenvectors of every block, bitwise those of a
    one-member solve.

    Raises
    ------
    IndefiniteMassError
        If a mass block M_m is not positive definite; the message names the
        member and m. That is a non-finite M_m, M_m[0, 0] <= 0 or, by
        Sylvester's law of inertia, a nonpositive mu.
    EigenConvergenceError
        If the symmetric solve fails on a block; the message names the
        member and m.
    DomainError
        If an eigenvalue 1 / (vol mu) of a block overflows, as it does for a
        metric scaled to a volume near the float minimum; the message names
        the member and m.
    """
    stacks = tuple(mass_stacks)
    values, vectors, nested, vol = _solve_stacks(stacks, L, metric_ids, True)
    return tuple(
        Spectrum(
            mid, L, _merged(v), float(x), nv, tuple(v), tuple(w), tuple(M[k] for M in stacks)
        )
        for k, (v, w, mid, x, nv) in enumerate(zip(values, vectors, metric_ids, vol, nested))
    )


def family_eigvals(
    mass_stacks: Iterable[np.ndarray], L: int, metric_ids: Sequence[str]
) -> tuple[Spectrum, ...]:
    """The spectra of a family's pencils, values only: each member's
    `Spectrum` with its block fields empty.

    The stacks are solved one m at a time in the order given (``eigvalsh``,
    no eigenvectors), so stacks that ``discretize.masses`` builds on demand
    are each dropped once solved. Same checks and errors as `family_eigs`.
    """
    values, _, nested, vol = _solve_stacks(mass_stacks, L, metric_ids, False)
    return tuple(
        Spectrum(mid, L, _merged(v), float(x), nv)
        for v, mid, x, nv in zip(values, metric_ids, vol, nested)
    )


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
