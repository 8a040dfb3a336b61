"""Generalized symmetric eigensolve of the block stiffness/mass pencil.

The stiffness block is D_m = diag(ell (ell + 1)) in closed form
(`discretize.stiffness`), so each azimuthal block is solved as its inverse
pencil: with A_m = M_m / vol, vol = M_0[0, 0] (which keeps the solve at unit
scale for any scaled metric), the symmetric D_m^-1/2 A_m D_m^-1/2 has the
eigenvalues mu, and the pencil has 1 / (vol mu). Block m = 0 first splits off
the constant, e_0 / sqrt(vol) with the eigenvalue exactly 0.0; its other rows
solve with the Schur complement of A_0 on the constant. No kernel is snapped.

`family_eigvals` is the one solve entry. It solves a family of K pencils
together, m = 0..L: it takes per m the (K, n, n) stack of the members' M_m
(`discretize.masses`), scales it and takes the Schur step elementwise, and
makes one stacked LAPACK call per m. numpy's linalg gufuncs run the same
routine once per matrix, so every member's values are bitwise those of its
own solve, and a failed check names the member and m. Each stack is read
once and dropped, and the solve returns one `Spectrum` per member, the one
record of a solved pencil. One metric is a family of one.

A check that needs more than the eigenvalues hands the solve a reducer.
Then each m is solved with ``eigh`` (eigenvectors W), and the reducer gets
that m's mass stack, block values and M_m-orthonormal vectors
D_m^-1/2 W (vol mu)^-1/2 before the next m is built; nothing of the block
is kept. A radial operator never couples two azimuthal indices, so a
function of the operator stays per block (`block_function`), and no n x n
matrix is formed.

The Galerkin spaces are nested: the pencil at L' < L is the leading
(L' + 1 - m) sub-block of each block, and the scaling and the Schur step
commute with taking it. So every solve also takes the values of those
sub-blocks at L' = `nested_degree`, a coarser spectrum for free.

A block with m >= 1 counts twice (cos and sin copies); a stable sort merges
the values of all copies, which keeps the order deterministic and the
degeneracy exact.

Operator norms are taken in the mass inner product, with the same Cholesky
step: for a Gram matrix G = R^T R, `singular_values` gives the weighted
singular values of A as the ordinary ones of R A R^-1, each matrix of a
stack bitwise as it would be alone. A block-diagonal operator has the
largest of its block norms as its norm, which a `BlockMax` reducer keeps as
the solve hands the blocks over.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

import numpy as np

from .discretize import stiffness
from .errors import DomainError, EigenConvergenceError, IndefiniteMassError

__all__ = [
    "Spectrum",
    "BlockMax",
    "block_function",
    "singular_values",
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
    eigenvalues.

    ``eigenvalues`` holds every block copy merged in ascending order;
    ``eigenvalues[0]`` is exactly 0.0, the constant's, and every other
    eigenvalue is positive. ``volume`` is the mass of the constant,
    ``M_0[0, 0]``. ``nested`` holds, merged the same way, the eigenvalues
    of the nested pencil at degree `nested_degree`. The stiffness side is
    ``stiffness(L, m)`` for every metric.
    """

    metric_id: str
    L: int
    eigenvalues: np.ndarray
    volume: float
    nested: np.ndarray

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])


def block_function(lam: np.ndarray, V: np.ndarray, M: np.ndarray, f) -> np.ndarray:
    """Block m of f(operator) in the basis: V diag(f(lam)) V^T M.

    ``lam``, ``V`` and ``M`` are one block's values, M-orthonormal vectors
    and mass block, or stacks of them as a reducer gets them; each block of
    a stack is computed as it would be alone. The cos and sin copies of a
    block share it.
    """
    f_lam = np.asarray(f(lam), dtype=float)[..., None, :]
    return (V * f_lam) @ (np.swapaxes(V, -1, -2) @ M)


def singular_values(A: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Singular values of A in the inner product of ``gram``, descending.

    With the Cholesky factor gram = R^T R they are the ordinary singular
    values of R A R^-1, the operator written in an orthonormal frame. A may
    be a stack (..., n, n) against one Gram matrix or a stack that
    broadcasts with it; each matrix is mapped as it would be alone.

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


class BlockMax:
    """A reducer that keeps the running maximum over m of ``norms(m, M, lam, V)``,
    one block's norms, an array of the same shape at every m. The maximum is
    exact, so ``value`` is bitwise the largest block norm of each entry, as
    if every block were held at once."""

    def __init__(self, norms: Callable[..., np.ndarray]):
        self.norms = norms
        self.value = None

    def __call__(self, m: int, M: np.ndarray, lam: np.ndarray, V: np.ndarray) -> None:
        x = self.norms(m, M, lam, V)
        self.value = x if self.value is None else np.maximum(self.value, x)


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
    stacks: Iterable[np.ndarray], L: int, metric_ids: Sequence[str], reduce: Callable | None
) -> tuple[list[list[np.ndarray]], list[np.ndarray], np.ndarray]:
    """Solve the inverse pencils of a family block by block, m = 0..L in order.

    The one block routine. ``stacks`` yields, per m, the (K, L+1-m, L+1-m)
    stack of the members' mass blocks M_m, K = len(metric_ids). Per member
    it returns the values of each block in ascending order, the merged
    eigenvalues of the nested pencil at degree `nested_degree` (``eigvalsh``
    of the leading sub-block of each scaled block), and the volumes
    M_0[0, 0]. Each stack is read once, so a caller may hand in stacks that
    are built as they are asked for and dropped after. With ``reduce``, each
    m is solved with ``eigh`` and the reducer gets the stack, the (K, n)
    block values and the (K, n, n) M_m-orthonormal vectors before the next
    m; without, ``eigvalsh`` takes the values alone. The scaling, the Schur
    step and the checks act on the whole stack elementwise, and one stacked
    call per m runs LAPACK once per member, so every member's values and
    vectors are bitwise those of its own solve. A failed check names the
    member and m; the first m that fails wins, then the first member.
    """
    K = len(metric_ids)
    vectors = reduce is not None
    values = [[] for _ in range(K)]
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
        if m == 0:
            lam = np.concatenate((np.zeros((K, 1)), lam), axis=1)
            lam_sub = np.concatenate((np.zeros((K, 1)), lam_sub), axis=1)
        for k in range(K):
            values[k].append(lam[k])
            nested[k].append(lam_sub[k])
        if not vectors:
            continue
        V = s[:, None] * W[:, :, ::-1] / np.sqrt(vol[:, None] * mu)[:, None, :]
        if m == 0:  # the constant e_0 / sqrt(vol) first, the Schur vectors lifted
            V = np.stack([
                np.block([
                    [np.full((1, 1), 1.0 / np.sqrt(vol[k])), -(head[k] @ V[k])],
                    [np.zeros((V.shape[1], 1)), V[k]],
                ])
                for k in range(K)
            ])
        del A, S, W  # the reducer's blocks are the only ones held while it runs
        reduce(m, M, lam, V)
    return values, [_merged(v) for v in nested], vol


def _merged(values: list[np.ndarray]) -> np.ndarray:
    """Every block copy's values in one ascending array, by a stable sort."""
    copies = [values[0]] + [v for v in values[1:] for _ in ("cos", "sin")]
    return np.sort(np.concatenate(copies), kind="stable")


def family_eigvals(
    mass_stacks: Iterable[np.ndarray],
    L: int,
    metric_ids: Sequence[str],
    reduce: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> tuple[Spectrum, ...]:
    """The spectra of a family's pencils K v = lambda M v, solved together.

    ``mass_stacks`` yields per m the stack of the members' M_m
    (``discretize.masses``); the stacks are solved one m at a time in the
    order given, so stacks built on demand are each dropped once solved.
    Without ``reduce`` each m is solved for its values alone
    (``eigvalsh``). With it each m is solved with its eigenvectors
    (``eigh``), and ``reduce(m, M, lam, V)`` gets the mass stack M, the
    (K, n) block values lam, the kernel's 0.0 first at m = 0, and the
    (K, n, n) M_m-orthonormal vectors V, each member's bitwise those of a
    one-member solve; the reducer keeps what it needs of them. Either way
    each member's `Spectrum` holds its eigenvalues, volume and nested
    eigenvalues.

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
    values, nested, vol = _solve_stacks(mass_stacks, L, metric_ids, reduce)
    return tuple(
        Spectrum(mid, L, _merged(v), float(x), nv)
        for v, mid, x, nv in zip(values, metric_ids, vol, nested)
    )
