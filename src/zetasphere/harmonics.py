"""Real spherical harmonics, orthonormal for the round probability measure.

The basis holds, for ell = 0..L, the zonal function and the (cos, sin)
pairs for m = 1..ell. All theta dependence comes from fully normalized
associated Legendre functions Pbar_{ell m}(x) scaled so that

    integral_{-1}^{1} Pbar_{ell m}(x)^2 dx = 2  for every m >= 0,

which makes Y_{ell 0} = Pbar_{ell 0} and Y_{ell m}^{cos/sin} =
sqrt(2) Pbar_{ell m} (cos|sin)(m phi) an orthonormal family against
sin(theta) dtheta dphi / (4 pi). No Condon-Shortley phase is used.

No table outlives a block: `legendre_blocks` runs the ell-recurrence for one
m at a time and hands out the rows ell = m..L on the nodes, carrying only the
diagonal Pbar_{mm} on to the next m. The mass blocks are the only integrals
taken over them: the harmonics are eigenfunctions of the round Laplacian, so
the Dirichlet form needs no derivative table (`discretize.stiffness`).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DomainError

__all__ = ["legendre_blocks"]


def legendre_blocks(L: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Pbar_{ell m} on the nodes ``x``, one new block per m = 0..L, in order.

    Block m has shape (L+1-m, len(x)) and holds the rows ell = m..L, so none
    of the zeros with m > ell is formed. A caller that drops each block
    before asking for the next keeps one block alive. ``x`` must lie strictly
    inside (-1, 1); the quadrature nodes always do. The arguments are checked
    here, before the first block is built.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("x nodes must be one-dimensional")
    if np.any(np.abs(x) >= 1.0):
        raise DomainError("Legendre tables need nodes interior to (-1, 1)")
    if L < 0:
        raise DomainError("degree bound L must be nonnegative")
    return _blocks(L, x)


def _blocks(L: int, x: np.ndarray) -> Iterator[np.ndarray]:
    s = np.sqrt(1.0 - x * x)  # sin(theta) > 0
    diag = np.ones_like(x)
    for m in range(L + 1):
        if m > 0:
            diag = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * diag
        P = np.empty((L + 1 - m, x.size))
        P[0] = diag
        if m < L:
            P[1] = (np.sqrt(2.0 * m + 3.0) * x) * diag
        ell = np.arange(m + 2, L + 1)
        a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        b = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
        for k, (a_ell, b_ell) in enumerate(zip(a.tolist(), b.tolist()), start=2):
            row = np.multiply(x, P[k - 1], out=P[k])  # a (x P_{ell-1} - b P_{ell-2})
            row -= b_ell * P[k - 2]
            row *= a_ell
        yield P
