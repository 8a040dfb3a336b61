"""Real spherical harmonics, orthonormal for the round probability measure.

The basis holds, for ell = 0..L, the zonal function and the (cos, sin)
pairs for m = 1..ell. All theta dependence comes from fully normalized
associated Legendre functions Pbar_{ell m}(x) scaled so that

    integral_{-1}^{1} Pbar_{ell m}(x)^2 dx = 2  for every m >= 0,

which makes Y_{ell 0} = Pbar_{ell 0} and Y_{ell m}^{cos/sin} =
sqrt(2) Pbar_{ell m} (cos|sin)(m phi) an orthonormal family against
sin(theta) dtheta dphi / (4 pi). No Condon-Shortley phase is used.

One node table is kept: Pbar_{ell m}(x), packed per m as the rows
ell = m..L, so none of the zeros with m > ell is stored. The diagonal is
seeded by its chain in m, and the ell-recurrence then runs one step per ell
for every m at once. The theta derivative is derived from the table when it
is needed (`theta_derivative`). No table of Pbar / sin(theta) is kept: in
the plane coordinate r = tan(theta/2) the (1/r) d/dphi amplitude of a
harmonic is m Pbar / r, which the quadrature handles directly.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["legendre_tables", "theta_derivative"]


def legendre_tables(L: int, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Pbar_{ell m} on the nodes ``x``, one block per m = 0..L.

    Block m has shape (L+1-m, len(x)) and holds the rows ell = m..L; the
    blocks are views into one packed ((L+1)(L+2)/2, len(x)) array. ``x``
    must lie strictly inside (-1, 1); the quadrature nodes always do.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("x nodes must be one-dimensional")
    if np.any(np.abs(x) >= 1.0):
        raise DomainError("Legendre tables need nodes interior to (-1, 1)")
    if L < 0:
        raise DomainError("degree bound L must be nonnegative")
    s = np.sqrt(1.0 - x * x)  # sin(theta) > 0
    m = np.arange(L + 1)
    start = m * (L + 1) - m * (m - 1) // 2  # packed row of (ell, m) is start[m] + ell - m
    packed = np.empty((start[-1] + 1, x.size))
    blocks = tuple(packed[a:a + L + 1 - k] for k, a in enumerate(start))

    blocks[0][0] = 1.0
    for k in range(1, L + 1):
        blocks[k][0] = np.sqrt((2.0 * k + 1.0) / (2.0 * k)) * s * blocks[k - 1][0]
    # first off-diagonal ell = m + 1, every m < L at once
    packed[start[:-1] + 1] = (np.sqrt(2.0 * m[:-1] + 3.0)[:, None] * x) * packed[start[:-1]]
    for ell in range(2, L + 1):
        mm = m[:ell - 1]  # every m <= ell - 2 steps at once
        row = start[:ell - 1] + ell - mm
        a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - mm * mm))[:, None]
        b = np.sqrt(((ell - 1.0) ** 2 - mm * mm) / (4.0 * (ell - 1.0) ** 2 - 1.0))[:, None]
        packed[row] = a * (x * packed[row - 1] - b * packed[row - 2])
    return blocks


def theta_derivative(pbar: tuple[np.ndarray, ...], m: int) -> np.ndarray:
    """d/dtheta Pbar_{ell m}(cos theta) for ell = m..L, from the packed table.

    The normalized shift identity

        d/dtheta Pbar_{ell m} =
          ( sqrt((ell+m)(ell-m+1)) Pbar_{ell,m-1}
            - sqrt((ell-m)(ell+m+1)) Pbar_{ell,m+1} ) / 2

    needs the blocks m - 1 and m + 1; Pbar_{ell,m+1} vanishes at ell = m.
    For m = 0 the reflection Pbar_{ell,-1} = -Pbar_{ell,1} leaves
    -sqrt(ell(ell+1)) Pbar_{ell 1}.
    """
    L = len(pbar) - 1
    ell = np.arange(m, L + 1)
    hi = np.zeros_like(pbar[m])
    if m < L:
        hi[1:] = np.sqrt((ell[1:] - m) * (ell[1:] + m + 1.0))[:, None] * pbar[m + 1]
    if m == 0:
        return -hi
    lo = np.sqrt((ell + m) * (ell - m + 1.0))[:, None] * pbar[m - 1][1:]
    return 0.5 * (lo - hi)
