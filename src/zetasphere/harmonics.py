"""Real spherical harmonics, orthonormal for the round probability measure.

The basis holds, for ell = 0..L, the zonal function and the (cos, sin)
pairs for m = 1..ell. All theta dependence comes from fully normalized
associated Legendre functions Pbar_{ell m}(x) scaled so that

    integral_{-1}^{1} Pbar_{ell m}(x)^2 dx = 2  for every m >= 0,

which makes Y_{ell 0} = Pbar_{ell 0} and Y_{ell m}^{cos/sin} =
sqrt(2) Pbar_{ell m} (cos|sin)(m phi) an orthonormal family against
sin(theta) dtheta dphi / (4 pi). No Condon-Shortley phase is used.

Three node tables are produced by stable upward recurrences:

* ``pbar``   : Pbar_{ell m}(x)
* ``dpbar``  : d/dtheta Pbar_{ell m}(x(theta))
* ``qbar``   : Pbar_{ell m}(x) / sin(theta) for m >= 1

The qbar table satisfies the same ell-recurrence as pbar (the coefficients
depend on x only), so it is generated directly from a rescaled diagonal seed
instead of dividing by sin(theta), which would be singular at the poles.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["legendre_tables"]


def _diag_coeff(m: int) -> float:
    return np.sqrt((2.0 * m + 1.0) / (2.0 * m))


def legendre_tables(L: int, x: np.ndarray):
    """Tables pbar, dpbar, qbar of shape (L+1, L+1, len(x)).

    Entry [ell, m] is populated for m <= ell, zero elsewhere. ``x`` must lie
    strictly inside (-1, 1); the quadrature nodes always do.

    Returns
    -------
    (pbar, dpbar, qbar) : tuple of ndarray
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("x nodes must be one-dimensional")
    if np.any(np.abs(x) >= 1.0):
        raise DomainError("Legendre tables need nodes interior to (-1, 1)")
    if L < 0:
        raise DomainError("degree bound L must be nonnegative")
    nx = x.size
    s = np.sqrt(1.0 - x * x)  # sin(theta) > 0

    pbar = np.zeros((L + 1, L + 1, nx))
    qbar = np.zeros((L + 1, L + 1, nx))

    pbar[0, 0] = 1.0
    # diagonal chains
    for m in range(1, L + 1):
        c = _diag_coeff(m)
        pbar[m, m] = c * s * pbar[m - 1, m - 1]
        if m == 1:
            qbar[1, 1] = c  # Pbar_11 / sin = sqrt(3/2)
        else:
            qbar[m, m] = c * s * qbar[m - 1, m - 1]
    # first off-diagonal and the three-term ladder share coefficients
    for m in range(0, L + 1):
        if m + 1 <= L:
            c = np.sqrt(2.0 * m + 3.0)
            pbar[m + 1, m] = c * x * pbar[m, m]
            if m >= 1:
                qbar[m + 1, m] = c * x * qbar[m, m]
        for ell in range(m + 2, L + 1):
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            pbar[ell, m] = a * (x * pbar[ell - 1, m] - b * pbar[ell - 2, m])
            if m >= 1:
                qbar[ell, m] = a * (x * qbar[ell - 1, m] - b * qbar[ell - 2, m])

    # theta derivative from the normalized shift identity:
    #   d/dtheta Pbar_{ell m} =
    #     ( sqrt((ell+m)(ell-m+1)) Pbar_{ell,m-1}
    #       - sqrt((ell-m)(ell+m+1)) Pbar_{ell,m+1} ) / 2       (m >= 1)
    #   d/dtheta Pbar_{ell 0} = -sqrt(ell(ell+1)) Pbar_{ell 1}
    dpbar = np.zeros_like(pbar)
    for ell in range(1, L + 1):
        dpbar[ell, 0] = -np.sqrt(ell * (ell + 1.0)) * pbar[ell, 1]
        for m in range(1, ell + 1):
            lo = np.sqrt((ell + m) * (ell - m + 1.0)) * pbar[ell, m - 1]
            hi = 0.0
            if m + 1 <= ell:
                hi = np.sqrt((ell - m) * (ell + m + 1.0)) * pbar[ell, m + 1]
            dpbar[ell, m] = 0.5 * (lo - hi)
    return pbar, dpbar, qbar
