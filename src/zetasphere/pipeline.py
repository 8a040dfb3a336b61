"""Shared computation pipeline: spectrum data and fit windows.

Each solve builds its own basis (`build_basis`), and no table outlives a
block. A pencil is solved wherever its spectrum is needed and handed on
from there: the scalar commands fetch eigenvalues and volume with
``spectral_data``, which reads and writes the disk cache and, on a miss,
builds each mass block M_m, takes its eigenvalues alone and drops it before
the next m (`generalized_eigvals`). The convergence harness keeps the mass
blocks and eigenvectors of every pencil it solves (`generalized_eigs` on the
same mass blocks, as `compute_spectrum` does for one metric; the `Spectrum`
holds them) and builds the same ``SpectralData`` from them
(``SpectralData.of``), so the harness checks read the sweep's eigenvectors
and mass blocks instead of solving again.
``compute_zeta`` runs the heat-trace fit and the zeta data on spectrum data
that the caller supplies; the fit itself, window clipping and sampling
included, is ``heatzeta.fit_asymptotics``. No command builds an n x n
matrix.

Fit windows default to the metric's global scale: rescaling the conformal
factor by c rescales eigenvalues by 1/c, so the default window carries a
factor ``metric.scale_hint``. An explicitly passed window is used as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import SpectrumCache, spectrum_cache_key
from .discretize import build_basis, mass
from .eigensolve import SOLVER_VERSION, Spectrum, generalized_eigs, generalized_eigvals
from .heatzeta import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_S_VALUES,
    DEFAULT_TRUNC_TOL,
    ZetaResult,
    fit_asymptotics,
    zeta_result,
)
from .metrics import ConformalMetric

__all__ = [
    "compute_spectrum",
    "SpectralData",
    "spectral_data",
    "default_fit_window",
    "compute_zeta",
]


def _n_theta(L: int, n_theta: int | None) -> int:
    return 2 * L + 2 if n_theta is None else n_theta


def compute_spectrum(
    metric: ConformalMetric, L: int, n_theta: int | None = None
) -> Spectrum:
    """Full spectrum with eigenvectors and mass blocks: one block solve."""
    return generalized_eigs(mass(build_basis(L, n_theta), metric), L, metric.id)


@dataclass(frozen=True)
class SpectralData:
    """Scalar payload of one solved pencil: eigenvalues and volume."""

    metric_id: str
    L: int
    n_theta: int
    eigenvalues: np.ndarray
    volume: float
    solver_version: str
    from_cache: bool

    @property
    def lambda1(self) -> float:
        lam = self.eigenvalues
        return float(lam[lam > 0.0][0])

    @classmethod
    def of(cls, spectrum: Spectrum, n_theta: int | None = None) -> SpectralData:
        """The scalar payload of a spectrum solved in process."""
        return cls(
            spectrum.metric_id, spectrum.L, _n_theta(spectrum.L, n_theta),
            spectrum.eigenvalues, spectrum.volume, SOLVER_VERSION, False,
        )


def _valid_hit(hit: dict | None, L: int) -> tuple[np.ndarray, float] | None:
    """Eigenvalues and volume of a cache entry, or None if missing or malformed.

    A valid entry holds (L+1)^2 finite, ascending eigenvalues starting at an
    exact 0.0 followed by a positive one (the solver's kernel is the
    constants alone), and a positive, finite volume.
    """
    if hit is None:
        return None
    try:
        lam = np.asarray(hit["eigenvalues"], dtype=float)
        vol = float(hit["volume"][()])
    except (KeyError, TypeError, ValueError):
        return None
    ok = (
        lam.shape == ((L + 1) ** 2,)
        and bool(np.all(np.isfinite(lam)))
        and lam[0] == 0.0
        and lam[1] > 0.0
        and bool(np.all(np.diff(lam) >= 0.0))
        and math.isfinite(vol)
        and vol > 0.0
    )
    return (lam, vol) if ok else None


def spectral_data(
    metric: ConformalMetric,
    L: int,
    n_theta: int | None = None,
    cache: SpectrumCache | None = None,
) -> SpectralData:
    """Eigenvalues and volume, served from the disk cache when possible.

    On a miss, or on an entry that fails validation, the eigenvalues are
    solved one mass block at a time, values only, with no block kept past its
    solve; they are stored over the entry and returned.
    """
    nt = _n_theta(L, n_theta)
    key = spectrum_cache_key(metric.id, L, nt, SOLVER_VERSION)
    if cache is not None:
        hit = _valid_hit(cache.load(key), L)
        if hit is not None:
            return SpectralData(metric.id, L, nt, *hit, SOLVER_VERSION, True)
    lam, vol = generalized_eigvals(mass(build_basis(L, nt), metric), L, metric.id)
    data = SpectralData(metric.id, L, nt, lam, vol, SOLVER_VERSION, False)
    if cache is not None:
        cache.store(key, eigenvalues=data.eigenvalues, volume=np.float64(data.volume))
    return data


def default_fit_window(metric: ConformalMetric) -> tuple[float, float]:
    s = metric.scale_hint
    return (DEFAULT_FIT_WINDOW[0] * s, DEFAULT_FIT_WINDOW[1] * s)


def compute_zeta(
    data: SpectralData,
    metric: ConformalMetric,
    window: tuple[float, float] | None = None,
    s_values: tuple[float, ...] = DEFAULT_S_VALUES,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
) -> ZetaResult:
    """Fit and zeta data of one metric's spectrum; the window defaults to
    ``default_fit_window(metric)``, and the fit is the result's ``fit``."""
    if window is None:
        window = default_fit_window(metric)
    fit = fit_asymptotics(data.eigenvalues, window, trunc_tol)
    return zeta_result(data.eigenvalues, fit, s_values, metric_id=data.metric_id)
