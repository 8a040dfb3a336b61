"""Shared computation pipeline: basis/spectrum caching and scale-aware grids.

Everything downstream (CLI subcommands, the anomaly module, the convergence
harness, the acceptance suite) goes through these helpers so that a basis is
built once per resolution and a pencil is solved once per (metric, basis)
within a process. The disk cache stores eigenvalues and volume, which is all
the scalar pipelines (theta, zeta, torsion) need. Operator-level work
(resolvents, heat operators, the harness checks) recomputes the block
eigenvectors in process and works on the per-m blocks. No command builds
an n x n matrix.

Fit windows default to the metric's global scale: rescaling the conformal
factor by c rescales eigenvalues by 1/c, so the default window carries a
factor ``metric.scale_hint``. An explicitly passed window is used as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import SpectrumCache, spectrum_cache_key
from .discretize import SpectralBasis, assemble, build_basis
from .eigensolve import SOLVER_VERSION, Spectrum, generalized_eigs
from .heatzeta import (
    DEFAULT_FIT_WINDOW,
    AsymptoticFit,
    HeatTraceSamples,
    ZetaResult,
    fit_asymptotics,
    geometric_grid,
    heat_trace_samples,
    truncation_time,
    zeta_result,
)
from .metrics import ConformalMetric

__all__ = [
    "get_basis",
    "compute_spectrum",
    "SpectralData",
    "spectral_data",
    "default_fit_window",
    "compute_fit",
    "compute_zeta",
    "clear_process_caches",
]

_BASIS_CACHE: dict[tuple[int, int], SpectralBasis] = {}
_SPECTRUM_CACHE: dict[tuple[str, int, int], Spectrum] = {}


def _n_theta(L: int, n_theta: int | None) -> int:
    return 2 * L + 2 if n_theta is None else n_theta


def clear_process_caches() -> None:
    _BASIS_CACHE.clear()
    _SPECTRUM_CACHE.clear()


def get_basis(L: int, n_theta: int | None = None) -> SpectralBasis:
    key = (L, _n_theta(L, n_theta))
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = build_basis(*key)
    return _BASIS_CACHE[key]


def compute_spectrum(
    metric: ConformalMetric, L: int, n_theta: int | None = None
) -> Spectrum:
    """Full spectrum with eigenvectors, memoized per process."""
    key = (metric.id, L, _n_theta(L, n_theta))
    if key not in _SPECTRUM_CACHE:
        _SPECTRUM_CACHE[key] = generalized_eigs(assemble(get_basis(L, n_theta), metric))
    return _SPECTRUM_CACHE[key]


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

    The disk lookup runs before any in-process state so a warm cache is
    exercised honestly; on a miss, or on an entry that fails validation, the
    spectrum is computed, stored over the entry, and the fresh values
    returned. Only the blocks are solved: no n x n matrix is built here.
    """
    nt = _n_theta(L, n_theta)
    key = spectrum_cache_key(metric.id, L, nt, SOLVER_VERSION)
    if cache is not None:
        hit = _valid_hit(cache.load(key), L)
        if hit is not None:
            return SpectralData(metric.id, L, nt, *hit, SOLVER_VERSION, True)
    spectrum = compute_spectrum(metric, L, nt)
    vol = spectrum.pair.volume
    if cache is not None:
        cache.store(key, eigenvalues=spectrum.eigenvalues, volume=np.float64(vol))
    return SpectralData(metric.id, L, nt, spectrum.eigenvalues, vol, SOLVER_VERSION, False)


def default_fit_window(metric: ConformalMetric) -> tuple[float, float]:
    s = metric.scale_hint
    return (DEFAULT_FIT_WINDOW[0] * s, DEFAULT_FIT_WINDOW[1] * s)


FIT_GRID_NODES = 25


def compute_fit(
    data: SpectralData,
    metric: ConformalMetric,
    window: tuple[float, float] | None = None,
    trunc_tol: float = 1e-8,
) -> tuple[HeatTraceSamples, AsymptoticFit]:
    """Sample theta on a dedicated geometric grid inside the fit window.

    The grid is laid in the part of the window where the truncation bound
    clears ``trunc_tol``, so the default window keeps working at small L
    (with larger, honestly reported, parameter spread). A window entirely
    below the valid region raises FitWindowError.
    """
    if window is None:
        window = default_fit_window(metric)
    lam = data.eigenvalues
    lo = max(float(window[0]), truncation_time(int(lam.size), float(lam[-1]), trunc_tol))
    # an all-invalid window still gets a grid so fit_asymptotics can raise
    # its canonical FitWindowError
    grid_lo = lo if lo < float(window[1]) else float(window[0])
    samples = heat_trace_samples(data, geometric_grid(grid_lo, float(window[1]), FIT_GRID_NODES))
    return samples, fit_asymptotics(samples, window, trunc_tol)


def compute_zeta(
    metric: ConformalMetric,
    L: int,
    n_theta: int | None = None,
    cache: SpectrumCache | None = None,
    window: tuple[float, float] | None = None,
    s_values: tuple[float, ...] = (1.5, 2.0, 3.0),
    trunc_tol: float = 1e-8,
) -> tuple[SpectralData, HeatTraceSamples, AsymptoticFit, ZetaResult]:
    """The scalar pipeline: spectrum -> heat trace -> fit -> zeta data."""
    data = spectral_data(metric, L, n_theta, cache)
    samples, fit = compute_fit(data, metric, window, trunc_tol)
    result = zeta_result(data.eigenvalues, fit, s_values, metric_id=data.metric_id)
    return data, samples, fit, result
