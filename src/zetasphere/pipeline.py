"""Shared computation pipeline: spectrum data and fit windows.

Each solve builds its own basis (`build_basis`), and no table outlives a
block. A pencil is solved wherever its spectrum is needed and handed on
from there, and the pencils of a family are solved together, one Legendre
sweep and one stacked LAPACK call per m for all of them; one metric is the
one-member case. The scalar commands fetch eigenvalues and volumes with
``family_spectral_data`` (one metric: ``spectral_data``), which serves each
metric from the disk cache when it can and solves all the misses in one
family solve that builds each stack of mass blocks M_m, takes its
eigenvalues alone and drops it before the next m (`family_eigvals`); each
miss is stored under its own key. The convergence harness keeps the mass
blocks and eigenvectors of every pencil it solves (`family_eigs`, as
`compute_spectrum` does for one metric; the `Spectrum` holds them) and
builds the same ``SpectralData`` from them (``SpectralData.of``), so the
harness checks read the sweep's eigenvectors and mass blocks instead of
solving again. ``compute_zeta`` runs the heat-trace fit and the zeta data
on spectrum data that the caller supplies; the fit itself, window clipping
and sampling included, is ``heatzeta.fit_asymptotics``. No command builds
an n x n matrix.

Fit windows default to the metric's global scale: rescaling the conformal
factor by c rescales eigenvalues by 1/c, so the default window carries a
factor ``metric.scale_hint``. An explicitly passed window is used as-is.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .cache import SpectrumCache, spectrum_cache_key
from .discretize import build_basis, mass, masses
from .eigensolve import SOLVER_VERSION, Spectrum, family_eigvals, generalized_eigs
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
    "family_spectral_data",
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


class SpectralData(NamedTuple):
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


def family_spectral_data(
    metrics: Sequence[ConformalMetric],
    L: int,
    n_theta: int | None = None,
    cache: SpectrumCache | None = None,
) -> tuple[SpectralData, ...]:
    """Eigenvalues and volume of each metric, served from the disk cache when
    possible, in the order given.

    Every metric whose entry is missing or fails validation is solved in
    one family solve, values only, with no stack of mass blocks kept past
    its m; a metric listed twice is solved once. Each solved spectrum is
    stored over its own entry and returned.
    """
    nt = _n_theta(L, n_theta)
    key = {g.id: spectrum_cache_key(g.id, L, nt, SOLVER_VERSION) for g in metrics}
    found: dict[str, SpectralData] = {}
    misses: dict[str, ConformalMetric] = {}
    for g in metrics:
        if g.id in found or g.id in misses:
            continue
        hit = None if cache is None else _valid_hit(cache.load(key[g.id]), L)
        if hit is None:
            misses[g.id] = g
        else:
            found[g.id] = SpectralData(g.id, L, nt, *hit, SOLVER_VERSION, True)
    if misses:
        ids = tuple(misses)
        solved = family_eigvals(masses(build_basis(L, nt), tuple(misses.values())), L, ids)
        for mid, (lam, vol) in zip(ids, solved):
            found[mid] = SpectralData(mid, L, nt, lam, vol, SOLVER_VERSION, False)
            if cache is not None:
                cache.store(key[mid], eigenvalues=lam, volume=np.float64(vol))
    return tuple(found[g.id] for g in metrics)


def spectral_data(
    metric: ConformalMetric,
    L: int,
    n_theta: int | None = None,
    cache: SpectrumCache | None = None,
) -> SpectralData:
    """Eigenvalues and volume of one metric: the one-member case of
    `family_spectral_data`."""
    return family_spectral_data((metric,), L, n_theta, cache)[0]


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
