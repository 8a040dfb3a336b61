"""Shared computation pipeline: the solved spectrum of each metric.

Each solve builds its own basis (`build_basis`), and no table outlives a
block. A pencil is solved wherever its spectrum is needed and handed on
from there. Every solve is a family solve, one Legendre sweep and one
stacked LAPACK call per m for all of its pencils, and one metric is a
family of one. Both paths return `eigensolve.Spectrum`, the one record of a
solved pencil: its eigenvalues, its volume and the eigenvalues of the
nested pencil at 7L/8 that every solve also takes. The scalar commands
fetch theirs with ``family_spectral_data``, which serves each metric from
the disk cache when it can and solves all the misses in one family solve
that builds each stack of mass blocks M_m, takes its eigenvalues alone and
drops it before the next m (`family_eigvals`); each miss is stored under
its own key, and a hit or a miss has empty block fields. The convergence
harness and the selftest solve with ``family_spectra``, which keeps the
mass blocks and eigenvectors of every pencil (`family_eigs`), so the
harness checks read the sweep's eigenvectors and mass blocks instead of
solving again; the variation checks hand `family_eigs` mass stacks of
their own. ``heatzeta.zeta_result`` takes either record with the
metric's pinned heat invariants; nothing is fitted. The colatitude rule
that the cache key names is ``discretize.colatitude_nodes``, the one
``build_basis`` builds, so a cache hit builds no basis. No command builds
an n x n matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .cache import SpectrumCache, spectrum_cache_key
from .discretize import build_basis, colatitude_nodes, masses
from .eigensolve import SOLVER_VERSION, Spectrum, family_eigs, family_eigvals, nested_degree
from .metrics import ConformalMetric

__all__ = ["family_spectra", "family_spectral_data"]


def family_spectra(metrics: Sequence[ConformalMetric], L: int) -> tuple[Spectrum, ...]:
    """The spectra of several metrics' pencils, with eigenvectors and mass
    blocks, solved together on one basis, in the order given."""
    return family_eigs(masses(build_basis(L), metrics), L, [g.id for g in metrics])


def _valid_spectrum(lam: np.ndarray, L: int) -> bool:
    """(L+1)^2 finite, ascending eigenvalues: an exact 0.0, then positive
    ones (the solver's kernel is the constants alone)."""
    return (
        lam.shape == ((L + 1) ** 2,)
        and bool(np.all(np.isfinite(lam)))
        and lam[0] == 0.0
        and bool(np.all(lam[1:2] > 0.0) and np.all(np.diff(lam) >= 0.0))
    )


def _valid_hit(hit: dict | None, metric_id: str, L: int) -> Spectrum | None:
    """The spectrum of a cache entry, block fields empty, or None if missing
    or malformed: each spectrum valid at its degree, L and `nested_degree`
    (L), and the volume positive and finite."""
    if hit is None:
        return None
    try:
        lam = np.asarray(hit["eigenvalues"], dtype=float)
        vol = float(hit["volume"][()])
        nested = np.asarray(hit["nested"], dtype=float)
    except (KeyError, TypeError, ValueError):
        return None
    ok = (
        _valid_spectrum(lam, L)
        and _valid_spectrum(nested, nested_degree(L))
        and math.isfinite(vol)
        and vol > 0.0
    )
    return Spectrum(metric_id, L, lam, vol, nested) if ok else None


def family_spectral_data(
    metrics: Sequence[ConformalMetric],
    L: int,
    cache: SpectrumCache | None = None,
) -> tuple[Spectrum, ...]:
    """The spectrum of each metric, block fields empty, served from the disk
    cache when possible, in the order given.

    Every metric whose entry is missing or fails validation is solved in
    one family solve, values only, with no stack of mass blocks kept past
    its m; a metric listed twice is solved once. Each solved spectrum is
    stored over its own entry and returned.
    """
    nt = colatitude_nodes(L)
    key = {g.id: spectrum_cache_key(g.id, L, nt, SOLVER_VERSION) for g in metrics}
    found: dict[str, Spectrum] = {}
    misses: dict[str, ConformalMetric] = {}
    for g in metrics:
        if g.id in found or g.id in misses:
            continue
        hit = None if cache is None else _valid_hit(cache.load(key[g.id]), g.id, L)
        if hit is None:
            misses[g.id] = g
        else:
            found[g.id] = hit
    if misses:
        ids = tuple(misses)
        for spec in family_eigvals(masses(build_basis(L), tuple(misses.values())), L, ids):
            found[spec.metric_id] = spec
            if cache is not None:
                cache.store(key[spec.metric_id], eigenvalues=spec.eigenvalues,
                            volume=np.float64(spec.volume), nested=spec.nested)
    return tuple(found[g.id] for g in metrics)
