"""Shared computation pipeline: the solved spectrum of each scalar command's metric.

Each solve builds its own basis (`build_basis`), and no table outlives a
block. Every solve is a family solve, one Legendre sweep and one stacked
LAPACK call per m for all of its pencils, and one metric is a family of
one. The scalar commands fetch their spectra with ``family_spectral_data``,
which serves each metric from the disk cache (`SpectrumCache`, which alone
names, writes and validates an entry, by metric id and L) when it can and
solves all the misses in one family solve that builds each stack of mass
blocks M_m, takes its eigenvalues alone and drops it before the next m
(`eigensolve.family_eigvals`); each miss is stored in its own entry. A hit
or a miss is an `eigensolve.Spectrum`: its eigenvalues, its volume and the
eigenvalues of the nested pencil at 7L/8 that every solve also takes.
``heatzeta.zeta_result`` takes it with the metric's pinned heat invariants;
nothing is fitted. The convergence harness uses no cache and does not
import this module: it solves its pencils with `family_eigvals` itself. The
colatitude rule that the cache key names is ``discretize.colatitude_nodes``,
the one ``build_basis`` builds, so a cache hit builds no basis. No command
builds an n x n matrix.
"""

from __future__ import annotations

import math
import os
import tempfile
import zipfile
import zlib
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .discretize import build_basis, colatitude_nodes, masses
from .eigensolve import SOLVER_VERSION, Spectrum, family_eigvals, nested_degree
from .metrics import ConformalMetric

__all__ = ["SpectrumCache", "family_spectral_data"]


def _valid_spectrum(lam: np.ndarray, L: int) -> bool:
    """(L+1)^2 finite, ascending eigenvalues: an exact 0.0, then positive
    ones (the solver's kernel is the constants alone)."""
    return (
        lam.shape == ((L + 1) ** 2,)
        and bool(np.all(np.isfinite(lam)))
        and lam[0] == 0.0
        and bool(np.all(lam[1:2] > 0.0) and np.all(np.diff(lam) >= 0.0))
    )


class SpectrumCache:
    """Directory of solved spectra, one entry per (metric id, L).

    The key of an entry names all that determines the spectrum: metric id,
    L, ``colatitude_nodes(L)`` and ``SOLVER_VERSION``, so a solver change
    simply misses. The entry is one ``.npz`` named by the CRC-32 of its key
    (``zlib``, which numpy has loaded already); it holds the key beside the
    eigenvalues, volume and nested eigenvalues, so two keys that share a
    name read as misses. Writes are a temp file and an atomic rename. The
    default root is ``$ZETASPHERE_CACHE``, then ``~/.cache/zetasphere``.
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get("ZETASPHERE_CACHE") or Path.home() / ".cache" / "zetasphere"
        self.root = Path(root)

    @staticmethod
    def _key(metric_id: str, L: int) -> str:
        return f"metric={metric_id}|L={L}|n_theta={colatitude_nodes(L)}|solver={SOLVER_VERSION}"

    def path_for(self, metric_id: str, L: int) -> Path:
        return self.root / f"{zlib.crc32(self._key(metric_id, L).encode('utf-8')):08x}.npz"

    def load(self, metric_id: str, L: int) -> Spectrum | None:
        """The stored spectrum, or None: a missing or
        unreadable entry, another key's, or one whose spectra are not valid
        at L and `nested_degree` (L) or whose volume is not positive and
        finite."""
        try:
            with np.load(self.path_for(metric_id, L), allow_pickle=False) as payload:
                stored = str(payload["key"])
                lam = np.asarray(payload["eigenvalues"], dtype=float)
                vol = float(payload["volume"][()])
                nested = np.asarray(payload["nested"], dtype=float)
        except (OSError, EOFError, KeyError, TypeError, ValueError, NotImplementedError,
                zipfile.BadZipFile):
            # truncated entries, or a corrupt zip header naming an unknown
            # version or compression, behave like misses
            return None
        ok = (
            stored == self._key(metric_id, L)
            and _valid_spectrum(lam, L)
            and _valid_spectrum(nested, nested_degree(L))
            and math.isfinite(vol)
            and vol > 0.0
        )
        return Spectrum(metric_id, L, lam, vol, nested) if ok else None

    def store(self, spectrum: Spectrum) -> Path:
        """Write the spectrum's eigenvalues, volume and nested eigenvalues
        over its entry; returns the entry's path."""
        key = self._key(spectrum.metric_id, spectrum.L)
        path = self.path_for(spectrum.metric_id, spectrum.L)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, key=np.str_(key), eigenvalues=spectrum.eigenvalues,
                         volume=np.float64(spectrum.volume), nested=spectrum.nested)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path


def family_spectral_data(
    metrics: Sequence[ConformalMetric],
    L: int,
    cache: SpectrumCache | None = None,
) -> tuple[Spectrum, ...]:
    """The spectrum of each metric, served from the disk cache when
    possible, in the order given.

    Every metric whose entry is missing or fails validation is solved in
    one family solve, values only, with no stack of mass blocks kept past
    its m; a metric listed twice is solved once. Each solved spectrum is
    stored over its own entry and returned.
    """
    unique = {g.id: g for g in metrics}
    found = {i: None if cache is None else cache.load(i, L) for i in unique}
    misses = [g for i, g in unique.items() if found[i] is None]
    if misses:
        for spec in family_eigvals(masses(build_basis(L), misses), L, [g.id for g in misses]):
            found[spec.metric_id] = spec
            if cache is not None:
                cache.store(spec)
    return tuple(found[g.id] for g in metrics)
