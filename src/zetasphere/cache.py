"""Content-addressed spectrum cache.

One ``.npz`` file per spectrum, named by the sha256 of the canonicalized
inputs (metric id, basis degree, colatitude node count, solver version).
The solver version is part of the key, so results from older solver revisions
are never served: a version bump simply misses. Writes go through a temp
file in the same directory followed by an atomic rename.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["spectrum_cache_key", "SpectrumCache", "default_cache_dir", "CACHE_ENV_VAR"]

CACHE_ENV_VAR = "ZETASPHERE_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "zetasphere"


def spectrum_cache_key(metric_id: str, L: int, n_theta: int, solver_version: str) -> str:
    canon = f"metric={metric_id}|L={L}|n_theta={n_theta}|solver={solver_version}"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class SpectrumCache:
    """Directory of cached spectra; misses return None, writes are atomic."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(self, key: str) -> dict | None:
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                return {name: payload[name] for name in payload.files}
        except (OSError, ValueError, EOFError, NotImplementedError, zipfile.BadZipFile):
            # unreadable entries (truncated, or a corrupt zip header naming
            # an unknown version or compression) behave like misses; a later
            # store overwrites them
            return None

    def store(self, key: str, **arrays) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path
