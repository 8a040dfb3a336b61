"""Content-addressed spectrum cache.

The key of a spectrum is the canonical string of its inputs (metric id,
basis degree, colatitude node count, solver version), which determines them
uniquely. One ``.npz`` file per spectrum, named by the CRC-32 of its key
(``zlib``, which numpy has loaded already), holds the key itself beside the
arrays. A load compares the stored key with the requested one, so two keys
whose names collide read as a miss and the next store overwrites the entry.
The solver version is part of the key, so results from older solver revisions
are never served: a version bump simply misses. Writes go through a temp
file in the same directory followed by an atomic rename.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np

__all__ = ["spectrum_cache_key", "SpectrumCache"]

CACHE_ENV_VAR = "ZETASPHERE_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "zetasphere"


def spectrum_cache_key(metric_id: str, L: int, n_theta: int, solver_version: str) -> str:
    return f"metric={metric_id}|L={L}|n_theta={n_theta}|solver={solver_version}"


class SpectrumCache:
    """Directory of cached spectra; misses return None, writes are atomic.

    An entry stores its key under ``key``; ``load`` returns the other arrays.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / f"{zlib.crc32(key.encode('utf-8')):08x}.npz"

    def load(self, key: str) -> dict | None:
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                entry = {name: payload[name] for name in payload.files}
        except (OSError, ValueError, EOFError, NotImplementedError, zipfile.BadZipFile):
            # unreadable entries (truncated, or a corrupt zip header naming
            # an unknown version or compression) behave like misses; a later
            # store overwrites them
            return None
        stored = entry.pop("key", None)
        if stored is None or str(stored) != key:
            # another key with the same name, or no key at all
            return None
        return entry

    def store(self, key: str, **arrays) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, key=np.str_(key), **arrays)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path
