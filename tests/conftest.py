"""Shared fixtures for the test suite.

One disk spectrum cache is shared by the whole session, so the scalar
pipeline (``family_spectral_data``, and the CLI commands that call it) reads
a spectrum solved by an earlier test instead of assembling and solving again.
The convergence harness does not use it: a sweep solves its own pencils in
process. Tests that need a cold start create their own directories. The
``solved`` fixture records every pencil the block routine solves.

An in-process ``main()`` writes the BLAS thread variables into this process's
environment, and child processes started later inherit it; every test gets
the variables back as they were before it ran.
"""

import os

import pytest

from zetasphere import eigensolve
from zetasphere.cli import _THREAD_VARS
from zetasphere.pipeline import SpectrumCache


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    """Session-wide disk cache for solved spectra."""
    return SpectrumCache(tmp_path_factory.mktemp("spectra"))


@pytest.fixture
def solved(monkeypatch):
    """(metric id, L) of each member of each family the block routine of
    every solve path solves, in order: a cache hit adds none."""
    pencils = []
    real = eigensolve._solve_stacks

    def solve(stacks, L, metric_ids, reduce):
        pencils.extend((metric_id, L) for metric_id in metric_ids)
        return real(stacks, L, metric_ids, reduce)

    monkeypatch.setattr(eigensolve, "_solve_stacks", solve)
    return pencils


@pytest.fixture(autouse=True)
def _restore_thread_vars():
    saved = {var: os.environ.get(var) for var in _THREAD_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
