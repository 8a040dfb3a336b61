"""Shared fixtures for the test suite.

One disk spectrum cache is shared by the whole session, so the scalar
pipeline (``spectral_data``, and the CLI commands that call it) reads a
spectrum solved by an earlier test instead of assembling and solving again.
The convergence harness does not use it: a sweep solves its own pencils in
process. Tests that need a cold start create their own directories.
"""

import pytest

from zetasphere.cache import SpectrumCache


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    """Session-wide disk cache for solved spectra."""
    return SpectrumCache(tmp_path_factory.mktemp("spectra"))
