"""Shared fixtures for the test suite.

One disk spectrum cache is shared by the whole session so repeated
eigensolves at the same resolution cost a file read instead of an assembly
and a block solve. Tests that need a cold start create their own
directories.
"""

import pytest

from zetasphere.cache import SpectrumCache


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    """Session-wide disk cache for solved spectra."""
    return SpectrumCache(tmp_path_factory.mktemp("spectra"))
