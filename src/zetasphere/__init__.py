"""Spectra, heat traces, zeta determinants, and Quillen metrics on the sphere.

The package discretizes the generalized conformal Laplacian on the Riemann
sphere in a spherical-harmonic basis, computes full spectra for smooth,
continuous, and singular integrable conformal factors, and derives heat
traces, zeta values, the zeta derivative at zero, and the two determinant
metrics built from them, together with a harness verifying the convergence
of all of it along smoothing families.

The package-level names load their modules on first access (PEP 562), so
importing ``zetasphere.cli`` does not load numpy before the CLI has set the
BLAS thread environment.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ZetasphereError": "errors",
    "ConfigError": "errors",
    "DomainError": "errors",
    "EigenConvergenceError": "errors",
    "FitWindowError": "errors",
    "IndefiniteMassError": "errors",
    "InvalidMetricError": "errors",
    "UnsupportedPointError": "errors",
    "ChartPoint": "metrics",
    "ConformalMetric": "metrics",
    "MetricFamily": "metrics",
    "fs_metric": "metrics",
    "max_metric": "metrics",
    "pnorm_metric": "metrics",
    "scaled_metric": "metrics",
    "pnorm_family": "metrics",
    "geomean_family": "metrics",
    "interpolate": "metrics",
    "parse_metric_spec": "metrics",
    "volume": "metrics",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
