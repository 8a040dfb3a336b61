"""Exception types shared across the package."""

__all__ = [
    "ZetasphereError",
    "DomainError",
    "ConfigError",
    "InvalidMetricError",
    "UnsupportedPointError",
    "IndefiniteMassError",
    "EigenConvergenceError",
    "FitWindowError",
]


class ZetasphereError(Exception):
    """Base class for all package errors."""


class DomainError(ZetasphereError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ZetasphereError, ValueError):
    """A run configuration is malformed (unknown key, bad value, bad spec string)."""


class InvalidMetricError(ZetasphereError, ValueError):
    """A conformal factor is nonpositive somewhere it must be positive."""


class UnsupportedPointError(ZetasphereError, ValueError):
    """Curvature was requested at a point where the metric is not twice differentiable."""


class IndefiniteMassError(ZetasphereError, ValueError):
    """A mass matrix (block) is not positive definite."""


class EigenConvergenceError(ZetasphereError, RuntimeError):
    """The QL iteration inside the generalized eigensolver did not converge."""

    def __init__(self, message: str, stuck_index: int | None = None):
        super().__init__(message)
        self.stuck_index = stuck_index


class FitWindowError(ZetasphereError, ValueError):
    """The requested fit window lies entirely outside the validity region."""

    def __init__(self, message: str, violated_bound: float | None = None):
        super().__init__(message)
        self.violated_bound = violated_bound
