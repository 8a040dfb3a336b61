"""Exception types shared across the package."""

__all__ = [
    "ZetasphereError",
    "DomainError",
    "ConfigError",
    "InvalidMetricError",
    "IndefiniteMassError",
    "EigenConvergenceError",
]


class ZetasphereError(Exception):
    """Base class for all package errors."""


class DomainError(ZetasphereError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ZetasphereError, ValueError):
    """A run configuration is malformed (unknown key, bad value, bad spec string)."""


class InvalidMetricError(ZetasphereError, ValueError):
    """A conformal factor is nonpositive somewhere it must be positive."""


class IndefiniteMassError(ZetasphereError, ValueError):
    """A mass matrix (block) is not positive definite."""


class EigenConvergenceError(ZetasphereError, RuntimeError):
    """The QL iteration inside the generalized eigensolver did not converge."""

