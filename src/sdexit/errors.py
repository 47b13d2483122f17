"""Exception types shared across the package."""

__all__ = ["SdexitError", "DimensionError", "DomainError", "CapacityError", "ConfigError"]


class SdexitError(Exception):
    """Base class for package-specific errors."""


class DimensionError(SdexitError, ValueError):
    """Array shape or dimension mismatch."""


class DomainError(SdexitError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class CapacityError(SdexitError, ValueError):
    """Problem size exceeds a hard limit of an exhaustive algorithm."""


class ConfigError(SdexitError, ValueError):
    """Invalid scenario configuration. Carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
