"""Exception types shared across the package."""

__all__ = ["CutMetricsError", "GraphInputError", "CapExceededError", "ParameterError", "NumericError"]


class CutMetricsError(Exception):
    """Base class for every error raised by this package."""


class GraphInputError(CutMetricsError):
    """Malformed, out-of-range, or disconnected graph input."""


class CapExceededError(GraphInputError):
    """An exhaustive enumeration would exceed its configured size cap."""


class ParameterError(CutMetricsError):
    """A metric parameter is out of range or fails its validity check."""


class NumericError(CutMetricsError):
    """A numeric computation failed (singular system, no convergence)."""
