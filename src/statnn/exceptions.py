"""Exception types shared across the package."""

from __future__ import annotations


class StatnnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(StatnnError, ValueError):
    """Raised when an array argument has the wrong length or shape."""

    def __init__(self, what: str, expected, actual):
        self.what = what
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected {expected}, got {actual}")


class DataError(StatnnError, ValueError):
    """Raised for invalid input data (non-finite values, bad encodings, ...)."""


class FitError(StatnnError, RuntimeError):
    """Raised when every optimization restart fails."""


class NotPositiveDefiniteError(StatnnError, RuntimeError):
    """Raised when an operation requires a positive definite covariance."""
