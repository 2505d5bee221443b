"""Shared exception types.

Every failure mode that callers are expected to handle gets its own class so
tests and the CLI can discriminate without string matching.
"""

from __future__ import annotations

__all__ = [
    "CharspecError",
    "DimensionError",
    "SingularMatrixError",
    "UnsupportedKindError",
    "NotARootError",
    "ResolventUndefinedError",
    "BoundaryDegeneracyError",
    "QuadratureFailureError",
    "DivergenceError",
    "RootClusterError",
    "ConvergenceError",
    "ConfigError",
]


class CharspecError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CharspecError, ValueError):
    """Operand shapes are inconsistent with the requested operation."""


class SingularMatrixError(CharspecError, ArithmeticError):
    """Matrix is singular to working tolerance.

    Carries the offending pivot magnitude in ``smallest_pivot`` when the
    failure was detected inside an elimination.
    """

    def __init__(self, message, smallest_pivot=None):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


class UnsupportedKindError(CharspecError, TypeError):
    """Problem kind does not support the requested operation."""


class NotARootError(CharspecError, ValueError):
    """A kernel/eigenfunction was requested at a point that is not a root."""


class ResolventUndefinedError(CharspecError, ArithmeticError):
    """Resolvent evaluation requested at (or too close to) a spectral point."""


class BoundaryDegeneracyError(CharspecError, ArithmeticError):
    """Contour repeatedly passes through (near-)zeros of the function."""


class QuadratureFailureError(CharspecError, ArithmeticError):
    """A quadrature failed to settle: a contour integral on an integer
    winding count, or a functional's integral term within its node budget."""


class DivergenceError(CharspecError, ArithmeticError):
    """Newton iteration left the search region."""


class RootClusterError(CharspecError, ArithmeticError):
    """Subdivision bottomed out on a box still holding many roots."""


class ConvergenceError(CharspecError, ArithmeticError):
    """An iterative eigenvalue procedure failed to converge."""


class ConfigError(CharspecError, ValueError):
    """Job configuration failed to parse or validate."""
