"""Typed failures raised by validators, samplers, and solvers.

Everything inherits from KreinvalError so callers can catch the library's
failures as one family while still branching on the precise cause.
"""

from __future__ import annotations


class KreinvalError(Exception):
    """Base class for all library-specific failures."""


class ShapeMismatch(KreinvalError, ValueError):
    """An array does not have the shape the signature demands."""


class NonFiniteValue(KreinvalError, ValueError):
    """A matrix entry or eigenvalue is infinite or NaN (an overflow, for instance)."""


class DefectiveMatrix(KreinvalError):
    """The eigenvector matrix is numerically rank-deficient.

    Raised only by the diagnosis of a matrix that no shift certifies: a
    certified matrix is diagonalizable, and its eigenvectors come from the
    certificate.
    """


class ComplexSpectrum(KreinvalError):
    """Eigenvalues stray from the real axis beyond tolerance."""


class WrongConeCount(KreinvalError):
    """Eigenvector cone classes do not split as p positive / q negative."""


class GapViolation(KreinvalError):
    """The top positive-type and negative-type eigenvalues fail the strict gap.

    ``other_component`` is True when every negative-type eigenvalue sits
    strictly above every positive-type one, i.e. the matrix is admissible
    for the opposite orientation rather than merely degenerate.
    """

    def __init__(self, message: str, other_component: bool = False):
        super().__init__(message)
        self.other_component = other_component


class RetriesExhausted(KreinvalError):
    """A bounded resampling loop ran out of attempts."""


class CyclingGuard(KreinvalError):
    """The simplex iteration guard tripped (should not happen with Bland's rule)."""


class SizeCapExceeded(KreinvalError):
    """The permutation orbit of a polyhedral region would exceed its vertex cap."""


class ConfigError(KreinvalError, ValueError):
    """A run configuration is invalid."""


class SchemaError(KreinvalError, ValueError):
    """A JSON document does not match the expected schema."""


class ReportWriteError(KreinvalError):
    """A report file that opened cannot be written, flushed or closed."""
