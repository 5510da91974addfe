"""Eigenvalue checks for sums of admissible matrices in an indefinite metric.

The package builds matrices that are self-adjoint for the signature (p, q)
pairing, classifies their spectra, and stress-tests eigenvalue inequalities
(Weyl, Lidskii-Wielandt, Thompson-Freede, Courant-Fischer, Ky Fan, Wielandt
flag bounds, and a polyhedral membership test) on seeded random instances.
"""

from .core import (
    AdmissibleSpectrum,
    PseudoHermitianMatrix,
    PseudoUnitary,
    Signature,
    conjugate,
    matrix_dagger,
    metric_diagonal,
    pseudo_hermitian_residual,
    pseudo_unitary_residual,
)
from .errors import (
    ComplexSpectrum,
    ConfigError,
    CyclingGuard,
    DefectiveMatrix,
    GapViolation,
    KreinvalError,
    NonFiniteValue,
    ReportWriteError,
    RetriesExhausted,
    SchemaError,
    ShapeMismatch,
    SizeCapExceeded,
    WrongConeCount,
)
from .geometry import gram
from .spectral import (
    ClassifiedEigenSystem,
    check_admissible,
    eigendecompose,
    negative_eigenbasis,
    positive_eigenbasis,
)
from .sampling import (
    SamplerConfig,
    instance_rng,
    sample_planted,
    sample_pseudo_unitary,
    sample_spectrum,
)
from .checks import (
    CheckCase,
    CheckReport,
    check_courant_fischer,
    check_ky_fan,
    check_lidskii_wielandt,
    check_thompson_freede,
    check_trace_identity,
    check_weyl,
    check_wielandt_flag,
)
from .polyhedral import (
    FeasibilityCertificate,
    PolyhedralRegion,
    build_region,
    check_diag_membership,
    check_sum_membership,
    lp_feasible,
)

__version__ = "0.1.0"

#: the names ``__getattr__`` takes from ``fileio``, which loads, with ``csv``, on first access to one
_FILEIO_EXPORTS = frozenset({"ReportWriter", "read_matrix", "write_matrix"})


def __getattr__(name: str):
    """Resolve a ``fileio`` export on first access (PEP 562), so report I/O loads only when used."""
    if name not in _FILEIO_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.fileio"), name)
    globals()[name] = value
    return value

__all__ = [
    "AdmissibleSpectrum",
    "CheckCase",
    "CheckReport",
    "ClassifiedEigenSystem",
    "ComplexSpectrum",
    "ConfigError",
    "CyclingGuard",
    "DefectiveMatrix",
    "FeasibilityCertificate",
    "GapViolation",
    "KreinvalError",
    "NonFiniteValue",
    "PolyhedralRegion",
    "PseudoHermitianMatrix",
    "PseudoUnitary",
    "ReportWriteError",
    "ReportWriter",
    "RetriesExhausted",
    "SamplerConfig",
    "SchemaError",
    "ShapeMismatch",
    "Signature",
    "SizeCapExceeded",
    "WrongConeCount",
    "build_region",
    "check_admissible",
    "check_courant_fischer",
    "check_diag_membership",
    "check_ky_fan",
    "check_lidskii_wielandt",
    "check_sum_membership",
    "check_thompson_freede",
    "check_trace_identity",
    "check_weyl",
    "check_wielandt_flag",
    "conjugate",
    "eigendecompose",
    "gram",
    "instance_rng",
    "lp_feasible",
    "matrix_dagger",
    "metric_diagonal",
    "negative_eigenbasis",
    "positive_eigenbasis",
    "pseudo_hermitian_residual",
    "pseudo_unitary_residual",
    "read_matrix",
    "sample_planted",
    "sample_pseudo_unitary",
    "sample_spectrum",
    "write_matrix",
]
