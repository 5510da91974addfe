"""Core domain types for signature-(p, q) indefinite linear algebra.

The metric is J = diag(+1 x p, -1 x q).  A matrix A is self-adjoint for the
induced pairing ("pseudo-Hermitian") when A J = J A*, with * the conjugate
transpose; equivalently J A is Hermitian.  A matrix U is pseudo-unitary when
U J U* = J, in which case its inverse is the metric dagger J U* J.

These types carry the signature together with the numeric payload and
validate structure on construction, so downstream code can assume
well-formed inputs.  All instances are immutable values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GapViolation, ShapeMismatch

#: absolute tolerance on structural residuals (max-norm of the defining identity)
TOL_STRUCT = 1e-10


@dataclass(frozen=True)
class Signature:
    """Counts of positive-type (p) and negative-type (q) coordinate slots."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, (int, np.integer)) and isinstance(self.q, (int, np.integer))):
            raise ValueError("signature counts must be integers")
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be >= 0, got ({self.p}, {self.q})")
        if self.p + self.q < 1:
            raise ValueError("signature must have at least one slot")

    @property
    def n(self) -> int:
        return self.p + self.q


@functools.lru_cache(maxsize=64)
def metric_diagonal(sig: Signature) -> np.ndarray:
    """Diagonal of the metric: p ones followed by q minus-ones.

    Cached per signature, because every pairing and Gram product needs it;
    the array is read-only since every caller shares it.
    """
    jd = np.concatenate([np.ones(sig.p), -np.ones(sig.q)])
    jd.flags.writeable = False
    return jd


def build_metric(sig: Signature) -> np.ndarray:
    """The metric as a dense n x n real diagonal matrix (an involution)."""
    return np.diag(metric_diagonal(sig))


def _as_square(entries, n: int, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape != (n, n):
        raise ShapeMismatch(f"{what} must be {n} x {n}, got shape {arr.shape}")
    return arr


def matrix_dagger(entries, sig: Signature) -> np.ndarray:
    """Metric adjoint M -> J M* J.

    An involutive anti-homomorphism; M is pseudo-Hermitian exactly when it
    equals its own dagger.
    """
    M = _as_square(entries, sig.n)
    jd = metric_diagonal(sig)
    return jd[:, None] * M.conj().T * jd[None, :]


def pseudo_hermitian_residual(entries, sig: Signature) -> float:
    """Max-norm of A J - J A*, the defect of the defining identity."""
    A = _as_square(entries, sig.n)
    jd = metric_diagonal(sig)
    # A J scales columns, J A* scales rows
    resid = A * jd[None, :] - jd[:, None] * A.conj().T
    return float(np.max(np.abs(resid)))


def validate_pseudo_hermitian(entries, sig: Signature, tol: float = TOL_STRUCT) -> bool:
    """True when A J = J A* holds entrywise within ``tol`` (absolute)."""
    return pseudo_hermitian_residual(entries, sig) <= tol


def pseudo_unitary_residual(entries, sig: Signature) -> float:
    """Max-norm of U J U* - J."""
    U = _as_square(entries, sig.n)
    jd = metric_diagonal(sig)
    resid = (U * jd[None, :]) @ U.conj().T - np.diag(jd)
    return float(np.max(np.abs(resid)))


def validate_pseudo_unitary(entries, sig: Signature, tol: float = TOL_STRUCT) -> bool:
    """True when U J U* = J within ``tol``; then U^-1 = J U* J, the dagger."""
    return pseudo_unitary_residual(entries, sig) <= tol


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)  # defensive copy
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PseudoHermitianMatrix:
    """A validated square matrix with A J = J A*.

    ``tol`` is the structural acceptance used at construction time; the
    stored entries are a read-only copy.
    """

    signature: Signature
    entries: np.ndarray
    tol: float = TOL_STRUCT

    def __post_init__(self) -> None:
        arr = _as_square(self.entries, self.signature.n)
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        resid = pseudo_hermitian_residual(arr, self.signature)
        if resid > self.tol:
            raise ValueError(
                f"not pseudo-Hermitian for signature ({self.signature.p}, {self.signature.q}): "
                f"residual {resid:.3e} exceeds tol {self.tol:.1e}"
            )
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def norm(self) -> float:
        """Operator 2-norm of the entries."""
        return float(np.linalg.norm(self.entries, 2))


@dataclass(frozen=True)
class PseudoUnitary:
    """A validated matrix with U J U* = J."""

    signature: Signature
    entries: np.ndarray
    tol: float = TOL_STRUCT

    def __post_init__(self) -> None:
        arr = _as_square(self.entries, self.signature.n)
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        resid = pseudo_unitary_residual(arr, self.signature)
        if resid > self.tol:
            raise ValueError(
                f"not pseudo-unitary for signature ({self.signature.p}, {self.signature.q}): "
                f"residual {resid:.3e} exceeds tol {self.tol:.1e}"
            )
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def inverse(self) -> np.ndarray:
        """The metric dagger J U* J, which inverts U exactly in exact arithmetic."""
        return matrix_dagger(self.entries, self.signature)

    @property
    def cond(self) -> float:
        return float(np.linalg.cond(self.entries, 2))


@dataclass(frozen=True)
class AdmissibleSpectrum:
    """Classified real spectrum of an admissible matrix.

    ``lambdas`` holds the p positive-type eigenvalues in ascending order, so
    lambdas[0] is the smallest.  ``mus`` holds the q negative-type eigenvalues
    in descending order, so mus[0] is the largest.  When both blocks are
    nonempty the strict gap lambdas[0] > mus[0] must hold.
    """

    signature: Signature
    lambdas: np.ndarray
    mus: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float).reshape(-1)
        mu = np.asarray(self.mus, dtype=float).reshape(-1)
        if lam.size != self.signature.p or mu.size != self.signature.q:
            raise ShapeMismatch(
                f"expected {self.signature.p} positive-type and {self.signature.q} "
                f"negative-type eigenvalues, got {lam.size} and {mu.size}"
            )
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(mu))):
            raise ValueError("eigenvalues must be finite reals")
        if lam.size > 1 and np.any(np.diff(lam) < 0):
            raise ValueError("positive-type eigenvalues must be ascending")
        if mu.size > 1 and np.any(np.diff(mu) > 0):
            raise ValueError("negative-type eigenvalues must be descending")
        if lam.size and mu.size and not lam[0] > mu[0]:
            raise GapViolation(
                f"strict gap violated: smallest positive-type {lam[0]!r} "
                f"must exceed largest negative-type {mu[0]!r}",
                other_component=bool(mu[-1] > lam[-1]),
            )
        object.__setattr__(self, "lambdas", _freeze(lam))
        object.__setattr__(self, "mus", _freeze(mu))

    @property
    def gap(self) -> float:
        """lambdas[0] - mus[0]; +inf when either block is empty."""
        if self.lambdas.size and self.mus.size:
            return float(self.lambdas[0] - self.mus[0])
        return float("inf")

    def canonical_vector(self) -> np.ndarray:
        """Coordinates in canonical diagonal order: lambdas descending, then mus descending."""
        return np.concatenate([self.lambdas[::-1], self.mus])

    def total(self) -> float:
        """Sum of all eigenvalues (equals the matrix trace)."""
        return float(np.sum(self.lambdas) + np.sum(self.mus))


def canonical_diagonal(spectrum: AdmissibleSpectrum) -> PseudoHermitianMatrix:
    """Diagonal representative: positive-type block descending, then negative-type descending."""
    entries = np.diag(spectrum.canonical_vector().astype(complex))
    return PseudoHermitianMatrix(spectrum.signature, entries)


def check_index_tuple(indices, upper: int) -> tuple[int, ...]:
    """Validate a strictly increasing tuple of 1-based indices bounded by ``upper``."""
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise ValueError("index tuple must be nonempty")
    if any(i < 1 or i > upper for i in idx):
        raise ValueError(f"indices must lie in [1, {upper}], got {idx}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"indices must be strictly increasing, got {idx}")
    return idx


def conjugate(A: PseudoHermitianMatrix, U: PseudoUnitary) -> PseudoHermitianMatrix:
    """Return U A U^-1 (inverse taken as the dagger), re-symmetrized.

    Conjugation by a pseudo-unitary preserves pseudo-Hermitian structure
    exactly; the final averaging only removes floating-point asymmetry.
    """
    if A.signature != U.signature:
        raise ShapeMismatch("matrix and conjugator must share a signature")
    raw = U.entries @ A.entries @ U.inverse
    sym = 0.5 * (raw + matrix_dagger(raw, A.signature))
    return PseudoHermitianMatrix(A.signature, sym)
