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
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GapViolation, NonFiniteValue, ShapeMismatch

#: absolute tolerance on structural residuals (max-norm of the defining identity)
TOL_STRUCT = 1e-10


def _is_number(value, kind) -> bool:
    """A value of the ``numbers`` class ``kind`` that is not a bool, which Python counts as an int."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class Signature:
    """Counts of positive-type (p) and negative-type (q) coordinate slots."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (_is_number(self.p, numbers.Integral) and _is_number(self.q, numbers.Integral)):
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
    return float(np.abs(resid).max())


def pseudo_unitary_residual(entries, sig: Signature) -> float:
    """Max-norm of U J U* - J."""
    U = _as_square(entries, sig.n)
    jd = metric_diagonal(sig)
    resid = (U * jd[None, :]) @ U.conj().T
    resid.reshape(-1)[:: sig.n + 1] -= jd
    return float(np.abs(resid).max())


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)  # defensive copy
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class PseudoHermitianMatrix:
    """A validated square matrix with A J = J A*.

    ``tol`` is the structural acceptance used at construction time; the
    stored entries are a read-only copy.  ``shift_hint``, when not None, is
    a guess at a point of the gap between the negative-type and the
    positive-type eigenvalues: the sampler sets it from the planted
    spectrum and ``matrix_sum`` adds the summands' hints.  The spectral
    solve tries it first and verifies it: a wrong hint costs at most one
    Cholesky factorization and one ``eigvalsh`` before the solve runs as
    without it.  A hint that is not finite can certify nothing and is
    stored as None.  Matrices are values:
    two are equal when their signatures, tolerances, entry bytes and hints
    are, and hash over the same four.  A hint moves the computed spectrum
    by roundoff, so it is part of the value.
    """

    signature: Signature
    entries: np.ndarray
    tol: float = TOL_STRUCT
    shift_hint: float | None = None

    def __post_init__(self) -> None:
        arr = _as_square(self.entries, self.signature.n)
        if not np.isfinite(arr).all():
            raise NonFiniteValue("matrix entries must be finite")
        resid = pseudo_hermitian_residual(arr, self.signature)
        if resid > self.tol:
            raise ValueError(
                f"not pseudo-Hermitian for signature ({self.signature.p}, {self.signature.q}): "
                f"residual {resid:.3e} exceeds tol {self.tol:.1e}"
            )
        object.__setattr__(self, "entries", _freeze(arr))
        if self.shift_hint is not None:
            hint = float(self.shift_hint)
            object.__setattr__(self, "shift_hint", hint if math.isfinite(hint) else None)

    @functools.cached_property
    def _key(self) -> tuple:
        return self.signature, self.tol, self.entries.tobytes(), self.shift_hint

    def __hash__(self) -> int:
        # a bytes object keeps its hash, so the entries are hashed once; it is
        # not pickled, so a matrix from another process hashes as a fresh one
        return hash(self._key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PseudoHermitianMatrix):
            return NotImplemented
        return self._key == other._key


@dataclass(frozen=True)
class PseudoUnitary:
    """A validated matrix with U J U* = J."""

    signature: Signature
    entries: np.ndarray
    tol: float = TOL_STRUCT

    def __post_init__(self) -> None:
        arr = _as_square(self.entries, self.signature.n)
        if not np.isfinite(arr).all():
            raise NonFiniteValue("matrix entries must be finite")
        resid = pseudo_unitary_residual(arr, self.signature)
        if not resid <= self.tol:  # a NaN residual, from overflow, fails too
            raise ValueError(
                f"not pseudo-unitary for signature ({self.signature.p}, {self.signature.q}): "
                f"residual {resid:.3e} exceeds tol {self.tol:.1e}"
            )
        object.__setattr__(self, "entries", _freeze(arr))

    @property
    def inverse(self) -> np.ndarray:
        """The metric dagger J U* J, which inverts U exactly in exact arithmetic."""
        return matrix_dagger(self.entries, self.signature)

    @functools.cached_property
    def cond(self) -> float:
        """2-norm condition number, computed on first use and kept.

        The ratio of the extreme singular values, which is what
        ``np.linalg.cond(U, 2)`` returns for finite entries.
        """
        s = np.linalg.svd(self.entries, compute_uv=False)
        return float(s[0] / s[-1]) if s[-1] else math.inf


@dataclass(frozen=True)
class AdmissibleSpectrum:
    """Classified real spectrum of an admissible matrix.

    ``lambdas`` holds the p positive-type eigenvalues in ascending order, so
    lambdas[0] is the smallest.  ``mus`` holds the q negative-type eigenvalues
    in descending order, so mus[0] is the largest.  When both blocks are
    nonempty the strict gap lambdas[0] > mus[0] must hold.  ``magnitude``
    is the largest |eigenvalue| (0.0 when there is none), set from the ends
    of the sorted blocks.
    """

    signature: Signature
    lambdas: np.ndarray
    mus: np.ndarray
    magnitude: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the one copy each block gets; it is frozen below
        lam = np.array(self.lambdas, dtype=float).reshape(-1)
        mu = np.array(self.mus, dtype=float).reshape(-1)
        if lam.size != self.signature.p or mu.size != self.signature.q:
            raise ShapeMismatch(
                f"expected {self.signature.p} positive-type and {self.signature.q} "
                f"negative-type eigenvalues, got {lam.size} and {mu.size}"
            )
        # checked on Python floats, which is quicker than numpy for a few values; a
        # NaN fails every comparison, so sorted blocks hold none, and an infinity
        # can only sit at an end
        lv, mv = lam.tolist(), mu.tolist()
        ascending = all(a <= b for a, b in zip(lv, lv[1:]))
        ends = lv[:1] + lv[-1:] + mv[:1] + mv[-1:]
        if not (ascending and all(a >= b for a, b in zip(mv, mv[1:])) and all(map(math.isfinite, ends))):
            if not all(map(math.isfinite, lv + mv)):
                raise NonFiniteValue("eigenvalues must be finite reals")
            if not ascending:
                raise ValueError("positive-type eigenvalues must be ascending")
            raise ValueError("negative-type eigenvalues must be descending")
        if lv and mv and not lv[0] > mv[0]:
            raise GapViolation(
                f"strict gap violated: smallest positive-type {lam[0]!r} "
                f"must exceed largest negative-type {mu[0]!r}",
                other_component=bool(mu[-1] > lam[-1]),
            )
        lam.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "mus", mu)
        object.__setattr__(self, "magnitude", max(map(abs, ends), default=0.0))

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
        return _total(self.lambdas, self.mus)


def _total(lambdas: np.ndarray, mus: np.ndarray) -> float:
    """The sum of a spectrum's two blocks; the sum checks add scaled blocks by it too."""
    return float(np.sum(lambdas) + np.sum(mus))


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
