"""Eigenstructure of pseudo-Hermitian matrices: admissibility certificates.

A matrix is admissible when it diagonalizes over the reals with exactly p
positive-type and q negative-type eigenvectors and the smallest positive-type
eigenvalue strictly exceeds the largest negative-type one.  Equivalently
(Gohberg-Lancaster-Rodman, Indefinite Linear Algebra), H = J (A - shift I)
is positive definite for some shift in the gap between the two blocks, so
one Cholesky factorization of H certifies admissibility.  The eigenvalues
below the shift are then the negative-type ones and those above it the
positive-type ones.  Shifts add: shift_A + shift_B certifies A + B, because
J (A + B - (a + b) I) = H_A + H_B.

The factor L of H = L L^H also gives the spectrum and the eigenvectors in
closed form: A - shift I = J L L^H is similar to the Hermitian matrix
M = L^H J L, so with M Q = Q diag(nu), nu ascending, the eigenvalues are
shift + nu and the eigenvectors L^-H Q, already paired-orthogonal.  By
Sylvester's law of inertia M, congruent to J, has exactly q negative
eigenvalues nu: the first q are the negative-type ones.

So a shift known in advance makes the solve one Cholesky and one
``eigvalsh``.  A matrix's ``shift_hint`` is such a shift: the sampler
plants it at the gap point of the planted spectrum, and the sum of two
hinted matrices carries the sum of their hints.  The hint is verified,
never trusted: when its Cholesky fails, or nu is not finite or has other
than q negative entries, the solve runs as for a matrix without one, with
``np.linalg.eigvals`` to find the shift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .core import AdmissibleSpectrum, PseudoHermitianMatrix, Signature, metric_diagonal
from .errors import (
    ComplexSpectrum,
    DefectiveMatrix,
    GapViolation,
    NonFiniteValue,
    WrongConeCount,
)
from .geometry import TOL_NULL_REL, _adjoint

#: acceptance on the imaginary part of eigenvalues, relative to the operator norm
TOL_REALITY_REL = 1e-8
#: smallest-singular-value cutoff declaring the eigenvector matrix defective
TOL_DEFECT = 1e-12


@dataclass(frozen=True)
class ClassifiedEigenSystem:
    """The certified eigenstructure of an admissible matrix.

    ``eigenvalues`` are the computed eigenvalues, ascending; the first q
    belong to negative-type and the last p to positive-type eigenvectors.
    They are shift + nu, with nu = eigvalsh(L^H J L), when the matrix's
    hint certified it, and otherwise the sorted real parts of ``eigvals``.
    ``shift`` is the point of the gap at which J (A - shift I) was found
    positive definite, ``factor`` its lower Cholesky factor L, and
    ``spectrum`` the validated spectrum.

    ``eigenvectors`` are in the same order, and come from the certificate:
    with nu, Q = eigh(L^H J L), nu ascending, the columns are
    L^-H Q diag(sqrt|nu|), so their pairing Gram is diag(sign nu): -I on the
    first q columns and +I on the last p, repeated eigenvalues included.
    They are built on first read and kept: the sum checks read spectra only
    and never pay for them.  When roundoff leaves other than q negative nu,
    against Sylvester's law, every read raises WrongConeCount and nothing is
    kept.  Systems returned by ``eigendecompose`` are shared, so their
    arrays are read-only.
    """

    signature: Signature
    eigenvalues: np.ndarray
    factor: np.ndarray
    shift: float
    spectrum: AdmissibleSpectrum

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        L, sig = self.factor, self.signature
        nu, Q = np.linalg.eigh(_adjoint(L) @ (metric_diagonal(sig)[:, None] * L))
        negative = int(np.count_nonzero(nu < 0))
        if negative != sig.q:
            raise WrongConeCount(
                f"L^H J L has {negative} negative eigenvalues, not q = {sig.q}: "
                "the certificate's factor has lost the inertia of J"
            )
        vectors = np.linalg.solve(_adjoint(L), Q * np.sqrt(np.abs(nu)))
        vectors.flags.writeable = False
        return vectors


def eigendecompose(A: PseudoHermitianMatrix) -> ClassifiedEigenSystem:
    """Certified eigendecomposition of an admissible matrix, memoized by value.

    With a ``shift_hint``, one Cholesky factorization of J (A - hint I) and
    one ``eigvalsh`` of L^H J L give the eigenvalues hint + nu, split at q
    by Sylvester's law, and the hint is the shift.  Without a hint, or when
    the hint's Cholesky fails or nu is not finite or has other than q
    negative entries, one ``np.linalg.eigvals`` runs instead; the shift goes
    midway between the q-th and (q+1)-th eigenvalue (past the spectrum when
    p or q is 0), and one Cholesky factorization of J (A - shift I)
    certifies A.  When that fails, a diagnosis with ``np.linalg.eig``
    raises ComplexSpectrum, GapViolation (``other_component=True`` when A
    is admissible for the opposite orientation), DefectiveMatrix or
    WrongConeCount to say why.

    A positive definite H makes A self-adjoint for the definite form H, so A
    is diagonalizable with a real spectrum (Gohberg-Lancaster-Rodman): the
    eigenvectors add nothing to the certificate.  They are built from its
    factor on the first read of ``eigenvectors``.

    Equal signatures, entry bytes and hints share one read-only system, so
    the checks on A, B and A + B of an instance read three solves.  A
    result depends on the entries and the hint alone, which are the memo's
    key, so the memo never changes what a caller sees.  Failures are not
    kept: an inadmissible matrix raises a new typed error on every call.
    """
    return _solve(A.signature, A.entries.tobytes(), A.shift_hint)


def check_admissible(A: PseudoHermitianMatrix) -> AdmissibleSpectrum:
    """The validated spectrum of A: ``eigendecompose(A).spectrum``.

    Equal bytes share one read-only spectrum; an inadmissible matrix raises
    the typed errors of ``eigendecompose``.
    """
    return eigendecompose(A).spectrum


def _shifted_form(entries, sig: Signature, shift: float) -> np.ndarray:
    """H = J (A - shift I), Hermitian for a pseudo-Hermitian A."""
    jd = metric_diagonal(sig)
    H = jd[:, None] * entries
    H.reshape(-1)[:: sig.n + 1] -= shift * jd
    return H


def shift_margin(A: PseudoHermitianMatrix) -> float:
    """How far the certificate of A is from failing: lambda_min(H) / ||H||_2.

    H = J (A - shift I) at the shift ``eigendecompose`` found.  The margin
    lies in (0, 1] and does not change when A is scaled; it costs one
    eigvalsh, so only reports that show it compute it.
    """
    eta = np.linalg.eigvalsh(_shifted_form(A.entries, A.signature, eigendecompose(A).shift))
    return float(eta[0] / np.abs(eta).max())


def _gap_point(theta, below: int) -> float:
    """A shift with ``below`` of the ascending values ``theta`` under it.

    Midway between two neighbours, or past the end of the spectrum by its
    spread (at least its largest magnitude) when every value is on one side.
    It reads at most the two ends and the two neighbours of the gap, as
    Python floats, so a list and an array of the same values give the same
    bytes.
    """
    if 0 < below < len(theta):
        return 0.5 * (float(theta[below - 1]) + float(theta[below]))
    lo, hi = float(theta[0]), float(theta[-1])
    pad = max(hi - lo, abs(lo), abs(hi)) or 1.0
    return lo - pad if below == 0 else hi + pad


def _system(sig: Signature, theta: np.ndarray, L: np.ndarray, shift: float) -> ClassifiedEigenSystem:
    spectrum = AdmissibleSpectrum(sig, theta[sig.q :], theta[: sig.q][::-1])
    theta.flags.writeable = False
    L.flags.writeable = False
    return ClassifiedEigenSystem(sig, theta, L, shift, spectrum)


def _certify_at(sig: Signature, entries: np.ndarray, hint: float) -> ClassifiedEigenSystem | None:
    """The system certified at the shift ``hint``, or None when the hint certifies nothing."""
    try:
        L = np.linalg.cholesky(_shifted_form(entries, sig, hint))
        nu = np.linalg.eigvalsh(_adjoint(L) @ (metric_diagonal(sig)[:, None] * L))
    except np.linalg.LinAlgError:
        return None
    # ascending, so the inertia of J shows at the split: nu[q - 1] < 0 <= nu[q]
    if not ((sig.q == 0 or nu[sig.q - 1] < 0) and (sig.p == 0 or nu[sig.q] >= 0)):
        return None
    try:
        return _system(sig, hint + nu, L, hint)
    except (NonFiniteValue, GapViolation):  # nu is not finite, or adding the hint rounded the gap away
        return None


@functools.lru_cache(maxsize=32)
def _solve(sig: Signature, data: bytes, hint: float | None) -> ClassifiedEigenSystem:
    entries = np.frombuffer(data, dtype=complex).reshape(sig.n, sig.n)
    if hint is not None:
        system = _certify_at(sig, entries, hint)
        if system is not None:
            return system
    theta = np.sort(np.linalg.eigvals(entries).real)
    shift = _gap_point(theta, sig.q)
    try:
        # certified: the q eigenvalues below the shift are the negative-type ones
        L = np.linalg.cholesky(_shifted_form(entries, sig, shift))
    except np.linalg.LinAlgError:
        _diagnose(sig, entries)
    return _system(sig, theta, L, shift)


def _diagnose(sig: Signature, entries: np.ndarray) -> NoReturn:
    """Raise the typed error that says why no shift certifies the matrix.

    Only this failure path solves for the eigenvectors with ``np.linalg.eig``:
    their cone classes and conditioning name the cause.
    """
    w, V = np.linalg.eig(entries)
    norm = float(np.linalg.svd(entries, compute_uv=False)[0])  # operator 2-norm
    reality = float(np.abs(w.imag).max())
    if reality > TOL_REALITY_REL * norm:
        raise ComplexSpectrum(
            f"imaginary parts reach {reality:.3e}, above tol {TOL_REALITY_REL * norm:.3e}"
        )
    theta = np.sort(w.real)
    if sig.p and sig.q:
        try:
            np.linalg.cholesky(-_shifted_form(entries, sig, _gap_point(theta, sig.p)))
        except np.linalg.LinAlgError:
            pass
        else:
            raise GapViolation(
                f"negative-type block sits entirely above the positive-type block "
                f"(smallest negative-type {float(theta[sig.p])!r} > largest positive-type "
                f"{float(theta[sig.p - 1])!r}); admissible for the opposite orientation",
                other_component=True,
            )
    smin = np.linalg.svd(V, compute_uv=False)[-1]
    if smin <= TOL_DEFECT:
        raise DefectiveMatrix(f"eigenvector matrix has smallest singular value {smin:.3e}")
    # cone classes by the sign of each eigenvector's self-pairing, outside the null band
    squares = V.real**2 + V.imag**2
    pairing = metric_diagonal(sig) @ squares
    band = TOL_NULL_REL * squares.sum(axis=0)
    pos, neg = pairing > band, pairing < -band
    if pos.sum() != sig.p or neg.sum() != sig.q:
        raise WrongConeCount(
            f"expected {sig.p} positive-type and {sig.q} negative-type eigenvectors, "
            f"got {pos.sum()} and {neg.sum()} (null: {w.size - pos.sum() - neg.sum()})"
        )
    lowest = float(w.real[pos].min(initial=np.inf))
    highest = float(w.real[neg].max(initial=-np.inf))
    raise GapViolation(
        f"strict gap violated: smallest positive-type {lowest!r} "
        f"does not exceed largest negative-type {highest!r}"
    )


def positive_eigenbasis(system: ClassifiedEigenSystem) -> np.ndarray:
    """The p positive-type eigenvectors, ascending by eigenvalue, pseudo-orthonormal."""
    return system.eigenvectors[:, system.signature.q :]


def negative_eigenbasis(system: ClassifiedEigenSystem) -> np.ndarray:
    """The q negative-type eigenvectors, ascending by eigenvalue, with pairings -I."""
    return system.eigenvectors[:, : system.signature.q]
