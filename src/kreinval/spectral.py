"""Eigenstructure of pseudo-Hermitian matrices: classification, admissibility,
Rayleigh ratios, and compressions onto positive frames.

A matrix is admissible when it diagonalizes over the reals with exactly p
positive-type and q negative-type eigenvectors and the smallest positive-type
eigenvalue strictly exceeds the largest negative-type one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import AdmissibleSpectrum, PseudoHermitianMatrix, Signature, metric_diagonal
from .errors import (
    ComplexSpectrum,
    DefectiveMatrix,
    GapViolation,
    NullDegeneracy,
    OrientationMismatch,
    WrongConeCount,
)
from .geometry import (
    NEGATIVE,
    NULL,
    POSITIVE,
    TOL_NULL_REL,
    PseudoOrthonormalFrame,
    gram,
    pseudo_orthonormalize,
)

#: eigenvalue clustering gap, relative to the operator norm
TOL_CLUSTER_REL = 1e-7
#: acceptance on the imaginary part of eigenvalues, relative to the operator norm
TOL_REALITY_REL = 1e-8
#: smallest-singular-value cutoff declaring the eigenvector matrix defective
TOL_DEFECT = 1e-12


def rayleigh_columns(entries, sig: Signature, X: np.ndarray) -> np.ndarray:
    """Vectorized Rayleigh ratios over the columns of X (no null-band guard)."""
    M = np.asarray(entries, dtype=complex)
    jd = metric_diagonal(sig)
    num = np.einsum("ij,ij->j", X.conj(), jd[:, None] * (M @ X)).real
    den = np.einsum("ij,ij->j", X.conj(), jd[:, None] * X).real
    return num / den


@dataclass(frozen=True)
class ClassifiedEigenSystem:
    """Eigenpairs sorted ascending by real part, with per-vector cone classes.

    Within a repeated-eigenvalue cluster the eigenvectors are re-orthonormalized
    for the pairing when the restricted Gram is definite.  Null vectors and
    the vectors of a cluster with an indefinite Gram keep unit Euclidean
    norm; every other vector is scaled to self-pairing +-1.  ``reality_defect`` is the largest |Im eigenvalue| and
    ``norm`` the operator 2-norm of the matrix, which scales the cluster and
    reality tolerances.  Systems returned by ``eigendecompose`` are shared,
    so their arrays are read-only.
    """

    signature: Signature
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cone_classes: tuple[str, ...]
    reality_defect: float
    norm: float

    def class_indices(self, cone_class: str) -> list[int]:
        return [i for i, c in enumerate(self.cone_classes) if c == cone_class]


def eigendecompose(A: PseudoHermitianMatrix) -> ClassifiedEigenSystem:
    """Dense eigendecomposition with cone classification, memoized by value.

    Clusters eigenvalues whose mutual distance is below 1e-7 times the
    operator norm and pseudo-orthonormalizes inside each cluster when the
    restricted pairing is definite, so repeated eigenvalues still yield
    usable frames.  Eigenvalues are kept as computed; only eigenvectors are
    recombined, and only within a cluster.

    Matrices with the same signature and the same entry bytes share one
    solve: every check on A, B and A + B of an instance reads the same
    system.  The result depends on the entries alone, so the memo never
    changes what a caller sees.
    """
    return _solve(A.signature, A.entries.tobytes())


@functools.lru_cache(maxsize=32)
def _solve(sig: Signature, data: bytes) -> ClassifiedEigenSystem:
    entries = np.frombuffer(data, dtype=complex).reshape(sig.n, sig.n)
    norm = float(np.linalg.svd(entries, compute_uv=False)[0])  # operator 2-norm
    w, V = np.linalg.eig(entries)

    smin = np.linalg.svd(V, compute_uv=False)[-1]
    if smin <= TOL_DEFECT:
        raise DefectiveMatrix(f"eigenvector matrix has smallest singular value {smin:.3e}")

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vectors = V[:, order]

    # consecutive eigenvalues closer than the cluster gap share a cluster;
    # only clusters of two or more vectors are re-orthonormalized
    in_cluster = np.zeros(w.size, dtype=bool)
    close = np.abs(w[1:] - w[:-1]) < TOL_CLUSTER_REL * norm
    if close.any():
        for cols in np.split(np.arange(w.size), np.flatnonzero(~close) + 1):
            if cols.size == 1:
                continue
            in_cluster[cols] = True
            block = vectors[:, cols]
            eigs = np.linalg.eigvalsh(gram(block, sig))
            try:
                if eigs[0] > 0:
                    frame = pseudo_orthonormalize(block, sig, POSITIVE)
                    vectors[:, cols] = frame.vectors
                elif eigs[-1] < 0:
                    frame = pseudo_orthonormalize(block, sig, NEGATIVE)
                    vectors[:, cols] = frame.vectors
                # mixed restricted Gram: leave the computed vectors alone
            except (NullDegeneracy, OrientationMismatch):
                pass

    # one pairing and one null-band test for every column, as classify does per vector
    squares = vectors.real**2 + vectors.imag**2
    pairing = metric_diagonal(sig) @ squares
    band = TOL_NULL_REL * squares.sum(axis=0)
    classes = np.where(pairing > band, POSITIVE, np.where(pairing < -band, NEGATIVE, NULL))
    # non-null vectors outside a cluster get self-pairing +-1; the others are divided by 1
    scale = ~in_cluster & (classes != NULL)
    vectors /= np.where(scale, np.sqrt(np.abs(pairing)), 1.0)

    defect = float(np.max(np.abs(w.imag))) if w.size else 0.0
    w.flags.writeable = False
    vectors.flags.writeable = False
    return ClassifiedEigenSystem(
        signature=sig,
        eigenvalues=w,
        eigenvectors=vectors,
        cone_classes=tuple(classes.tolist()),
        reality_defect=defect,
        norm=norm,
    )


def check_admissible(A: PseudoHermitianMatrix) -> AdmissibleSpectrum:
    """Classify the spectrum and enforce admissibility, memoized by value.

    The accepted imaginary part of eigenvalues is 1e-8 times the operator
    norm.  Raises ComplexSpectrum, WrongConeCount, or GapViolation; the
    GapViolation carries ``other_component=True`` when the matrix is
    admissible for the opposite orientation (every negative-type eigenvalue
    above every positive-type one).

    Like ``eigendecompose``, matrices with the same signature and entry
    bytes share one result: the checks run and the spectrum is built once
    per distinct matrix, and every caller gets the same read-only spectrum.
    Failures are not kept, so an inadmissible matrix raises a new typed
    error on every call (from the shared solve).
    """
    return _admissible(A.signature, A.entries.tobytes())


@functools.lru_cache(maxsize=32)
def _admissible(sig: Signature, data: bytes) -> AdmissibleSpectrum:
    system = _solve(sig, data)
    tol = TOL_REALITY_REL * system.norm
    if system.reality_defect > tol:
        raise ComplexSpectrum(
            f"imaginary parts reach {system.reality_defect:.3e}, above tol {tol:.3e}"
        )
    pos = system.class_indices(POSITIVE)
    neg = system.class_indices(NEGATIVE)
    if len(pos) != sig.p or len(neg) != sig.q:
        raise WrongConeCount(
            f"expected {sig.p} positive-type and {sig.q} negative-type eigenvectors, "
            f"got {len(pos)} and {len(neg)} "
            f"(null: {len(system.class_indices('null'))})"
        )
    lambdas = np.sort(system.eigenvalues[pos].real)
    mus = np.sort(system.eigenvalues[neg].real)[::-1]
    if lambdas.size and mus.size and not lambdas[0] > mus[0]:
        if mus[-1] > lambdas[-1]:
            raise GapViolation(
                f"negative-type block sits entirely above the positive-type block "
                f"(smallest negative-type {mus[-1]!r} > largest positive-type {lambdas[-1]!r}); "
                "admissible for the opposite orientation",
                other_component=True,
            )
        raise GapViolation(
            f"strict gap violated: smallest positive-type {lambdas[0]!r} "
            f"does not exceed largest negative-type {mus[0]!r}"
        )
    return AdmissibleSpectrum(sig, lambdas, mus)


def positive_eigenbasis(system: ClassifiedEigenSystem) -> np.ndarray:
    """Columns of positive-type eigenvectors, ascending by eigenvalue.

    Requires exactly p positive-type vectors; the result is pseudo-orthonormal
    for admissible inputs (cross-pairings vanish for distinct real
    eigenvalues, clusters were cleaned during decomposition).
    """
    sig = system.signature
    pos = system.class_indices(POSITIVE)
    if len(pos) != sig.p:
        raise WrongConeCount(f"expected {sig.p} positive-type eigenvectors, got {len(pos)}")
    return system.eigenvectors[:, pos]


def negative_eigenbasis(system: ClassifiedEigenSystem) -> np.ndarray:
    """Columns of negative-type eigenvectors, ascending by eigenvalue."""
    sig = system.signature
    neg = system.class_indices(NEGATIVE)
    if len(neg) != sig.q:
        raise WrongConeCount(f"expected {sig.q} negative-type eigenvectors, got {len(neg)}")
    return system.eigenvectors[:, neg]


def eigenvector_frame(system: ClassifiedEigenSystem, indices) -> PseudoOrthonormalFrame:
    """Positive frame spanned by the chosen positive-type eigenvectors.

    ``indices`` are 1-based positions into the ascending positive-type list.
    The vectors are re-orthonormalized, which is a no-op up to phase when they
    are already pairwise orthogonal.
    """
    basis = positive_eigenbasis(system)
    cols = [int(i) - 1 for i in indices]
    if any(c < 0 or c >= basis.shape[1] for c in cols):
        raise ValueError(f"eigenvector indices out of range 1..{basis.shape[1]}: {indices}")
    return pseudo_orthonormalize(basis[:, cols], system.signature, POSITIVE)


@dataclass(frozen=True)
class CompressionResult:
    """A compression of A onto a positive frame, with its real spectrum.

    For a stacked frame, ``compressed`` is (..., k, k) and ``etas`` (..., k).
    """

    frame: PseudoOrthonormalFrame
    compressed: np.ndarray
    etas: np.ndarray


def compress(A: PseudoHermitianMatrix, frame: PseudoOrthonormalFrame) -> CompressionResult:
    """Compress A onto a pseudo-orthonormal positive frame.

    The compressed matrix has entries m[k, j] = <A x_j, x_k>.  It is Hermitian
    because J A is, so its eigenvalues (returned ascending) are real; its
    trace equals the sum of the Rayleigh ratios of the frame vectors.  A
    stacked frame is compressed with one batched product and one batched
    eigvalsh.
    """
    if frame.orientation != POSITIVE:
        raise OrientationMismatch("compression is defined on positive frames")
    if frame.signature != A.signature:
        raise ValueError("frame and matrix must share a signature")
    X = frame.vectors
    jd = metric_diagonal(A.signature)
    M = np.swapaxes(X, -1, -2).conj() @ (jd[:, None] * (A.entries @ X))
    M = 0.5 * (M + np.swapaxes(M, -1, -2).conj())
    etas = np.linalg.eigvalsh(M)
    return CompressionResult(frame=frame, compressed=M, etas=etas)
