"""The indefinite pairing, cone classification, Gram matrices, and frames.

The pairing is linear in its first argument and conjugate-linear in the
second: <z, w> = sum_{i<=p} z_i conj(w_i) - sum_{j>p} z_j conj(w_j).
Vectors split into positive, negative, and null cone classes by the sign of
their self-pairing.

A basis X spans a positive subspace iff its paired Gram X* J X is positive
definite, which one Cholesky factorization L L^H of the Gram decides: its
pivots are the self-pairings of the columns cleaned against the earlier
ones.  The same factor gives the pseudo-orthonormal frame X L^-H, whose
first k columns are a frame of the first k columns of X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Signature, metric_diagonal
from .errors import (
    NullDegeneracy,
    OrientationMismatch,
    ShapeMismatch,
)

POSITIVE = "positive"
NEGATIVE = "negative"
NULL = "null"

#: null band half-width relative to the squared Euclidean norm
TOL_NULL_REL = 1e-9
#: acceptance on frame Gram deviation from +/- identity
TOL_FRAME = 1e-8
#: smallest Cholesky pivot, relative to its input column's squared norm, of a positive subspace
TOL_CONE = 1e-9


def _as_vector(z, n: int) -> np.ndarray:
    arr = np.asarray(z, dtype=complex).reshape(-1)
    if arr.size != n:
        raise ShapeMismatch(f"vector must have length {n}, got {arr.size}")
    return arr


def as_basis(vectors, n: int | None = None) -> np.ndarray:
    """Coerce input to an n x k array whose columns are the basis vectors.

    ndarrays are taken column-wise as given, and an ndarray with more than two
    axes is a stack of such bases (..., n, k); python sequences are read as
    sequences of vectors and stacked into columns.
    """
    if isinstance(vectors, np.ndarray):
        arr = np.asarray(vectors, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
    else:
        arr = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    if arr.ndim < 2 or arr.shape[-1] == 0:
        raise ShapeMismatch(f"basis must be a nonempty column stack, got shape {arr.shape}")
    if n is not None and arr.shape[-2] != n:
        raise ShapeMismatch(f"basis vectors must have length {n}, got {arr.shape[-2]}")
    return arr


def _adjoint(B: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return B.swapaxes(-1, -2).conj()


def pair(z, w, sig: Signature) -> complex:
    """Indefinite pairing <z, w>, linear in z and conjugate-linear in w."""
    zv = _as_vector(z, sig.n)
    wv = _as_vector(w, sig.n)
    jd = metric_diagonal(sig)
    return complex(np.sum(jd * zv * wv.conj()))


def self_pairing(z, sig: Signature) -> float:
    """<z, z>, which is exactly real; the imaginary residue is dropped."""
    return pair(z, w=z, sig=sig).real


@dataclass(frozen=True)
class ClassifiedVector:
    """A vector together with its self-pairing and cone class."""

    vector: np.ndarray
    self_pairing: float
    cone_class: str


def classify(z, sig: Signature, tol_null: float = TOL_NULL_REL) -> ClassifiedVector:
    """Assign the cone class by the sign of <z, z>.

    The null band is ``tol_null`` times the squared Euclidean norm, so the
    decision is scale-invariant.
    """
    zv = _as_vector(z, sig.n)
    s = self_pairing(zv, sig)
    band = tol_null * float(np.vdot(zv, zv).real)
    if s > band:
        cls = POSITIVE
    elif s < -band:
        cls = NEGATIVE
    else:
        cls = NULL
    return ClassifiedVector(vector=zv, self_pairing=s, cone_class=cls)


def gram(basis, sig: Signature) -> np.ndarray:
    """Pairing Gram matrix G with G[i, j] = <b_j, b_i>; Hermitian by construction.

    A stack of bases (..., n, k) gives the stack of their Grams (..., k, k).
    """
    B = as_basis(basis, sig.n)
    jd = metric_diagonal(sig)
    G = _adjoint(B) @ (jd[:, None] * B)
    return 0.5 * (G + _adjoint(G))


@dataclass(frozen=True)
class PseudoOrthonormalFrame:
    """Columns with pairwise pairings equal to +I (positive) or -I (negative).

    ``vectors`` is one n x k frame, or a stack (..., n, k) of frames that
    share the signature and orientation; every frame of a stack is checked.
    """

    signature: Signature
    vectors: np.ndarray
    orientation: str = POSITIVE
    tol: float = TOL_FRAME

    def __post_init__(self) -> None:
        if self.orientation not in (POSITIVE, NEGATIVE):
            raise ValueError(f"orientation must be positive or negative, got {self.orientation!r}")
        V = as_basis(self.vectors, self.signature.n)
        sign = 1.0 if self.orientation == POSITIVE else -1.0
        G = gram(V, self.signature)
        defect = float(np.abs(G - sign * np.eye(V.shape[-1])).max(initial=0.0))
        if defect > self.tol:
            raise ValueError(f"frame Gram deviates from {sign:+.0f}I by {defect:.3e}")
        V = np.array(V)
        V.flags.writeable = False
        object.__setattr__(self, "vectors", V)

    @property
    def size(self) -> int:
        return self.vectors.shape[-1]


def _cholesky_columns(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of a stack of Hermitian matrices, built one column at a time.

    Unlike ``np.linalg.cholesky`` it does not stop at an indefinite sample:
    it returns every pivot, and a pivot <= 0 gets a unit diagonal so the rest
    of the stack stays finite.  Used to find which sample and column failed.
    """
    k = G.shape[-1]
    L = np.zeros_like(G)
    pivots = np.empty(G.shape[:-1])
    for j in range(k):
        row = L[..., j, :j]
        pivots[..., j] = G[..., j, j].real - np.sum(np.abs(row) ** 2, axis=-1)
        diag = np.sqrt(np.where(pivots[..., j] > 0, pivots[..., j], 1.0))
        L[..., j, j] = diag
        below = G[..., j + 1 :, j] - (L[..., j + 1 :, :j] @ row.conj()[..., None])[..., 0]
        L[..., j + 1 :, j] = below / diag[..., None]
    return L, pivots


def _cholesky_frames(X: np.ndarray, sig: Signature, sign: float, tol_null: float):
    """X L^-H for the Cholesky factor L L^H = sign * gram(X), over a stack of bases.

    Pivot j is the self-pairing (times ``sign``) of column j cleaned against
    the columns before it, and |L_jj|^2 times the squared norm of frame
    column j is the squared norm of that cleaned vector, so the null band is
    tested exactly as in Gram-Schmidt: s <= tol * |v|^2, which is
    tol * |F_j|^2 >= 1 for a positive pivot.

    Returns the frames (..., n, k), the pivots (..., k), the squared norms
    of the cleaned vectors (..., k), and per sample the first column whose
    pivot lies in the null band or has the wrong sign (k when none does).
    Frames of a sample with such a column are not pseudo-orthonormal.
    """
    G = sign * gram(X, sig)
    try:
        L = np.linalg.cholesky(G)
        pivots = None
    except np.linalg.LinAlgError:
        L, pivots = _cholesky_columns(G)
    diag2 = np.abs(L.diagonal(axis1=-2, axis2=-1)) ** 2
    if pivots is None:
        pivots = diag2
    F = _adjoint(np.linalg.solve(L, _adjoint(X)))
    scale = (np.abs(F) ** 2).sum(axis=-2) * diag2
    # null band |s| <= tol * scale, zero scale and a wrong sign all fail this
    bad = ~(pivots > tol_null * scale)
    first_bad = np.where(bad.any(axis=-1), bad.argmax(axis=-1), X.shape[-1])
    return F, pivots, scale, first_bad


def _checked_frame(
    F: np.ndarray, sig: Signature, orientation: str, tol_null: float, tol_frame: float
) -> PseudoOrthonormalFrame:
    """The frame (or stack) F from _cholesky_frames, with its Gram defect checked.

    Cholesky squares the condition number of the input, so a nearly dependent
    basis can miss ``tol_frame``.  One more pass on F, whose Gram is already
    close to +/-I, repairs that, as the second Gram-Schmidt pass does.
    """
    try:
        return PseudoOrthonormalFrame(sig, F, orientation, tol=tol_frame)
    except ValueError:
        sign = 1.0 if orientation == POSITIVE else -1.0
        F = _cholesky_frames(F, sig, sign, tol_null)[0]
        return PseudoOrthonormalFrame(sig, F, orientation, tol=tol_frame)


def pseudo_orthonormalize(
    vectors,
    sig: Signature,
    orientation: str = POSITIVE,
    *,
    tol_null: float = TOL_NULL_REL,
    tol_frame: float = TOL_FRAME,
) -> PseudoOrthonormalFrame:
    """Pseudo-orthonormal frame of the columns: X L^-H with L L^H = +/- gram(X).

    For a definite Gram this is exactly the frame that Gram-Schmidt with a
    fixed pivot sign gives: for every j, the first j + 1 frame columns span
    the same space as the first j + 1 input columns.  A stack of bases (..., n, k) gives a stack of frames
    from one factorization.  A pivot inside the null band raises
    NullDegeneracy; a pivot of the wrong sign raises OrientationMismatch.
    Both name the first failing column (and sample, for a stack).
    """
    if orientation not in (POSITIVE, NEGATIVE):
        raise ValueError(f"orientation must be positive or negative, got {orientation!r}")
    sign = 1.0 if orientation == POSITIVE else -1.0
    B = as_basis(vectors, sig.n)
    F, pivots, scale, first_bad = _cholesky_frames(B, sig, sign, tol_null)
    k = B.shape[-1]
    if (first_bad < k).any():
        where = np.unravel_index(np.argmax(first_bad < k), first_bad.shape)
        col = int(first_bad[where])
        s = sign * float(pivots[where][col])
        sc = float(scale[where][col])
        at = f"column {col}" + (f" of sample {where[0]}" if where else "")
        if abs(s) <= tol_null * sc or sc == 0.0:
            raise NullDegeneracy(f"pivot {s:.3e} inside null band at {at} (scale {sc:.3e})")
        raise OrientationMismatch(
            f"pivot {s:.3e} has the wrong sign for a {orientation} frame at {at}"
        )
    return _checked_frame(F, sig, orientation, tol_null, tol_frame)


def projector(frame: PseudoOrthonormalFrame) -> np.ndarray:
    """Pairing-orthogonal projector onto the frame span.

    For a positive frame this is X X-dagger with X-dagger = X* J; idempotent
    and equal to its own metric adjoint.
    """
    X = frame.vectors
    jd = metric_diagonal(frame.signature)
    sign = 1.0 if frame.orientation == POSITIVE else -1.0
    return sign * (X @ (_adjoint(X) * jd))
