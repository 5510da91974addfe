"""The indefinite pairing and Gram matrices.

The pairing is linear in its first argument and conjugate-linear in the
second: <z, w> = sum_{i<=p} z_i conj(w_i) - sum_{j>p} z_j conj(w_j).

A basis X spans a positive subspace iff its paired Gram X* J X is positive
definite.
"""

from __future__ import annotations

import numpy as np

from .core import Signature, metric_diagonal
from .errors import ShapeMismatch

#: null band half-width relative to the squared Euclidean norm
TOL_NULL_REL = 1e-9


def as_basis(vectors, n: int | None = None) -> np.ndarray:
    """Coerce input to an n x k array whose columns are the basis vectors.

    ndarrays are taken column-wise as given, and an ndarray with more than two
    axes is a stack of such bases (..., n, k); python sequences are read as
    sequences of vectors and stacked into columns.  An n x 0 array is the
    basis of the zero subspace, such as an empty eigenvector block.
    """
    if isinstance(vectors, np.ndarray):
        arr = np.asarray(vectors, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
    else:
        arr = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    if arr.ndim < 2:
        raise ShapeMismatch(f"basis must be a column stack, got shape {arr.shape}")
    if n is not None and arr.shape[-2] != n:
        raise ShapeMismatch(f"basis vectors must have length {n}, got {arr.shape[-2]}")
    return arr


def _adjoint(B: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return B.swapaxes(-1, -2).conj()


def gram(basis, sig: Signature) -> np.ndarray:
    """Pairing Gram matrix G with G[i, j] = <b_j, b_i>; Hermitian by construction.

    A stack of bases (..., n, k) gives the stack of their Grams (..., k, k).
    """
    B = as_basis(basis, sig.n)
    jd = metric_diagonal(sig)
    G = _adjoint(B) @ (jd[:, None] * B)
    return 0.5 * (G + _adjoint(G))
