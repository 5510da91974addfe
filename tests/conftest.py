from dataclasses import dataclass

import numpy as np
import pytest

from kreinval import SamplerConfig, Signature
from kreinval.core import metric_diagonal
from kreinval.errors import OrientationMismatch
from kreinval.geometry import POSITIVE, TOL_NULL_REL, PseudoOrthonormalFrame, gram
from kreinval.sampling import complex_normal

SIGNATURES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.fixture(params=SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def signature(request):
    return Signature(*request.param)


@pytest.fixture
def sampler_cfg():
    return SamplerConfig(seed=2026)


@pytest.fixture
def fresh_memos():
    """Empty the value memos before and after the test.

    The test then starts from cold memos, and a result it computed under a
    patched function is not left behind for later tests.
    """
    from kreinval import checks, spectral

    memos = (
        spectral._solve,
        checks._sum_spectra_by_value,
        checks._enumerated_lidskii_sets,
        checks._enumerated_pair_sets,
        checks._enumerated_wielandt_layout,
    )
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


class NullVector(Exception):
    """The Rayleigh oracle was asked for a ratio at a (near-)null vector."""


def _rayleigh(A, x, sig, *, tol_null=TOL_NULL_REL):
    """Indefinite Rayleigh ratio <A x, x> / <x, x> of one vector, an oracle for the kernels.

    Real whenever A is pseudo-Hermitian; the imaginary residue is dropped.
    Raises NullVector when the denominator sits in the null band.
    """
    xv = np.asarray(x, dtype=complex).reshape(-1)
    M = np.asarray(getattr(A, "entries", A), dtype=complex)
    jd = metric_diagonal(sig)
    den = float(np.sum(jd * xv * xv.conj()).real)
    scale = float(np.vdot(xv, xv).real)
    if scale == 0.0 or abs(den) <= tol_null * scale:
        raise NullVector(f"self-pairing {den:.3e} inside null band (norm^2 {scale:.3e})")
    num = np.sum(jd * (M @ xv) * xv.conj())
    return float(num.real / den)


@pytest.fixture
def rayleigh():
    return _rayleigh


def cone_margin(basis, sig, *, tol_rank=1e-10):
    """Positivity margin of each span, an oracle for the flag's Cholesky certificate.

    The smallest eigenvalue of the paired Gram of a Euclidean-orthonormal
    basis of the span: it depends on the span only and lies in [-1, 1].  A
    numerically rank-deficient basis (smallest singular value at most
    ``tol_rank`` times the largest) gets -inf.  A stack of bases (..., n, k)
    gives an array of margins.
    """
    u, s, _ = np.linalg.svd(np.asarray(basis, dtype=complex), full_matrices=False)
    margins = np.linalg.eigvalsh(gram(u, sig))[..., 0]
    return np.where(s[..., -1] <= tol_rank * np.maximum(s[..., 0], 1e-300), -np.inf, margins)


@dataclass(frozen=True)
class CompressionResult:
    """A compression of A onto a positive frame, with its real spectrum.

    For a stacked frame, ``compressed`` is (..., k, k) and ``etas`` (..., k).
    """

    frame: PseudoOrthonormalFrame
    compressed: np.ndarray
    etas: np.ndarray


def compress(A, frame: PseudoOrthonormalFrame) -> CompressionResult:
    """Compress A onto a pseudo-orthonormal positive frame, an oracle for the checks' stacks.

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
    return CompressionResult(frame=frame, compressed=M, etas=np.linalg.eigvalsh(M))


def subordinate_coordinates(index_tuples, rng, count):
    """Orthonormal coordinates of ``count`` random frames subordinate to the flag of each tuple, shape by shape.

    The eigenflag oracle: it reads the draw ``sampling.subordinate_frames``
    reads, one ``complex_normal`` call, in the same order, and
    orthonormalizes it by Householder QR instead of Gram-Schmidt.  In a
    flag's ``frame`` the pairing is Euclidean and level j is E_{idx[j]},
    the span of the first idx[j] unit vectors.  The tuples of one shape
    (r, m), m = len(idx), form a group, orthonormalized by one batched QR;
    groups come in order of first appearance, each as the positions of its
    tuples in ``index_tuples`` and their coordinates (count, g, r, m).  The
    levels are nested, so column j and every column before it vanish below
    row idx[j]; the Householder reflections keep that zero pattern, so
    column j of Q lies in E_{idx[j]} at any rank, and ``flag.frame @ Q[:, g]``
    is a subordinate frame of the flag of the group's g-th tuple.
    """
    groups = {}
    for pos, idx in enumerate(index_tuples):
        groups.setdefault((idx[-1], len(idx)), []).append(pos)
    # mask[t, i, j]: row i of column j is free for tuple t, i < idx_t[j]
    masks = [
        np.arange(r)[:, None] < np.array([index_tuples[t] for t in group])[:, None, :]
        for (r, _), group in groups.items()
    ]
    sizes = [int(mask.sum()) for mask in masks]
    G = complex_normal(rng, count, sum(sizes))
    out, start = [], 0
    for group, mask, size in zip(groups.values(), masks, sizes):
        C = np.zeros((count, *mask.shape), dtype=complex)
        C[:, mask] = G[:, start : start + size]
        start += size
        out.append((group, np.linalg.qr(C)[0]))
    return out
