"""Seeded generation of admissible instances and cone geometry.

All samplers draw from an explicit numpy Generator, so identical seeds give
bit-identical output.  Pseudo-unitaries come from exponentiating elements of
the isometry Lie algebra (B J + J B* = 0): skew-Hermitian diagonal blocks and
a free off-diagonal coupling block whose spectral norm is capped by
``boost_scale``.  Positive subspaces are graphs (Q; K Q) of contractions K
over isometries Q, which reach every positive subspace of the given dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    AdmissibleSpectrum,
    PseudoHermitianMatrix,
    PseudoUnitary,
    Signature,
    canonical_diagonal,
    check_index_tuple,
    matrix_dagger,
    validate_pseudo_unitary,
)
from .errors import NullDegeneracy, RetriesExhausted, ShapeMismatch
from .geometry import (
    POSITIVE,
    TOL_CONE,
    TOL_FRAME,
    TOL_NULL_REL,
    PseudoOrthonormalFrame,
    _checked_frame,
    _cholesky_frames,
    positive_cone_margin,
    subspace_in_positive_cone,
)

#: tolerance used to self-check sampled pseudo-unitaries
SAMPLE_UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for instance generation.

    seed            base seed for derived per-instance streams
    gap_min         enforced lower bound on lambdas[0] - mus[0]
    value_range     uniform range eigenvalues are drawn from
    boost_scale     cap on the off-diagonal Lie-algebra block norm
    cond_cap        resample until cond(U) stays below this
    contraction_cap cap on ||K||_2 in graph subspaces
    max_retries     bounded-retry budget before RetriesExhausted
    """

    seed: int = 0
    gap_min: float = 0.5
    value_range: tuple[float, float] = (-2.0, 2.0)
    boost_scale: float = 1.0
    cond_cap: float = 1e4
    contraction_cap: float = 0.9
    max_retries: int = 64

    def __post_init__(self) -> None:
        lo, hi = self.value_range
        if not lo < hi:
            raise ValueError(f"value_range must be increasing, got {self.value_range}")
        if self.gap_min <= 0:
            raise ValueError("gap_min must be positive")
        if self.cond_cap <= 1:
            raise ValueError("cond_cap must exceed 1")
        if self.boost_scale < 0:
            raise ValueError("boost_scale must be >= 0")
        if not 0 < self.contraction_cap < 1:
            raise ValueError("contraction_cap must lie in (0, 1)")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


def instance_rng(seed: int, index: int = 0, *subkeys: int) -> np.random.Generator:
    """Independent stream for one instance, derived from (seed, index).

    Extra ``subkeys`` derive further independent streams of the same instance,
    such as one per check suite.
    """
    key = (int(index), *(int(k) for k in subkeys))
    ss = np.random.SeedSequence(entropy=int(seed) % 2**64, spawn_key=key)
    return np.random.default_rng(ss)


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian array of the given shape (variance 1 per complex entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_spectrum(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator) -> AdmissibleSpectrum:
    """Uniform eigenvalue draws with the gap enforced by shifting the positive block."""
    lo, hi = cfg.value_range
    lam = np.sort(rng.uniform(lo, hi, sig.p))
    mu = np.sort(rng.uniform(lo, hi, sig.q))[::-1]
    if sig.p and sig.q:
        gap = lam[0] - mu[0]
        if gap < cfg.gap_min:
            lam = lam + (cfg.gap_min - gap)
    return AdmissibleSpectrum(sig, lam, mu)


def _lie_algebra_element(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """Random generator with skew-Hermitian diagonal blocks and capped coupling."""
    p, q = sig.p, sig.q
    gen = np.zeros((sig.n, sig.n), dtype=complex)
    if p:
        G1 = complex_normal(rng, p, p)
        gen[:p, :p] = 0.5 * (G1 - G1.conj().T)
    if q:
        G2 = complex_normal(rng, q, q)
        gen[p:, p:] = 0.5 * (G2 - G2.conj().T)
    if p and q and cfg.boost_scale > 0:
        Z = complex_normal(rng, p, q)
        t = rng.uniform(0.0, cfg.boost_scale)
        zn = np.linalg.norm(Z, 2)
        if zn > 0:
            Z = Z * (t / zn)
        gen[:p, p:] = Z
        gen[p:, :p] = Z.conj().T
    return gen


def sample_pseudo_unitary(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator) -> PseudoUnitary:
    """Exponential of a random Lie-algebra element, resampled until well conditioned."""
    for _ in range(cfg.max_retries):
        gen = _lie_algebra_element(sig, cfg, rng)
        U = scipy.linalg.expm(gen)
        if np.linalg.cond(U, 2) > cfg.cond_cap:
            continue
        if not validate_pseudo_unitary(U, sig, SAMPLE_UNITARY_TOL):
            continue
        return PseudoUnitary(sig, U, tol=SAMPLE_UNITARY_TOL)
    raise RetriesExhausted(
        f"no pseudo-unitary with cond <= {cfg.cond_cap:.1e} in {cfg.max_retries} draws"
    )


def sample_planted(
    sig: Signature, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[PseudoHermitianMatrix, AdmissibleSpectrum, PseudoUnitary]:
    """Planted-spectrum instance A = U diag U^-1, returning the conjugator too.

    Using the dagger as the inverse keeps the construction exactly
    pseudo-Hermitian in exact arithmetic, independent of expm accuracy; the
    final symmetrization removes roundoff asymmetry.
    """
    spectrum = sample_spectrum(sig, cfg, rng)
    U = sample_pseudo_unitary(sig, cfg, rng)
    Lam = canonical_diagonal(spectrum)
    raw = U.entries @ Lam.entries @ U.inverse
    sym = 0.5 * (raw + matrix_dagger(raw, sig))
    return PseudoHermitianMatrix(sig, sym), spectrum, U


def sample_admissible(
    sig: Signature, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[PseudoHermitianMatrix, AdmissibleSpectrum]:
    """Planted-spectrum admissible matrix and the spectrum that was planted."""
    A, spectrum, _ = sample_planted(sig, cfg, rng)
    return A, spectrum


def sample_positive_subspace(
    sig: Signature,
    k: int,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    *,
    rotate: bool = False,
    count: int | None = None,
) -> np.ndarray:
    """Basis (columns) of a k-dimensional subspace inside the positive cone.

    Graph construction: columns (Q v; K Q v) with Q a p x k isometry and K a
    q x p contraction, so the raw Gram is Q* (I - K* K) Q and its spectrum is
    bounded below by 1 - contraction_cap^2.  With ``rotate`` the basis is
    pushed by a sampled pseudo-unitary, which preserves positivity.

    With ``count`` the result is a stack (count, n, k) of independent
    samples, drawn with one batched QR and one batched spectral norm and
    checked with one batched positivity margin; without it, the single
    basis is the first sample of a stack of one.
    """
    if not 1 <= k <= sig.p:
        raise ShapeMismatch(f"positive subspaces need 1 <= k <= p = {sig.p}, got k = {k}")
    N = 1 if count is None else int(count)
    Q = np.linalg.qr(complex_normal(rng, N, sig.p, k))[0]
    if sig.q:
        K = complex_normal(rng, N, sig.q, sig.p)
        kn = np.linalg.norm(K, 2, axis=(-2, -1))
        cap = rng.uniform(0.0, cfg.contraction_cap, N)
        K = K * (cap / np.where(kn > 0, kn, 1.0))[:, None, None]
        basis = np.concatenate([Q, K @ Q], axis=-2)
    else:
        basis = Q
    if rotate:
        basis = np.stack([sample_pseudo_unitary(sig, cfg, rng).entries for _ in range(N)]) @ basis
    if not subspace_in_positive_cone(basis, sig):
        raise NullDegeneracy("sampled graph subspace failed the positivity margin")
    return basis if count is not None else basis[0]


def restricted_cone_samples(
    pos_part: np.ndarray,
    neg_part: np.ndarray | None,
    count: int,
    rng: np.random.Generator,
    *,
    cap: float = 0.95,
) -> np.ndarray:
    """Columns of positive vectors inside the span of the given frame columns.

    ``pos_part`` and ``neg_part`` must have pseudo-orthonormal columns of
    positive resp. negative type (e.g. eigenvector blocks).  Coefficients on
    the negative part are scaled below ``cap`` times the positive-part norm,
    which keeps every sample strictly inside the positive cone.
    """
    a = pos_part.shape[1]
    if a < 1:
        raise ShapeMismatch("need at least one positive-type direction")
    alpha = complex_normal(rng, a, count)
    X = pos_part @ alpha
    if neg_part is not None and neg_part.shape[1]:
        beta = complex_normal(rng, neg_part.shape[1], count)
        shrink = rng.uniform(0.0, cap, count)
        na = np.linalg.norm(alpha, axis=0)
        nb = np.linalg.norm(beta, axis=0)
        nb = np.where(nb == 0.0, 1.0, nb)
        beta = beta * (shrink * na / nb)[None, :]
        X = X + neg_part @ beta
    return X


@dataclass(frozen=True)
class PositiveFlag:
    """Nested positive subspaces with dimensions given by a 1-based index tuple.

    Level j is spanned by the first ``index_tuple[j]`` columns of ``basis``,
    an n x w basis with w >= index_tuple[-1], or a stack (N, n, w) of N flags
    that share the signature and index tuple.  Only the top level's columns
    are kept, so the levels are nested by construction.  One positive-cone
    margin of the top level checks every level: a subspace of a positive
    subspace has a margin at least as large, and a column subset is never
    worse conditioned for the rank test.  For a stack one batched margin checks
    every sample, and a failure names the first failing sample.
    """

    signature: Signature
    index_tuple: tuple[int, ...]
    basis: np.ndarray

    def __post_init__(self) -> None:
        idx = check_index_tuple(self.index_tuple, self.signature.p)
        B = np.asarray(self.basis)
        if B.ndim not in (2, 3) or B.shape[-2] != self.signature.n or B.shape[-1] < idx[-1]:
            raise ShapeMismatch(
                f"flag basis must be (..., {self.signature.n}, >= {idx[-1]}), got {B.shape}"
            )
        B = np.array(B[..., : idx[-1]], dtype=complex)
        outside = np.atleast_1d(positive_cone_margin(B, self.signature)) < TOL_CONE
        if np.any(outside):
            raise ValueError(f"flag is not inside the positive cone{_at_sample(outside, B)}")
        B.flags.writeable = False
        object.__setattr__(self, "index_tuple", idx)
        object.__setattr__(self, "basis", B)

    @property
    def levels(self) -> tuple[np.ndarray, ...]:
        """Read-only column-prefix views of the basis, one per index tuple entry."""
        return tuple(self.basis[..., :dim] for dim in self.index_tuple)

    @property
    def depth(self) -> int:
        return len(self.index_tuple)


def _at_sample(bad: np.ndarray, B: np.ndarray) -> str:
    """' at sample i' naming the first failing flag of a stack; '' for one flag."""
    return f" at sample {int(np.argmax(bad))}" if B.ndim == 3 else ""


def subordinate_frame(
    flag: PositiveFlag,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    *,
    count: int | None = None,
) -> PseudoOrthonormalFrame:
    """Random pseudo-orthonormal frame with the j-th vector inside level j.

    One random vector is drawn per level and the columns are
    pseudo-orthonormalized by the Cholesky kernel; column j of X L^-H only
    combines columns <= j, and earlier levels nest inside later ones, so
    membership is preserved.  A column whose pivot is near-null (or of the
    wrong sign) is redrawn, at most ``cfg.max_retries`` draws per vector.

    With ``count`` the frame holds a stack (count, n, m) of independent
    frames; without it, the single frame is the first of a stack of one.
    A stack of N flags gets one frame per flag, a stack (N, n, m).
    """
    sig = flag.signature
    stacked = flag.basis.ndim == 3
    if stacked and count is not None:
        raise ShapeMismatch("a stack of flags draws one frame per flag; count is for one flag")
    N = flag.basis.shape[0] if stacked else 1 if count is None else int(count)
    dims = flag.index_tuple
    coeffs = [complex_normal(rng, N, d) for d in dims]
    draws = np.ones((N, len(dims)), dtype=int)
    while True:
        # row i of the coefficients draws from flag i of a stack, or from the one flag
        X = np.stack([(basis @ c[..., None])[..., 0] for c, basis in zip(coeffs, flag.levels)], axis=-1)
        F, _, _, first_bad = _cholesky_frames(X, sig, 1.0, TOL_NULL_REL)
        redo = np.flatnonzero(first_bad < len(dims))
        if redo.size == 0:
            break
        cols = first_bad[redo]
        if np.any(draws[redo, cols] >= cfg.max_retries):
            raise NullDegeneracy(
                f"could not draw a well-paired vector in {cfg.max_retries} attempts"
            )
        draws[redo, cols] += 1
        for j in np.unique(cols):
            rows = redo[cols == j]
            coeffs[j][rows] = complex_normal(rng, rows.size, dims[j])
    single = not stacked and count is None
    return _checked_frame(F[0] if single else F, sig, POSITIVE, TOL_NULL_REL, TOL_FRAME)


def sample_flag_with_subordinate(
    sig: Signature,
    index_tuple,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> tuple[PositiveFlag, PseudoOrthonormalFrame]:
    """Random positive flag for the index tuple plus one subordinate frame.

    A single graph basis of top-level dimension is drawn once; flag levels
    are its column prefixes, so nesting is exact.
    """
    idx = check_index_tuple(index_tuple, sig.p)
    flag = PositiveFlag(sig, idx, sample_positive_subspace(sig, idx[-1], cfg, rng))
    frame = subordinate_frame(flag, cfg, rng)
    return flag, frame
