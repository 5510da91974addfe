"""Seeded generation of admissible instances.

All samplers draw from an explicit numpy Generator, so identical seeds give
bit-identical output.  An instance is a planted spectrum conjugated by a
pseudo-unitary, and pseudo-unitaries come from exponentiating elements of
the isometry Lie algebra (B J + J B* = 0): skew-Hermitian diagonal blocks and
a free off-diagonal coupling block whose spectral norm is capped by
``boost_scale``.  The exponential is ``_expm``, a numpy kernel for scaling
and squaring with the [13/13] Padé approximant (Higham, SIAM J. Matrix Anal.
Appl. 26 (2005) 1179-1193).  Nothing here draws subspaces: the checks
certify their bounds for every positive subspace, and the tests draw their
own subspaces to hold the certificates to.

A planted matrix reads its stream in one order: one uniform draw of the
p + q eigenvalues, then each generator draw in turn until a conjugator is
accepted, rejected draws included.  A generator draw is one draw of
normals, re G1, im G1, re G2, im G2 and, when p, q and ``boost_scale`` are
all nonzero, re Z and im Z, each block row-major; in that case one uniform
draw of the coupling norm t follows.  An instance draws A and then B this
way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AdmissibleSpectrum,
    PseudoHermitianMatrix,
    PseudoUnitary,
    Signature,
    metric_diagonal,
)
from .errors import NonFiniteValue, RetriesExhausted
from .spectral import _gap_point

#: tolerance used to self-check sampled pseudo-unitaries
SAMPLE_UNITARY_TOL = 1e-9
#: draws of a pseudo-unitary before ``sample_pseudo_unitary`` raises RetriesExhausted
MAX_RETRIES = 64

#: largest ||X||_1 at which the [13/13] Padé approximant gives exp(X) to double precision
_THETA_13 = 5.371920351148152
# Padé numerator coefficients b_0 .. b_13 over b_0, so that exp(0) solves to I exactly
_PADE_13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0
# rows turning the stacked powers (I, X^2, X^4, X^6) into W_1 .. W_4 of _expm
_PADE_ROWS = np.array([
    [0.0, _PADE_13[9], _PADE_13[11], _PADE_13[13]],
    [_PADE_13[1], _PADE_13[3], _PADE_13[5], _PADE_13[7]],
    [0.0, _PADE_13[8], _PADE_13[10], _PADE_13[12]],
    [_PADE_13[0], _PADE_13[2], _PADE_13[4], _PADE_13[6]],
], dtype=complex)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for instance generation.

    gap_min         enforced lower bound on lambdas[0] - mus[0]
    value_range     uniform range eigenvalues are drawn from
    boost_scale     cap on the off-diagonal Lie-algebra block norm
    cond_cap        resample until cond(U) stays below this

    It holds no seed: every draw comes from the Generator a sampler is
    given, ``instance_rng(seed, index)`` for an instance.
    """

    gap_min: float = 0.5
    value_range: tuple[float, float] = (-2.0, 2.0)
    boost_scale: float = 1.0
    cond_cap: float = 1e4

    def __post_init__(self) -> None:
        lo, hi = self.value_range
        # an infinite or NaN end, or a width that overflows, has no uniform draw
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"value_range must be finite and increasing, got {self.value_range}")
        if not 0 < self.gap_min < math.inf:
            raise ValueError(f"gap_min must be positive and finite, got {self.gap_min}")
        if not self.cond_cap > 1:
            raise ValueError("cond_cap must exceed 1")
        if not 0 <= self.boost_scale < math.inf:
            raise ValueError(f"boost_scale must be >= 0 and finite, got {self.boost_scale}")


def instance_rng(seed: int, index: int = 0, *subkeys: int) -> np.random.Generator:
    """Independent stream for one instance, derived from (seed, index).

    The non-negative ``seed`` is the ``SeedSequence`` entropy as given, so
    distinct seeds give distinct streams.

    The instance stream (seed, index) draws A and then B, and it is the only
    stream an instance reads.  Extra ``subkeys`` derive further independent
    streams keyed by (index, *subkeys), for callers that draw data of their
    own beside an instance.
    """
    key = (int(index), *(int(k) for k in subkeys))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.default_rng(ss)


def sample_spectrum(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator) -> AdmissibleSpectrum:
    """Uniform eigenvalue draws with the gap enforced by shifting the positive block.

    One draw of p + q uniforms: the first p are the positive-type block and
    the last q the negative-type block.
    """
    lo, hi = cfg.value_range
    values = rng.uniform(lo, hi, sig.n)
    lam = np.sort(values[: sig.p])
    mu = np.sort(values[sig.p :])[::-1]
    if sig.p and sig.q:
        gap = lam[0] - mu[0]
        if gap < cfg.gap_min:
            lam = lam + (cfg.gap_min - gap)
    return AdmissibleSpectrum(sig, lam, mu)


@functools.lru_cache(maxsize=64)
def _generator_layout(sig: Signature, coupled: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the normals of one generator draw go, built on first use per signature.

    A draw holds re G1, im G1, re G2, im G2 and, when ``coupled``, re Z and
    im Z, each block row-major.  Returns the positions of the real and of the
    imaginary part of every complex entry (G1, G2, then Z) in the draw, and
    the flat positions of G1 and G2 in the n x n generator.
    """
    p, q, n = sig.p, sig.q, sig.n
    sizes = [p * p, q * q] + ([p * q] if coupled else [])
    starts = np.cumsum([0] + [2 * size for size in sizes[:-1]])
    real = np.concatenate([start + np.arange(size) for start, size in zip(starts, sizes)])
    imag = real + np.repeat(sizes, sizes)
    block = np.concatenate([(idx[:, None] * n + idx).ravel() for idx in (np.arange(p), np.arange(p, n))])
    for arr in (real, imag, block):
        arr.flags.writeable = False
    return real, imag, block


def _lie_algebra_element(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """Random generator with skew-Hermitian diagonal blocks and capped coupling.

    G1 (p x p), G2 (q x q) and, when both blocks and the boost are nonzero,
    the coupling Z (p x q) are standard complex Gaussians with variance 1 per
    entry, all from one draw of normals laid out by ``_generator_layout``;
    one uniform draw then gives Z's norm t.
    """
    p, n = sig.p, sig.n
    coupled = bool(p and sig.q and cfg.boost_scale > 0)
    real, imag, block = _generator_layout(sig, coupled)
    normals = rng.standard_normal(2 * real.size)
    entries = (normals[real] + 1j * normals[imag]) / np.sqrt(2.0)
    D = np.zeros((n, n), dtype=complex)
    D.reshape(-1)[block] = entries[: block.size]
    gen = 0.5 * (D - D.conj().T)
    if coupled:
        Z = entries[block.size :].reshape(p, sig.q)
        t = rng.uniform(0.0, cfg.boost_scale)
        zn = np.linalg.svd(Z, compute_uv=False)[0]
        if zn > 0:
            Z = Z * (t / zn)
        gen[:p, p:] = Z
        gen[p:, :p] = Z.conj().T
    return gen


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) by scaling and squaring with the [13/13] Padé approximant (Higham 2005).

    X is scaled by 2^-s, the least power with ||2^-s X||_1 <= theta_13.  The
    approximant is r = (V - U)^-1 (V + U) with the odd part U = X (X^6 W_1 + W_2)
    and the even part V = X^6 W_3 + W_4; one product of the coefficient rows
    with the stacked powers gives every W, and one stacked product both X^6
    terms.  r is then squared s times.  A generator whose norm is not finite
    has no exponential and raises NonFiniteValue.
    """
    n = X.shape[0]
    norm = np.abs(X).sum(axis=0).max()
    if not math.isfinite(norm):
        raise NonFiniteValue("the generator's norm is not finite")
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    if s:
        X = X * 2.0**-s
    P = np.empty((4, n, n), dtype=complex)
    P[0] = np.eye(n)
    np.matmul(X, X, out=P[1])
    np.matmul(P[1], P[1], out=P[2])
    np.matmul(P[2], P[1], out=P[3])
    W = (_PADE_ROWS @ P.reshape(4, n * n)).reshape(4, n, n)
    H = P[3] @ W[0::2]
    U = X @ (H[0] + W[1])
    V = H[1] + W[3]
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
        if not np.isfinite(R[0, 0]):  # overflowed: R[0, 0]^2 keeps every later square non-finite
            break
    return R


def _draw_pseudo_unitary(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator) -> PseudoUnitary:
    """The retry loop of ``sample_pseudo_unitary``, under its caller's errstate."""
    for _ in range(MAX_RETRIES):
        gen = _lie_algebra_element(sig, cfg, rng)
        try:
            U = PseudoUnitary(sig, _expm(gen), tol=SAMPLE_UNITARY_TOL)
        except ValueError:  # the exponential overflowed or left the group
            continue
        if U.cond <= cfg.cond_cap:
            return U
    raise RetriesExhausted(
        f"no pseudo-unitary with cond <= {cfg.cond_cap:.1e} in {MAX_RETRIES} draws"
    )


def sample_pseudo_unitary(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator) -> PseudoUnitary:
    """Exponential of a random Lie-algebra element, resampled until well conditioned.

    The exponential is ``_expm``, scaling and squaring with the [13/13] Padé
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193).
    Each draw's residual is checked once, by the PseudoUnitary it becomes, and
    its condition number is kept on it for later readers.  A draw that
    overflows, in the generator, its exponential or the residual, fails its
    checks and is drawn again.  After ``MAX_RETRIES`` draws without a
    conjugator it raises RetriesExhausted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _draw_pseudo_unitary(sig, cfg, rng)


def sample_planted(
    sig: Signature, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[PseudoHermitianMatrix, AdmissibleSpectrum, PseudoUnitary]:
    """Planted-spectrum instance A = U diag U^-1, returning the conjugator too.

    Using the dagger J U* J as the inverse keeps the construction exactly
    pseudo-Hermitian in exact arithmetic, independent of _expm's accuracy; the
    final symmetrization removes roundoff asymmetry.  The spectrum, the
    conjugator and their product are drawn under one errstate: huge spectra
    may overflow the product, which the matrix type then reports as
    NonFiniteValue.

    The matrix's ``shift_hint`` is the planted spectrum's gap point, by the
    rule the spectral solve uses for its own shift (``spectral._gap_point``)
    on the planted values: the solve verifies it with one Cholesky
    factorization and then needs no ``eigvals``.  It reads no random number:
    it is float arithmetic on the planted values.
    """
    jd = metric_diagonal(sig)
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = sample_spectrum(sig, cfg, rng)
        U = _draw_pseudo_unitary(sig, cfg, rng)
        # U times the canonical diagonal scales the columns of U
        raw = (U.entries * spectrum.canonical_vector()) @ (jd[:, None] * U.entries.conj().T * jd[None, :])
        sym = 0.5 * (raw + jd[:, None] * raw.conj().T * jd[None, :])
    hint = _gap_point(spectrum.mus[::-1].tolist() + spectrum.lambdas.tolist(), sig.q)
    return PseudoHermitianMatrix(sig, sym, shift_hint=hint), spectrum, U
