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

The matrices of an instance are drawn as one stack: the generator
assembly, the coupling-norm SVD, ``_expm``, the condition-number SVD and
the conjugation product each run once over A and B, and every member gets
the bytes it gets alone.  The stream order stays the one above: A's
spectrum and first generator draw are read before B's, and a rejected first
draw of A rewinds the stream to just after it (``_sample_stack``).
``sample_planted`` is the stack of one, ``sample_planted_pair`` the stack
of two.  Every check stays per matrix: the pseudo-unitary residual, the
condition cap and the pseudo-Hermitian residual.
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
    _cond,
    metric_diagonal,
)
from .errors import RetriesExhausted
from .geometry import _adjoint
from .spectral import _gap_point

#: tolerance used to self-check sampled pseudo-unitaries
SAMPLE_UNITARY_TOL = 1e-9
#: draws of a pseudo-unitary before ``sample_pseudo_unitary`` raises RetriesExhausted
MAX_RETRIES = 64

_SQRT2 = np.sqrt(2.0)
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
    the last q the negative-type block.  The few values are sorted and
    shifted as Python floats, which is quicker than numpy and gives the
    same bytes.
    """
    lo, hi = cfg.value_range
    values = rng.uniform(lo, hi, sig.n).tolist()
    lam = sorted(values[: sig.p])
    mu = sorted(values[sig.p :], reverse=True)
    if lam and mu:
        gap = lam[0] - mu[0]
        if gap < cfg.gap_min:
            shift = cfg.gap_min - gap
            lam = [x + shift for x in lam]
    return AdmissibleSpectrum(sig, lam, mu)


@functools.lru_cache(maxsize=64)
def _generator_layout(sig: Signature, coupled: bool, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the normals of ``count`` generator draws go, built on first use per signature and count.

    A draw holds re G1, im G1, re G2, im G2 and, when ``coupled``, re Z and
    im Z, each block row-major, and the draws lie one after another.
    Returns the positions, among all the normals, of the real parts of every
    complex entry (G1, G2, then Z), draw by draw, followed by those of their
    imaginary parts; and the flat positions of G1 and G2 in the count
    generators (count, n, n).
    """
    p, q, n = sig.p, sig.q, sig.n
    sizes = [p * p, q * q] + ([p * q] if coupled else [])
    starts = np.cumsum([0] + [2 * size for size in sizes[:-1]])
    real = np.concatenate([start + np.arange(size) for start, size in zip(starts, sizes)])
    imag = real + np.repeat(sizes, sizes)
    block = np.concatenate([(idx[:, None] * n + idx).ravel() for idx in (np.arange(p), np.arange(p, n))])
    draws = np.arange(count)[:, None]
    parts = np.concatenate([(draws * 2 * real.size + real).ravel(), (draws * 2 * real.size + imag).ravel()])
    block = (draws * n * n + block).ravel()
    for arr in (parts, block):
        arr.flags.writeable = False
    return parts, block


def _generator_draw(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator, normals: np.ndarray) -> float:
    """One generator draw from the stream into ``normals``; returns the coupling norm t when coupled, else 0.0.

    The normals hold re G1, im G1, re G2, im G2 and, when p, q and the boost
    are all nonzero, re Z and im Z (``_generator_layout``); one uniform draw
    then gives t.
    """
    rng.standard_normal(out=normals)
    return rng.uniform(0.0, cfg.boost_scale) if sig.p and sig.q and cfg.boost_scale > 0 else 0.0


def _draw_size(sig: Signature, cfg: SamplerConfig) -> int:
    """How many normals one generator draw holds."""
    p, q = sig.p, sig.q
    return 2 * (p * p + q * q + (p * q if p and q and cfg.boost_scale > 0 else 0))


def _lie_algebra_elements(sig: Signature, cfg: SamplerConfig, normals: np.ndarray, t: list[float]) -> np.ndarray:
    """The generators (k, n, n) of k draws: skew-Hermitian diagonal blocks and capped coupling.

    ``normals`` (k, m) and ``t`` are the draws of ``_generator_draw``.  G1
    (p x p), G2 (q x q) and, when coupled, Z (p x q) are standard complex
    Gaussians with variance 1 per entry; Z is scaled to the norm t, and one
    SVD of the stack gives every Z's norm.
    """
    k, p, n = len(normals), sig.p, sig.n
    coupled = bool(p and sig.q and cfg.boost_scale > 0)
    parts, block = _generator_layout(sig, coupled, k)
    split = normals.reshape(-1)[parts]
    half = split.size // 2
    entries = ((split[:half] + 1j * split[half:]) / _SQRT2).reshape(k, -1)
    blocks = block.size // k  # entries of G1 and G2 in one draw
    D = np.zeros((k, n, n), dtype=complex)
    D.reshape(-1)[block] = entries[:, :blocks].reshape(-1)
    gen = 0.5 * (D - _adjoint(D))
    if coupled:
        Z = entries[:, blocks:].reshape(k, p, sig.q)
        for i, norm in enumerate(np.linalg.svd(Z, compute_uv=False)[:, 0].tolist()):
            if norm > 0:
                Z[i] *= t[i] / norm
        gen[:, :p, p:] = Z
        gen[:, p:, :p] = _adjoint(Z)
    return gen


def _expm(X: np.ndarray) -> np.ndarray:
    """exp of each matrix of the stack X (k, n, n), by scaling and squaring with the [13/13] Padé approximant.

    Each member is scaled by its own 2^-s, the least power with
    ||2^-s X||_1 <= theta_13 (Higham 2005).  The approximant is
    r = (V - U)^-1 (V + U) with the odd part U = X (X^6 W_1 + W_2) and the
    even part V = X^6 W_3 + W_4; one product of the coefficient rows with
    the stacked powers gives every W, and one stacked product both X^6
    terms.  Each r is then squared s times, and a member stops squaring once
    it overflows.  Every product and the solve run once over the stack and
    give each member the bytes it gets alone.  A member whose norm is not
    finite has no exponential and comes back NaN.
    """
    k, n = X.shape[0], X.shape[-1]
    norms = np.abs(X).sum(axis=1).max(axis=1).tolist()  # the 1-norm of each member
    unbounded = None
    if not math.isfinite(sum(norms)):  # the norms are >= 0: every one is finite, or the sum overflowed
        unbounded = [not math.isfinite(norm) for norm in norms]
        X = np.where(np.array(unbounded)[:, None, None], 0.0, X)
        norms = [0.0 if bad else norm for bad, norm in zip(unbounded, norms)]
    s = [math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0 for norm in norms]
    live = [i for i, e in enumerate(s) if e]
    if len(live) == k and min(s) == max(s):
        X = X * 2.0**-s[0]
    elif live:
        X = X.copy()
        for i in live:  # a member at s = 0 is not multiplied, which keeps the signs of its zeros
            X[i] *= 2.0**-s[i]
    P = np.empty((k, 4, n, n), dtype=complex)
    P[:, 0] = np.eye(n)
    X2, X4, X6 = P[:, 1], P[:, 2], P[:, 3]
    np.matmul(X, X, out=X2)
    np.matmul(X2, X2, out=X4)
    np.matmul(X4, X2, out=X6)
    W = (_PADE_ROWS @ P.reshape(k, 4, n * n)).reshape(k, 4, n, n)
    H = X6[:, None] @ W[:, 0::2]
    U = X @ (H[:, 0] + W[:, 1])
    V = H[:, 1] + W[:, 3]
    R = np.linalg.solve(V - U, V + U)
    step = 0
    while live:
        if len(live) == k:
            R = R @ R
        else:
            R[live] = R[live] @ R[live]
        step += 1
        # R[i, 0, 0]^2 keeps every later square non-finite, so a member that overflowed stops
        live = [i for i in live if s[i] > step and np.isfinite(R[i, 0, 0])]
    if unbounded is not None:
        R[unbounded] = np.nan
    return R


def _conjugators(
    sig: Signature, cfg: SamplerConfig, normals: np.ndarray, t: list[float]
) -> tuple[np.ndarray, list[PseudoUnitary | None]]:
    """The exponentials (k, n, n) of the generator draws, and the conjugator of each, or None where it is rejected.

    A draw is rejected when its exponential overflows or leaves the group,
    which the PseudoUnitary it becomes checks by its residual, or when its
    condition number exceeds ``cond_cap``.  The stack takes one ``_expm``
    and one SVD for the condition numbers of the members that pass the
    residual check; each member's ``cond`` is the one it computes alone.
    """
    R = _expm(_lie_algebra_elements(sig, cfg, normals, t))
    Us: list[PseudoUnitary | None] = []
    for entries in R:
        try:
            Us.append(PseudoUnitary(sig, entries, tol=SAMPLE_UNITARY_TOL))
        except ValueError:  # not finite, or off the group
            Us.append(None)
    kept = [U for U in Us if U is not None]
    if kept:
        singular = np.linalg.svd(R if len(kept) == len(Us) else np.array([U.entries for U in kept]), compute_uv=False)
        for U, values in zip(kept, singular.tolist()):
            vars(U)["cond"] = _cond(values)  # the cached property's value
    return R, [U if U is not None and U.cond <= cfg.cond_cap else None for U in Us]


def _draw_pseudo_unitary(sig: Signature, cfg: SamplerConfig, rng: np.random.Generator, draws: int) -> PseudoUnitary:
    """The retry loop of ``sample_pseudo_unitary``, with ``draws`` draws left, under its caller's errstate."""
    normals = np.empty((1, _draw_size(sig, cfg)))
    for _ in range(draws):
        t = _generator_draw(sig, cfg, rng, normals[0])
        U = _conjugators(sig, cfg, normals, [t])[1][0]
        if U is not None:
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
        return _draw_pseudo_unitary(sig, cfg, rng, MAX_RETRIES)


def _sample_stack(
    sig: Signature, cfg: SamplerConfig, rng: np.random.Generator, count: int
) -> list[tuple[PseudoHermitianMatrix, AdmissibleSpectrum, PseudoUnitary]]:
    """``count`` planted matrices drawn as one stack, each with the bytes ``sample_planted`` gives it alone.

    Each matrix's spectrum and first generator draw are read in stream
    order, and all first draws are tried as one stack (``_conjugators``).
    When the first draw of matrix i is rejected, the stream goes back to
    where it stood after that draw, matrix i draws on alone with its
    remaining ``MAX_RETRIES - 1`` draws, and the matrices after it are drawn
    anew as a stack of their own.  So every matrix reads the stream as if
    drawn alone, one after another.  The spectra, the conjugators and their
    products are drawn under one errstate: huge spectra may overflow a
    product, which the matrix type then reports as NonFiniteValue.
    """
    spectra, normals, t, states = [], np.empty((count, _draw_size(sig, cfg))), [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(count):
            spectra.append(sample_spectrum(sig, cfg, rng))
            t.append(_generator_draw(sig, cfg, rng, normals[i]))
            if i < count - 1:  # the last draw's state is the stream's own
                states.append(rng.bit_generator.state)
        R, Us = _conjugators(sig, cfg, normals, t)
        for i, U in enumerate(Us):
            if U is None:
                if i < count - 1:
                    rng.bit_generator.state = states[i]
                Us[i] = _draw_pseudo_unitary(sig, cfg, rng, MAX_RETRIES - 1)
                del spectra[i + 1 :], Us[i + 1 :]
                R = np.array([U.entries for U in Us])
                break
        stack = _conjugated(sig, spectra, R)
    planted = []
    for entries, spectrum, U in zip(stack, spectra, Us):
        hint = _gap_point(spectrum.mus[::-1].tolist() + spectrum.lambdas.tolist(), sig.q)
        planted.append((PseudoHermitianMatrix(sig, entries, shift_hint=hint), spectrum, U))
    if len(planted) < count:
        planted += _sample_stack(sig, cfg, rng, count - len(planted))
    return planted


def _conjugated(sig: Signature, spectra: list[AdmissibleSpectrum], Us: np.ndarray) -> np.ndarray:
    """The planted entries U diag U^-1 of the conjugators Us (k, n, n), by one stacked product, symmetrized."""
    jd = metric_diagonal(sig)
    # each U times its canonical diagonal (lambdas descending, then mus) scales U's columns
    diagonals = np.concatenate([block for spectrum in spectra for block in (spectrum.lambdas[::-1], spectrum.mus)])
    raw = (Us * diagonals.reshape(len(Us), 1, sig.n)) @ (jd[:, None] * _adjoint(Us) * jd[None, :])
    return 0.5 * (raw + jd[:, None] * _adjoint(raw) * jd[None, :])


def sample_planted(
    sig: Signature, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[PseudoHermitianMatrix, AdmissibleSpectrum, PseudoUnitary]:
    """Planted-spectrum instance A = U diag U^-1, returning the conjugator too.

    Using the dagger J U* J as the inverse keeps the construction exactly
    pseudo-Hermitian in exact arithmetic, independent of _expm's accuracy; the
    final symmetrization removes roundoff asymmetry.  Huge spectra may
    overflow the product, which the matrix type then reports as
    NonFiniteValue.

    The matrix's ``shift_hint`` is the planted spectrum's gap point, by the
    rule the spectral solve uses for its own shift (``spectral._gap_point``)
    on the planted values: the solve verifies it with one Cholesky
    factorization and then needs no ``eigvals``.  It reads no random number:
    it is float arithmetic on the planted values.

    It is the stack of one of ``sample_planted_pair``.
    """
    return _sample_stack(sig, cfg, rng, 1)[0]


def sample_planted_pair(
    sig: Signature, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[tuple[PseudoHermitianMatrix, AdmissibleSpectrum, PseudoUnitary], ...]:
    """Two planted instances, A and then B, each as ``sample_planted`` draws it: the same bytes and stream.

    The two are drawn as one stack: one ``_expm``, one SVD for the coupling
    norms and one for the condition numbers, and one product, for A and B
    together.  A rejected first draw rewinds the stream
    (``_sample_stack``), so the stream left behind and every byte of A and B
    are those of two ``sample_planted`` calls.
    """
    return tuple(_sample_stack(sig, cfg, rng, 2))
