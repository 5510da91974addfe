"""Margin-reporting checks for spectra of sums and variational identities.

Every check returns a CheckReport: a list of cases, each carrying the two
sides of an inequality (or the two values an equality compares), a
sign-adjusted margin, and a tolerance.  A case passes when margin >= -tol;
one-sided bounds use the signed difference as the margin, two-sided
(equality) cases use minus the absolute deviation.

Checks that need a sum A + B report an inadmissible sum as a loud failing
case instead of raising, so batch runs keep going.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    PseudoHermitianMatrix,
    Signature,
    check_index_tuple,
    metric_diagonal,
)
from .errors import (
    ComplexSpectrum,
    GapViolation,
    ShapeMismatch,
    WrongConeCount,
)
from .geometry import POSITIVE, _adjoint, pseudo_orthonormalize
from .sampling import (
    PositiveFlag,
    SamplerConfig,
    instance_rng,
    restricted_cone_samples,
    sample_positive_subspace,
    subordinate_frame,
)
from .spectral import (
    check_admissible,
    compress,
    eigendecompose,
    eigenvector_frame,
    negative_eigenbasis,
    positive_eigenbasis,
    rayleigh_columns,
)

DEFAULT_TOL = 1e-8
EQUALITY_TOL = 1e-9
TUPLE_LIMIT = 200


@dataclass(frozen=True)
class CheckCase:
    """One compared pair of values with its sign-adjusted margin."""

    case_id: str
    indices: tuple[int, ...]
    lhs: float
    rhs: float
    margin: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "indices": list(self.indices),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol": self.tol,
            "passed": self.passed,
        }


def make_case(case_id: str, indices, lhs: float, rhs: float, margin: float, tol: float) -> CheckCase:
    margin = float(margin)
    tol = float(tol)
    return CheckCase(
        case_id=case_id,
        indices=tuple(int(i) for i in indices),
        lhs=float(lhs),
        rhs=float(rhs),
        margin=margin,
        tol=tol,
        passed=bool(margin >= -tol),
    )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check on one instance.

    ``cases`` are the hard cases; ``passed`` means all of them passed and
    ``worst_margin`` is their minimum margin (None when there are no cases).
    Soft cases (best-effort searches) live in ``soft_cases`` with their pass
    fraction in ``soft_rate`` and never affect ``passed``.
    """

    check_name: str
    signature: tuple[int, int]
    descriptor: dict
    tol: float
    cases: tuple[CheckCase, ...]
    worst_margin: float | None
    passed: bool
    soft_cases: tuple[CheckCase, ...] = ()
    soft_rate: float | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "signature": list(self.signature),
            "descriptor": self.descriptor,
            "tol": self.tol,
            "cases": [c.to_dict() for c in self.cases],
            "worst_margin": self.worst_margin,
            "passed": self.passed,
            "soft_cases": [c.to_dict() for c in self.soft_cases],
            "soft_rate": self.soft_rate,
            "notes": list(self.notes),
        }


def finalize_report(
    check_name: str,
    sig: Signature,
    descriptor: dict,
    tol: float,
    cases,
    soft_cases=(),
    notes=(),
) -> CheckReport:
    cases = tuple(cases)
    soft_cases = tuple(soft_cases)
    worst = min((c.margin for c in cases), default=None)
    soft_rate = None
    if soft_cases:
        soft_rate = sum(1 for c in soft_cases if c.passed) / len(soft_cases)
    return CheckReport(
        check_name=check_name,
        signature=(sig.p, sig.q),
        descriptor=descriptor,
        tol=float(tol),
        cases=cases,
        worst_margin=worst,
        passed=all(c.passed for c in cases),
        soft_cases=soft_cases,
        soft_rate=soft_rate,
        notes=tuple(notes),
    )


def _require_same_signature(A: PseudoHermitianMatrix, B: PseudoHermitianMatrix) -> Signature:
    if A.signature != B.signature:
        raise ShapeMismatch(
            f"signatures differ: ({A.signature.p}, {A.signature.q}) vs ({B.signature.p}, {B.signature.q})"
        )
    return A.signature


def matrix_sum(A: PseudoHermitianMatrix, B: PseudoHermitianMatrix) -> PseudoHermitianMatrix:
    """A + B as a validated matrix; structural residuals add, so the tol does too."""
    sig = _require_same_signature(A, B)
    return PseudoHermitianMatrix(sig, A.entries + B.entries, tol=A.tol + B.tol)


def _sum_spectra(A: PseudoHermitianMatrix, B: PseudoHermitianMatrix):
    """Spectra of A, B, and A + B; the last is None plus the error when inadmissible."""
    specA = check_admissible(A)
    specB = check_admissible(B)
    C = matrix_sum(A, B)
    try:
        return specA, specB, C, check_admissible(C), None
    except (ComplexSpectrum, WrongConeCount, GapViolation) as exc:
        return specA, specB, C, None, exc


def _inadmissible_sum_report(name: str, sig: Signature, descriptor: dict, tol: float, exc) -> CheckReport:
    case = make_case("admissible_sum", (), 0.0, 0.0, -1.0, tol)
    return finalize_report(
        name,
        sig,
        descriptor,
        tol,
        [case],
        notes=[f"sum_not_admissible: {type(exc).__name__}: {exc}"],
    )


# ---------------------------------------------------------------------------
# index tuple enumeration


def lambda_index_tuples(upper: int, max_size: int | None = None, *, limit: int = TUPLE_LIMIT, rng=None):
    """Strictly increasing 1-based tuples bounded by ``upper``.

    All of them, by size and then lexicographically, when there are at most
    ``limit`` (sum over m of C(upper, m)); beyond that a seeded random subset
    of at most ``limit`` tuples, returned in sorted order.
    """
    if upper < 1:
        return []
    mmax = min(max_size or upper, upper)
    if sum(math.comb(upper, m) for m in range(1, mmax + 1)) <= limit:
        out = []
        for m in range(1, mmax + 1):
            out.extend(itertools.combinations(range(1, upper + 1), m))
        return out
    rng = rng if rng is not None else np.random.default_rng(0)
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(seen) < limit and attempts < 50 * limit:
        attempts += 1
        m = int(rng.integers(1, mmax + 1))
        t = tuple(int(v) for v in np.sort(rng.choice(upper, size=m, replace=False) + 1))
        seen.add(t)
    return sorted(seen)


def _thompson_freede_count(p: int) -> int:
    """Number of pairs thompson_freede_pairs(p) admits.

    C(a - 1, m - 1) size-m tuples end in a, so the count is the sum over m
    and over last entries a + b <= m + p of the product of two such terms.
    """
    return sum(
        math.comb(a - 1, m - 1) * math.comb(b - 1, m - 1)
        for m in range(1, p + 1)
        for a in range(m, p + 1)
        for b in range(m, min(p, m + p - a) + 1)
    )


def thompson_freede_pairs(p: int, *, limit: int = TUPLE_LIMIT, rng=None):
    """Pairs (i, j) of same-size tuples with i[-1] + j[-1] <= m + p.

    The constraint makes every combined index i_h + j_h - h a valid, strictly
    increasing position in [1, p].  All pairs when there are at most
    ``limit``; beyond that a seeded random subset of ``limit`` pairs, sorted.
    """
    if p < 1:
        return []
    if _thompson_freede_count(p) <= limit:
        out = []
        for m in range(1, p + 1):
            combos = list(itertools.combinations(range(1, p + 1), m))
            for i in combos:
                for j in combos:
                    if i[-1] + j[-1] <= m + p:
                        out.append((i, j))
        return out
    rng = rng if rng is not None else np.random.default_rng(0)
    seen: set[tuple] = set()
    attempts = 0
    while len(seen) < limit and attempts < 200 * limit:
        attempts += 1
        m = int(rng.integers(1, p + 1))
        i = tuple(int(v) for v in np.sort(rng.choice(p, size=m, replace=False) + 1))
        j = tuple(int(v) for v in np.sort(rng.choice(p, size=m, replace=False) + 1))
        if i[-1] + j[-1] <= m + p:
            seen.add((i, j))
    return sorted(seen)


# ---------------------------------------------------------------------------
# sum checks


def check_trace_identity(
    A: PseudoHermitianMatrix, B: PseudoHermitianMatrix, tol: float = EQUALITY_TOL
) -> CheckReport:
    """Eigenvalue sums add under matrix addition; cross-checked against traces.

    Margins are relative: minus the deviation divided by the value scale.
    """
    sig = _require_same_signature(A, B)
    descriptor = {"tol_relative": tol}
    specA, specB, C, specC, exc = _sum_spectra(A, B)
    if specC is None:
        return _inadmissible_sum_report("trace", sig, descriptor, tol, exc)
    totA, totB, totC = specA.total(), specB.total(), specC.total()
    scale = max(1.0, abs(totA), abs(totB), abs(totC))
    cases = [
        make_case("spectrum_sum", (), totC, totA + totB, -abs(totC - (totA + totB)) / scale, tol),
        make_case(
            "matrix_trace",
            (),
            totC,
            float(np.trace(C.entries).real),
            -abs(totC - float(np.trace(C.entries).real)) / scale,
            tol,
        ),
    ]
    return finalize_report("trace", sig, descriptor, tol, cases)


def check_weyl(
    A: PseudoHermitianMatrix, B: PseudoHermitianMatrix, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Single-index shift bounds for the sum.

    Positive-type: lambda_k(A+B) >= lambda_k(A) + lambda_1(B) for every k.
    Negative-type: mu_l(A+B) <= mu_l(A) + mu_1(B) for every l (mu_1 largest).
    """
    sig = _require_same_signature(A, B)
    descriptor = {}
    specA, specB, _, specC, exc = _sum_spectra(A, B)
    if specC is None:
        return _inadmissible_sum_report("weyl", sig, descriptor, tol, exc)
    cases = []
    for k in range(1, sig.p + 1):
        lhs = float(specC.lambdas[k - 1])
        rhs = float(specA.lambdas[k - 1] + specB.lambdas[0])
        cases.append(make_case(f"lambda:{k}", (k,), lhs, rhs, lhs - rhs, tol))
    for l in range(1, sig.q + 1):
        lhs = float(specC.mus[l - 1])
        rhs = float(specA.mus[l - 1] + specB.mus[0])
        cases.append(make_case(f"mu:{l}", (l,), lhs, rhs, rhs - lhs, tol))
    return finalize_report("weyl", sig, descriptor, tol, cases)


def check_lidskii_wielandt(
    A: PseudoHermitianMatrix,
    B: PseudoHermitianMatrix,
    max_m: int | None = None,
    tol: float = DEFAULT_TOL,
    *,
    limit: int = TUPLE_LIMIT,
    rng=None,
) -> CheckReport:
    """Tuple-sum bounds for the sum, both blocks.

    Positive-type, for strictly increasing indices i_1 < ... < i_m:
    sum_k lambda_{i_k}(A+B) >= sum_k lambda_{i_k}(A) + sum_{k<=m} lambda_k(B).
    Negative-type mirrors with <= and the m largest mus of B.
    """
    sig = _require_same_signature(A, B)
    descriptor = {"max_m": max_m, "limit": limit}
    specA, specB, _, specC, exc = _sum_spectra(A, B)
    if specC is None:
        return _inadmissible_sum_report("lidskii", sig, descriptor, tol, exc)
    cases = []
    for t in lambda_index_tuples(sig.p, max_m, limit=limit, rng=rng):
        m = len(t)
        lhs = float(sum(specC.lambdas[i - 1] for i in t))
        rhs = float(sum(specA.lambdas[i - 1] for i in t) + np.sum(specB.lambdas[:m]))
        cases.append(make_case(f"lambda:{','.join(map(str, t))}", t, lhs, rhs, lhs - rhs, tol))
    for t in lambda_index_tuples(sig.q, max_m, limit=limit, rng=rng):
        m = len(t)
        lhs = float(sum(specC.mus[i - 1] for i in t))
        rhs = float(sum(specA.mus[i - 1] for i in t) + np.sum(specB.mus[:m]))
        cases.append(make_case(f"mu:{','.join(map(str, t))}", t, lhs, rhs, rhs - lhs, tol))
    return finalize_report("lidskii", sig, descriptor, tol, cases)


def check_thompson_freede(
    A: PseudoHermitianMatrix,
    B: PseudoHermitianMatrix,
    tol: float = DEFAULT_TOL,
    *,
    limit: int = TUPLE_LIMIT,
    rng=None,
) -> CheckReport:
    """Paired-tuple bounds on the positive-type block (empirical check).

    For same-size tuples i, j with i_m + j_m <= m + p:
    sum_h lambda_{i_h + j_h - h}(A+B) >= sum_h lambda_{i_h}(A) + sum_h lambda_{j_h}(B).
    """
    sig = _require_same_signature(A, B)
    descriptor = {"limit": limit}
    specA, specB, _, specC, exc = _sum_spectra(A, B)
    if specC is None:
        return _inadmissible_sum_report("thompson_freede", sig, descriptor, tol, exc)
    cases = []
    for i, j in thompson_freede_pairs(sig.p, limit=limit, rng=rng):
        combined = tuple(i[h] + j[h] - (h + 1) for h in range(len(i)))
        lhs = float(sum(specC.lambdas[c - 1] for c in combined))
        rhs = float(
            sum(specA.lambdas[a - 1] for a in i) + sum(specB.lambdas[b - 1] for b in j)
        )
        case_id = f"i={','.join(map(str, i))};j={','.join(map(str, j))}"
        cases.append(make_case(case_id, combined, lhs, rhs, lhs - rhs, tol))
    return finalize_report("thompson_freede", sig, descriptor, tol, cases)


# ---------------------------------------------------------------------------
# variational checks on a single matrix


def check_courant_fischer(
    A: PseudoHermitianMatrix,
    n_subspaces: int = 500,
    tol: float = DEFAULT_TOL,
    *,
    equality_tol: float = EQUALITY_TOL,
    cfg: SamplerConfig | None = None,
    rng=None,
) -> CheckReport:
    """Min-max characterization of the positive-type eigenvalues.

    For each k: sampled k-dimensional positive subspaces give a top
    compression eigenvalue >= lambda_k (the eigen-subspace attains it), and
    sampled positive vectors paired-orthogonal to the first k-1 eigenvectors
    give Rayleigh ratios >= lambda_k (the k-th eigenvector attains it).
    """
    sig = A.signature
    cfg = cfg if cfg is not None else SamplerConfig()
    rng = rng if rng is not None else instance_rng(cfg.seed)
    descriptor = {"n_subspaces": n_subspaces, "equality_tol": equality_tol}
    notes = []
    if sig.p == 0:
        return finalize_report(
            "courant_fischer", sig, descriptor, tol, [], notes=["no positive-type block"]
        )
    spec = check_admissible(A)
    system = eigendecompose(A)
    pos = positive_eigenbasis(system)
    neg = negative_eigenbasis(system)
    cases = []
    for k in range(1, sig.p + 1):
        lam_k = float(spec.lambdas[k - 1])
        # an empty budget samples nothing and bounds nothing, so it gets no case
        if n_subspaces:
            bases = sample_positive_subspace(sig, k, cfg, rng, count=n_subspaces)
            frames = pseudo_orthonormalize(bases, sig, POSITIVE)
            worst_top = float(np.min(compress(A, frames).etas[:, -1]))
            cases.append(
                make_case(f"minmax_sampled:{k}", (k,), worst_top, lam_k, worst_top - lam_k, tol)
            )
        witness = eigenvector_frame(system, range(1, k + 1))
        top = float(compress(A, witness).etas[-1])
        cases.append(
            make_case(f"minmax_witness:{k}", (k,), top, lam_k, -abs(top - lam_k), equality_tol)
        )
        if n_subspaces:
            X = restricted_cone_samples(pos[:, k - 1 :], neg, n_subspaces, rng)
            low = float(np.min(rayleigh_columns(A.entries, sig, X)))
            cases.append(make_case(f"restricted_sampled:{k}", (k,), low, lam_k, low - lam_k, tol))
        vk = pos[:, k - 1]
        rk = rayleigh_columns(A.entries, sig, vk[:, None])[0]
        cases.append(
            make_case(f"restricted_witness:{k}", (k,), rk, lam_k, -abs(rk - lam_k), equality_tol)
        )
    return finalize_report("courant_fischer", sig, descriptor, tol, cases, notes=notes)


def check_ky_fan(
    A: PseudoHermitianMatrix,
    k: int,
    n_frames: int = 200,
    tol: float = DEFAULT_TOL,
    *,
    equality_tol: float = EQUALITY_TOL,
    cfg: SamplerConfig | None = None,
    rng=None,
) -> CheckReport:
    """Partial-sum minimum over positive k-frames.

    Every pseudo-orthonormal positive k-frame satisfies
    sum_i R_A(x_i) = trace(compression) >= lambda_1 + ... + lambda_k,
    with equality on the first k eigenvectors.
    """
    sig = A.signature
    if not 1 <= k <= sig.p:
        raise ValueError(f"k must lie in [1, p] = [1, {sig.p}], got {k}")
    cfg = cfg if cfg is not None else SamplerConfig()
    rng = rng if rng is not None else instance_rng(cfg.seed)
    descriptor = {"k": k, "n_frames": n_frames, "equality_tol": equality_tol}
    spec = check_admissible(A)
    system = eigendecompose(A)
    target = float(np.sum(spec.lambdas[:k]))
    cases = []
    if n_frames:  # an empty budget bounds nothing, so it gets no case
        bases = sample_positive_subspace(sig, k, cfg, rng, count=n_frames)
        frames = pseudo_orthonormalize(bases, sig, POSITIVE)
        traces = np.trace(compress(A, frames).compressed, axis1=-2, axis2=-1).real
        worst = float(np.min(traces))
        cases.append(
            make_case(
                f"partial_sum_sampled:{k}", tuple(range(1, k + 1)), worst, target, worst - target, tol
            )
        )
    witness = eigenvector_frame(system, range(1, k + 1))
    val = float(np.trace(compress(A, witness).compressed).real)
    cases.append(
        make_case(
            f"partial_sum_witness:{k}",
            tuple(range(1, k + 1)),
            val,
            target,
            -abs(val - target),
            equality_tol,
        )
    )
    return finalize_report("ky_fan", sig, descriptor, tol, cases)


# ---------------------------------------------------------------------------
# flag compressions


def _compression_trace(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Traces of X* M X over a stack (..., k, m): with M = J A and a
    pseudo-orthonormal frame X, the trace of the compression of A onto X.
    """
    return np.einsum("...ij,...ij->...", X.conj(), M @ X).real


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _adjoint(M))


def _grouped(keys: np.ndarray, fn, *stacks: np.ndarray) -> np.ndarray:
    """``fn(key, *rows_of_stacks)`` on each group of samples sharing a key.

    ``keys`` has one row of integers per sample (shapes that depend on the
    data, such as ranks); each group's results go back to its samples' rows,
    so the output is in sample order.  One call when every key is equal.
    """
    keys = keys.reshape(len(keys), -1)
    if (keys == keys[0]).all():
        return fn(tuple(keys[0]), *stacks)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    out = None
    for g, key in enumerate(uniq):
        rows = np.flatnonzero(inverse == g)
        part = fn(tuple(key), *(s[rows] for s in stacks))
        if out is None:
            out = np.empty((len(keys),) + part.shape[1:], dtype=part.dtype)
        out[rows] = part
    return out


def _orth(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (Euclidean) columns and rank of each column span of a stack.

    The first ``rank[i]`` columns of ``u[i]`` are a basis of span(B[i]).
    """
    u, sv, _ = np.linalg.svd(B, full_matrices=False)
    return u, np.sum(sv > sv[..., :1] * 1e-12, axis=-1)


def _complete_orthonormal(B: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal bases of k-dim spaces containing span(B[i]), over a stack."""
    U, rank = _orth(B)

    def complete(key, U):
        Q0 = U[..., : key[0]]
        if key[0] >= k:
            return Q0[..., :k]
        eye = np.broadcast_to(np.eye(B.shape[-2], dtype=complex), Q0.shape[:-1] + (B.shape[-2],))
        return np.linalg.qr(np.concatenate([Q0, eye], axis=-1))[0][..., :k]

    return _grouped(rank, complete, U)


def _hermitian_flag_witness(M: np.ndarray, levels: list[np.ndarray], idx: tuple[int, ...]) -> np.ndarray:
    """Orthonormal frames subordinate to a stack of flags with trace >= tuple sum.

    ``M`` is a stack (N, r, r) of Hermitian matrices and ``levels[j]`` the
    stack (N, r, d_j) of the j-th flag levels.  Euclidean recursion: the top
    flag level always fills the ambient space (idx[-1] == r).  While the
    flag is not complete, step down one dimension into a subspace R that
    contains both the untouched leading levels and the top eigenvectors
    matching the trailing run of indices; the trailing levels are replaced
    by their intersections with R.  The invariant eigenvector block keeps
    the trailing eigenvalues available one index lower, so the reachable
    trace never drops below the tuple sum.  The complete-flag base case
    returns any adapted frame, whose trace is exactly the full trace.
    Samples whose levels have different ranks take the recursion apart.
    """
    orth = [_orth(L) for L in levels]

    def step(ranks, M, *U):
        return _flag_witness_step(M, [u[..., :k] for u, k in zip(U, ranks)], idx)

    return _grouped(np.stack([rank for _, rank in orth], axis=-1), step, M, *(u for u, _ in orth))


def _flag_witness_step(M: np.ndarray, levels: list[np.ndarray], idx: tuple[int, ...]) -> np.ndarray:
    """One step of _hermitian_flag_witness on orthonormal levels of equal ranks."""
    r = M.shape[-1]
    m = len(idx)
    if m == r:
        X = np.zeros(M.shape[:-1] + (m,), dtype=complex)
        for j in range(m):
            W = levels[j]
            if j:
                P = X[..., :j]
                W = W - P @ (_adjoint(P) @ W)
            norms = np.linalg.norm(W, axis=-2)
            pick = np.argmax(norms, axis=-1)[:, None]
            col = np.take_along_axis(W, pick[:, None, :], axis=-1)[..., 0]
            X[..., j] = col / np.take_along_axis(norms, pick, axis=-1)
        return X
    s = 0
    while m - 2 - s >= 0 and idx[m - 2 - s] == r - 1 - s:
        s += 1
    run = s + 1  # trailing indices r-run+1 .. r
    t = m - run  # leading levels kept as they are
    anchor = np.linalg.eigh(M)[1][..., r - run :]
    blocks = np.concatenate([levels[t - 1], anchor], axis=-1) if t else anchor
    R = _complete_orthonormal(blocks, r - 1)
    Rh = _adjoint(R)
    Mp = _hermitian_part(Rh @ M @ R)
    new_levels = [Rh @ levels[j] for j in range(t)]
    new_idx = list(idx[:t])
    for pos in range(run):
        dim_target = r - run + pos
        V = levels[t + pos]  # one dimension wider than dim_target
        vh = np.linalg.svd(V - R @ (Rh @ V))[2]
        new_levels.append(Rh @ (V @ _adjoint(vh[..., V.shape[-1] - dim_target :, :])))
        new_idx.append(dim_target)
    return R @ _hermitian_flag_witness(Mp, new_levels, tuple(new_idx))


def _witness_subordinate(M: np.ndarray, idx: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic subordinate frames whose traces reach the tuple sum, in coordinates.

    ``M`` is the stack (N, r, r) of N flags' compressions onto their top
    levels, each written in a pseudo-orthonormal frame of the top level whose
    column prefixes span the lower levels: there the pairing is the Euclidean
    inner product, M is an ordinary Hermitian matrix and level j is the span
    E_{idx[j]} of the first idx[j] unit vectors, so the Euclidean flag
    recursion runs on the standard flag.  Used to seed the ascent:
    coordinate sweeps from a random frame can stall on flags whose first
    slot is pinned to a line by the orthogonality constraints, while sweeps
    from this frame only have roundoff left to recover.

    Returns orthonormal coordinates (N, r, m) and which flags got them: a
    flag whose decompositions do not converge has none.  The batched solvers
    fail a whole stack for one such flag, so the stack is halved until the
    failing flags stand alone.
    """
    N = len(M)
    none = np.zeros(M.shape[:-1] + (len(idx),), dtype=complex), np.zeros(N, dtype=bool)
    if N == 0:
        return none
    try:
        eye = np.eye(M.shape[-1], dtype=complex)
        levels = [np.broadcast_to(eye[:, :d], M.shape[:-1] + (d,)) for d in idx]
        return _hermitian_flag_witness(M, levels, idx), np.ones(N, dtype=bool)
    except np.linalg.LinAlgError:
        if N == 1:
            return none
        halves = [_witness_subordinate(M[part], idx) for part in (slice(None, N // 2), slice(N // 2, None))]
        return tuple(np.concatenate(out) for out in zip(*halves))


def _ascend_subordinate(
    M: np.ndarray,
    idx: tuple[int, ...],
    C0: np.ndarray,
    *,
    iters: int,
    gain_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate ascent of the compression trace over subordinate frames.

    ``M`` is a stack (N, r, r) of top-level compressions in the coordinates
    of _witness_subordinate, and ``C0`` a stack (N, r, m) of orthonormal
    frames with column j in E_{idx[j]} to start from; all flags sweep
    together.  One sweep maximizes each slot in turn: with the other columns
    held fixed, the best j-th column is the top eigenvector of M compressed
    onto the part of E_{idx[j]} orthogonal to the others (which always holds
    the current column, so sweeps never decrease the trace).  A slot with
    idx[j] == 1 is fixed up to phase and never moves.  Each sweep ends with a
    QR, whose column j combines columns <= j and so stays in E_{idx[j]}; a
    flag whose sweep gains less than ``gain_tol`` stops, converged.

    Returns the traces reached (N,) and which flags converged.
    """
    C = np.array(C0, dtype=complex)
    obj = _compression_trace(M, C)
    converged = np.zeros(len(C), dtype=bool)
    active = np.arange(len(C))
    for _ in range(iters):
        if active.size == 0:
            break
        Ca, Ma = C[active], M[active]
        for j, d in enumerate(idx):
            if d == 1:
                continue
            # the part of E_d orthogonal to the other columns: the null space of their first d
            # rows, whose singular values are cosines of principal angles, so the cutoff is absolute
            _, svals, vh = np.linalg.svd(_adjoint(np.delete(Ca[:, :d], j, axis=-1)))
            rank = np.sum(svals > 1e-10, axis=-1)
            for r in np.unique(rank):
                rows = np.flatnonzero(rank == r)
                free = _adjoint(vh[rows, r:])
                comp = _hermitian_part(_adjoint(free) @ Ma[rows, :d, :d] @ free)
                Ca[rows, :d, j] = (free @ np.linalg.eigh(comp)[1][..., -1:])[..., 0]
                Ca[rows, d:, j] = 0.0
        Ca = np.linalg.qr(Ca)[0]
        new_obj = _compression_trace(Ma, Ca)
        gain = new_obj - obj[active]
        C[active] = Ca
        obj[active] = new_obj
        converged[active[gain < gain_tol]] = True
        active = active[gain >= gain_tol]
    return obj, converged


def check_wielandt_flag(
    A: PseudoHermitianMatrix,
    index_tuple,
    n_flags: int = 50,
    n_tuples: int = 20,
    ascent_iters: int = 200,
    tol: float = DEFAULT_TOL,
    *,
    n_ascent: int | None = None,
    equality_tol: float = EQUALITY_TOL,
    soft_gap: float = 1e-6,
    gain_tol: float = 1e-10,
    cfg: SamplerConfig | None = None,
    rng=None,
) -> CheckReport:
    """Flag compressions against the eigenvalue tuple sum.

    Hard cases: every sampled frame subordinate to the eigenvector flag has
    compression trace <= sum of the selected eigenvalues (with equality on
    the eigenvectors themselves), and compressions onto sampled positive
    subspaces of dimension p-1 interlace from above (eta_i >= lambda_i).

    Soft cases: for each sampled random flag, ascent over subordinate
    frames should reach the tuple sum within ``soft_gap``; the success
    fraction is reported as ``soft_rate``.  Each flag is started from a
    deterministic frame built by the stepped-compression construction and
    polished by coordinate sweeps.
    ``n_ascent`` decouples the number of ascent flags from the hard-case
    frame budget (default: same as ``n_flags``).  All ascent flags run as one
    stack; a random subordinate start is drawn, in one stacked call, only for
    the flags whose deterministic start failed or fell short of the tuple
    sum by more than ``soft_gap / 2``, and the report notes how many did.
    """
    sig = A.signature
    idx = check_index_tuple(index_tuple, sig.p)
    cfg = cfg if cfg is not None else SamplerConfig()
    rng = rng if rng is not None else instance_rng(cfg.seed)
    n_ascent = n_flags if n_ascent is None else n_ascent
    descriptor = {
        "index_tuple": list(idx),
        "n_flags": n_flags,
        "n_tuples": n_tuples,
        "n_ascent": n_ascent,
        "ascent_iters": ascent_iters,
        "soft_gap": soft_gap,
    }
    spec = check_admissible(A)
    system = eigendecompose(A)
    pos = positive_eigenbasis(system)
    target = float(sum(spec.lambdas[i - 1] for i in idx))
    eigenflag = PositiveFlag(sig, idx, pos)

    cases = []
    notes = []

    jd = metric_diagonal(sig)
    JA = jd[:, None] * A.entries
    frames = subordinate_frame(eigenflag, cfg, rng, count=n_flags * n_tuples)
    highest = float(np.max(_compression_trace(JA, frames.vectors), initial=-np.inf))
    if np.isfinite(highest):
        cases.append(
            make_case("eigenflag_max", idx, highest, target, target - highest, tol)
        )

    witness = eigenvector_frame(system, idx)
    comp = compress(A, witness)
    val = float(np.trace(comp.compressed).real)
    cases.append(make_case("eigenflag_witness", idx, val, target, -abs(val - target), equality_tol))
    eta_dev = float(np.max(np.abs(comp.etas - np.array([spec.lambdas[i - 1] for i in idx]))))
    cases.append(make_case("eigenflag_witness_etas", idx, eta_dev, 0.0, -eta_dev, equality_tol))

    width = max(idx[-1], sig.p - 1) if sig.p >= 2 else idx[-1]
    bases = sample_positive_subspace(sig, width, cfg, rng, count=n_ascent)
    # each flag's compression onto its framed top level, whose column prefixes span its levels
    top = pseudo_orthonormalize(PositiveFlag(sig, idx, bases).basis, sig, POSITIVE).vectors
    M = _hermitian_part(_adjoint(top) @ (JA @ top))
    achieved = np.full(n_ascent, -np.inf)
    converged = np.zeros(n_ascent, dtype=bool)
    start, ok = _witness_subordinate(M, idx)
    if ok.any():
        achieved[ok], converged[ok] = _ascend_subordinate(
            M[ok], idx, start[ok], iters=ascent_iters, gain_tol=gain_tol
        )
    # a random start only for the flags that the witness start left short
    fallback = np.flatnonzero(~(achieved >= target - 0.5 * soft_gap))
    if fallback.size:
        X = subordinate_frame(PositiveFlag(sig, idx, bases[fallback]), cfg, rng).vectors
        got, conv = _ascend_subordinate(
            M[fallback], idx, _adjoint(top[fallback]) @ (jd[:, None] * X),
            iters=ascent_iters, gain_tol=gain_tol,
        )
        better = got > achieved[fallback]
        achieved[fallback[better]] = got[better]
        converged[fallback[better]] = conv[better]
    soft_cases = [
        make_case(f"ascent:{f}", idx, value, target, value - target, soft_gap)
        for f, value in enumerate(achieved)
    ]
    nonconverged = int(np.sum(~converged))
    if sig.p >= 2 and n_ascent > 0:
        frames = pseudo_orthonormalize(bases[:, :, : sig.p - 1], sig, POSITIVE)
        xi = compress(A, frames).etas
        interlace_worst = float(np.min(xi - spec.lambdas[: sig.p - 1]))
        cases.append(
            make_case(
                "interlace_min",
                tuple(range(1, sig.p)),
                interlace_worst,
                0.0,
                interlace_worst,
                tol,
            )
        )
    if nonconverged:
        notes.append(f"ascent_nonconverged: {nonconverged}/{n_ascent}")
    if fallback.size:
        notes.append(f"ascent_fallback: {fallback.size}/{n_ascent}")
    return finalize_report(
        "wielandt", sig, descriptor, tol, cases, soft_cases=soft_cases, notes=notes
    )
