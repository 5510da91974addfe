import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from kreinval import SamplerConfig, Signature, sampling
from kreinval.checks import (
    DEFAULT_TOL,
    EQUALITY_TOL,
    _finalize_report,
    _hermitian_part,
    _inadmissible_sum_report,
    _make_case,
    _positive_eigen,
    _sum_spectra,
)
from kreinval.core import (
    AdmissibleSpectrum,
    PseudoHermitianMatrix,
    PseudoUnitary,
    matrix_dagger,
    metric_diagonal,
)
from kreinval.errors import RetriesExhausted, ShapeMismatch
from kreinval.geometry import TOL_NULL_REL, _adjoint, as_basis, gram

SIGNATURES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.fixture(params=SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def signature(request):
    return Signature(*request.param)


@pytest.fixture
def sampler_cfg():
    return SamplerConfig()


@pytest.fixture
def fresh_memos():
    """Empty the value memos before and after the test.

    The test then starts from cold memos, and a result it computed under a
    patched function is not left behind for later tests.
    """
    from kreinval import checks, spectral

    memos = (
        spectral._solve,
        checks._sum_spectra,
        checks._positive_eigen,
    )
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian array of the given shape (variance 1 per complex entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_planted_by_blocks(sig, cfg, rng):
    """``sample_planted`` drawn block by block: the oracle of the one-pass draw.

    Two uniform draws make the spectrum, one per block.  Each generator
    draw takes G1, G2 and the coupling Z from a ``complex_normal`` call each,
    then t; the retry loop and the planted product each run under their own
    errstate, and the product reads the conjugator's ``inverse``.  It goes
    through ``sampling._expm`` and checks and retries as the sampler does.
    The shift hint is the planted spectrum's gap point, computed here with
    numpy on the whole ascending spectrum, as the solve once computed its
    shift from the sorted ``eigvals``.
    """
    p, q = sig.p, sig.q
    lo, hi = cfg.value_range
    lam = np.sort(rng.uniform(lo, hi, p))
    mu = np.sort(rng.uniform(lo, hi, q))[::-1]
    if p and q and lam[0] - mu[0] < cfg.gap_min:
        lam = lam + (cfg.gap_min - (lam[0] - mu[0]))
    spectrum = AdmissibleSpectrum(sig, lam, mu)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(sampling.MAX_RETRIES):
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
                zn = np.linalg.svd(Z, compute_uv=False)[0]
                if zn > 0:
                    Z = Z * (t / zn)
                gen[:p, p:] = Z
                gen[p:, :p] = Z.conj().T
            try:
                U = PseudoUnitary(sig, sampling._expm(gen), tol=sampling.SAMPLE_UNITARY_TOL)
            except ValueError:
                continue
            if U.cond <= cfg.cond_cap:
                break
        else:
            raise RetriesExhausted(f"no pseudo-unitary in {sampling.MAX_RETRIES} draws")
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (U.entries * spectrum.canonical_vector()) @ U.inverse
        sym = 0.5 * (raw + matrix_dagger(raw, sig))
    theta = np.concatenate([spectrum.mus[::-1], spectrum.lambdas])
    if p and q:
        hint = float(0.5 * (theta[q - 1] + theta[q]))
    else:
        pad = float(max(theta[-1] - theta[0], np.abs(theta).max())) or 1.0
        hint = float(theta[0] - pad) if q == 0 else float(theta[-1] + pad)
    return PseudoHermitianMatrix(sig, sym, shift_hint=hint), spectrum, U


def ordered_sum(values) -> float:
    """The values added left to right from +0.0, as the sum suites add them."""
    return functools.reduce(operator.add, values, 0.0)


def all_tuples(p):
    """Every strictly increasing 1-based tuple bounded by p, by size and then lexicographically."""
    return [t for m in range(1, p + 1) for t in itertools.combinations(range(1, p + 1), m)]


def shape(report):
    """The top index r and size m of the tuples of a ``wielandt`` report."""
    return report.descriptor["top"], report.descriptor["m"]


def _table(tuples, upper: int) -> np.ndarray:
    """The table (N, w) of the 1-based tuples, 0-based, short rows ending in the slot ``upper``."""
    width = max(map(len, tuples), default=0)
    pad = (upper + 1,) * width
    return np.array([t + pad[len(t) :] for t in tuples], dtype=np.intp).reshape(len(tuples), width) - 1


def _tuple_sums(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The sums (..., N) of ``values`` (..., n) over each row of ``table`` (N, w), added left to right from +0.0.

    The padding slot n reads 0.0, and a total that starts at +0.0 is never
    -0.0, so trailing pads leave it unchanged.
    """
    terms = np.append(values, np.zeros(values.shape[:-1] + (1,)), axis=-1)[..., table]
    total = np.zeros(terms.shape[:-1])
    for k in range(terms.shape[-1]):
        total += terms[..., k]
    return total


def brute_pairs(p):
    """Every Thompson-Freede pair (i, j) with i_m + j_m <= m + p, by size, then i, then j."""
    return [
        (i, j)
        for m in range(1, p + 1)
        for i in itertools.combinations(range(1, p + 1), m)
        for j in itertools.combinations(range(1, p + 1), m)
        if i[-1] + j[-1] <= m + p
    ]


def prefix_minmax_tops(M: np.ndarray) -> np.ndarray:
    """min_f lambda_max(M_f[:k, :k]) for k = 1, ..., p: the least top over the k-column prefixes of the frames.

    A prefix is one k-subspace of its frame, so by Courant-Fischer each entry
    bounds the least k-th eigenvalue min_f eta_k(M_f) from above.
    """
    return np.array([np.min(np.linalg.eigvalsh(M[:, :k, :k])[:, -1]) for k in range(1, M.shape[-1] + 1)])


def reference_lidskii(A, B, tol=1e-8):
    """check_lidskii_wielandt at every tuple, one Python loop per tuple: the exhaustive oracle.

    One case per tuple of each block, by size and then lexicographically.
    """
    sig = A.signature
    specA, specB, _, specC, exc = _sum_spectra(A, B)
    if specC is None:
        return _inadmissible_sum_report("lidskii", sig, {}, tol, exc)
    cases = []
    for kind, upper, a, b, c in (
        ("lambda", sig.p, specA.lambdas, specB.lambdas, specC.lambdas),
        ("mu", sig.q, specA.mus, specB.mus, specC.mus),
    ):
        a, c = a.tolist(), c.tolist()
        lead = [float(np.sum(b[:m])) for m in range(upper + 1)]
        for m in range(1, upper + 1):
            for t in itertools.combinations(range(1, upper + 1), m):
                lhs = ordered_sum(c[i - 1] for i in t)
                rhs = ordered_sum(a[i - 1] for i in t) + lead[m]
                margin = lhs - rhs if kind == "lambda" else rhs - lhs
                cases.append(_make_case(f"{kind}:{','.join(map(str, t))}", t, lhs, rhs, margin, tol))
    return _finalize_report("lidskii", sig, {}, tol, cases)


def reference_thompson_freede(A, B, tol=1e-8):
    """check_thompson_freede at every pair, one Python loop per pair: the exhaustive oracle."""
    sig = A.signature
    specA, specB, _, specC, exc = _sum_spectra(A, B)
    if specC is None:
        return _inadmissible_sum_report("thompson_freede", sig, {}, tol, exc)
    if sig.p == 0:
        return _finalize_report("thompson_freede", sig, {}, tol, [], notes=["no positive-type block"])
    lamA, lamB, lamC = (spec.lambdas.tolist() for spec in (specA, specB, specC))
    cases = []
    for i, j in brute_pairs(sig.p):
        combined = tuple(i[h] + j[h] - (h + 1) for h in range(len(i)))
        lhs = ordered_sum(lamC[c - 1] for c in combined)
        rhs = ordered_sum(lamA[a - 1] for a in i) + ordered_sum(lamB[b - 1] for b in j)
        case_id = f"i={','.join(map(str, i))};j={','.join(map(str, j))}"
        cases.append(_make_case(case_id, combined, lhs, rhs, lhs - rhs, tol))
    return _finalize_report("thompson_freede", sig, {}, tol, cases)


def table_lidskii_cases(kind, a, b, c, tol):
    """``_lidskii_cases`` by index table and gather: a byte-level oracle for the kernel's sums.

    The same sort chooses the tuples; their sums come from one
    ``_tuple_sums`` gather per spectrum instead of a Python loop.
    """
    positive = kind == "lambda"
    order = (np.argsort(c - a if positive else a - c, kind="stable") + 1).tolist()
    tuples = [tuple(sorted(order[:m])) for m in range(1, len(c) + 1)]
    table = _table(tuples, len(a))
    lhs = _tuple_sums(c, table)
    rhs = _tuple_sums(a, table) + np.array([np.sum(b[:m]) for m in range(1, len(c) + 1)])
    margins = lhs - rhs if positive else rhs - lhs
    ids = [f"{kind}:{','.join(map(str, t))}" for t in tuples]
    return [_make_case(*row, tol) for row in zip(ids, tuples, lhs, rhs, margins)]


def table_thompson_freede_cases(a, b, c, tol):
    """``_thompson_freede_cases`` by per-step argmin and gather: a byte-level oracle for the kernel.

    The same min-plus recursion, backtracked by one ``np.argmin`` over the
    rectangle i' < i, j' < j of g_{h-1} per position, row-major, so ties go
    to the lower i, then the lower j; the sums come from ``_tuple_sums``.
    """
    p = len(c)
    steps = np.arange(p)
    combined = steps[:, None] + steps - steps[:, None, None]
    inside = (combined >= 0) & (combined < p)
    g = np.where(inside, c[combined.clip(0, p - 1)] - a[:, None] - b, np.inf)
    for h in range(1, p):
        prefix = np.minimum.accumulate(np.minimum.accumulate(g[h - 1], axis=0), axis=1)
        g[h, 0, :] = g[h, :, 0] = np.inf
        g[h, 1:, 1:] += prefix[:-1, :-1]
    pairs = []
    for m in range(1, p + 1):
        i, j = divmod(int(np.argmin(g[m - 1])), p)
        path = [(i + 1, j + 1)]
        for h in range(m - 2, -1, -1):
            i, j = divmod(int(np.argmin(g[h, :i, :j])), j)
            path.append((i + 1, j + 1))
        pairs.append(tuple(zip(*reversed(path))))
    indices = [tuple(x + y - h for h, (x, y) in enumerate(zip(i, j), 1)) for i, j in pairs]
    lhs = _tuple_sums(c, _table(indices, p))
    rhs = _tuple_sums(a, _table([i for i, _ in pairs], p)) + _tuple_sums(b, _table([j for _, j in pairs], p))
    ids = [f"i={','.join(map(str, i))};j={','.join(map(str, j))}" for i, j in pairs]
    return [_make_case(*row, tol) for row in zip(ids, indices, lhs, rhs, lhs - rhs)]


def reference_wielandt_cases(A, idx, M=(), tol=DEFAULT_TOL, equality_tol=EQUALITY_TOL):
    """The cases of one index tuple, computed for that tuple alone, and its sampled cases on every flag of M.

    The tuple sum, the trace of the tuple's principal submatrix of the
    eigenflag compression, and the flags' witness sums are added left to
    right from +0.0; ``eigenflag_witness_etas`` is the tuple's own
    deviation of the eigenvalues of that submatrix from its lambdas, and
    ``restricted_cert_min:r`` the least of A's certificates 1, ..., r, by a
    Python loop.  The sampled cases are the oracle's own: ``interlace_min:r``
    and ``witness:f`` read eigvalsh of the tuple's own width of each flag's
    compression in the stack M (``positive_compressions``), and they hold
    whenever ``restricted_cert_min:r`` does.
    """
    record = _positive_eigen(A)
    eigen, certs, lambdas = record.eigen, record.certs, record.system.spectrum.lambdas
    target = ordered_sum(lambdas[i - 1] for i in idx)
    cols = np.array(idx) - 1
    sub = eigen[np.ix_(cols, cols)]
    value = ordered_sum(sub.diagonal().real)
    dev = float(np.max(np.abs(np.linalg.eigvalsh(sub) - lambdas[cols])))
    slack = len(idx) * float(np.max(np.abs(np.linalg.eigvalsh(eigen - np.diag(lambdas)))))
    cases = [
        _make_case("eigenflag_max", idx, target + slack, target, -slack, tol),
        _make_case("eigenflag_witness", idx, value, target, -abs(value - target), equality_tol),
        _make_case("eigenflag_witness_etas", idx, dev, 0.0, -dev, equality_tol),
    ]
    r = idx[-1]
    least = min(certs[:r].tolist())
    cases.append(_make_case(f"restricted_cert_min:{r}", range(1, r + 1), least, 0.0, least, tol))
    if not len(M):
        return cases
    eta = np.linalg.eigvalsh(M[:, :r, :r])
    worst = float(np.min(eta - lambdas[:r]))
    cases.append(_make_case(f"interlace_min:{r}", range(1, r + 1), worst, 0.0, worst, tol))
    sums = [ordered_sum(row[cols]) for row in eta]
    return cases + [_make_case(f"witness:{f}", idx, s, target, s - target, tol) for f, s in enumerate(sums)]


def reference_wielandt(A, M=(), tol=DEFAULT_TOL, equality_tol=EQUALITY_TOL):
    """check_wielandt_flag at every tuple, one Python loop per tuple: the exhaustive oracle.

    One report per tuple, by size and then lexicographically, with the
    descriptor {"index_tuple": ..., "n_flags": ...} and, on the flags of M,
    every flag's sampled ``witness:f`` case.
    """
    sig = A.signature
    if sig.p == 0:
        return [_finalize_report("wielandt", sig, {"n_flags": len(M)}, tol, [], notes=["no positive-type block"])]
    return [
        _finalize_report(
            "wielandt", sig, {"index_tuple": list(idx), "n_flags": len(M)}, tol,
            reference_wielandt_cases(A, idx, M, tol, equality_tol),
        )
        for idx in all_tuples(sig.p)
    ]


def gram_schmidt(basis, sig, sign=1.0):
    """Reference frame: Gram-Schmidt for the pairing, two cleaning passes per column.

    ``sign`` is the pivot sign: +1 frames a positive basis, -1 a negative one.
    """
    jd = metric_diagonal(sig)
    accepted = []
    for col in range(basis.shape[1]):
        v = basis[:, col].copy()
        for _ in range(2):
            for x in accepted:
                v = v - sign * np.sum(jd * v * x.conj()) * x
        s = float(np.sum(jd * v * v.conj()).real)
        accepted.append(v / np.sqrt(abs(s)))
    return np.column_stack(accepted)


# ---------------------------------------------------------------------------
# sampled positive subspaces: the oracle the certificates are held to
#
# The variational checks certify their bounds for every positive subspace and
# draw nothing.  These helpers draw the subspaces the tests hold them to:
# graph subspaces, framed by the Cholesky factorization that certifies them,
# and A compressed onto the frames.

#: smallest Cholesky pivot, relative to its input column's squared norm, of a positive subspace
TOL_CONE = 1e-9
#: acceptance on frame Gram deviation from +/- identity
TOL_FRAME = 1e-8
#: the default cap on ||K||_2 of a sampled graph subspace
CONTRACTION_CAP = 0.9


def sample_positive_subspace(sig, k, rng, *, count=None, cap=CONTRACTION_CAP) -> np.ndarray:
    """Basis (columns) of a k-dimensional subspace inside the positive cone.

    Graph construction: columns (Q v; K Q v) with Q a p x k isometry and K a
    q x p contraction with ||K|| <= ``cap`` < 1, so the paired Gram is
    I - Q* K* K Q >= (1 - cap^2) I and every sample is positive by
    construction; ``positive_frames`` certifies it again.  Graphs reach every
    positive subspace of the given dimension.

    With ``count`` the result is a stack (count, n, k) of independent
    samples, drawn with one batched QR and one batched ``eigvalsh`` for the
    norms of K; without it, the single basis is the first sample of a stack
    of one.
    """
    if not 1 <= k <= sig.p:
        raise ShapeMismatch(f"positive subspaces need 1 <= k <= p = {sig.p}, got k = {k}")
    if not 0 < cap < 1:
        raise ValueError(f"the contraction cap must lie in (0, 1), got {cap}")
    N = 1 if count is None else int(count)
    Q = np.linalg.qr(complex_normal(rng, N, sig.p, k))[0]
    if sig.q:
        K = complex_normal(rng, N, sig.q, sig.p)
        # ||K||_2 is the square root of the top eigenvalue of the smaller Gram, K K* or K* K
        G = K @ _adjoint(K) if sig.q <= sig.p else _adjoint(K) @ K
        kn = np.sqrt(np.linalg.eigvalsh(G)[:, -1])
        K = K * (rng.uniform(0.0, cap, N) / np.where(kn > 0, kn, 1.0))[:, None, None]
        basis = np.concatenate([Q, K @ Q], axis=-2)
    else:
        basis = Q
    return basis if count is not None else basis[0]


def cholesky_frame(X, sig, sign=1.0):
    """The frames X L^-H (..., n, k), L L^H = ``sign`` * gram(X), and the pivots |L_jj|^2 (..., k).

    For a definite Gram this is the frame that Gram-Schmidt with the pivot
    sign ``sign`` gives; a Gram that is not definite of that sign, in any
    sample of a stack, raises LinAlgError.  Pivot j is the self-pairing
    (times ``sign``) of column j cleaned against the columns before it.
    """
    L = np.linalg.cholesky(sign * gram(X, sig))
    return _adjoint(np.linalg.solve(L, _adjoint(X))), np.abs(L.diagonal(axis1=-2, axis2=-1)) ** 2


def positive_frames(basis, sig) -> np.ndarray:
    """The certified read-only positive frames of a basis (n, k) or a stack of bases (N, n, k).

    The raw frame ``cholesky_frame``, with two checks.  Each pivot must
    exceed ``TOL_CONE`` times the squared norm of its input column: a column
    that depends on the earlier ones leaves a pivot at roundoff of that
    norm.  And the frame's Gram must be within ``TOL_FRAME`` of I.  Cholesky
    squares the condition number of the input, so a nearly dependent basis
    can miss that; one more pass on the frame, whose Gram is already close
    to I, repairs it, as the second Gram-Schmidt pass does.  A failure
    raises ValueError, naming the first failing sample of a stack; when the
    stack's factorization stops, one factorization per sample finds it.
    """
    X = as_basis(basis, sig.n)
    try:
        F, pivots = cholesky_frame(X, sig)
        outside = np.any(~(pivots > TOL_CONE * np.sum(np.abs(X) ** 2, axis=-2)), axis=-1).reshape(-1)
    except np.linalg.LinAlgError:
        # the stacked factorization stops without naming the sample, so factor one at a time
        samples = X.reshape(-1, *X.shape[-2:])
        outside = np.zeros(len(samples), dtype=bool)
        for i, sample in enumerate(samples):
            try:
                cholesky_frame(sample, sig)
            except np.linalg.LinAlgError:
                outside[i] = True
                break
        else:
            raise
    if np.any(outside):
        at = f" at sample {int(np.argmax(outside))}" if X.ndim > 2 else ""
        raise ValueError(f"basis is not inside the positive cone{at}")
    eye = np.eye(X.shape[-1])
    if np.abs(gram(F, sig) - eye).max(initial=0.0) > TOL_FRAME:
        F = cholesky_frame(F, sig)[0]
        defect = float(np.abs(gram(F, sig) - eye).max())
        if defect > TOL_FRAME:
            raise ValueError(f"frame Gram deviates from I by {defect:.3e}")
    F.flags.writeable = False
    return F


def positive_compressions(A, count, rng, *, cap=CONTRACTION_CAP) -> np.ndarray:
    """The stack M = frame* J A frame (count, p, p) of ``count`` random width-p positive frames.

    A frame's k-column prefix frames its basis's k-column prefix, and the
    k-prefix of a width-p graph sample is distributed as a width-k sample, so
    a test reads a frame's k-subspaces, and the levels of a flag, from the
    leading blocks of M.  M is Hermitian, and its eigenvalues eta are the
    ones the min-max statements speak of.  With p = 0 or ``count`` 0 nothing
    is drawn: the stack is (count, 0, 0) or (0, p, p).
    """
    sig = A.signature
    if not (sig.p and count):
        return np.zeros((count, sig.p, sig.p), dtype=complex)
    frame = positive_frames(sample_positive_subspace(sig, sig.p, rng, count=count, cap=cap), sig)
    JA = metric_diagonal(sig)[:, None] * A.entries
    return _hermitian_part(_adjoint(frame) @ (JA @ frame))


def sampled_margins(A, M) -> dict:
    """The least margins of the sampled oracle over the frames of M, by case id, an oracle for the certificates.

    ``M`` is a stack (N, p, p) of compressions onto positive frames.  By
    Courant-Fischer and Ky Fan for the Hermitian M_f, eta_k(M_f) is the least
    top Rayleigh ratio and eta_1 + ... + eta_k the least trace over the
    k-subspaces of frame f, so ``minmax_sampled:k`` (eta_k - lambda_k) holds
    whenever ``restricted_cert:k`` does, and ``partial_sum_sampled:k``
    whenever ``restricted_cert_min:k`` does.  ``interlace_min:r`` is the
    least eta_i(M_f[:r, :r]) - lambda_i over the flags and i <= r, and holds
    whenever ``restricted_cert_min:r`` does.  An empty stack gives {}.
    """
    if not len(M):
        return {}
    lambdas = _positive_eigen(A).system.spectrum.lambdas
    d = np.linalg.eigvalsh(M) - lambdas
    margins = {}
    for k in range(1, len(lambdas) + 1):
        margins[f"minmax_sampled:{k}"] = float(np.min(d[:, k - 1]))
        margins[f"partial_sum_sampled:{k}"] = float(np.min(np.sum(d[:, :k], axis=-1)))
        margins[f"interlace_min:{k}"] = float(np.min(np.linalg.eigvalsh(M[:, :k, :k]) - lambdas[:k]))
    return margins


def non_invariant_system(A, k):
    """A's eigensystem with a planted eigensolver fault: eigenvector k is v_k + c w, and lambda_k its Rayleigh ratio.

    w is the top negative-type eigenvector, so v_k + c w is positive for
    |c| < 1 and paired-orthogonal to every other eigenvector: once framed
    block by block, the returned eigenbasis is pseudo-orthonormal, and A
    compresses onto it as diag(lambda') to roundoff.  But it is not
    invariant, and lambda'_k = lambda_k + c^2 (lambda_k - mu_1) / (1 - c^2)
    exceeds lambda_k; c raises it by half the gap to lambda_{k+1} (by 1 at
    k = p), so lambda' stays ascending.  The system keeps A's certificate
    and carries the framed vectors as its eigenvectors.  Needs q >= 1.
    """
    from kreinval.spectral import ClassifiedEigenSystem, eigendecompose

    sig = A.signature
    system = eigendecompose(A)
    lam, mu = system.spectrum.lambdas.copy(), system.spectrum.mus
    step = 0.5 * (lam[k] - lam[k - 1]) if k < sig.p else 1.0
    c = np.sqrt(step / (lam[k - 1] - mu[0] + step))
    vectors = np.array(system.eigenvectors)
    vectors[:, sig.q + k - 1] += c * vectors[:, sig.q - 1]  # the negative-type block ascends: mu_1 is last
    lam[k - 1] = _rayleigh(A, vectors[:, sig.q + k - 1], sig)
    eigenvalues = np.concatenate([mu[::-1], lam])
    faulty = ClassifiedEigenSystem(sig, eigenvalues, system.factor, system.shift, AdmissibleSpectrum(sig, lam, mu))
    framed = np.concatenate(
        [cholesky_frame(vectors[:, : sig.q], sig, -1.0)[0], cholesky_frame(vectors[:, sig.q :], sig)[0]], axis=1
    )
    framed.flags.writeable = False
    vars(faulty)["eigenvectors"] = framed  # stands in for the vectors the factor would give
    return faulty


def cone_class(z, sig, tol_null=TOL_NULL_REL) -> str:
    """"positive", "negative" or "null" by the sign of <z, z>, an oracle for the cone certificates.

    The null band is ``tol_null`` times the squared Euclidean norm, so the
    decision is scale-invariant.
    """
    zv = np.asarray(z, dtype=complex).reshape(-1)
    s = float(np.sum(metric_diagonal(sig) * np.abs(zv) ** 2))
    band = tol_null * float(np.vdot(zv, zv).real)
    return "positive" if s > band else "negative" if s < -band else "null"


class Flag(NamedTuple):
    """A stack (N, n, r) of positive flags, or one flag (n, r), with the frame that certifies it.

    Level j is spanned by the first ``index_tuple[j]`` columns of ``basis``,
    r = index_tuple[-1], so the levels are nested by construction, and
    ``frame`` is the certified positive frame of the top level, whose
    column prefixes frame the levels.
    """

    index_tuple: tuple[int, ...]
    basis: np.ndarray
    frame: np.ndarray

    @property
    def levels(self) -> tuple[np.ndarray, ...]:
        return tuple(self.basis[..., :dim] for dim in self.index_tuple)

    @property
    def depth(self) -> int:
        return len(self.index_tuple)


def positive_flag(sig, idx, basis) -> Flag:
    """The flag of ``idx`` on the leading columns of ``basis``; ValueError unless its top level is positive."""
    basis = np.asarray(basis)[..., : idx[-1]]
    return Flag(tuple(idx), basis, positive_frames(basis, sig))


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


def rayleigh_columns(entries, sig, X: np.ndarray) -> np.ndarray:
    """Rayleigh ratios over the columns of X (no null-band guard), an oracle for the min-max bounds."""
    M = np.asarray(entries, dtype=complex)
    jd = metric_diagonal(sig)
    num = np.einsum("ij,ij->j", X.conj(), jd[:, None] * (M @ X)).real
    den = np.einsum("ij,ij->j", X.conj(), jd[:, None] * X).real
    return num / den


def restricted_cone_samples(pos_part, neg_part, count, rng, *, cap=0.95) -> np.ndarray:
    """Columns of positive vectors inside the span of the given frame columns, an oracle for the certificate.

    ``pos_part`` and ``neg_part`` must have pseudo-orthonormal columns of
    positive resp. negative type (e.g. eigenvector blocks).  Coefficients on
    the negative part are scaled below ``cap`` times the positive-part norm,
    which keeps every sample strictly inside the positive cone.
    """
    alpha = complex_normal(rng, pos_part.shape[1], count)
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

    frame: np.ndarray
    compressed: np.ndarray
    etas: np.ndarray


def compress(A, frame: np.ndarray) -> CompressionResult:
    """Compress A onto a pseudo-orthonormal positive frame (..., n, k), an oracle for the checks' stacks.

    The compressed matrix has entries m[k, j] = <A x_j, x_k>.  It is Hermitian
    because J A is, so its eigenvalues (returned ascending) are real; its
    trace equals the sum of the Rayleigh ratios of the frame vectors.  A
    stacked frame is compressed with one batched product and one batched
    eigvalsh.
    """
    X = np.asarray(frame)
    defect = np.abs(gram(X, A.signature) - np.eye(X.shape[-1])).max()
    if defect > TOL_FRAME:
        raise ValueError(f"compression needs a positive frame; its Gram deviates from I by {defect:.3e}")
    jd = metric_diagonal(A.signature)
    M = np.swapaxes(X, -1, -2).conj() @ (jd[:, None] * (A.entries @ X))
    M = 0.5 * (M + np.swapaxes(M, -1, -2).conj())
    return CompressionResult(frame=frame, compressed=M, etas=np.linalg.eigvalsh(M))


def subordinate_coordinates(index_tuples, rng, count):
    """Orthonormal coordinates of ``count`` random frames subordinate to the flag of each tuple, shape by shape.

    The oracle of ``subordinate_frames`` below: it reads the same draw, one
    ``complex_normal`` call, in the same order, and orthonormalizes it by
    Householder QR instead of Gram-Schmidt.  In a flag's ``frame`` the
    pairing is Euclidean and level j is E_{idx[j]}, the span of the first
    idx[j] unit vectors.  The tuples of one shape
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


def _compression_trace(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Traces of X* M X over a stack (..., k, m): with M = J A and a
    pseudo-orthonormal frame X, the trace of the compression of A onto X.
    """
    return np.einsum("...ij,...ij->...", X.conj(), M @ X).real


# ---------------------------------------------------------------------------
# the eigenflag oracle: random frames subordinate to the eigenvector flag
#
# ``check_wielandt_flag`` bounds every such frame's trace by the tuple sum
# plus m ||eigen - diag(lambda)||_2; these frames sample what that bounds.


class SubordinateLayout(NamedTuple):
    """Where ``subordinate_frames`` puts each entry of its draw, for one list of index tuples.

    The tuples are taken in ``order``, a stable sort by size, so the ones
    with more than j entries are the suffix of that order from ``starts[j]``
    on.  ``gather[i, j, s]`` is the slot of the draw that row i of column j
    of the s-th of them reads, and ``size`` (one past the draw, a zero)
    where that entry vanishes: i >= idx[j] or j >= len(idx).
    """

    gather: np.ndarray
    size: int
    starts: tuple[int, ...]
    order: np.ndarray


def subordinate_layout(index_tuples) -> SubordinateLayout:
    """The layout of the draw for a nonempty list of valid 1-based index tuples.

    The slots keep the order in which the tuples' coefficients were drawn
    shape by shape: the tuples of one shape (r, m), m = len(idx), form a
    group, the groups come in order of first appearance, and each group
    takes its tuples in input order, each by rows and then by columns.
    """
    sizes = np.array([len(idx) for idx in index_tuples])
    order = np.argsort(sizes, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    groups: dict[tuple[int, int], list[int]] = {}
    for pos, idx in enumerate(index_tuples):
        groups.setdefault((idx[-1], len(idx)), []).append(pos)
    gather = np.full((max(r for r, _ in groups), sizes.max(), len(sizes)), -1)
    size = 0
    for (r, _), group in groups.items():
        # row i of column j is drawn for tuple g while i < idx_g[j]; nonzero walks g, then i, then j
        g, i, j = np.nonzero(np.arange(r)[:, None] < np.array([index_tuples[t] for t in group])[:, None, :])
        gather[i, j, rank[group][g]] = np.arange(size, size + len(g))
        size += len(g)
    gather[gather < 0] = size
    starts = tuple(int(s) for s in np.searchsorted(sizes[order], np.arange(gather.shape[1]), side="right"))
    for array in (gather, order):
        array.flags.writeable = False
    return SubordinateLayout(gather, size, starts, order)


def subordinate_frames(layout: SubordinateLayout, rng: np.random.Generator, count: int) -> np.ndarray:
    """Orthonormal coordinates (r, m, T, count) of ``count`` random frames subordinate to each tuple's flag.

    In a flag's ``frame`` the pairing is the Euclidean inner product and
    level j is E_{idx[j]}, the span of the first idx[j] unit vectors.  One
    ``complex_normal`` call draws a Gaussian coefficient vector for every
    level of every tuple and frame, and ``layout.gather`` puts it in
    zero-padded coordinates: T tuples, in ``layout.order``, of r rows and m
    columns, r and m the largest top index and size.  Classical
    Gram-Schmidt, run twice per column and vectorized over tuples and
    frames, orthonormalizes every frame; column j runs only over the tuples
    with more than j columns.  Each column is a combination of itself and
    the columns before it, which vanish below row idx[j], so column j lies
    in E_{idx[j]}, and ``flag.frame @ C[:r_t, :m_t, s, f]`` is a subordinate
    frame of the flag of the s-th tuple, r_t and m_t its top index and
    size.  Padded columns stay zero.
    """
    drawn = np.zeros((layout.size + 1, count), dtype=complex)
    drawn[:-1] = complex_normal(rng, count, layout.size).T
    C = drawn[layout.gather]
    for j, start in enumerate(layout.starts):
        v, Q = C[:, j, start:], C[:, :j, start:]
        for _ in range(2 if j else 0):  # twice is enough for orthogonality to working precision
            v -= np.einsum("ikts,kts->its", Q, np.einsum("ikts,its->kts", Q, v.conj()).conj())
        v /= np.linalg.norm(v, axis=0)
    return C


def eigenflag_traces(eigen, index_tuples, rng, count):
    """Traces (T, count) of ``count`` random frames subordinate to each tuple's eigenflag, in input order.

    ``eigen`` is the compression (p, p) onto the framed positive eigenbasis.
    The coordinates come from one ``subordinate_frames`` draw; the zero rows
    past a tuple's top index r read only eigen's leading r x r block.
    """
    layout = subordinate_layout(index_tuples)
    C = subordinate_frames(layout, rng, count)
    r, T = len(C), len(index_tuples)
    EC = (eigen[:r, :r] @ C.reshape(r, -1)).reshape(-1, T * count)
    traces = np.empty((T, count))
    traces[layout.order] = np.einsum("ik,ik->k", C.reshape(-1, T * count).conj(), EC).real.reshape(T, count)
    return traces


# ---------------------------------------------------------------------------
# the Hermitian-Wielandt oracle: a witness frame subordinate to each flag
#
# ``check_wielandt_flag`` reports sum_j eta_{i_j}(M) for each flag; these
# frames are subordinate to the flag and reach that sum (Wielandt 1955;
# Hersch-Zwahlen 1962), so the tests hold their traces to it.

# Hermitian Wielandt holds for the witness frame exactly; only roundoff, relative to ||M||, may show
WITNESS_ROUNDOFF = 1e-12


def _hyperplane_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal bases U (..., n, n-1) of the complements of unit vectors w (..., n).

    Column k (1-based) lies in E_{k+1}: with s_k = |w_1|^2 + ... + |w_k|^2 it
    is (conj(w_{k+1}) w_1, ..., conj(w_{k+1}) w_k, -s_k) / sqrt(s_k s_{k+1}),
    and e_k while s_k = 0.  So the first d - 1 columns span E_d ∩ w⊥ whenever
    w has a nonzero entry among its first d.
    """
    s = np.cumsum(np.abs(w) ** 2, axis=-1)
    lead = s[..., :-1]
    zero = lead == 0
    d = np.sqrt(np.where(zero, 1.0, lead * s[..., 1:]))
    U = np.triu(w[..., :, None] * (w[..., 1:].conj() / d)[..., None, :])
    k = np.arange(w.shape[-1] - 1)
    U[..., k + 1, k] = -lead / d
    U[..., k, k] = np.where(zero, 1.0, U[..., k, k])
    return U


def _witness_runs(idx: tuple[int, ...]) -> tuple[int, ...]:
    """The ``run`` of each of the r - m witness steps on ``idx``, top width r = idx[-1] first.

    A step cuts the width by one and moves the trailing run's indices one
    down, so the cut tuple is idx[:m - run] followed by r - run, ..., r - 1.
    """
    r, m, runs = idx[-1], len(idx), []
    while r > m:
        run = 1
        while run < m and idx[m - 1 - run] == r - run:
            run += 1
        runs.append(run)
        idx = idx[: m - run] + tuple(range(r - run, r))
        r -= 1
    return tuple(runs)


def _witness_traces(M: np.ndarray, spectra: dict, tuples) -> list[np.ndarray]:
    """Traces (N,) of the deterministic witness frames, one array per tuple, in order.

    ``M`` is the stack (N, p, p) of N flags' compressions onto their top
    levels, each written in a pseudo-orthonormal frame whose column prefixes
    span the lower levels: there the pairing is the Euclidean inner product,
    M is an ordinary Hermitian matrix, and a tuple's flag is the standard
    flag E_{idx[0]} ⊂ ... ⊂ E_r of M's leading r x r block, r = idx[-1].
    ``spectra[r]`` is ``eigh`` of that block for every top width r.

    Hermitian Wielandt recursion, on standard levels at every step.  A
    complete flag (m = r) keeps its whole block.  Otherwise let the trailing
    ``run`` indices be r - run + 1, ..., r; the leading levels lie in E_lo
    with lo = r - run - 1.  The hyperplane R spanned by E_lo and the top
    ``run`` eigenvectors of M keeps those eigenvalues one index lower, and
    Cauchy interlacing keeps the others from dropping, so R* M R with the
    levels cut down to R reaches the same tuple sum.  Its normal w is zero
    on E_lo, and on the rows below it is the last column of a complete QR of
    the eigenvectors' rows, which is orthogonal to them at any rank.  In the
    basis diag(I_lo, U(w)) of R the levels are standard again: the first
    d - 1 basis columns lie in E_d, so the trailing levels E_d become
    E_{d-1} and the leading ones keep their dimensions.

    A step depends only on the current M and on (r, run), so the steps of
    all tuples form a trie keyed by the path (r, run_1, ..., run_d) from the
    top width.  Each distinct step is computed once, and the steps of one
    depth that share (r, run) run as one stack: one ``eigh`` (the first step
    reads ``spectra[r]`` instead), one complete QR, one ``_hyperplane_basis``
    and one compression.  The witness frame is the product of the steps'
    R's, so its trace is the trace of the last node's m x m compression and
    no frame is formed.
    """
    N = M.shape[0]
    paths = [(idx[-1],) + _witness_runs(idx) for idx in tuples]
    nodes = {path[:1]: M[:, : path[0], : path[0]] for path in paths}
    for d in range(1, max(map(len, paths), default=0)):
        groups: dict[tuple[int, int], dict] = {}
        for path in paths:
            if len(path) > d:  # step d takes node path[:d], of width path[0] - d + 1
                groups.setdefault((path[0] - d + 1, path[d]), {})[path[:d]] = None
        for (r, run), parents in groups.items():
            stack = np.concatenate([nodes[parent] for parent in parents])
            vecs = spectra[r][1] if d == 1 else np.linalg.eigh(stack)[1]
            lo = r - run - 1
            w = np.linalg.qr(vecs[..., lo:, r - run :], mode="complete")[0][..., -1]
            R = np.zeros(stack.shape[:-1] + (r - 1,), dtype=complex)
            R[..., :lo, :lo] = np.eye(lo)
            R[..., lo:, lo:] = _hyperplane_basis(w)
            cut = _hermitian_part(_adjoint(R) @ stack @ R).reshape(len(parents), N, r - 1, r - 1)
            nodes.update((parent + (run,), child) for parent, child in zip(parents, cut))
    return [np.trace(nodes[path], axis1=-2, axis2=-1).real for path in paths]
