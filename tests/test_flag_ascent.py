"""The flag compressions of ``check_wielandt_flag`` and the oracles behind its cases.

For each shape of index tuple the check reports the least margin over
the tuples and flags: the sum of the selected eigenvalues of a flag's
compressed matrix minus the tuple sum.  The exhaustive per-tuple oracle
``reference_wielandt`` must agree.  Hermitian Wielandt says a frame
subordinate to the flag reaches that sum.  The witness recursion that
builds such a frame is kept here and in ``tests/conftest.py`` as the oracle, in three
forms that must agree (to 1e-12): the per-flag recursion in the ambient
indefinite space, the per-tuple recursion ``witness_subordinate`` in the
coordinates of each flag's framed top level, and ``_witness_traces``, which
shares the steps of all tuples and flags and forms no frame.  Each witness
trace must reach the tuple sum wherever the check's certificate of the
tuple's shape passes.  On the eigenvector flag the check reports a
certified supremum; every frame of the sampled eigenflag oracle must stay
below it.  The flags are drawn here, by the samplers of
``tests/conftest.py``: the check draws none.
"""

import dataclasses
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kreinval import checks, cli, sampling
from kreinval.checks import (
    DEFAULT_TOL,
    _hermitian_part,
    check_wielandt_flag,
)
from kreinval.cli import SuiteConfig, run_instance, run_suite
from kreinval.core import PseudoHermitianMatrix, Signature, metric_diagonal
from kreinval.geometry import _adjoint
from kreinval.sampling import (
    SamplerConfig,
    instance_rng,
    sample_planted,
)
from kreinval.spectral import eigendecompose, positive_eigenbasis

from conftest import (
    TOL_CONE,
    WITNESS_ROUNDOFF,
    _compression_trace,
    _hyperplane_basis,
    _witness_traces,
    all_tuples,
    cholesky_frame,
    complex_normal,
    compress,
    cone_margin,
    eigenflag_traces,
    ordered_sum,
    positive_compressions,
    positive_flag,
    positive_frames,
    reference_wielandt,
    reference_wielandt_cases,
    sample_positive_subspace,
    shape,
)

SEED = 4417
ORACLE_SIGNATURES = [(1, 1), (2, 1), (3, 0), (3, 2), (4, 3)]
TRACE_TOL = 1e-12


# ---------------------------------------------------------------------------
# per-flag reference


def ref_frame_trace(entries, sig, X):
    """Sum of the Rayleigh ratios <A x, x> over the pseudo-orthonormal columns x of X."""
    jd = metric_diagonal(sig)
    return float(sum(np.vdot(x, jd * (entries @ x)).real for x in X.T))


def ref_orth(B):
    u, sv, _ = np.linalg.svd(B, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0:
        return u[:, :0]
    rank = int(np.sum(sv > sv[0] * 1e-12))
    return u[:, :rank]


def ref_complete_orthonormal(B, k):
    Q0 = ref_orth(B)
    if Q0.shape[1] >= k:
        return Q0[:, :k]
    full, _ = np.linalg.qr(np.hstack([Q0, np.eye(B.shape[0], dtype=complex)]))
    return full[:, :k]


def ref_hermitian_flag_witness(M, levels, idx):
    r = M.shape[0]
    m = len(idx)
    levels = [ref_orth(L) for L in levels]
    if m == r:
        X = np.zeros((r, m), dtype=complex)
        for j in range(m):
            W = levels[j]
            if j:
                P = X[:, :j]
                W = W - P @ (P.conj().T @ W)
            norms = np.linalg.norm(W, axis=0)
            pick = int(np.argmax(norms))
            X[:, j] = W[:, pick] / norms[pick]
        return X
    s = 0
    while m - 2 - s >= 0 and idx[m - 2 - s] == r - 1 - s:
        s += 1
    run = s + 1
    t = m - run
    _, vecs = np.linalg.eigh(M)
    anchor = vecs[:, r - run :]
    blocks = np.column_stack([levels[t - 1], anchor]) if t else anchor
    R = ref_complete_orthonormal(blocks, r - 1)
    Mp = R.conj().T @ M @ R
    Mp = 0.5 * (Mp + Mp.conj().T)
    new_levels = [R.conj().T @ levels[j] for j in range(t)]
    new_idx = list(idx[:t])
    for pos in range(run):
        dim_target = r - run + pos
        V = levels[t + pos]
        G = V - R @ (R.conj().T @ V)
        _, _, vh = np.linalg.svd(G)
        N = vh[V.shape[1] - dim_target :].conj().T
        new_levels.append(R.conj().T @ (V @ N))
        new_idx.append(dim_target)
    Xp = ref_hermitian_flag_witness(Mp, new_levels, tuple(new_idx))
    return R @ Xp


def ref_witness_subordinate(entries, sig, flag):
    jd = metric_diagonal(sig)
    idx = tuple(int(L.shape[1]) for L in flag.levels)
    top = positive_frames(flag.levels[-1], sig)
    M = top.conj().T @ (jd[:, None] * (entries @ top))
    M = 0.5 * (M + M.conj().T)
    coords = [top.conj().T @ (jd[:, None] * L) for L in flag.levels]
    X = ref_hermitian_flag_witness(M, coords, idx)
    return positive_frames(top @ X, sig)


def witness_subordinate(M, idx):
    """The per-tuple coordinate witness: orthonormal frames (N, r, m) whose column j lies in E_{idx[j]}.

    ``M`` is the stack (N, r, r) of compressions onto the framed top levels
    of N flags, idx[-1] == r.  The same recursion as ``_witness_traces``,
    one tuple at a time, with one ``eigh`` per step, and the frame formed as
    the product of the steps' bases.
    """
    r, m = M.shape[-1], len(idx)
    if m == r:
        return np.broadcast_to(np.eye(r, dtype=complex), M.shape).copy()
    run = 1
    while run < m and idx[m - 1 - run] == r - run:
        run += 1
    lo = r - run - 1
    anchor = np.linalg.eigh(M)[1][..., lo:, r - run :]
    w = np.linalg.qr(anchor, mode="complete")[0][..., -1]
    R = np.zeros(M.shape[:-1] + (r - 1,), dtype=complex)
    R[..., :lo, :lo] = np.eye(lo)
    R[..., lo:, lo:] = _hyperplane_basis(w)
    new_idx = idx[: m - run] + tuple(range(r - run, r))
    return R @ witness_subordinate(_hermitian_part(_adjoint(R) @ M @ R), new_idx)


def shared_traces(M, tuples):
    """The shared oracle's witness traces on the leading blocks of one stack M (N, p, p)."""
    spectra = {r: np.linalg.eigh(M[:, :r, :r]) for r in {idx[-1] for idx in tuples}}
    return _witness_traces(M, spectra, tuples)


# ---------------------------------------------------------------------------
# helpers


def instance(p, q, index):
    cfg = SamplerConfig()
    A, _, _ = sample_planted(Signature(p, q), cfg, instance_rng(SEED, index))
    return A, cfg


def flag_stack(sig, idx, rng, count):
    return positive_flag(sig, idx, sample_positive_subspace(sig, idx[-1], rng, count=count))


def top_coordinates(entries, sig, basis):
    """The framed top levels (N, n, r) of a stack of flag bases and the compressions onto them."""
    top = positive_frames(basis, sig)
    jd = metric_diagonal(sig)
    M = top.conj().swapaxes(-1, -2) @ (jd[:, None] * (entries @ top))
    return top, 0.5 * (M + M.conj().swapaxes(-1, -2))


def ref_witness_traces(entries, sig, flags):
    """The per-flag ambient witness's trace for each flag of a stack."""
    return np.array([
        ref_frame_trace(entries, sig, ref_witness_subordinate(
            entries, sig, SimpleNamespace(levels=[L[f] for L in flags.levels])
        ))
        for f in range(len(flags.basis))
    ])


def check_flags_against_reference(A, flags):
    sig = A.signature
    _, M = top_coordinates(A.entries, sig, flags.basis)
    C = witness_subordinate(M, flags.index_tuple)
    assert np.allclose(C.conj().swapaxes(-1, -2) @ C, np.eye(flags.depth), atol=1e-12)
    want = ref_witness_traces(A.entries, sig, flags)
    assert np.max(np.abs(_compression_trace(M, C) - want)) <= TRACE_TOL
    (got,) = shared_traces(M, [flags.index_tuple])
    assert np.max(np.abs(got - want)) <= TRACE_TOL


def shapes(p):
    """Every shape (r, m) of a tuple bounded by p, m <= r, in report order."""
    return [(r, m) for r in range(1, p + 1) for m in range(1, r + 1)]


def certified_shapes(reports):
    """Whether each shape's certificate, the last case of its report, passes."""
    return {shape(rep): rep.cases[-1].passed for rep in reports}


# ---------------------------------------------------------------------------
# oracle


@pytest.mark.parametrize("pq", ORACLE_SIGNATURES + [(5, 3), (6, 4)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_stacked_kernels_match_the_per_flag_loop(pq):
    A, cfg = instance(*pq, 1)
    sig = A.signature
    for t, idx in enumerate(all_tuples(sig.p)):
        rng = instance_rng(SEED, 2, t)
        flags = flag_stack(sig, idx, rng, count=5)
        check_flags_against_reference(A, flags)


@settings(max_examples=25, deadline=None)
@given(
    pq=st.sampled_from(ORACLE_SIGNATURES),
    seed=st.integers(0, 2**31 - 1),
    pick=st.integers(0, 2**31 - 1),
    count=st.integers(1, 6),
)
def test_stacked_kernels_match_the_per_flag_loop_property(pq, seed, pick, count):
    sig = Signature(*pq)
    cfg = SamplerConfig()
    rng = instance_rng(seed, 3)
    A, _, _ = sample_planted(sig, cfg, rng)
    tuples = all_tuples(sig.p)
    idx = tuples[pick % len(tuples)]
    flags = flag_stack(sig, idx, rng, count=count)
    check_flags_against_reference(A, flags)


SHARED_SIGNATURES = [(2, 1), (3, 2), (4, 3), (5, 3), (6, 4)]


@pytest.mark.parametrize("pq", SHARED_SIGNATURES + [(8, 6)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_shared_traces_match_the_per_tuple_reference(pq):
    """Every tuple's shared trace is the trace of the per-tuple reference frame on its leading block.

    Every tuple, 255 at (8,6).
    """
    A, cfg = instance(*pq, 6)
    sig = A.signature
    M = positive_compressions(A, 7, instance_rng(SEED, 7))
    tuples = all_tuples(sig.p)
    assert len(tuples) == 2**sig.p - 1
    for idx, got in zip(tuples, shared_traces(M, tuples), strict=True):
        block = M[:, : idx[-1], : idx[-1]]
        want = _compression_trace(block, witness_subordinate(block, idx))
        assert np.max(np.abs(got - want)) <= TRACE_TOL, idx



@pytest.mark.parametrize("pq", SHARED_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_check_witness_cases_match_the_per_flag_reference(pq):
    """On six sampled width-p flags, each tuple's oracle case witness:f is sum eta_{i_j} of flag f, the
    per-flag witness frame reaches it, and it reaches the tuple sum: the check certified every shape."""
    A, _ = instance(*pq, 4)
    sig = A.signature
    assert all(certified_shapes(check_wielandt_flag(A)).values())
    bases = sample_positive_subspace(sig, sig.p, instance_rng(SEED, 5), count=6)
    M = positive_compressions(A, 6, instance_rng(SEED, 5))  # the compressions onto the frames of these bases
    for idx in all_tuples(sig.p):
        witness = [c for c in reference_wielandt_cases(A, idx, M) if c.case_id.startswith("witness:")]
        assert [c.case_id for c in witness] == [f"witness:{f}" for f in range(6)]
        flags = positive_flag(sig, idx, bases)
        _, Mf = top_coordinates(A.entries, sig, flags.basis)
        eta = np.linalg.eigvalsh(Mf)
        reached = ref_witness_traces(A.entries, sig, flags)
        for f, case in enumerate(witness):
            assert case.indices == idx and case.passed, (idx, f)
            assert abs(case.lhs - eta[f, [i - 1 for i in idx]].sum()) <= TRACE_TOL
            scale = max(1.0, np.max(np.abs(eta[f])))
            assert reached[f] >= case.lhs - WITNESS_ROUNDOFF * scale, (idx, f)


@pytest.mark.parametrize("pq", SHARED_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_shared_flags_give_every_tuple_its_own_flags_cases(pq):
    """One certificate per shape of an instance holds on every tuple's own flags, each drawn for that tuple alone.

    The shapes share certificates, and the tuples of a shape share its
    certificate.  The reference is the per-tuple computation: ten flags
    drawn for the tuple, of width its top index r, the certified frame of
    each, eigvalsh of its own M for the witness sums, and interlacing on
    the same frames.  Every witness sum reaches the tuple sum and every
    compression interlaces, to the check's tol.
    """
    cfg = SuiteConfig(p=pq[0], q=pq[1], seed=SEED, suites=("wielandt",))
    sig, index = Signature(*pq), 3
    reports = run_instance(cfg, index)
    assert [shape(r) for r in reports] == shapes(sig.p) and all(certified_shapes(reports).values())
    A, _, _ = sample_planted(sig, cfg.sampler(), instance_rng(SEED, index))
    lambdas = eigendecompose(A).spectrum.lambdas
    JA = metric_diagonal(sig)[:, None] * A.entries
    for t, idx in enumerate(all_tuples(sig.p)):
        frame = flag_stack(sig, idx, instance_rng(SEED, index, t), count=10).frame
        M = frame.conj().swapaxes(-1, -2) @ (JA @ frame)
        eta = np.linalg.eigvalsh(0.5 * (M + M.conj().swapaxes(-1, -2)))
        sums = eta[:, [i - 1 for i in idx]].sum(axis=-1)
        assert np.all(sums >= ordered_sum(lambdas[i - 1] for i in idx) - cfg.tol_check), idx
        assert np.min(eta - lambdas[: idx[-1]]) >= -cfg.tol_check, idx


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 4),
    kind=st.sampled_from(["generic", "repeated", "diagonal"]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_the_witness_trace_is_a_wielandt_certificate(r, seed, count, kind, scale):
    """For every index tuple, the witness trace reaches the sum of the selected eigenvalues of M."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((count, r))
    if kind != "generic":
        vals = np.round(vals)  # ties in the spectrum
    if kind == "diagonal":
        M = vals[..., None] * np.eye(r)
    else:
        Q = np.linalg.qr(complex_normal(rng, count, r, r))[0]
        M = Q @ (vals[..., None] * Q.conj().swapaxes(-1, -2))
        M = 0.5 * (M + M.conj().swapaxes(-1, -2))
    M = scale * M.astype(complex)
    eta = np.linalg.eigvalsh(M)
    slack = 1e-12 * np.maximum(1.0, np.max(np.abs(eta), axis=-1))
    for head in itertools.chain.from_iterable(itertools.combinations(range(1, r), k) for k in range(r)):
        idx = head + (r,)
        C = witness_subordinate(M, idx)
        assert np.allclose(C.conj().swapaxes(-1, -2) @ C, np.eye(len(idx)), atol=1e-12)
        for j, d in enumerate(idx):
            assert np.all(np.abs(C[:, d:, j]) <= 1e-12), (idx, j)  # column j lies in E_{idx[j]}
        target = eta[:, [i - 1 for i in idx]].sum(axis=-1)
        assert np.all(_compression_trace(M, C) >= target - slack), idx
        (shared,) = shared_traces(M, [idx])
        assert np.all(shared >= target - slack), idx


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 7),
    seed=st.integers(0, 2**31 - 1),
    zeros=st.integers(0, 7),
    count=st.integers(1, 3),
)
def test_hyperplane_basis_is_an_adapted_basis_of_the_complement(n, seed, zeros, count):
    """U(w) is orthonormal, orthogonal to w, and column k lies in E_{k+1}, also past leading zeros."""
    w = complex_normal(np.random.default_rng(seed), count, n)
    w[:, : min(zeros, n - 1)] = 0.0
    w[0] = np.eye(n)[min(zeros, n - 1)]  # a unit vector; e_n when every entry but the last is zero
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    U = _hyperplane_basis(w)
    assert U.shape == (count, n, n - 1)
    assert np.allclose(U.conj().swapaxes(-1, -2) @ U, np.eye(n - 1), atol=1e-12)
    assert np.all(np.abs(np.einsum("fi,fik->fk", w.conj(), U)) <= 1e-12)
    assert np.all(np.tril(U, -2) == 0)  # column k (1-based) has no entry below row k + 1
    if zeros >= n - 1:
        assert np.array_equal(U[0], np.eye(n)[:, : n - 1])


def counting_linalg(monkeypatch, *names):
    """Count calls of the named ``np.linalg`` functions; reset with ``calls.update``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_a_check_solves_one_eigenproblem_per_width_and_per_batched_step(monkeypatch):
    """At (6,4), for all 63 tuples in 21 reports, the check solves one eigvalsh, for the eigenflag's roundoff,
    and no eigh or SVD: its certificates are kept for A."""
    A, cfg = instance(6, 4, 7)
    checks._positive_eigen(A)  # the eigenbasis compression and the certificates are memoized per matrix
    calls = counting_linalg(monkeypatch, "eigh", "eigvalsh", "svd")
    reports = check_wielandt_flag(A)
    assert len(reports) == 21 and all(r.passed for r in reports)
    assert calls == {"eigh": 0, "eigvalsh": 1, "svd": 0}


def test_the_eigenflag_draw_does_not_grow_with_the_tuples(monkeypatch):
    """The check draws nothing: its eigenflag bound is certified, not sampled.  It opens no stream and
    leaves numpy's global stream where it was."""
    A, cfg = instance(6, 4, 9)

    def no_stream(*args, **kwargs):
        raise AssertionError("the check opened a random stream")

    for name in ("default_rng", "Generator", "SeedSequence"):
        monkeypatch.setattr(np.random, name, no_stream)
    monkeypatch.setattr(sampling, "instance_rng", no_stream)
    before = np.random.get_state(legacy=False)
    assert len(check_wielandt_flag(A)) == 21
    after = np.random.get_state(legacy=False)
    assert after["state"]["pos"] == before["state"]["pos"]
    assert np.array_equal(after["state"]["key"], before["state"]["key"])


EIGENFLAG_SIGNATURES = [(1, 0), (2, 1), (3, 2), (4, 3), (5, 3), (6, 4), (8, 6)]


def eigenflag_tuples(p, order):
    """The tuples an oracle visits: every one, in enumeration order; or those reversed, with duplicates.

    The check's verdict on a shape is a statement about every tuple of it,
    so it must hold whatever order, and however often, the oracle visits them.
    """
    tuples = all_tuples(p)
    return tuples if order == "enumerated" else tuples[::-1] + tuples[::3]


@pytest.mark.parametrize("order", ["enumerated", "unordered"])
@pytest.mark.parametrize("pq", EIGENFLAG_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_eigenflag_max_is_the_highest_oracle_trace(pq, order):
    """Each shape's eigenflag_max bounds every frame of the sampled eigenflag oracle on every tuple of
    that shape, to 1e-12: the tuple sum plus m ||eigen - diag(lambda)||_2, the norm recomputed here by
    an SVD.  The case names the lowest tuple of its shape, and its margin is minus the excess.
    """
    A, cfg = instance(*pq, 24)
    tuples = eigenflag_tuples(pq[0], order)
    reports = check_wielandt_flag(A)
    record = checks._positive_eigen(A)
    eigen, lambdas = record.eigen, record.system.spectrum.lambdas
    delta = np.linalg.norm(eigen - np.diag(lambdas), 2)
    excess = {}
    for rep in reports:
        r, m = shape(rep)
        (c,) = [c for c in rep.cases if c.case_id == "eigenflag_max"]
        assert c.indices == (*range(1, m), r)
        assert c.margin == pytest.approx(-m * delta, rel=1e-9, abs=1e-300)
        assert c.lhs - c.rhs == pytest.approx(m * delta, abs=1e-14 * max(1.0, abs(c.rhs)))
        excess[r, m] = -c.margin
    traces = eigenflag_traces(eigen, tuples, instance_rng(SEED, 27), 64)
    bounds = [ordered_sum(lambdas[i - 1] for i in idx) + excess[idx[-1], len(idx)] for idx in tuples]
    assert np.all(traces <= np.array(bounds)[:, None] + 1e-12)


@pytest.mark.parametrize("order", ["enumerated", "unordered"])
@pytest.mark.parametrize("pq", EIGENFLAG_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_the_witness_oracle_reaches_every_witness_case(pq, order):
    """Hermitian Wielandt, checked at every tuple on five sampled flags: the oracle's witness frame reaches
    sum_j eta_{i_j} of the flag's leading r x r block M_r, to 1e-12 max(1, ||M_r||_2), and that sum reaches the
    tuple sum, to the check's tol, wherever the check certified the tuple's shape."""
    A, cfg = instance(*pq, 24)
    tuples = eigenflag_tuples(pq[0], order)
    M = positive_compressions(A, 5, instance_rng(SEED, 26))
    certified = certified_shapes(check_wielandt_flag(A))
    assert all(certified.values())
    lambdas = checks._positive_eigen(A).system.spectrum.lambdas
    eta = {r: np.linalg.eigvalsh(M[:, :r, :r]) for r in range(1, pq[0] + 1)}
    scale = np.maximum(1.0, [np.linalg.norm(M[:, : idx[-1], : idx[-1]], 2, axis=(-2, -1)) for idx in tuples])
    traces = np.array(shared_traces(M, tuples))
    assert traces.shape == scale.shape == (len(tuples), 5)
    sums = np.array([eta[idx[-1]][:, [i - 1 for i in idx]].sum(axis=-1) for idx in tuples])
    assert np.all(traces >= sums - WITNESS_ROUNDOFF * scale)
    for idx, row in zip(tuples, sums):
        if certified[idx[-1], len(idx)]:
            assert np.all(row >= ordered_sum(lambdas[i - 1] for i in idx) - DEFAULT_TOL), idx


@pytest.mark.parametrize("n_flags", [0, 1, 5])
@pytest.mark.parametrize("order", ["enumerated", "unordered"])
@pytest.mark.parametrize("pq", EIGENFLAG_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_every_other_case_is_the_per_tuple_case_bit_for_bit(pq, order, n_flags):
    """Every case is a per-tuple case of its shape with the same bytes, computed for that tuple alone.

    ``eigenflag_max`` and ``restricted_cert_min:r`` are the cases of the
    tuple they name (the certificate names 1, ..., r).  ``eigenflag_witness``
    names no tuple: its lhs is minus the margin of some tuple of its shape,
    bit for bit.  ``eigenflag_witness_etas`` is delta, the bound of every
    tuple's, in the (1, 1) report alone.  Where a shape's certificate
    passes, the oracle's sampled cases on ``n_flags`` flags pass at every
    tuple of the shape.
    """
    A, cfg = instance(*pq, 28)
    M = positive_compressions(A, n_flags, instance_rng(SEED, 29))
    reports = check_wielandt_flag(A)
    oracle = {idx: {c.case_id: c for c in reference_wielandt_cases(A, idx, M)} for idx in eigenflag_tuples(pq[0], order)}
    record = checks._positive_eigen(A)
    delta = float(np.max(np.abs(np.linalg.eigvalsh(record.eigen - np.diag(record.system.spectrum.lambdas)))))
    assert [shape(rep) for rep in reports] == shapes(pq[0])
    for rep in reports:
        r, m = shape(rep)
        for c in rep.cases:
            if c.case_id == "eigenflag_witness":
                deviations = [-oracle[idx][c.case_id].margin for idx in oracle if (idx[-1], len(idx)) == (r, m)]
                assert c.lhs.hex() in {x.hex() for x in deviations} and c.margin == -c.lhs, (r, m)
                assert c.indices == tuple(range(1, r + 1)) and c.rhs == 0.0
            elif c.case_id == "eigenflag_witness_etas":
                assert (r, m) == (1, 1) and c.lhs.hex() == delta.hex() and c.margin == -delta
            else:
                want = oracle[c.indices][c.case_id]
                assert c == want and c.lhs.hex() == want.lhs.hex(), (r, m, c)  # == takes -0.0 for 0.0
        sampled = [
            c for idx in oracle if (idx[-1], len(idx)) == (r, m)
            for c in oracle[idx].values() if c.case_id.startswith(("interlace_min:", "witness:"))
        ]
        assert bool(sampled) == bool(n_flags)
        if rep.cases[-1].passed:
            assert all(c.passed for c in sampled), (r, m)


def tied_instance(p, q, data):
    """A diagonal A with eigenvalues in {1, 2, 3} and {-3, -2, -1}: many tuple sums tie exactly."""
    pos = data.draw(st.lists(st.integers(1, 3), min_size=p, max_size=p), label="positive")
    neg = data.draw(st.lists(st.integers(-3, -1), min_size=q, max_size=q), label="negative")
    return PseudoHermitianMatrix(Signature(p, q), np.diag(np.array(pos + neg, dtype=complex)))


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 7),
    q=st.integers(0, 3),
    tied=st.booleans(),
    n_flags=st.sampled_from([0, 1, 10]),
    data=st.data(),
)
def test_wielandt_reports_the_exhaustive_worst_case_of_every_shape(p, q, tied, n_flags, data):
    """One report per shape (r, m), each holding the exhaustive oracle's worst over the shape's tuples.

    The oracle checks every tuple in a Python loop, and on a sampled
    instance every tuple on ``n_flags`` flags drawn in the test.
    ``eigenflag_witness`` is the oracle's least to p 8 eps max|lambda|,
    because that margin is itself roundoff.  ``eigenflag_max`` is the
    oracle's -m delta, and the one ``eigenflag_witness_etas`` case, delta,
    bounds the oracle's case of every tuple to the same roundoff.
    ``restricted_cert_min:r`` is the oracle's, and where it passes the
    oracle's sampled ``witness:f`` and ``interlace_min:r`` cases pass at
    every tuple of the shape.  The check fails exactly when the oracle does.
    """
    if tied:
        A, M = tied_instance(p, q, data), ()
    else:
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        A, _, _ = sample_planted(Signature(p, q), SamplerConfig(), instance_rng(seed, 40))
        M = positive_compressions(A, n_flags, instance_rng(seed, 41))
    reports = check_wielandt_flag(A)
    oracle = reference_wielandt(A, M)
    least = {}
    for rep in oracle:
        idx = rep.descriptor["index_tuple"]
        for c in rep.cases:
            key = (idx[-1], len(idx), c.case_id.split(":")[0])
            least[key] = min(least.get(key, np.inf), c.margin)
    lambdas = checks._positive_eigen(A).system.spectrum.lambdas
    roundoff = p * 8 * np.finfo(float).eps * float(np.max(np.abs(lambdas)))
    assert [shape(rep) for rep in reports] == shapes(p)
    for rep in reports:
        r, m = shape(rep)
        assert rep.descriptor == {"top": r, "m": m}
        by_kind = {c.case_id.split(":")[0]: c for c in rep.cases}
        kinds = {"eigenflag_max", "eigenflag_witness", "restricted_cert_min"}
        assert set(by_kind) == kinds | ({"eigenflag_witness_etas"} if r == 1 else set())
        assert by_kind["restricted_cert_min"].margin == least[r, m, "restricted_cert_min"]
        for kind in ("interlace_min", "witness") if len(M) and rep.passed else ():
            assert least[r, m, kind] >= -DEFAULT_TOL, (r, m, kind)
        assert abs(by_kind["eigenflag_witness"].margin - least[r, m, "eigenflag_witness"]) <= roundoff
        assert by_kind["eigenflag_max"].margin == least[r, m, "eigenflag_max"]
    (etas,) = [c for c in reports[0].cases if c.case_id == "eigenflag_witness_etas"]
    assert all(etas.margin <= least[key] + roundoff for key in least if key[2] == "eigenflag_witness_etas")
    assert all(rep.passed for rep in reports) == all(rep.passed for rep in oracle)


def test_witness_spans_whose_ranks_differ_across_samples():
    """On a diagonal matrix, a flag starting at e_1 meets the top eigenvector; a generic flag does not."""
    sig = Signature(3, 0)
    entries = np.diag([3.0, 2.0, 1.0]).astype(complex)
    generic = flag_stack(sig, (1, 3), instance_rng(SEED, 17), count=2)
    e = np.eye(3, dtype=complex)
    flags = positive_flag(sig, (1, 3), np.concatenate([generic.basis, e[None]]))
    top, M = top_coordinates(entries, sig, flags.basis)
    assert np.allclose(M[2], entries)
    C = witness_subordinate(M, (1, 3))
    for f in range(3):
        flag = SimpleNamespace(levels=[L[f] for L in flags.levels], depth=2)
        want = ref_witness_subordinate(entries, sig, flag)
        # the same columns up to phase: the recursion ends on a complete flag
        overlap = np.abs(np.sum((top[f] @ C[f]).conj() * want, axis=0))
        assert np.allclose(overlap, 1.0, atol=1e-12)
    assert _compression_trace(M[2], C[2]) == pytest.approx(5.0, abs=1e-12)
    assert shared_traces(M, [(1, 3)])[0][2] == pytest.approx(5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the flag type


def per_level_accepts(sig, idx, basis):
    """The per-level validator: every level of every sample is a full-rank positive subspace."""
    return all(np.all(cone_margin(basis[..., :d], sig) >= TOL_CONE) for d in idx)


@settings(max_examples=80, deadline=None)
@given(
    pq=st.sampled_from([(1, 1), (2, 1), (3, 0), (3, 2), (4, 3)]),
    seed=st.integers(0, 2**31 - 1),
    pick=st.integers(0, 2**31 - 1),
    count=st.integers(1, 4),
    kind=st.sampled_from(["positive", "dependent", "top_not_positive", "gaussian"]),
)
# the dependent column's pivot (4e-16) is inside a null band taken relative to the cleaned
# vector, which is roundoff too; against the input column's norm it is refused
@example(pq=(2, 1), seed=872, pick=1, count=1, kind="dependent")
def test_one_margin_accepts_exactly_as_every_level(pq, seed, pick, count, kind):
    sig = Signature(*pq)
    tuples = all_tuples(sig.p)
    idx = tuples[pick % len(tuples)]
    r = idx[-1]
    rng = instance_rng(seed, 20)
    basis = np.array(sample_positive_subspace(sig, r, rng, count=count))
    s = int(rng.integers(count))
    broken = False
    if kind == "dependent" and r > 1:
        # a top column in the span of the others: every level that holds it is rank-deficient
        basis[s, :, r - 1] = basis[s, :, : r - 1] @ complex_normal(rng, r - 1)
        broken = True
    elif kind == "top_not_positive" and r > 1 and sig.q:
        # the lower prefixes stay positive; the top column is a negative vector
        g = complex_normal(rng, sig.q)
        basis[s, :, r - 1] = 0.1 * basis[s, :, 0]
        basis[s, sig.p :, r - 1] += g / np.linalg.norm(g)
        broken = True
    elif kind == "gaussian":
        basis = complex_normal(rng, count, sig.n, r)
    want = per_level_accepts(sig, idx, basis)
    try:
        positive_flag(sig, idx, basis)
        got = True
    except ValueError:
        got = False
    assert got == want
    if broken:
        assert not got and per_level_accepts(sig, (r - 1,), basis)


@pytest.mark.parametrize("pq", ORACLE_SIGNATURES + [(6, 4)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_the_flag_keeps_the_frame_that_pseudo_orthonormalize_gives(pq):
    """The certifying factorization is the framing one: the certified frame has the raw frame's bytes."""
    A, cfg = instance(*pq, 22)
    sig = A.signature
    rng = instance_rng(SEED, 23)
    for idx in all_tuples(sig.p):
        for count in (None, 7):
            flag = positive_flag(sig, idx, sample_positive_subspace(sig, sig.p, rng, count=count))
            want = cholesky_frame(flag.basis, sig)[0]
            assert flag.frame.tobytes() == want.tobytes() and flag.frame.shape == want.shape
            assert not flag.frame.flags.writeable
        eigenflag = positive_flag(sig, idx, positive_eigenbasis(eigendecompose(A)))
        assert eigenflag.frame.tobytes() == cholesky_frame(eigenflag.basis, sig)[0].tobytes()


# ---------------------------------------------------------------------------
# stacked flags, solver failures and the batching


def test_stacked_flag_names_its_non_positive_sample():
    sig = Signature(2, 1)
    bases = sample_positive_subspace(sig, 2, instance_rng(SEED, 10), count=5)
    positive_flag(sig, (1, 2), bases)
    bad = np.array(bases)
    bad[3, :, 1] = [0.0, 1.0, 1.0]  # a null vector in level 2 of sample 3
    with pytest.raises(ValueError, match="positive cone at sample 3"):
        positive_flag(sig, (1, 2), bad)


def test_the_full_tuple_eigenflag_margin_is_roundoff():
    """For (1, ..., p) the margin is -p ||eigen - diag(lambda)||_2, the roundoff of the eigenflag's compression.

    Sampled frames drawn in the ambient space missed the tuple sum by
    9.5e-9 at seed 5, (4,3), instance 29, just inside the absolute 1e-8
    tolerance.
    """
    reports = run_instance(SuiteConfig(p=4, q=3, seed=5, suites=("wielandt",)), 29)
    (full,) = [r for r in reports if shape(r) == (4, 4)]
    (case,) = [c for c in full.cases if c.case_id == "eigenflag_max"]
    assert case.indices == (1, 2, 3, 4)
    assert case.margin >= -1e-12 * max(1.0, abs(case.rhs))


def test_a_variational_instance_makes_no_svd(monkeypatch):
    """Cholesky certifies the spectrum and the eigenvector blocks, and eigvalsh gives every certificate.

    Sampling the instance itself (its Lie-algebra coupling and cond(U)) is
    not counted.
    """
    calls = {"svd": 0}
    counting = [True]
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls["svd"] += counting[0]
        return svd(*args, **kwargs)

    # np.linalg.norm and np.linalg.cond call the svd of the module that defines them
    monkeypatch.setattr(getattr(np.linalg, "_linalg", None) or np.linalg.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    plant = cli.sample_planted

    def uncounted_plant(*args, **kwargs):
        counting[0] = False
        try:
            return plant(*args, **kwargs)
        finally:
            counting[0] = True

    monkeypatch.setattr(cli, "sample_planted", uncounted_plant)
    cfg = SuiteConfig(p=4, q=3, seed=SEED, suites=("courant_fischer", "ky_fan", "wielandt"))
    assert all(r.passed for r in run_instance(cfg, 0))
    assert calls == {"svd": 0}


def test_a_solver_failure_in_a_witness_gives_the_instance_an_error_record(tmp_path, monkeypatch):
    """An eigensolver that does not converge on one instance's eigenflag raises out of the check; the batch goes on."""
    cfg = SuiteConfig(p=3, q=2, instances=3, seed=SEED, suites=("wielandt",))
    A, _, _ = sample_planted(Signature(3, 2), cfg.sampler(), instance_rng(SEED, 1))
    record = checks._positive_eigen(A)
    poisoned = record.eigen - np.diag(record.system.spectrum.lambdas)  # instance 1's eigenflag roundoff
    eigvalsh = np.linalg.eigvalsh
    hits = []

    def fails_on_it(a, *args, **kwargs):
        if np.shape(a) == poisoned.shape and np.array_equal(a, poisoned):
            hits.append(1)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, **kwargs)

    base_out, out = tmp_path / "base.jsonl", tmp_path / "r.jsonl"
    assert run_suite(dataclasses.replace(cfg, out=str(base_out))).passed
    monkeypatch.setattr(np.linalg, "eigvalsh", fails_on_it)
    summary = run_suite(dataclasses.replace(cfg, out=str(out)))
    assert len(hits) == 1
    assert not summary.passed
    assert summary.errors == [{"instance": 1, "error": "LinAlgError", "message": "Eigenvalues did not converge"}]
    base, got = ([json.loads(ln) for ln in path.read_text().splitlines()] for path in (base_out, out))
    assert [r["record"] for r in got] == ["header", "instance", "error", "instance", "summary", "meta"]
    assert got[1] == base[1] and got[3] == base[3]


def wielandt_case_ids(report):
    return [c.case_id for c in report.cases]


@pytest.mark.parametrize("pq", [(1, 0), (1, 1), (3, 0)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_one_positive_dimension_and_no_negative_block(pq):
    A, cfg = instance(*pq, 13)
    reports = check_wielandt_flag(A)
    assert [shape(r) for r in reports] == shapes(pq[0])
    assert all(r.passed for r in reports)
    assert all(wielandt_case_ids(r)[-1] == f"restricted_cert_min:{shape(r)[0]}" for r in reports)


@settings(max_examples=40, deadline=None)
@given(
    pq=st.sampled_from([(1, 0), (3, 0), (5, 0), (1, 1), (2, 1), (3, 2), (4, 3), (6, 4)]),
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 5),
)
def test_prefixes_of_the_certified_frame_are_the_frames_of_the_prefixes(pq, seed, count):
    """Column k-prefixes of one width-p frame frame the basis prefixes, and the blocks of the oracle's
    ``positive_compressions`` compress onto them: ``compress`` on the same frames agrees to 1e-12."""
    sig = Signature(*pq)
    A, _, _ = sample_planted(sig, SamplerConfig(), instance_rng(seed, 30))
    bases = sample_positive_subspace(sig, sig.p, instance_rng(seed, 31), count=count)
    frame = positive_frames(bases, sig)
    M = positive_compressions(A, count, instance_rng(seed, 31))
    assert M.shape == (count, sig.p, sig.p)
    for k in range(1, sig.p + 1):
        prefix = positive_frames(bases[..., :k], sig)
        assert np.max(np.abs(frame[..., :k] - prefix)) <= 1e-12
        scale = max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(M[:, :k, :k] - compress(A, prefix).compressed)) <= 1e-12 * scale
