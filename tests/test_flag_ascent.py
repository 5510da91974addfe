"""The flag compressions of ``check_wielandt_flag`` and the oracles behind its cases.

The check reports, for each random flag, the sum of the selected
eigenvalues of the compressed matrix; Hermitian Wielandt says a frame
subordinate to the flag reaches it.  The witness recursion that builds such
a frame is kept here and in ``tests/conftest.py`` as the oracle, in three
forms that must agree (to 1e-12): the per-flag recursion in the ambient
indefinite space, the per-tuple recursion ``witness_subordinate`` in the
coordinates of each flag's framed top level, and ``_witness_traces``, which
shares the steps of all tuples and flags and forms no frame.  Each witness
trace must reach the check's ``witness:f`` value.  On the eigenvector flag
the check reports a certified supremum; every frame of the sampled
eigenflag oracle must stay below it.
"""

import dataclasses
import functools
import itertools
import json
import operator
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kreinval import checks, cli, sampling
from kreinval.checks import (
    DEFAULT_TOL,
    EQUALITY_TOL,
    _hermitian_part,
    check_wielandt_flag,
    lambda_index_tuples,
    make_case,
    positive_compressions,
)
from kreinval.cli import SUITES, SuiteConfig, run_instance, run_suite
from kreinval.core import Signature, metric_diagonal
from kreinval.geometry import TOL_CONE, _adjoint, _frame, _positive_frames
from kreinval.sampling import (
    SamplerConfig,
    complex_normal,
    instance_rng,
    sample_planted,
    sample_positive_subspace,
)
from kreinval.spectral import eigendecompose, positive_eigenbasis

import conftest
from conftest import (
    WITNESS_ROUNDOFF,
    _compression_trace,
    _hyperplane_basis,
    _witness_runs,
    _witness_traces,
    compress,
    cone_margin,
    eigenflag_traces,
    positive_flag,
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
    top = _positive_frames(flag.levels[-1], sig)
    M = top.conj().T @ (jd[:, None] * (entries @ top))
    M = 0.5 * (M + M.conj().T)
    coords = [top.conj().T @ (jd[:, None] * L) for L in flag.levels]
    X = ref_hermitian_flag_witness(M, coords, idx)
    return _positive_frames(top @ X, sig)


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
    cfg = SamplerConfig(seed=SEED)
    A, _, _ = sample_planted(Signature(p, q), cfg, instance_rng(SEED, index))
    return A, cfg


def flag_stack(sig, idx, cfg, rng, count):
    return positive_flag(sig, idx, sample_positive_subspace(sig, idx[-1], cfg, rng, count=count))


def top_coordinates(entries, sig, basis):
    """The framed top levels (N, n, r) of a stack of flag bases and the compressions onto them."""
    top = _positive_frames(basis, sig)
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


def suite_bases(sig, n_flags, cfg, rng):
    """The width-p bases that ``positive_compressions(A, n_flags, cfg, rng)`` frames and compresses."""
    return sample_positive_subspace(sig, sig.p, cfg, rng, count=n_flags)


def instance_bases(cfg, index):
    """The bases of an instance's frame stack: one draw from the frame stream, sized by the largest budget."""
    count = max(cfg.courant_subspaces, cfg.kyfan_frames, cfg.wielandt_flags)
    frames = instance_rng(cfg.seed, index, len(SUITES))
    return suite_bases(Signature(cfg.p, cfg.q), count, cfg.sampler(), frames)


# ---------------------------------------------------------------------------
# oracle


@pytest.mark.parametrize("pq", ORACLE_SIGNATURES + [(5, 3), (6, 4)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_stacked_kernels_match_the_per_flag_loop(pq):
    A, cfg = instance(*pq, 1)
    sig = A.signature
    for t, idx in enumerate(lambda_index_tuples(sig.p)):
        rng = instance_rng(SEED, 2, t)
        flags = flag_stack(sig, idx, cfg, rng, count=5)
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
    cfg = SamplerConfig(seed=seed)
    rng = instance_rng(seed, 3)
    A, _, _ = sample_planted(sig, cfg, rng)
    tuples = lambda_index_tuples(sig.p)
    idx = tuples[pick % len(tuples)]
    flags = flag_stack(sig, idx, cfg, rng, count=count)
    check_flags_against_reference(A, flags)


SHARED_SIGNATURES = [(2, 1), (3, 2), (4, 3), (5, 3), (6, 4)]


@pytest.mark.parametrize("pq", SHARED_SIGNATURES + [(8, 6)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_shared_traces_match_the_per_tuple_reference(pq):
    """Every tuple's shared trace is the trace of the per-tuple reference frame on its leading block.

    All tuples up to p = 7; at (8,6) the 200 that ``lambda_index_tuples`` samples.
    """
    A, cfg = instance(*pq, 6)
    sig = A.signature
    M = positive_compressions(A, 7, cfg, instance_rng(SEED, 7))
    tuples = lambda_index_tuples(sig.p, rng=instance_rng(SEED, 8))
    assert len(tuples) == min(200, 2**sig.p - 1)
    for idx, got in zip(tuples, shared_traces(M, tuples), strict=True):
        block = M[:, : idx[-1], : idx[-1]]
        want = _compression_trace(block, witness_subordinate(block, idx))
        assert np.max(np.abs(got - want)) <= TRACE_TOL, idx



@pytest.mark.parametrize("pq", SHARED_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_check_witness_cases_match_the_per_flag_reference(pq):
    """Each witness:f is sum eta_{i_j} of the check's own flag, and the per-flag witness frame reaches it."""
    A, cfg = instance(*pq, 4)
    sig = A.signature
    tuples = lambda_index_tuples(sig.p)
    M = positive_compressions(A, 6, cfg, instance_rng(SEED, 5))
    reports = check_wielandt_flag(A, tuples, M)
    bases = suite_bases(sig, 6, cfg, instance_rng(SEED, 5))  # the flags that M compresses onto
    assert len(reports) == len(tuples)
    for idx, rep in zip(tuples, reports):
        assert rep.descriptor == {"index_tuple": list(idx), "n_flags": 6}
        assert rep.passed and not rep.soft_cases and not rep.notes
        by_id = {c.case_id: c for c in rep.cases}
        flags = positive_flag(sig, idx, bases)
        _, Mf = top_coordinates(A.entries, sig, flags.basis)
        eta = np.linalg.eigvalsh(Mf)
        got = np.array([by_id[f"witness:{f}"].lhs for f in range(6)])
        assert np.max(np.abs(got - eta[:, [i - 1 for i in idx]].sum(axis=-1))) <= TRACE_TOL
        scale = np.maximum(1.0, np.max(np.abs(eta), axis=-1))
        assert np.all(ref_witness_traces(A.entries, sig, flags) >= got - WITNESS_ROUNDOFF * scale), idx


@pytest.mark.parametrize("pq", SHARED_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_shared_flags_give_every_tuple_its_own_flags_cases(pq):
    """On the instance's own draws, every tuple's cases equal those of a check that framed its own flag.

    The flags are the leading ``wielandt_flags`` bases of the instance's
    frame stack, re-drawn from the frame stream.  The reference is the
    per-tuple computation: the certified frame of the tuple's own flag, eigvalsh of
    that flag's own M for the witness sums, and interlacing on the same
    frames, whose width is the tuple's top index.
    """
    cfg = SuiteConfig(p=pq[0], q=pq[1], seed=SEED, suites=("wielandt",))
    sig, scfg, index = Signature(*pq), cfg.sampler(), 3
    reports = run_instance(cfg, index)
    A, _, _ = sample_planted(sig, scfg, instance_rng(SEED, index))
    rng = instance_rng(SEED, index, SUITES.index("wielandt"))
    tuples = lambda_index_tuples(sig.p, cfg.max_m, rng=rng)
    bases = instance_bases(cfg, index)[: cfg.wielandt_flags]
    lambdas = eigendecompose(A).spectrum.lambdas
    JA = metric_diagonal(sig)[:, None] * A.entries
    assert [tuple(r.descriptor["index_tuple"]) for r in reports] == tuples
    for idx, rep in zip(tuples, reports):
        frame = positive_flag(sig, idx, bases).frame
        M = frame.conj().swapaxes(-1, -2) @ (JA @ frame)
        eta = np.linalg.eigvalsh(0.5 * (M + M.conj().swapaxes(-1, -2)))
        sums = eta[:, [i - 1 for i in idx]].sum(axis=-1)
        interlace = float(np.min(eta - lambdas[: idx[-1]]))
        by_id = {c.case_id: c for c in rep.cases}
        got = np.array([by_id[f"witness:{f}"].lhs for f in range(cfg.wielandt_flags)])
        assert np.max(np.abs(got - sums)) <= TRACE_TOL, idx
        assert abs(by_id[f"interlace_min:{idx[-1]}"].lhs - interlace) <= TRACE_TOL, idx


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


def witness_steps(idx):
    """(path, r, run) of each step the reference recursion takes on idx; path holds the top width and the runs so far."""
    r, m, path, steps = idx[-1], len(idx), (idx[-1],), []
    while m < r:
        run = 1
        while run < m and idx[m - 1 - run] == r - run:
            run += 1
        steps.append((path, r, run))
        path += (run,)
        idx = idx[: m - run] + tuple(range(r - run, r))
        r -= 1
    return steps


def all_tuples(p):
    return [t for m in range(1, p + 1) for t in itertools.combinations(range(1, p + 1), m)]


def test_the_witness_makes_no_svd_and_one_eigh_per_step(monkeypatch):
    """For one tuple each of the r - m steps but the first, which reads the given spectrum, solves one
    eigenproblem for the whole stack, and none computes an SVD."""
    calls = counting_linalg(monkeypatch, "eigh", "svd")
    rng = np.random.default_rng(SEED)
    for r in range(1, 7):
        G = complex_normal(rng, 5, r, r)
        M = G + G.conj().swapaxes(-1, -2)
        spectra = {r: np.linalg.eigh(M)}
        for head in itertools.chain.from_iterable(itertools.combinations(range(1, r), k) for k in range(r)):
            idx = head + (r,)
            calls.update(eigh=0, svd=0)
            _witness_traces(M, spectra, [idx])
            assert calls == {"eigh": max(0, r - len(idx) - 1), "svd": 0}, idx


@pytest.mark.parametrize("p, steps, distinct", [(4, 17, 11), (6, 129, 57), (8, 769, 247)])
def test_the_witness_steps_of_all_tuples_form_a_trie(p, steps, distinct):
    """A step depends on (r, run) and the path that led to it, so tuples share all but about 2^p steps."""
    tuples = all_tuples(p)
    keys = [(path, run) for idx in tuples for path, _, run in witness_steps(idx)]
    assert (len(keys), len(set(keys))) == (steps, distinct)
    assert all(witness_steps(idx) == [
        ((idx[-1],) + _witness_runs(idx)[:d], idx[-1] - d, run) for d, run in enumerate(_witness_runs(idx))
    ] for idx in tuples)


def test_a_check_solves_one_eigenproblem_per_width_and_per_batched_step(monkeypatch):
    """At (6,4) with all 63 tuples the check solves one eigvalsh per width, one per tuple size and one
    for the eigenflag's roundoff, and no eigh.  The shared witness oracle solves one eigh per width,
    then one per (depth, r, run) group.

    A per-tuple recursion solves one eigenproblem per step after the first:
    72 of them here, against 20 groups.
    """
    A, cfg = instance(6, 4, 7)
    tuples = all_tuples(6)
    groups = {(len(path) - 1, r, run) for idx in tuples for path, r, run in witness_steps(idx) if len(path) > 1}
    assert len(groups) == 20
    M = positive_compressions(A, 4, cfg, instance_rng(SEED, 8))
    checks._positive_eigen(A)  # the eigenbasis compression is memoized per matrix
    calls = counting_linalg(monkeypatch, "eigh", "eigvalsh", "svd")
    reports = check_wielandt_flag(A, tuples, M)
    assert len(reports) == 63 and all(r.passed for r in reports)
    assert calls == {"eigh": 0, "eigvalsh": 6 + 6 + 1, "svd": 0}
    calls.update(eigh=0, eigvalsh=0)
    shared_traces(M, tuples)
    assert calls == {"eigh": 6 + len(groups), "eigvalsh": 0, "svd": 0}


def test_the_eigenflag_draw_does_not_grow_with_the_tuples(monkeypatch):
    """The check draws nothing: its eigenflag bound is certified, not sampled.  The sampled oracle
    draws the eigenflag coordinates of every tuple in one Gaussian draw."""
    draws = []
    normal = sampling.complex_normal

    def counting(rng, *shape):
        draws.append(shape)
        return normal(rng, *shape)

    A, cfg = instance(6, 4, 9)
    monkeypatch.setattr(sampling, "complex_normal", counting)
    monkeypatch.setattr(conftest, "complex_normal", counting)
    M = positive_compressions(A, 3, cfg, instance_rng(SEED, 10))
    assert len(draws) == 2  # the stack's isometries and contractions
    eigen = checks._positive_eigen(A)[1]
    for tuples in ([(2,)], [(1, 5), (3,)], all_tuples(6)):
        draws.clear()
        check_wielandt_flag(A, tuples, M)
        assert draws == []
        eigenflag_traces(eigen, tuples, instance_rng(SEED, 11), 6)
        assert draws == [(6, sum(sum(idx) for idx in tuples))]  # one row per eigenflag frame


EIGENFLAG_SIGNATURES = [(1, 0), (2, 1), (3, 2), (4, 3), (5, 3), (6, 4), (8, 6)]


def eigenflag_tuples(p, order):
    """Every tuple up to p = 7, the 200 sampled at p = 8; or those reversed with duplicates."""
    tuples = lambda_index_tuples(p, rng=instance_rng(SEED, 25))
    return tuples if order == "enumerated" else tuples[::-1] + tuples[::3]


@pytest.mark.parametrize("order", ["enumerated", "unordered"])
@pytest.mark.parametrize("pq", EIGENFLAG_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_eigenflag_max_is_the_highest_oracle_trace(pq, order):
    """Each tuple's eigenflag_max bounds every frame of the sampled eigenflag oracle, to 1e-12.

    Its lhs is the tuple sum plus m ||eigen - diag(lambda)||_2, with the
    norm recomputed here by an SVD; its margin is minus that excess.
    """
    A, cfg = instance(*pq, 24)
    tuples = eigenflag_tuples(pq[0], order)
    reports = check_wielandt_flag(A, tuples, positive_compressions(A, 3, cfg, instance_rng(SEED, 26)))
    system, eigen = checks._positive_eigen(A)
    delta = np.linalg.norm(eigen - np.diag(system.spectrum.lambdas), 2)
    cases = [c for rep in reports for c in rep.cases if c.case_id == "eigenflag_max"]
    assert [c.indices for c in cases] == tuples
    for c in cases:
        assert c.margin == pytest.approx(-len(c.indices) * delta, rel=1e-9, abs=1e-300)
        assert c.lhs - c.rhs == pytest.approx(len(c.indices) * delta, abs=1e-14 * max(1.0, abs(c.rhs)))
    traces = eigenflag_traces(eigen, tuples, instance_rng(SEED, 27), 64)
    assert np.all(traces <= np.array([c.lhs for c in cases])[:, None] + 1e-12)


@pytest.mark.parametrize("order", ["enumerated", "unordered"])
@pytest.mark.parametrize("pq", EIGENFLAG_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_the_witness_oracle_reaches_every_witness_case(pq, order):
    """Hermitian Wielandt, checked: each flag's oracle witness frame reaches its witness:f value,
    to 1e-12 max(1, ||M_r||_2) with M_r the flag's leading r x r block."""
    A, cfg = instance(*pq, 24)
    tuples = eigenflag_tuples(pq[0], order)
    M = positive_compressions(A, 5, cfg, instance_rng(SEED, 26))
    reports = check_wielandt_flag(A, tuples, M)
    got = np.array([[c.lhs for c in rep.cases if c.case_id.startswith("witness:")] for rep in reports])
    scale = np.maximum(1.0, [np.linalg.norm(M[:, : idx[-1], : idx[-1]], 2, axis=(-2, -1)) for idx in tuples])
    traces = np.array(shared_traces(M, tuples))
    assert traces.shape == got.shape == (len(tuples), 5)
    assert np.all(traces >= got - WITNESS_ROUNDOFF * scale)


def per_tuple_cases(A, idx, M):
    """The cases of one tuple, computed for that tuple alone.

    A Python ``sum`` for the target, the tuple's own principal submatrix of
    the eigenflag compression, and eigvalsh of the tuple's own width of M,
    with the witness sums added left to right.
    """
    tol, equality_tol = DEFAULT_TOL, EQUALITY_TOL
    system, eigen = checks._positive_eigen(A)
    lambdas = system.spectrum.lambdas
    target = float(sum(lambdas[i - 1] for i in idx))
    cols = np.array(idx) - 1
    sub = eigen[np.ix_(cols, cols)]
    val = float(np.trace(sub).real)
    dev = float(np.max(np.abs(np.linalg.eigvalsh(sub) - lambdas[cols])))
    slack = len(idx) * float(np.max(np.abs(np.linalg.eigvalsh(eigen - np.diag(lambdas)))))
    cases = [
        make_case("eigenflag_max", idx, target + slack, target, -slack, tol),
        make_case("eigenflag_witness", idx, val, target, -abs(val - target), equality_tol),
        make_case("eigenflag_witness_etas", idx, dev, 0.0, -dev, equality_tol),
    ]
    if not len(M):
        return cases
    r = idx[-1]
    eta = np.linalg.eigvalsh(M[:, :r, :r])
    worst = float(np.min(eta - lambdas[:r]))
    cases.append(make_case(f"interlace_min:{r}", range(1, r + 1), worst, 0.0, worst, tol))
    sums = functools.reduce(operator.add, eta[:, cols].T, 0.0)
    return cases + [make_case(f"witness:{f}", idx, t, target, t - target, tol) for f, t in enumerate(sums)]


@pytest.mark.parametrize("n_flags", [0, 1, 5])
@pytest.mark.parametrize("order", ["enumerated", "unordered"])
@pytest.mark.parametrize("pq", EIGENFLAG_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_every_other_case_is_the_per_tuple_case_bit_for_bit(pq, order, n_flags):
    """Tabulated over all tuples at once, every case, eigenflag_max included, has the bytes of its per-tuple case."""
    A, cfg = instance(*pq, 28)
    tuples = eigenflag_tuples(pq[0], order)
    M = positive_compressions(A, n_flags, cfg, instance_rng(SEED, 29))
    reports = check_wielandt_flag(A, tuples, M)
    for idx, rep in zip(tuples, reports, strict=True):
        want = per_tuple_cases(A, idx, M)
        assert list(rep.cases) == want, idx
        assert [c.lhs.hex() for c in rep.cases] == [c.lhs.hex() for c in want], idx  # == takes -0.0 for 0.0


def test_an_enumerated_tuple_set_is_tabulated_once_per_process(fresh_memos):
    """One table build per distinct list of tuples, however often it is checked: the enumerated (4,3)
    set, its reverse, and each sampled (8,6) set once.  The memo stays bounded, and its arrays are read-only."""
    memo = checks._tabulate_wielandt
    A, cfg = instance(4, 3, 31)
    M = positive_compressions(A, 3, cfg, instance_rng(SEED, 32))
    for k in range(3):
        check_wielandt_flag(A, lambda_index_tuples(4), M)
    assert (memo.cache_info().misses, memo.cache_info().currsize) == (1, 1)
    check_wielandt_flag(A, lambda_index_tuples(4)[::-1], M)
    assert (memo.cache_info().misses, memo.cache_info().currsize) == (2, 2)
    A, cfg = instance(8, 6, 31)
    M = positive_compressions(A, 3, cfg, instance_rng(SEED, 32))
    for k in (0, 1, 0):
        check_wielandt_flag(A, lambda_index_tuples(8, rng=instance_rng(SEED, 35, k)), M)
    assert (memo.cache_info().misses, memo.cache_info().currsize) == (4, 4)
    maxsize = memo.cache_info().maxsize
    for i in range(1, maxsize + 2):  # more distinct lists than the memo holds
        memo(maxsize + 1, ((i,),))
    assert memo.cache_info().currsize == memo.cache_info().maxsize
    layout = memo(4, tuple(lambda_index_tuples(4)))
    arrays = [layout.table] + [a for group in layout.sizes + layout.widths for a in group if isinstance(a, np.ndarray)]
    assert not any(array.flags.writeable for array in arrays)


def test_witness_spans_whose_ranks_differ_across_samples():
    """On a diagonal matrix, a flag starting at e_1 meets the top eigenvector; a generic flag does not."""
    sig = Signature(3, 0)
    entries = np.diag([3.0, 2.0, 1.0]).astype(complex)
    generic = flag_stack(sig, (1, 3), SamplerConfig(seed=SEED), instance_rng(SEED, 17), count=2)
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
    tuples = lambda_index_tuples(sig.p)
    idx = tuples[pick % len(tuples)]
    r = idx[-1]
    rng = instance_rng(seed, 20)
    basis = np.array(sample_positive_subspace(sig, r, SamplerConfig(seed=seed), rng, count=count))
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
    for idx in lambda_index_tuples(sig.p):
        for count in (None, 7):
            flag = positive_flag(sig, idx, sample_positive_subspace(sig, sig.p, cfg, rng, count=count))
            want = _frame(flag.basis, sig, 1.0)[0]
            assert flag.frame.tobytes() == want.tobytes() and flag.frame.shape == want.shape
            assert not flag.frame.flags.writeable
        eigenflag = positive_flag(sig, idx, positive_eigenbasis(eigendecompose(A)))
        assert eigenflag.frame.tobytes() == _frame(eigenflag.basis, sig, 1.0)[0].tobytes()


# ---------------------------------------------------------------------------
# stacked flags, solver failures and the batching


def test_stacked_flag_names_its_non_positive_sample():
    sig = Signature(2, 1)
    cfg = SamplerConfig(seed=SEED)
    bases = sample_positive_subspace(sig, 2, cfg, instance_rng(SEED, 10), count=5)
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
    (full,) = [r for r in reports if r.descriptor["index_tuple"] == [1, 2, 3, 4]]
    (case,) = [c for c in full.cases if c.case_id == "eigenflag_max"]
    assert case.margin >= -1e-12 * max(1.0, abs(case.rhs))


def test_a_variational_instance_makes_no_svd(monkeypatch):
    """Cholesky certifies every positive subspace and flag, and eigvalsh gives the norms of K.

    Sampling the instance itself (its Lie-algebra coupling and cond(U)) is
    not counted.  The one frame draw of the instance is.
    """
    calls = {"svd": 0, "draws": 0}
    counting = [True]
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls["svd"] += counting[0]
        return svd(*args, **kwargs)

    # np.linalg.norm and np.linalg.cond call the svd of the module that defines them
    monkeypatch.setattr(getattr(np.linalg, "_linalg", None) or np.linalg.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    draw, plant = checks.sample_positive_subspace, cli.sample_planted

    def counting_draw(*args, **kwargs):
        calls["draws"] += 1
        return draw(*args, **kwargs)

    def uncounted_plant(*args, **kwargs):
        counting[0] = False
        try:
            return plant(*args, **kwargs)
        finally:
            counting[0] = True

    monkeypatch.setattr(checks, "sample_positive_subspace", counting_draw)
    monkeypatch.setattr(cli, "sample_planted", uncounted_plant)
    cfg = SuiteConfig(p=4, q=3, seed=SEED, suites=("courant_fischer", "ky_fan", "wielandt"))
    assert all(r.passed for r in run_instance(cfg, 0))
    assert calls == {"svd": 0, "draws": 1}


def test_a_solver_failure_in_a_witness_gives_the_instance_an_error_record(tmp_path, monkeypatch):
    """An eigensolver that does not converge on one instance's flags raises out of the check; the batch goes on."""
    cfg = SuiteConfig(p=3, q=2, instances=3, seed=SEED, suites=("wielandt",))
    A, _, _ = sample_planted(Signature(3, 2), cfg.sampler(), instance_rng(SEED, 1))
    count = max(cfg.courant_subspaces, cfg.kyfan_frames, cfg.wielandt_flags)
    frames = instance_rng(SEED, 1, len(SUITES))
    poisoned = positive_compressions(A, count, cfg.sampler(), frames)[: cfg.wielandt_flags]  # instance 1's flags
    eigvalsh = np.linalg.eigvalsh
    hits = []

    def fails_on_it(a, *args, **kwargs):
        a = np.asarray(a)
        r = a.shape[-1]
        if a.ndim == 3 and len(a) == cfg.wielandt_flags and np.array_equal(a, poisoned[: len(a), :r, :r]):
            hits.append(r)
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


def test_the_ascent_is_batched_over_flags(monkeypatch):
    """A per-flag check would solve four times as many eigenproblems for four times the flags."""
    A, cfg = instance(3, 2, 15)
    stacks = {n_flags: positive_compressions(A, n_flags, cfg, instance_rng(SEED, 16)) for n_flags in (4, 16)}
    checks._positive_eigen(A)
    calls = counting_linalg(monkeypatch, "eigh", "eigvalsh")
    for idx in ((2,), (1, 3), (2, 3)):
        counts = []
        for n_flags, M in stacks.items():
            calls.update(eigh=0, eigvalsh=0)
            (rep,) = check_wielandt_flag(A, [idx], M)
            assert rep.passed
            assert sum(c.case_id.startswith("witness:") for c in rep.cases) == n_flags
            counts.append(dict(calls))
        assert counts[0] == counts[1] == {"eigh": 0, "eigvalsh": 3}, idx


def test_a_variational_instance_draws_one_frame_stack(monkeypatch):
    """One width-p draw and two certifications per instance: the frame stack, sized by the
    largest budget, and the eigenbasis, both shared by the three suites.  The check's own
    certifications do not grow with the tuple count."""
    draws, flags = [], []
    draw, flag = checks.sample_positive_subspace, checks._positive_frames

    def counting_draw(sig, k, *args, count=None, **kwargs):
        draws.append((k, count))
        return draw(sig, k, *args, count=count, **kwargs)

    def counting_flag(*args, **kwargs):
        flags.append(1)
        return flag(*args, **kwargs)

    monkeypatch.setattr(checks, "sample_positive_subspace", counting_draw)
    monkeypatch.setattr(checks, "_positive_frames", counting_flag)
    checks._positive_eigen_by_value.cache_clear()
    cfg = SuiteConfig(p=4, q=3, seed=SEED, suites=("courant_fischer", "ky_fan", "wielandt"),
                      courant_subspaces=30, kyfan_frames=70, wielandt_flags=10)
    reports = run_instance(cfg, 0)
    assert all(r.passed for r in reports) and len(reports) == 1 + 4 + 15
    assert draws == [(4, 70)]
    assert len(flags) == 2
    A, cfg = instance(4, 3, 0)
    M = positive_compressions(A, 4, cfg, instance_rng(SEED, 6))
    certified = []
    for tuples in ([(2,)], lambda_index_tuples(4)):
        checks._positive_eigen_by_value.cache_clear()
        flags.clear()
        check_wielandt_flag(A, tuples, M)
        certified.append(len(flags))
    assert certified == [1, 1]  # the eigenflag; the random flags come in certified
    flags.clear()
    check_wielandt_flag(A, [(1, 3)], M)
    assert not flags  # the eigenflag's compression is kept for A
    assert not checks._positive_eigen(A)[1].flags.writeable


def wielandt_case_ids(report):
    return [c.case_id for c in report.cases]


def test_empty_budgets_leave_out_their_cases():
    """No flags: no witness or interlacing case.  eigenflag_max is certified, not sampled, so it stays."""
    A, cfg = instance(4, 3, 11)
    tuples = [(1,), (2, 4), (1, 2, 3, 4)]
    ids = {}
    for n_flags in (3, 0):
        M = positive_compressions(A, n_flags, cfg, instance_rng(SEED, 12))
        reports = check_wielandt_flag(A, tuples, M)
        assert all(r.passed for r in reports)
        assert [r.descriptor for r in reports] == [{"index_tuple": list(idx), "n_flags": n_flags} for idx in tuples]
        ids[n_flags] = [wielandt_case_ids(r) for r in reports]
    eigen = ["eigenflag_max", "eigenflag_witness", "eigenflag_witness_etas"]
    witness = ["witness:0", "witness:1", "witness:2"]
    assert ids[3] == [[*eigen, f"interlace_min:{idx[-1]}", *witness] for idx in tuples]
    assert ids[0] == [eigen] * 3
    assert check_wielandt_flag(A, [], M) == []


@pytest.mark.parametrize("pq", [(1, 0), (1, 1), (3, 0)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_one_positive_dimension_and_no_negative_block(pq):
    A, cfg = instance(*pq, 13)
    tuples = lambda_index_tuples(pq[0])
    M = positive_compressions(A, 3, cfg, instance_rng(SEED, 14))
    reports = check_wielandt_flag(A, tuples, M)
    assert [tuple(r.descriptor["index_tuple"]) for r in reports] == tuples
    assert all(r.passed for r in reports)
    assert all(f"interlace_min:{idx[-1]}" in wielandt_case_ids(r) for idx, r in zip(tuples, reports))
    assert all("witness:2" in wielandt_case_ids(r) for r in reports)


def test_duplicate_and_unordered_tuples_get_the_cases_of_their_own_call():
    """Reports follow the input order; each tuple's cases equal those of a one-tuple call."""
    A, cfg = instance(5, 3, 15)
    tuples = [(2, 5), (1,), (2, 5), (1, 3, 4), (5,), (1,)]
    M = positive_compressions(A, 4, cfg, instance_rng(SEED, 16))
    reports = check_wielandt_flag(A, tuples, M)
    assert [tuple(r.descriptor["index_tuple"]) for r in reports] == tuples
    for idx, rep in zip(tuples, reports):
        (alone,) = check_wielandt_flag(A, [idx], M)
        assert rep.cases == alone.cases, idx


@settings(max_examples=40, deadline=None)
@given(
    pq=st.sampled_from([(1, 0), (3, 0), (5, 0), (1, 1), (2, 1), (3, 2), (4, 3), (6, 4)]),
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 5),
)
def test_prefixes_of_the_certified_frame_are_the_frames_of_the_prefixes(pq, seed, count):
    """Column k-prefixes of one width-p frame frame the basis prefixes, and the blocks of
    ``positive_compressions`` compress onto them: ``compress`` on the same frames agrees to 1e-12."""
    sig = Signature(*pq)
    cfg = SamplerConfig(seed=seed)
    A, _, _ = sample_planted(sig, cfg, instance_rng(seed, 30))
    bases = sample_positive_subspace(sig, sig.p, cfg, instance_rng(seed, 31), count=count)
    frame = _positive_frames(bases, sig)
    M = positive_compressions(A, count, cfg, instance_rng(seed, 31))
    assert M.shape == (count, sig.p, sig.p) and not M.flags.writeable
    for k in range(1, sig.p + 1):
        prefix = _positive_frames(bases[..., :k], sig)
        assert np.max(np.abs(frame[..., :k] - prefix)) <= 1e-12
        scale = max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(M[:, :k, :k] - compress(A, prefix).compressed)) <= 1e-12 * scale
