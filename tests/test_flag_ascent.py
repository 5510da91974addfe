"""The stacked flag witness and ascent against the per-flag loops they replace.

The reference functions below are the per-flag witness recursion and
coordinate ascent that ``check_wielandt_flag`` ran one flag at a time; the
stacked kernels in ``kreinval.checks`` run all flags of a stack together and
must reach the same traces (to 1e-12) with the same convergence flags.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinval import checks
from kreinval.checks import (
    _ascend_subordinate,
    _frame_trace,
    _witness_subordinate,
    check_wielandt_flag,
    lambda_index_tuples,
)
from kreinval.core import Signature, metric_diagonal
from kreinval.errors import NullDegeneracy, OrientationMismatch, ShapeMismatch
from kreinval.geometry import POSITIVE, gram, pseudo_orthonormalize
from kreinval.sampling import (
    PositiveFlag,
    SamplerConfig,
    flag_from_basis,
    instance_rng,
    sample_planted,
    sample_positive_subspace,
    subordinate_frame,
)
from kreinval.spectral import check_admissible, eigendecompose, positive_eigenbasis

SEED = 4417
ORACLE_SIGNATURES = [(1, 1), (2, 1), (3, 0), (3, 2), (4, 3)]
TRACE_TOL = 1e-12


# ---------------------------------------------------------------------------
# per-flag reference


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
    top = pseudo_orthonormalize(flag.levels[-1], sig, POSITIVE).vectors
    M = top.conj().T @ (jd[:, None] * (entries @ top))
    M = 0.5 * (M + M.conj().T)
    coords = [top.conj().T @ (jd[:, None] * L) for L in flag.levels]
    X = ref_hermitian_flag_witness(M, coords, idx)
    return pseudo_orthonormalize(top @ X, sig, POSITIVE)


def ref_ascend_subordinate(entries, sig, flag, frame0, *, iters, gain_tol):
    jd = metric_diagonal(sig)
    m = flag.depth
    X = [frame0.vectors[:, j].copy() for j in range(m)]

    def trace_now():
        return float(_frame_trace(entries, sig, np.column_stack(X)))

    obj = trace_now()
    converged = False
    for _ in range(iters):
        for j in range(m):
            Bj = flag.levels[j]
            others = [X[k] for k in range(m) if k != j]
            if others:
                O = np.column_stack(others)
                M = (O.conj() * jd[:, None]).T @ Bj
                _, svals, vh = np.linalg.svd(M)
                cutoff = (svals[0] * 1e-10) if svals.size and svals[0] > 0 else 0.0
                rank = int(np.sum(svals > cutoff))
                N = vh[rank:].conj().T
            else:
                N = np.eye(Bj.shape[1], dtype=complex)
            if N.shape[1] == 0:
                continue
            try:
                fr = pseudo_orthonormalize(Bj @ N, sig, POSITIVE)
            except (NullDegeneracy, OrientationMismatch):
                continue
            F = fr.vectors
            comp = F.conj().T @ (jd[:, None] * (entries @ F))
            comp = 0.5 * (comp + comp.conj().T)
            _, vecs = np.linalg.eigh(comp)
            X[j] = F @ vecs[:, -1]
        try:
            fr = pseudo_orthonormalize(np.column_stack(X), sig, POSITIVE)
        except (NullDegeneracy, OrientationMismatch):
            break
        X = [fr.vectors[:, j] for j in range(m)]
        new_obj = trace_now()
        gain = new_obj - obj
        obj = new_obj
        if gain < gain_tol:
            converged = True
            break
    return obj, converged


def ref_ascent_soft_lhs(A, idx, n_flags, n_tuples, cfg, rng, *, iters=200, soft_gap=1e-6, gain_tol=1e-10):
    """The ascent half of the per-flag check_wielandt_flag, drawing a random start for every flag.

    It consumes the stream as the check does up to its ascent (the eigenflag
    frames, then the flag bases), so the flags are the check's own.
    """
    sig = A.signature
    spec = check_admissible(A)
    target = float(sum(spec.lambdas[i - 1] for i in idx))
    eigenflag = flag_from_basis(sig, idx, positive_eigenbasis(eigendecompose(A)))
    subordinate_frame(eigenflag, cfg, rng, count=n_flags * n_tuples)
    width = max(idx[-1], sig.p - 1) if sig.p >= 2 else idx[-1]
    bases = sample_positive_subspace(sig, width, cfg, rng, count=n_flags)
    out, nonconverged = [], 0
    for f in range(n_flags):
        flag = flag_from_basis(sig, idx, bases[f])
        starts = [subordinate_frame(flag, cfg, rng)]
        try:
            starts.insert(0, ref_witness_subordinate(A.entries, sig, flag))
        except (NullDegeneracy, OrientationMismatch, np.linalg.LinAlgError):
            pass
        achieved, converged = -np.inf, False
        for start in starts:
            val, conv = ref_ascend_subordinate(A.entries, sig, flag, start, iters=iters, gain_tol=gain_tol)
            if val > achieved:
                achieved, converged = val, conv
            if achieved >= target - 0.5 * soft_gap:
                break
        nonconverged += not converged
        out.append(achieved)
    return np.array(out), nonconverged


# ---------------------------------------------------------------------------
# helpers


def instance(p, q, index):
    cfg = SamplerConfig(seed=SEED)
    A, _, _ = sample_planted(Signature(p, q), cfg, instance_rng(SEED, index))
    return A, cfg


def flag_stack(sig, idx, cfg, rng, count):
    return flag_from_basis(sig, idx, sample_positive_subspace(sig, idx[-1], cfg, rng, count=count))


def compare_with_reference(A, levels, X0):
    """Stacked ascent from X0 against the per-flag reference; returns the reached traces."""
    sig = A.signature
    got, conv = _ascend_subordinate(A.entries, sig, levels, X0, iters=200, gain_tol=1e-10)
    for f in range(len(X0)):
        flag = SimpleNamespace(levels=[L[f] for L in levels], depth=len(levels))
        frame = SimpleNamespace(vectors=X0[f])
        want, want_conv = ref_ascend_subordinate(A.entries, sig, flag, frame, iters=200, gain_tol=1e-10)
        assert got[f] == pytest.approx(want, abs=TRACE_TOL), f
        assert conv[f] == want_conv, f
    return got


def check_flags_against_reference(A, flags, random_starts):
    sig = A.signature
    frames, ok = _witness_subordinate(A.entries, sig, flags.levels)
    for f in range(len(ok)):
        flag = SimpleNamespace(levels=[L[f] for L in flags.levels], depth=flags.depth)
        want = ref_witness_subordinate(A.entries, sig, flag).vectors
        assert ok[f]
        assert _frame_trace(A.entries, sig, frames[f]) == pytest.approx(
            float(_frame_trace(A.entries, sig, want)), abs=TRACE_TOL
        )
    compare_with_reference(A, flags.levels, frames)
    compare_with_reference(A, flags.levels, random_starts)


def per_flag_random_starts(flags, cfg, rng):
    """A random subordinate start per flag, drawn one flag at a time."""
    return np.stack([
        subordinate_frame(PositiveFlag(flags.signature, flags.index_tuple, tuple(L[f] for L in flags.levels)), cfg, rng).vectors
        for f in range(len(flags.levels[0]))
    ])


# ---------------------------------------------------------------------------
# oracle


@pytest.mark.parametrize("pq", ORACLE_SIGNATURES, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_stacked_kernels_match_the_per_flag_loop(pq):
    A, cfg = instance(*pq, 1)
    sig = A.signature
    for t, idx in enumerate(lambda_index_tuples(sig.p)):
        rng = instance_rng(SEED, 2, t)
        flags = flag_stack(sig, idx, cfg, rng, count=5)
        check_flags_against_reference(A, flags, per_flag_random_starts(flags, cfg, rng))


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
    check_flags_against_reference(A, flags, per_flag_random_starts(flags, cfg, rng))


@pytest.mark.parametrize("pq", [(2, 1), (3, 2), (4, 3)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_check_reproduces_the_per_flag_ascent_with_its_draws(pq):
    """With a random start drawn for every flag, as the per-flag loop did, the soft cases agree."""
    A, cfg = instance(*pq, 4)
    for t, idx in enumerate(lambda_index_tuples(A.signature.p)):
        rep = check_wielandt_flag(A, idx, n_flags=6, n_tuples=3, cfg=cfg, rng=instance_rng(SEED, 5, t))
        want, nonconverged = ref_ascent_soft_lhs(A, idx, 6, 3, cfg, instance_rng(SEED, 5, t))
        got = np.array([c.lhs for c in rep.soft_cases])
        assert np.max(np.abs(got - want)) <= TRACE_TOL
        assert (f"ascent_nonconverged: {nonconverged}/6" in rep.notes) == (nonconverged > 0)


def test_slot_ranks_that_differ_across_samples():
    """Slot 0 of a diagonal flag pairs to exactly zero with the other slot; a generic flag's does not."""
    sig = Signature(3, 1)
    A, cfg = instance(3, 1, 6)
    generic = flag_stack(sig, (2, 3), cfg, instance_rng(SEED, 7), count=2)
    e = np.eye(sig.n, dtype=complex)
    levels = tuple(
        np.concatenate([L, e[None, :, :d]]) for L, d in zip(generic.levels, (2, 3))
    )
    X0 = np.concatenate([
        _witness_subordinate(A.entries, sig, generic.levels)[0],
        e[None][:, :, [0, 2]],
    ])
    jd = metric_diagonal(sig)
    M = X0[:, :, 1:].conj().swapaxes(-1, -2) @ (jd[:, None] * levels[0])
    svals = np.linalg.svd(M, compute_uv=False)
    assert np.all(svals[:2, 0] > 1e-8) and np.all(svals[2] == 0)  # ranks 1, 1, 0
    compare_with_reference(A, levels, X0)


def test_witness_spans_whose_ranks_differ_across_samples():
    """On a diagonal matrix, a flag starting at e_1 meets the top eigenvector; a generic flag does not."""
    sig = Signature(3, 0)
    entries = np.diag([3.0, 2.0, 1.0]).astype(complex)
    generic = flag_stack(sig, (1, 3), SamplerConfig(seed=SEED), instance_rng(SEED, 17), count=2)
    e = np.eye(3, dtype=complex)
    levels = tuple(np.concatenate([L, e[None, :, :d]]) for L, d in zip(generic.levels, (1, 3)))
    frames, ok = _witness_subordinate(entries, sig, levels)
    assert ok.all()
    for f in range(3):
        flag = SimpleNamespace(levels=[L[f] for L in levels], depth=2)
        want = ref_witness_subordinate(entries, sig, flag).vectors
        assert np.allclose(frames[f], want, atol=1e-12)
    assert _frame_trace(entries, sig, frames[2]) == pytest.approx(5.0, abs=1e-12)


def test_null_pivots_skip_a_slot_or_stop_a_flag():
    """Level 2 of samples 1 and 2 holds a null vector, so slot 2 has a null pivot and is skipped.

    Sample 2 also starts with that null vector in its frame, so its frame
    fails after the sweep and the flag stops, unconverged, where it started.
    """
    sig = Signature(3, 1)
    A, cfg = instance(3, 1, 8)
    flags = flag_stack(sig, (1, 3), cfg, instance_rng(SEED, 9), count=3)
    X0, _ = _witness_subordinate(A.entries, sig, flags.levels)
    e = np.eye(sig.n, dtype=complex)
    null = (e[:, 2] + e[:, 3]) / np.sqrt(2)
    levels = [np.array(L) for L in flags.levels]
    for f in (1, 2):
        levels[0][f] = e[:, :1]
        levels[1][f] = np.column_stack([e[:, 0], e[:, 1], null])
    X0[1] = e[:, :2]
    X0[2] = np.column_stack([e[:, 0], null])
    Y = levels[1][1][:, 1:]  # what slot 2 may use: the level paired-orthogonal to e_1
    with pytest.raises(NullDegeneracy):
        pseudo_orthonormalize(Y, sig, POSITIVE)
    got = compare_with_reference(A, tuple(levels), X0)
    conv = _ascend_subordinate(A.entries, sig, tuple(levels), X0, iters=200, gain_tol=1e-10)[1]
    assert got[1] == pytest.approx(float((A.entries[0, 0] + A.entries[1, 1]).real), abs=1e-12)
    assert got[2] == pytest.approx(float(_frame_trace(A.entries, sig, X0[2])), abs=1e-12)
    assert list(conv) == [True, True, False]


# ---------------------------------------------------------------------------
# stacked flags, the fallback start and the batching


def test_stacked_flag_names_its_non_positive_sample():
    sig = Signature(2, 1)
    cfg = SamplerConfig(seed=SEED)
    bases = sample_positive_subspace(sig, 2, cfg, instance_rng(SEED, 10), count=5)
    flag_from_basis(sig, (1, 2), bases)
    bad = np.array(bases)
    bad[3, :, 1] = [0.0, 1.0, 1.0]  # a null vector in level 2 of sample 3
    with pytest.raises(ValueError, match="positive cone at sample 3"):
        flag_from_basis(sig, (1, 2), bad)
    levels = (np.array(bases[:, :, :1]), bases)
    levels[0][2] = bases[0, :, :1]  # positive, but outside level 2 of sample 2
    with pytest.raises(ValueError, match="not nested .* at sample 2"):
        PositiveFlag(sig, (1, 2), levels)


def test_a_stack_of_flags_draws_one_frame_per_flag():
    sig = Signature(3, 2)
    cfg = SamplerConfig(seed=SEED)
    flags = flag_stack(sig, (1, 3), cfg, instance_rng(SEED, 11), count=4)
    frames = subordinate_frame(flags, cfg, instance_rng(SEED, 12)).vectors
    assert frames.shape == (4, sig.n, 2)
    for f, F in enumerate(frames):
        assert np.allclose(gram(F, sig), np.eye(2), atol=1e-8)
        for j, level in enumerate(flags.levels):
            coeffs, *_ = np.linalg.lstsq(level[f], F[:, j], rcond=None)
            assert np.linalg.norm(level[f] @ coeffs - F[:, j]) < 1e-8
    with pytest.raises(ShapeMismatch):
        subordinate_frame(flags, cfg, instance_rng(SEED, 12), count=2)


def test_a_failed_witness_draws_one_fallback_start(monkeypatch):
    A, cfg = instance(3, 2, 13)
    idx = (1, 3)
    base = check_wielandt_flag(A, idx, n_flags=6, n_tuples=3, cfg=cfg, rng=instance_rng(SEED, 14))
    assert not any(n.startswith("ascent_fallback") for n in base.notes)

    witness = checks._witness_subordinate

    def fails_on_flag_2(entries, sig, levels):
        frames, ok = witness(entries, sig, levels)
        ok[2] = False
        return frames, ok

    drawn = []
    subordinate = checks.subordinate_frame

    def recording(flag, cfg, rng, **kw):
        drawn.append(flag.levels[0].shape[0] if flag.levels[0].ndim == 3 else kw["count"])
        return subordinate(flag, cfg, rng, **kw)

    monkeypatch.setattr(checks, "_witness_subordinate", fails_on_flag_2)
    monkeypatch.setattr(checks, "subordinate_frame", recording)
    rep = check_wielandt_flag(A, idx, n_flags=6, n_tuples=3, cfg=cfg, rng=instance_rng(SEED, 14))
    assert drawn == [18, 1]  # the eigenflag frames, then one fallback start
    assert "ascent_fallback: 1/6" in rep.notes
    for f, (c, c0) in enumerate(zip(rep.soft_cases, base.soft_cases)):
        if f != 2:
            assert c.lhs == pytest.approx(c0.lhs, abs=TRACE_TOL)
    assert rep.soft_cases[2].passed


def test_a_solver_failure_in_one_witness_fails_only_that_flag(monkeypatch):
    """A decomposition that does not converge for one flag leaves the others their witness starts."""
    A, cfg = instance(3, 2, 16)
    idx = (2, 3)
    base = check_wielandt_flag(A, idx, n_flags=6, n_tuples=3, cfg=cfg, rng=instance_rng(SEED, 17))
    assert not any(n.startswith("ascent_fallback") for n in base.notes)

    witness = checks._hermitian_flag_witness
    top_calls = []

    def recording(M, levels, idx):
        if M.shape[-1] == idx[-1] == 3:
            top_calls.append(np.array(M))
        return witness(M, levels, idx)

    monkeypatch.setattr(checks, "_hermitian_flag_witness", recording)
    check_wielandt_flag(A, idx, n_flags=6, n_tuples=3, cfg=cfg, rng=instance_rng(SEED, 17))
    poisoned = top_calls[0][4]  # the compressed matrix of flag 4

    def fails_on_flag_4(M, levels, idx):
        if M.shape[-2:] == poisoned.shape and np.any(np.all(M == poisoned, axis=(-2, -1))):
            raise np.linalg.LinAlgError("SVD did not converge")
        return witness(M, levels, idx)

    monkeypatch.setattr(checks, "_hermitian_flag_witness", fails_on_flag_4)
    rep = check_wielandt_flag(A, idx, n_flags=6, n_tuples=3, cfg=cfg, rng=instance_rng(SEED, 17))
    assert "ascent_fallback: 1/6" in rep.notes
    for f, (c, c0) in enumerate(zip(rep.soft_cases, base.soft_cases)):
        if f != 4:
            assert c.lhs == c0.lhs
    assert rep.soft_cases[4].passed


def test_the_ascent_is_batched_over_flags(monkeypatch):
    """A per-flag loop would call eigh four times as often for four times the flags.

    The count may still grow by a call where the flags' slot ranks split into
    more groups, or where the slowest flag needs one more sweep; these
    tuples have neither.
    """
    A, cfg = instance(3, 2, 15)
    eigh = np.linalg.eigh
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for idx in ((2,), (2, 3)):
        counts = []
        for n_flags in (4, 16):
            calls.clear()
            rep = check_wielandt_flag(A, idx, n_flags=n_flags, n_tuples=2, cfg=cfg, rng=instance_rng(SEED, 16))
            assert rep.soft_rate == 1.0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, idx
