import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kreinval import (
    AdmissibleSpectrum,
    ComplexSpectrum,
    DefectiveMatrix,
    GapViolation,
    PseudoHermitianMatrix,
    Signature,
    WrongConeCount,
    check_admissible,
    compress,
    conjugate,
    eigendecompose,
    eigenvector_frame,
    instance_rng,
    negative_eigenbasis,
    positive_eigenbasis,
    sample_planted,
    sample_pseudo_unitary,
)
from kreinval import spectral
from kreinval.cli import SuiteConfig, run_instance
from kreinval.errors import NullDegeneracy, OrientationMismatch
from kreinval.geometry import NEGATIVE, NULL, POSITIVE, classify, gram, pseudo_orthonormalize
from kreinval.sampling import SamplerConfig

SEED = 515


def test_rayleigh_of_eigenvector_is_eigenvalue(rayleigh):
    sig = Signature(2, 1)
    spec = AdmissibleSpectrum(sig, np.array([1.0, 2.0]), np.array([-0.5]))
    A = PseudoHermitianMatrix(sig, np.diag(spec.canonical_vector()))
    assert rayleigh(A, [0.0, 1.0, 0.0], sig) == pytest.approx(1.0)
    assert rayleigh(A, [1.0, 0.0, 0.0], sig) == pytest.approx(2.0)
    assert rayleigh(A, [0.0, 0.0, 1.0], sig) == pytest.approx(-0.5)


def test_rayleigh_is_real_for_structured_input(signature, sampler_cfg, rayleigh):
    rng = instance_rng(SEED, 0)
    A, _, _ = sample_planted(signature, sampler_cfg, rng)
    jd_num = 0
    for _ in range(50):
        x = rng.standard_normal(signature.n) + 1j * rng.standard_normal(signature.n)
        try:
            r = rayleigh(A, x, signature)
        except Exception:
            continue
        jd_num += 1
        assert np.isreal(r)
    assert jd_num > 0


def test_eigendecompose_classifies_canonical_diagonal():
    sig = Signature(2, 2)
    spec = AdmissibleSpectrum(sig, np.array([1.0, 3.0]), np.array([0.5, -0.5]))
    system = eigendecompose(PseudoHermitianMatrix(sig, np.diag(spec.canonical_vector())))
    assert sorted(system.cone_classes) == ["negative", "negative", "positive", "positive"]
    lam = np.sort([system.eigenvalues[i].real for i in system.class_indices("positive")])
    mu = np.sort([system.eigenvalues[i].real for i in system.class_indices("negative")])
    assert np.allclose(lam, [1.0, 3.0])
    assert np.allclose(mu, [-0.5, 0.5])


def test_degenerate_cluster_gets_orthonormalized():
    sig = Signature(2, 1)
    A = PseudoHermitianMatrix(sig, np.diag([2.0, 2.0, 1.0]).astype(complex))
    system = eigendecompose(A)
    pos = positive_eigenbasis(system)
    assert np.allclose(gram(pos, sig), np.eye(2), atol=1e-10)
    spec = check_admissible(A)
    assert np.allclose(spec.lambdas, [2.0, 2.0])


def test_complex_spectrum_is_rejected():
    sig = Signature(1, 1)
    A = PseudoHermitianMatrix(sig, np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    with pytest.raises(ComplexSpectrum):
        check_admissible(A)


def test_defective_matrix_is_rejected():
    sig = Signature(1, 1)
    nilpotent = np.array([[1.0, 1.0], [-1.0, -1.0]], dtype=complex)
    A = PseudoHermitianMatrix(sig, nilpotent)
    with pytest.raises(DefectiveMatrix):
        check_admissible(A)


def test_gap_violations_both_ways():
    sig = Signature(1, 1)
    closed = PseudoHermitianMatrix(sig, np.eye(2, dtype=complex))
    with pytest.raises(GapViolation) as info:
        check_admissible(closed)
    assert not info.value.other_component
    flipped = PseudoHermitianMatrix(sig, np.diag([0.0, 5.0]).astype(complex))
    with pytest.raises(GapViolation) as info:
        check_admissible(flipped)
    assert info.value.other_component


def test_eigenbasis_count_guard():
    sig = Signature(1, 1)
    system = eigendecompose(PseudoHermitianMatrix(sig, np.diag([2.0, 1.0]).astype(complex)))
    assert positive_eigenbasis(system).shape == (2, 1)
    assert negative_eigenbasis(system).shape == (2, 1)
    fake = dataclasses.replace(system, cone_classes=("positive", "positive"))
    with pytest.raises(WrongConeCount):
        negative_eigenbasis(fake)


def test_recovery_under_conjugation(signature, sampler_cfg):
    rng = instance_rng(SEED, 3)
    A, spec, _ = sample_planted(signature, sampler_cfg, rng)
    U = sample_pseudo_unitary(signature, sampler_cfg, rng)
    B = conjugate(A, U)
    got = check_admissible(B)
    tol = 1e-7 * U.cond**2
    assert np.allclose(got.lambdas, spec.lambdas, atol=tol)
    assert np.allclose(got.mus, spec.mus, atol=tol)


def test_compression_matches_rayleigh_trace(signature, sampler_cfg, rayleigh):
    if signature.p < 2:
        pytest.skip("needs at least two positive directions")
    rng = instance_rng(SEED, 4)
    A, spec, _ = sample_planted(signature, sampler_cfg, rng)
    system = eigendecompose(A)
    frame = eigenvector_frame(system, range(1, signature.p + 1))
    result = compress(A, frame)
    assert np.allclose(result.compressed, result.compressed.conj().T)
    # compressing onto the full positive eigenspace returns the lambdas
    assert np.allclose(np.sort(result.etas), spec.lambdas, atol=1e-8)
    traces = [rayleigh(A, frame.vectors[:, j], signature) for j in range(frame.size)]
    assert np.sum(result.etas) == pytest.approx(np.sum(traces), abs=1e-8)


def test_hermitian_limit_matches_eigvalsh():
    sig = Signature(3, 0)
    rng = np.random.default_rng(SEED)
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = (H + H.conj().T) / 2
    A = PseudoHermitianMatrix(sig, H)
    spec = check_admissible(A)
    assert np.allclose(spec.lambdas, np.linalg.eigvalsh(H), atol=1e-9)
    assert spec.mus.size == 0


def reference_eigendecompose(A):
    """Eigenvalues, eigenvectors and cone classes, classified one column at a time.

    The loop eigendecompose ran before its classification was vectorized:
    clusters are grown one eigenvalue at a time, and every column goes
    through geometry.classify.
    """
    sig = A.signature
    w, V = np.linalg.eig(A.entries)
    order = np.lexsort((w.imag, w.real))
    w, vectors = w[order], V[:, order]
    clusters = [[0]]
    for i in range(1, w.size):
        if abs(w[i] - w[clusters[-1][-1]]) < spectral.TOL_CLUSTER_REL * A.norm:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    for group in clusters:
        if len(group) == 1:
            info = classify(vectors[:, group[0]], sig)
            if info.cone_class != NULL:
                vectors[:, group[0]] = info.vector / np.sqrt(abs(info.self_pairing))
            continue
        block = vectors[:, group]
        eigs = np.linalg.eigvalsh(gram(block, sig))
        try:
            if eigs[0] > 0:
                vectors[:, group] = pseudo_orthonormalize(block, sig, POSITIVE).vectors
            elif eigs[-1] < 0:
                vectors[:, group] = pseudo_orthonormalize(block, sig, NEGATIVE).vectors
        except (NullDegeneracy, OrientationMismatch):
            pass
    classes = tuple(classify(vectors[:, i], sig).cone_class for i in range(w.size))
    return w, vectors, classes


def spectral_case(kind, p, q, seed):
    """A conjugated matrix of the given kind.

    ``planted``: a sampled admissible matrix.  ``cluster``: lambda_1 repeated
    (and mu_1 too when q >= 2).  ``mixed``: mu_1 = lambda_1, a cluster whose
    restricted pairing is indefinite, so its vectors are left as computed.
    ``null``: a complex pair a +- ib whose eigenvectors pair slot 1 with
    slot p + 1, so both are null.
    """
    sig = Signature(p, q)
    cfg = SamplerConfig(seed=seed)
    rng = instance_rng(seed, 0)
    if kind == "planted":
        return sample_planted(sig, cfg, rng)[0]
    lam = np.sort(rng.uniform(1.0, 3.0, p))
    mus = np.sort(rng.uniform(-2.0, 0.0, q))[::-1]
    if kind == "cluster":
        lam[1] = lam[0]
        if q >= 2:
            mus[1] = mus[0]
        D = np.diag(AdmissibleSpectrum(sig, lam, mus).canonical_vector()).astype(complex)
    elif kind == "mixed":
        mus[0] = lam[0]
        D = np.diag(np.concatenate([lam, mus])).astype(complex)
    else:
        D = np.diag(np.concatenate([lam, mus])).astype(complex)
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
        D[0, 0] = D[p, p] = a
        D[0, p], D[p, 0] = b, -b
    return conjugate(PseudoHermitianMatrix(sig, D), sample_pseudo_unitary(sig, cfg, rng))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["planted", "cluster", "mixed", "null"]),
    p=st.integers(1, 4),
    q=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@example(kind="planted", p=3, q=0, seed=1)
@example(kind="cluster", p=3, q=2, seed=2)
@example(kind="cluster", p=2, q=0, seed=3)
@example(kind="null", p=2, q=2, seed=4)
@example(kind="mixed", p=1, q=1, seed=5)
def test_vectorized_classification_matches_per_column_classify(kind, p, q, seed):
    if kind == "cluster":
        p = max(p, 2)
    if kind in ("mixed", "null"):
        q = max(q, 1)
    A = spectral_case(kind, p, q, seed)
    w, vectors, classes = reference_eigendecompose(A)
    system = eigendecompose(A)
    assert np.array_equal(system.eigenvalues, w)
    assert system.cone_classes == classes
    assert np.allclose(system.eigenvectors, vectors, rtol=1e-12, atol=1e-12)
    if kind == "null":
        assert classes.count(NULL) == 2
    elif kind != "mixed":
        assert classes.count(POSITIVE) == p and classes.count(NEGATIVE) == q
    if kind == "cluster":
        # the repeated eigenvalue was found as a cluster and its vectors re-orthonormalized
        assert np.min(np.abs(np.diff(w))) < spectral.TOL_CLUSTER_REL * A.norm
        assert np.allclose(gram(positive_eigenbasis(system), A.signature), np.eye(p), atol=1e-8)


def test_memoized_system_equals_a_fresh_solve_and_is_read_only(sampler_cfg):
    sig = Signature(3, 2)
    A, _, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 5))
    shared = eigendecompose(A)
    copy = PseudoHermitianMatrix(sig, A.entries.copy())
    assert eigendecompose(copy) is shared
    spectral._solve.cache_clear()
    fresh = eigendecompose(copy)
    assert fresh is not shared
    assert np.array_equal(fresh.eigenvalues, shared.eigenvalues)
    assert np.array_equal(fresh.eigenvectors, shared.eigenvectors)
    assert (fresh.cone_classes, fresh.reality_defect, fresh.norm) == (
        shared.cone_classes,
        shared.reality_defect,
        shared.norm,
    )
    with pytest.raises(ValueError):
        shared.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        shared.eigenvectors[0, 0] = 0.0


SUMS_SUITES = ("structural", "trace", "weyl", "lidskii", "thompson_freede")


def test_a_sums_instance_solves_each_matrix_once(monkeypatch, fresh_memos):
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    run_instance(SuiteConfig(p=3, q=2, seed=0, suites=SUMS_SUITES), 0)
    assert len(calls) == 3  # A, B and A + B


def test_a_sums_instance_builds_each_spectrum_once(monkeypatch, fresh_memos):
    built = []

    def counting_spectrum(*args):
        built.append(args[0])
        return AdmissibleSpectrum(*args)

    monkeypatch.setattr(spectral, "AdmissibleSpectrum", counting_spectrum)
    run_instance(SuiteConfig(p=3, q=2, seed=0, suites=SUMS_SUITES), 0)
    assert len(built) == 3  # A, B and A + B; one per check_admissible call (13) before the memo


def test_equal_bytes_share_one_read_only_spectrum(sampler_cfg, fresh_memos):
    sig = Signature(3, 2)
    A, planted, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 6))
    shared = check_admissible(A)
    assert check_admissible(PseudoHermitianMatrix(sig, A.entries.copy())) is shared
    with pytest.raises(ValueError):
        shared.lambdas[0] = 0.0
    with pytest.raises(ValueError):
        shared.mus[0] = 0.0
    spectral._admissible.cache_clear()
    fresh = check_admissible(A)
    assert fresh is not shared
    assert np.array_equal(fresh.lambdas, shared.lambdas)
    assert np.array_equal(fresh.mus, shared.mus)
    assert np.allclose(shared.lambdas, planted.lambdas, atol=1e-8)


@pytest.mark.parametrize(
    "entries, error, other_component",
    [
        ([[0.0, 1.0], [-1.0, 0.0]], ComplexSpectrum, None),
        (np.eye(2), GapViolation, False),
        (np.diag([0.0, 5.0]), GapViolation, True),
        # eigenvalues 1 +- 1e-10 i: real within tolerance, with null eigenvectors
        ([[1.0, 1e-10], [-1e-10, 1.0]], WrongConeCount, None),
    ],
    ids=["complex", "gap-closed", "other-component", "cone-count"],
)
def test_an_inadmissible_matrix_raises_a_new_error_on_every_call(
    entries, error, other_component, fresh_memos
):
    A = PseudoHermitianMatrix(Signature(1, 1), np.array(entries, dtype=complex))
    raised = []
    for _ in range(3):
        with pytest.raises(error) as info:
            check_admissible(A)
        raised.append(info.value)
        if other_component is not None:
            assert info.value.other_component is other_component
    # fresh objects, so no traceback grows from one raise to the next
    assert len({id(exc) for exc in raised}) == 3
    assert len({str(exc) for exc in raised}) == 1
    depths = set()
    for exc in raised:
        tb, depth = exc.__traceback__, 0
        while tb is not None:
            tb, depth = tb.tb_next, depth + 1
        depths.add(depth)
    assert len(depths) == 1
