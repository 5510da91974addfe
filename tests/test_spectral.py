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
    conjugate,
    eigendecompose,
    instance_rng,
    negative_eigenbasis,
    positive_eigenbasis,
    sample_planted,
    sample_pseudo_unitary,
)
from kreinval import checks, spectral
from kreinval.checks import matrix_sum
from kreinval.cli import TOL_PLANTED, SuiteConfig, run_instance
from kreinval.core import metric_diagonal
from kreinval.geometry import gram
from kreinval.sampling import SamplerConfig

from conftest import compress, cone_class, gram_schmidt, positive_frames

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
    assert np.array_equal(system.eigenvalues, [-0.5, 0.5, 1.0, 3.0])
    assert system.shift == 0.75  # midway between mu_1 and lambda_1
    assert np.array_equal(system.spectrum.lambdas, [1.0, 3.0])
    assert np.array_equal(system.spectrum.mus, [0.5, -0.5])
    # canonical order is lambdas descending, then mus descending: slots 1, 0 and 3, 2
    assert np.array_equal(np.abs(positive_eigenbasis(system)), np.eye(4)[:, [1, 0]])
    assert np.array_equal(np.abs(negative_eigenbasis(system)), np.eye(4)[:, [3, 2]])


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
    """The eigenbases are the first q and the last p columns, empty blocks included."""
    for sig, entries in [
        (Signature(1, 1), np.diag([2.0, 1.0])),
        (Signature(2, 0), np.diag([2.0, 1.0])),
        (Signature(0, 2), np.diag([2.0, 1.0])),
    ]:
        system = eigendecompose(PseudoHermitianMatrix(sig, entries.astype(complex)))
        pos, neg = positive_eigenbasis(system), negative_eigenbasis(system)
        assert pos.shape == (2, sig.p) and neg.shape == (2, sig.q)
        assert np.array_equal(np.concatenate([neg, pos], axis=1), system.eigenvectors)
        if sig.p:
            assert np.allclose(gram(pos, sig), np.eye(sig.p), atol=1e-12)
        if sig.q:
            assert np.allclose(gram(neg, sig), -np.eye(sig.q), atol=1e-12)


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
    frame = positive_frames(positive_eigenbasis(system), signature)
    result = compress(A, frame)
    assert np.allclose(result.compressed, result.compressed.conj().T)
    # compressing onto the full positive eigenspace returns the lambdas
    assert np.allclose(np.sort(result.etas), spec.lambdas, atol=1e-8)
    traces = [rayleigh(A, frame[:, j], signature) for j in range(frame.shape[1])]
    assert np.sum(result.etas) == pytest.approx(np.sum(traces), abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 6), seed=st.integers(0, 2**16))
@example(p=3, seed=SEED)
def test_hermitian_limit_matches_eigvalsh(p, seed):
    sig = Signature(p, 0)
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    H = (H + H.conj().T) / 2
    A = PseudoHermitianMatrix(sig, H)
    spec = check_admissible(A)
    assert np.allclose(spec.lambdas, np.linalg.eigvalsh(H), atol=1e-9)
    assert spec.mus.size == 0
    assert eigendecompose(A).shift < spec.lambdas[0]


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 6),
    q=st.integers(0, 4),
    seed=st.integers(0, 2**16),
    t=st.floats(1e-3, 1e3),
)
@example(p=6, q=4, seed=0, t=1.0)
def test_shifts_add_so_admissible_matrices_form_a_convex_cone(p, q, seed, t):
    """shift_A + t shift_B certifies A + t B, so A + t B is admissible."""
    sig = Signature(p, q)
    cfg = SamplerConfig()
    rng = instance_rng(seed, 0)
    A = sample_planted(sig, cfg, rng)[0]
    B = PseudoHermitianMatrix(sig, t * sample_planted(sig, cfg, rng)[0].entries)
    S = matrix_sum(A, B)
    shift = eigendecompose(A).shift + eigendecompose(B).shift
    np.linalg.cholesky(metric_diagonal(sig)[:, None] * (S.entries - shift * np.eye(sig.n)))
    check_admissible(S)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(1, 4),
    q=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    c=st.floats(-100.0, 100.0),
)
def test_a_scalar_shift_moves_every_eigenvalue_by_it(p, q, seed, c):
    sig = Signature(p, q)
    cfg = SamplerConfig()
    A, _, U = sample_planted(sig, cfg, instance_rng(seed, 0))
    spec = check_admissible(A)
    moved = check_admissible(PseudoHermitianMatrix(sig, A.entries + c * np.eye(sig.n)))
    tol = 1e-10 * U.cond**2 * (1.0 + abs(c))
    assert np.allclose(moved.lambdas, spec.lambdas + c, rtol=0.0, atol=tol)
    assert np.allclose(moved.mus, spec.mus + c, rtol=0.0, atol=tol)


@pytest.mark.parametrize(
    "pq, diagonal",
    [
        ((2, 2), [3.0, 1.0, 0.5, -0.5]),
        ((1, 2), [2.0, 1.5, -1e9]),
        ((3, 0), [2.0, -1.0, 0.25]),
        ((0, 2), [4.0, -3.0]),
    ],
)
def test_shift_margin_of_a_diagonal_is_its_distance_ratio(pq, diagonal):
    sig = Signature(*pq)
    A = PseudoHermitianMatrix(sig, np.diag(diagonal).astype(complex))
    distance = np.abs(np.array(diagonal) - eigendecompose(A).shift)
    assert spectral.shift_margin(A) == distance.min() / distance.max()


#: eigenvalue clustering gap of the reference, relative to the operator norm
CLUSTER_REL = 1e-7


def reference_eigendecompose(A):
    """Eigenvalues, eigenvectors, cone classes and clusters, one column at a time.

    The classifying solve eigendecompose ran before admissibility became a
    definite-shift certificate: clusters are grown one eigenvalue at a time,
    re-orthonormalized by Gram-Schmidt when their pairing is definite, and
    every column gets a cone class.
    """
    sig = A.signature
    w, V = np.linalg.eig(A.entries)
    order = np.lexsort((w.imag, w.real))
    w, vectors = w[order], V[:, order]
    clusters = [[0]]
    for i in range(1, w.size):
        if abs(w[i] - w[clusters[-1][-1]]) < CLUSTER_REL * np.linalg.norm(A.entries, 2):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    for group in clusters:
        block = vectors[:, group]
        if len(group) == 1:
            if cone_class(block, sig) != "null":
                vectors[:, group] = block / np.sqrt(abs(gram(block, sig)[0, 0].real))
            continue
        eigs = np.linalg.eigvalsh(gram(block, sig))
        if eigs[0] > 0 or eigs[-1] < 0:
            vectors[:, group] = gram_schmidt(block, sig, 1.0 if eigs[0] > 0 else -1.0)
    classes = tuple(cone_class(vectors[:, i], sig) for i in range(w.size))
    return w, vectors, classes, clusters


def spectral_case(kind, p, q, seed, **sampling):
    """A conjugated matrix of the given kind, sampled with the ``SamplerConfig`` fields ``sampling``.

    ``planted``: a sampled admissible matrix.  ``cluster``: lambda_1 repeated
    (and mu_1 too when q >= 2).  ``mixed``: mu_1 = lambda_1, a cluster whose
    restricted pairing is indefinite, so its vectors are left as computed.
    ``null``: a complex pair a +- ib whose eigenvectors pair slot 1 with
    slot p + 1, so both are null.
    """
    sig = Signature(p, q)
    cfg = SamplerConfig(**sampling)
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


#: the boosted sampling of the span oracle: wide boosts and conjugators up to cond 1e6
BOOSTED = {"boost_scale": 4.0, "cond_cap": 1e6}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["planted", "cluster", "mixed", "null"]),
    p=st.integers(1, 4),
    q=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    boosted=st.booleans(),
)
@example(kind="planted", p=3, q=0, seed=1, boosted=False)
@example(kind="cluster", p=3, q=2, seed=2, boosted=False)
@example(kind="cluster", p=2, q=0, seed=3, boosted=False)
@example(kind="null", p=2, q=2, seed=4, boosted=False)
@example(kind="mixed", p=1, q=1, seed=5, boosted=False)
@example(kind="mixed", p=2, q=2, seed=0, boosted=False)  # a roundoff gap that no shift certifies
@example(kind="mixed", p=2, q=2, seed=1, boosted=False)  # a roundoff gap that one shift certifies
@example(kind="planted", p=2, q=3, seed=20, boosted=True)  # a relative gap of 1.4e-6 at cond 1.3e3
@example(kind="cluster", p=3, q=2, seed=2, boosted=True)
def test_vectorized_classification_matches_per_column_classify(kind, p, q, seed, boosted):
    if kind == "cluster":
        p = max(p, 2)
    if kind in ("mixed", "null"):
        q = max(q, 1)
    A = spectral_case(kind, p, q, seed, **(BOOSTED if boosted else {}))
    if kind == "null":
        with pytest.raises(ComplexSpectrum):
            eigendecompose(A)
        return
    try:
        system = eigendecompose(A)
    except (GapViolation, WrongConeCount):
        assert kind == "mixed"
        return
    # every system carries its certificate: J (A - shift I) is positive definite
    jd = metric_diagonal(A.signature)
    np.linalg.cholesky(jd[:, None] * (A.entries - system.shift * np.eye(A.signature.n)))
    if kind == "mixed":
        # roundoff split the tie into an admissible matrix, and its gap is roundoff
        assert system.spectrum.gap <= spectral.TOL_REALITY_REL * np.linalg.norm(A.entries, 2)
        return
    w, vectors, classes, clusters = reference_eigendecompose(A)
    assert classes.count("negative") == q and classes.count("positive") == p
    assert classes == ("negative",) * q + ("positive",) * p  # the classes lie in position order
    # without a hint the solve keeps eig's bytes; a sampled matrix's hint moves them by roundoff
    bare = PseudoHermitianMatrix(A.signature, A.entries)
    assert np.array_equal(eigendecompose(bare).eigenvalues, w.real)
    if kind == "planted":
        assert A.shift_hint is not None and system.shift == A.shift_hint
        cond = np.linalg.cond(system.eigenvectors)
        scale = max(1.0, float(np.abs(w.real).max()))
        assert np.allclose(system.eigenvalues, w.real, rtol=0.0, atol=TOL_PLANTED * cond**2 * scale)
    else:
        assert system is eigendecompose(bare)
    # each cluster's eigenvectors span the reference's eigenspace; two backward-stable solves
    # agree on a cluster's span only to eps cond(X) / (its relative gap to the other eigenvalues),
    # which the boosted conjugators can take past 1e-9
    norm, cond = np.linalg.norm(A.entries, 2), np.linalg.cond(system.eigenvectors)
    for group in clusters:
        X, Y = system.eigenvectors[:, group], vectors[:, group]
        coeffs = np.linalg.lstsq(Y, X, rcond=None)[0]
        span_tol = 1e-9
        if boosted:
            gap = np.min(np.abs(np.delete(w.real, group)[:, None] - w.real[group]), initial=np.inf) / norm
            span_tol = max(span_tol, np.finfo(float).eps * cond / gap)
        assert np.linalg.norm(Y @ coeffs - X) <= span_tol * np.linalg.norm(X)
    assert np.allclose(gram(positive_eigenbasis(system), A.signature), np.eye(p), atol=1e-8)
    if q:
        assert np.allclose(gram(negative_eigenbasis(system), A.signature), -np.eye(q), atol=1e-8)
    if kind == "cluster":
        # the repeated eigenvalue is a cluster of the reference
        assert max(len(group) for group in clusters) >= 2


def test_memoized_system_equals_a_fresh_solve_and_is_read_only(sampler_cfg):
    """Equal entry bytes and hints share one system; a fresh solve gives the same bytes."""
    sig = Signature(3, 2)
    A, _, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 5))
    shared = eigendecompose(A)
    copy = PseudoHermitianMatrix(sig, A.entries.copy(), shift_hint=A.shift_hint)
    assert eigendecompose(copy) is shared
    # the hint is part of the key: the same entries without it are solved on their own
    assert eigendecompose(PseudoHermitianMatrix(sig, A.entries)) is not shared
    spectral._solve.cache_clear()
    fresh = eigendecompose(copy)
    assert fresh is not shared
    assert np.array_equal(fresh.eigenvalues, shared.eigenvalues)
    assert np.array_equal(fresh.eigenvectors, shared.eigenvectors)
    assert fresh.shift == shared.shift
    assert np.array_equal(fresh.spectrum.lambdas, shared.spectrum.lambdas)
    assert np.array_equal(fresh.spectrum.mus, shared.spectrum.mus)
    with pytest.raises(ValueError):
        shared.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        shared.eigenvectors[0, 0] = 0.0


@pytest.mark.parametrize(
    "pq", [(2, 1), (3, 2), (4, 3), (5, 3), (6, 4), (1, 5), (0, 3), (3, 0)], ids=lambda pq: f"p{pq[0]}q{pq[1]}"
)
def test_the_eigenvalues_are_the_sorted_real_parts_of_eig_byte_for_byte(pq, fresh_memos):
    """Without a hint the solve's spectrum is eig's: A, B and A + B of instances 0-4, read without their hints.

    The hinted solves of the same matrices are held to eig within tolerance
    by ``test_hinted_spectra_match_eig_and_the_planted_spectrum``.
    """
    sig = Signature(*pq)
    cfg = SamplerConfig()
    for index in range(5):
        rng = instance_rng(0, index)
        A, B = sample_planted(sig, cfg, rng)[0], sample_planted(sig, cfg, rng)[0]
        for M in (A, B, matrix_sum(A, B)):
            assert M.shift_hint is not None
            w = np.linalg.eig(M.entries)[0]
            want = w.real[np.lexsort((w.imag, w.real))]
            assert eigendecompose(PseudoHermitianMatrix(sig, M.entries)).eigenvalues.tobytes() == want.tobytes()


SUMS_SUITES = ("structural", "trace", "weyl", "lidskii", "thompson_freede")


def counting(monkeypatch, *names):
    """Patch each named ``np.linalg`` function to log the shape of its argument; returns the logs by name."""
    calls = {name: [] for name in names}
    for name in names:
        solver = getattr(np.linalg, name)

        def counted(a, *args, _log=calls[name], _solver=solver, **kwargs):
            _log.append(a.shape)
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_a_sums_instance_solves_each_matrix_once(monkeypatch, fresh_memos):
    """One Cholesky per distinct matrix, at its hint, and no ``eigvals`` or ``eig``.

    A and B carry their planted gap points and A + B the sum of the two, and
    each hint certifies its matrix; ``eig`` runs only to diagnose a failure.
    Both the sum suites and the default selection of every suite.
    """
    for p, q in ((3, 2), (5, 3)):
        for suites in (SUMS_SUITES, SuiteConfig().suites):
            for memo in (spectral._solve, checks._sum_spectra, checks._positive_eigen):
                memo.cache_clear()
            with monkeypatch.context() as patch:
                calls = counting(patch, "eigvals", "eig", "cholesky")
                run_instance(SuiteConfig(p=p, q=q, seed=0, suites=suites), 0)
            n = p + q
            assert calls == {"eigvals": [], "eig": [], "cholesky": [(n, n)] * 3}, (p, q, suites)  # A, B and A + B


def test_a_sums_instance_frames_no_eigenvector_block(monkeypatch, fresh_memos):
    """The sum suites read spectra only, so neither A, B nor A + B solves for its eigenvectors."""
    calls = counting(monkeypatch, "eigh", "eig")
    reports = run_instance(SuiteConfig(p=5, q=3, seed=0, suites=SUMS_SUITES), 0)
    assert [r.check_name for r in reports] == list(SUMS_SUITES) and all(r.passed for r in reports)
    assert calls == {"eigh": [], "eig": []}


def test_a_variational_instance_frames_its_matrix_once(monkeypatch, fresh_memos):
    """A's eigenvectors come from one ``eigh`` of L^H J L, shared by the three suites."""
    calls = counting(monkeypatch, "eigh", "eig")
    reports = run_instance(SuiteConfig(p=5, q=3, seed=0, suites=("courant_fischer", "ky_fan", "wielandt")), 0)
    assert all(r.passed for r in reports)
    assert calls == {"eigh": [(8, 8)], "eig": []}


@pytest.mark.parametrize("flipped, kind", [(1, "negative-type"), (2, "positive-type")])
def test_an_inertia_against_sylvester_fails_where_the_eigenvectors_are_read(
    flipped, kind, monkeypatch, sampler_cfg, fresh_memos
):
    """The Cholesky of J (A - shift I) certifies the spectrum; eigenvectors whose inertia is off raise when read.

    An ``eigh`` that flips the sign of nu at ``flipped`` (the top
    negative-type or the least positive-type one) leaves other than q
    negative nu.  The certified spectrum stays available, every read of the
    eigenvectors raises WrongConeCount rather than assign the blocks
    wrongly, and the shared system keeps no eigenvectors until a read
    succeeds.
    """
    sig = Signature(3, 2)
    A, planted, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 7))
    eigh = np.linalg.eigh

    def flipping_eigh(a):
        nu, Q = eigh(a)
        assert np.count_nonzero(nu < 0) == sig.q  # Sylvester's law, before the fault
        nu[flipped] = -nu[flipped]
        return nu, Q

    monkeypatch.setattr(np.linalg, "eigh", flipping_eigh)
    spectrum = check_admissible(A)
    assert np.allclose(spectrum.lambdas, planted.lambdas, atol=1e-8)
    assert np.allclose(spectrum.mus, planted.mus, atol=1e-8)
    system = eigendecompose(A)
    assert system.spectrum is spectrum and not system.factor.flags.writeable
    negatives = sig.q - 1 if kind == "negative-type" else sig.q + 1
    for _ in range(3):
        with pytest.raises(WrongConeCount, match=f"has {negatives} negative eigenvalues, not q = {sig.q}"):
            positive_eigenbasis(eigendecompose(A))
        assert eigendecompose(A) is system and "eigenvectors" not in vars(system)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert np.allclose(gram(positive_eigenbasis(system), sig), np.eye(sig.p), atol=1e-8)
    assert np.allclose(gram(negative_eigenbasis(system), sig), -np.eye(sig.q), atol=1e-8)
    spectral._solve.cache_clear()
    assert np.array_equal(system.eigenvectors, eigendecompose(A).eigenvectors)


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
    assert check_admissible(PseudoHermitianMatrix(sig, A.entries.copy(), shift_hint=A.shift_hint)) is shared
    assert check_admissible(PseudoHermitianMatrix(sig, A.entries)) is not shared  # no hint: another key
    with pytest.raises(ValueError):
        shared.lambdas[0] = 0.0
    with pytest.raises(ValueError):
        shared.mus[0] = 0.0
    spectral._solve.cache_clear()
    fresh = check_admissible(A)
    assert fresh is not shared
    assert np.array_equal(fresh.lambdas, shared.lambdas)
    assert np.array_equal(fresh.mus, shared.mus)
    assert np.allclose(shared.lambdas, planted.lambdas, atol=1e-8)


def system_bytes(system):
    """Everything a solve returns, as bytes: eigenvalues, factor, shift and both blocks of the spectrum."""
    arrays = (system.eigenvalues, system.factor, np.float64(system.shift), system.spectrum.lambdas, system.spectrum.mus)
    return [np.asarray(arr).tobytes() for arr in arrays]


#: the signatures of the tier-1 grid, and the blocks with one side empty
HINT_GRID = [(2, 1), (3, 2), (4, 3), (6, 4), (1, 4), (3, 0), (0, 3)]


def wrong_hints(spectrum):
    """Distinct shifts that certify nothing: in the positive-type block, above it, in the negative-type block, below it."""
    lam, mu = spectrum.lambdas, spectrum.mus
    hints = []
    if lam.size:
        hints += [float(lam[0] + (lam[1] - lam[0]) / 2 if lam.size > 1 else lam[0] + 1.0), float(lam[-1] + 1.0)]
    if mu.size:
        hints += [float(mu[0] - (mu[0] - mu[1]) / 2 if mu.size > 1 else mu[0] - 1.0), float(mu[-1] - 1.0)]
    return list(dict.fromkeys(hints))


@pytest.mark.parametrize("pq", HINT_GRID, ids=lambda pq: f"p{pq[0]}q{pq[1]}")
def test_a_hint_that_certifies_nothing_gives_the_bytes_of_no_hint(pq, monkeypatch, fresh_memos):
    """A hint above lambda_1 or below mu_1 fails its Cholesky, and the solve then runs as without a hint."""
    sig = Signature(*pq)
    calls = counting(monkeypatch, "eigvals")
    for index in range(4):
        A, planted, _ = sample_planted(sig, SamplerConfig(), instance_rng(SEED, index))
        want = system_bytes(eigendecompose(PseudoHermitianMatrix(sig, A.entries)))
        for hint in wrong_hints(planted):
            calls["eigvals"].clear()
            assert system_bytes(eigendecompose(PseudoHermitianMatrix(sig, A.entries, shift_hint=hint))) == want
            assert len(calls["eigvals"]) == 1, (index, hint)


@pytest.mark.parametrize("hint", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_a_hint_that_is_not_finite_is_no_hint(hint, fresh_memos):
    sig = Signature(3, 2)
    A, _, _ = sample_planted(sig, SamplerConfig(), instance_rng(SEED, 0))
    bare = PseudoHermitianMatrix(sig, A.entries)
    odd = PseudoHermitianMatrix(sig, A.entries, shift_hint=hint)
    assert odd.shift_hint is None and odd == bare and hash(odd) == hash(bare)
    assert eigendecompose(odd) is eigendecompose(bare)


@pytest.mark.parametrize(
    "pq, fault",
    [
        (pq, fault)
        for pq in ((2, 1), (4, 3), (3, 0), (0, 3))
        for fault, block in (("top negative", pq[1]), ("least positive", pq[0]), ("nan", 1))
        if block  # the flipped eigenvalue exists
    ],
    ids=str,
)
def test_an_inertia_against_sylvester_at_the_hint_gives_the_bytes_of_no_hint(pq, fault, monkeypatch, fresh_memos):
    """An ``eigvalsh`` of L^H J L with other than q negative values, or a NaN, sends the solve to ``eigvals``."""
    sig = Signature(*pq)
    A, _, _ = sample_planted(sig, SamplerConfig(), instance_rng(SEED, 1))
    want = system_bytes(eigendecompose(PseudoHermitianMatrix(sig, A.entries)))
    eigvalsh = np.linalg.eigvalsh

    def faulty(a):
        nu = eigvalsh(a)
        if fault == "nan":
            nu[-1] = np.nan
        else:
            at = sig.q - 1 if fault == "top negative" else sig.q
            nu[at] = -nu[at]
        return nu

    monkeypatch.setattr(np.linalg, "eigvalsh", faulty)
    calls = counting(monkeypatch, "eigvals")
    assert system_bytes(eigendecompose(A)) == want
    assert len(calls["eigvals"]) == 1


def test_at_the_overflow_config_every_solve_is_certified_and_near_the_hintless_one(fresh_memos):
    """Eigenvalues near 6e307: the hinted solves certify A, B and A + B, and agree with eigvals within tolerance.

    Where a hint fails, the solve has the bytes of no hint.  The pytest
    config turns a RuntimeWarning, from an overflow in the solve, into an
    error.
    """
    sig = Signature(2, 1)
    cfg = SamplerConfig(gap_min=6e307)
    for index in range(2):
        rng = instance_rng(0, index)
        (A, planted_a, Ua), (B, planted_b, Ub) = sample_planted(sig, cfg, rng), sample_planted(sig, cfg, rng)
        cond = max(Ua.cond, Ub.cond)
        for M in (A, B, matrix_sum(A, B)):
            system, bare = eigendecompose(M), eigendecompose(PseudoHermitianMatrix(sig, M.entries))
            if spectral._certify_at(sig, M.entries, M.shift_hint) is None:
                assert system_bytes(system) == system_bytes(bare)
                continue
            assert system.shift == M.shift_hint
            scale = max(1.0, system.spectrum.magnitude)
            assert np.allclose(system.eigenvalues, bare.eigenvalues, rtol=0.0, atol=TOL_PLANTED * cond**2 * scale)


@pytest.mark.parametrize("boost", [1.0, 3.0])
def test_hinted_spectra_match_eig_and_the_planted_spectrum(boost, monkeypatch, fresh_memos):
    """The independent oracles of the hinted solve: the sorted real parts of eig, and the planted spectrum.

    A, B and A + B of ten instances at each signature of the grid, solved
    without ``eigvals``, lie within TOL_PLANTED cond(U)^2 max(1, |planted|)
    of eig (for A + B, the larger cond and the summed planted spectra), and
    the median error against the planted spectrum is no larger than that of
    the ``eigvals`` solve of the same matrices without hints.
    """
    cfg = SamplerConfig(boost_scale=boost)
    errors = {"hinted": [], "eigvals": []}
    for pq in HINT_GRID:
        sig = Signature(*pq)
        for index in range(10):
            rng = instance_rng(SEED, index)
            (A, planted_a, Ua), (B, planted_b, Ub) = sample_planted(sig, cfg, rng), sample_planted(sig, cfg, rng)
            planted = [np.sort(s.canonical_vector()) for s in (planted_a, planted_b)]
            conds = [Ua.cond, Ub.cond]
            for M, want, cond in zip((A, B, matrix_sum(A, B)), planted + [None], conds + [max(conds)]):
                with monkeypatch.context() as patch:
                    calls = counting(patch, "eigvals")
                    got = eigendecompose(M).eigenvalues
                assert calls["eigvals"] == [], (pq, index)
                w = np.linalg.eig(M.entries)[0]
                oracle = w.real[np.lexsort((w.imag, w.real))]
                scale = max(1.0, float(np.abs(oracle if want is None else want).max()))
                assert np.abs(got - oracle).max() <= TOL_PLANTED * cond**2 * scale, (pq, index)
                if want is not None:
                    errors["hinted"].append(np.abs(got - want).max())
                    bare = eigendecompose(PseudoHermitianMatrix(sig, M.entries)).eigenvalues
                    errors["eigvals"].append(np.abs(bare - want).max())
    assert np.median(errors["hinted"]) <= np.median(errors["eigvals"])


def test_a_hinted_matrix_is_another_value_and_keeps_its_hint_through_pickle_and_sums(fresh_memos):
    import pickle

    sig = Signature(3, 2)
    rng = instance_rng(SEED, 2)
    (A, planted, _), (B, _, _) = sample_planted(sig, SamplerConfig(), rng), sample_planted(sig, SamplerConfig(), rng)
    assert A.shift_hint == spectral._gap_point(np.sort(planted.canonical_vector()), sig.q)
    bare = PseudoHermitianMatrix(sig, A.entries)
    assert A != bare and bare.shift_hint is None
    again = pickle.loads(pickle.dumps(A))
    assert again == A and again.shift_hint == A.shift_hint and hash(again) == hash(A)
    assert matrix_sum(A, B).shift_hint == A.shift_hint + B.shift_hint
    assert matrix_sum(A, bare).shift_hint is None and matrix_sum(bare, B).shift_hint is None
    assert eigendecompose(matrix_sum(A, B)).shift == A.shift_hint + B.shift_hint


def test_a_pair_read_from_files_has_no_hint_and_is_solved_by_eigvals(tmp_path, monkeypatch, fresh_memos):
    """A matrix file holds no hint, so the sum checks on a read pair run ``eigvals`` for A, B and A + B."""
    from kreinval import read_matrix, write_matrix

    sig = Signature(3, 2)
    rng = instance_rng(SEED, 3)
    A, B = sample_planted(sig, SamplerConfig(), rng)[0], sample_planted(sig, SamplerConfig(), rng)[0]
    write_matrix(A, tmp_path / "A.json")
    write_matrix(B, tmp_path / "B.json")
    read_a, read_b = read_matrix(tmp_path / "A.json"), read_matrix(tmp_path / "B.json")
    assert read_a.shift_hint is None and read_b.shift_hint is None
    assert read_a == PseudoHermitianMatrix(sig, A.entries)
    calls = counting(monkeypatch, "eigvals")
    assert checks.check_weyl(read_a, read_b).passed and checks.check_lidskii_wielandt(read_a, read_b).passed
    assert calls["eigvals"] == [(5, 5)] * 3


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
