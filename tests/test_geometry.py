import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinval import (
    NullDegeneracy,
    NullVector,
    OrientationMismatch,
    PseudoOrthonormalFrame,
    SamplerConfig,
    Signature,
    classify,
    compress,
    gram,
    pair,
    positive_cone_margin,
    projector,
    pseudo_orthonormalize,
    sample_planted,
    sample_positive_subspace,
    self_pairing,
    subspace_in_positive_cone,
)
from kreinval.core import metric_diagonal
from kreinval.geometry import NEGATIVE, NULL, POSITIVE

SEED = 98


def gram_schmidt(basis, sig, sign=1.0):
    """Reference frame: Gram-Schmidt for the pairing, two cleaning passes per column."""
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


def assert_close(got, ref, rtol=1e-12):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def test_pairing_known_values():
    sig = Signature(2, 1)
    assert pair([1, 1, 1], [1, 0, 1], sig) == pytest.approx(0.0)
    assert self_pairing([1, 1, 1], sig) == pytest.approx(1.0)
    assert self_pairing([0, 0, 2], sig) == pytest.approx(-4.0)


def test_pairing_sesquilinear():
    sig = Signature(1, 1)
    rng = np.random.default_rng(SEED)
    z, w = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    a = 0.3 - 1.1j
    assert pair(a * z, w, sig) == pytest.approx(a * pair(z, w, sig))
    assert pair(z, a * w, sig) == pytest.approx(np.conj(a) * pair(z, w, sig))
    assert pair(w, z, sig) == pytest.approx(np.conj(pair(z, w, sig)))


def test_classify_all_three_classes():
    sig = Signature(1, 1)
    assert classify([1.0, 0.0], sig).cone_class == POSITIVE
    assert classify([0.0, 1.0], sig).cone_class == NEGATIVE
    assert classify([1.0, 1.0], sig).cone_class == NULL
    # the null band scales with the squared vector norm
    assert classify([1e8, 1e8 + 1e-6], sig).cone_class == NULL


def test_gram_known_value():
    sig = Signature(1, 1)
    basis = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    G = gram(basis, sig)
    assert np.allclose(G, np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(G, G.conj().T)


def test_orthonormalize_both_orientations():
    sig = Signature(2, 1)
    rng = np.random.default_rng(SEED + 1)
    pos_raw = np.vstack([np.eye(2), 0.2 * rng.standard_normal((1, 2))]).astype(complex)
    frame = pseudo_orthonormalize(pos_raw, sig, orientation="positive")
    assert np.allclose(gram(frame.vectors, sig), np.eye(2), atol=1e-10)
    neg_raw = np.array([[0.1], [0.2], [1.0]], dtype=complex)
    neg = pseudo_orthonormalize(neg_raw, sig, orientation="negative")
    assert np.allclose(gram(neg.vectors, sig), -np.eye(1), atol=1e-10)


def test_orthonormalize_rejects_wrong_orientation():
    sig = Signature(1, 1)
    timelike_down = np.array([[0.0], [1.0]], dtype=complex)
    with pytest.raises(OrientationMismatch):
        pseudo_orthonormalize(timelike_down, sig, orientation="positive")


def test_orthonormalize_rejects_null_pivot():
    sig = Signature(1, 1)
    lightlike = np.array([[1.0], [1.0]], dtype=complex)
    with pytest.raises(NullDegeneracy):
        pseudo_orthonormalize(lightlike, sig, orientation="positive")


def test_projector_boost_line():
    # one positive direction (cosh t, sinh t): P = x x^dagger in closed form
    sig = Signature(1, 1)
    t = 0.9
    x = np.array([[np.cosh(t)], [np.sinh(t)]], dtype=complex)
    frame = PseudoOrthonormalFrame(sig, x, "positive")
    P = projector(frame)
    ch, sh = np.cosh(t), np.sinh(t)
    expected = np.array([[ch * ch, -ch * sh], [sh * ch, -sh * sh]])
    assert np.allclose(P, expected)
    assert np.allclose(P @ P, P)
    assert np.allclose(P @ x, x)


def test_positive_cone_margin_is_basis_invariant():
    sig = Signature(2, 2)
    rng = np.random.default_rng(SEED + 2)
    basis = np.vstack([np.eye(2), 0.3 * rng.standard_normal((2, 2))]).astype(complex)
    m1 = positive_cone_margin(basis, sig)
    R = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    R += 5 * np.eye(2)  # keep it comfortably invertible
    m2 = positive_cone_margin(basis @ R, sig)
    assert m1 == pytest.approx(m2, abs=1e-10)
    assert -1.0 <= m1 <= 1.0


def test_subspace_positivity_decision():
    sig = Signature(2, 1)
    graph = np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]], dtype=complex)
    assert subspace_in_positive_cone(graph, sig)
    mixed = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert not subspace_in_positive_cone(mixed, sig)


def test_null_vector_classify_raises_nothing_but_rayleigh_does():
    from kreinval import rayleigh
    from kreinval import PseudoHermitianMatrix

    sig = Signature(1, 1)
    A = PseudoHermitianMatrix(sig, np.diag([2.0, 1.0]).astype(complex))
    with pytest.raises(NullVector):
        rayleigh(A, [1.0, 1.0], sig)


def test_batched_frames_match_gram_schmidt_and_per_frame_compressions(signature):
    rng = np.random.default_rng(SEED + 3)
    cfg = SamplerConfig()
    A, _, _ = sample_planted(signature, cfg, rng)
    for k in range(1, signature.p + 1):
        bases = sample_positive_subspace(signature, k, cfg, rng, count=40)
        frames = pseudo_orthonormalize(bases, signature)
        assert frames.vectors.shape == bases.shape
        batched = compress(A, frames)
        for b, F, etas in zip(bases, frames.vectors, batched.etas):
            ref = gram_schmidt(b, signature)
            assert_close(F, ref)
            single = compress(A, PseudoOrthonormalFrame(signature, ref))
            assert_close(etas, single.etas)


def test_stacked_orthonormalize_names_the_failing_sample():
    sig = Signature(1, 1)
    stack = np.array([[[1.0], [0.2]], [[0.0], [1.0]]], dtype=complex)
    with pytest.raises(OrientationMismatch, match="column 0 of sample 1"):
        pseudo_orthonormalize(stack, sig)
    stack[1] = [[1.0], [1.0]]
    with pytest.raises(NullDegeneracy, match="column 0 of sample 1"):
        pseudo_orthonormalize(stack, sig)


def test_nearly_dependent_columns_still_give_a_frame_on_their_flag():
    # Cholesky of the Gram squares cond(X) ~ 1e6 here; the repair pass keeps TOL_FRAME
    sig = Signature(3, 2)
    x1 = np.array([1.0, 0.2, 0.1, 0.3, 0.1], dtype=complex)
    y = np.array([0.1, 1.0, 0.3, 0.2, -0.3], dtype=complex)
    X = np.column_stack([x1, x1 + 1e-6 * y])
    F = pseudo_orthonormalize(X, sig).vectors
    assert np.max(np.abs(gram(F, sig) - np.eye(2))) <= 1e-12
    assert abs(abs(np.vdot(F[:, 0], x1)) - np.linalg.norm(F[:, 0]) * np.linalg.norm(x1)) < 1e-12
    coeffs, *_ = np.linalg.lstsq(F, X, rcond=None)
    assert np.linalg.norm(F @ coeffs - X) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 4),
    q=st.integers(0, 3),
    cap=st.floats(0.01, 0.9),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cholesky_frames_equal_gram_schmidt(p, q, cap, seed, data):
    sig = Signature(p, q)
    k = data.draw(st.integers(1, p))
    rng = np.random.default_rng(seed)
    bases = sample_positive_subspace(sig, k, SamplerConfig(contraction_cap=cap), rng, count=3)
    # recombine the columns so the input is not already orthonormal at q = 0
    R = np.eye(k) + 0.3 * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / k
    bases = bases @ R
    frames = pseudo_orthonormalize(bases, sig)
    for b, F in zip(bases, frames.vectors):
        assert_close(F, gram_schmidt(b, sig))
        if q == 0:
            # at q = 0 the pairing is the Euclidean inner product
            assert np.allclose(F.conj().T @ F, np.eye(k), atol=1e-12)
