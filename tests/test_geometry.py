import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinval import (
    SamplerConfig,
    Signature,
    gram,
    sample_planted,
)

from conftest import (
    TOL_CONE,
    TOL_FRAME,
    NullVector,
    cholesky_frame,
    compress,
    gram_schmidt,
    positive_frames,
    sample_positive_subspace,
)

SEED = 98


def pair(z, w, sig):
    """<z, w>, read off the Gram of the basis (z, w): G[1, 0] = <b_0, b_1>."""
    return gram(np.column_stack([z, w]).astype(complex), sig)[1, 0]


def assert_close(got, ref, rtol=1e-12):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def test_pairing_known_values():
    sig = Signature(2, 1)
    assert pair([1, 1, 1], [1, 0, 1], sig) == pytest.approx(0.0)
    assert pair([1, 1, 1], [1, 1, 1], sig) == pytest.approx(1.0)
    assert pair([0, 0, 2], [0, 0, 2], sig) == pytest.approx(-4.0)


def test_pairing_sesquilinear():
    sig = Signature(1, 1)
    rng = np.random.default_rng(SEED)
    z, w = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    a = 0.3 - 1.1j
    assert pair(a * z, w, sig) == pytest.approx(a * pair(z, w, sig))
    assert pair(z, a * w, sig) == pytest.approx(np.conj(a) * pair(z, w, sig))
    assert pair(w, z, sig) == pytest.approx(np.conj(pair(z, w, sig)))


def test_gram_known_value():
    sig = Signature(1, 1)
    basis = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    G = gram(basis, sig)
    assert np.allclose(G, np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(G, G.conj().T)


def test_orthonormalize_both_orientations():
    """The raw frame takes either pivot sign: a positive basis gets Gram +I, a negative one -I."""
    sig = Signature(2, 1)
    rng = np.random.default_rng(SEED + 1)
    pos_raw = np.vstack([np.eye(2), 0.2 * rng.standard_normal((1, 2))]).astype(complex)
    frame, pivots = cholesky_frame(pos_raw, sig)
    assert np.allclose(gram(frame, sig), np.eye(2), atol=1e-10)
    assert np.all(pivots > 0)
    neg_raw = np.array([[0.1], [0.2], [1.0]], dtype=complex)
    neg, pivots = cholesky_frame(neg_raw, sig, -1.0)
    assert np.allclose(gram(neg, sig), -np.eye(1), atol=1e-10)
    assert pivots == pytest.approx([1.0 - 0.05])  # the column's self-pairing, negated


def test_orthonormalize_rejects_wrong_orientation():
    sig = Signature(1, 1)
    timelike_down = np.array([[0.0], [1.0]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_frame(timelike_down, sig)
    with pytest.raises(ValueError, match="positive cone$"):
        positive_frames(timelike_down, sig)


def test_orthonormalize_rejects_null_pivot():
    """An exactly null column stops the factorization; one inside the band fails the pivot test."""
    sig = Signature(1, 1)
    lightlike = np.array([[1.0], [1.0]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_frame(lightlike, sig)
    with pytest.raises(ValueError, match="positive cone"):
        positive_frames(lightlike, sig)
    # self-pairing 2e-2 against a squared norm 2e8: the pivot is positive but 1e-10 of the norm
    near = np.array([[1e4], [np.sqrt(1e8 - 2e-2)]], dtype=complex)
    assert cholesky_frame(near, sig)[1] > 0
    with pytest.raises(ValueError, match="positive cone"):
        positive_frames(near, sig)


def test_subspace_positivity_decision():
    # the Cholesky factorization that frames a subspace decides its positivity
    sig = Signature(2, 1)
    graph = np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]], dtype=complex)
    frame = positive_frames(graph, sig)
    assert np.allclose(gram(frame, sig), np.eye(2), atol=1e-12) and not frame.flags.writeable
    mixed = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="positive cone"):
        positive_frames(mixed, sig)


def test_null_vector_classify_raises_nothing_but_rayleigh_does(rayleigh):
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
        bases = sample_positive_subspace(signature, k, rng, count=40)
        frames = positive_frames(bases, signature)
        assert frames.shape == bases.shape
        batched = compress(A, frames)
        for b, F, etas in zip(bases, frames, batched.etas):
            ref = gram_schmidt(b, signature)
            assert_close(F, ref)
            single = compress(A, ref)
            assert_close(etas, single.etas)


def test_stacked_orthonormalize_names_the_failing_sample():
    """Both failure routes name the sample: a factorization that stops, and a pivot below TOL_CONE."""
    sig = Signature(2, 1)
    x1 = np.array([1.0, 0.2, 0.3], dtype=complex)
    y = np.array([0.1, 1.0, -0.3], dtype=complex)
    stack = np.stack([np.column_stack([x1, y])] * 4)
    positive_frames(stack, sig)
    negative = np.array(stack)
    negative[2, :, 1] = [0.0, 0.2, 1.0]  # a negative vector: the stacked Cholesky stops
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_frame(negative, sig)
    with pytest.raises(ValueError, match="positive cone at sample 2"):
        positive_frames(negative, sig)
    dependent = np.array(stack)
    dependent[3, :, 1] = x1 + 1e-6 * y  # a nearly dependent column: the pivot is ~1e-12 of its norm
    pivots = cholesky_frame(dependent, sig)[1]
    assert 0 < pivots[3, 1] < TOL_CONE * np.sum(np.abs(dependent[3, :, 1]) ** 2)
    with pytest.raises(ValueError, match="positive cone at sample 3"):
        positive_frames(dependent, sig)


def test_nearly_dependent_columns_still_give_a_frame_on_their_flag():
    # Cholesky of the Gram squares cond(X) ~ 1e4 here; the repair pass keeps TOL_FRAME
    sig = Signature(3, 2)
    x1 = np.array([1.0, 0.2, 0.1, 0.3, 0.1], dtype=complex)
    y = np.array([0.1, 1.0, 0.3, 0.2, -0.3], dtype=complex)
    X = np.column_stack([x1, x1 + 1e-4 * y])
    assert np.max(np.abs(gram(cholesky_frame(X, sig)[0], sig) - np.eye(2))) > TOL_FRAME  # one pass misses it
    F = positive_frames(X, sig)
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
    bases = sample_positive_subspace(sig, k, rng, count=3, cap=cap)
    # recombine the columns so the input is not already orthonormal at q = 0
    R = np.eye(k) + 0.3 * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / k
    bases = bases @ R
    frames = positive_frames(bases, sig)
    for b, F in zip(bases, frames):
        assert_close(F, gram_schmidt(b, sig))
        if q == 0:
            # at q = 0 the pairing is the Euclidean inner product
            assert np.allclose(F.conj().T @ F, np.eye(k), atol=1e-12)
