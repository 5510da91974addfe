import pickle

import numpy as np
import pytest

from kreinval import (
    AdmissibleSpectrum,
    GapViolation,
    PseudoHermitianMatrix,
    PseudoUnitary,
    ShapeMismatch,
    Signature,
    conjugate,
    matrix_dagger,
    metric_diagonal,
    pseudo_hermitian_residual,
    pseudo_unitary_residual,
)
from kreinval.core import TOL_STRUCT
from kreinval.sampling import instance_rng, sample_planted, sample_pseudo_unitary

SEED = 414


def random_pseudo_hermitian(sig, rng):
    """J-hermitize a random complex matrix; exact by construction."""
    raw = rng.standard_normal((sig.n, sig.n)) + 1j * rng.standard_normal((sig.n, sig.n))
    return (raw + matrix_dagger(raw, sig)) / 2


def test_signature_validation():
    assert Signature(2, 1).n == 3
    assert Signature(3, 0).n == 3
    with pytest.raises(ValueError):
        Signature(-1, 2)
    with pytest.raises(ValueError):
        Signature(0, 0)
    # a bool is not a count, though Python counts it an int; a numpy integer is
    with pytest.raises(ValueError, match="integers"):
        Signature(True, False)
    assert Signature(np.int64(2), 1) == Signature(2, 1)


def test_metric_entries():
    sig = Signature(2, 1)
    assert metric_diagonal(sig).tolist() == [1.0, 1.0, -1.0]
    J = np.diag(metric_diagonal(sig))
    assert np.array_equal(J, np.diag([1.0, 1.0, -1.0]))
    assert np.array_equal(J @ J, np.eye(3))


def test_dagger_known_value():
    # entries [[0,1],[0,0]] in signature (1,1) flip to the lower corner with a sign
    sig = Signature(1, 1)
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    expected = np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex)
    assert np.array_equal(matrix_dagger(M, sig), expected)


def test_dagger_is_involution_and_antihomomorphism(signature):
    rng = np.random.default_rng(SEED)
    n = signature.n
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    N = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.allclose(matrix_dagger(matrix_dagger(M, signature), signature), M)
    lhs = matrix_dagger(M @ N, signature)
    rhs = matrix_dagger(N, signature) @ matrix_dagger(M, signature)
    assert np.allclose(lhs, rhs)


def test_pseudo_hermitian_residual(signature):
    rng = np.random.default_rng(SEED + 1)
    A = random_pseudo_hermitian(signature, rng)
    assert pseudo_hermitian_residual(A, signature) < 1e-14
    B = A.copy()
    B[0, 0] += 1j  # diagonal must be real
    assert pseudo_hermitian_residual(B, signature) >= 1.0 > TOL_STRUCT


def test_rotation_is_not_pseudo_unitary():
    sig = Signature(1, 1)
    c = s = np.sqrt(0.5)
    R = np.array([[c, -s], [s, c]], dtype=complex)
    assert abs(pseudo_unitary_residual(R, sig) - 1.0) < 1e-12
    assert pseudo_unitary_residual(R, sig) > TOL_STRUCT


def test_boost_is_pseudo_unitary():
    sig = Signature(1, 1)
    t = 0.7
    U = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex)
    assert pseudo_unitary_residual(U, sig) < 1e-14
    wrapped = PseudoUnitary(sig, U)
    assert np.allclose(wrapped.inverse @ U, np.eye(2))
    assert wrapped.cond >= 1.0


def test_huge_finite_entries_whose_residual_overflows_are_not_pseudo_unitary():
    # (U J U*) overflows to inf - inf, so the residual is NaN; it must fail the check
    sig = Signature(2, 1)
    rng = np.random.default_rng(3)
    U = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(pseudo_unitary_residual(U, sig))
        with pytest.raises(ValueError, match="not pseudo-unitary"):
            PseudoUnitary(sig, U)


def test_matrix_wrapper_freezes_entries():
    sig = Signature(1, 1)
    A = PseudoHermitianMatrix(sig, np.diag([2.0, 1.0]).astype(complex))
    with pytest.raises(ValueError):
        A.entries[0, 0] = 99.0
    with pytest.raises(ShapeMismatch):
        PseudoHermitianMatrix(sig, np.zeros((3, 3), dtype=complex))


def test_matrices_are_values(signature):
    """Equal signature, tolerance and entry bytes make equal matrices with equal hashes."""
    entries = random_pseudo_hermitian(signature, np.random.default_rng(SEED))
    A = PseudoHermitianMatrix(signature, entries)
    same = PseudoHermitianMatrix(A.signature, A.entries.copy())
    assert A == same and hash(A) == hash(same) and len({A, same}) == 1
    copied = pickle.loads(pickle.dumps(A))
    assert copied == A and hash(copied) == hash(A)
    assert A != PseudoHermitianMatrix(signature, entries, tol=2 * TOL_STRUCT)
    assert A != PseudoHermitianMatrix(signature, entries + np.eye(signature.n))
    assert A != "A" and A.__eq__(entries) is NotImplemented
    diagonal = np.diag(np.arange(1.0, 4.0)).astype(complex)
    assert PseudoHermitianMatrix(Signature(2, 1), diagonal) != PseudoHermitianMatrix(Signature(1, 2), diagonal)
    # bytes, not values: -0.0 and 0.0 compare equal as floats but differ in sign bit
    zero = PseudoHermitianMatrix(Signature(1, 1), np.zeros((2, 2), dtype=complex))
    assert zero != PseudoHermitianMatrix(Signature(1, 1), -np.zeros((2, 2), dtype=complex))


def test_spectrum_ordering_rules():
    sig = Signature(2, 1)
    spec = AdmissibleSpectrum(sig, np.array([1.0, 2.0]), np.array([0.5]))
    assert spec.gap == pytest.approx(0.5)
    assert spec.canonical_vector().tolist() == [2.0, 1.0, 0.5]
    assert spec.total() == pytest.approx(3.5)
    with pytest.raises(ValueError):
        AdmissibleSpectrum(sig, np.array([2.0, 1.0]), np.array([0.5]))  # not ascending
    with pytest.raises(GapViolation):
        AdmissibleSpectrum(sig, np.array([1.0, 2.0]), np.array([1.0]))  # gap closed
    two = Signature(2, 2)
    with pytest.raises(ValueError):
        AdmissibleSpectrum(two, np.array([1.0, 2.0]), np.array([0.2, 0.5]))  # mus ascending


def test_canonical_diagonal_layout():
    sig = Signature(2, 2)
    spec = AdmissibleSpectrum(sig, np.array([1.0, 3.0]), np.array([0.5, -0.5]))
    A = PseudoHermitianMatrix(sig, np.diag(spec.canonical_vector()))
    assert np.allclose(A.entries, np.diag([3.0, 1.0, 0.5, -0.5]))


def test_conjugation_is_exactly_structural(signature, sampler_cfg):
    rng = instance_rng(SEED, 2)
    A, _, _ = sample_planted(signature, sampler_cfg, rng)
    U = sample_pseudo_unitary(signature, sampler_cfg, rng)
    B = conjugate(A, U)
    assert pseudo_hermitian_residual(B.entries, signature) < 1e-13
    # similarity preserves the characteristic polynomial, hence the spectrum
    ev_a = np.sort_complex(np.linalg.eigvals(A.entries))
    ev_b = np.sort_complex(np.linalg.eigvals(B.entries))
    assert np.allclose(ev_a, ev_b, atol=1e-8 * U.cond**2)
