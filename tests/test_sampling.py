import numpy as np
import pytest
import scipy.linalg

from kreinval import (
    NullDegeneracy,
    SamplerConfig,
    Signature,
    check_admissible,
    classify,
    instance_rng,
    pseudo_hermitian_residual,
    pseudo_unitary_residual,
    sample_admissible,
    sample_flag_with_subordinate,
    sample_planted,
    sample_positive_subspace,
    sample_pseudo_unitary,
    sample_spectrum,
    subordinate_frame,
    subspace_in_positive_cone,
)
from kreinval.geometry import gram, pair
from kreinval.sampling import PositiveFlag, restricted_cone_samples

SEED = 808


def test_instance_rng_is_reproducible():
    a = instance_rng(SEED, 3).standard_normal(8)
    b = instance_rng(SEED, 3).standard_normal(8)
    c = instance_rng(SEED, 4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spectrum_sampler_respects_gap(signature, sampler_cfg):
    for idx in range(25):
        rng = instance_rng(SEED, idx)
        spec = sample_spectrum(signature, sampler_cfg, rng)
        if signature.p and signature.q:
            assert spec.gap >= sampler_cfg.gap_min - 1e-12
        lo, hi = sampler_cfg.value_range
        if signature.q:
            assert np.all(spec.mus >= lo - 1e-12) and np.all(spec.mus <= hi + 1e-12)


def test_boost_closed_form_matches_exponential():
    # the rank-one generator in signature (1,1) exponentiates to a hyperbolic
    # rotation; pins down the exp-map convention used by the sampler
    sig = Signature(1, 1)
    for t in (0.25, 1.0, 2.0):
        gen = np.array([[0.0, t], [t, 0.0]], dtype=complex)
        U = scipy.linalg.expm(gen)
        expected = np.array(
            [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex
        )
        assert np.allclose(U, expected, atol=1e-13)
        assert pseudo_unitary_residual(U, sig) < 1e-12


def test_sampled_conjugators_are_pseudo_unitary(signature, sampler_cfg):
    for idx in range(10):
        rng = instance_rng(SEED, idx)
        U = sample_pseudo_unitary(signature, sampler_cfg, rng)
        assert pseudo_unitary_residual(U.entries, signature) < 1e-9
        assert U.cond <= sampler_cfg.cond_cap


def test_cone_preservation_under_sampled_conjugators(signature, sampler_cfg):
    rng = instance_rng(SEED, 5)
    U = sample_pseudo_unitary(signature, sampler_cfg, rng)
    for _ in range(20):
        x = np.zeros(signature.n, dtype=complex)
        x[: signature.p] = rng.standard_normal(signature.p)
        if classify(x, signature).cone_class != "positive":
            continue
        assert classify(U.entries @ x, signature).cone_class == "positive"


def test_planted_instances_are_structural_and_recoverable(signature, sampler_cfg):
    for idx in range(20):
        rng = instance_rng(SEED, idx)
        A, spec, U = sample_planted(signature, sampler_cfg, rng)
        assert pseudo_hermitian_residual(A.entries, signature) < 1e-12
        got = check_admissible(A)
        bound = 1e-8 * U.cond**2
        if signature.p:
            assert np.max(np.abs(got.lambdas - spec.lambdas)) <= bound
        if signature.q:
            assert np.max(np.abs(got.mus - spec.mus)) <= bound


def test_sample_admissible_round_trip(sampler_cfg):
    sig = Signature(2, 2)
    rng = instance_rng(SEED, 9)
    A, spec = sample_admissible(sig, sampler_cfg, rng)
    got = check_admissible(A)
    assert np.allclose(got.lambdas, spec.lambdas, atol=1e-6)


def test_positive_subspaces_stay_positive(signature, sampler_cfg):
    rng = instance_rng(SEED, 11)
    for k in range(1, signature.p + 1):
        for _ in range(10):
            basis = sample_positive_subspace(signature, k, sampler_cfg, rng)
            assert basis.shape == (signature.n, k)
            assert subspace_in_positive_cone(basis, signature)
        rotated = sample_positive_subspace(signature, k, sampler_cfg, rng, rotate=True)
        assert subspace_in_positive_cone(rotated, signature)


def test_batched_subspaces_stay_positive_and_single_is_first_of_one(signature, sampler_cfg):
    for k in range(1, signature.p + 1):
        rng = instance_rng(SEED, 14)
        stack = sample_positive_subspace(signature, k, sampler_cfg, rng, count=50)
        assert stack.shape == (50, signature.n, k)
        for basis in stack:
            assert subspace_in_positive_cone(basis, signature)
        single = sample_positive_subspace(signature, k, sampler_cfg, instance_rng(SEED, 14))
        first = sample_positive_subspace(signature, k, sampler_cfg, instance_rng(SEED, 14), count=1)
        assert np.array_equal(single, first[0])


def test_batched_subordinate_frames_lie_in_their_levels(signature, sampler_cfg):
    idx = tuple(range(1, signature.p + 1))
    rng = instance_rng(SEED, 15)
    basis = sample_positive_subspace(signature, signature.p, sampler_cfg, rng)
    flag = PositiveFlag(signature, idx, basis)
    frames = subordinate_frame(flag, sampler_cfg, rng, count=30)
    assert frames.vectors.shape == (30, signature.n, len(idx))
    for F in frames.vectors:
        assert np.allclose(gram(F, signature), np.eye(len(idx)), atol=1e-8)
        for j, level in enumerate(flag.levels):
            coeffs, *_ = np.linalg.lstsq(level, F[:, j], rcond=None)
            assert np.linalg.norm(level @ coeffs - F[:, j]) < 1e-8


class ZeroDraws:
    """Generator stand-in whose listed standard_normal calls (1-based) return zeros."""

    def __init__(self, zero_calls, seed):
        self.rng = np.random.default_rng(seed)
        self.zero = set(zero_calls)
        self.calls = 0

    def standard_normal(self, shape):
        self.calls += 1
        out = self.rng.standard_normal(shape)
        return np.zeros(shape) if self.calls in self.zero else out


def test_subordinate_frame_redraws_a_null_vector_within_its_budget():
    sig = Signature(3, 1)
    cfg = SamplerConfig(seed=1)
    basis = sample_positive_subspace(sig, 3, cfg, instance_rng(SEED, 16))
    flag = PositiveFlag(sig, (1, 3), basis)
    # calls 3 and 4 draw the level-2 coefficients: a zero vector has a null pivot
    rng = ZeroDraws({3, 4}, SEED)
    frame = subordinate_frame(flag, cfg, rng)
    assert rng.calls == 6
    assert np.allclose(gram(frame.vectors, sig), np.eye(2), atol=1e-8)
    coeffs, *_ = np.linalg.lstsq(flag.levels[0], frame.vectors[:, 0], rcond=None)
    assert np.linalg.norm(flag.levels[0] @ coeffs - frame.vectors[:, 0]) < 1e-8
    with pytest.raises(NullDegeneracy):
        subordinate_frame(flag, SamplerConfig(max_retries=1), ZeroDraws({3, 4}, SEED))


def test_restricted_samples_sit_in_positive_cone(sampler_cfg):
    sig = Signature(2, 1)
    rng = instance_rng(SEED, 12)
    pos = np.vstack([np.eye(2), np.zeros((1, 2))]).astype(complex)
    neg = np.array([[0.0], [0.0], [1.0]], dtype=complex)
    X = restricted_cone_samples(pos, neg, 200, rng)
    for j in range(X.shape[1]):
        assert classify(X[:, j], sig).cone_class == "positive"


def test_flag_and_subordinate_frame(signature, sampler_cfg):
    if signature.p < 2:
        pytest.skip("flags with one level are exercised elsewhere")
    idx = (1, signature.p)
    rng = instance_rng(SEED, 13)
    flag, frame = sample_flag_with_subordinate(signature, idx, sampler_cfg, rng)
    assert flag.depth == 2
    assert np.allclose(gram(frame.vectors, signature), np.eye(2), atol=1e-8)
    # each frame vector must lie in its level: residual of least squares is ~0
    for j, dim in enumerate(idx):
        level = flag.levels[j]
        coeffs, *_ = np.linalg.lstsq(level, frame.vectors[:, j], rcond=None)
        assert np.linalg.norm(level @ coeffs - frame.vectors[:, j]) < 1e-8
    # subordinate vectors from nested levels still pair to zero across slots
    assert abs(pair(frame.vectors[:, 0], frame.vectors[:, 1], signature)) < 1e-8


def test_sampler_determinism_end_to_end(signature):
    cfg = SamplerConfig(seed=77)
    A1, _, _ = sample_planted(signature, cfg, instance_rng(77, 2))
    A2, _, _ = sample_planted(signature, cfg, instance_rng(77, 2))
    assert np.array_equal(A1.entries, A2.entries)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(gap_min=-0.1)
    with pytest.raises(ValueError):
        SamplerConfig(value_range=(2.0, -2.0))
    with pytest.raises(ValueError):
        SamplerConfig(contraction_cap=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(cond_cap=0.5)
