import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinval import (
    RetriesExhausted,
    SamplerConfig,
    Signature,
    check_admissible,
    cli,
    instance_rng,
    pseudo_hermitian_residual,
    pseudo_unitary_residual,
    sample_planted,
    sample_pseudo_unitary,
    sample_spectrum,
    sampling,
)
from kreinval.cli import SuiteConfig, run_instance
from kreinval.core import PseudoUnitary
from kreinval.errors import NonFiniteValue
from kreinval.geometry import gram
from kreinval.sampling import _expm

from conftest import (
    CONTRACTION_CAP,
    TOL_CONE,
    all_tuples,
    complex_normal,
    cone_class,
    cone_margin,
    positive_flag,
    restricted_cone_samples,
    sample_planted_by_blocks,
    sample_positive_subspace,
    subordinate_coordinates,
    subordinate_frames,
    subordinate_layout,
)

SEED = 808


def lie_algebra_element(sig, cfg, rng):
    """One generator draw from the stream, assembled as a stack of one."""
    normals = np.empty((1, sampling._draw_size(sig, cfg)))
    t = sampling._generator_draw(sig, cfg, rng, normals[0])
    return sampling._lie_algebra_elements(sig, cfg, normals, [t])[0]


def expm(X):
    """``_expm`` of one matrix, as a stack of one."""
    return _expm(X[None])[0]


def test_instance_rng_is_reproducible():
    a = instance_rng(SEED, 3).standard_normal(8)
    b = instance_rng(SEED, 3).standard_normal(8)
    c = instance_rng(SEED, 4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_a_seed_past_64_bits_does_not_alias_a_smaller_one():
    """The seed is SeedSequence entropy as given: 2^64 and 0 are different streams, and 2^64 - 1 is its own."""
    draws = [instance_rng(seed, 0).standard_normal(4) for seed in (0, 2**64, 2**64 - 1)]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])


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
    # rotation; pins down the exp-map convention of the sampler's kernel
    sig = Signature(1, 1)
    for t in (0.25, 1.0, 2.0, 8.0):
        gen = np.array([[0.0, t], [t, 0.0]], dtype=complex)
        U = expm(gen)
        expected = np.array(
            [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex
        )
        assert np.allclose(U, expected, rtol=1e-13, atol=1e-13)
        # t = 8 passes theta_13, so it is squared once; its residual scales with ||U||^2
        assert pseudo_unitary_residual(U, sig) < (1e-12 if t <= 2.0 else 1e-15 * np.cosh(t) ** 2)


ORACLE_SIGNATURES = [(1, 0), (0, 2), (2, 1), (3, 2), (4, 3), (5, 3), (6, 4), (8, 6)]


@pytest.mark.parametrize("boost", [0.0, 1.0, 50.0])
def test_expm_matches_the_scipy_oracle_on_sampled_generators(boost):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    scaled = 0
    for p, q in ORACLE_SIGNATURES:
        sig = Signature(p, q)
        cfg = SamplerConfig(boost_scale=boost)
        for idx in range(8):
            gen = lie_algebra_element(sig, cfg, instance_rng(SEED, idx))
            scaled += np.abs(gen).sum(axis=0).max() > sampling._THETA_13
            U, ref = expm(gen), scipy_linalg.expm(gen)
            assert np.linalg.norm(U - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)
            size = max(1.0, np.linalg.norm(U, 2) ** 2)
            assert pseudo_unitary_residual(U, sig) <= 1e-12 * size
    # every boost reaches the squaring phase: the larger signatures pass theta_13 unboosted
    assert scaled > 0


def test_expm_of_zero_is_exactly_the_identity():
    for n in (1, 2, 3, 7, 14):
        assert np.array_equal(expm(np.zeros((n, n), dtype=complex)), np.eye(n))


def test_expm_of_a_generator_without_a_finite_norm_is_nan_and_rejected():
    """No exponential: the member comes back NaN, beside a member that keeps its bytes, and no draw accepts it."""
    sig = Signature(2, 1)
    good = lie_algebra_element(sig, SamplerConfig(), instance_rng(SEED, 0))
    for bad in (np.inf, np.nan, 1e308):
        gen = np.full((3, 3), bad, dtype=complex)
        with np.errstate(over="ignore"):
            got = _expm(np.stack([gen, good]))
        assert np.isnan(got[0]).all()
        assert got[1].tobytes() == expm(good).tobytes()
        with pytest.raises(NonFiniteValue):
            PseudoUnitary(sig, got[0])


def _draw_outcome(sig, cfg, seed, idx):
    try:
        return sample_pseudo_unitary(sig, cfg, instance_rng(seed, idx)).cond
    except Exception as exc:  # the outcome is the exception type
        return type(exc)


@pytest.mark.parametrize("boost", [50.0, 1e3, 1.7e308])
def test_huge_boosts_end_as_they_did_with_the_scipy_exponential(boost, monkeypatch):
    # an overflowing draw is a failed draw: the retry loop goes on, and a run
    # of them ends in RetriesExhausted, never in OverflowError or a warning
    scipy_linalg = pytest.importorskip("scipy.linalg")
    got, ref = [], []
    cfg = SamplerConfig(boost_scale=boost)
    for p, q in ((1, 1), (2, 1), (3, 2), (4, 3)):
        sig = Signature(p, q)
        for seed in (0, 1):
            for idx in range(8):
                got.append(_draw_outcome(sig, cfg, seed, idx))
                with monkeypatch.context() as m:
                    m.setattr(sampling, "_expm", scipy_linalg.expm)
                    ref.append(_draw_outcome(sig, cfg, seed, idx))
    for a, b in zip(got, ref):
        if isinstance(b, float):
            assert a == pytest.approx(b, rel=1e-9)
        else:
            assert a is b is RetriesExhausted
    succeeded = sum(isinstance(a, float) for a in got)
    expected = {50.0: len(got), 1e3: 17, 1.7e308: 0}[boost]
    assert succeeded == expected


def test_condition_number_is_numpys_bit_for_bit(signature):
    for boost in (1.0, 50.0):
        cfg = SamplerConfig(boost_scale=boost)
        for idx in range(10):
            U = sample_pseudo_unitary(signature, cfg, instance_rng(SEED, idx))
            assert U.cond == np.linalg.cond(U.entries, 2)


def _lie_algebra_element_by_norm(sig, cfg, rng):
    """The generator with the coupling norm taken by np.linalg.norm, an oracle."""
    p, q = sig.p, sig.q
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
        zn = np.linalg.norm(Z, 2)
        assert np.linalg.svd(Z, compute_uv=False)[0] == zn
        gen[:p, p:] = Z * (t / zn)
        gen[p:, :p] = gen[:p, p:].conj().T
    return gen


@pytest.mark.parametrize("pq", ORACLE_SIGNATURES)
def test_the_generator_is_the_norm_oracles_bit_for_bit(pq):
    sig, cfg = Signature(*pq), SamplerConfig(boost_scale=3.0)
    for idx in range(10):
        got = lie_algebra_element(sig, cfg, instance_rng(SEED, idx))
        assert np.array_equal(got, _lie_algebra_element_by_norm(sig, cfg, instance_rng(SEED, idx)))


BLOCK_ORACLE_SIGNATURES = [(1, 0), (0, 2), (1, 4), (2, 1), (3, 2), (4, 3), (5, 3), (6, 4)]


def _planted_bytes(sample, sig, cfg, idx):
    """The bytes of A, its spectrum, U, cond(U) and A's shift hint that ``sample`` draws, or None when
    it runs out of retries; and the stream's state after the call."""
    rng = instance_rng(SEED, idx)
    try:
        A, spectrum, U = sample(sig, cfg, rng)
    except RetriesExhausted:
        drawn = None
    else:
        drawn = [arr.tobytes() for arr in (A.entries, spectrum.lambdas, spectrum.mus, U.entries)]
        drawn += [np.float64(x).tobytes() for x in (U.cond, A.shift_hint)]
    return drawn, rng.bit_generator.state


@pytest.mark.parametrize(
    "boost, cond_cap, generators, exhausted",
    [
        (0.0, 1e4, 80, 0),  # no coupling: neither Z nor t is drawn
        (1.0, 1e4, 80, 0),
        (3.0, 1e4, 80, 0),
        (3.0, 50.0, 102, 0),  # ill-conditioned draws are drawn again
        (1e3, 1e4, 3410, 45),  # draws overflow, and some matrices run out of retries
    ],
)
def test_the_one_pass_draw_is_the_block_oracles_byte_for_byte(boost, cond_cap, generators, exhausted, monkeypatch):
    """A, its spectrum, U, cond(U) and the stream left behind equal those of the block-by-block sampler."""
    cfg = SamplerConfig(boost_scale=boost, cond_cap=cond_cap)
    drawn = []
    draw = sampling._generator_draw
    monkeypatch.setattr(sampling, "_generator_draw", lambda *args: drawn.append(1) or draw(*args))
    misses = 0
    for pq in BLOCK_ORACLE_SIGNATURES:
        sig = Signature(*pq)
        for idx in range(10):
            got = _planted_bytes(sample_planted, sig, cfg, idx)
            assert got == _planted_bytes(sample_planted_by_blocks, sig, cfg, idx), (pq, idx)
            misses += got[0] is None
    assert (len(drawn), misses) == (generators, exhausted)


def test_instances_are_the_block_oracles(monkeypatch, fresh_memos):
    """Every suite reports the same with the block-by-block sampler in place of the sampler's two entries.

    A single draw becomes one oracle draw and the pair draw two of them in
    turn, and the count of oracle draws shows that both entries were
    replaced.
    """
    oracle_draws = []

    def by_blocks(*args):
        oracle_draws.append(1)
        return sample_planted_by_blocks(*args)

    cases = 0
    for p, q in ((1, 0), (0, 2), (1, 4), (2, 1), (3, 2), (4, 3)):
        for boost in (1.0, 3.0):
            for suites in (cli.SUITES, ("courant_fischer", "ky_fan", "wielandt")):
                cfg = SuiteConfig(p=p, q=q, seed=SEED, boost_scale=boost, suites=suites)
                for index in range(2):
                    got = [r.to_dict() for r in run_instance(cfg, index)]
                    with monkeypatch.context() as m:
                        m.setattr(cli, "sample_planted", by_blocks)
                        m.setattr(cli, "sample_planted_pair", lambda *args: (by_blocks(*args), by_blocks(*args)))
                        assert [r.to_dict() for r in run_instance(cfg, index)] == got, (p, q, boost, index)
                    cases += 1
    assert len(oracle_draws) == cases * 3 // 2  # two per pair instance and one per variational one


def _pair_bytes(sig, cfg, idx, pair):
    """The bytes of A and B (as ``_planted_bytes``) that ``pair`` draws, or None when it runs out of retries;
    the stream's state after the call; and how many generator draws each of the two took, drawn alone."""
    rng = instance_rng(SEED, idx)
    try:
        drawn = pair(sig, cfg, rng)
    except RetriesExhausted:
        got = None
    else:
        got = []
        for A, spectrum, U in drawn:
            got += [arr.tobytes() for arr in (A.entries, spectrum.lambdas, spectrum.mus, U.entries)]
            got += [np.float64(x).tobytes() for x in (U.cond, A.shift_hint)]
    return got, rng.bit_generator.state


@pytest.mark.parametrize(
    "boost, cond_cap, rewound, continued, exhausted",
    [
        (0.0, 1e4, 0, 0, 0),
        (1.0, 1e4, 0, 0, 0),
        (3.0, 1e4, 0, 0, 0),
        (3.0, 50.0, 15, 10, 0),  # A's or B's first draw is ill-conditioned
        (1e3, 1e4, 60, 0, 55),  # draws overflow, and most pairs run out of retries
    ],
)
def test_the_pair_draw_is_two_sequential_draws_byte_for_byte(boost, cond_cap, rewound, continued, exhausted, monkeypatch):
    """A, B, their spectra, conjugators, cond and hints, and the stream left behind, equal two ``sample_planted`` calls.

    ``rewound`` counts the pairs whose first draw of A was rejected, so
    that the stream went back to A's draw; ``continued`` those where only
    B's first draw was rejected; ``exhausted`` those that raised
    RetriesExhausted, for A or for B.
    """
    cfg = SamplerConfig(boost_scale=boost, cond_cap=cond_cap)
    draws = []
    draw = sampling._generator_draw
    monkeypatch.setattr(sampling, "_generator_draw", lambda *args: draws.append(1) or draw(*args))

    def sequential(sig, cfg, rng):
        counts = []
        try:
            for _ in range(2):
                draws.clear()
                yield sample_planted(sig, cfg, rng)
                counts.append(len(draws))
        finally:
            tallies.append(counts + [len(draws)] * (2 - len(counts)))

    counts = {"rewound": 0, "continued": 0, "exhausted": 0}
    for pq in BLOCK_ORACLE_SIGNATURES:
        sig = Signature(*pq)
        for idx in range(10):
            tallies = []
            want = _pair_bytes(sig, cfg, idx, lambda *args: tuple(sequential(*args)))
            assert _pair_bytes(sig, cfg, idx, sampling.sample_planted_pair) == want, (pq, idx)
            (a_draws, b_draws), = tallies
            counts["rewound"] += a_draws > 1
            counts["continued"] += a_draws == 1 and b_draws > 1
            counts["exhausted"] += want[0] is None
    assert counts == {"rewound": rewound, "continued": continued, "exhausted": exhausted}


generator_stacks = st.lists(
    st.tuples(st.integers(0, 2**16), st.sampled_from([0.0, 1.0, 3.0, 50.0, 1e3, 1e300, "inf", "nan"])),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(members=generator_stacks, pq=st.sampled_from(BLOCK_ORACLE_SIGNATURES[3:]))
def test_the_stacked_expm_is_each_members_expm_byte_for_byte(members, pq):
    """One ``_expm`` of a stack gives each member the bytes of its own, whatever the other members are.

    Boosts from 0 to 1e300 mix scaling exponents from 0 to past 1000 in one
    stack, so some members overflow while squaring; "inf" and "nan" members
    have no finite norm and come back NaN.
    """
    sig = Signature(*pq)
    gens = []
    for seed, boost in members:
        if isinstance(boost, str):
            gens.append(np.full((sig.n, sig.n), float(boost), dtype=complex))
        else:
            gens.append(lie_algebra_element(sig, SamplerConfig(boost_scale=boost), instance_rng(seed, 0)))
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = _expm(np.stack(gens))
        alone = [_expm(gen[None])[0] for gen in gens]
    for got, want in zip(stacked, alone):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pq", [(3, 2), (5, 3)])
def test_a_pair_instance_makes_one_expm_solve_one_cond_svd_and_one_cholesky(pq, monkeypatch, fresh_memos):
    """A and B share one ``_expm`` (one solve), one coupling-norm SVD and one cond SVD; A, B and A + B one Cholesky."""
    p, q = pq
    n = p + q
    calls = {name: [] for name in ("solve", "svd", "cholesky", "eigvalsh", "eigvals")}
    for name, log in calls.items():
        def counted(a, *args, _log=log, _solver=getattr(np.linalg, name), **kwargs):
            _log.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    reports = run_instance(SuiteConfig(p=p, q=q, seed=0, suites=("structural", "trace", "weyl", "lidskii")), 0)
    assert all(r.passed for r in reports)
    assert calls == {
        "solve": [(2, n, n)],
        "svd": [(2, p, q), (2, n, n)],  # the coupling norms, then cond(U)
        "cholesky": [(3, n, n)],
        "eigvalsh": [(3, n, n), (n, n)],  # the three spectra, then the structural suite's shift margin
        "eigvals": [],
    }


def test_sampled_conjugators_are_pseudo_unitary(signature, sampler_cfg):
    for idx in range(10):
        rng = instance_rng(SEED, idx)
        U = sample_pseudo_unitary(signature, sampler_cfg, rng)
        assert pseudo_unitary_residual(U.entries, signature) < 1e-9
        assert U.cond <= sampler_cfg.cond_cap


def test_the_retry_budget_is_max_retries_draws(monkeypatch):
    drawn = []
    draw = sampling._generator_draw
    monkeypatch.setattr(sampling, "_generator_draw", lambda *args: drawn.append(1) or draw(*args))
    # cond_cap just above 1 leaves the sampler no acceptable draw
    with pytest.raises(RetriesExhausted, match=f"in {sampling.MAX_RETRIES} draws"):
        sample_pseudo_unitary(Signature(2, 1), SamplerConfig(cond_cap=1.0001), instance_rng(SEED, 0))
    assert len(drawn) == sampling.MAX_RETRIES == 64


def test_cone_preservation_under_sampled_conjugators(signature, sampler_cfg):
    rng = instance_rng(SEED, 5)
    U = sample_pseudo_unitary(signature, sampler_cfg, rng)
    for _ in range(20):
        x = np.zeros(signature.n, dtype=complex)
        x[: signature.p] = rng.standard_normal(signature.p)
        if cone_class(x, signature) != "positive":
            continue
        assert cone_class(U.entries @ x, signature) == "positive"


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
    A, spec, _ = sample_planted(sig, sampler_cfg, rng)
    got = check_admissible(A)
    assert np.allclose(got.lambdas, spec.lambdas, atol=1e-6)


def test_positive_subspaces_stay_positive(signature, sampler_cfg):
    rng = instance_rng(SEED, 11)
    for k in range(1, signature.p + 1):
        for _ in range(10):
            basis = sample_positive_subspace(signature, k, rng)
            assert basis.shape == (signature.n, k)
            assert cone_margin(basis, signature) >= TOL_CONE


def test_batched_subspaces_stay_positive_and_single_is_first_of_one(signature, sampler_cfg):
    for k in range(1, signature.p + 1):
        rng = instance_rng(SEED, 14)
        stack = sample_positive_subspace(signature, k, rng, count=50)
        assert stack.shape == (50, signature.n, k)
        assert np.all(cone_margin(stack, signature) >= TOL_CONE)
        single = sample_positive_subspace(signature, k, instance_rng(SEED, 14))
        first = sample_positive_subspace(signature, k, instance_rng(SEED, 14), count=1)
        assert np.array_equal(single, first[0])


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(1, 6),
    q=st.integers(0, 4),
    cap=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5),
    data=st.data(),
)
def test_graph_subspaces_are_positive_by_construction(p, q, cap, seed, count, data):
    """||K|| <= cap < 1 gives the paired Gram I - Q* K* K Q >= (1 - cap^2) I, with no runtime check."""
    sig = Signature(p, q)
    k = data.draw(st.integers(1, p))
    stack = sample_positive_subspace(sig, k, np.random.default_rng(seed), count=count, cap=cap)
    assert np.all(np.linalg.eigvalsh(gram(stack, sig))[:, 0] >= 1.0 - cap**2 - 1e-12)


@pytest.mark.parametrize("pq", [(2, 1), (3, 2), (4, 3), (6, 4), (8, 6), (1, 3), (2, 5)], ids=str)
def test_the_contraction_has_the_norm_it_was_drawn_with(pq):
    """With k = p the isometry Q is unitary, so ||K Q||_2 is the drawn cap; an SVD is the oracle.

    The sampler takes ||K||_2 from eigvalsh of the smaller Gram, K K* or K* K;
    both orientations are covered (q < p and q > p).
    """
    sig, count = Signature(*pq), 200
    stack = sample_positive_subspace(sig, sig.p, np.random.default_rng(SEED), count=count)
    replay = np.random.default_rng(SEED)
    replay.standard_normal((2, count, sig.p, sig.p))  # Q's real and imaginary parts
    replay.standard_normal((2, count, sig.q, sig.p))  # K's
    caps = replay.uniform(0.0, CONTRACTION_CAP, count)
    norms = np.linalg.norm(stack[:, sig.p :, :], 2, axis=(-2, -1))
    assert np.max(np.abs(norms - caps) / caps) <= 1e-14


def test_batched_subordinate_frames_lie_in_their_levels(signature, sampler_cfg):
    """One draw for every tuple: groups of equal shape cover the tuples once, in order of first appearance."""
    rng = instance_rng(SEED, 15)
    basis = sample_positive_subspace(signature, signature.p, rng)
    tuples = all_tuples(signature.p)
    tuples = tuples + tuples[::-2]  # duplicates, out of order
    groups = subordinate_coordinates(tuples, rng, 30)
    positions = [t for group, _ in groups for t in group]
    assert sorted(positions) == list(range(len(tuples)))
    assert [group[0] for group, _ in groups] == sorted(group[0] for group, _ in groups)
    for group, coords in groups:
        for g, t in enumerate(group):
            idx = tuples[t]
            flag = positive_flag(signature, idx, basis)
            C = coords[:, g]
            m = len(idx)
            assert C.shape == (30, idx[-1], m)
            assert np.allclose(C.conj().swapaxes(-1, -2) @ C, np.eye(m), atol=1e-12)
            for j, dim in enumerate(idx):
                assert np.all(C[:, dim:, j] == 0), (idx, j)  # zero below row idx[j]
            for F in flag.frame @ C:
                assert np.allclose(gram(F, signature), np.eye(m), atol=1e-8)
                for j, level in enumerate(flag.levels):
                    coeffs, *_ = np.linalg.lstsq(level, F[:, j], rcond=None)
                    assert np.linalg.norm(level @ coeffs - F[:, j]) < 1e-8
    ((group, empty),) = subordinate_coordinates([idx], rng, 0)
    assert group == [0] and empty.shape == (0, 1, idx[-1], len(idx))
    assert subordinate_coordinates([], rng, 30) == []


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 8])
def test_gram_schmidt_frames_lie_in_their_levels(p):
    """The batched draw gives orthonormal coordinates, zero below each level and in padded columns.

    Column by column they are the oracle's Householder coordinates on the
    same draw, up to a unit phase: both orthonormalize the same nested
    columns.  Every tuple, 255 at p = 8, with duplicate and unordered ones.
    """
    tuples = all_tuples(p)
    tuples = tuples + tuples[::-3]
    layout = subordinate_layout(tuples)
    C = subordinate_frames(layout, instance_rng(SEED, 17), 7)
    assert C.shape == (max(t[-1] for t in tuples), max(map(len, tuples)), len(tuples), 7)
    assert sorted(layout.order) == list(range(len(tuples)))
    oracle = subordinate_coordinates(tuples, instance_rng(SEED, 17), 7)
    want = {t: coords[:, g] for group, coords in oracle for g, t in enumerate(group)}
    for j, start in enumerate(layout.starts):  # column j runs over the tuples with more than j columns
        assert [len(tuples[t]) > j for t in layout.order] == [s >= start for s in range(len(tuples))]
    for s, t in enumerate(layout.order):
        idx, m = tuples[t], len(tuples[t])
        Q = np.moveaxis(C[:, :, s], -1, 0)  # (count, rows, cols)
        for j, dim in enumerate(idx):
            assert np.all(Q[:, dim:, j] == 0), (idx, j)
        assert np.all(Q[:, :, m:] == 0), idx
        Q = Q[:, : idx[-1], :m]
        assert np.max(np.abs(Q.conj().swapaxes(-1, -2) @ Q - np.eye(m))) <= 1e-13, idx
        overlap = np.abs(np.sum(Q.conj() * want[t], axis=-2))
        assert np.max(np.abs(overlap - 1.0)) <= 1e-12, idx


def test_restricted_samples_sit_in_positive_cone(sampler_cfg):
    sig = Signature(2, 1)
    rng = instance_rng(SEED, 12)
    pos = np.vstack([np.eye(2), np.zeros((1, 2))]).astype(complex)
    neg = np.array([[0.0], [0.0], [1.0]], dtype=complex)
    X = restricted_cone_samples(pos, neg, 200, rng)
    for j in range(X.shape[1]):
        assert cone_class(X[:, j], sig) == "positive"


def test_flag_and_subordinate_frame(signature, sampler_cfg):
    if signature.p < 2:
        pytest.skip("flags with one level are exercised elsewhere")
    idx = (1, signature.p)
    rng = instance_rng(SEED, 13)
    flag = positive_flag(signature, idx, sample_positive_subspace(signature, idx[-1], rng))
    ((_, coords),) = subordinate_coordinates([idx], rng, 1)
    frame = flag.frame @ coords[0, 0]
    assert flag.depth == 2
    assert np.allclose(gram(frame, signature), np.eye(2), atol=1e-8)
    # each frame vector must lie in its level: residual of least squares is ~0
    for j, dim in enumerate(idx):
        level = flag.levels[j]
        coeffs, *_ = np.linalg.lstsq(level, frame[:, j], rcond=None)
        assert np.linalg.norm(level @ coeffs - frame[:, j]) < 1e-8
    # subordinate vectors from nested levels still pair to zero across slots
    assert abs(gram(frame, signature)[1, 0]) < 1e-8


def test_sampler_determinism_end_to_end(signature):
    cfg = SamplerConfig()
    A1, _, _ = sample_planted(signature, cfg, instance_rng(77, 2))
    A2, _, _ = sample_planted(signature, cfg, instance_rng(77, 2))
    assert np.array_equal(A1.entries, A2.entries)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(gap_min=-0.1)
    with pytest.raises(ValueError):
        SamplerConfig(value_range=(2.0, -2.0))
    with pytest.raises(TypeError):  # positive subspaces are drawn in the tests, with their own cap
        SamplerConfig(contraction_cap=0.5)
    for gone in ("seed", "max_retries"):  # instance_rng seeds every draw; the retry budget is MAX_RETRIES
        with pytest.raises(TypeError):
            SamplerConfig(**{gone: 1})
    for cap in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="contraction cap"):
            sample_positive_subspace(Signature(2, 1), 1, np.random.default_rng(SEED), cap=cap)
    with pytest.raises(ValueError):
        SamplerConfig(cond_cap=0.5)
    for bad in ({"gap_min": np.inf}, {"gap_min": np.nan}, {"value_range": (-np.inf, 0.0)},
                {"value_range": (-1e308, 1e308)}, {"boost_scale": np.inf}, {"cond_cap": np.nan}):
        with pytest.raises(ValueError):
            SamplerConfig(**bad)
