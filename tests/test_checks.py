import itertools

import numpy as np
import pytest

from kreinval import (
    AdmissibleSpectrum,
    PseudoHermitianMatrix,
    PseudoUnitary,
    Signature,
    canonical_diagonal,
    check_courant_fischer,
    check_ky_fan,
    check_lidskii_wielandt,
    check_thompson_freede,
    check_trace_identity,
    check_weyl,
    check_wielandt_flag,
    conjugate,
    instance_rng,
    sample_planted,
)
from kreinval.checks import (
    _inadmissible_sum_report,
    lambda_index_tuples,
    make_case,
    matrix_sum,
    thompson_freede_pairs,
)
from kreinval.errors import GapViolation

SEED = 2211


def boosted_pair(t):
    """diag(1,-1) plus its conjugate by a hyperbolic rotation of angle t."""
    sig = Signature(1, 1)
    A = PseudoHermitianMatrix(sig, np.diag([1.0, -1.0]).astype(complex))
    U = PseudoUnitary(
        sig, np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex)
    )
    return A, conjugate(A, U)


def sampled_pair(sig, idx, cfg):
    rng = instance_rng(SEED, idx)
    A, _, _ = sample_planted(sig, cfg, rng)
    B, _, _ = sample_planted(sig, cfg, rng)
    return A, B, rng


def test_case_margin_semantics():
    good = make_case("x", (), 1.0, 0.5, 0.5, 1e-8)
    bad = make_case("x", (), 0.5, 1.0, -0.5, 1e-8)
    grazing = make_case("x", (), 1.0, 1.0, -1e-9, 1e-8)
    assert good.passed and not bad.passed and grazing.passed


def test_index_tuple_enumeration():
    assert lambda_index_tuples(2) == [(1,), (2,), (1, 2)]
    assert len(lambda_index_tuples(4)) == 15  # every nonempty subset
    subset = lambda_index_tuples(6, rng=np.random.default_rng(0), limit=10)
    assert len(subset) == 10
    assert all(all(a < b for a, b in zip(t, t[1:])) for t in subset)


def test_enumeration_whenever_the_count_fits_the_limit():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    tuples = lambda_index_tuples(5, rng=rng)
    expected = [t for m in range(1, 6) for t in itertools.combinations(range(1, 6), m)]
    assert tuples == expected and len(tuples) == 31
    pairs = thompson_freede_pairs(5, rng=rng)
    brute = sorted(
        (i, j)
        for m in range(1, 6)
        for i in itertools.combinations(range(1, 6), m)
        for j in itertools.combinations(range(1, 6), m)
        if i[-1] + j[-1] <= m + 5
    )
    assert sorted(pairs) == brute and len(pairs) == 88
    assert rng.bit_generator.state == state
    # 232 pairs exist at p = 6, more than the limit, so a subset is sampled
    sampled = thompson_freede_pairs(6, rng=rng)
    assert len(sampled) == 200 and len(set(sampled)) == 200
    assert all(i[-1] + j[-1] <= len(i) + 6 for i, j in sampled)


def test_thompson_freede_pair_constraint():
    for i, j in thompson_freede_pairs(3):
        m = len(i)
        assert len(j) == m
        assert i[-1] + j[-1] <= m + 3


def test_sum_of_boosted_pair_is_hyperbolic_cosine():
    # eigenvalues of diag(1,-1) + boost-conjugated diag(1,-1) are +-2cosh(t)
    t = 0.8
    A, B = boosted_pair(t)
    from kreinval import check_admissible

    spec = check_admissible(matrix_sum(A, B))
    assert spec.lambdas[0] == pytest.approx(2 * np.cosh(t), abs=1e-10)
    assert spec.mus[0] == pytest.approx(-2 * np.cosh(t), abs=1e-10)


def test_weyl_margin_on_boosted_pair():
    t = 0.5
    A, B = boosted_pair(t)
    report = check_weyl(A, B)
    assert report.passed
    by_id = {c.case_id: c for c in report.cases}
    assert by_id["lambda:1"].margin == pytest.approx(2 * np.cosh(t) - 2, abs=1e-10)
    assert by_id["mu:1"].margin == pytest.approx(2 * np.cosh(t) - 2, abs=1e-10)


def test_trace_identity_exact_for_diagonals():
    sig = Signature(2, 1)
    A = canonical_diagonal(AdmissibleSpectrum(sig, np.array([1.0, 2.0]), np.array([0.0])))
    B = canonical_diagonal(AdmissibleSpectrum(sig, np.array([0.5, 0.5]), np.array([-1.0])))
    report = check_trace_identity(A, B)
    assert report.passed
    assert report.worst_margin >= -1e-14


def test_lidskii_equality_for_commuting_diagonals():
    sig = Signature(3, 1)
    A = canonical_diagonal(AdmissibleSpectrum(sig, np.array([1.0, 2.0, 4.0]), np.array([0.0])))
    B = canonical_diagonal(AdmissibleSpectrum(sig, np.array([0.5, 1.0, 3.0]), np.array([-2.0])))
    report = check_lidskii_wielandt(A, B)
    assert report.passed
    by_id = {c.case_id: c for c in report.cases}
    # aligned bottom tuples are tight for simultaneously diagonal matrices
    assert by_id["lambda:1"].margin == pytest.approx(0.0, abs=1e-12)
    assert by_id["lambda:1,2"].margin == pytest.approx(0.0, abs=1e-12)
    assert by_id["lambda:1,2,3"].margin == pytest.approx(0.0, abs=1e-12)
    # a shifted tuple picks up the spread of B's spectrum
    assert by_id["lambda:2"].margin == pytest.approx(0.5, abs=1e-12)


def test_thompson_freede_m1_matches_weyl(sampler_cfg):
    sig = Signature(2, 1)
    A, B, _ = sampled_pair(sig, 0, sampler_cfg)
    weyl = {c.case_id: c for c in check_weyl(A, B).cases}
    tf = {c.case_id: c for c in check_thompson_freede(A, B).cases}
    # i = (k,), j = (1,) reduces the shifted-tuple bound to the Weyl bound
    for k in (1, 2):
        assert tf[f"i={k};j=1"].lhs == pytest.approx(weyl[f"lambda:{k}"].lhs, abs=1e-12)
        assert tf[f"i={k};j=1"].margin == pytest.approx(weyl[f"lambda:{k}"].margin, abs=1e-10)


def test_lidskii_m1_matches_weyl(sampler_cfg):
    sig = Signature(2, 2)
    A, B, _ = sampled_pair(sig, 1, sampler_cfg)
    weyl = {c.case_id: c for c in check_weyl(A, B).cases}
    lw = {c.case_id: c for c in check_lidskii_wielandt(A, B).cases}
    for k in range(1, sig.p + 1):
        assert lw[f"lambda:{k}"].margin == weyl[f"lambda:{k}"].margin
    for l in range(1, sig.q + 1):
        assert lw[f"mu:{l}"].margin == weyl[f"mu:{l}"].margin


def test_inequalities_hold_on_sampled_pairs(signature, sampler_cfg):
    for idx in range(8):
        A, B, rng = sampled_pair(signature, idx, sampler_cfg)
        assert check_weyl(A, B).passed
        assert check_lidskii_wielandt(A, B, rng=rng).passed
        assert check_thompson_freede(A, B, rng=rng).passed
        assert check_trace_identity(A, B).passed


def test_inequalities_are_shift_covariant(sampler_cfg):
    sig = Signature(2, 1)
    A, B, rng = sampled_pair(sig, 3, sampler_cfg)
    shift = 2.5
    shifted = PseudoHermitianMatrix(sig, A.entries + shift * np.eye(sig.n), tol=A.tol)
    r0 = check_weyl(A, B)
    r1 = check_weyl(shifted, B)
    m0 = {c.case_id: c.margin for c in r0.cases}
    m1 = {c.case_id: c.margin for c in r1.cases}
    for k in m0:
        assert m1[k] == pytest.approx(m0[k], abs=1e-8)


def test_courant_fischer_and_ky_fan(signature, sampler_cfg):
    rng = instance_rng(SEED, 21)
    A, _, _ = sample_planted(signature, sampler_cfg, rng)
    cf = check_courant_fischer(A, 60, cfg=sampler_cfg, rng=rng)
    assert cf.passed
    witness = [c for c in cf.cases if c.case_id.startswith("minmax_witness")]
    assert all(c.margin >= -1e-9 for c in witness)
    for k in range(1, signature.p + 1):
        kf = check_ky_fan(A, k, 40, cfg=sampler_cfg, rng=rng)
        assert kf.passed


def test_ky_fan_witness_is_tight(sampler_cfg):
    sig = Signature(3, 1)
    rng = instance_rng(SEED, 22)
    A, spec, _ = sample_planted(sig, sampler_cfg, rng)
    report = check_ky_fan(A, 2, 30, cfg=sampler_cfg, rng=rng)
    by_id = {c.case_id: c for c in report.cases}
    assert by_id["partial_sum_witness:2"].rhs == pytest.approx(
        spec.lambdas[0] + spec.lambdas[1], abs=1e-7
    )


def test_wielandt_full_tuple_matches_ky_fan_target(sampler_cfg):
    sig = Signature(2, 1)
    rng = instance_rng(SEED, 23)
    A, spec, _ = sample_planted(sig, sampler_cfg, rng)
    report = check_wielandt_flag(A, (1, 2), n_flags=8, n_tuples=4, cfg=sampler_cfg, rng=rng)
    assert report.passed
    by_id = {c.case_id: c for c in report.cases}
    assert by_id["eigenflag_witness"].rhs == pytest.approx(np.sum(spec.lambdas), abs=1e-7)
    assert "interlace_min" in by_id
    assert report.soft_rate is None or report.soft_rate >= 0.5


def test_wielandt_single_index(sampler_cfg):
    sig = Signature(2, 2)
    rng = instance_rng(SEED, 24)
    A, _, _ = sample_planted(sig, sampler_cfg, rng)
    report = check_wielandt_flag(A, (2,), n_flags=6, n_tuples=4, cfg=sampler_cfg, rng=rng)
    assert report.passed


def test_hermitian_degeneration_of_inequalities(sampler_cfg):
    sig = Signature(3, 0)
    A, B, rng = sampled_pair(sig, 5, sampler_cfg)
    assert np.allclose(A.entries, A.entries.conj().T)
    assert check_weyl(A, B).passed
    assert check_lidskii_wielandt(A, B, rng=rng).passed
    report = check_courant_fischer(A, 40, cfg=sampler_cfg, rng=rng)
    assert report.passed


def test_inadmissible_sum_report_is_loud():
    sig = Signature(1, 1)
    report = _inadmissible_sum_report("weyl", sig, {}, 1e-8, GapViolation("gap closed"))
    assert not report.passed
    assert report.cases[0].margin == -1.0
    assert any("sum_not_admissible" in note for note in report.notes)


def test_report_serialization_round_trip(sampler_cfg):
    import json

    sig = Signature(2, 1)
    A, B, _ = sampled_pair(sig, 7, sampler_cfg)
    report = check_weyl(A, B)
    doc = report.to_dict()
    clone = json.loads(json.dumps(doc))
    assert clone["check_name"] == "weyl"
    assert len(clone["cases"]) == sig.p + sig.q
    assert clone["passed"] is True
