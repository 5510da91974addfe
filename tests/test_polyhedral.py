import numpy as np
import pytest

from kreinval import (
    AdmissibleSpectrum,
    PseudoHermitianMatrix,
    PseudoUnitary,
    Signature,
    SizeCapExceeded,
    build_region,
    check_diag_membership,
    check_sum_membership,
    conjugate,
    instance_rng,
    lp_feasible,
    sample_planted,
)
from kreinval import checks
from kreinval.checks import make_case, matrix_sum
from kreinval.errors import GapViolation
from kreinval.simplex import CyclingGuard, phase_one_feasible

SEED = 333


def region_11(lam=2.0, mu=0.0):
    sig = Signature(1, 1)
    return build_region(AdmissibleSpectrum(sig, np.array([lam]), np.array([mu])))


class TestPhaseOne:
    def test_feasible_system(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        res = phase_one_feasible(A, b)
        assert res.feasible
        assert np.allclose(A @ res.x, b, atol=1e-9)
        assert np.all(res.x >= -1e-12)

    def test_infeasible_system(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        res = phase_one_feasible(A, b)
        assert not res.feasible
        assert res.objective > 0.4

    def test_negative_rhs_is_flipped(self):
        A = np.array([[1.0, -1.0]])
        b = np.array([-2.0])
        res = phase_one_feasible(A, b)
        assert res.feasible
        assert np.allclose(A @ res.x, b)

    def test_zero_rhs(self):
        A = np.array([[1.0, 2.0]])
        res = phase_one_feasible(A, np.zeros(1))
        assert res.feasible
        assert np.allclose(res.x, 0.0)

    def test_degenerate_ties_terminate(self):
        # many identical columns force repeated ratio ties; Bland's rule
        # must still terminate
        rng = np.random.default_rng(SEED)
        A = np.repeat(rng.standard_normal((3, 2)), 4, axis=1)
        x_true = np.abs(rng.standard_normal(8))
        b = A @ x_true
        res = phase_one_feasible(A, b)
        assert res.feasible
        assert np.allclose(A @ res.x, b, atol=1e-8)

    def test_iteration_cap_raises(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0])
        with pytest.raises(CyclingGuard):
            phase_one_feasible(A, b, max_iter=1)


class TestRegion11:
    def test_feasible_point_with_known_weight(self):
        region = region_11()
        cert = lp_feasible(region, [2.5, -0.5])
        assert cert.feasible
        assert cert.residual <= 1e-9
        # the single generator e1 - e2 must carry weight 0.5
        assert cert.generator_weights[0] == pytest.approx(0.5, abs=1e-8)

    def test_sum_mismatch_is_infeasible(self):
        cert = lp_feasible(region_11(), [2.5, -0.4])
        assert not cert.feasible
        assert cert.gap == pytest.approx(0.1, abs=1e-9)

    def test_negative_direction_is_infeasible(self):
        # coordinate sum matches but the required cone weight is negative
        cert = lp_feasible(region_11(), [1.5, 0.5])
        assert not cert.feasible

    def test_base_point_is_feasible(self):
        region = region_11()
        cert = lp_feasible(region, region.base_point)
        assert cert.feasible
        assert np.all(np.abs(cert.generator_weights) <= 1e-8)


def test_region_vertices_are_block_permutations():
    sig = Signature(2, 2)
    spec = AdmissibleSpectrum(sig, np.array([1.0, 2.0]), np.array([0.0, -1.0]))
    region = build_region(spec)
    assert region.vertices.shape == (4, 4)  # 2! * 2! distinct block orders
    sums = region.vertices.sum(axis=1)
    assert np.allclose(sums, sums[0])
    # degenerate blocks collapse duplicate permutations
    flat = build_region(AdmissibleSpectrum(sig, np.array([1.0, 1.0]), np.array([0.0, 0.0])))
    assert flat.vertices.shape == (1, 4)


def test_region_cap():
    sig = Signature(3, 3)
    spec = AdmissibleSpectrum(
        sig, np.array([1.0, 2.0, 3.0]), np.array([0.0, -1.0, -2.0])
    )
    with pytest.raises(SizeCapExceeded):
        build_region(spec, vertex_cap=10)


def test_translation_moves_membership():
    region = region_11()
    shifted = region.translate([1.0, 1.0])
    assert lp_feasible(shifted, [3.5, 0.5]).feasible
    assert not lp_feasible(shifted, [2.5, -0.5]).feasible


def test_diag_membership_of_boosted_matrix():
    # conjugating diag(1,-1) by a hyperbolic rotation keeps the diagonal in
    # the region: diagonal (cosh 2t, -cosh 2t) needs weight s = 2 sinh(t)^2
    sig = Signature(1, 1)
    t = 0.6
    A = PseudoHermitianMatrix(sig, np.diag([1.0, -1.0]).astype(complex))
    U = PseudoUnitary(
        sig, np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex)
    )
    B = conjugate(A, U)
    assert B.entries[0, 0].real == pytest.approx(np.cosh(2 * t), abs=1e-12)
    report = check_diag_membership(B)
    assert report.passed
    region = region_11(1.0, -1.0)
    cert = lp_feasible(region, np.diag(B.entries).real)
    assert cert.generator_weights[0] == pytest.approx(2 * np.sinh(t) ** 2, abs=1e-8)


def test_membership_checks_on_sampled_instances(signature, sampler_cfg):
    for idx in range(6):
        rng = instance_rng(SEED, idx)
        A, _, _ = sample_planted(signature, sampler_cfg, rng)
        B, _, _ = sample_planted(signature, sampler_cfg, rng)
        diag = check_diag_membership(A)
        assert diag.passed, diag.to_dict()
        both = check_sum_membership(A, B)
        assert both.passed, both.to_dict()


def test_sum_membership_certificate_reconstructs_point(sampler_cfg):
    sig = Signature(2, 1)
    rng = instance_rng(SEED, 40)
    A, specA, _ = sample_planted(sig, sampler_cfg, rng)
    B, specB, _ = sample_planted(sig, sampler_cfg, rng)
    from kreinval import check_admissible

    specC = check_admissible(matrix_sum(A, B))
    region = build_region(specB).translate(specA.canonical_vector())
    cert = lp_feasible(region, specC.canonical_vector())
    assert cert.feasible
    rebuilt = cert.vertex_weights @ region.vertices + cert.generator_weights @ region.generators
    assert np.allclose(rebuilt, specC.canonical_vector(), atol=1e-8)


def test_inadmissible_sum_gives_the_shared_loud_report(sampler_cfg, monkeypatch, fresh_memos):
    sig = Signature(2, 1)
    rng = instance_rng(SEED, 41)
    A, _, _ = sample_planted(sig, sampler_cfg, rng)
    B, _, _ = sample_planted(sig, sampler_cfg, rng)
    admissible = checks.check_admissible
    total = matrix_sum(A, B).entries

    def sum_is_inadmissible(M):
        if np.array_equal(M.entries, total):
            raise GapViolation("gap closed")
        return admissible(M)

    # admissible pairs have admissible sums, so the failing sum is injected
    monkeypatch.setattr(checks, "check_admissible", sum_is_inadmissible)
    report = check_sum_membership(A, B, tol=1e-9)
    assert report.to_dict() == {
        "check_name": "polyhedral_sum",
        "signature": [2, 1],
        "descriptor": {"lp_tol": 1e-9},
        "tol": 1e-9,
        "cases": [make_case("admissible_sum", (), 0.0, 0.0, -1.0, 1e-9).to_dict()],
        "worst_margin": -1.0,
        "passed": False,
        "soft_cases": [],
        "soft_rate": None,
        "notes": ["sum_not_admissible: GapViolation: gap closed"],
    }
