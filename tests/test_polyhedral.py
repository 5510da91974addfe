import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from kreinval import (
    AdmissibleSpectrum,
    PseudoHermitianMatrix,
    PseudoUnitary,
    Signature,
    SizeCapExceeded,
    build_region,
    check_admissible,
    check_diag_membership,
    check_sum_membership,
    conjugate,
    instance_rng,
    lp_feasible,
    read_matrix,
    sample_planted,
)
from kreinval import checks, polyhedral, simplex
from kreinval.checks import _make_case, matrix_sum
from kreinval.errors import GapViolation
from kreinval.polyhedral import VERTEX_CAP
from kreinval.simplex import CyclingGuard, phase_one_feasible

from conftest import reference_lidskii

SEED = 333
DATA = Path(__file__).parent / "data"


def region_11(lam=2.0, mu=0.0):
    sig = Signature(1, 1)
    return build_region(AdmissibleSpectrum(sig, np.array([lam]), np.array([mu])))


def highs_accepts(region, point, tol=5e-9) -> bool:
    """Whether ``point`` lies within ``tol`` of the region in the max norm, by weights HiGHS finds.

    HiGHS minimizes the l1 residual of convex vertex weights plus
    nonnegative cone weights against the point, held to its tightest
    tolerances, 1e-10, so the weights it returns are accurate below
    ``tol``.  They are clipped to valid weights and their residual is
    recomputed here, so the verdict rests on ``tol``, not on HiGHS's
    feasibility test: that one runs on data HiGHS rescales and reads matrix
    entries of 1e-9 or less as zero.  A point whose Lidskii or trace case
    fails by m is at least m/n away, which at n <= 6 and m > 1e-7 is above
    ``tol``.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    V, G = region.vertices, region.generators
    n, nv, ng = V.shape[1], len(V), len(G)
    A_eq = np.vstack([np.hstack([V.T, G.T, np.eye(n), -np.eye(n)]),
                      np.concatenate([np.ones(nv), np.zeros(ng + 2 * n)])])
    cost = np.concatenate([np.zeros(nv + ng), np.ones(2 * n)])
    res = linprog(cost, A_eq=A_eq, b_eq=np.append(point, 1.0), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message  # the residual LP is always feasible and bounded
    w, s = np.clip(res.x[:nv], 0, None), np.clip(res.x[nv:nv + ng], 0, None)
    return float(np.max(np.abs((w / w.sum()) @ V + s @ G - point))) <= tol


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


def test_a_spectrum_of_size_1e7_builds_its_region():
    """Vertex sums drift by roundoff that grows with the spectrum, here past an absolute 1e-9."""
    sig = Signature(3, 2)
    spec = AdmissibleSpectrum(
        sig,
        np.array([4056752.219863196, 14734569.07621305, 19147686.2077039]),
        np.array([4056751.719863195, -5076816.969082642]),
    )
    region = build_region(spec)
    assert region.vertices.shape == (12, 5)
    drift = np.abs(region.vertices.sum(axis=1) - region.base_point.sum()).max()
    assert 1e-9 < drift <= 1e-15 * np.abs(region.base_point).sum()


def test_a_region_whose_vertex_sums_differ_still_raises():
    region = build_region(AdmissibleSpectrum(Signature(2, 1), np.array([1e6, 2e7]), np.array([-3e6])))
    verts = region.vertices.copy()
    verts[-1, 0] += 1e-6 * np.abs(region.base_point).sum()
    with pytest.raises(ValueError, match="vertex coordinate sums"):
        polyhedral.PolyhedralRegion(region.signature, region.base_point, verts, region.generators)
    # a spectrum whose magnitudes sum to less than 1 is held to the absolute 1e-9
    base = np.array([0.5, 0.25, 0.0])
    with pytest.raises(ValueError, match="vertex coordinate sums"):
        polyhedral.PolyhedralRegion(Signature(2, 1), base, [base, [0.25, 0.5, 2e-9]], region.generators)


def test_region_cap():
    sig = Signature(3, 3)
    spec = AdmissibleSpectrum(
        sig, np.array([1.0, 2.0, 3.0]), np.array([0.0, -1.0, -2.0])
    )
    with pytest.raises(SizeCapExceeded):
        build_region(spec, vertex_cap=10)


def test_translation_moves_membership():
    """c lies in a + region(b) exactly when c - a lies in region(b)."""
    region, a = region_11(), np.array([1.0, 1.0])
    assert lp_feasible(region, np.array([3.5, 0.5]) - a).feasible
    assert not lp_feasible(region, np.array([2.5, -0.5]) - a).feasible


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
    specC = check_admissible(matrix_sum(A, B))
    region = build_region(specB)
    point = specC.canonical_vector() - specA.canonical_vector()
    cert = lp_feasible(region, point)
    assert cert.feasible
    rebuilt = cert.vertex_weights @ region.vertices + cert.generator_weights @ region.generators
    assert np.allclose(rebuilt, point, atol=1e-8)


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
        "cases": [_make_case("admissible_sum", (), 0.0, 0.0, -1.0, 1e-9).to_dict()],
        "worst_margin": -1.0,
        "passed": False,
        "soft_cases": [],
        "soft_rate": None,
        "notes": ["sum_not_admissible: GapViolation: gap closed"],
    }


def sampled_pair(sig, idx, cfg):
    rng = instance_rng(SEED, idx)
    A, _, _ = sample_planted(sig, cfg, rng)
    B, _, _ = sample_planted(sig, cfg, rng)
    return A, B


def membership_cases(report, tag):
    return [c for c in report.cases if c.case_id.startswith(tag + ":")]


@pytest.mark.parametrize("pq", [(2, 1), (3, 2), (3, 0), (0, 3), (4, 3)])
def test_sum_membership_holds_the_least_lidskii_case_of_each_block(pq, sampler_cfg):
    """One trace case, then per direction and block the exhaustive oracle's least partial-sum case."""
    sig = Signature(*pq)
    for idx in range(4):
        A, B = sampled_pair(sig, 60 + idx, sampler_cfg)
        report = check_sum_membership(A, B, tol=1e-9)
        assert report.passed and report.descriptor == {"lp_tol": 1e-9}
        trace = report.cases[0]
        assert trace.case_id == "trace" and trace.indices == () and abs(trace.margin) <= 1e-12
        blocks = [kind for kind, size in (("lambda", sig.p), ("mu", sig.q)) if size]
        for tag, base, other in (("sum_in_region_of_B", A, B), ("sum_in_region_of_A", B, A)):
            got = membership_cases(report, tag)
            assert [c.case_id.split(":")[1] for c in got] == blocks
            oracle = reference_lidskii(base, other, tol=1e-9).cases
            for case in got:
                kind = case.case_id.split(":")[1]
                block = [c for c in oracle if c.case_id.startswith(kind + ":")]
                least = min(c.margin for c in block)
                assert case.margin == pytest.approx(least, abs=1e-12)
                assert case.case_id == f"{tag}:{kind}:{','.join(map(str, case.indices))}"
                assert case.tol == 1e-9 and case.passed == all(c.passed for c in block)


@pytest.mark.parametrize("seed, index", [(7, 4), (3, 0), (8, 0), (9, 0)])
def test_pairs_on_which_the_sum_lps_cycled_pass_by_file(seed, index):
    """(6,4) pairs, stored bit for bit, on which the simplex of both sum LPs raised CyclingGuard.

    The closed form accepts both memberships, and so does HiGHS on the
    region of each summand.
    """
    A, B = (read_matrix(DATA / f"p6q4_seed{seed}_instance{index}_{name}.json") for name in "AB")
    report = check_sum_membership(A, B)
    assert report.passed, report.to_dict()
    specA, specB, specC = (check_admissible(M) for M in (A, B, matrix_sum(A, B)))
    for base, other in ((specA, specB), (specB, specA)):
        assert highs_accepts(build_region(other), specC.canonical_vector() - base.canonical_vector())


PINNED_DIAGONAL = DATA / "p6q4_seed3_instance3_A.json"  # A of instance 3 at (6,4), seed 3, bit for bit


def test_the_pinned_diagonal_lies_in_its_region_by_highs():
    A = read_matrix(PINNED_DIAGONAL)
    diag = polyhedral.canonical_block_order(np.diag(A.entries).real, A.signature)
    assert highs_accepts(build_region(check_admissible(A)), diag)


@pytest.mark.xfail(strict=True, reason="the simplex refuses this diagonal, margin -4.51, though it lies in its region")
def test_the_diagonal_check_accepts_the_pinned_diagonal():
    """A wrong ``polyhedral_diag`` verdict, kept by file so it does not move with the sampler's roundoff."""
    report = check_diag_membership(read_matrix(PINNED_DIAGONAL))
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("pq", [(12, 8), (16, 0), (0, 16)])
def test_sum_membership_passes_past_the_vertex_cap(pq, sampler_cfg):
    sig = Signature(*pq)
    assert math.factorial(sig.p) * math.factorial(sig.q) > VERTEX_CAP
    A, B = sampled_pair(sig, 70, sampler_cfg)
    report = check_sum_membership(A, B)
    assert report.passed, report.to_dict()
    assert len(report.cases) == 1 + 2 * ((sig.p > 0) + (sig.q > 0))


def test_sum_membership_builds_no_region_and_runs_no_lp(sampler_cfg, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sum check must not build a region or run an LP")

    for module, name in ((polyhedral, "build_region"), (polyhedral, "lp_feasible"), (simplex, "phase_one_feasible")):
        monkeypatch.setattr(module, name, refuse)
    A, B = sampled_pair(Signature(2, 1), 71, sampler_cfg)
    assert check_sum_membership(A, B).passed


def test_a_tie_between_sizes_goes_to_the_lowest(monkeypatch):
    """Spectra whose difference is the other summand's exactly: every size has margin 0, and each case names size 1."""
    sig = Signature(2, 2)
    specA = AdmissibleSpectrum(sig, [10.0, 20.0], [-10.0, -20.0])
    specB = AdmissibleSpectrum(sig, [1.0, 2.0], [0.0, -1.0])
    specC = AdmissibleSpectrum(sig, [11.0, 22.0], [-10.0, -21.0])
    monkeypatch.setattr(polyhedral, "_sum_spectra", lambda A, B: (specA, specB, None, specC, None))
    dummy = PseudoHermitianMatrix(sig, np.eye(sig.n, dtype=complex))
    report = check_sum_membership(dummy, dummy)
    assert [(c.case_id, c.indices, c.margin) for c in report.cases] == [
        ("trace", (), 0.0),
        ("sum_in_region_of_B:lambda:1", (1,), 0.0),
        ("sum_in_region_of_B:mu:1", (1,), 0.0),
        ("sum_in_region_of_A:lambda:1", (1,), 0.0),
        ("sum_in_region_of_A:mu:1", (1,), 0.0),
    ]


SPACING = 10.0  # the base spectrum's spacing: far wider than any query point


def sum_in_region_of_B(specB, d):
    """The ``trace`` and ``sum_in_region_of_B`` cases for the query d, and the point they hold.

    A's spectrum is spaced so widely that A + B's canonical vector is A's
    plus d, so the check holds exactly d, up to the roundoff of adding and
    subtracting A's, against the region of B.
    """
    sig = specB.signature
    p, q = sig.p, sig.q
    a = np.concatenate([100.0 + SPACING * np.arange(p)[::-1], -100.0 - SPACING * np.arange(q)])
    specA = AdmissibleSpectrum(sig, a[:p][::-1], a[p:])
    c = a + d
    specC = AdmissibleSpectrum(sig, c[:p][::-1], c[p:])
    point = specC.canonical_vector() - specA.canonical_vector()
    dummy = PseudoHermitianMatrix(sig, np.eye(sig.n, dtype=complex))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyhedral, "_sum_spectra", lambda A, B: (specA, specB, None, specC, None))
        report = check_sum_membership(dummy, dummy)
    return [report.cases[0], *membership_cases(report, "sum_in_region_of_B")], point


@settings(max_examples=150, deadline=None)
@given(p=st.integers(0, 3), q=st.integers(0, 3), data=st.data())
def test_sum_membership_agrees_with_highs_near_vertices_and_cone_rays(p, q, data):
    """The closed-form verdict of ``sum_in_region_of_B`` is HiGHS's on the region of B.

    The query d is a block permutation of B's spectrum (an orbit vertex),
    moved along the cone rays e_i - e_j by nonnegative weights, one of them
    sometimes made negative, then jittered within the trace plane and,
    sometimes, off it.  Points within 1e-7 of the boundary are skipped:
    there the two tolerances may disagree.
    """
    assume(p + q >= 1)
    sig = Signature(p, q)
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    lam = sorted(data.draw(st.lists(st.floats(0.5, 3.0), min_size=p, max_size=p)))
    mu = sorted(data.draw(st.lists(st.floats(-3.0, 0.25), min_size=q, max_size=q)), reverse=True)
    specB = AdmissibleSpectrum(sig, lam, mu)
    b = specB.canonical_vector()
    order = data.draw(st.permutations(range(p))) + [p + j for j in data.draw(st.permutations(range(q)))]
    d = b[order]
    pairs = [(i, j) for i in range(p) for j in range(p, sig.n)]
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    if pairs:  # a negative weight steps out of the cone
        weights[0] += data.draw(st.sampled_from([0.0, 0.0, -1e-4, -0.3]))
    for (i, j), w in zip(pairs, weights):
        d[i] += w
        d[j] -= w
    jitter = np.array(data.draw(st.lists(unit, min_size=sig.n, max_size=sig.n)))
    d += data.draw(st.sampled_from([0.0, 1e-5, 1e-2, 0.3])) * (jitter - jitter.mean())
    d[0] += data.draw(st.sampled_from([0.0, 0.0, 1e-6, -1e-3, 0.1]))
    cases, point = sum_in_region_of_B(specB, d)
    # a lone block's full-block case restates the trace case, and the trace plane is no boundary
    sizes = {"lambda": p, "mu": q}
    slacks = [c.margin for c in cases[1:] if min(p, q) or len(c.indices) < sizes[c.case_id.split(":")[1]]]
    assume(all(abs(m) > 1e-7 for m in slacks))
    assume(abs(cases[0].margin) < 1e-12 or abs(cases[0].margin) > 1e-7)
    verdict = all(c.passed for c in cases)
    event(f"p={p} q={q} accepted={verdict}")
    assert verdict == highs_accepts(build_region(specB), point)


def test_a_tiny_lone_vertex_holds_itself_against_highs():
    """At (0,1) with mu = 2.40916372832359e-09 and the query B's own spectrum, both verdicts accept.

    A hypothesis draw of the property above: the point is the vertex up to
    2.5e-15 of roundoff from adding and subtracting A's spectrum.  HiGHS,
    asked whether the point is feasible, scaled or not, calls the
    one-vertex region infeasible: next to 2.4e-9 the roundoff is a relative
    gap of 1e-6, above HiGHS's feasibility tolerance.
    """
    specB = AdmissibleSpectrum(Signature(0, 1), [], [2.40916372832359e-09])
    cases, point = sum_in_region_of_B(specB, specB.canonical_vector())
    assert 0 < abs(point[0] - specB.mus[0]) < 1e-14
    assert all(c.passed for c in cases)
    assert highs_accepts(build_region(specB), point)
