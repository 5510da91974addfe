import dataclasses
import functools
import itertools
import json
import operator
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kreinval import (
    AdmissibleSpectrum,
    CheckCase,
    PseudoHermitianMatrix,
    PseudoUnitary,
    SamplerConfig,
    Signature,
    check_courant_fischer,
    check_ky_fan,
    check_lidskii_wielandt,
    check_thompson_freede,
    check_trace_identity,
    check_weyl,
    check_wielandt_flag,
    conjugate,
    eigendecompose,
    instance_rng,
    negative_eigenbasis,
    positive_eigenbasis,
    sample_planted,
)
from kreinval import checks, polyhedral
from kreinval.checks import (
    DEFAULT_TOL,
    _inadmissible_sum_report,
    _lidskii_cases,
    _make_case,
    _ordered_sum,
    _thompson_freede_cases,
    matrix_sum,
)
from kreinval.errors import ComplexSpectrum, DefectiveMatrix, GapViolation, NonFiniteValue, WrongConeCount

from conftest import (
    _tuple_sums,
    all_tuples,
    brute_pairs,
    non_invariant_system,
    ordered_sum,
    positive_compressions,
    prefix_minmax_tops,
    rayleigh_columns,
    reference_lidskii,
    reference_thompson_freede,
    restricted_cone_samples,
    sampled_margins,
    shape,
    table_lidskii_cases,
    table_thompson_freede_cases,
)

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
    good = _make_case("x", (), 1.0, 0.5, 0.5, 1e-8)
    bad = _make_case("x", (), 0.5, 1.0, -0.5, 1e-8)
    grazing = _make_case("x", (), 1.0, 1.0, -1e-9, 1e-8)
    assert good.passed and not bad.passed and grazing.passed


def test_a_case_is_an_immutable_named_tuple():
    """Fields cannot be assigned, a case pickles as itself, and ``to_dict`` keeps its keys and values."""
    case = _make_case("lambda:1,3", (1, 3), 1.0, 0.5, 0.5, 1e-8)
    with pytest.raises(AttributeError):
        case.margin = -1.0
    assert case.margin == 0.5
    clone = pickle.loads(pickle.dumps(case))
    assert clone == case and type(clone) is CheckCase
    assert case.to_dict() == {
        "case_id": "lambda:1,3",
        "indices": [1, 3],
        "lhs": 1.0,
        "rhs": 0.5,
        "margin": 0.5,
        "tol": 1e-8,
        "passed": True,
    }
    assert list(case.to_dict()) == ["case_id", "indices", "lhs", "rhs", "margin", "tol", "passed"]
    # tuple semantics: equal to the tuple of its fields, and ``_replace`` gives a changed copy
    assert case == ("lambda:1,3", (1, 3), 1.0, 0.5, 0.5, 1e-8, True)
    assert case._replace(margin=-1.0).margin == -1.0 and case.margin == 0.5


def test_index_tuple_enumeration(sampler_cfg):
    """The wielandt reports enumerate the shapes of the index tuples: top index r, then size m <= r."""
    A, _, _ = sample_planted(Signature(4, 2), sampler_cfg, instance_rng(SEED, 30))
    reports = check_wielandt_flag(A)
    assert [shape(r) for r in reports] == [(r, m) for r in range(1, 5) for m in range(1, r + 1)]
    assert [list(r.descriptor) for r in reports] == [["top", "m"]] * 10
    # every tuple has exactly one shape
    assert sorted({(t[-1], len(t)) for t in all_tuples(4)}) == sorted(shape(r) for r in reports)


def test_thompson_freede_pair_constraint(sampler_cfg):
    """Every reported pair is an admitted one: same size, strictly increasing, i_m + j_m <= m + p."""
    assert len(brute_pairs(5)) == 88
    for p in range(1, 8):
        admitted = {f"i={','.join(map(str, i))};j={','.join(map(str, j))}" for i, j in brute_pairs(p)}
        A, B, _ = sampled_pair(Signature(p, 1), 0, sampler_cfg)
        report = check_thompson_freede(A, B)
        assert [len(c.indices) for c in report.cases] == list(range(1, p + 1))
        assert {c.case_id for c in report.cases} <= admitted


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


def diagonal(spec):
    """The canonical diagonal matrix of a spectrum."""
    return PseudoHermitianMatrix(spec.signature, np.diag(spec.canonical_vector()))


def test_trace_identity_exact_for_diagonals():
    sig = Signature(2, 1)
    A = diagonal(AdmissibleSpectrum(sig, np.array([1.0, 2.0]), np.array([0.0])))
    B = diagonal(AdmissibleSpectrum(sig, np.array([0.5, 0.5]), np.array([-1.0])))
    report = check_trace_identity(A, B)
    assert report.passed
    assert report.worst_margin >= -1e-14


def test_lidskii_equality_for_commuting_diagonals():
    sig = Signature(3, 1)
    A = diagonal(AdmissibleSpectrum(sig, np.array([1.0, 2.0, 4.0]), np.array([0.0])))
    B = diagonal(AdmissibleSpectrum(sig, np.array([0.5, 1.0, 3.0]), np.array([-2.0])))
    report = check_lidskii_wielandt(A, B)
    assert report.passed
    # aligned bottom tuples are tight for simultaneously diagonal matrices, so each is the worst of its size
    assert [c.case_id for c in report.cases] == ["lambda:1", "lambda:1,2", "lambda:1,2,3", "mu:1"]
    assert all(c.margin == pytest.approx(0.0, abs=1e-12) for c in report.cases)
    # a shifted tuple picks up the spread of B's spectrum
    by_id = {c.case_id: c for c in reference_lidskii(A, B).cases}
    assert by_id["lambda:2"].margin == pytest.approx(0.5, abs=1e-12)


def test_thompson_freede_m1_matches_weyl(sampler_cfg):
    sig = Signature(2, 1)
    A, B, _ = sampled_pair(sig, 0, sampler_cfg)
    weyl = {c.case_id: c for c in check_weyl(A, B).cases}
    every_pair = {c.case_id: c for c in reference_thompson_freede(A, B).cases}
    # i = (k,), j = (1,) reduces the shifted-tuple bound to the Weyl bound
    for k in (1, 2):
        assert every_pair[f"i={k};j=1"].lhs == pytest.approx(weyl[f"lambda:{k}"].lhs, abs=1e-12)
        assert every_pair[f"i={k};j=1"].margin == pytest.approx(weyl[f"lambda:{k}"].margin, abs=1e-10)
    # so the worst pair of size 1 is at least as tight as the worst Weyl case
    worst = check_thompson_freede(A, B).cases[0]
    assert len(worst.indices) == 1
    assert worst.margin <= min(c.margin for c in weyl.values() if c.case_id.startswith("lambda:")) + 1e-12


def test_lidskii_m1_matches_weyl(sampler_cfg):
    """Lidskii's size-1 case of each block is the worst Weyl case of that block, bit for bit.

    Weyl is Lidskii at m = 1, index by index: the Weyl case at the index of
    Lidskii's size-1 tuple has the same lhs, rhs and margin.
    """
    for pq, idx in itertools.product([(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (3, 0), (0, 2)], range(4)):
        A, B, _ = sampled_pair(Signature(*pq), idx, sampler_cfg)
        weyl, lidskii = check_weyl(A, B).cases, check_lidskii_wielandt(A, B).cases
        for kind in ("lambda", "mu"):
            margins = [c.margin for c in weyl if c.case_id.startswith(f"{kind}:")]
            singles = [c for c in lidskii if c.case_id.startswith(f"{kind}:") and len(c.indices) == 1]
            assert [c.margin for c in singles] == ([min(margins)] if margins else [])
            for single in singles:
                (same,) = [c for c in weyl if c.case_id == single.case_id]
                assert (same.lhs, same.rhs, same.margin) == (single.lhs, single.rhs, single.margin)


def test_inequalities_hold_on_sampled_pairs(signature, sampler_cfg):
    for idx in range(8):
        A, B, rng = sampled_pair(signature, idx, sampler_cfg)
        assert check_weyl(A, B).passed
        assert check_lidskii_wielandt(A, B).passed
        assert check_thompson_freede(A, B).passed
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
    cf = check_courant_fischer(A)
    assert cf.passed and cf.descriptor == {"equality_tol": 1e-9}
    witness = [c for c in cf.cases if c.case_id.startswith("minmax_witness")]
    assert all(c.margin >= -1e-9 for c in witness)
    reports = check_ky_fan(A)
    assert [r.descriptor for r in reports] == [{"k": k, "equality_tol": 1e-9} for k in range(1, signature.p + 1)]
    assert all(r.passed for r in reports)


def test_courant_fischer_without_samples_keeps_its_witnesses(sampler_cfg):
    """The checks draw nothing: each k gets its certificate and its witnesses, and no sampled case."""
    sig = Signature(2, 1)
    A, _, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 25))
    report = check_courant_fischer(A)
    assert report.passed
    by_id = {c.case_id: c for c in report.cases}
    ky_fan = check_ky_fan(A)
    assert len(ky_fan) == sig.p
    for k, kf in enumerate(ky_fan, start=1):
        assert [c for c in by_id if c.endswith(f":{k}")] == [f"minmax_witness:{k}", f"restricted_cert:{k}", f"restricted_witness:{k}"]
        assert by_id[f"restricted_cert:{k}"].passed
        assert by_id[f"minmax_witness:{k}"].margin >= -1e-9
        assert by_id[f"restricted_witness:{k}"].margin >= -1e-9
        assert kf.passed
        assert [c.case_id for c in kf.cases] == [f"restricted_cert_min:{k}", f"partial_sum_witness:{k}"]
        # the least of certificates 1, ..., k
        assert kf.cases[0].lhs == min(by_id[f"restricted_cert:{j}"].lhs for j in range(1, k + 1))
        assert kf.cases[0].indices == tuple(range(1, k + 1))


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 5), q=st.integers(0, 4), index=st.integers(0, 2**16))
def test_a_passing_restricted_certificate_is_never_beaten_by_sampled_vectors(p, q, index):
    """Where restricted_cert:k passes, 1000 oracle vectors in its span keep R_A >= lambda_k - tol."""
    sig = Signature(p, q)
    rng = instance_rng(SEED, 40, index)
    A, _, _ = sample_planted(sig, SamplerConfig(), rng)
    report = check_courant_fischer(A)
    system = eigendecompose(A)
    pos, neg = positive_eigenbasis(system), negative_eigenbasis(system)
    for k in range(1, p + 1):
        (cert,) = [c for c in report.cases if c.case_id == f"restricted_cert:{k}"]
        assert cert.passed, k  # a planted matrix satisfies the bound
        X = restricted_cone_samples(pos[:, k - 1 :], neg, 1000, rng)
        low = float(np.min(rayleigh_columns(A.entries, sig, X)))
        assert low >= system.spectrum.lambdas[k - 1] - cert.tol, k


def test_the_certificate_catches_a_raised_eigenvalue_that_sampling_misses(monkeypatch, fresh_memos):
    """lambda_1 raised by 1e-6 in the system the check reads: restricted_cert:1 fails, 1000 oracle vectors pass."""
    sig = Signature(3, 2)
    A, _, _ = sample_planted(sig, SamplerConfig(), instance_rng(SEED, 41))
    system = eigendecompose(A)
    raised = system.spectrum.lambdas.copy()
    raised[0] += 1e-6
    planted = dataclasses.replace(system, spectrum=dataclasses.replace(system.spectrum, lambdas=raised))
    monkeypatch.setattr(checks, "eigendecompose", lambda _: planted)
    report = check_courant_fischer(A)
    cert = {c.case_id: c for c in report.cases if c.case_id.startswith("restricted_cert")}
    assert not cert["restricted_cert:1"].passed
    assert cert["restricted_cert:1"].margin == pytest.approx(-1e-6, rel=1e-6)
    assert cert["restricted_cert:2"].passed and cert["restricted_cert:3"].passed
    X = restricted_cone_samples(positive_eigenbasis(system), negative_eigenbasis(system), 1000, instance_rng(SEED, 42))
    assert float(np.min(rayleigh_columns(A.entries, sig, X))) >= raised[0] - cert["restricted_cert:1"].tol


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 5), q=st.integers(0, 4), n=st.integers(1, 30), index=st.integers(0, 2**16))
def test_minmax_sampled_reads_every_k_subspace_of_each_frame(p, q, n, index):
    """The sampled oracle's minmax_sampled:k is the least k-th eigenvalue of the stack, never above the
    least top over the k-column prefixes, whose subspaces it includes; and it holds where the certificate does."""
    sig = Signature(p, q)
    rng = instance_rng(SEED, 43, index)
    A, _, _ = sample_planted(sig, SamplerConfig(), rng)
    M = positive_compressions(A, n, rng)
    report = check_courant_fischer(A)
    assert report.passed
    lambdas = eigendecompose(A).spectrum.lambdas
    eta = np.linalg.eigvalsh(M)
    prefix = prefix_minmax_tops(M)
    sampled = sampled_margins(A, M)
    for k in range(1, p + 1):
        low = sampled[f"minmax_sampled:{k}"]
        assert low == float(np.min(eta[:, k - 1] - lambdas[k - 1])), k
        assert low + lambdas[k - 1] <= prefix[k - 1] + 1e-12 * max(1.0, abs(prefix[k - 1])), k
        assert low >= -report.tol, k


def test_a_frame_below_lambda_1_off_its_prefix_fails_minmax_sampled(sampler_cfg):
    """A frame whose compression is diag(lambda_2, lambda_1 - 1e-6) has a 1-subspace below lambda_1
    but a 1-column prefix at lambda_2: the sampled oracle's minmax_sampled:1 sees it where the prefix oracle, and
    interlace_min:1 on the 1 x 1 leading block, do not.  The sums through index 2 and interlace_min:2 see it too."""
    sig = Signature(2, 1)
    rng = instance_rng(SEED, 44)
    A, _, _ = sample_planted(sig, sampler_cfg, rng)
    lambdas = eigendecompose(A).spectrum.lambdas
    M = positive_compressions(A, 20, rng)
    assert min(sampled_margins(A, M).values()) > -DEFAULT_TOL
    M[0] = np.diag([lambdas[1], lambdas[0] - 1e-6])
    sampled = sampled_margins(A, M)
    assert [k for k, v in sampled.items() if v < -DEFAULT_TOL] == [
        "minmax_sampled:1", "partial_sum_sampled:1", "partial_sum_sampled:2", "interlace_min:2"
    ]
    assert sampled["minmax_sampled:1"] == pytest.approx(-1e-6, rel=1e-6)
    assert prefix_minmax_tops(M)[0] - lambdas[0] > -DEFAULT_TOL


class CertificatesRead(Exception):
    pass


def _refuse(*args, **kwargs):
    raise CertificatesRead


#: stands in for the memo's certificates: reading it in any way raises CertificatesRead
Unreadable = type(
    "Unreadable",
    (),
    dict.fromkeys(("__getattribute__", "__getitem__", "__len__", "__iter__", "__array__", "__float__"), _refuse),
)


def test_courant_fischer_solves_one_stacked_eigvalsh_and_one_per_certificate(sampler_cfg, monkeypatch, fresh_memos):
    """At (4,3) the memo solves one eigvalsh per certificate, once per matrix, and each check one more or none:
    courant_fischer reads the compression's eigenvalues, wielandt its roundoff, ky_fan neither.  No ix_ gathers.
    Only courant_fischer reads the certificates; ky_fan and wielandt read the record's running minimum."""
    sig = Signature(4, 3)
    A, _, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 45))
    expected = check_courant_fischer(A), check_ky_fan(A), check_wielandt_flag(A)
    checks._positive_eigen.cache_clear()
    calls = {"eigvalsh": 0, "ix_": 0}
    for module, name in ((np.linalg, "eigvalsh"), (np, "ix_")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert check_courant_fischer(A) == expected[0]
    assert calls == {"eigvalsh": sig.p + 1, "ix_": 0}
    for check, want, solves in ((check_ky_fan, expected[1], 0), (check_wielandt_flag, expected[2], 1),
                                (check_courant_fischer, [expected[0]], 1)):
        calls.update(eigvalsh=0)
        got = check(A)
        assert (got if isinstance(got, list) else [got]) == want and calls == {"eigvalsh": solves, "ix_": 0}
    # ky_fan and wielandt read the least certificates from the record's running minimum, never the certificates
    unreadable = checks._positive_eigen(A)._replace(certs=Unreadable())
    monkeypatch.setattr(checks, "_positive_eigen", lambda _: unreadable)
    assert check_ky_fan(A) == expected[1] and check_wielandt_flag(A) == expected[2]
    with pytest.raises(CertificatesRead):
        check_courant_fischer(A)


@pytest.mark.parametrize("pq", [(1, 1), (3, 2), (4, 3), (5, 0), (6, 4)])
def test_the_least_certificates_agree_across_suites_and_the_shared_record_is_read_only(sampler_cfg, pq):
    """ky_fan's restricted_cert_min:k is wielandt's in every report of top k, tuple for tuple, and its lhs is the
    least lhs of courant_fischer's restricted_cert:1...k.  The memo shares its record, so the record's diagonal
    refuses writes and its running minimum is a tuple."""
    sig = Signature(*pq)
    A, _, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 51))
    restricted = {c.case_id: c.lhs for c in check_courant_fischer(A).cases}
    wielandt = check_wielandt_flag(A)
    ky_fan = check_ky_fan(A)
    assert len(ky_fan) == sig.p
    for k, rep in enumerate(ky_fan, 1):
        case_id = f"restricted_cert_min:{k}"
        (least,) = [c for c in rep.cases if c.case_id == case_id]
        tops = [[c for c in r.cases if c.case_id == case_id] for r in wielandt if r.descriptor["top"] == k]
        assert tops == [[least]] * k, k
        assert least.lhs == min(restricted[f"restricted_cert:{i}"] for i in range(1, k + 1)), k
    record = checks._positive_eigen(A)
    assert type(record.cert_min) is tuple and len(record.cert_min) == sig.p
    assert np.array_equal(record.diagonal, np.diagonal(record.eigen).real)
    with pytest.raises(ValueError, match="read-only"):
        record.diagonal[0] = 0.0


def test_the_certificates_are_the_least_eigenvalues_of_the_restricted_forms(sampler_cfg):
    """Certificate k of the memo is the least eigenvalue of W_k* J (A - lambda_k I) W_k, with W_k built
    afresh from eigenvectors k, ..., p and the negative ones, to roundoff of the form's norm."""
    for pq, index in (((3, 2), 46), ((5, 0), 47), ((1, 4), 48), ((6, 4), 49)):
        sig = Signature(*pq)
        A, _, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, index))
        record = checks._positive_eigen(A)
        system, certs = record.system, record.certs
        assert certs.shape == (sig.p,) and not certs.flags.writeable
        pos, neg = positive_eigenbasis(system), negative_eigenbasis(system)
        for k, lam in enumerate(system.spectrum.lambdas.tolist(), start=1):
            W = np.hstack([pos[:, k - 1 :], neg])
            H = W.conj().T @ J_of(sig) @ (A.entries - lam * np.eye(sig.n)) @ W
            H = 0.5 * (H + H.conj().T)
            assert abs(certs[k - 1] - np.linalg.eigvalsh(H)[0]) <= 1e-12 * max(1.0, np.linalg.norm(H, 2)), (pq, k)


def test_ky_fan_witness_is_tight(sampler_cfg):
    sig = Signature(3, 1)
    rng = instance_rng(SEED, 22)
    A, spec, _ = sample_planted(sig, sampler_cfg, rng)
    report = check_ky_fan(A)[1]
    assert report.descriptor["k"] == 2
    by_id = {c.case_id: c for c in report.cases}
    assert by_id["partial_sum_witness:2"].rhs == pytest.approx(
        spec.lambdas[0] + spec.lambdas[1], abs=1e-7
    )


def test_every_variational_suite_reports_a_missing_positive_block():
    from kreinval.cli import SuiteConfig, run_instance

    suites = ("courant_fischer", "ky_fan", "wielandt")
    reports = run_instance(SuiteConfig(p=0, q=2, suites=suites), 0)
    assert [r.check_name for r in reports] == list(suites)
    for r in reports:
        assert r.passed and r.cases == () and r.worst_margin is None
        assert r.notes == ("no positive-type block",)


def test_wielandt_full_tuple_matches_ky_fan_target(sampler_cfg):
    sig = Signature(2, 1)
    rng = instance_rng(SEED, 23)
    A, spec, _ = sample_planted(sig, sampler_cfg, rng)
    report = check_wielandt_flag(A)[-1]
    assert report.passed and shape(report) == (2, 2)
    by_id = {c.case_id: c for c in report.cases}
    assert by_id["eigenflag_max"].rhs == pytest.approx(np.sum(spec.lambdas), abs=1e-7)
    assert by_id["eigenflag_max"].rhs == pytest.approx(check_ky_fan(A)[1].cases[1].rhs, abs=1e-12)
    assert 0.0 <= by_id["eigenflag_witness"].lhs <= 1e-12 and by_id["eigenflag_witness"].rhs == 0.0
    assert all(c.indices == (1, 2) for c in report.cases)
    assert [c.case_id for c in report.cases] == ["eigenflag_max", "eigenflag_witness", "restricted_cert_min:2"]
    assert by_id["restricted_cert_min:2"] == check_ky_fan(A)[1].cases[0]


def test_wielandt_single_index(sampler_cfg):
    sig = Signature(2, 2)
    rng = instance_rng(SEED, 24)
    A, _, _ = sample_planted(sig, sampler_cfg, rng)
    reports = check_wielandt_flag(A)
    assert [shape(r) for r in reports] == [(1, 1), (2, 1), (2, 2)]
    assert all(r.passed for r in reports)
    # the one tuple of shape (2, 1) is (2,); the eigenflag's deviation and the certificates span 1, 2
    assert [c.indices for c in reports[1].cases] == [(2,), (1, 2), (1, 2)]


def J_of(sig):
    return np.diag(np.r_[np.ones(sig.p), -np.ones(sig.q)])


def test_wielandt_fails_a_flag_that_does_not_interlace(sampler_cfg, monkeypatch, fresh_memos):
    """A planted fault only the certificates catch: an eigensolver returns, as eigenvector 3, the positive
    vector v_3 + c w, w the top negative-type eigenvector, and as lambda_3 its Rayleigh ratio.

    The compression onto the returned eigenbasis is then diag(lambda') up
    to roundoff, so every witness passes.  But lambda'_3 > lambda_3, and
    the flag of the true eigenvectors does not interlace: its eta_3 is
    lambda_3.  ``restricted_cert:3`` fails; so do ``restricted_cert_min``
    for k >= 3 in ``ky_fan`` and for every shape with r >= 3 in
    ``wielandt``, and nothing else.
    """
    sig = Signature(4, 3)
    A, _, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 25))
    system = eigendecompose(A)
    faulty = non_invariant_system(A, 3)
    monkeypatch.setattr(checks, "eigendecompose", lambda _: faulty)
    true, raised = system.spectrum.lambdas, faulty.spectrum.lambdas
    assert raised[2] > true[2] and np.array_equal(np.delete(raised, 2), np.delete(true, 2))
    # the flag of the true eigenvectors, held to lambda' by the sampled oracle
    V = positive_eigenbasis(system)
    sampled = sampled_margins(A, (V.conj().T @ (J_of(sig) @ A.entries) @ V)[None])
    assert [key for key, v in sampled.items() if v < -DEFAULT_TOL] == [
        "minmax_sampled:3", "partial_sum_sampled:3", "interlace_min:3", "partial_sum_sampled:4", "interlace_min:4"
    ]
    cf = check_courant_fischer(A)
    assert [c.case_id for c in cf.cases if not c.passed] == ["restricted_cert:3"]
    assert cf.worst_margin < -DEFAULT_TOL
    for k, rep in enumerate(check_ky_fan(A), start=1):
        assert [c.case_id for c in rep.cases if not c.passed] == (["restricted_cert_min:%d" % k] if k >= 3 else []), k
    reports = check_wielandt_flag(A)
    assert len(reports) == 10
    for rep in reports:
        r, m = shape(rep)
        failed = [c.case_id for c in rep.cases if not c.passed]
        assert failed == ([f"restricted_cert_min:{r}"] if r >= 3 else []), (r, m)


@pytest.mark.parametrize("eps", [0.75e-8, 1.5e-8])
def test_wielandt_fails_an_eigenflag_off_its_diagonal(sampler_cfg, monkeypatch, eps):
    """An eigenflag compression perturbed off the diagonal by eps fails eigenflag_max exactly where m eps > tol,
    and the one eigenflag_witness_etas case, whose delta = eps bounds the deviation of every tuple."""
    sig = Signature(3, 2)
    rng = instance_rng(SEED, 26)
    A, _, _ = sample_planted(sig, sampler_cfg, rng)
    record = checks._positive_eigen(A)
    E = np.zeros((3, 3), dtype=complex)
    E[0, 2], E[2, 0] = eps * 1j, -eps * 1j  # Hermitian, ||E||_2 = eps
    faulted = checks._positive_record(record.system, record.eigen + E, record.certs)
    monkeypatch.setattr(checks, "_positive_eigen", lambda _: faulted)
    reports = check_wielandt_flag(A)
    assert len(reports) == 6
    for rep in reports:
        r, m = shape(rep)
        by_id = {c.case_id: c for c in rep.cases}
        assert by_id["eigenflag_max"].margin == pytest.approx(-m * eps, rel=1e-6)
        assert [c.case_id for c in rep.cases if not c.passed] == (
            ["eigenflag_max"] if m * eps > DEFAULT_TOL else []
        ) + (["eigenflag_witness_etas"] if r == 1 else []), (r, m)
    (etas,) = [c for c in reports[0].cases if c.case_id == "eigenflag_witness_etas"]
    assert etas.indices == (1, 2, 3) and etas.lhs == pytest.approx(eps, rel=1e-6)


@pytest.mark.parametrize("shift", [-1.0, -0.5, 0.5, 1.0])
def test_wielandt_reports_the_largest_eigenflag_deviation_of_every_shape(sampler_cfg, monkeypatch, shift):
    """An eigenflag compression whose diagonal is off by e of order 1e-7, far above roundoff, reports for
    each shape the largest |sum_{i in I} e_i| over its tuples, from whichever end of the sort of e reaches it.

    e leans negative or positive with ``shift``, so the lower end of the
    sort, the upper end, or both, reach the largest deviation.
    """
    sig = Signature(6, 2)
    A, _, _ = sample_planted(sig, sampler_cfg, instance_rng(SEED, 40))
    record = checks._positive_eigen(A)
    e = 1e-7 * (np.random.default_rng(SEED).standard_normal(6) + shift)
    faulted = checks._positive_record(record.system, record.eigen + np.diag(e), record.certs)
    monkeypatch.setattr(checks, "_positive_eigen", lambda _: faulted)
    lambdas = record.system.spectrum.lambdas.tolist()
    diagonal = (np.diagonal(record.eigen).real + e).tolist()
    roundoff = 6 * 8 * np.finfo(float).eps * max(map(abs, lambdas))
    reports = check_wielandt_flag(A)
    assert [shape(r) for r in reports] == [(r, m) for r in range(1, 7) for m in range(1, r + 1)]
    for rep in reports:
        r, m = shape(rep)
        largest = max(
            abs(ordered_sum(diagonal[i - 1] for i in t) - ordered_sum(lambdas[i - 1] for i in t))
            for t in all_tuples(r) if t[-1] == r and len(t) == m
        )
        (case,) = [c for c in rep.cases if c.case_id == "eigenflag_witness"]
        assert abs(case.lhs - largest) <= roundoff, (r, m)
        assert case.margin == -case.lhs and not case.passed


def test_hermitian_degeneration_of_inequalities(sampler_cfg):
    sig = Signature(3, 0)
    A, B, rng = sampled_pair(sig, 5, sampler_cfg)
    assert np.allclose(A.entries, A.entries.conj().T)
    assert check_weyl(A, B).passed
    assert check_lidskii_wielandt(A, B).passed
    report = check_courant_fischer(A)
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


SUMS_SUITES = ("structural", "trace", "weyl", "lidskii", "thompson_freede")


def test_a_sums_instance_builds_its_sum_once(monkeypatch, fresh_memos):
    from kreinval import checks
    from kreinval.cli import SuiteConfig, run_instance

    built = []

    def counting_sum(A, B):
        built.append(A.signature)
        return matrix_sum(A, B)

    monkeypatch.setattr(checks, "matrix_sum", counting_sum)
    run_instance(SuiteConfig(p=3, q=2, seed=0, suites=SUMS_SUITES), 0)
    assert len(built) == 1  # one per sum check (4) before the memo


@pytest.mark.parametrize(
    "error", [ComplexSpectrum, DefectiveMatrix, GapViolation, NonFiniteValue, WrongConeCount], ids=lambda e: e.__name__
)
def test_an_inadmissible_sum_fails_every_sum_report_alike(error, sampler_cfg, monkeypatch, fresh_memos):
    from kreinval import checks
    from kreinval.polyhedral import check_sum_membership

    A, B, _ = sampled_pair(Signature(3, 2), 8, sampler_cfg)
    admissible = checks.check_admissible
    total = matrix_sum(A, B).entries
    judged = []

    def sum_is_inadmissible(M):
        if np.array_equal(M.entries, total):
            judged.append(M)
            raise error("gap closed")
        return admissible(M)

    # admissible pairs have admissible sums, so the failing sum is injected
    monkeypatch.setattr(checks, "check_admissible", sum_is_inadmissible)
    sum_checks = (
        check_trace_identity,
        check_weyl,
        check_lidskii_wielandt,
        check_thompson_freede,
        check_sum_membership,
    )
    rounds = [[check(A, B) for check in sum_checks] for _ in range(3)]
    assert len(judged) == 1  # A + B was validated once for all fifteen reports
    names = ["trace", "weyl", "lidskii", "thompson_freede", "polyhedral_sum"]
    for reports in rounds:
        assert [r.check_name for r in reports] == names
        for r in reports:
            assert [(c.case_id, c.margin, c.passed) for c in r.cases] == [("admissible_sum", -1.0, False)]
            assert not r.passed and r.worst_margin == -1.0
            assert r.notes == (f"sum_not_admissible: {error.__name__}: gap closed",)
    assert [r.to_dict() for r in rounds[0]] == [r.to_dict() for r in rounds[2]]
    # the kept error is never raised again, so it holds no frames
    assert checks._sum_spectra(A, B)[4].__traceback__ is None


@pytest.mark.parametrize("index", [70, 177])
def test_a_sum_whose_eigenvalues_overflow_leaves_structural_as_alone(index, fresh_memos):
    """At gap_min 6e307 these instances give A + B eigenvalues past the largest float, A and B finite ones.

    Each pair suite then reports the failing ``admissible_sum`` case with
    the NonFiniteValue note, and ``structural`` reports what it reports
    when it runs alone.
    """
    from kreinval.cli import SuiteConfig, run_instance

    cfg = SuiteConfig(p=2, q=1, seed=7, gap_min=6e307, suites=("structural",))
    (alone,) = run_instance(cfg, index)
    pair_suites = ("trace", "weyl", "lidskii", "thompson_freede")
    structural, *reports = run_instance(dataclasses.replace(cfg, suites=("structural", *pair_suites)), index)
    assert json.dumps(structural.to_dict()) == json.dumps(alone.to_dict())
    assert [r.check_name for r in reports] == list(pair_suites)
    for r in reports:
        assert [(c.case_id, c.margin, c.passed) for c in r.cases] == [("admissible_sum", -1.0, False)]
        assert r.notes == ("sum_not_admissible: NonFiniteValue: eigenvalues must be finite reals",)


# ---------------------------------------------------------------------------
# the sum suites against their exhaustive per-tuple oracles


@functools.lru_cache(maxsize=None)
def planted_pair(p, q, idx):
    A, B, _ = sampled_pair(Signature(p, q), idx, SamplerConfig())
    return A, B


def tied_pair(p, q, data):
    """Commuting diagonal A and B with eigenvalues in {1, 2, 3} and {-3, -2, -1}: many margins tie exactly."""
    sig = Signature(p, q)

    def diagonal_matrix(name):
        pos = data.draw(st.lists(st.integers(1, 3), min_size=p, max_size=p), label=f"{name} positive")
        neg = data.draw(st.lists(st.integers(-3, -1), min_size=q, max_size=q), label=f"{name} negative")
        return PseudoHermitianMatrix(sig, np.diag(np.array(pos + neg, dtype=complex)))

    return diagonal_matrix("A"), diagonal_matrix("B")


def block_and_size(case):
    """The block of a sum-suite case ("lambda", "mu", or "pair" for Thompson-Freede) and its size."""
    return ("pair" if case.case_id.startswith("i=") else case.case_id.split(":")[0]), len(case.indices)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(0, 7), q=st.integers(0, 5), tied=st.booleans(), data=st.data())
def test_sum_suites_report_the_exhaustive_worst_case_of_every_size(p, q, tied, data):
    """One case per block and size: the oracle's case of its id, bit for bit, with the oracle's least margin.

    The oracles enumerate every tuple and pair, so a kernel that missed a
    worse tuple shows a margin above the least one.
    """
    assume(p + q > 0)
    A, B = tied_pair(p, q, data) if tied else planted_pair(p, q, data.draw(st.integers(0, 2), label="idx"))
    sizes = {"lambda": p, "mu": q, "pair": p}
    for got, oracle, blocks in (
        (check_lidskii_wielandt(A, B), reference_lidskii(A, B), ("lambda", "mu")),
        (check_thompson_freede(A, B), reference_thompson_freede(A, B), ("pair",)),
    ):
        assert got.descriptor == oracle.descriptor and got.notes == oracle.notes
        assert [block_and_size(c) for c in got.cases] == [(b, m) for b in blocks for m in range(1, sizes[b] + 1)]
        by_id, least = {}, {}
        for c in oracle.cases:
            by_id[c.case_id] = c
            least[block_and_size(c)] = min(least.get(block_and_size(c), np.inf), c.margin)
        for c in got.cases:
            assert json.dumps(c.to_dict()) == json.dumps(by_id[c.case_id].to_dict())
            scale = max(1.0, abs(c.lhs), abs(c.rhs))
            assert c.margin == pytest.approx(least[block_and_size(c)], abs=1e-12 * scale)
        assert got.passed == oracle.passed


def kernel_spectra(data, p, tied):
    """Three ascending spectra of length p: on a coarse grid, where many sums tie exactly, or any floats in [-1e3, 1e3]."""
    if tied:
        values = st.integers(-6, 6).map(lambda k: k / 2)
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    return [np.sort(data.draw(st.lists(values, min_size=p, max_size=p), label=name)) for name in "abc"]


@settings(max_examples=150, deadline=None)
@given(p=st.integers(0, 20), tied=st.booleans(), data=st.data())
def test_sum_kernels_match_their_table_and_gather_oracles_byte_for_byte(p, tied, data):
    """Same tuples, pairs and tie rule (lower i, then lower j) as the index-table kernels, and the same bytes."""
    a, b, c = kernel_spectra(data, p, tied)

    def dumps(cases):
        return [json.dumps(case.to_dict()) for case in cases]

    for kind, (x, y, z) in (("lambda", (a, b, c)), ("mu", (a[::-1], b[::-1], c[::-1]))):
        got = _lidskii_cases(kind, x, y, z, DEFAULT_TOL)
        assert dumps(got) == dumps(table_lidskii_cases(kind, x, y, z, DEFAULT_TOL))
    got = _thompson_freede_cases(a, b, c, DEFAULT_TOL)
    assert dumps(got) == dumps(table_thompson_freede_cases(a, b, c, DEFAULT_TOL))


def test_thompson_freede_makes_at_most_one_argmin_per_size(monkeypatch):
    calls = []
    argmin = np.argmin

    def counting_argmin(*args, **kwargs):
        calls.append(1)
        return argmin(*args, **kwargs)

    monkeypatch.setattr(np, "argmin", counting_argmin)
    rng = np.random.default_rng(SEED)
    for p in (1, 5, 12, 20):
        calls.clear()
        a, b, c = (np.sort(rng.normal(size=p)) for _ in range(3))
        assert len(_thompson_freede_cases(a, b, c, DEFAULT_TOL)) == p
        assert len(calls) <= p


def test_thompson_freede_notes_a_missing_positive_block():
    from kreinval.cli import SuiteConfig, run_instance

    (report,) = run_instance(SuiteConfig(p=0, q=2, suites=("thompson_freede",)), 0)
    assert report.passed and report.cases == () and report.worst_margin is None
    assert report.notes == ("no positive-type block",)


def ordered_margins(a, b, c, index_sets):
    """The Thompson-Freede margin of each pair (i, j), or with j = None the Lidskii margin of tuple i."""
    lead = [float(np.sum(b[:m])) for m in range(len(b) + 1)]
    a, b, c = a.tolist(), b.tolist(), c.tolist()
    margins = []
    for i, j in index_sets:
        if j is None:
            lhs = ordered_sum(c[x - 1] for x in i)
            rhs = ordered_sum(a[x - 1] for x in i) + lead[len(i)]
        else:
            lhs = ordered_sum(c[x + y - h - 1] for h, (x, y) in enumerate(zip(i, j), 1))
            rhs = ordered_sum(a[x - 1] for x in i) + ordered_sum(b[y - 1] for y in j)
        margins.append(lhs - rhs)
    return margins


def the_one_violation(margins):
    """The position of the one margin below the bound, after checking that no other comes near it."""
    (bad,) = [k for k, margin in enumerate(margins) if margin < -DEFAULT_TOL]
    assert sorted(margins)[1] > -1e-12
    return bad


def test_thompson_freede_fails_the_one_violating_pair_of_10945():
    """Synthetic spectra at p = 10 where exactly one of the 10945 pairs violates the bound; the kernel fails it.

    Shifting c by -s moves the margin of every size-m pair by -m s.  An s
    halfway between the two least values of margin / m leaves exactly one
    pair below the bound.  A uniform sample of 200 pairs would hold it with
    probability 200 / 10945.
    """
    p = 10
    rng = np.random.default_rng(SEED)
    a, b, c = (np.sort(rng.uniform(-2.0, 2.0, p)) for _ in range(3))
    pairs = brute_pairs(p)
    assert len(pairs) == 10945
    ratios = np.array(ordered_margins(a, b, c, pairs)) / [len(i) for i, _ in pairs]
    first, second = np.sort(ratios)[:2]
    assert second - first > 1e-6
    c = c - (first + second) / 2
    margins = ordered_margins(a, b, c, pairs)
    i, j = pairs[bad := the_one_violation(margins)]
    assert 1 < len(i) < p  # neither a Weyl bound nor the trace
    cases = _thompson_freede_cases(a, b, c, DEFAULT_TOL)
    assert [len(case.indices) for case in cases] == list(range(1, p + 1))
    (failed,) = [case for case in cases if not case.passed]
    assert failed.case_id == f"i={','.join(map(str, i))};j={','.join(map(str, j))}"
    assert failed.margin == margins[bad]


def test_lidskii_fails_the_one_violating_tuple_of_1023():
    """Synthetic spectra at p = 10 where exactly one of the 1023 tuples violates the bound; the kernel fails it.

    The spectra of Hermitian A, B and A + B meet every bound.  Raising b_4
    and lowering b_5 by t moves the bounds of size 4 alone, by -t; a t
    halfway between their two least margins leaves one tuple below its
    bound.  Negated spectra make the same tuple the one negative-type
    violation, with the same margin.
    """
    p = 10
    rng = np.random.default_rng(SEED)
    A, B = (X + X.conj().T for X in (rng.normal(size=(2, p, p)) + 1j * rng.normal(size=(2, p, p))))
    a, b, c = (np.linalg.eigvalsh(X) for X in (A, B, A + B))
    tuples = [(t, None) for m in range(1, p + 1) for t in itertools.combinations(range(1, p + 1), m)]
    assert len(tuples) == 1023
    margins = ordered_margins(a, b, c, tuples)
    assert min(margins) > -1e-12
    first, second = sorted(margin for (t, _), margin in zip(tuples, margins) if len(t) == 4)[:2]
    assert second - first > 1e-6
    b[3] += (first + second) / 2
    b[4] -= (first + second) / 2
    margins = ordered_margins(a, b, c, tuples)
    ids = ",".join(map(str, tuples[bad := the_one_violation(margins)][0]))
    for kind, sign in (("lambda", 1.0), ("mu", -1.0)):
        cases = _lidskii_cases(kind, sign * a, sign * b, sign * c, DEFAULT_TOL)
        assert [len(case.indices) for case in cases] == list(range(1, p + 1))
        (failed,) = [case for case in cases if not case.passed]
        assert failed.case_id == f"{kind}:{ids}"
        assert failed.margin == margins[bad]


def test_ordered_tuple_sums_are_python_sums_bit_for_bit():
    """``_ordered_sum`` and the oracles' table gather add left to right from +0.0, as Python's sum did before 3.12."""
    rng = np.random.default_rng(SEED)
    rows = [[-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [1e16, 1.0, -1e16], [0.1, 0.2, 0.3]]
    rows += [list(r) for r in rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 9, (40, 6))]
    rows += [row[: k + 1] for k, row in enumerate(rows[6:12])]
    values = [x for row in rows for x in row]
    width, starts = max(map(len, rows)), list(itertools.accumulate(map(len, rows), initial=0))
    got = [_ordered_sum(values, range(s + 1, s + len(row) + 1)).hex() for s, row in zip(starts, rows)]
    assert got == [functools.reduce(operator.add, row, 0.0).hex() for row in rows]
    # each row reads its own entries of ``values``, padded with the slot past them
    table = [list(range(s, s + len(row))) + [len(values)] * (width - len(row)) for s, row in zip(starts, rows)]
    assert got == [x.hex() for x in _tuple_sums(np.array(values), np.array(table)).tolist()]
    if sys.version_info < (3, 12):  # from 3.12 on, sum compensates
        assert got == [sum(row).hex() for row in rows]
    assert got[:4] == [(0.0).hex()] * 4


@pytest.mark.parametrize("stale", [None, 2])
def test_a_positional_size_bound_is_refused_not_read_as_a_tolerance(stale, sampler_cfg):
    """The tolerance is keyword-only, so a call written for the retired tuple-size bound raises."""
    A, B, _ = sampled_pair(Signature(3, 2), 0, sampler_cfg)
    with pytest.raises(TypeError):
        check_lidskii_wielandt(A, B, stale)
    with pytest.raises(TypeError):
        check_wielandt_flag(A, stale)


def test_a_case_passes_at_margin_minus_tol_and_not_at_nan():
    ids, indices = ["a", "b", "c", "d", "e"], [(1,), np.array([1, 2]), (), (3,), (2,)]
    lhs, rhs = np.array([1.0, 0.5, 1.0, -0.0, 0.0]), np.array([0.5, 1.0, 1.0, 0.0, 1e-8])
    margin = np.array([0.5, -0.5, -1e-9, -0.0, -1e-8])
    got = [_make_case(*row, 1e-8) for row in zip(ids, indices, lhs, rhs, margin)]
    assert [c.passed for c in got] == [True, False, True, True, True]
    # numpy scalars in, Python values out, so the JSON report writes plain numbers
    assert all(type(x) is float for c in got for x in (c.lhs, c.rhs, c.margin, c.tol))
    assert all(type(i) is int for c in got for i in c.indices)
    assert not _make_case("nan", (), np.nan, 0.0, np.nan, 1e-8).passed
    assert pickle.loads(pickle.dumps(got)) == got  # cases cross process pools


SUM_CHECKS = {
    "trace": lambda A, B: check_trace_identity(A, B),
    "weyl": lambda A, B: check_weyl(A, B),
    "lidskii": lambda A, B: check_lidskii_wielandt(A, B),
    "thompson_freede": lambda A, B: check_thompson_freede(A, B),
    "polyhedral_sum": lambda A, B: polyhedral.check_sum_membership(A, B),
}


def patch_sum_spectra(monkeypatch, spectra):
    """Make the sum checks read ``spectra``, the five values of ``_sum_spectra``, for any pair."""
    monkeypatch.setattr(checks, "_sum_spectra", lambda A, B: spectra)


def scaled_spectrum(spectrum, unit):
    return AdmissibleSpectrum(spectrum.signature, spectrum.lambdas * unit, spectrum.mus * unit)


@pytest.mark.parametrize("name", sorted(SUM_CHECKS))
def test_sums_that_overflow_are_reported_in_units_of_a_power_of_two(name, monkeypatch, fresh_memos):
    """Eigenvalues of A + B near 1.2e308 add past the largest float.

    The check then reports what it reports on the spectra times 2^-k, exact
    for normal numbers, with a note naming 2^k: every value finite, and no
    RuntimeWarning, which the pytest config turns into an error.
    """
    sig, cfg = Signature(2, 1), SamplerConfig(gap_min=6e307)
    for index in range(2):
        rng = instance_rng(0, index)
        A, B = sample_planted(sig, cfg, rng)[0], sample_planted(sig, cfg, rng)[0]
        report = SUM_CHECKS[name](A, B)
        assert all(np.isfinite([c.lhs, c.rhs, c.margin]).all() for c in report.cases)
        (note,) = report.notes
        k = int(note.removeprefix("values in units of 2^").split(":")[0])
        assert k > 0
        specA, specB, C, specC, _ = checks._sum_spectra(A, B)
        unit = 2.0**-k
        with monkeypatch.context() as patch:
            scaled_c = PseudoHermitianMatrix(sig, C.entries * unit)
            patch_sum_spectra(patch, (*(scaled_spectrum(s, unit) for s in (specA, specB)), scaled_c,
                                      scaled_spectrum(specC, unit), None))
            plain = SUM_CHECKS[name](A, B)
        assert plain.notes == () and plain.cases == report.cases


def at_top(spectrum, scale, top):
    """``spectrum`` times the power of two ``scale``, with its largest positive-type eigenvalue set to ``top``."""
    return AdmissibleSpectrum(spectrum.signature, [*spectrum.lambdas[:-1] * scale, top], spectrum.mus * scale)


@pytest.mark.parametrize("name", sorted(SUM_CHECKS) + ["ky_fan", "wielandt"])
def test_units_start_where_the_largest_value_reaches_the_bound(name, monkeypatch, fresh_memos):
    """One rule for every check that adds eigenvalues: units of 2^k from a largest |value| of 2^_SAFE_EXPONENT on.

    The spectra of a sampled (3,2) instance are taken to about 2^990, and
    the largest eigenvalue of A + B (of A, for ``ky_fan`` and ``wielandt``)
    is set to ``top``.  At the float below 2^_SAFE_EXPONENT a check reports
    no note and the cases it reports with no units rule at all.  At
    2^_SAFE_EXPONENT it reports k = 1 in every report and the cases of its
    values times 1/2, exact for normal numbers.  Whether the sums would
    overflow plays no part: here none does.
    """
    sig, cfg, scale = Signature(3, 2), SamplerConfig(), 2.0**990
    rng = instance_rng(0, 0)
    A, B = sample_planted(sig, cfg, rng)[0], sample_planted(sig, cfg, rng)[0]
    if name in SUM_CHECKS:
        specA, specB, C, specC, _ = checks._sum_spectra(A, B)

        def run(top, unit, patch):
            scaled_c = PseudoHermitianMatrix(sig, C.entries * (scale * unit))
            patch_sum_spectra(patch, (*(scaled_spectrum(s, scale * unit) for s in (specA, specB)), scaled_c,
                                      at_top(specC, scale * unit, top * unit), None))
            return [SUM_CHECKS[name](A, B)]
    else:
        check = {"ky_fan": checks.check_ky_fan, "wielandt": checks.check_wielandt_flag}[name]
        record = checks._positive_eigen(A)

        def run(top, unit, patch):
            system = dataclasses.replace(record.system, spectrum=at_top(record.system.spectrum, scale * unit, top * unit))
            scaled = checks._positive_record(system, record.eigen * (scale * unit), record.certs * (scale * unit))
            patch.setattr(checks, "_positive_eigen", lambda M: scaled)
            return check(A)

    bound = 2.0**checks._SAFE_EXPONENT
    below = np.nextafter(bound, 0.0)
    with monkeypatch.context() as patch:
        reports = run(below, 1.0, patch)
        patch.setattr(checks, "_SAFE_EXPONENT", checks._SAFE_EXPONENT + 100)
        as_they_are = run(below, 1.0, patch)
    assert all(np.isfinite([c.lhs, c.rhs, c.margin]).all() for r in reports for c in r.cases)
    assert [r.notes for r in reports] == [()] * len(reports)
    assert [r.cases for r in reports] == [r.cases for r in as_they_are]
    with monkeypatch.context() as patch:
        reports = run(bound, 1.0, patch)
        halved = run(bound, 0.5, patch)
    assert [r.notes for r in reports] == [(checks._UNITS_NOTE.format(1),)] * len(reports)
    assert all(r.notes[0].startswith("values in units of 2^1:") for r in reports)
    assert [r.notes for r in halved] == [()] * len(halved)
    assert [r.cases for r in reports] == [r.cases for r in halved]


@pytest.mark.parametrize("name", ["ky_fan", "wielandt"])
def test_variational_sums_that_overflow_are_reported_in_units_of_a_power_of_two(name, monkeypatch, fresh_memos):
    """Three eigenvalues of A near 6e307 add past the largest float.

    ``ky_fan`` and ``wielandt`` then report what they report on A's record
    times 2^-k (spectrum, compression, diagonal and certificates), exact for
    normal numbers, with the note of the sum checks in every report: every
    value finite, and no RuntimeWarning.
    """
    check = {"ky_fan": checks.check_ky_fan, "wielandt": checks.check_wielandt_flag}[name]
    sig, cfg = Signature(3, 2), SamplerConfig(gap_min=6e307)
    for index in range(2):
        A = sample_planted(sig, cfg, instance_rng(0, index))[0]
        reports = check(A)
        assert all(np.isfinite([c.lhs, c.rhs, c.margin]).all() for r in reports for c in r.cases)
        notes = {r.notes for r in reports}
        assert len(notes) == 1
        (note,) = notes.pop()
        k = int(note.removeprefix("values in units of 2^").split(":")[0])
        assert k > 0
        record, unit = checks._positive_eigen(A), 2.0**-k
        spectrum = scaled_spectrum(record.system.spectrum, unit)
        system = dataclasses.replace(record.system, spectrum=spectrum)
        scaled = checks._positive_record(system, record.eigen * unit, record.certs * unit)
        with monkeypatch.context() as patch:
            patch.setattr(checks, "_positive_eigen", lambda M: scaled)
            plain = check(A)
        assert [r.notes for r in plain] == [()] * len(reports)
        assert [r.cases for r in plain] == [r.cases for r in reports]


def test_variational_values_below_the_bound_are_read_as_they_are(fresh_memos):
    """Below 2^_SAFE_EXPONENT the record's own arrays are read, with no note."""
    A = sample_planted(Signature(3, 2), SamplerConfig(), instance_rng(0, 0))[0]
    record = checks._positive_eigen(A)
    lambdas, eigen, diagonal, cert_min, notes = checks._record_in_units(record)
    assert lambdas is record.system.spectrum.lambdas and eigen is record.eigen
    assert diagonal is record.diagonal and cert_min is record.cert_min and notes == ()


def test_sum_values_below_the_bound_are_read_as_they_are(fresh_memos):
    """Below 2^_SAFE_EXPONENT the sum checks read the spectra's own blocks and the diagonal as given, with no note."""
    sig, cfg = Signature(3, 2), SamplerConfig()
    rng = instance_rng(0, 0)
    A, B = sample_planted(sig, cfg, rng)[0], sample_planted(sig, cfg, rng)[0]
    specA, specB, C, specC, _ = checks._sum_spectra(A, B)
    diagonal = np.diagonal(C.entries)
    values, notes = checks._sum_blocks((specA, specB, specC), diagonal)
    want = [specA.lambdas, specA.mus, specB.lambdas, specB.mus, specC.lambdas, specC.mus, diagonal]
    assert notes == () and len(values) == len(want)
    assert all(got is block for got, block in zip(values, want))
