"""Acceptance gate: one test per shipped guarantee.

Each test pins the tolerances and sampling budgets of one end-to-end
guarantee, so ``pytest -v tests/test_acceptance.py`` prints a single
pass/fail line per criterion.  Shared instance pools keep the whole module
fast; criterion 1 measures its own wall time against a hard budget.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from kreinval.checks import (
    check_courant_fischer,
    check_ky_fan,
    check_lidskii_wielandt,
    check_thompson_freede,
    check_trace_identity,
    check_weyl,
    check_wielandt_flag,
)
from kreinval.cli import SUITES, SuiteConfig, run_suite
from kreinval.core import AdmissibleSpectrum, PseudoHermitianMatrix, Signature
from kreinval.fileio import write_matrix
from kreinval.polyhedral import (
    build_region,
    check_diag_membership,
    check_sum_membership,
    lp_feasible,
)
from kreinval.sampling import SamplerConfig, instance_rng, sample_planted
from kreinval.spectral import (
    check_admissible,
    eigendecompose,
    negative_eigenbasis,
    positive_eigenbasis,
)

from conftest import (
    WITNESS_ROUNDOFF,
    _witness_traces,
    all_tuples,
    positive_compressions,
    rayleigh_columns,
    reference_lidskii,
    reference_wielandt,
    restricted_cone_samples,
    sampled_margins,
)

SIGNATURES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]
SEED = 20260818
BOUND_TOL = 1e-8  # one-sided inequality slack
WITNESS_TOL = 1e-9  # equality cases on eigenvector witnesses

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


@pytest.fixture(scope="module")
def cfg() -> SamplerConfig:
    return SamplerConfig()


@pytest.fixture(scope="module")
def instances(cfg):
    """Two planted instances per signature, shared by per-instance criteria."""
    pool = {}
    for snum, (p, q) in enumerate(SIGNATURES):
        sig = Signature(p, q)
        pool[(p, q)] = [
            sample_planted(sig, cfg, instance_rng(SEED, 1000 + 10 * snum + i))
            for i in range(2)
        ]
    return pool


@pytest.fixture(scope="module")
def pairs(cfg):
    """100 independent matrix pairs per signature, shared by sum criteria."""
    pool = {}
    for snum, (p, q) in enumerate(SIGNATURES):
        sig = Signature(p, q)
        rng = instance_rng(SEED, 2000 + snum)
        pool[(p, q)] = [
            (sample_planted(sig, cfg, rng)[0], sample_planted(sig, cfg, rng)[0])
            for _ in range(100)
        ]
    return pool


def test_criterion_01_planted_round_trip(cfg):
    """200 planted instances per signature recover their spectra in <= 10 s.

    The recovery error is measured against 1e-8 * cond(U)^2, the forward
    sensitivity of the planted conjugation.
    """
    start = time.perf_counter()
    worst = 0.0
    for snum, (p, q) in enumerate(SIGNATURES):
        sig = Signature(p, q)
        for i in range(200):
            rng = instance_rng(SEED, 4000 + 200 * snum + i)
            A, planted, U = sample_planted(sig, cfg, rng)
            recovered = check_admissible(A)
            err = max(
                float(np.max(np.abs(recovered.lambdas - planted.lambdas))),
                float(np.max(np.abs(recovered.mus - planted.mus))),
            )
            allowed = 1e-8 * U.cond**2
            assert err <= allowed, (
                f"signature ({p},{q}) instance {i}: error {err:.3e} "
                f"exceeds {allowed:.3e}"
            )
            worst = max(worst, err / allowed)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"1000 round trips took {elapsed:.2f} s (> 10 s)"


def test_criterion_02_cone_bound_sampling(cfg, instances):
    """10^3 cone vectors per block never beat the eigenvalue bounds.

    Positive vectors paired-orthogonal to the first k-1 positive-type
    eigenvectors have Rayleigh ratio >= lambda_k (k = 1 is the plain cone
    bound); negative vectors paired-orthogonal to the first l-1
    negative-type eigenvectors have ratio <= mu_l.  Eigenvector witnesses
    meet the bounds within 1e-9.
    """
    rng = instance_rng(SEED, 3)
    for (p, q), inst in instances.items():
        sig = Signature(p, q)
        for A, _, _ in inst:
            spec = check_admissible(A)
            system = eigendecompose(A)
            pos = positive_eigenbasis(system)  # ascending eigenvalues
            neg = negative_eigenbasis(system)  # ascending eigenvalues
            for k in range(1, p + 1):
                lam_k = float(spec.lambdas[k - 1])
                X = restricted_cone_samples(pos[:, k - 1 :], neg, 1000, rng)
                low = float(np.min(rayleigh_columns(A.entries, sig, X)))
                assert low >= lam_k - BOUND_TOL, (
                    f"({p},{q}) k={k}: sampled ratio {low:.12f} < "
                    f"lambda_k {lam_k:.12f}"
                )
                witness = rayleigh_columns(A.entries, sig, pos[:, k - 1 : k])[0]
                assert abs(witness - lam_k) <= WITNESS_TOL
            for l in range(1, q + 1):
                # mus are stored descending, eigenbasis columns ascending:
                # the orthocomplement of w_1..w_{l-1} keeps the q-l+1
                # smallest negative-type eigenvectors plus all positive ones
                mu_l = float(spec.mus[l - 1])
                Y = restricted_cone_samples(neg[:, : q - l + 1], pos, 1000, rng)
                high = float(np.max(rayleigh_columns(A.entries, sig, Y)))
                assert high <= mu_l + BOUND_TOL, (
                    f"({p},{q}) l={l}: sampled ratio {high:.12f} > "
                    f"mu_l {mu_l:.12f}"
                )
                witness = rayleigh_columns(
                    A.entries, sig, neg[:, q - l : q - l + 1]
                )[0]
                assert abs(witness - mu_l) <= WITNESS_TOL


def test_criterion_03_minmax_subspaces(instances):
    """Every positive k-subspace respects the min-max bound: certified, and 500 sampled frames agree.

    ``restricted_cert:k`` (1e-8) proves for every positive k-subspace a top
    Rayleigh ratio >= lambda_k, and the eigenvector subspaces attain
    equality within 1e-9.  The oracle is one stack of 500 width-p positive
    frames drawn in the test: each frame's k-th compression eigenvalue, the
    least top over its k-subspaces, stays >= lambda_k - 1e-8 wherever
    ``restricted_cert:k`` passes.  Every k gets its certified and witness
    cases, and every case must pass.
    """
    failures = []
    for (p, q), inst in instances.items():
        for j, (A, _, _) in enumerate(inst):
            rep = check_courant_fischer(A, tol=BOUND_TOL, equality_tol=WITNESS_TOL)
            assert [c.case_id for c in rep.cases] == [
                f"{kind}:{k}"
                for k in range(1, p + 1)
                for kind in ("minmax_witness", "restricted_cert", "restricted_witness")
            ]
            failures.extend(
                (p, q, j, c.case_id, c.margin) for c in rep.cases if not c.passed
            )
            sampled = sampled_margins(A, positive_compressions(A, 500, instance_rng(SEED, 300 + j)))
            by_id = {c.case_id: c for c in rep.cases}
            failures.extend(
                (p, q, j, f"minmax_sampled:{k}", sampled[f"minmax_sampled:{k}"])
                for k in range(1, p + 1)
                if by_id[f"restricted_cert:{k}"].passed and sampled[f"minmax_sampled:{k}"] < -BOUND_TOL
            )
    assert not failures, f"min-max violations: {failures}"


def test_criterion_04_partial_sum_frames(instances):
    """Every positive k-frame respects the partial-sum bound: certified, and 200 sampled frames agree.

    One report per k = 1, ..., p.  ``restricted_cert_min:k`` (1e-8), the
    least of ``courant_fischer``'s certificates 1, ..., k, proves
    trace >= lambda_1 + ... + lambda_k for every positive k-frame; the
    eigenframe attains equality within 1e-9.  The oracle is one stack of
    200 width-p positive frames drawn in the test: the least trace over the
    k-subspaces of each, eta_1 + ... + eta_k of its compression, stays
    >= lambda_1 + ... + lambda_k - 1e-8 wherever the certificate passes.
    """
    failures = []
    for (p, q), inst in instances.items():
        for j, (A, _, _) in enumerate(inst):
            reports = check_ky_fan(A, tol=BOUND_TOL, equality_tol=WITNESS_TOL)
            assert [r.descriptor["k"] for r in reports] == list(range(1, p + 1))
            certs = [c.lhs for c in check_courant_fischer(A).cases if c.case_id.startswith("restricted_cert")]
            sampled = sampled_margins(A, positive_compressions(A, 200, instance_rng(SEED, 400 + 10 * j)))
            for k, rep in enumerate(reports, start=1):
                assert [c.case_id for c in rep.cases] == [
                    f"restricted_cert_min:{k}",
                    f"partial_sum_witness:{k}",
                ]
                assert rep.cases[0].lhs == min(certs[:k])
                failures.extend(
                    (p, q, j, c.case_id, c.margin)
                    for c in rep.cases
                    if not c.passed
                )
                if rep.cases[0].passed and sampled[f"partial_sum_sampled:{k}"] < -BOUND_TOL:
                    failures.append((p, q, j, f"partial_sum_sampled:{k}", sampled[f"partial_sum_sampled:{k}"]))
    assert not failures, f"partial-sum violations: {failures}"


def test_criterion_05_sum_bounds(pairs):
    """100 pairs per signature: shift and tuple bounds hold, traces add.

    Single-index bounds and the full set of increasing index tuples are
    checked at 1e-8; the eigenvalue-sum identity is checked at 1e-9
    relative.  The tuple bounds report the worst tuple of each block and
    size, one case each, and every such case carries the least margin of
    its block and size over all tuples, as the exhaustive oracle finds it.
    """
    failures = []
    for (p, q), pool in pairs.items():
        for i, (A, B) in enumerate(pool):
            reports = (
                check_weyl(A, B, tol=BOUND_TOL),
                check_lidskii_wielandt(A, B, tol=BOUND_TOL),
                check_trace_identity(A, B, tol=WITNESS_TOL),
            )
            for rep in reports:
                failures.extend(
                    (p, q, i, rep.check_name, c.case_id, c.margin)
                    for c in rep.cases
                    if not c.passed
                )
            tuples = reports[1].cases
            assert len(tuples) == p + q, f"({p},{q}): {len(tuples)} tuple cases, not one per block and size"
            least = {}
            for o in reference_lidskii(A, B, tol=BOUND_TOL).cases:
                key = (o.case_id.split(":")[0], len(o.indices))
                least[key] = min(least.get(key, np.inf), o.margin)
            for c in tuples:
                worst = least[(c.case_id.split(":")[0], len(c.indices))]
                assert abs(c.margin - worst) <= WITNESS_ROUNDOFF, (p, q, i, c.case_id, c.margin, worst)
    assert not failures, f"sum-bound violations: {failures}"


def test_criterion_06_paired_tuple_bounds(pairs):
    """100 pairs per signature: paired-tuple bounds hold on the same harness.

    This surveys an empirical inequality family; any violation is preserved
    as a counterexample artifact under tests/artifacts/ and fails the build.
    """
    violations = []
    for (p, q), pool in pairs.items():
        for i, (A, B) in enumerate(pool):
            rep = check_thompson_freede(A, B, tol=BOUND_TOL)
            bad = [c for c in rep.cases if not c.passed]
            if bad:
                ARTIFACT_DIR.mkdir(exist_ok=True)
                path_a = ARTIFACT_DIR / f"paired_tuple_A_p{p}q{q}_{i}.json"
                path_b = ARTIFACT_DIR / f"paired_tuple_B_p{p}q{q}_{i}.json"
                write_matrix(A, path_a)
                write_matrix(B, path_b)
                violations.append(
                    {
                        "signature": (p, q),
                        "pair": i,
                        "cases": [(c.case_id, c.margin) for c in bad],
                        "artifacts": (str(path_a), str(path_b)),
                    }
                )
    assert not violations, f"counterexamples preserved: {violations}"


def test_criterion_07_flag_compressions(instances):
    """Flag compressions: bounded above on the eigenflag, attained on every flag, at every tuple.

    One report per shape of index tuple, top index r and size m, in
    r-then-m order.  On the eigenvector flag the certified supremum over
    every subordinate frame, tuple sum + m ||eigen - diag(lambda)||_2,
    never beats the tuple sum (1e-8).  ``restricted_cert_min:r`` (1e-8)
    proves eta_i >= lambda_i for i <= r on every positive flag, so
    sum_j eta_{i_j} reaches the tuple sum.  Each report's cases are the
    exhaustive oracle's cases of its shape.  The oracle draws 100 width-p
    flags in the test, shared by every tuple: wherever the shape's
    certificate passes, each flag's r-dimensional compression interlaces
    from above (1e-8) and sum_j eta_{i_j} reaches the tuple sum (1e-8) at
    every tuple, and the Hermitian-Wielandt witness frame subordinate to
    each flag reaches that sum for every tuple to roundoff.  Every case
    must pass, and every report has every case.
    """
    failures = []
    for (p, q), inst in instances.items():
        A = inst[0][0]
        tuples = all_tuples(p)
        M = positive_compressions(A, 100, instance_rng(SEED, 700))
        reports = check_wielandt_flag(A, tol=BOUND_TOL)
        shapes = [(r, m) for r in range(1, p + 1) for m in range(1, r + 1)]
        assert [(rep.descriptor["top"], rep.descriptor["m"]) for rep in reports] == shapes
        oracle = reference_wielandt(A, M, tol=BOUND_TOL)
        assert [tuple(rep.descriptor["index_tuple"]) for rep in oracle] == tuples
        certified = {}
        for (r, m), rep in zip(shapes, reports):
            failures.extend((p, q, (r, m), c.case_id, c.margin) for c in rep.cases if not c.passed)
            ids = [c.case_id for c in rep.cases]
            eigen = ["eigenflag_max", "eigenflag_witness"] + (["eigenflag_witness_etas"] if r == 1 else [])
            if ids != [*eigen, f"restricted_cert_min:{r}"]:
                failures.append((p, q, (r, m), "case_ids", ids))
            certified[r, m] = rep.cases[-1].passed
        for idx, rep in zip(tuples, oracle):
            by_id = {c.case_id: c for c in rep.cases}
            if by_id[f"restricted_cert_min:{idx[-1]}"] != reports[shapes.index((idx[-1], len(idx)))].cases[-1]:
                failures.append((p, q, idx, "certificate"))
            if certified[idx[-1], len(idx)]:
                failures.extend(
                    (p, q, idx, c.case_id, c.margin)
                    for c in rep.cases
                    if c.case_id.startswith(("interlace_min", "witness:")) and not c.passed
                )
        spectra = {r: np.linalg.eigh(M[:, :r, :r]) for r in range(1, p + 1)}
        traces = _witness_traces(M, spectra, tuples)
        for idx, rep, trace in zip(tuples, oracle, traces):
            sums = np.array([c.lhs for c in rep.cases if c.case_id.startswith("witness:")])
            assert len(sums) == 100
            scale = np.maximum(1.0, np.max(np.abs(spectra[idx[-1]][0]), axis=-1))
            if np.any(trace < sums - WITNESS_ROUNDOFF * scale):
                failures.append((p, q, idx, "witness_frame", float(np.min(trace - sums))))
    assert not failures, f"flag-compression violations: {failures}"


def test_criterion_08_polyhedral_membership(cfg, pairs):
    """The membership LP certifies diagonals, the Lidskii bounds sum spectra; closed forms agree.

    100 instances per signature for the diagonal query, with reconstruction
    residuals <= 1e-9, and 100 pairs per signature for the sum query, whose
    trace and partial-sum cases all pass at tol 1e-9, plus the three
    rank-one closed-form queries with known verdicts.
    """
    failures = []
    for snum, (p, q) in enumerate(SIGNATURES):
        sig = Signature(p, q)
        for i in range(100):
            A, _, _ = sample_planted(sig, cfg, instance_rng(SEED, 8000 + 100 * snum + i))
            rep = check_diag_membership(A, tol=1e-9)
            failures.extend(
                (p, q, i, c.case_id, c.margin) for c in rep.cases if not c.passed
            )
    for (p, q), pool in pairs.items():
        for i, (A, B) in enumerate(pool):
            rep = check_sum_membership(A, B, tol=1e-9)
            failures.extend(
                (p, q, i, c.case_id, c.margin, rep.notes)
                for c in rep.cases
                if not c.passed
            )
    assert not failures, f"membership failures: {failures}"

    # closed forms for the rank-one-plus-rank-one region based at (2, 0)
    region = build_region(AdmissibleSpectrum(Signature(1, 1), [2.0], [0.0]))
    cert = lp_feasible(region, [2.5, -0.5])
    assert cert.feasible and cert.residual <= 1e-9
    assert float(np.sum(cert.generator_weights)) == pytest.approx(0.5, abs=1e-9)
    cert = lp_feasible(region, [2.5, -0.4])
    assert not cert.feasible
    assert cert.gap == pytest.approx(0.1, abs=1e-9)  # coordinate-sum mismatch
    cert = lp_feasible(region, [1.5, 0.5])  # would need a negative cone weight
    assert not cert.feasible and cert.gap > 1e-9


def test_criterion_09_minkowski_cross_check(cfg):
    """The 2x2 traceless model reproduces Minkowski norms of summed vectors.

    Timelike future vectors (x, y, z) map to [[z, x+iy], [-x+iy, -z]];
    the eigensolver applied to a sum of two such matrices must return
    +/- sqrt(z^2 - x^2 - y^2) of the summed vector to 1e-10, and the
    reverse triangle inequality |a+b| >= |a| + |b| holds with margin
    >= -1e-10.
    """
    sig = Signature(1, 1)
    rng = instance_rng(SEED, 9)

    def draw(count: int) -> np.ndarray:
        x = rng.normal(size=count)
        y = rng.normal(size=count)
        z = np.hypot(x, y) + 0.1 + np.abs(rng.normal(size=count))
        return np.stack([x, y, z], axis=1)

    def embed(v: np.ndarray) -> np.ndarray:
        x, y, z = v
        return np.array([[z, x + 1j * y], [-x + 1j * y, -z]], dtype=complex)

    def mnorm(v: np.ndarray) -> float:
        return float(np.sqrt(v[2] ** 2 - v[0] ** 2 - v[1] ** 2))

    va = draw(1000)
    vb = draw(1000)
    worst_eig = 0.0
    worst_rev = np.inf
    for a, b in zip(va, vb):
        C = PseudoHermitianMatrix(sig, embed(a) + embed(b))
        spec = check_admissible(C)
        c = a + b
        nc = mnorm(c)
        worst_eig = max(
            worst_eig,
            abs(float(spec.lambdas[0]) - nc),
            abs(float(spec.mus[0]) + nc),
        )
        worst_rev = min(worst_rev, nc - (mnorm(a) + mnorm(b)))
    assert worst_eig <= 1e-10, f"worst eigenvalue deviation {worst_eig:.3e}"
    assert worst_rev >= -1e-10, f"reverse triangle margin {worst_rev:.3e}"


def _majorized(x: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """Hardy-Littlewood-Polya order: prefix sums of x^desc below v^desc."""
    xs = np.sort(np.asarray(x, dtype=float))[::-1]
    vs = np.sort(np.asarray(v, dtype=float))[::-1]
    prefix = np.cumsum(xs) - np.cumsum(vs)
    return bool(np.all(prefix <= tol) and abs(prefix[-1]) <= tol)


def test_criterion_10_hermitian_degeneration(cfg):
    """With q = 0 every suite agrees with a plain Hermitian oracle.

    Spectra, bound targets, and witness values are recompared case by case
    against numpy's Hermitian eigensolver at 1e-9; membership verdicts are
    recompared against prefix-sum majorization, which characterizes the
    permutohedron exactly when the shift cone is empty.
    """
    for p in (2, 3):
        sig = Signature(p, 0)
        for i in range(3):
            A, _, _ = sample_planted(sig, cfg, instance_rng(SEED, 10000 + 10 * p + i))
            B, _, _ = sample_planted(sig, cfg, instance_rng(SEED, 10050 + 10 * p + i))
            oa = np.linalg.eigvalsh(A.entries)
            ob = np.linalg.eigvalsh(B.entries)
            oc = np.linalg.eigvalsh(A.entries + B.entries)

            spec = check_admissible(A)
            assert float(np.max(np.abs(spec.lambdas - oa))) <= WITNESS_TOL
            assert spec.mus.size == 0

            rep = check_trace_identity(A, B, tol=WITNESS_TOL)
            by_id = {c.case_id: c for c in rep.cases}
            assert abs(by_id["spectrum_sum"].lhs - float(np.sum(oc))) <= WITNESS_TOL
            assert abs(by_id["spectrum_sum"].rhs - float(np.sum(oa) + np.sum(ob))) <= WITNESS_TOL
            assert rep.passed

            rep = check_weyl(A, B, tol=BOUND_TOL)
            assert rep.passed
            for c in rep.cases:
                k = c.indices[0]
                assert abs(c.lhs - oc[k - 1]) <= WITNESS_TOL
                assert abs(c.rhs - (oa[k - 1] + ob[0])) <= WITNESS_TOL

            rep = check_lidskii_wielandt(A, B, tol=BOUND_TOL)
            assert rep.passed
            for c in rep.cases:
                m = len(c.indices)
                lhs = float(sum(oc[j - 1] for j in c.indices))
                rhs = float(sum(oa[j - 1] for j in c.indices) + np.sum(ob[:m]))
                assert abs(c.lhs - lhs) <= WITNESS_TOL
                assert abs(c.rhs - rhs) <= WITNESS_TOL

            rep = check_thompson_freede(A, B, tol=BOUND_TOL)
            assert rep.passed
            for c in rep.cases:
                left, right = c.case_id.split(";")
                ti = tuple(int(s) for s in left.removeprefix("i=").split(","))
                tj = tuple(int(s) for s in right.removeprefix("j=").split(","))
                lhs = float(sum(oc[j - 1] for j in c.indices))
                rhs = float(sum(oa[a - 1] for a in ti) + sum(ob[b - 1] for b in tj))
                assert abs(c.lhs - lhs) <= WITNESS_TOL
                assert abs(c.rhs - rhs) <= WITNESS_TOL

            rep = check_courant_fischer(A, tol=BOUND_TOL, equality_tol=WITNESS_TOL)
            assert rep.passed
            for c in rep.cases:
                k = c.indices[0]
                if c.case_id.startswith("restricted_cert"):
                    # at q = 0, H_k is A - lambda_k I on eigenvectors k, ..., p, whose least eigenvalue is 0
                    assert c.rhs == 0.0 and abs(c.lhs) <= WITNESS_TOL
                    continue
                assert abs(c.rhs - oa[k - 1]) <= WITNESS_TOL
                if c.case_id.endswith("witness:" + str(k)):
                    assert abs(c.lhs - oa[k - 1]) <= WITNESS_TOL

            reports = check_ky_fan(A, tol=BOUND_TOL, equality_tol=WITNESS_TOL)
            assert len(reports) == p
            for k, rep in enumerate(reports, start=1):
                assert rep.passed
                certificate, witness = rep.cases
                # at q = 0, H_j is A - lambda_j I on eigenvectors j, ..., p: each least eigenvalue is 0
                assert certificate.rhs == 0.0 and abs(certificate.lhs) <= WITNESS_TOL
                target = float(np.sum(oa[:k]))
                assert abs(witness.rhs - target) <= WITNESS_TOL
                assert abs(witness.lhs - target) <= WITNESS_TOL

            reports = check_wielandt_flag(A, tol=BOUND_TOL)
            assert len(reports) == p * (p + 1) // 2
            for rep in reports:
                assert rep.passed
                eigenflag, deviation, *_, certificate = rep.cases
                assert certificate.case_id == f"restricted_cert_min:{rep.descriptor['top']}"
                assert certificate.rhs == 0.0 and abs(certificate.lhs) <= WITNESS_TOL
                assert abs(eigenflag.rhs - float(sum(oa[j - 1] for j in eigenflag.indices))) <= WITNESS_TOL
                assert deviation.case_id == "eigenflag_witness" and deviation.lhs <= WITNESS_TOL

            # diagonal membership coincides with spectral majorization
            rep = check_diag_membership(A, tol=1e-9)
            assert rep.passed
            diag = np.diag(A.entries).real
            assert _majorized(diag, oa)
            region = build_region(spec)
            bump = np.sort(oa)[::-1] + np.concatenate(
                [[0.5, -0.5], np.zeros(p - 2)]
            )
            cert = lp_feasible(region, bump)
            assert cert.feasible == _majorized(bump, oa) == False  # noqa: E712

            rep = check_sum_membership(A, B, tol=1e-9)
            assert rep.passed
            specB = check_admissible(B)
            specC = check_admissible(
                PseudoHermitianMatrix(sig, A.entries + B.entries)
            )
            assert _majorized(
                specC.canonical_vector() - spec.canonical_vector(),
                specB.canonical_vector(),
            )


def test_criterion_11_deterministic_reports(tmp_path):
    """Identical configs produce byte-identical reports, meta record aside.

    The JSON report is compared line by line with the meta record (wall
    time, timestamp) dropped; the CSV export is compared whole.
    """
    def make(out: Path, fmt: str) -> SuiteConfig:
        return SuiteConfig(
            p=2,
            q=1,
            instances=4,
            seed=77,
            suites=SUITES,
            out=str(out),
            format=fmt,
        )

    def body(path: Path) -> list[str]:
        lines = path.read_text().splitlines()
        kept = [ln for ln in lines if json.loads(ln).get("record") != "meta"]
        assert len(kept) == len(lines) - 1, "exactly one meta record expected"
        return kept

    summary_a = run_suite(make(tmp_path / "a.jsonl", "json"))
    summary_b = run_suite(make(tmp_path / "b.jsonl", "json"))
    assert summary_a.passed and summary_b.passed
    assert body(tmp_path / "a.jsonl") == body(tmp_path / "b.jsonl")

    run_suite(make(tmp_path / "a.csv", "csv"))
    run_suite(make(tmp_path / "b.csv", "csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
