"""Polyhedral spectral region: orbit polytope plus a non-compact shift cone.

The region attached to a classified spectrum is the Minkowski sum of the
convex hull of all block-wise permutations of the canonical-order vector
(positive-type block and negative-type block permuted independently) and
the cone spanned by e_i - e_j for every positive-block index i and
negative-block index j.  Diagonal membership is decided by a Phase-I simplex
on the convexity-plus-coordinates equality system; sum membership, in closed
form, by the Lidskii bounds (``check_sum_membership``).

Query vectors use canonical diagonal coordinate order: the positive-type
block descending, then the negative-type block descending.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .checks import (
    CheckReport,
    _finalize_report,
    _in_units,
    _inadmissible_sum_report,
    _lidskii_cases,
    _make_case,
    _require_same_signature,
    _sum_spectra,
)
from .core import AdmissibleSpectrum, PseudoHermitianMatrix, Signature, _total
from .errors import ShapeMismatch, SizeCapExceeded
from .spectral import check_admissible

#: largest allowed orbit (p! * q!) before build_region refuses
VERTEX_CAP = 40320
LP_TOL = 1e-9


@dataclass(frozen=True)
class PolyhedralRegion:
    """Vertices (rows), cone generators (rows), and the canonical base point."""

    signature: Signature
    base_point: np.ndarray
    vertices: np.ndarray
    generators: np.ndarray

    def __post_init__(self) -> None:
        n = self.signature.n
        base = np.asarray(self.base_point, dtype=float).reshape(-1)
        verts = np.asarray(self.vertices, dtype=float)
        gens = np.asarray(self.generators, dtype=float)
        if base.size != n or verts.ndim != 2 or verts.shape[1] != n:
            raise ShapeMismatch("base point and vertices must live in dimension n")
        if gens.size and (gens.ndim != 2 or gens.shape[1] != n):
            raise ShapeMismatch("generators must live in dimension n")
        # vertices permute the base point's doubles, so their sums differ by
        # roundoff relative to the size of its coordinates
        scale = max(1.0, float(np.abs(base).sum()))
        if np.abs(verts.sum(axis=1) - base.sum()).max(initial=0.0) > 1e-9 * scale:
            raise ValueError("vertex coordinate sums must match the base point")
        if gens.size and np.max(np.abs(gens.sum(axis=1)), initial=0.0) > 1e-12:
            raise ValueError("cone generators must have coordinate sum zero")
        for name, arr in (("base_point", base), ("vertices", verts), ("generators", gens)):
            a = np.array(arr)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def build_region(spectrum: AdmissibleSpectrum, *, vertex_cap: int = VERTEX_CAP) -> PolyhedralRegion:
    """Region of a classified spectrum: orbit polytope plus difference cone."""
    sig = spectrum.signature
    orbit = math.factorial(sig.p) * math.factorial(sig.q)
    if orbit > vertex_cap:
        raise SizeCapExceeded(f"orbit has {orbit} vertices, cap is {vertex_cap}")
    lam_desc = tuple(spectrum.lambdas[::-1])
    mu_desc = tuple(spectrum.mus)
    # spectra are our own stored doubles, so exact dedup is safe
    lam_perms = sorted(set(itertools.permutations(lam_desc))) if sig.p else [()]
    mu_perms = sorted(set(itertools.permutations(mu_desc))) if sig.q else [()]
    vertices = np.array(
        [lp + mp for lp in lam_perms for mp in mu_perms], dtype=float
    ).reshape(-1, sig.n)
    gens = []
    for i in range(sig.p):
        for j in range(sig.p, sig.n):
            g = np.zeros(sig.n)
            g[i] = 1.0
            g[j] = -1.0
            gens.append(g)
    generators = np.array(gens, dtype=float).reshape(-1, sig.n) if gens else np.zeros((0, sig.n))
    return PolyhedralRegion(sig, spectrum.canonical_vector(), vertices, generators)


@dataclass(frozen=True)
class FeasibilityCertificate:
    """LP verdict: convex weights over vertices, nonnegative cone weights.

    On feasible points ``residual`` bounds the reconstruction error in the
    max norm (including the convexity row); on infeasible points ``gap`` is
    the Phase-I objective, a total infeasibility measure.
    """

    feasible: bool
    vertex_weights: np.ndarray | None
    generator_weights: np.ndarray | None
    residual: float | None
    gap: float | None


def lp_feasible(region: PolyhedralRegion, point, tol: float = LP_TOL) -> FeasibilityCertificate:
    """Decide membership of a query point in the region.

    Coordinate sums are conserved by the region (vertices share the base sum,
    generators sum to zero), so a sum mismatch beyond ``tol`` is rejected
    before the LP runs.
    """
    x = np.asarray(point, dtype=float).reshape(-1)
    n = region.signature.n
    if x.size != n:
        raise ShapeMismatch(f"query point must have length {n}")
    mismatch = abs(x.sum() - float(region.base_point.sum()))
    if mismatch > tol:
        return FeasibilityCertificate(False, None, None, None, float(mismatch))

    V = region.vertices.shape[0]
    G = region.generators.shape[0]
    A = np.zeros((n + 1, V + G))
    A[:n, :V] = region.vertices.T
    if G:
        A[:n, V:] = region.generators.T
    A[n, :V] = 1.0
    b = np.concatenate([x, [1.0]])

    from .simplex import phase_one_feasible

    result = phase_one_feasible(A, b, tol=tol)
    if not result.feasible:
        return FeasibilityCertificate(False, None, None, None, result.objective)
    t = result.x[:V]
    s = result.x[V:]
    residual = float(np.max(np.abs(A @ result.x - b)))
    return FeasibilityCertificate(True, t, s, residual, None)


def canonical_block_order(values: np.ndarray, sig: Signature) -> np.ndarray:
    """Sort the first p and the last q entries descending, independently."""
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size != sig.n:
        raise ShapeMismatch(f"expected length {sig.n}, got {v.size}")
    return np.concatenate([np.sort(v[: sig.p])[::-1], np.sort(v[sig.p :])[::-1]])


def check_diag_membership(A: PseudoHermitianMatrix, tol: float = LP_TOL) -> CheckReport:
    """The reordered diagonal of an admissible matrix lies in its own region."""
    sig = A.signature
    spectrum = check_admissible(A)
    region = build_region(spectrum)
    diag = canonical_block_order(np.diag(A.entries).real, sig)
    cert = lp_feasible(region, diag, tol)
    error = cert.residual if cert.feasible else cert.gap
    case = _make_case("diagonal", (), error, 0.0, -error, tol)
    return _finalize_report("polyhedral_diag", sig, {"lp_tol": tol}, tol, [case])


def check_sum_membership(
    A: PseudoHermitianMatrix, B: PseudoHermitianMatrix, tol: float = LP_TOL
) -> CheckReport:
    """The spectrum of A + B lies in each summand's translated region.

    Checked both ways, on canonical vectors: ``sum_in_region_of_B`` holds
    spec(A + B) - spec(A) against the region of B, ``sum_in_region_of_A``
    spec(A + B) - spec(B) against the region of A.  A point d lies in the
    region of b exactly when the trace matches and, for every k, the k
    smallest positive-type entries of d sum to at least the k smallest of b
    and the k largest negative-type ones to at most the k largest of b
    (weak majorization, Marshall-Olkin-Arnold 5.A.9).  Those are the
    Lidskii bounds, so no region is built and no LP is run.

    Cases: ``trace``, total(A + B) against total(A) + total(B) with margin
    minus the mismatch; then, per direction and non-empty block, the
    ``_lidskii_cases`` case of least margin (lowest m on ties), its id
    prefixed by the direction.  Each block keeps its own case: with the
    trace matched, the full-block slacks of both blocks are equal in exact
    arithmetic, so one minimum over both would pick its block by roundoff.
    Sums that overflow are taken in units of a power of two
    (``checks._in_units``); every case, not only the least, is checked.
    """
    sig = _require_same_signature(A, B)
    descriptor = {"lp_tol": tol}
    specA, specB, _, specC, exc = _sum_spectra(A, B)
    if specC is None:
        return _inadmissible_sum_report("polyhedral_sum", sig, descriptor, tol, exc)

    def kernel(la, ma, lb, mb, lc, mc):
        total, expected = _total(lc, mc), _total(la, ma) + _total(lb, mb)
        cases = [_make_case("trace", (), total, expected, -abs(total - expected), tol)]
        for (base_l, base_m), (other_l, other_m) in (((la, ma), (lb, mb)), ((lb, mb), (la, ma))):
            cases += _lidskii_cases("lambda", base_l, other_l, lc, tol)
            cases += _lidskii_cases("mu", base_m, other_m, mc, tol)
        return cases

    # every case is checked for overflow, and then each block keeps its least
    every, notes = _in_units(kernel, (specA, specB, specC))
    cases, start = every[:1], 1
    for tag in ("sum_in_region_of_B", "sum_in_region_of_A"):
        for size in (sig.p, sig.q):
            if size:
                worst = min(every[start : start + size], key=lambda case: case.margin)
                cases.append(worst._replace(case_id=f"{tag}:{worst.case_id}"))
                start += size
    return _finalize_report("polyhedral_sum", sig, descriptor, tol, cases, notes=notes)
