"""Margin-reporting checks for spectra of sums and variational identities.

Every check returns a CheckReport: a list of cases, each carrying the two
sides of an inequality (or the two values an equality compares), a
sign-adjusted margin, and a tolerance.  A case passes when margin >= -tol;
one-sided bounds use the signed difference as the margin, two-sided
(equality) cases use minus the absolute deviation.

The pair checks (``trace``, ``weyl``, ``lidskii``, ``thompson_freede`` and
``polyhedral.check_sum_membership``) read the spectra of A, B and A + B
through one driver, ``_pair_report``: it matches the signatures, reads the
memo ``_sum_spectra``, chooses the unit (``_sum_blocks``) and finalizes the
report, so each check builds only its cases.  An inadmissible sum, one
whose eigenvalues are not finite included (``NonFiniteValue``), is reported
as a loud failing case instead of raising, so batch runs keep going.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .core import PseudoHermitianMatrix, Signature, _total, metric_diagonal
from .errors import ComplexSpectrum, DefectiveMatrix, GapViolation, NonFiniteValue, ShapeMismatch, WrongConeCount
from .geometry import _adjoint, gram
from .spectral import (
    ClassifiedEigenSystem,
    check_admissible,
    eigendecompose,
    positive_eigenbasis,
    solve_together,
)

DEFAULT_TOL = 1e-8
EQUALITY_TOL = 1e-9


class CheckCase(NamedTuple):
    """One compared pair of values with its sign-adjusted margin.

    An immutable named tuple: it compares equal to any tuple of the same
    seven values, and ``_replace`` gives a changed copy.
    """

    case_id: str
    indices: tuple[int, ...]
    lhs: float
    rhs: float
    margin: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        doc = self._asdict()
        doc["indices"] = list(self.indices)
        return doc


def _make_case(case_id: str, indices, lhs: float, rhs: float, margin: float, tol: float) -> CheckCase:
    margin = float(margin)
    tol = float(tol)
    return CheckCase(case_id, tuple(map(int, indices)), float(lhs), float(rhs), margin, tol, margin >= -tol)


class CheckReport(NamedTuple):
    """Outcome of one check on one instance.

    ``cases`` are the hard cases; ``passed`` means all of them passed and
    ``worst_margin`` is their minimum margin (None when there are no cases).
    Soft cases (best-effort searches) live in ``soft_cases`` with their pass
    fraction in ``soft_rate`` and never affect ``passed``.

    An immutable named tuple, as CheckCase is: it compares equal to any
    tuple of the same ten values.
    """

    check_name: str
    signature: tuple[int, int]
    descriptor: dict
    tol: float
    cases: tuple[CheckCase, ...]
    worst_margin: float | None
    passed: bool
    soft_cases: tuple[CheckCase, ...] = ()
    soft_rate: float | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        doc = self._asdict()
        doc.update(
            signature=list(self.signature),
            cases=[c.to_dict() for c in self.cases],
            soft_cases=[c.to_dict() for c in self.soft_cases],
            notes=list(self.notes),
        )
        return doc


def _finalize_report(
    check_name: str,
    sig: Signature,
    descriptor: dict,
    tol: float,
    cases,
    soft_cases=(),
    notes=(),
) -> CheckReport:
    cases = tuple(cases)
    soft_cases = tuple(soft_cases)
    margins = [c.margin for c in cases]
    soft_passed = [c.passed for c in soft_cases]
    return CheckReport(
        check_name,
        (sig.p, sig.q),
        descriptor,
        float(tol),
        cases,
        min(margins, default=None),
        all([c.passed for c in cases]),
        soft_cases,
        sum(soft_passed) / len(soft_passed) if soft_passed else None,
        tuple(notes),
    )


def _require_same_signature(A: PseudoHermitianMatrix, B: PseudoHermitianMatrix) -> Signature:
    if A.signature != B.signature:
        raise ShapeMismatch(
            f"signatures differ: ({A.signature.p}, {A.signature.q}) vs ({B.signature.p}, {B.signature.q})"
        )
    return A.signature


def matrix_sum(A: PseudoHermitianMatrix, B: PseudoHermitianMatrix) -> PseudoHermitianMatrix:
    """A + B as a validated matrix; structural residuals add, so the tol does too.

    Shifts add too (see ``kreinval.spectral``): when A and B both carry a
    ``shift_hint``, the sum carries their sum, and its solve then needs no
    ``eigvals`` when the summands' hints certified them.  Otherwise the sum
    has no hint.
    """
    sig = _require_same_signature(A, B)
    hint = None
    if A.shift_hint is not None and B.shift_hint is not None:
        hint = A.shift_hint + B.shift_hint
    return PseudoHermitianMatrix(sig, A.entries + B.entries, tol=A.tol + B.tol, shift_hint=hint)


@functools.lru_cache(maxsize=32)
def _sum_spectra(A: PseudoHermitianMatrix, B: PseudoHermitianMatrix):
    """Spectra of A, B, and A + B; the last is None plus the error when inadmissible.

    Inadmissible means any of the four failures ``eigendecompose`` raises
    for a matrix that no shift certifies, or ``NonFiniteValue`` for
    eigenvalues of A + B that are not finite: near the top of the float
    range the eigenvalues of a sum can overflow where the summands' do not.

    A, B and A + B are certified at their hints as one stack
    (``solve_together``), so the three cost one Cholesky factorization and
    one ``eigvalsh``; a matrix the stack does not certify is solved alone.

    Memoized by value: the sum checks of one instance build and validate
    A + B once and share the result, whose spectra are read-only.  The
    result depends on the entries alone, so the memo never changes what a
    caller sees.
    """
    C = matrix_sum(A, B)
    solve_together((A, B, C))
    specA = check_admissible(A)
    specB = check_admissible(B)
    try:
        return specA, specB, C, check_admissible(C), None
    except (ComplexSpectrum, DefectiveMatrix, GapViolation, NonFiniteValue, WrongConeCount) as exc:
        # kept for the report notes and never raised again, so it need not hold the frames
        return specA, specB, C, None, exc.with_traceback(None)


def _inadmissible_sum_report(name: str, sig: Signature, descriptor: dict, tol: float, exc) -> CheckReport:
    case = _make_case("admissible_sum", (), 0.0, 0.0, -1.0, tol)
    return _finalize_report(
        name,
        sig,
        descriptor,
        tol,
        [case],
        notes=[f"sum_not_admissible: {type(exc).__name__}: {exc}"],
    )


def _no_positive_block(name: str, sig: Signature, descriptor: dict, tol: float) -> CheckReport:
    return _finalize_report(name, sig, descriptor, tol, [], notes=["no positive-type block"])


# ---------------------------------------------------------------------------
# units
#
# The bounds compare sums of eigenvalues, and near the top of the float range
# a sum of finite eigenvalues overflows: inf - inf then makes a NaN margin.
# One rule covers every check that adds eigenvalues: once its largest |value|
# reaches 2^_SAFE_EXPONENT, it reads its values times 2^-k, the least power
# of two that brings them below that bound, and reports in units of 2^k.
# Scaling by a power of two is exact for normal numbers.  Below the bound the
# values are read as they are, with no copy and no note.

#: below 2^_SAFE_EXPONENT no sum of fewer than 2^22 values, nor the difference of two such sums, overflows
_SAFE_EXPONENT = 1000
#: the note of a report whose values are in units of 2^k
_UNITS_NOTE = f"values in units of 2^{{}}: in units of 1 they reach 2^{_SAFE_EXPONENT}, where sums can overflow"


def _unit(magnitude: float) -> tuple[float, tuple[str, ...]]:
    """The factor 2^-k that puts values of largest |value| ``magnitude`` in units of 2^k, and the notes that say so.

    1.0 and no note below 2^``_SAFE_EXPONENT``; from there on k is the least
    power that brings ``magnitude`` below that bound.  The one place that
    chooses a unit: every check that adds eigenvalues reads it.
    """
    k = math.frexp(magnitude)[1] - _SAFE_EXPONENT  # magnitude < 2^(k + _SAFE_EXPONENT)
    if k <= 0:
        return 1.0, ()
    return 2.0**-k, (_UNITS_NOTE.format(k),)


def _sum_blocks(spectra, *extra: np.ndarray) -> tuple[list[np.ndarray], tuple[str, ...]]:
    """The two blocks of each of ``spectra``, positive-type first, then ``extra``, in the unit of ``_unit``, and its notes.

    The unit is chosen from the largest |value| of them all.  In units of 1
    the arrays are the spectra's own, read-only blocks and ``extra`` as given.
    """
    values = [b for spectrum in spectra for b in (spectrum.lambdas, spectrum.mus)] + list(extra)
    magnitude = max([spectrum.magnitude for spectrum in spectra] + [max(map(abs, x.tolist())) for x in extra])
    unit, notes = _unit(magnitude)
    if notes:
        values = [x * unit for x in values]
    return values, notes


# ---------------------------------------------------------------------------
# ordered sums
#
# Every case over an index tuple adds its terms left to right from +0.0, so a
# case has the same bytes whichever kernel chose its tuple.


def _ordered_sum(values: list[float], indices) -> float:
    """The values at the 1-based ``indices``, added left to right from +0.0.

    A loop, not ``sum``: from Python 3.12 on, ``sum`` of floats compensates.
    """
    total = 0.0
    for i in indices:
        total += values[i - 1]
    return total


# ---------------------------------------------------------------------------
# worst tuples of the sum suites


def _lidskii_cases(
    kind: str, a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float
) -> list[CheckCase]:
    """The worst tuple of each size m = 1, ..., len(c) of one block, as cases.

    ``a``, ``b`` and ``c`` are the block's eigenvalues under A, B and
    A + B, in the order ``AdmissibleSpectrum`` keeps them.  Positive-type,
    the bound for an m-tuple I reads sum_{i in I} d_i >= b_1 + ... + b_m
    with d = c - a, and the right side does not depend on I.  So the m
    smallest d's form the worst m-tuple (Lidskii 1950), and one sort ranks
    the tuples of every size.  Negative-type (``kind`` "mu") the bound is
    reversed and the m largest d's are worst.  Ties go to the lower index.

    The sort only chooses the tuples: each case is computed from its tuple
    as for any tuple, with the sums added left to right from +0.0
    (``_ordered_sum``) and B's leading sums ``np.sum(b[:m])``.
    """
    positive = kind == "lambda"
    order = (np.argsort(c - a if positive else a - c, kind="stable") + 1).tolist()
    a, c = a.tolist(), c.tolist()
    cases = []
    for m in range(1, len(c) + 1):
        t = tuple(sorted(order[:m]))
        lhs = _ordered_sum(c, t)
        rhs = _ordered_sum(a, t) + float(np.sum(b[:m]))
        margin = lhs - rhs if positive else rhs - lhs
        cases.append(_make_case(f"{kind}:{','.join(map(str, t))}", t, lhs, rhs, margin, tol))
    return cases


def _first_minimum(running: np.ndarray, axis: int) -> np.ndarray:
    """Where each running minimum along ``axis`` first took its value: the index of its last strict drop, or 0."""
    running = np.swapaxes(running, 0, axis)
    first = np.zeros(running.shape, dtype=np.intp)
    steps = np.arange(1, len(running)).reshape((-1,) + (1,) * (running.ndim - 1))
    np.multiply(running[1:] < running[:-1], steps, out=first[1:])
    return np.swapaxes(np.maximum.accumulate(first, axis=0), 0, axis)


def _thompson_freede_cases(a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float) -> list[CheckCase]:
    """The worst pair of each size m = 1, ..., p, as cases.

    ``a``, ``b`` and ``c`` are the ascending positive-type eigenvalues of
    A, B and A + B.  The margin of a pair (i, j) of m-tuples is the sum
    over h of f_h(i_h, j_h) = c_{i_h + j_h - h} - a_{i_h} - b_{j_h}.  The
    least partial sum over the first h positions that ends in (i, j) is
    g_h(i, j) = f_h(i, j) + min over i' < i, j' < j of g_{h-1}(i', j'),
    with g_1 = f_1: one min-plus step over a 2-D prefix minimum per
    position, O(p^3) in all.  A cell whose combined index i + j - h falls
    outside [1, p] is +inf, so the least g_m is the worst size-m pair with
    i_m + j_m <= m + p.  The prefix minimum runs along each row of g_{h-1}
    and then down the rows, so the first minimum of a rectangle, row-major,
    is in the first row whose running minimum takes the rectangle's value,
    at the first column where that row's running minimum takes it
    (``_first_minimum``).  Backtracking from the least g_m reads those
    positions, so at every position ties go to the lower i, then the lower
    j.

    The recursion only chooses the pairs: each case is computed from its
    pair as for any pair, with each of the three sums added left to right
    from +0.0 (``_ordered_sum``).
    """
    p = len(c)
    if p == 0:
        return []
    steps = np.arange(p)
    # 0-based, position h takes i and j to the combined index i + j - h, read
    # from c padded with +inf by p - 1 slots on each side
    padded = np.concatenate([np.full(p - 1, np.inf), c, np.full(p - 1, np.inf)])
    g = padded[steps[:, None] + steps - steps[:, None, None] + (p - 1)] - a[:, None] - b
    g[1:, 0, :] = g[1:, :, 0] = np.inf
    # running minima of g_{h-1} along its rows, then down them: rect[h - 1, i, j] is min g_{h-1}[:i + 1, :j + 1]
    rows, rect = np.empty((2, p - 1, p, p))
    for h in range(1, p):
        np.minimum.accumulate(g[h - 1], axis=1, out=rows[h - 1])
        np.minimum.accumulate(rows[h - 1], axis=0, out=rect[h - 1])
        g[h, 1:, 1:] += rect[h - 1, :-1, :-1]
    first_i, first_j = _first_minimum(rect, 1), _first_minimum(rows, 2)
    ends = np.argmin(g.reshape(p, p * p), axis=1).tolist()
    a, b, c = a.tolist(), b.tolist(), c.tolist()
    cases = []
    for m, end in enumerate(ends, 1):
        i, j = divmod(end, p)
        path = [(i + 1, j + 1)]
        for h in range(m - 2, -1, -1):  # the cell (i, j) of g_{h+1} extends the least of g_h[:i, :j]
            i = first_i.item(h, i - 1, j - 1)
            j = first_j.item(h, i, j - 1)
            path.append((i + 1, j + 1))
        path.reverse()
        pair_i, pair_j = zip(*path)
        combined = tuple(x + y - h for h, (x, y) in enumerate(path, 1))
        lhs = _ordered_sum(c, combined)
        rhs = _ordered_sum(a, pair_i) + _ordered_sum(b, pair_j)
        case_id = f"i={','.join(map(str, pair_i))};j={','.join(map(str, pair_j))}"
        cases.append(_make_case(case_id, combined, lhs, rhs, lhs - rhs, tol))
    return cases


# ---------------------------------------------------------------------------
# sum checks


def _pair_report(name: str, A: PseudoHermitianMatrix, B: PseudoHermitianMatrix, descriptor: dict, tol: float,
                 cases_of, with_diagonal: bool = False) -> CheckReport:
    """The report ``name`` on A and B, whose cases ``cases_of`` builds from the spectra of A, B and A + B.

    The one protocol of the pair checks: A and B must have one signature,
    and an inadmissible A + B gives the failing ``admissible_sum`` case.
    Otherwise a ``cases_of`` of None gives the note "no positive-type
    block", and any other is called with the six blocks of ``_sum_blocks``,
    lambda(A), mu(A), lambda(B), mu(B), lambda(A + B), mu(A + B), then the
    diagonal of A + B when ``with_diagonal``, all in one unit, whose note
    the report carries.
    """
    sig = _require_same_signature(A, B)
    specA, specB, C, specC, exc = _sum_spectra(A, B)
    if specC is None:
        return _inadmissible_sum_report(name, sig, descriptor, tol, exc)
    if cases_of is None:
        return _no_positive_block(name, sig, descriptor, tol)
    extra = (np.diagonal(C.entries),) if with_diagonal else ()
    blocks, notes = _sum_blocks((specA, specB, specC), *extra)
    return _finalize_report(name, sig, descriptor, tol, cases_of(*blocks), notes=notes)


def check_trace_identity(
    A: PseudoHermitianMatrix, B: PseudoHermitianMatrix, tol: float = EQUALITY_TOL
) -> CheckReport:
    """Eigenvalue sums add under matrix addition; cross-checked against traces.

    Margins are relative: minus the deviation divided by the value scale.
    Where the eigenvalues or the diagonal of A + B reach
    2^``_SAFE_EXPONENT``, all of them are in units of a power of two
    (``_sum_blocks``).
    """

    def cases_of(la, ma, lb, mb, lc, mc, diagonal):
        totA, totB, totC = _total(la, ma), _total(lb, mb), _total(lc, mc)
        scale = max(1.0, abs(totA), abs(totB), abs(totC))
        trace = float(np.sum(diagonal).real)
        return [
            _make_case("spectrum_sum", (), totC, totA + totB, -abs(totC - (totA + totB)) / scale, tol),
            _make_case("matrix_trace", (), totC, trace, -abs(totC - trace) / scale, tol),
        ]

    return _pair_report("trace", A, B, {"tol_relative": tol}, tol, cases_of, with_diagonal=True)


def check_weyl(
    A: PseudoHermitianMatrix, B: PseudoHermitianMatrix, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Single-index shift bounds for the sum.

    Positive-type: lambda_k(A+B) >= lambda_k(A) + lambda_1(B) for every k.
    Negative-type: mu_l(A+B) <= mu_l(A) + mu_1(B) for every l (mu_1 largest).
    Where the eigenvalues reach 2^``_SAFE_EXPONENT``, every value is in
    units of a power of two (``_sum_blocks``).
    """

    def cases_of(la, ma, lb, mb, lc, mc):
        cases = []
        for k in range(1, len(lc) + 1):
            lhs = float(lc[k - 1])
            rhs = float(la[k - 1] + lb[0])
            cases.append(_make_case(f"lambda:{k}", (k,), lhs, rhs, lhs - rhs, tol))
        for l in range(1, len(mc) + 1):
            lhs = float(mc[l - 1])
            rhs = float(ma[l - 1] + mb[0])
            cases.append(_make_case(f"mu:{l}", (l,), lhs, rhs, rhs - lhs, tol))
        return cases

    return _pair_report("weyl", A, B, {}, tol, cases_of)


def check_lidskii_wielandt(
    A: PseudoHermitianMatrix,
    B: PseudoHermitianMatrix,
    *,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Tuple-sum bounds for the sum, both blocks, at every tuple.

    Positive-type, for strictly increasing indices i_1 < ... < i_m:
    sum_k lambda_{i_k}(A+B) >= sum_k lambda_{i_k}(A) + sum_{k<=m} lambda_k(B).
    Negative-type mirrors with <= and the m largest mus of B.

    Each block reports one case per size m: its worst m-tuple, found by one
    sort (``_lidskii_cases``), so every tuple is checked and nothing is
    drawn.  Where the eigenvalues reach 2^``_SAFE_EXPONENT``, every value
    is in units of a power of two (``_sum_blocks``).
    """

    def cases_of(la, ma, lb, mb, lc, mc):
        return _lidskii_cases("lambda", la, lb, lc, tol) + _lidskii_cases("mu", ma, mb, mc, tol)

    return _pair_report("lidskii", A, B, {}, tol, cases_of)


def check_thompson_freede(
    A: PseudoHermitianMatrix, B: PseudoHermitianMatrix, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Paired-tuple bounds on the positive-type block (empirical check), at every pair.

    For same-size tuples i, j with i_m + j_m <= m + p:
    sum_h lambda_{i_h + j_h - h}(A+B) >= sum_h lambda_{i_h}(A) + sum_h lambda_{j_h}(B).

    One case per size m = 1, ..., p: its worst pair, found by a min-plus
    recursion over the tuple positions (``_thompson_freede_cases``), so
    every pair is checked and nothing is drawn.  With p = 0 there is no
    pair: an admissible sum gets the variational suites' note.  Where the
    eigenvalues reach 2^``_SAFE_EXPONENT``, every value is in units of a
    power of two (``_sum_blocks``).
    """

    def cases_of(la, ma, lb, mb, lc, mc):
        return _thompson_freede_cases(la, lb, lc, tol)

    return _pair_report("thompson_freede", A, B, {}, tol, cases_of if A.signature.p else None)


# ---------------------------------------------------------------------------
# variational checks on a single matrix
#
# The paper's min-max statements are about every positive subspace, and one
# certificate per k decides them all.  W_k holds the framed positive
# eigenvectors k, ..., p and the framed negative ones, and H_k is the
# Hermitian part of W_k* J (A - lambda_k I) W_k.  For x = W_k y,
# R_A(x) - lambda_k = y* H_k y / <x, x>, so H_k >= 0 proves R_A(x) >= lambda_k
# on the positive vectors of span W_k, which has dimension n - k + 1.  Every
# positive k-subspace U meets it in a positive vector, so max_U R_A >=
# lambda_k, and Hermitian Courant-Fischer inside any positive r-subspace V
# then gives eta_i(M_V) >= lambda_i for i <= r, with M_V the compression of
# A onto a pseudo-orthonormal frame of V.  So H_1, ..., H_k >= 0 prove, for
# every positive subspace, the min-max bound of each index up to k, the Ky
# Fan partial sums up to k and Wielandt's flag sums with top index up to k.
#
# The certificate ``restricted_cert:k`` is the least eigenvalue of H_k, held
# against 0 with the check's ``tol``.  In exact arithmetic it is 0, at the
# k-th eigenvector.  A case that passes at -tol < margin < 0 proves
# R_A(x) >= lambda_k - tol |y|^2 / <x, x>, not lambda_k - tol: near the null
# cone <x, x> is small against |y|^2, and there the bound is weaker.  The
# certificates say nothing of a subspace that is not positive.


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _adjoint(M))


class _PositiveEigen(NamedTuple):
    """What the variational suites of one matrix read: the memo's record.

    ``system`` is A's eigensystem, ``eigen`` the compression (p, p) onto its
    positive eigenbasis and ``certs`` the p certificates.  Two fields are
    derived, because two or more suites read them: ``cert_min`` holds the
    least of certificates 1, ..., k at k - 1 (Ky Fan and Wielandt), and
    ``diagonal`` the real diagonal of ``eigen`` (all three suites).  Arrays
    are read-only and ``cert_min`` is a tuple, since the memo shares the
    record.
    """

    system: ClassifiedEigenSystem
    eigen: np.ndarray
    certs: np.ndarray
    cert_min: tuple[float, ...]
    diagonal: np.ndarray


def _positive_record(system: ClassifiedEigenSystem, eigen: np.ndarray, certs: np.ndarray) -> _PositiveEigen:
    diagonal = np.diagonal(eigen).real
    diagonal.flags.writeable = False
    return _PositiveEigen(system, eigen, certs, tuple(np.minimum.accumulate(certs).tolist()), diagonal)


@functools.lru_cache(maxsize=32)
def _positive_eigen(A: PseudoHermitianMatrix) -> _PositiveEigen:
    """A's eigensystem, the compression (p, p) onto its positive eigenbasis, and the p certificates.

    The eigenbasis is ``ClassifiedEigenSystem.eigenvectors``, which the
    certificate's factor makes pseudo-orthonormal by construction, so the
    compression is the Hermitian part of V* J A V and diag(lambdas) up to
    roundoff.  Certificate k is the least eigenvalue of H_k (see the section
    comment): with the positive eigenvectors ordered first, H_k is the
    trailing block from k of one matrix per A, minus lambda_k times the
    eigenvectors' Gram.

    Memoized by value, like ``_sum_spectra``: the three variational suites
    of one instance share one solve, one compression, one set of
    certificates and what ``_PositiveEigen`` derives from them.  The result
    depends on the entries alone, so the memo never changes what a caller
    sees.
    """
    system = eigendecompose(A)
    sig = A.signature
    # columns: the p positive eigenvectors ascending, then the q negative ones
    W = np.concatenate([system.eigenvectors[:, sig.q :], system.eigenvectors[:, : sig.q]], axis=1)
    JA = metric_diagonal(sig)[:, None] * A.entries
    WJAW, G = _hermitian_part(_adjoint(W) @ (JA @ W)), gram(W, sig)
    lambdas = system.spectrum.lambdas
    certs = np.array([np.linalg.eigvalsh((WJAW - lam * G)[k:, k:])[0] for k, lam in enumerate(lambdas)])
    eigen = WJAW[: sig.p, : sig.p].copy()
    eigen.flags.writeable = certs.flags.writeable = False
    return _positive_record(system, eigen, certs)


def check_courant_fischer(
    A: PseudoHermitianMatrix,
    tol: float = DEFAULT_TOL,
    *,
    equality_tol: float = EQUALITY_TOL,
) -> CheckReport:
    """Min-max characterization of the positive-type eigenvalues, certified for every subspace.

    For each k, ``restricted_cert:k`` holds the least eigenvalue of H_k
    against 0 (see the section comment).  It proves that every positive
    vector paired-orthogonal to the first k - 1 eigenvectors has Rayleigh
    ratio >= lambda_k, and with it that every positive k-subspace has a top
    Rayleigh ratio >= lambda_k; both hold to ``tol`` |y|^2 / <x, x>.  The
    witnesses show the bounds are attained, at ``equality_tol``:
    ``minmax_witness:k`` reads the k-th eigenvalue of the compression onto
    the positive eigenbasis, and ``restricted_witness:k`` the Rayleigh
    ratio <A v_k, v_k> / <v_k, v_k> of the k-th eigenvector, whose pairing
    is 1 up to roundoff; both are lambda_k in exact arithmetic.  The check
    draws nothing.
    """
    sig = A.signature
    descriptor = {"equality_tol": equality_tol}
    if sig.p == 0:
        return _no_positive_block("courant_fischer", sig, descriptor, tol)
    record = _positive_eigen(A)
    system, certs = record.system, record.certs
    lambdas = system.spectrum.lambdas
    eta = np.linalg.eigvalsh(record.eigen)
    ratios = record.diagonal / np.diagonal(gram(positive_eigenbasis(system), sig)).real
    cases = []
    for k in range(1, sig.p + 1):
        lam_k = float(lambdas[k - 1])
        top = float(eta[k - 1])
        low = float(certs[k - 1])
        rk = float(ratios[k - 1])
        cases += [
            _make_case(f"minmax_witness:{k}", (k,), top, lam_k, -abs(top - lam_k), equality_tol),
            _make_case(f"restricted_cert:{k}", (k,), low, 0.0, low, tol),
            _make_case(f"restricted_witness:{k}", (k,), rk, lam_k, -abs(rk - lam_k), equality_tol),
        ]
    return _finalize_report("courant_fischer", sig, descriptor, tol, cases)


def _record_in_units(record: _PositiveEigen) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, ...], tuple[str, ...]]:
    """The record's lambdas, compression, diagonal and running least certificates, and the notes that give their unit.

    The unit is ``_unit``'s for A's largest |eigenvalue|, as ``_sum_blocks``
    chooses a sum check's, so the sums of ``ky_fan`` and ``wielandt`` stay
    finite.  In units of 1 the record's own arrays are read, with no copy.
    """
    spectrum = record.system.spectrum
    unit, notes = _unit(spectrum.magnitude)
    if not notes:
        return spectrum.lambdas, record.eigen, record.diagonal, record.cert_min, ()
    cert_min = tuple(c * unit for c in record.cert_min)
    return spectrum.lambdas * unit, record.eigen * unit, record.diagonal * unit, cert_min, notes


def _least_certificate(cert_min: tuple[float, ...], r: int, tol: float) -> CheckCase:
    """``restricted_cert_min:r``: the least of certificates 1, ..., r against 0.

    ``cert_min`` is the record's running minimum of the certificates.  The
    case passes exactly when every one of them does, and then
    eta_i(M_V) >= lambda_i holds for i <= r on every positive subspace V.
    """
    low = cert_min[r - 1]
    return _make_case(f"restricted_cert_min:{r}", range(1, r + 1), low, 0.0, low, tol)


def check_ky_fan(
    A: PseudoHermitianMatrix,
    tol: float = DEFAULT_TOL,
    *,
    equality_tol: float = EQUALITY_TOL,
) -> list[CheckReport]:
    """Partial-sum minimum over positive k-frames, one report per k = 1, ..., p.

    Every pseudo-orthonormal positive k-frame satisfies
    sum_i R_A(x_i) = trace(compression) >= lambda_1 + ... + lambda_k, with
    equality on the first k eigenvectors.  The trace is sum_i eta_i of the
    compression, so certificates 1, ..., k prove the bound for every frame:
    ``restricted_cert_min:k`` holds their least against 0, to ``tol`` as
    ``check_courant_fischer`` says.  ``partial_sum_witness:k`` holds the
    eigenframe's trace against the bound at ``equality_tol``.  The check
    draws nothing.  With p = 0 the one report says there is no positive
    block.  Where A's eigenvalues reach 2^``_SAFE_EXPONENT``, every value
    is in units of a power of two, by the sum checks' rule
    (``_record_in_units``).
    """
    sig = A.signature
    shared = {"equality_tol": equality_tol}
    if sig.p == 0:
        return [_no_positive_block("ky_fan", sig, shared, tol)]
    lambdas, _, diagonal, cert_min, notes = _record_in_units(_positive_eigen(A))
    witness = np.cumsum(diagonal)
    reports = []
    for k in range(1, sig.p + 1):
        indices = tuple(range(1, k + 1))
        target = float(lambdas[:k].sum())
        val = float(witness[k - 1])
        cases = [
            _least_certificate(cert_min, k, tol),
            _make_case(f"partial_sum_witness:{k}", indices, val, target, -abs(val - target), equality_tol),
        ]
        reports.append(_finalize_report("ky_fan", sig, {"k": k, **shared}, tol, cases, notes=notes))
    return reports


# ---------------------------------------------------------------------------
# flag compressions


def check_wielandt_flag(
    A: PseudoHermitianMatrix,
    *,
    tol: float = DEFAULT_TOL,
    equality_tol: float = EQUALITY_TOL,
) -> list[CheckReport]:
    """Flag compressions against the eigenvalue tuple sums, one report per top index r and size m.

    For a tuple i_1 < ... < i_m = r and a positive flag whose level j has
    dimension i_j, the paper's min-max reads: some frame subordinate to the
    flag has trace >= lambda_{i_1} + ... + lambda_{i_m}, and on the
    eigenvector flag no subordinate frame beats that sum.  A flag is
    framed so that level j is the span E_{i_j} of the first i_j unit
    vectors, and M, the compression onto its top level, is Hermitian.

    Attained: Hermitian Wielandt (Wielandt 1955; Hersch-Zwahlen 1962) gives
    a subordinate frame whose trace reaches sum_j eta_{i_j}(M), and that
    reaches the tuple sum when eta_i(M) >= lambda_i for i <= r, which
    certificates 1, ..., r prove for every positive flag.
    ``restricted_cert_min:r`` holds their least against 0, to ``tol`` as
    ``check_courant_fischer`` says.

    Bounded, on the eigenvector flag, whose compression ``eigen`` is
    diag(lambda) up to roundoff delta = ||eigen - diag(lambda)||_2: a frame
    C of m orthonormal columns, column j in E_{i_j}, has tr(C* diag(lambda)
    C) <= the tuple sum (Wielandt), and the rest is at most m delta.  So
    ``eigenflag_max`` holds the supremum over every subordinate frame, tuple
    sum + m delta, against the tuple sum; its margin is -m delta for every
    tuple of size m, and the case names the lowest tuple (1, ..., m - 1, r).
    The trace of the principal submatrix eigen[I, I] deviates from the tuple
    sum by |sum_{i in I} e_i|, with e = Re diag(eigen) - lambda;
    ``eigenflag_witness`` holds the largest deviation over the tuples of the
    shape against 0, with the indices 1, ..., r.  By Weyl's perturbation
    theorem the eigenvalues of every eigen[I, I] lie within delta of
    lambda_I, so one ``eigenflag_witness_etas`` case, delta against
    ``equality_tol``, bounds every tuple; it goes in the (1, 1) report.

    Every tuple is checked and none is listed.  The largest
    |sum_{i in I} e_i| is reached by r and the m - 1 indices at one end of
    one stable sort of e[:r - 1], the lower end on ties, and ties between
    indices go to the lower one.  The sort only chooses the tuple: its sums
    are added left to right from +0.0 (``_ordered_sum``).  e is roundoff,
    so which tuple reaches its largest sum is roundoff too;
    ``eigenflag_witness`` therefore names no tuple, and a report moves only
    by roundoff when A does.

    Reports come in r-then-m order, m <= r, each with the descriptor
    {"top": r, "m": m}.  With p = 0 the one report says there is no
    positive block.  The check draws nothing.  Where A's eigenvalues reach
    2^``_SAFE_EXPONENT``, every value is in units of a power of two, by the
    sum checks' rule (``_record_in_units``).
    """
    sig = A.signature
    if sig.p == 0:
        return [_no_positive_block("wielandt", sig, {}, tol)]
    lambdas, eigen, diagonal, cert_min, notes = _record_in_units(_positive_eigen(A))
    lam, diagonal = lambdas.tolist(), diagonal.tolist()
    e = [0.0] + [x - y for x, y in zip(diagonal, lam)]  # 1-based
    # eigen - diag(lambdas) is Hermitian, so its 2-norm is its largest |eigenvalue|
    delta = float(np.max(np.abs(np.linalg.eigvalsh(eigen - np.diag(lambdas)))))
    etas = [_make_case("eigenflag_witness_etas", range(1, sig.p + 1), delta, 0.0, -delta, equality_tol)]
    reports = []
    for r in range(1, sig.p + 1):
        ranked = sorted(range(1, r), key=e.__getitem__)
        low = list(itertools.accumulate((e[i] for i in ranked), initial=e[r]))
        high = list(itertools.accumulate((e[i] for i in reversed(ranked)), initial=e[r]))
        certified = _least_certificate(cert_min, r, tol)
        for m in range(1, r + 1):
            lowest = (*range(1, m), r)
            target, slack = _ordered_sum(lam, lowest), m * delta
            t = tuple(sorted(ranked[: m - 1] if abs(low[m - 1]) >= abs(high[m - 1]) else ranked[r - m :])) + (r,)
            deviation = abs(_ordered_sum(diagonal, t) - _ordered_sum(lam, t))
            cases = [
                _make_case("eigenflag_max", lowest, target + slack, target, -slack, tol),
                _make_case("eigenflag_witness", range(1, r + 1), deviation, 0.0, -deviation, equality_tol),
            ]
            if r == 1:
                cases += etas
            cases.append(certified)
            reports.append(_finalize_report("wielandt", sig, {"top": r, "m": m}, tol, cases, notes=notes))
    return reports
