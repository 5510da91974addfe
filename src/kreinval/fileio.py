"""Matrix files and streaming report emission.

Matrix format: JSON object {"p": int, "q": int, "entries": [[[re, im], ...]]}
with row-major entries.  Floats survive a write/read round trip bit-exactly
because json emits shortest round-trip decimal forms.

Reports stream as JSON Lines: a header record (version and config echo), one
record per instance (an error record for an instance that raised), a summary
record, and a final meta record that carries the only non-deterministic
fields (timestamp, wall time).  CSV output is one row per case, and one
``error`` row per instance that raised.
"""

from __future__ import annotations

import csv
import functools
import json
import numbers
from pathlib import Path

import numpy as np

from .checks import CheckReport
from .core import PseudoHermitianMatrix, Signature, TOL_STRUCT, _is_number
from .errors import ReportWriteError, SchemaError

CSV_COLUMNS = ("suite", "instance", "case_id", "indices", "lhs", "rhs", "margin", "pass")


def write_matrix(M: PseudoHermitianMatrix, path) -> None:
    """Serialize a matrix with its signature to JSON."""
    entries = [
        [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M.entries)
    ]
    doc = {"p": M.signature.p, "q": M.signature.q, "entries": entries}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_matrix(path, tol: float = TOL_STRUCT) -> PseudoHermitianMatrix:
    """Load and validate a matrix file; failures name the offending field.

    ``p`` and ``q`` must be JSON integers and each part of an entry a JSON
    number, none of them a boolean.  Finiteness and the structural residual
    are ``PseudoHermitianMatrix``'s to decide, at ``tol``.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key in ("p", "q", "entries"):
        if key not in doc:
            raise SchemaError(f"missing required field {key!r}")
    for key in ("p", "q"):
        if not _is_number(doc[key], numbers.Integral):
            raise SchemaError(f"field {key!r} must be an integer, got {doc[key]!r}")
    try:
        sig = Signature(doc["p"], doc["q"])
    except ValueError as exc:
        raise SchemaError(f"bad signature fields: {exc}") from exc
    entries = doc["entries"]
    n = sig.n
    if not (isinstance(entries, list) and len(entries) == n):
        raise SchemaError(f"entries must be a list of {n} rows")
    rows = []
    for r, row in enumerate(entries):
        if not (isinstance(row, list) and len(row) == n):
            raise SchemaError(f"row {r} must have {n} entries")
        vals = []
        for c, cell in enumerate(row):
            if not (isinstance(cell, list) and len(cell) == 2 and all(_is_number(x, numbers.Real) for x in cell)):
                raise SchemaError(f"entry ({r}, {c}) must be a [re, im] pair of numbers, got {cell!r}")
            try:
                vals.append(complex(*cell))
            except OverflowError as exc:  # a JSON integer beyond the float range
                raise SchemaError(f"entry ({r}, {c}) is out of range: {exc}") from exc
        rows.append(vals)
    try:
        return PseudoHermitianMatrix(sig, np.array(rows, dtype=complex), tol=tol)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _writes(method):
    """``method`` with an OSError from the file turned into ReportWriteError naming the file."""

    @functools.wraps(method)
    def wrapped(self, *args):
        try:
            return method(self, *args)
        except OSError as exc:
            raise ReportWriteError(f"cannot write report file {self.path}: {exc.strerror or exc}") from exc

    return wrapped


class ReportWriter:
    """Append-per-instance report emitter for JSONL or CSV output.

    Every write flushes.  An OSError from a write, a flush or ``close``
    raises ReportWriteError; ``close`` closes the file even then.
    """

    def __init__(self, path, fmt: str = "json"):
        if fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {fmt!r}")
        self.path = Path(path)
        self.fmt = fmt
        self._fh = self.path.open("w", newline="" if fmt == "csv" else None)
        self._csv = csv.writer(self._fh) if fmt == "csv" else None

    @_writes
    def write_header(self, version: str, config: dict) -> None:
        if self.fmt == "json":
            self._fh.write(_json_line({"record": "header", "version": version, "config": config}))
        else:
            self._csv.writerow(CSV_COLUMNS)
        self._fh.flush()

    @_writes
    def write_instance(self, index: int, reports: list[CheckReport]) -> None:
        if self.fmt == "json":
            self._fh.write(
                _json_line(
                    {
                        "record": "instance",
                        "instance": index,
                        "reports": [r.to_dict() for r in reports],
                    }
                )
            )
        else:
            for rep in reports:
                for case in list(rep.cases) + list(rep.soft_cases):
                    self._csv.writerow(
                        [
                            rep.check_name,
                            index,
                            case.case_id,
                            ";".join(map(str, case.indices)),
                            repr(case.lhs),
                            repr(case.rhs),
                            repr(case.margin),
                            case.passed,
                        ]
                    )
        self._fh.flush()

    @_writes
    def write_error(self, index: int, error: str, message: str) -> None:
        """The record of an instance that raised: its index, the exception type and message."""
        if self.fmt == "json":
            self._fh.write(
                _json_line({"record": "error", "instance": index, "error": error, "message": message})
            )
        else:
            self._csv.writerow(["error", index, f"{error}: {message}", "", "", "", "", False])
        self._fh.flush()

    @_writes
    def write_summary(self, summary: dict) -> None:
        if self.fmt == "json":
            self._fh.write(_json_line({"record": "summary", **summary}))
            self._fh.flush()

    @_writes
    def write_meta(self, meta: dict) -> None:
        if self.fmt == "json":
            self._fh.write(_json_line({"record": "meta", **meta}))
            self._fh.flush()

    @_writes
    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ReportWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
