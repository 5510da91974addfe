"""Span tracer that wraps kreinval's public functions from outside the package.

Every module-level public function of a layer module is replaced, at every
place it is bound (the modules import each other's functions by name), by a
wrapper that records a span: name, instance, start, end and parent span.
Spans stay in memory until the run ends.  Modules `core` and `errors` get no
span, so their time lands in the self time of their caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

#: modules that count as layers, in the order metrics are reported
LAYERS = ("spectral", "sampling", "geometry", "checks", "polyhedral", "simplex", "fileio", "cli")


class Tracer:
    """Records spans and counters while installed; `uninstall` restores the package."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, instance, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.instance = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen: set[int] = set()  # hashes of matrices decomposed in this instance
        # counters read from the arguments or result of a traced call
        self._counters = {
            "spectral.eigendecompose": self._note_matrix,
            "polyhedral.build_region": lambda a, r: self._add("polyhedral.vertices", r.vertices.shape[0]),
            "simplex.phase_one_feasible": self._note_simplex,
            "checks.lambda_index_tuples": lambda a, r: self._add("checks.enumeration.tuples", len(r)),
            "checks.thompson_freede_pairs": lambda a, r: self._add("checks.enumeration.tuples", len(r)),
        }

    # -- counters -----------------------------------------------------------

    def _add(self, key: str, value) -> None:
        self.counts[key] += value

    def _note_matrix(self, args, result) -> None:
        key = hash(args[0].entries.tobytes())
        if key not in self._seen:
            self._seen.add(key)
            self._add("spectral.eigendecompose.distinct", 1)

    def _note_simplex(self, args, result) -> None:
        self._add("simplex.pivots", result.iterations)
        m, n = args[0].shape  # the tableau is (m + 1) x (n + m + 1)
        self._add("simplex.tableau_cells", (m + 1) * (n + m + 1))

    def start_instance(self, index: int) -> None:
        """Tag the following spans with `index`; distinct matrices are counted per instance."""
        self.instance = index
        self._seen.clear()

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, self.instance, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"kreinval.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        # replace every binding site, including re-exports in the package root
        for modname, mod in list(sys.modules.items()):
            if modname != "kreinval" and not modname.startswith("kreinval."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        writer = modules["fileio"].ReportWriter
        original = writer.write_instance
        self._undo.append((writer, "write_instance", original))
        writer.write_instance = self._wrap("fileio.write_instance", original)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its child
        spans, which nest inside it because the program is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: defaultdict[str, int] = defaultdict(int)
        inclusive: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        for i, (nid, _, t0, t1, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            inclusive[name] += t1 - t0
            self_time[name] += t1 - t0 - child[i]
        return calls, inclusive, self_time

    def write(self, path) -> None:
        """Spans as gzip JSON: name table plus [name, instance, start, end, parent] rows."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
