"""Batch harness: seeded instance generation, check suites, reports, exit codes.

Config values come from defaults, then an optional JSON config file, then
command-line flags (flags win); every field but ``soft_threshold`` has a
flag.  The seed, a non-negative integer, falls back to the KREINVAL_SEED
environment variable when neither flags nor file provide one.  Exit status is
0 on success, 1 when any hard check fails, an instance raises, the soft
success rate drops below the threshold, or the report file cannot be
written, 2 on configuration errors, a report file that cannot be opened
included (in which case no files are written).
No shipped suite produces soft cases, so the soft rate stays unset and only
the hard checks decide.  An instance that raises gets an error record and
the run goes on.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
import re
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .checks import (
    DEFAULT_TOL,
    CheckReport,
    _finalize_report,
    _make_case,
    _sum_spectra,
    check_courant_fischer,
    check_ky_fan,
    check_lidskii_wielandt,
    check_thompson_freede,
    check_trace_identity,
    check_weyl,
    check_wielandt_flag,
)
from .core import Signature, _is_number
from .errors import ConfigError, KreinvalError, ReportWriteError
from .polyhedral import check_diag_membership, check_sum_membership
from .sampling import SamplerConfig, instance_rng, sample_planted, sample_planted_pair
from .spectral import eigendecompose, shift_margin

# argparse, json, the process pool and report I/O are imported where they are used:
# a library caller loads none of them, and a command-line run loads argparse and,
# only when given a config file, workers or a report file, the one that serves it
if TYPE_CHECKING:
    import argparse

SUITES = (
    "structural",
    "trace",
    "weyl",
    "lidskii",
    "thompson_freede",
    "courant_fischer",
    "ky_fan",
    "wielandt",
    "polyhedral",
)
#: suites whose checks consume a second sampled matrix
PAIR_SUITES = frozenset({"trace", "weyl", "lidskii", "thompson_freede", "polyhedral"})
#: the structural suite's recovery tolerance, before its cond(U)^2 and spectrum scaling
TOL_PLANTED = 1e-8


@dataclass(frozen=True)
class SuiteConfig:
    """Everything one run needs.

    Each field but ``soft_threshold`` has a command-line flag; that one
    comes only from a config file.  ``tol_check`` is the tolerance of the
    inequality suites; the trace and polyhedral suites run at their checks'
    own tolerances and the structural suite at ``TOL_PLANTED``.  The sampler
    values default to ``SamplerConfig``'s.
    """

    p: int = 2
    q: int = 1
    instances: int = 10
    seed: int = 0
    suites: tuple[str, ...] = SUITES
    tol_check: float = DEFAULT_TOL
    gap_min: float = SamplerConfig.gap_min
    value_range: tuple[float, float] = SamplerConfig.value_range
    boost_scale: float = SamplerConfig.boost_scale
    cond_cap: float = SamplerConfig.cond_cap
    soft_threshold: float = 0.95
    workers: int = 1
    out: str | None = None
    format: str = "json"

    def sampler(self) -> SamplerConfig:
        """The sampler settings, each read from the field of the same name."""
        return SamplerConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(SamplerConfig)})


def validate_config(cfg: SuiteConfig) -> SuiteConfig:
    """The config to run, with each suite once in its first place; ConfigError names the first offending field.

    A value of the wrong type is refused before any value is compared, so a
    config file cannot pass validation and then fail in the run.
    """
    for name in ("p", "q", "instances", "seed", "workers"):
        if not _is_number(getattr(cfg, name), numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {getattr(cfg, name)!r}")
    for name in ("tol_check", "gap_min", "boost_scale", "cond_cap", "soft_threshold"):
        if not _is_number(getattr(cfg, name), numbers.Real):
            raise ConfigError(f"{name} must be a real number, got {getattr(cfg, name)!r}")
    if not (isinstance(cfg.value_range, (tuple, list)) and len(cfg.value_range) == 2
            and all(_is_number(v, numbers.Real) for v in cfg.value_range)):
        raise ConfigError(f"value_range must be two real numbers, got {cfg.value_range!r}")
    if not (isinstance(cfg.suites, (tuple, list)) and all(isinstance(s, str) for s in cfg.suites)):
        raise ConfigError(f"suites must be a list of suite names, got {cfg.suites!r}")
    if not (cfg.out is None or isinstance(cfg.out, (str, os.PathLike))):
        raise ConfigError(f"out must be a file path, got {cfg.out!r}")
    try:
        Signature(cfg.p, cfg.q)
    except ValueError as exc:
        raise ConfigError(f"p/q: {exc}") from exc
    if cfg.instances < 1:
        raise ConfigError(f"instances must be >= 1, got {cfg.instances}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    unknown = [s for s in cfg.suites if s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; valid: {', '.join(SUITES)}")
    if not cfg.suites:
        raise ConfigError("at least one suite must be selected")
    # an infinite tolerance passes every case and a NaN one fails them all
    if not 0 < cfg.tol_check < math.inf:
        raise ConfigError(f"tol_check must be positive and finite, got {cfg.tol_check}")
    if cfg.format not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {cfg.format!r}")
    if not 0 < cfg.soft_threshold <= 1:
        raise ConfigError("soft_threshold must lie in (0, 1]")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    try:
        cfg.sampler()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return dataclasses.replace(cfg, suites=tuple(dict.fromkeys(cfg.suites)))


def config_echo(cfg: SuiteConfig) -> dict:
    """Config as written to reports; I/O plumbing excluded so the same run
    settings produce the same bytes regardless of destination."""
    doc = dataclasses.asdict(cfg)
    doc["suites"] = list(cfg.suites)
    doc["value_range"] = list(cfg.value_range)
    for plumbing in ("out", "format", "workers"):
        doc.pop(plumbing)
    return doc


def run_instance(cfg: SuiteConfig, index: int) -> list[CheckReport]:
    """All selected checks for one seeded instance, in a fixed suite order.

    A and B come from the instance stream (seed, index), and no check draws
    anything: the variational suites decide their bounds by certificates
    on A, for every positive subspace at once.  When a pair suite is
    selected, A and B are drawn as one stack (``sample_planted_pair``), and
    A, B and A + B are certified as one stack (``_sum_spectra``) before the
    first suite reads them.  So that stream holds every
    random number of an instance, and a suite's reports do not depend on
    which other suites are selected.  ``cfg`` is taken as given; a
    selection that names a suite twice runs it twice (``run_suite``
    validates the config first, which keeps each suite once).
    Each check is called once: ``ky_fan`` returns one report per k and
    ``wielandt`` one per top index r and tuple size m.
    """
    sig = Signature(cfg.p, cfg.q)
    scfg = cfg.sampler()
    rng = instance_rng(cfg.seed, index)
    B = None
    if any(s in PAIR_SUITES for s in cfg.suites):
        (A, planted, U), (B, _, _) = sample_planted_pair(sig, scfg, rng)
        _sum_spectra(A, B)  # A, B and A + B, certified as one stack before any suite reads them
    else:
        A, planted, U = sample_planted(sig, scfg, rng)

    reports: list[CheckReport] = []
    for suite in cfg.suites:
        if suite == "structural":
            system = eigendecompose(A)
            recovered = system.spectrum
            err = 0.0
            if sig.p:
                err = max(err, float(np.max(np.abs(recovered.lambdas - planted.lambdas))))
            if sig.q:
                err = max(err, float(np.max(np.abs(recovered.mus - planted.mus))))
            # the solve's error grows with cond(U)^2 and with the size of the spectrum
            scale = max(1.0, float(np.max(np.abs(planted.canonical_vector()))))
            allowed = TOL_PLANTED * U.cond**2 * scale
            case = _make_case("planted_recovery", (), err, allowed, allowed - err, 0.0)
            descriptor = {"cond": U.cond, "tol_eig": TOL_PLANTED, "shift": system.shift,
                          "shift_margin": shift_margin(A)}
            reports.append(_finalize_report("structural", sig, descriptor, 0.0, [case]))
        elif suite == "trace":
            reports.append(check_trace_identity(A, B))
        elif suite == "weyl":
            reports.append(check_weyl(A, B, tol=cfg.tol_check))
        elif suite == "lidskii":
            reports.append(check_lidskii_wielandt(A, B, tol=cfg.tol_check))
        elif suite == "thompson_freede":
            reports.append(check_thompson_freede(A, B, tol=cfg.tol_check))
        elif suite == "courant_fischer":
            reports.append(check_courant_fischer(A, tol=cfg.tol_check))
        elif suite == "ky_fan":
            reports.extend(check_ky_fan(A, tol=cfg.tol_check))
        elif suite == "wielandt":
            reports.extend(check_wielandt_flag(A, tol=cfg.tol_check))
        elif suite == "polyhedral":
            reports.append(check_diag_membership(A))
            reports.append(check_sum_membership(A, B))
    return reports


@dataclass
class SuiteAggregate:
    cases: int = 0
    passes: int = 0
    worst_margin: float | None = None
    soft_cases: int = 0
    soft_passes: int = 0

    @property
    def soft_rate(self) -> float | None:
        return self.soft_passes / self.soft_cases if self.soft_cases else None

    def absorb(self, report: CheckReport) -> None:
        for case in report.cases:
            self.cases += 1
            self.passes += case.passed
            if self.worst_margin is None or case.margin < self.worst_margin:
                self.worst_margin = case.margin
        for case in report.soft_cases:
            self.soft_cases += 1
            self.soft_passes += case.passed

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "passes": self.passes,
            "worst_margin": self.worst_margin,
            "soft_cases": self.soft_cases,
            "soft_passes": self.soft_passes,
            "soft_rate": self.soft_rate,
        }


@dataclass
class RunSummary:
    version: str
    config: dict
    suites: dict[str, SuiteAggregate] = field(default_factory=dict)
    passed: bool = True
    wall_time: float = 0.0
    errors: list[dict] = field(default_factory=list)

    def absorb(self, reports: list[CheckReport], soft_threshold: float) -> None:
        for rep in reports:
            agg = self.suites.setdefault(rep.check_name, SuiteAggregate())
            agg.absorb(rep)
            if not rep.passed:
                self.passed = False
        for agg in self.suites.values():
            rate = agg.soft_rate
            if rate is not None and rate < soft_threshold:
                self.passed = False

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "suites": {name: agg.to_dict() for name, agg in sorted(self.suites.items())},
            "passed": self.passed,
        }


def _record_instance(summary: RunSummary, writer, cfg: SuiteConfig, index: int, call) -> None:
    """Absorb and write the reports ``call()`` returns for one instance, or its error record.

    An instance that raises fails the run but does not end it, so the report
    still gets every other instance and its summary.
    """
    try:
        reports = call()
    except (KreinvalError, np.linalg.LinAlgError) as exc:
        summary.errors.append({"instance": index, "error": type(exc).__name__, "message": str(exc)})
        summary.passed = False
        if writer:
            writer.write_error(index, type(exc).__name__, str(exc))
        return
    summary.absorb(reports, cfg.soft_threshold)
    if writer:
        writer.write_instance(index, reports)


def run_suite(cfg: SuiteConfig) -> RunSummary:
    """Run all instances of the validated config, streaming per-instance reports when an output is set."""
    cfg = validate_config(cfg)
    start = time.perf_counter()
    summary = RunSummary(version=__version__, config=config_echo(cfg))

    writer = None
    if cfg.out:
        from .fileio import ReportWriter

        try:
            writer = ReportWriter(cfg.out, cfg.format)
        except OSError as exc:
            raise ConfigError(f"cannot open report file {cfg.out}: {exc.strerror or exc}") from exc
    try:
        if writer:
            writer.write_header(__version__, config_echo(cfg))
        # a fork pool starts all its workers at once, so it gets no more than it can use
        workers = min(cfg.workers, cfg.instances, os.cpu_count() or 1)
        if workers > 1:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {i: pool.submit(run_instance, cfg, i) for i in range(cfg.instances)}
                for i in range(cfg.instances):  # deterministic merge by index
                    _record_instance(summary, writer, cfg, i, futures[i].result)
        else:
            for i in range(cfg.instances):
                _record_instance(summary, writer, cfg, i, lambda: run_instance(cfg, i))
        summary.wall_time = time.perf_counter() - start
        if writer:
            writer.write_summary(summary.to_dict())
            writer.write_meta(
                {
                    "timestamp": datetime.now(timezone.utc).isoformat(),
                    "wall_time_s": summary.wall_time,
                }
            )
    finally:
        if writer:
            writer.close()
    return summary


def load_config_file(path) -> dict:
    """JSON config file as a flat dict of SuiteConfig fields."""
    import json

    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    valid = {f.name for f in dataclasses.fields(SuiteConfig)}
    unknown = sorted(set(doc) - valid)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    return doc


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="kreinval",
        description="Run margin-reporting check suites on sampled admissible matrices.",
    )
    parser.add_argument("--p", type=int, help="positive-type block size")
    parser.add_argument("--q", type=int, help="negative-type block size")
    parser.add_argument("--instances", type=int, help="number of sampled instances")
    parser.add_argument("--seed", type=int, help="base seed (fallback: KREINVAL_SEED)")
    parser.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="NAME",
        help=f"suite to run, repeatable; default all ({', '.join(SUITES)})",
    )
    parser.add_argument("--tol", type=float, dest="tol_check", help="inequality check tolerance")
    parser.add_argument("--boost-scale", type=float, help="off-diagonal generator norm cap")
    parser.add_argument("--gap-min", type=float, help="enforced spectral gap for samples")
    parser.add_argument("--cond-cap", type=float, help="conditioning cap for sampled conjugators")
    parser.add_argument(
        "--value-range", type=float, nargs=2, metavar=("LO", "HI"), help="eigenvalue draw range"
    )
    parser.add_argument("--workers", type=int, help="parallel instance workers")
    parser.add_argument("--out", help="report file path")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    # a token such as -1e6 or -inf is a value, not an option; argparse's own pattern misses
    # exponents and the non-finite spellings, which the config check then rejects
    parser._negative_number_matcher = re.compile(
        r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
    )
    return parser


def build_config(argv=None) -> SuiteConfig:
    """The validated config of the command line: defaults, then the config file, then the flags given.

    Every parser destination but ``config`` is a SuiteConfig field, set by
    its flag when the flag is given.
    """
    flags = vars(build_parser().parse_args(argv))
    config_file = flags.pop("config")
    values = load_config_file(config_file) if config_file else {}
    values.update((name, val) for name, val in flags.items() if val is not None)
    if "seed" not in values and os.environ.get("KREINVAL_SEED"):
        try:
            values["seed"] = int(os.environ["KREINVAL_SEED"])
        except ValueError as exc:
            raise ConfigError(f"KREINVAL_SEED is not an integer: {exc}") from exc
    for name in ("suites", "value_range"):  # flags and JSON give lists
        if isinstance(values.get(name), list):
            values[name] = tuple(values[name])
    try:
        cfg = SuiteConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return validate_config(cfg)


def main(argv=None) -> int:
    try:
        summary = run_suite(build_config(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ReportWriteError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except KreinvalError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for err in summary.errors:
        print(f"instance {err['instance']} raised {err['error']}: {err['message']}", file=sys.stderr)
    for name, agg in sorted(summary.suites.items()):
        line = f"{name:18s} cases {agg.passes}/{agg.cases}"
        if agg.worst_margin is not None:
            line += f"  worst margin {agg.worst_margin:+.3e}"
        if agg.soft_rate is not None:
            line += f"  soft rate {agg.soft_rate:.2%}"
        print(line)
    print(f"overall: {'PASS' if summary.passed else 'FAIL'} ({summary.wall_time:.2f}s)")
    return 0 if summary.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
