"""Batch harness: seeded instance generation, check suites, reports, exit codes.

Config values come from defaults, then an optional JSON config file, then
command-line flags (flags win).  The seed falls back to the KREINVAL_SEED
environment variable when neither flags nor file provide one.  Exit status is
0 on success, 1 when any hard check fails, an instance raises, or the soft
success rate drops below the threshold, 2 on configuration errors (in which
case no files are written).  An instance that raises gets an error record
and the run goes on.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .checks import (
    CheckCase,
    CheckReport,
    check_courant_fischer,
    check_ky_fan,
    check_lidskii_wielandt,
    check_thompson_freede,
    check_trace_identity,
    check_weyl,
    check_wielandt_flag,
    finalize_report,
    lambda_index_tuples,
    make_case,
)
from .core import Signature
from .errors import ConfigError, KreinvalError
from .polyhedral import check_diag_membership, check_sum_membership
from .sampling import SamplerConfig, instance_rng, sample_planted
from .spectral import check_admissible

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
#: suites whose checks draw random numbers, each from its own stream
RANDOM_SUITES = frozenset({"lidskii", "thompson_freede", "courant_fischer", "ky_fan", "wielandt"})


@dataclass(frozen=True)
class SuiteConfig:
    """Everything one run needs; mirrors the CLI flags."""

    p: int = 2
    q: int = 1
    instances: int = 10
    seed: int = 0
    suites: tuple[str, ...] = SUITES
    tol_eig: float = 1e-8
    tol_check: float = 1e-8
    trace_rtol: float = 1e-9
    lp_tol: float = 1e-9
    gap_min: float = 0.5
    value_range: tuple[float, float] = (-2.0, 2.0)
    boost_scale: float = 1.0
    cond_cap: float = 1e4
    contraction_cap: float = 0.9
    max_m: int | None = None
    courant_subspaces: int = 100
    kyfan_frames: int = 100
    wielandt_flags: int = 10
    wielandt_frames: int = 5
    ascent_iters: int = 200
    soft_threshold: float = 0.95
    workers: int = 1
    out: str | None = None
    format: str = "json"

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(
            seed=self.seed,
            gap_min=self.gap_min,
            value_range=self.value_range,
            boost_scale=self.boost_scale,
            cond_cap=self.cond_cap,
            contraction_cap=self.contraction_cap,
        )


def validate_config(cfg: SuiteConfig) -> SuiteConfig:
    """Raise ConfigError naming the first offending field."""
    try:
        Signature(cfg.p, cfg.q)
    except ValueError as exc:
        raise ConfigError(f"p/q: {exc}") from exc
    if cfg.instances < 1:
        raise ConfigError(f"instances must be >= 1, got {cfg.instances}")
    unknown = [s for s in cfg.suites if s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; valid: {', '.join(SUITES)}")
    if not cfg.suites:
        raise ConfigError("at least one suite must be selected")
    for name in ("tol_eig", "tol_check", "trace_rtol", "lp_tol"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("courant_subspaces", "kyfan_frames", "wielandt_flags", "wielandt_frames", "ascent_iters"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be >= 0, got {getattr(cfg, name)}")
    if cfg.max_m is not None and cfg.max_m < 1:
        raise ConfigError(f"max_m must be >= 1 (or unset for no limit), got {cfg.max_m}")
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
    return cfg


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

    A and B come from the instance stream (seed, index).  Each suite draws
    from its own stream (seed, index, position of the suite in SUITES), so a
    suite's reports do not depend on which other suites are selected.
    """
    sig = Signature(cfg.p, cfg.q)
    scfg = cfg.sampler()
    rng = instance_rng(cfg.seed, index)
    A, planted, U = sample_planted(sig, scfg, rng)
    B = None
    if any(s in PAIR_SUITES for s in cfg.suites):
        B, _, _ = sample_planted(sig, scfg, rng)

    reports: list[CheckReport] = []
    for suite in cfg.suites:
        rng = instance_rng(cfg.seed, index, SUITES.index(suite)) if suite in RANDOM_SUITES else None
        if suite == "structural":
            recovered = check_admissible(A)
            err = 0.0
            if sig.p:
                err = max(err, float(np.max(np.abs(recovered.lambdas - planted.lambdas))))
            if sig.q:
                err = max(err, float(np.max(np.abs(recovered.mus - planted.mus))))
            allowed = cfg.tol_eig * U.cond**2
            case = make_case("planted_recovery", (), err, allowed, allowed - err, 0.0)
            reports.append(
                finalize_report(
                    "structural", sig, {"cond": U.cond, "tol_eig": cfg.tol_eig}, 0.0, [case]
                )
            )
        elif suite == "trace":
            reports.append(check_trace_identity(A, B, tol=cfg.trace_rtol))
        elif suite == "weyl":
            reports.append(check_weyl(A, B, tol=cfg.tol_check))
        elif suite == "lidskii":
            reports.append(check_lidskii_wielandt(A, B, cfg.max_m, tol=cfg.tol_check, rng=rng))
        elif suite == "thompson_freede":
            reports.append(check_thompson_freede(A, B, tol=cfg.tol_check, rng=rng))
        elif suite == "courant_fischer":
            reports.append(
                check_courant_fischer(
                    A, cfg.courant_subspaces, tol=cfg.tol_check, cfg=scfg, rng=rng
                )
            )
        elif suite == "ky_fan":
            for k in range(1, sig.p + 1):
                reports.append(
                    check_ky_fan(A, k, cfg.kyfan_frames, tol=cfg.tol_check, cfg=scfg, rng=rng)
                )
        elif suite == "wielandt":
            for t in lambda_index_tuples(sig.p, cfg.max_m, rng=rng):
                reports.append(
                    check_wielandt_flag(
                        A,
                        t,
                        n_flags=cfg.wielandt_flags,
                        n_tuples=cfg.wielandt_frames,
                        ascent_iters=cfg.ascent_iters,
                        tol=cfg.tol_check,
                        cfg=scfg,
                        rng=rng,
                    )
                )
        elif suite == "polyhedral":
            reports.append(check_diag_membership(A, tol=cfg.lp_tol))
            reports.append(check_sum_membership(A, B, tol=cfg.lp_tol))
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
    """Run all instances, streaming per-instance reports when an output is set."""
    validate_config(cfg)
    start = time.perf_counter()
    summary = RunSummary(version=__version__, config=config_echo(cfg))

    writer = None
    if cfg.out:
        from .fileio import ReportWriter

        writer = ReportWriter(cfg.out, cfg.format)
        writer.write_header(__version__, config_echo(cfg))
    try:
        if cfg.workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
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
    parser.add_argument("--max-m", type=int, help="largest index-tuple size")
    parser.add_argument("--workers", type=int, help="parallel instance workers")
    parser.add_argument("--out", help="report file path")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    return parser


def build_config(argv=None) -> SuiteConfig:
    args = build_parser().parse_args(argv)
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    flag_fields = (
        "p",
        "q",
        "instances",
        "seed",
        "suites",
        "tol_check",
        "boost_scale",
        "gap_min",
        "cond_cap",
        "value_range",
        "max_m",
        "workers",
        "out",
        "format",
    )
    for name in flag_fields:
        val = getattr(args, name, None)
        if val is not None:
            values[name] = val
    if "seed" not in values and os.environ.get("KREINVAL_SEED"):
        try:
            values["seed"] = int(os.environ["KREINVAL_SEED"])
        except ValueError as exc:
            raise ConfigError(f"KREINVAL_SEED is not an integer: {exc}") from exc
    if "suites" in values:
        values["suites"] = tuple(dict.fromkeys(values["suites"]))
    if "value_range" in values:
        values["value_range"] = tuple(values["value_range"])
    try:
        cfg = SuiteConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return validate_config(cfg)


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run_suite(cfg)
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
