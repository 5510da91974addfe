#!/usr/bin/env python3
"""kreinval benchmark: time to a verdict per instance, throughput, set-up and memory.

    python3 perfbench/run.py --workload sums --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  Each
workload is a closed loop with one caller: the next instance starts when the
previous one returns, and instances are drawn until `--seconds` have passed.
Instance k runs signature `mix[k % len(mix)]` with index `k // len(mix)`, all
under `SuiteConfig(seed=--seed)` with default budgets.

`--trace 0` prints the end-to-end metrics.  `--trace 1` is a separate run:
it wraps the layers' public functions (see tracer.py), runs the loop traced
for half of `--seconds`, replays the same instances untraced, and prints the
per-layer metrics per instance plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A run is correct when no instance raised or failed a hard case, the
`wielandt` soft rate (where it runs) meets `SuiteConfig.soft_threshold`,
every report the program wrote is complete, and reruns give identical reports.
Details of each run (environment, digests, errors) go to perfbench/out/.
"""

from __future__ import annotations

import os

#: one BLAS thread per process, set before numpy loads here and inherited by
#: every child; with OpenBLAS's default, two CLI workers oversubscribe two cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: the held-out seed for re-checking a claimed change is 4099 (see README.md)
DEFAULT_SEED = 0
SETUP_REPEATS = 7
#: nominal duration of one reference-kernel call, ms (see Speedometer)
REF_MS = 0.6
#: time spent on the reference kernel after each measured interval, as a share of it
REF_SHARE = 0.05
#: seed of the untimed warm-up instances, disjoint from any workload seed used
WARMUP_SEED = 2**31 - 1
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)

#: fixed here rather than read from kreinval, so the workloads stay put when suites are added
ALL_SUITES = (
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
#: check_name of the reports each suite adds to an instance
REPORT_NAMES = {
    "structural": ("structural",),
    "trace": ("trace",),
    "weyl": ("weyl",),
    "lidskii": ("lidskii",),
    "thompson_freede": ("thompson_freede",),
    "courant_fischer": ("courant_fischer",),
    "ky_fan": ("ky_fan",),
    "wielandt": ("wielandt",),
    "polyhedral": ("polyhedral_diag", "polyhedral_sum"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    #: signature cycle; its proportions are the workload's fixed signature mix
    mix: tuple[tuple[int, int], ...]
    #: >0: instances per `python -m kreinval.cli` invocation in the timed run
    cli_batch: int = 0
    cli_workers: int = 1


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sums", ("structural", "trace", "weyl", "lidskii", "thompson_freede"),
                 ((2, 1), (3, 2), (4, 3))),
        # (4,3) twice: with two equal clusters the median would fall in the gap between them
        Workload("variational", ("courant_fischer", "ky_fan", "wielandt"), ((3, 2), (4, 3), (4, 3))),
        Workload("enum-5-3", ("structural", "lidskii", "thompson_freede"), ((5, 3),)),
        # cli-batch's instances, in-process: the gated workload that runs every layer
        Workload("all-2-1", ALL_SUITES, ((2, 1),)),
        # Not in BENCHMARK.json.  cli-batch: two workers on two shared cores did
        # not give steady figures.  membership-6-3 and full-6-4: the Phase-I
        # simplex fails on some instances at these sizes, and a full-6-4 run
        # holds too few instances to be steady.
        Workload("cli-batch", ALL_SUITES, ((2, 1),), cli_batch=24, cli_workers=2),
        Workload("membership-6-3", ("structural", "lidskii", "thompson_freede", "polyhedral"), ((6, 3),)),
        Workload("full-6-4", ALL_SUITES, ((6, 4),)),
    )
}

END_TO_END = {
    "instance_p50_ms": "ms",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: suite -> function whose span is that suite's wall time
SUITE_SPANS = {
    "trace": "check_trace_identity",
    "weyl": "check_weyl",
    "lidskii": "check_lidskii_wielandt",
    "thompson_freede": "check_thompson_freede",
    "courant_fischer": "check_courant_fischer",
    "ky_fan": "check_ky_fan",
    "wielandt": "check_wielandt_flag",
}

PER_LAYER = {
    "spectral.check_admissible.calls": "count",
    "spectral.eigendecompose.calls": "count",
    "spectral.eigendecompose.distinct_ratio": "ratio",
    "spectral.compress.calls": "count",
    "spectral.self_ms": "ms",
    "sampling.sample_planted.ms": "ms",
    "sampling.sample_positive_subspace.calls": "count",
    "sampling.subordinate_frame.calls": "count",
    "sampling.self_ms": "ms",
    "geometry.pseudo_orthonormalize.calls": "count",
    "geometry.gram.calls": "count",
    "geometry.subspace_in_positive_cone.calls": "count",
    "geometry.classify.calls": "count",
    "geometry.self_ms": "ms",
    **{f"checks.{suite}.ms": "ms" for suite in SUITE_SPANS},
    "checks.enumeration.ms": "ms",
    "checks.enumeration.tuples": "count",
    "checks.self_ms": "ms",
    "polyhedral.membership.ms": "ms",
    "polyhedral.build_region.ms": "ms",
    "polyhedral.vertices": "count",
    "polyhedral.lp_feasible.calls": "count",
    "simplex.phase_one_feasible.ms": "ms",
    "simplex.pivots": "count",
    "simplex.tableau_cells": "count",
    "fileio.write_instance.ms": "ms",
    "fileio.bytes_per_instance": "bytes",
    "cli.run_instance.self_ms": "ms",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


# ---------------------------------------------------------------------------
# configs and checks on outputs


def configs(work: Workload, seed: int, **overrides) -> list:
    """One validated SuiteConfig per entry of the workload's signature mix."""
    from kreinval.cli import SuiteConfig, validate_config

    return [
        validate_config(SuiteConfig(p=p, q=q, seed=seed, suites=work.suites, **overrides))
        for p, q in work.mix
    ]


class Tally:
    """Failures, soft-case counts and report digests of one loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.soft_cases = 0
        self.soft_passes = 0
        self.digests: list[str] = []  # sha256 of each report record, in order

    def instance(self, k: int, suites, call) -> list | None:
        """Run `call()` for instance k; a raise is counted, never propagated."""
        self.attempted += 1
        try:
            reports = call()
        except Exception as exc:  # one bad instance must not end the run
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            self.digests.append(type(exc).__name__)
            return None
        dicts = [r.to_dict() for r in reports]
        self.record({"record": "instance", "instance": k, "reports": dicts})
        self.absorb(dicts, suites)
        return reports

    def record(self, doc: dict) -> None:
        """Digest a report record serialized as the JSONL report file holds it."""
        self.digests.append(hashlib.sha256((json.dumps(doc, sort_keys=True) + "\n").encode()).hexdigest())

    def absorb(self, reports: list[dict], suites) -> None:
        """Check one instance's reports: every selected suite present, every hard case passed."""
        expected = sorted(n for s in suites for n in REPORT_NAMES[s])
        names = sorted(set(r["check_name"] for r in reports))
        if names != expected:
            self.errors[f"reports {names} != {expected}"] += 1
            self.failed += 1
        elif not all(r["passed"] for r in reports):
            self.errors["hard case failed"] += 1
            self.failed += 1
        for rep in reports:
            if rep["check_name"] == "wielandt":
                self.soft_cases += len(rep["soft_cases"])
                self.soft_passes += sum(c["passed"] for c in rep["soft_cases"])

    @property
    def soft_rate(self) -> float | None:
        return self.soft_passes / self.soft_cases if self.soft_cases else None

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


# ---------------------------------------------------------------------------
# timed runs


class Speedometer:
    """Host speed, read from a fixed reference kernel between measured intervals.

    On a shared machine the speed of the same code drifts by tens of percent
    within a minute, which no median over one run removes.  The drift slows
    this kernel (small complex eig and svd plus a Python loop, like the
    package's own inner loops) by about as much, so each interval is scaled
    by REF_MS over the kernel's mean time in the readings just before and
    just after it.  Scaled times are milliseconds on a host where one kernel
    call takes REF_MS.  The kernel does not use kreinval, so a change to the
    package moves scaled times by the same factor as wall times.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(20080101)
        self._mats = [rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)) for _ in range(6)]
        self.readings: list[float] = []  # mean seconds per kernel call

    def _kernel(self) -> float:
        np, acc = self._np, 0.0
        for m in self._mats:
            w, v = np.linalg.eig(m)
            acc += float(np.linalg.svd(v, compute_uv=False)[-1])
            for z in w:
                acc += abs(z)
        return acc

    def read(self, seconds: float) -> None:
        """Time kernel calls for at least `seconds`, at least one call."""
        calls, t0 = 0, time.perf_counter()
        while True:
            self._kernel()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        self.readings.append(elapsed / calls)

    def scale(self, intervals: list[float]) -> list[float]:
        """Interval i scaled by the readings taken before (i) and after (i + 1) it."""
        assert len(self.readings) == len(intervals) + 1
        r = self.readings
        return [t * REF_MS * 2e-3 / (r[i] + r[i + 1]) for i, t in enumerate(intervals)]


#: fresh-interpreter set-up probe; a pure-Python reference loop is timed just
#: before and just after the import (numpy cannot be used before it is imported)
SETUP_CODE = """
import json, sys, time
def reference():
    t = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    return time.perf_counter() - t
before = sorted(reference() for _ in range(3))[1]
t0 = time.perf_counter()
from kreinval.cli import SuiteConfig, validate_config
validate_config(SuiteConfig(**json.loads(sys.argv[1])))
elapsed = time.perf_counter() - t0
after = sorted(reference() for _ in range(3))[1]
print(elapsed, before, after)
"""
#: nominal duration of SETUP_CODE's reference loop, s
SETUP_REF_S = 2e-3


def measure_setup(work: Workload, seed: int, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time, scaled and unscaled, in fresh interpreters to import kreinval.cli
    and validate the workload's config.

    Each child's time is scaled like Speedometer does, by SETUP_REF_S over the
    mean of the reference loop timed in the same child before and after.
    """
    p, q = work.mix[0]
    cfg = json.dumps({"p": p, "q": q, "seed": seed, "suites": list(work.suites)})
    raw, scaled = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, cfg],
            env=child_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        elapsed, before, after = map(float, out.stdout.split()[-3:])
        raw.append(elapsed)
        scaled.append(elapsed * 2 * SETUP_REF_S / (before + after))
    return statistics.median(scaled), statistics.median(raw)


def warm_up(work: Workload) -> None:
    """One small untimed instance per suite set, so lazy imports finish before timing."""
    from kreinval.cli import SuiteConfig, run_instance

    run_instance(SuiteConfig(p=2, q=1, seed=WARMUP_SEED, suites=work.suites), 0)


def closed_loop(cfgs: list, seconds: float, tally: Tally, *, count: int | None = None,
                tracer=None, writer=None, speed: Speedometer | None = None) -> tuple[list[float], float]:
    """Run instances back to back for `seconds` (or exactly `count` of them).

    Returns per-instance latencies in seconds and the loop's wall time.  With
    `speed`, the reference kernel is read before the loop and after each instance.
    """
    from kreinval.cli import run_instance

    latencies = []
    if speed is not None:
        speed.read(0.0)
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while (k < count) if count is not None else (k == 0 or time.perf_counter() < deadline):
        cfg = cfgs[k % len(cfgs)]
        index = k // len(cfgs)
        if tracer is not None:
            tracer.start_instance(k)
        t0 = time.perf_counter()
        reports = tally.instance(k, cfg.suites, lambda: run_instance(cfg, index))
        latencies.append(time.perf_counter() - t0)
        if speed is not None:
            speed.read(REF_SHARE * latencies[-1])
        if writer is not None and reports is not None:
            writer.write_instance(k, reports)
        k += 1
    return latencies, time.perf_counter() - start


def tail(latencies_ms: list[float]) -> tuple[float, float, int] | None:
    """Highest ladder percentile with at least ten samples above it."""
    n = len(latencies_ms)
    ordered = sorted(latencies_ms)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if 1 <= rank and n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def run_cli(work: Workload, seed: int, instances: int, out: Path) -> dict:
    """One `python -m kreinval.cli` invocation, its wall time, peak RSS and report records."""
    p, q = work.mix[0]
    argv = [sys.executable, "-m", "kreinval.cli", "--p", str(p), "--q", str(q),
            "--instances", str(instances), "--seed", str(seed),
            "--workers", str(work.cli_workers), "--out", str(out)]
    for suite in work.suites:
        argv += ["--suite", suite]
    with open(out.with_suffix(".err"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            # wait4 reports the largest RSS of the CLI process and its reaped workers
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    out.with_suffix(".err").unlink()
    records = [json.loads(line) for line in out.read_text().splitlines()] if out.exists() else []
    return {"wall": wall, "rss_kb": usage.ru_maxrss, "returncode": proc.returncode,
            "stderr": stderr, "records": records}


def cli_loop(work: Workload, seed: int, seconds: float, tally: Tally,
             speed: Speedometer) -> tuple[list[float], float, float]:
    """Timed cli-batch: invocations of `cli_batch` instances until `seconds` pass.

    Each invocation k uses seed `seed * 1000 + k`, so no instance repeats.
    Latency is the invocation's wall time over its instance count.
    """
    per_instance, rss_kb = [], 0
    speed.read(0.0)
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        out = OUT / f"cli-{os.getpid()}.jsonl"
        res = run_cli(work, seed * 1000 + k, work.cli_batch, out)
        speed.read(REF_SHARE * res["wall"])
        out.unlink(missing_ok=True)
        per_instance.append(res["wall"] / work.cli_batch)
        rss_kb = max(rss_kb, res["rss_kb"])
        absorb_cli_records(res, work, tally)
        k += 1
    return per_instance, time.perf_counter() - start, rss_kb / 1024


def absorb_cli_records(res: dict, work: Workload, tally: Tally) -> None:
    """Count a CLI report's instances; one without its summary record fails them all."""
    records = res["records"]
    tally.attempted += work.cli_batch
    if not any(r.get("record") == "summary" for r in records) or res["returncode"] not in (0, 1):
        tally.failed += work.cli_batch
        tally.errors[f"cli exit {res['returncode']}: {res['stderr'].strip()[-200:]}"] += 1
        return
    done = 0
    for rec in records:
        if rec["record"] == "meta":
            continue
        tally.record(rec)
        if rec["record"] == "instance":
            done += 1
            tally.absorb(rec["reports"], work.suites)
    if done != work.cli_batch:
        tally.failed += work.cli_batch - done
        tally.errors["missing instance records"] += 1


def timed_run(work: Workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    setup_s, setup_wall = measure_setup(work, seed)
    tally, speed = Tally(), Speedometer()
    if work.cli_batch:
        per_instance, wall, rss_mb = cli_loop(work, seed, seconds, tally, speed)
        completed = tally.attempted
    else:
        cfgs = configs(work, seed)
        warm_up(work)
        per_instance, wall = closed_loop(cfgs, seconds, tally, speed=speed)
        completed = len(per_instance)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # reproducibility: the first instance of each signature, rerun, gives the same reports
        again = Tally()
        rerun = min(len(cfgs), completed)
        closed_loop(cfgs, 0, again, count=rerun)
        if again.digests != tally.digests[:rerun]:
            tally.errors["rerun changed reports"] += 1
    scaled = speed.scale(per_instance)
    batch = work.cli_batch or 1
    ms = [t * 1e3 for t in scaled]
    metrics = {
        "instance_p50_ms": statistics.median(ms),
        "instances_per_s": completed / (sum(scaled) * batch),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    info = {
        "latency_samples": len(ms),
        "tail": tail(ms),
        "unscaled": {
            "instance_p50_ms": statistics.median(per_instance) * 1e3,
            "instances_per_s": completed / wall,
            "setup_s": setup_wall,
            "reference_call_ms": statistics.median(speed.readings) * 1e3,
        },
    }
    return tally, metrics, info


# ---------------------------------------------------------------------------
# traced run


def layer_metrics(tracer, n: int) -> dict:
    """Per-instance layer metrics from the tracer's spans and counters."""
    calls, inclusive, self_time = tracer.totals()
    counts = tracer.counts

    def ms(*names: str) -> float:
        return sum(inclusive.get(name, 0.0) for name in names) * 1e3 / n

    def self_ms(layer: str) -> float:
        return sum(t for name, t in self_time.items() if name.startswith(layer + ".")) * 1e3 / n

    decompositions = calls.get("spectral.eigendecompose", 0)
    out = {
        "spectral.check_admissible.calls": calls.get("spectral.check_admissible", 0) / n,
        "spectral.eigendecompose.calls": decompositions / n,
        "spectral.eigendecompose.distinct_ratio":
            counts["spectral.eigendecompose.distinct"] / decompositions if decompositions else 0.0,
        "spectral.compress.calls": calls.get("spectral.compress", 0) / n,
        "spectral.self_ms": self_ms("spectral"),
        "sampling.sample_planted.ms": ms("sampling.sample_planted"),
        "sampling.sample_positive_subspace.calls": calls.get("sampling.sample_positive_subspace", 0) / n,
        "sampling.subordinate_frame.calls": calls.get("sampling.subordinate_frame", 0) / n,
        "sampling.self_ms": self_ms("sampling"),
        "geometry.pseudo_orthonormalize.calls": calls.get("geometry.pseudo_orthonormalize", 0) / n,
        "geometry.gram.calls": calls.get("geometry.gram", 0) / n,
        "geometry.subspace_in_positive_cone.calls": calls.get("geometry.subspace_in_positive_cone", 0) / n,
        "geometry.classify.calls": calls.get("geometry.classify", 0) / n,
        "geometry.self_ms": self_ms("geometry"),
        **{f"checks.{suite}.ms": ms(f"checks.{fn}") for suite, fn in SUITE_SPANS.items()},
        "checks.enumeration.ms": ms("checks.lambda_index_tuples", "checks.thompson_freede_pairs"),
        "checks.enumeration.tuples": counts["checks.enumeration.tuples"] / n,
        "checks.self_ms": self_ms("checks"),
        "polyhedral.membership.ms": ms("polyhedral.check_diag_membership", "polyhedral.check_sum_membership"),
        "polyhedral.build_region.ms": ms("polyhedral.build_region"),
        "polyhedral.vertices": counts["polyhedral.vertices"] / n,
        "polyhedral.lp_feasible.calls": calls.get("polyhedral.lp_feasible", 0) / n,
        "simplex.phase_one_feasible.ms": ms("simplex.phase_one_feasible"),
        "simplex.pivots": counts["simplex.pivots"] / n,
        "simplex.tableau_cells": counts["simplex.tableau_cells"] / n,
        "fileio.write_instance.ms": ms("fileio.write_instance"),
        "cli.run_instance.self_ms": self_time.get("cli.run_instance", 0.0) * 1e3 / n,
    }
    return out


def replay(cfgs: list, seconds: float, tally: Tally, report: Path, *, count: int | None = None,
           tracer=None) -> tuple[int, float, int]:
    """Closed loop that also writes every instance's reports with ReportWriter.

    Returns instances run, their summed scaled latency and bytes written per instance.
    """
    from kreinval import __version__
    from kreinval.cli import config_echo
    from kreinval.fileio import ReportWriter

    with ReportWriter(report) as writer:
        writer.write_header(__version__, config_echo(cfgs[0]))
        header = report.stat().st_size
        speed = Speedometer()
        latencies, _ = closed_loop(cfgs, seconds, tally, count=count, tracer=tracer, writer=writer,
                                   speed=speed)
    n = len(latencies)
    return n, sum(speed.scale(latencies)), (report.stat().st_size - header) // n


def traced_run(work: Workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    from tracer import Tracer

    cfgs = configs(work, seed)
    warm_up(work)
    report = OUT / f"report-{os.getpid()}.jsonl"
    tally = Tally()
    with Tracer() as tracer:
        n, traced_s, bytes_per = replay(cfgs, seconds / 2, tally, report, tracer=tracer)
    plain = Tally()
    _, plain_s, _ = replay(cfgs, 0, plain, report, count=n)
    report.unlink()
    if plain.digests != tally.digests:
        tally.errors["tracing changed reports"] += 1

    probe = run_cli(work, seed, work.cli_batch or 1, report)
    report.unlink(missing_ok=True)
    meta = [r for r in probe["records"] if r.get("record") == "meta"]
    if not meta:
        tally.errors[f"cli probe exit {probe['returncode']}: {probe['stderr'].strip()[-200:]}"] += 1
    metrics = layer_metrics(tracer, n)
    metrics["fileio.bytes_per_instance"] = float(bytes_per)
    metrics["cli.overhead_s"] = probe["wall"] - (meta[0]["wall_time_s"] if meta else 0.0)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    tracer.write(OUT / f"spans-{work.name}-seed{seed}.json.gz")
    info = {"traced_scaled_s": traced_s, "untraced_scaled_s": plain_s,
            "untraced_digest": plain.digest}
    return tally, {name: metrics[name] for name in PER_LAYER}, info


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kreinval" / "cli.py").is_file():
        print(f"kreinval sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    OUT.mkdir(exist_ok=True)

    from kreinval.cli import SuiteConfig

    work = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    tally, metrics, info = run(work, args.seed, args.seconds)
    threshold = SuiteConfig().soft_threshold
    soft = tally.soft_rate
    correct = (tally.failed == 0 and not tally.errors
               and (soft is None or soft >= threshold))
    units = PER_LAYER if args.trace else END_TO_END

    print(f"workload {work.name}  mix {list(work.mix)}  suites {list(work.suites)}  "
          f"seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    env = environment(args.seed)
    print("env", json.dumps(env))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    if not args.trace:
        raw = info["unscaled"]
        print(f"  unscaled wall time: p50 {raw['instance_p50_ms']:.6g} ms, {raw['instances_per_s']:.6g} "
              f"instances/s, set-up {raw['setup_s']:.6g} s; reference call {raw['reference_call_ms']:.6g} ms"
              f" (REF_MS {REF_MS:g})")
        t = info["tail"]
        print(f"  {'instance_tail_ms':42s} " + (
            f"{t[1]:14.6g} ms  (p{t[0]:g} of {info['latency_samples']} samples, {t[2]} above)"
            if t else f"{'-':>14s}     (fewer than 10 samples above p{TAIL_LADDER[-1]:g})"))
    print(f"  {'fail_frac':42s} {tally.failed / max(tally.attempted, 1):14.6g}     "
          f"({tally.failed} of {tally.attempted} instances)")
    print(f"  {'soft_rate':42s} " + (
        f"{soft:14.6g}     ({tally.soft_cases} wielandt soft cases, threshold {threshold:g})"
        if soft is not None else f"{'-':>14s}     (no wielandt suite)"))
    print(f"  report digest sha256:{tally.digest}")
    for err, n in tally.errors.items():
        print(f"  error x{n}: {err}")

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {**result, "workload": work.name, "trace": args.trace, "seconds": args.seconds,
              "env": env, "soft_rate": soft, "errors": dict(tally.errors),
              "digest": tally.digest, "info": info}
    (OUT / f"{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
