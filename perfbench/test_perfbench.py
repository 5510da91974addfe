"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import kreinval.checks as checks  # noqa: E402
import kreinval.spectral as spectral  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_what_the_code_defines():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_exactly_those_in_benchmark_json(trace, section):
    proc = bench("--workload", "cli-batch" if trace == 0 else "sums",
                 "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }


def test_tracing_does_not_change_reports(tmp_path):
    """Every layer runs here: all suites at (2,1) and the sum suites at (3,2)."""
    cfgs = run.configs(run.WORKLOADS["cli-batch"], 5) + run.configs(run.WORKLOADS["sums"], 5)[1:2]
    plain, traced = run.Tally(), run.Tally()
    run.replay(cfgs, 0, plain, tmp_path / "plain.jsonl", count=4)
    original = spectral.check_admissible
    with Tracer() as tracer:
        assert checks.check_admissible is not original
        run.replay(cfgs, 0, traced, tmp_path / "traced.jsonl", count=4, tracer=tracer)
    assert checks.check_admissible is original and spectral.check_admissible is original
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests
    assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "traced.jsonl").read_bytes()
    names = set(tracer.names[s[0]] for s in tracer.spans)
    for layer in ("spectral", "sampling", "geometry", "checks", "polyhedral", "simplex", "fileio", "cli"):
        assert any(n.startswith(layer + ".") for n in names), layer
    metrics = run.layer_metrics(tracer, 4)
    assert metrics["simplex.pivots"] > 0 and metrics["polyhedral.vertices"] > 0
    assert 0 < metrics["spectral.eigendecompose.distinct_ratio"] <= 1


def test_an_instance_that_raises_is_counted_and_the_run_goes_on():
    """cond_cap just above 1 leaves sample_pseudo_unitary no acceptable draw."""
    work = run.WORKLOADS["sums"]
    good = run.configs(work, 0)[0]
    bad = run.configs(work, 0, cond_cap=1.0001)[0]
    tally = run.Tally()
    latencies, _ = run.closed_loop([good, bad], 0, tally, count=4)
    assert len(latencies) == 4
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.errors == {"RetriesExhausted": 2}


def test_cli_report_without_summary_fails_its_instances():
    work = run.WORKLOADS["cli-batch"]
    tally = run.Tally()
    header = {"record": "header", "version": "0", "config": {}}
    run.absorb_cli_records({"records": [header], "returncode": 1, "stderr": "run failed"}, work, tally)
    assert (tally.attempted, tally.failed) == (work.cli_batch, work.cli_batch)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "sums", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
