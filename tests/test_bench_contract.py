"""What the benchmark in perfbench/ needs of the package, checked on a short run.

perfbench/run.py counts a run as correct only when no instance raises or
fails a hard case, every selected suite reports, a rerun of the same
instances gives the same report bytes, and the `wielandt` soft rate meets
`SuiteConfig().soft_threshold`.  One signature cycle of every workload in
BENCHMARK.json goes through the benchmark's own loop here, so a change that
would make the benchmark exit non-zero fails a test first.  It runs at seeds
0 to 4, so a hard case that fails at some seeds only gets five chances to
show instead of one.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kreinval.cli import SuiteConfig

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(5), ids=lambda seed: f"seed{seed}")
@pytest.mark.parametrize("name", WORKLOADS)
def test_one_signature_cycle_is_correct_and_reruns_identically(bench, name, seed):
    cfgs = bench.configs(bench.WORKLOADS[name], seed)
    first, again = bench.Tally(), bench.Tally()
    bench.closed_loop(cfgs, 0, first, count=len(cfgs))
    bench.closed_loop(cfgs, 0, again, count=len(cfgs))
    assert first.attempted == len(cfgs)
    assert first.failed == 0 and not first.errors, dict(first.errors)
    assert again.digests == first.digests
    soft = first.soft_rate
    assert soft is None or soft >= SuiteConfig().soft_threshold
