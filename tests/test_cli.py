import concurrent.futures
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kreinval
from kreinval import (
    AdmissibleSpectrum,
    ConfigError,
    Signature,
    check_courant_fischer,
    check_ky_fan,
    check_wielandt_flag,
    cli,
    eigendecompose,
    instance_rng,
    read_matrix,
    sample_planted,
    sampling,
    write_matrix,
)
from kreinval.checks import DEFAULT_TOL, EQUALITY_TOL
from kreinval.cli import SUITES, SuiteConfig, build_config, main, run_instance, run_suite, validate_config
from kreinval.errors import SchemaError
from kreinval.polyhedral import LP_TOL
from kreinval.sampling import SamplerConfig
from kreinval.spectral import shift_margin

SEED = 606

#: for each parser destination, the values given after its flag and the field value they set, not the default
FLAG_VALUES = {
    "p": (["3"], 3),
    "q": (["2"], 2),
    "instances": (["4"], 4),
    "seed": (["11"], 11),
    "suites": (["weyl"], ("weyl",)),
    "tol_check": (["1e-7"], 1e-7),
    "boost_scale": (["2.5"], 2.5),
    "gap_min": (["0.25"], 0.25),
    "cond_cap": (["1e3"], 1e3),
    "value_range": (["-1", "3"], (-1.0, 3.0)),
    "workers": (["2"], 2),
    "out": (["r.jsonl"], "r.jsonl"),
    "format": (["csv"], "csv"),
}


def body_lines(path):
    """Report lines with the timestamped trailer record stripped."""
    lines = open(path).read().splitlines()
    return [ln for ln in lines if json.loads(ln).get("record") != "meta"]


class TestConfig:
    def test_defaults(self):
        cfg = build_config([])
        assert cfg.p == 2 and cfg.q == 1
        assert cfg.suites == SUITES
        # the tolerance and sampler values default to their owners'
        assert cfg.tol_check == DEFAULT_TOL
        assert cfg.sampler() == SamplerConfig()
        # the suites without a config tolerance run at fixed ones
        reports = {r.check_name: r for r in run_instance(cfg, 0)}
        assert reports["structural"].descriptor["tol_eig"] == cli.TOL_PLANTED
        assert [reports[name].tol for name in ("trace", "polyhedral_diag", "polyhedral_sum")] == [
            EQUALITY_TOL, LP_TOL, LP_TOL]

    @pytest.mark.parametrize(
        "flag, dest",
        [(a.option_strings[0], a.dest) for a in cli.build_parser()._actions if a.dest not in ("help", "config")],
        ids=lambda x: x,
    )
    def test_each_flag_given_reaches_its_config_field(self, flag, dest, monkeypatch):
        """Every parser destination but ``config`` is a SuiteConfig field, and ``build_config`` sets it from its flag."""
        monkeypatch.delenv("KREINVAL_SEED", raising=False)
        assert dest in {f.name for f in dataclasses.fields(SuiteConfig)}
        values, want = FLAG_VALUES[dest]
        assert getattr(SuiteConfig(), dest) != want
        assert getattr(build_config([flag, *values]), dest) == want

    def test_flags_override(self):
        cfg = build_config(["--p", "3", "--q", "2", "--seed", "42", "--tol", "1e-7"])
        assert (cfg.p, cfg.q, cfg.seed, cfg.tol_check) == (3, 2, 42, 1e-7)

    def test_suite_selection_dedup(self):
        cfg = build_config(["--suite", "weyl", "--suite", "trace", "--suite", "weyl"])
        assert cfg.suites == ("weyl", "trace")

    def test_a_library_run_keeps_each_suite_once(self, tmp_path):
        """validate_config keeps each suite once, in its first place, and run_suite runs the config it returns."""
        assert validate_config(SuiteConfig(suites=["weyl", "trace", "weyl"])).suites == ("weyl", "trace")
        out = tmp_path / "r.jsonl"
        summary = run_suite(SuiteConfig(p=2, q=1, instances=1, suites=("weyl", "weyl"), out=str(out)))
        assert summary.suites["weyl"].cases == 3  # (2, 1): one case per eigenvalue
        assert summary.config["suites"] == ["weyl"]
        (record,) = [json.loads(ln) for ln in body_lines(out) if json.loads(ln)["record"] == "instance"]
        assert [r["check_name"] for r in record["reports"]] == ["weyl"]

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_a_tolerance_that_is_not_finite_is_a_config_error(self, tmp_path, capsys, value):
        """An infinite tolerance would pass every case and a NaN one fail them all: exit 2 and no file."""
        out = tmp_path / "r.jsonl"
        assert main(["--instances", "1", f"--tol={value}", "--out", str(out)]) == 2
        assert "tol_check must be positive and finite" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError, match="tol_check"):
            validate_config(SuiteConfig(tol_check=float(value)))

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-NAN"])
    def test_a_negative_non_finite_flag_value_reaches_the_config_check(self, tmp_path, capsys, value):
        """``--tol -inf`` and ``--value-range -inf 1`` parse as values, so the config check rejects them."""
        out = tmp_path / "r.jsonl"
        for flags in (["--tol", value], ["--value-range", value, "1"]):
            assert main(["--instances", "1", *flags, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if line] == [err.strip()] and err.startswith("config error: ")
            assert not out.exists()

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            build_config(["--suite", "nonsense"])

    def test_the_retired_size_bound_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--max-m", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --max-m" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, tmp_path):
        doc = {"p": 3, "q": 1, "seed": 100, "instances": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = build_config(["--config", str(path), "--seed", "7"])
        assert cfg.p == 3
        assert cfg.seed == 7  # flag wins over file
        assert cfg.instances == 2

    def test_config_file_unknown_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(ConfigError):
            build_config(["--config", str(path)])

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("KREINVAL_SEED", "12345")
        assert build_config([]).seed == 12345
        # explicit flag still wins
        assert build_config(["--seed", "1"]).seed == 1
        monkeypatch.setenv("KREINVAL_SEED", "not-a-number")
        with pytest.raises(ConfigError):
            build_config([])
        monkeypatch.setenv("KREINVAL_SEED", "-1")
        with pytest.raises(ConfigError, match="seed"):
            build_config([])

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            validate_config(SuiteConfig(p=0, q=0))
        with pytest.raises(ConfigError):
            validate_config(SuiteConfig(instances=0))
        with pytest.raises(ConfigError):
            validate_config(SuiteConfig(format="xml"))
        with pytest.raises(ConfigError):
            validate_config(SuiteConfig(tol_check=-1.0))
        with pytest.raises(ConfigError, match="out"):
            validate_config(SuiteConfig(out=5))

    @pytest.mark.parametrize(
        "field, value",
        [
            # removed with the frame stack, which the certificates replaced: any value is an unknown field
            ("courant_subspaces", -1),
            ("kyfan_frames", -1),
            ("wielandt_flags", -1),
            ("contraction_cap", 0.5),
            # removed with the sampled eigenflag frames: any value is an unknown field
            ("wielandt_frames", -1),
            ("wielandt_frames", 5),
            # removed with the tuple-size bound, which the closed forms made moot
            ("max_m", 0),
            ("max_m", -2),
            ("max_m", 2.5),
            # removed: the structural, trace and polyhedral suites run at fixed tolerances
            ("tol_eig", float("nan")),
            ("trace_rtol", float("inf")),
            ("lp_tol", float("nan")),
            ("tol_struct", 5.0),  # removed: it was echoed but never read
            ("ascent_iters", -1),  # removed with the flag ascent
            # a sampler value that is not finite; json.dumps writes Infinity and NaN
            ("gap_min", float("inf")),
            ("gap_min", float("nan")),
            ("boost_scale", float("inf")),
            # a tolerance that is not finite
            ("tol_check", float("inf")),
            pytest.param("value_range", [float("-inf"), 1.0], id="value_range-inf"),
            pytest.param("value_range", [-1e308, 1e308], id="value_range-wide"),  # width overflows
            # a value of the wrong type
            ("wielandt_flags", 1.5),  # now an unknown field
            ("courant_subspaces", True),
            ("seed", 1.5),
            # seeds are SeedSequence entropy, which is non-negative
            ("seed", -1),
            ("tol_check", "1e-8"),
            ("workers", "2"),
            ("gap_min", "0.5"),
            ("contraction_cap", None),
            ("value_range", 5),
            pytest.param("value_range", ["-1", "1"], id="value_range-strings"),
            ("suites", "trace"),
            pytest.param("suites", ["trace", 1], id="suites-not-names"),
        ],
    )
    def test_a_bad_budget_stops_before_any_file_is_written(self, tmp_path, capsys, field, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: value}))
        out = tmp_path / "r.jsonl"
        assert main(["--p", "4", "--q", "3", "--instances", "1", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["a directory", "a missing parent"])
    def test_a_report_file_that_cannot_be_opened_is_a_config_error(self, tmp_path, capsys, where):
        out = tmp_path if where == "a directory" else tmp_path / "missing" / "r.jsonl"
        assert main(["--instances", "1", "--suite", "weyl", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot open report file {out}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize(
        "tokens, want",
        [
            (["-1e6", "1e6"], (-1e6, 1e6)),
            (["-2.5E-1", "3"], (-0.25, 3.0)),
            (["-3", "-.5"], (-3.0, -0.5)),
        ],
    )
    def test_negative_bounds_in_scientific_notation_parse(self, tokens, want):
        assert build_config(["--value-range", *tokens, "--p", "1"]).value_range == want
        assert main(["--p", "1", "--q", "1", "--instances", "1", "--suite", "weyl", "--value-range", *tokens]) == 0

class TestMatrixIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        sig = Signature(2, 2)
        rng = instance_rng(SEED, 0)
        A, _, _ = sample_planted(sig, SamplerConfig(), rng)
        path = tmp_path / "m.json"
        write_matrix(A, path)
        B = read_matrix(path)
        assert np.array_equal(A.entries, B.entries)
        assert B.signature == sig

    def test_schema_errors_name_the_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p": 1, "entries": []}))
        with pytest.raises(SchemaError, match="q"):
            read_matrix(path)
        path.write_text(json.dumps({"p": 1, "q": 1, "entries": [[[1, 0]], [[0, 0]]]}))
        with pytest.raises(SchemaError, match="row 0"):
            read_matrix(path)
        path.write_text("{broken")
        with pytest.raises(SchemaError, match="JSON"):
            read_matrix(path)
        # signature counts are JSON integers and entry parts JSON numbers, none of them a bool
        entries = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        for field, bad in (("p", 1.9), ("p", True), ("p", "1"), ("q", 1.0), ("q", False)):
            path.write_text(json.dumps({"p": 1, "q": 1, "entries": entries, field: bad}))
            with pytest.raises(SchemaError, match=f"'{field}' must be an integer"):
                read_matrix(path)
        for bad in (["1.0", False], ["1.0", 0.0], [1.0, False], [True, 0.0], [1.0, None], [1.0], 1.0):
            path.write_text(json.dumps({"p": 1, "q": 1, "entries": [[bad, [0.0, 0.0]], entries[1]]}))
            with pytest.raises(SchemaError, match=r"entry \(0, 0\) must be a \[re, im\] pair of numbers"):
                read_matrix(path)
        path.write_text(json.dumps({"p": 1, "q": 1, "entries": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        with pytest.raises(SchemaError, match=r"entry \(0, 0\) is out of range"):
            read_matrix(path)
        path.write_text('{"p": 1, "q": 1, "entries": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}')
        with pytest.raises(SchemaError, match="finite"):
            read_matrix(path)
        path.write_text(json.dumps({"p": 1, "q": 1, "entries": entries}))
        assert read_matrix(path) == kreinval.PseudoHermitianMatrix(Signature(1, 1), np.diag([1.0, -1.0]))

    def test_structural_violation_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        doc = {"p": 1, "q": 1, "entries": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="residual"):
            read_matrix(path)
        # the same matrix loads at a tolerance above its residual, 2
        assert read_matrix(path, tol=2.0).tol == 2.0


class TestRunner:
    def test_run_instance_produces_all_suites(self):
        cfg = SuiteConfig(p=2, q=1, instances=1, seed=3)
        reports = run_instance(cfg, 0)
        names = {r.check_name for r in reports}
        assert {"structural", "trace", "weyl", "lidskii", "thompson_freede"} <= names
        assert {"courant_fischer", "ky_fan", "wielandt", "polyhedral_diag"} <= names

    def test_each_suite_alone_reproduces_its_reports(self):
        full = run_instance(SuiteConfig(p=3, q=2, seed=0), 0)
        for suite in SUITES:
            alone = run_instance(SuiteConfig(p=3, q=2, seed=0, suites=(suite,)), 0)
            names = {r.check_name for r in alone}
            expected = [r.to_dict() for r in full if r.check_name in names]
            assert [r.to_dict() for r in alone] == expected, suite
        # the variational suites share one memoized eigensystem and set of certificates
        index, variational = 2, ("courant_fischer", "ky_fan", "wielandt")
        cfg = SuiteConfig(p=4, q=3, seed=SEED, suites=variational)
        together = [r.to_dict() for r in run_instance(cfg, index)]
        A, _, _ = sample_planted(Signature(4, 3), cfg.sampler(), instance_rng(SEED, index))
        direct = {
            "courant_fischer": [check_courant_fischer(A)],
            "ky_fan": check_ky_fan(A),
            "wielandt": check_wielandt_flag(A),
        }
        for suite in variational:
            alone = [r.to_dict() for r in run_instance(dataclasses.replace(cfg, suites=(suite,)), index)]
            assert alone == [r for r in together if r["check_name"] == suite], suite
            assert alone == [r.to_dict() for r in direct[suite]], suite

    def test_no_positive_block_or_no_budget_draws_no_frames(self, monkeypatch):
        """The variational suites draw nothing past the instance's matrix, at p = 0 or not: there is no frame
        budget, and every case is certified or a witness.  The instance opens one stream, and it ends where
        the draw of A alone ends."""
        streams = []

        def recording(*key):
            streams.append(instance_rng(*key))
            return streams[-1]

        monkeypatch.setattr(cli, "instance_rng", recording)
        variational = ("courant_fischer", "ky_fan", "wielandt")
        for p, q in ((0, 2), (2, 1)):
            streams.clear()
            run_instance(SuiteConfig(p=p, q=q, seed=SEED, suites=variational), 0)
            rng = instance_rng(SEED, 0)
            fresh = rng.bit_generator.state
            sample_planted(Signature(p, q), SamplerConfig(), rng)
            assert rng.bit_generator.state != fresh
            assert len(streams) == 1
            assert streams[0].bit_generator.state == rng.bit_generator.state, (p, q)
        reports = run_instance(SuiteConfig(p=0, q=2, seed=SEED, suites=variational), 0)
        assert [(r.check_name, r.descriptor, r.cases, r.notes) for r in reports] == [
            ("courant_fischer", {"equality_tol": 1e-9}, (), ("no positive-type block",)),
            ("ky_fan", {"equality_tol": 1e-9}, (), ("no positive-type block",)),
            ("wielandt", {}, (), ("no positive-type block",)),
        ]
        reports = run_instance(SuiteConfig(p=2, q=1, seed=SEED, suites=variational), 0)
        assert all(r.passed for r in reports)
        assert [[c.case_id for c in r.cases] for r in reports] == [
            ["minmax_witness:1", "restricted_cert:1", "restricted_witness:1",
             "minmax_witness:2", "restricted_cert:2", "restricted_witness:2"],
            ["restricted_cert_min:1", "partial_sum_witness:1"],
            ["restricted_cert_min:2", "partial_sum_witness:2"],
            ["eigenflag_max", "eigenflag_witness", "eigenflag_witness_etas", "restricted_cert_min:1"],
            *[["eigenflag_max", "eigenflag_witness", "restricted_cert_min:2"]] * 2,
        ]

    def test_courant_fischer_draws_only_from_the_instance_stream(self, monkeypatch):
        """Every random number of an instance comes from (seed, index)."""
        subkeys = []

        def recording(seed, index=0, *keys):
            subkeys.append(keys)
            return instance_rng(seed, index, *keys)

        monkeypatch.setattr(cli, "instance_rng", recording)
        for index in range(3):
            run_instance(SuiteConfig(p=3, q=2, seed=SEED, suites=("courant_fischer",)), index)
        assert subkeys == [()] * 3

    @pytest.mark.parametrize("pq", [(12, 8), (16, 0), (0, 16)], ids=lambda pq: f"p{pq[0]}q{pq[1]}")
    def test_every_suite_but_polyhedral_passes_at_large_signatures(self, pq):
        """One instance through run_instance; wielandt reports every shape (r, m), p (p + 1) / 2 of them."""
        suites = tuple(s for s in SUITES if s != "polyhedral")
        reports = run_instance(SuiteConfig(p=pq[0], q=pq[1], seed=SEED, suites=suites), 0)
        assert sorted({r.check_name for r in reports}) == sorted(suites)
        assert [(r.check_name, c.case_id, c.margin) for r in reports for c in r.cases if not c.passed] == []
        assert all(r.passed for r in reports)
        p = pq[0]
        shapes = [(r.descriptor["top"], r.descriptor["m"]) for r in reports if "top" in r.descriptor]
        assert shapes == [(r, m) for r in range(1, p + 1) for m in range(1, r + 1)]
        assert len(shapes) == p * (p + 1) // 2

    def test_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        rc = main(["--p", "1", "--q", "1", "--instances", "1", "--seed", "4",
                   "--suite", "weyl", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        rc = main(["--p", "0", "--q", "0", "--out", str(tmp_path / "never.jsonl")])
        assert rc == 2
        assert not (tmp_path / "never.jsonl").exists()
        # an absurdly tight tolerance fails the eigenflag bound, whose margin is minus its roundoff
        rc = main(["--p", "1", "--q", "1", "--instances", "1", "--seed", "4",
                   "--suite", "wielandt", "--tol", "1e-300", "--out", str(out)])
        assert rc == 1
        (record,) = [json.loads(ln) for ln in body_lines(out) if json.loads(ln)["record"] == "instance"]
        failed = [(r["descriptor"], c["case_id"]) for r in record["reports"] for c in r["cases"] if not c["passed"]]
        assert failed == [({"top": 1, "m": 1}, "eigenflag_max")]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_report_file_that_cannot_be_written_is_a_clean_failure(self, capsys, monkeypatch, fmt):
        """Every write to /dev/full fails: one stderr line, exit 1, and the handle is closed, though its close fails too."""
        from kreinval import fileio

        writers = []
        init = fileio.ReportWriter.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            writers.append(self)

        monkeypatch.setattr(fileio.ReportWriter, "__init__", recording_init)
        rc = main(["--p", "1", "--q", "1", "--instances", "1", "--suite", "weyl", "--out", "/dev/full",
                   "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("run failed: cannot write report file /dev/full: ")
        assert captured.err.count("\n") == 1
        assert len(writers) == 1 and writers[0]._fh.closed

    @pytest.mark.parametrize(
        "workers, instances, cpus, pool",
        [(5000, 2, 8, 2), (5000, 50, 3, 3), (2, 50, 8, 2), (5000, 3, 1, None), (1, 3, 8, None)],
    )
    def test_the_pool_never_gets_more_workers_than_instances_or_cpus(self, monkeypatch, workers, instances, cpus,
                                                                      pool):
        """An in-process stand-in for the pool records its size; the reports are those of a serial run."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        cfg = SuiteConfig(p=1, q=1, instances=instances, seed=SEED, suites=("weyl",))
        serial = run_suite(cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        summary = run_suite(dataclasses.replace(cfg, workers=workers))
        assert sizes == ([] if pool is None else [pool])
        assert summary.to_dict() == serial.to_dict()

    def test_reports_are_deterministic(self, tmp_path):
        args = ["--p", "2", "--q", "1", "--instances", "2", "--seed", "9",
                "--suite", "weyl", "--suite", "polyhedral"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert body_lines(a) == body_lines(b)

    def test_csv_report_columns(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["--p", "1", "--q", "1", "--instances", "1", "--seed", "2",
                   "--suite", "trace", "--format", "csv", "--out", str(out)])
        assert rc == 0
        header, *rows = out.read_text().splitlines()
        assert header == "suite,instance,case_id,indices,lhs,rhs,margin,pass"
        assert rows and rows[0].startswith("trace,0,")

    @pytest.mark.parametrize("p, q", [(2, 1), (5, 3)])
    def test_every_case_holds_builtin_values_in_both_formats(self, tmp_path, p, q):
        """CSV cells are repr()s, so a numpy scalar in a case would write np.float64(...)."""
        for suite in SUITES:
            for report in run_instance(SuiteConfig(p=p, q=q, seed=0, suites=(suite,)), 0):
                for case in report.cases + report.soft_cases:
                    assert type(case.case_id) is str, suite
                    assert type(case.indices) is tuple, suite
                    assert all(type(i) is int for i in case.indices), suite
                    assert all(type(v) is float for v in (case.lhs, case.rhs, case.margin, case.tol)), suite
                    assert type(case.passed) is bool, suite
        args = ["--p", str(p), "--q", str(q), "--instances", "1", "--seed", "0"]
        table, lines = tmp_path / "r.csv", tmp_path / "r.jsonl"
        assert main(args + ["--format", "csv", "--out", str(table)]) == 0
        assert main(args + ["--out", str(lines)]) == 0
        _, *rows = csv.reader(table.read_text().splitlines())
        assert {row[0] for row in rows} == set(SUITES[:-1]) | {"polyhedral_diag", "polyhedral_sum"}
        for _, _, _, indices, *values, passed in rows:
            assert all(repr(float(v)) == v for v in values)
            assert passed in ("True", "False") and all(i.isdigit() for i in filter(None, indices.split(";")))
        records = [json.loads(ln) for ln in body_lines(lines)]
        for report in next(r for r in records if r["record"] == "instance")["reports"]:
            for case in report["cases"] + report["soft_cases"]:
                assert type(case["case_id"]) is str and type(case["passed"]) is bool
                assert all(type(i) is int for i in case["indices"])
                assert all(type(case[k]) is float for k in ("lhs", "rhs", "margin", "tol"))

    def test_summary_record_shape(self, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["--p", "1", "--q", "1", "--instances", "1", "--seed", "2",
              "--suite", "trace", "--out", str(out)])
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        kinds = [r["record"] for r in records]
        assert kinds[0] == "header"
        assert kinds[-1] == "meta"
        assert kinds[-2] == "summary"
        summary = records[-2]
        assert summary["passed"] is True
        assert "trace" in summary["suites"]

    def test_an_instance_that_raises_gets_an_error_record(self, tmp_path, capsys):
        # cond_cap just above 1 leaves the conjugator sampler no acceptable draw
        args = ["--p", "2", "--q", "1", "--instances", "2", "--seed", "5",
                "--suite", "weyl", "--cond-cap", "1.0001"]
        serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
        assert main(args + ["--out", str(serial)]) == 1
        assert main(args + ["--workers", "2", "--out", str(pooled)]) == 1
        assert body_lines(serial) == body_lines(pooled)
        records = [json.loads(ln) for ln in body_lines(serial)]
        assert [r["record"] for r in records] == ["header", "error", "error", "summary"]
        assert [(r["instance"], r["error"]) for r in records[1:3]] == [
            (0, "RetriesExhausted"),
            (1, "RetriesExhausted"),
        ]
        assert records[1]["message"]
        assert records[-1]["passed"] is False
        assert "instance 1 raised RetriesExhausted" in capsys.readouterr().err

    def test_a_non_finite_sample_gets_an_error_record(self, tmp_path, capsys):
        # a finite gap this large overflows the planted product U diag U^-1
        out = tmp_path / "r.jsonl"
        rc = main(["--p", "2", "--q", "1", "--instances", "2", "--suite", "structural",
                   "--gap-min", "1e308", "--out", str(out)])
        assert rc == 1
        records = [json.loads(ln) for ln in body_lines(out)]
        assert [r["record"] for r in records] == ["header", "error", "error", "summary"]
        assert [(r["instance"], r["error"]) for r in records[1:3]] == [
            (0, "NonFiniteValue"),
            (1, "NonFiniteValue"),
        ]
        assert records[-1]["passed"] is False
        assert "instance 1 raised NonFiniteValue" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--value-range", "-1e7", "1e7"], ["--gap-min", "1e300", "--boost-scale", "30"]])
    def test_a_huge_spectrum_keeps_every_polyhedral_instance(self, tmp_path, flags):
        # its region's vertex sums drift by more than 1e-9, which once aborted the run after the header
        out = tmp_path / "r.jsonl"
        main(["--p", "3", "--q", "2", *flags, "--suite", "polyhedral", "--instances", "4", "--seed", "0",
              "--out", str(out)])
        records = [json.loads(ln) for ln in body_lines(out)]
        assert [r["record"] for r in records] == ["header"] + ["instance"] * 4 + ["summary"]

    def test_structural_bound_scales_with_the_planted_spectrum(self, capsys):
        # errors of about 6e-7 at this range are 6e-16 relative, so recovery passes
        rc = main(["--p", "3", "--q", "2", "--instances", "5", "--suite", "structural",
                   "--value-range", "-1000000000", "1000000000", "--gap-min", "1"])
        assert rc == 0
        assert "structural         cases 5/5" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", [2.0, 1e9])
    def test_structural_bound_still_catches_a_relative_error(self, monkeypatch, bound):
        """A planted spectrum off by 1e-6 relative fails, with a conjugator of condition number 1."""
        def off_by_a_millionth(sig, scfg, rng):
            A, planted, U = sample_planted(sig, scfg, rng)
            wrong = AdmissibleSpectrum(sig, planted.lambdas * (1 + 1e-6), planted.mus * (1 + 1e-6))
            return A, wrong, U

        monkeypatch.setattr(cli, "sample_planted", off_by_a_millionth)
        cfg = SuiteConfig(p=3, q=2, seed=SEED, suites=("structural",), value_range=(-bound, bound),
                          gap_min=1.0, boost_scale=0.0)
        for index in range(3):
            (report,) = run_instance(cfg, index)
            assert report.descriptor["cond"] == pytest.approx(1.0, abs=1e-12)
            assert not report.passed, index

    @pytest.mark.parametrize("bound", [2.0, 1e9])
    def test_structural_report_carries_the_certifying_shift(self, bound):
        cfg = SuiteConfig(p=3, q=2, seed=SEED, suites=("structural",), value_range=(-bound, bound),
                          gap_min=1.0)
        for index in range(3):
            (report,) = run_instance(cfg, index)
            A, planted, _ = sample_planted(Signature(3, 2), cfg.sampler(), instance_rng(SEED, index))
            assert list(report.descriptor) == ["cond", "tol_eig", "shift", "shift_margin"]
            assert report.descriptor["shift"] == eigendecompose(A).shift
            assert planted.mus[0] < report.descriptor["shift"] < planted.lambdas[0]
            assert report.descriptor["shift_margin"] == shift_margin(A)
            assert 0 < report.descriptor["shift_margin"] <= 1

    def test_variational_reports_write_strict_json(self, tmp_path):
        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        out = tmp_path / "r.jsonl"
        rc = main(["--p", "2", "--q", "1", "--instances", "1", "--suite", "courant_fischer",
                   "--suite", "ky_fan", "--suite", "wielandt", "--out", str(out)])
        assert rc == 0
        docs = [json.loads(ln, parse_constant=no_constants) for ln in out.read_text().splitlines()]
        reports = [r for d in docs if d.get("record") == "instance" for r in d["reports"]]
        ids = {c["case_id"] for r in reports for c in r["cases"]}
        assert {"minmax_witness:1", "restricted_witness:2", "partial_sum_witness:2", "eigenflag_witness"} <= ids
        assert {"eigenflag_max", "restricted_cert:2", "restricted_cert_min:2"} <= ids  # certified, not sampled
        assert not any("sampled" in i or i.startswith(("witness", "interlace")) for i in ids)
        assert not any(r["soft_cases"] for r in reports)

    @pytest.mark.parametrize(
        "p, q, flags",
        [
            (2, 1, {}),
            (4, 3, {}),
            (2, 1, {"gap_min": 6e307}),
            (3, 2, {"gap_min": 6e307, "suites": tuple(s for s in SUITES if s != "polyhedral")}),
            (3, 2, {"value_range": (-1e303, 1e303), "gap_min": 1e302}),
        ],
        ids=["p2q1", "p4q3", "p2q1-overflow", "p3q2-overflow", "p3q2-reach"],
    )
    def test_every_suite_writes_strict_json(self, tmp_path, p, q, flags):
        """No NaN or Infinity in any record, which RFC 8259 JSON cannot hold, near the top of the float range too.

        Every check that adds eigenvalues reports in units of a power of two
        once its values reach 2^1000, and each of its reports carries one
        note that says so.  At gap_min 6e307 the eigenvalues of A + B near
        1.2e308 add to more than the largest float.  With values up to
        1e303 no sum overflows, yet the values reach 2^1000 (about 1.1e301),
        so the one rule puts every such report in units there too.
        ``polyhedral`` is left out at (3,2) and gap_min 6e307: its diagonal
        LP still gives NaN (see ROADMAP item 2).
        """
        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        out = tmp_path / "r.jsonl"
        run_suite(SuiteConfig(p=p, q=q, instances=2, seed=0, out=str(out), **flags))
        docs = [json.loads(ln, parse_constant=no_constants) for ln in out.read_text().splitlines()]
        assert [d["record"] for d in docs] == ["header", "instance", "instance", "summary", "meta"]
        reports = [r for d in docs[1:3] for r in d["reports"]]
        notes = {n for r in reports for n in r["notes"]}
        assert any(n.startswith("values in units of 2^") for n in notes) == bool(flags)
        if flags:
            adders = {"trace", "weyl", "lidskii", "thompson_freede", "polyhedral_sum", "ky_fan", "wielandt"}
            adding = [r for r in reports if r["check_name"] in adders]
            assert {r["check_name"] for r in adding} == adders - ({"polyhedral_sum"} if "suites" in flags else set())
            for r in adding:
                assert [n.startswith("values in units of 2^") for n in r["notes"]] == [True], r["check_name"]

    def test_one_bad_instance_does_not_end_the_batch(self, tmp_path, monkeypatch):
        real = cli.run_instance

        def flaky(cfg, index):
            if index == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(cfg, index)

        monkeypatch.setattr(cli, "run_instance", flaky)
        out = tmp_path / "r.jsonl"
        cfg = SuiteConfig(p=2, q=1, instances=3, seed=5, suites=("weyl",), out=str(out))
        summary = run_suite(cfg)
        assert not summary.passed
        assert summary.suites["weyl"].cases == summary.suites["weyl"].passes > 0
        records = [json.loads(ln) for ln in body_lines(out)]
        assert [(r["record"], r.get("instance")) for r in records] == [
            ("header", None),
            ("instance", 0),
            ("error", 1),
            ("instance", 2),
            ("summary", None),
        ]
        assert records[2]["error"] == "LinAlgError"
        assert records[2]["message"] == "Singular matrix"


def test_importing_the_package_and_its_cli_loads_no_scipy():
    code = ("import sys, kreinval, kreinval.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(kreinval.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_a_sum_that_overflows_ends_the_run_with_its_summary(tmp_path):
    """Where the eigenvalues of A + B overflow, the run reports them and goes on, under -W error::RuntimeWarning too.

    Instance 70 of this run gives ``trace`` the failing ``admissible_sum``
    case; the run then writes its summary and exits 1, with no traceback.
    """
    out = tmp_path / "r.jsonl"
    src = str(Path(kreinval.__file__).resolve().parents[1])
    args = ["--p", "2", "--q", "1", "--gap-min", "6e307", "--seed", "7", "--instances", "71",
            "--suite", "structural", "--suite", "trace", "--out", str(out)]
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "kreinval.cli", *args],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    records = [json.loads(ln) for ln in body_lines(out)]
    assert records[-1]["record"] == "summary" and records[-1]["passed"] is False
    (instance,) = [r for r in records if r.get("instance") == 70]
    trace = instance["reports"][1]
    assert trace["check_name"] == "trace"
    assert trace["notes"] == ["sum_not_admissible: NonFiniteValue: eigenvalues must be finite reals"]


def test_the_pool_the_flag_parser_and_report_io_load_only_when_used():
    """Importing the package and its CLI and validating a config leaves out what only some runs use.

    The suites' modules load with the package; ``fileio`` loads on first
    access to one of its exports, which are then ``fileio``'s own objects;
    the sampler's draw layouts are built by the first draw that needs one.
    """
    code = ("import sys, kreinval, kreinval.cli; "
            "kreinval.cli.validate_config(kreinval.cli.SuiteConfig()); "
            "print(sorted(m for m in ('concurrent.futures', 'argparse', 'csv', 'kreinval.fileio') if m in sys.modules)); "
            "print(sorted(m for m in ('kreinval.polyhedral', 'kreinval.checks', 'kreinval.sampling', "
            "'kreinval.spectral') if m not in sys.modules)); "
            "writer = kreinval.ReportWriter; "
            "print('csv' in sys.modules, writer is sys.modules['kreinval.fileio'].ReportWriter); "
            "print(kreinval.sampling._generator_layout.cache_info().currsize)")
    src = str(Path(kreinval.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    # the sampler's layouts are built by the first draw of each signature, not on import
    assert out.stdout.splitlines() == ["[]", "[]", "True True", "0"]


ROUNDOFF = 1e-12


def _moved(a, b, scale):
    """Largest scaled difference of two report values; inf where ids, flags or shapes differ."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) / max(scale, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_moved(a[k], b[k], scale) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_moved(x, y, scale) for x, y in zip(a, b)), default=0.0)
    return 0.0 if a == b else np.inf


def _report_moved(got, ref):
    """Each case scaled by max(1, |lhs|, |rhs|), the rest of a report by its largest case."""
    scale = 1.0
    moved = 0.0
    for key in ("cases", "soft_cases"):
        if len(got[key]) != len(ref[key]):
            return np.inf
        for a, b in zip(got[key], ref[key]):
            case_scale = max(1.0, abs(b["lhs"]), abs(b["rhs"]))
            scale = max(scale, case_scale)
            moved = max(moved, _moved(a, b, case_scale))
    rest = {k: v for k, v in got.items() if k not in ("cases", "soft_cases")}
    return max(moved, _moved(rest, {k: ref[k] for k in rest}, scale))


def test_reports_move_by_roundoff_from_the_scipy_exponential(monkeypatch, fresh_memos):
    """Every suite keeps its case ids and verdicts with scipy's expm in place of the kernel."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    worst, differ = 0.0, False
    for p, q in ((1, 0), (0, 2), (1, 1), (2, 1), (3, 2), (4, 3), (5, 3)):
        cfg = SuiteConfig(p=p, q=q, seed=SEED)
        for index in range(3):
            got = [r.to_dict() for r in run_instance(cfg, index)]
            with monkeypatch.context() as m:
                m.setattr(sampling, "_expm", scipy_linalg.expm)
                ref = [r.to_dict() for r in run_instance(cfg, index)]
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                assert [c["passed"] for c in a["cases"]] == [c["passed"] for c in b["cases"]]
                worst = max(worst, _report_moved(a, b))
                differ = differ or a != b
    assert worst <= ROUNDOFF
    assert differ  # the oracle did replace the kernel
