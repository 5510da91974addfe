import json

import numpy as np
import pytest

from kreinval import ConfigError, Signature, cli, instance_rng, read_matrix, sample_planted, write_matrix
from kreinval.cli import SUITES, SuiteConfig, build_config, main, run_instance, run_suite, validate_config
from kreinval.errors import SchemaError
from kreinval.sampling import SamplerConfig

SEED = 606


def body_lines(path):
    """Report lines with the timestamped trailer record stripped."""
    lines = open(path).read().splitlines()
    return [ln for ln in lines if json.loads(ln).get("record") != "meta"]


class TestConfig:
    def test_defaults(self):
        cfg = build_config([])
        assert cfg.p == 2 and cfg.q == 1
        assert cfg.suites == SUITES

    def test_flags_override(self):
        cfg = build_config(["--p", "3", "--q", "2", "--seed", "42", "--tol", "1e-7"])
        assert (cfg.p, cfg.q, cfg.seed, cfg.tol_check) == (3, 2, 42, 1e-7)

    def test_suite_selection_dedup(self):
        cfg = build_config(["--suite", "weyl", "--suite", "trace", "--suite", "weyl"])
        assert cfg.suites == ("weyl", "trace")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            build_config(["--suite", "nonsense"])

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

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            validate_config(SuiteConfig(p=0, q=0))
        with pytest.raises(ConfigError):
            validate_config(SuiteConfig(instances=0))
        with pytest.raises(ConfigError):
            validate_config(SuiteConfig(format="xml"))
        with pytest.raises(ConfigError):
            validate_config(SuiteConfig(tol_check=-1.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("courant_subspaces", -1),
            ("kyfan_frames", -1),
            ("wielandt_flags", -1),
            ("wielandt_frames", -1),
            ("ascent_iters", -1),
            ("max_m", 0),
            ("max_m", -2),
            ("tol_struct", 5.0),  # removed: it was echoed but never read
        ],
    )
    def test_a_bad_budget_stops_before_any_file_is_written(self, tmp_path, capsys, field, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: value}))
        out = tmp_path / "r.jsonl"
        assert main(["--instances", "1", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestMatrixIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        sig = Signature(2, 2)
        rng = instance_rng(SEED, 0)
        A, _, _ = sample_planted(sig, SamplerConfig(seed=SEED), rng)
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

    def test_structural_violation_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        doc = {"p": 1, "q": 1, "entries": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="residual"):
            read_matrix(path)


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

    def test_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        rc = main(["--p", "1", "--q", "1", "--instances", "1", "--seed", "4",
                   "--suite", "weyl", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        rc = main(["--p", "0", "--q", "0", "--out", str(tmp_path / "never.jsonl")])
        assert rc == 2
        assert not (tmp_path / "never.jsonl").exists()
        # an absurdly tight tolerance turns the trace equality into a failure
        cfg_path = tmp_path / "tight.json"
        cfg_path.write_text(json.dumps({"trace_rtol": 1e-300}))
        rc = main(["--p", "1", "--q", "1", "--instances", "1", "--seed", "4",
                   "--suite", "trace", "--config", str(cfg_path)])
        assert rc == 1

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

    def test_empty_sampling_budgets_write_strict_json(self, tmp_path):
        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"courant_subspaces": 0, "kyfan_frames": 0, "wielandt_flags": 0}))
        out = tmp_path / "r.jsonl"
        rc = main(["--p", "2", "--q", "1", "--instances", "1", "--suite", "courant_fischer",
                   "--suite", "ky_fan", "--suite", "wielandt", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        docs = [json.loads(ln, parse_constant=no_constants) for ln in out.read_text().splitlines()]
        reports = [r for d in docs if d.get("record") == "instance" for r in d["reports"]]
        ids = {c["case_id"] for r in reports for c in r["cases"]}
        assert {"minmax_witness:1", "restricted_witness:2", "partial_sum_witness:2", "eigenflag_witness"} <= ids
        assert not any("sampled" in i or i == "eigenflag_max" for i in ids)
        assert not any(r["soft_cases"] for r in reports)

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
