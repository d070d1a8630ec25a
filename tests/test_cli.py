"""Tests for the command-line verification driver."""

import csv
import json
import math
from pathlib import Path

import pytest

from cuspforge import cli
from cuspforge.cli import (
    AXES,
    SUITES,
    Report,
    SuiteConfig,
    _build_parser,
    _config_hash,
    _merge_config,
    main,
    run_suite,
    run_sweep,
)


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.suite == "all"
        assert cfg.n == 3 and cfg.d == 1
        assert cfg.l == pytest.approx(2.0 * math.pi)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            SuiteConfig(suite="nope")

    def test_eps_range(self):
        SuiteConfig(eps=1e-12)
        SuiteConfig(eps=1e-2)
        for bad in (1e-13, 1e-1, 0.0):
            with pytest.raises(ValueError, match="eps"):
                SuiteConfig(eps=bad)

    def test_window_inside_domain(self):
        with pytest.raises(ValueError, match="window"):
            SuiteConfig(window=(0.0, 5.0))
        with pytest.raises(ValueError, match="window"):
            SuiteConfig(window=(1.0, 6.5))

    def test_other_validations(self):
        with pytest.raises(ValueError):
            SuiteConfig(n=1)
        with pytest.raises(ValueError):
            SuiteConfig(samples=0)
        with pytest.raises(ValueError):
            SuiteConfig(l=-1.0)

    def test_cusp_params_roundtrip(self):
        cp = SuiteConfig(l=3.0, t0=0.5, n=4).cusp_params()
        assert (cp.l, cp.t0, cp.n) == (3.0, 0.5, 4)


class TestConfigHash:
    def test_stable(self):
        assert _config_hash(SuiteConfig()) == _config_hash(SuiteConfig())

    def test_sensitive_to_values(self):
        assert _config_hash(SuiteConfig(seed=1)) != _config_hash(SuiteConfig(seed=2))

    def test_length(self):
        assert len(_config_hash(SuiteConfig())) == 16


class TestMergeConfig:
    def parse(self, argv):
        return _build_parser().parse_args(argv)

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 11, "samples": 77, "suite": "psh"}))
        args = self.parse(
            ["verify", "bundle", "--config", str(cfg_file), "--seed", "42"]
        )
        cfg = _merge_config(args, args.suite)
        # positional suite wins over the file; file fills samples; flag wins seed
        assert cfg.suite == "bundle"
        assert cfg.samples == 77
        assert cfg.seed == 42

    def test_defaults_without_file(self):
        args = self.parse(["verify", "psh"])
        cfg = _merge_config(args, args.suite)
        assert cfg == SuiteConfig(suite="psh")

    def test_window_list_coerced(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"window": [1.5, 4.5]}))
        args = self.parse(["verify", "bundle", "--config", str(cfg_file)])
        assert _merge_config(args, args.suite).window == (1.5, 4.5)

    def test_non_object_config_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("[1, 2]")
        args = self.parse(["verify", "bundle", "--config", str(cfg_file)])
        with pytest.raises(ValueError, match="flat JSON object"):
            _merge_config(args, args.suite)


class TestConfigUsageErrors:
    CASES = [
        ({"bogus": 1}, []),
        ({"window": 5}, []),
        ({"samples": "10"}, []),
        ({"n": 3.0}, []),
        ({"d": True}, []),
        ({"seed": "0"}, []),
        ({"samples": False}, []),
        ({"window": [1.0]}, []),
        ({"window": [1.0, "5"]}, []),
        ({"window": [1.0, float("nan")]}, []),
        ({"A": float("inf")}, []),
        ({"t0": float("nan")}, []),
        ({"eps": "1e-6"}, []),
        (None, ["--l", "inf"]),
        (None, ["--A", "nan"]),
        (None, ["--d", "4"]),
        (None, ["--d", "0"]),
        (None, ["--seed", "-1"]),
        (None, ["--t0", "-5"]),
        (None, ["--t0", "-400"]),
        (None, ["--l", "0.05"]),
        (None, ["--l", "1e-3"]),
    ]

    @pytest.mark.parametrize("config,flags", CASES)
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, config, flags):
        argv = ["verify", "bundle", *flags]
        if config is not None:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps(config))
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "profile", "--A", "700"],
            ["verify", "psh", "--t0", "-5"],
            ["sweep", "A", "--from", "800", "--to", "800", "--steps", "1"],
            ["sweep", "t", "--from", "0.5", "--to", "1", "--steps", "2", "--A", "1e6"],
        ],
    )
    def test_out_of_range_runs_exit_two(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_valid_configs_keep_dict_and_hash(self):
        assert _config_hash(SuiteConfig()) == "9963e3fa46b225f6"
        cfg = SuiteConfig(suite="bundle", A=8, window=[2, 6.5], d=7, samples=50, seed=3)
        assert cfg.window == (2, 6.5)
        assert cfg.to_dict() == {
            "suite": "bundle", "n": 3, "d": 7, "A": 8, "window": [2, 6.5],
            "l": 2.0 * math.pi, "t0": 0.0, "eps": 1e-6, "samples": 50, "seed": 3,
        }
        assert _config_hash(cfg) == "09f59b8101d2cf09"


class TestRunSuite:
    def test_bundle_suite_passes(self):
        report = run_suite(SuiteConfig(suite="bundle", samples=100))
        assert report.passed
        assert report.suite == "bundle"
        names = [c.name for c in report.checks]
        assert "bundle.h_norm_invariance" in names
        assert report.timings

    def test_nan_norm_fails_the_bundle_check(self, monkeypatch):
        monkeypatch.setattr(cli, "h_norm", lambda p, cp: math.nan)
        report = run_suite(SuiteConfig(suite="bundle", samples=10))
        check = report.checks[0]
        assert check.name == "bundle.h_norm_invariance"
        assert not check.passed and math.isnan(check.margin)

    def test_psh_suite_passes(self):
        report = run_suite(SuiteConfig(suite="psh", samples=100))
        assert report.passed

    def test_deterministic_for_fixed_seed(self):
        def stripped(r: Report) -> dict:
            d = json.loads(r.to_json())
            d.pop("timings")
            return d

        a = run_suite(SuiteConfig(suite="bundle", seed=3, samples=60))
        b = run_suite(SuiteConfig(suite="bundle", seed=3, samples=60))
        assert stripped(a) == stripped(b)

    def test_report_json_shape(self):
        report = run_suite(SuiteConfig(suite="bundle", samples=30))
        data = json.loads(report.to_json())
        assert set(data) == {
            "suite", "passed", "config", "config_hash", "checks", "timings"
        }
        assert isinstance(data["passed"], bool)
        for check in data["checks"]:
            assert set(check) == {"name", "passed", "margin", "witness"}


class TestMainVerify:
    def test_exit_zero_and_pass_lines(self, capsys):
        rc = main(["verify", "bundle", "--samples", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[pass]" in out
        assert "suite bundle: pass" in out

    def test_report_written(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        rc = main(["verify", "bundle", "--samples", "50", "--out", str(out_file)])
        assert rc == 0
        data = json.loads(out_file.read_text())
        assert data["suite"] == "bundle"
        assert data["passed"] is True

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nothere"])
        assert exc.value.code == 2

    def test_bad_flag_value_returns_two(self, capsys):
        rc = main(["verify", "bundle", "--eps", "5.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_returns_two(self, capsys, tmp_path):
        rc = main(["verify", "bundle", "--config", str(tmp_path / "absent.json")])
        assert rc == 2


class TestSweep:
    def test_t_axis_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_sweep("t", 0.5, 5.5, 4, SuiteConfig(samples=50), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert list(rows[0].keys()) == [
            "t",
            "min_hbc",
            "max_hbc",
            "min_ricci_eigenvalue",
            "sectional_min",
            "sectional_max",
        ]
        for row in rows:
            assert float(row["max_hbc"]) <= 1e-12
            assert float(row["min_ricci_eigenvalue"]) < 0.0

    def test_l_axis_has_lambda_column(self, tmp_path):
        from cuspforge.heisenberg_siegel import lambda_const

        out = tmp_path / "sweep_l.csv"
        run_sweep("l", 2.0, 8.0, 3, SuiteConfig(samples=50), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "lambda" in rows[0]
        for row in rows:
            expect = lambda_const(0.0, float(row["l"]))
            assert float(row["lambda"]) == pytest.approx(expect, rel=1e-12)

    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "one.csv"
        run_sweep("t", 3.0, 3.0, 1, SuiteConfig(samples=50), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["t"]) == 3.0

    def test_a_axis_wide_window_fallback(self, tmp_path):
        # the proportional window (A/6, 5A/6) only builds for A >= 5.5, so
        # points below that exercise the wide fallback (0.5, A - 0.5)
        out = tmp_path / "sweep_A.csv"
        run_sweep("A", 4.6, 6.0, 3, SuiteConfig(samples=50), out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [float(r["A"]) for r in rows] == pytest.approx([4.6, 5.3, 6.0])
        for row in rows:
            assert float(row["max_hbc"]) <= 1e-12

    def test_a_axis_infeasible_value_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no admissible profile"):
            run_sweep("A", 3.0, 6.0, 4, SuiteConfig(samples=50), tmp_path / "x.csv")

    def test_empty_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty range"):
            run_sweep("t", 5.0, 1.0, 3, SuiteConfig(), tmp_path / "x.csv")

    def test_t_outside_domain_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            run_sweep("t", 0.0, 2.0, 3, SuiteConfig(), tmp_path / "x.csv")

    def test_main_sweep_usage_errors(self, tmp_path, capsys):
        rc = main(
            ["sweep", "t", "--from", "5", "--to", "1", "--steps", "3",
             "--out", str(tmp_path / "s.csv")]
        )
        assert rc == 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "t", "--to", "1", "--steps", "3"])
        assert exc.value.code == 2

    def test_main_sweep_writes_file(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(
            ["sweep", "n", "--from", "2", "--to", "4", "--steps", "3",
             "--samples", "50", "--out", str(out)]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["n"] for row in rows] == ["2", "3", "4"]
