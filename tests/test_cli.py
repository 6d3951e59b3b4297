"""Tests for the command-line front end, driven through main()."""
from __future__ import annotations

import json

import pytest

from wiretap.cli import main

FAST_RUN = [
    "run", "--na", "3", "--nb", "3", "--ne", "2", "--trials", "5",
    "--target-sinr-db", "10", "--schemes", "perfect", "--seed", "3",
]


def _run(tmp_path, extra=(), base=None):
    args = list(base if base is not None else FAST_RUN)
    args += ["--out-dir", str(tmp_path)]
    args += list(extra)
    return main(args)


class TestExitCodes:
    def test_version_and_help_exit_zero(self, capsys):
        assert main(["--version"]) == 0
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_scheme_is_a_config_error(self, tmp_path, capsys):
        code = _run(tmp_path, base=FAST_RUN[:-2] + ["--schemes", "zf"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_integer_antenna_count_is_refused(self, tmp_path, capsys):
        code = _run(tmp_path, extra=["--ne", "2.5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_refused(self, tmp_path, capsys):
        code = _run(tmp_path, extra=["--seed", "-1"])
        assert code == 1
        assert "master_seed must be a non-negative integer" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        capsys.readouterr()

    def test_broken_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_numerical_guard_exits_two(self, capsys):
        # A starved budget puts the nominal design in outage, where the
        # closed-form prediction refuses to evaluate.
        code = main(["predict", "--sigma-h-db", "-20", "--power-db", "-40"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_results_plot_and_manifest(self, tmp_path, capsys):
        assert _run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "receive SINR" in out
        for name in ("results.json", "plot.csv", "manifest.json"):
            assert (tmp_path / name).exists(), name
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["schemes"] == ["perfect"]
        assert payload["config"]["trials"] == 5

    def test_manifest_refeed_reproduces_results(self, tmp_path, capsys):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert _run(first) == 0
        assert main(["run", "--config", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        capsys.readouterr()
        a = json.loads((first / "results.json").read_text())
        b = json.loads((second / "results.json").read_text())
        assert a["series"] == b["series"]
        assert a["config"] == b["config"]

    def test_flat_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# small smoke sweep\n"
            "na = 3\n"
            "nb = 3\n"
            "ne = 2\n"
            "trials = 4\n"
            "target-sinr-db = 10\n"
            "schemes = perfect\n"
            "master_seed = 5\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        payload = json.loads((out_dir / "results.json").read_text())
        assert payload["config"]["schemes"] == ["perfect"]
        assert payload["config"]["master_seed"] == 5

    @pytest.mark.parametrize("key,value,axis_name,axis", [
        ("ne", "1,2", "ne", [1, 2]),
        ("target-sinr-db", "5, 10", "target_sinr_db", [5.0, 10.0]),
    ])
    def test_flat_config_file_sweeps_a_comma_list(self, tmp_path, capsys, key, value,
                                                   axis_name, axis):
        # A comma list in a flat file is parsed as the same flag would be.
        settings = {"na": "3", "nb": "3", "ne": "2", "trials": "4", "target-sinr-db": "10",
                    "schemes": "perfect,known_ecsi", key: value}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        payload = json.loads((out_dir / "results.json").read_text())
        assert payload["axis_name"] == axis_name
        assert payload["axis"] == axis
        assert payload["schemes"] == ["perfect", "known_ecsi"]

    def test_flat_config_file_with_an_empty_sweep_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("na = 3\nnb = 3\nne = []\ntrials = 4\nschemes = perfect\n")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert "error: ne must hold at least one value" in capsys.readouterr().err

    def test_cli_flags_override_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("na = 3\nnb = 3\nne = 2\ntrials = 4\n"
                       "target-sinr-db = 10\nschemes = perfect\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--trials", "2",
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        payload = json.loads((out_dir / "results.json").read_text())
        assert payload["config"]["trials"] == 2

    def test_swept_argument_produces_one_row_per_point(self, tmp_path, capsys):
        # A comma list starting with a negative number must be attached with
        # "=", or argparse reads it as an option string.
        code = _run(tmp_path, base=[
            "run", "--na", "3", "--nb", "3", "--ne", "2", "--trials", "4",
            "--target-sinr-db", "10", "--schemes", "naive",
            "--sigma-h-db=-30,-20", "--format", "json",
        ])
        assert code == 0
        capsys.readouterr()
        rows = json.loads((tmp_path / "plot.json").read_text())
        assert len(rows) == 2
        assert [r["axis_value"] for r in rows] == [-30.0, -20.0]

    def test_threads_env_variable_is_honored(self, tmp_path, capsys, monkeypatch):
        serial = tmp_path / "serial"
        forked = tmp_path / "forked"
        assert _run(serial, extra=["--trials", "8"]) == 0
        monkeypatch.setenv("WIRETAP_THREADS", "2")
        assert _run(forked, extra=["--trials", "8"]) == 0
        capsys.readouterr()
        a = json.loads((serial / "results.json").read_text())
        b = json.loads((forked / "results.json").read_text())
        assert a["series"] == b["series"]
        assert b["config"]["threads"] == 2

    def test_bad_threads_env_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WIRETAP_THREADS", "many")
        assert _run(tmp_path) == 1
        assert "WIRETAP_THREADS" in capsys.readouterr().err


class TestFigureCommand:
    def test_preset_shortcut_runs(self, tmp_path, capsys):
        code = main(["figure", "2", "--trials", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic_naive" in out
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["config"]["scenario"] == "fig2_prediction"

    def test_figure_number_is_validated(self, capsys):
        assert main(["figure", "9"]) == 1
        capsys.readouterr()

    def test_extrapolated_points_are_labeled(self, tmp_path, capsys):
        code = main(["figure", "5", "--trials", "2", "--sigma-h-db", "-5",
                     "--schemes", "naive", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "[outside trusted error range]" in capsys.readouterr().out


class TestPredictCommand:
    def test_prints_the_predicted_loss(self, capsys):
        assert main(["predict", "--sigma-h-db", "-20", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "predicted SINR" in out
        assert "predicted loss" in out
        assert "extrapolation" not in out

    def test_warns_outside_the_trusted_range(self, capsys):
        assert main(["predict", "--sigma-h-db", "-5", "--seed", "1"]) == 0
        assert "extrapolation" in capsys.readouterr().out


class TestValidateCommand:
    def test_builtin_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out
