import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hwip
from hwip.cli import main, render_summary


def run(argv):
    return main(argv)


class TestCertifyCommand:
    def test_dyadic_lemma_suite_passes(self, tmp_path):
        code = run(["certify", "--suite", "dyadic-lemma", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "report_dyadic_lemma.json").read_text())
        assert doc["passed"] is True
        assert doc["config"]["seed"] == 7
        assert "worst_slack" in doc["stats"]
        assert (tmp_path / "summary_dyadic_lemma.txt").exists()

    def test_failing_verdict_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 256, "replicates": 200, "ks_threshold": 1e-9}))
        code = run(
            ["certify", "--suite", "fdd", "--seed", "3", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_summary_numbers_trace_to_json(self, tmp_path):
        run(["certify", "--suite", "dyadic-lemma", "--seed", "5", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "report_dyadic_lemma.json").read_text())
        summary = (tmp_path / "summary_dyadic_lemma.txt").read_text()
        assert str(doc["stats"]["worst_slack"]) in summary
        assert str(doc["stats"]["violations"]) in summary


class TestCounterexampleCommand:
    def test_toy_run_and_contrast(self, tmp_path):
        code = run(
            [
                "counterexample", "--p", "3", "--depth", "4", "--K", "2",
                "--delta", "0.1", "--j", "3", "--replicates", "60",
                "--seed", "5", "--out", str(tmp_path), "--contrast",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report_counterexample.json").read_text())
        assert doc["stats"]["theoretical_lower_bound"] == pytest.approx(0.886, abs=0.01)
        assert doc["stats"]["empirical_probability"] >= 0.8
        con = json.loads((tmp_path / "report_counterexample_contrast.json").read_text())
        assert con["stats"]["process"] == "gaussian"
        assert (tmp_path / "replicates_counterexample.csv").exists()

    def test_invalid_K_is_config_error(self, tmp_path, capsys):
        code = run(
            [
                "counterexample", "--p", "3", "--depth", "4", "--K", "1",
                "--delta", "0.1", "--j", "3", "--replicates", "5",
                "--seed", "1", "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "K must exceed" in capsys.readouterr().err


class TestConfigHandling:
    def test_malformed_json_names_problem(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = run(["certify", "--suite", "dyadic-lemma", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_model_kind_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "bogus"}}))
        code = run(
            ["norms", "--which", "mw-norm", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "model" in capsys.readouterr().err

    def test_seed_resolution_order(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11}))
        monkeypatch.setenv("HWIP_SEED", "22")
        run(
            ["certify", "--suite", "dyadic-lemma", "--config", str(cfg), "--out", str(tmp_path / "a")]
        )
        doc = json.loads((tmp_path / "a" / "report_dyadic_lemma.json").read_text())
        assert doc["config"]["seed"] == 22  # env beats config
        run(
            [
                "certify", "--suite", "dyadic-lemma", "--config", str(cfg),
                "--seed", "33", "--out", str(tmp_path / "b"),
            ]
        )
        doc = json.loads((tmp_path / "b" / "report_dyadic_lemma.json").read_text())
        assert doc["config"]["seed"] == 33  # flag beats env

    @pytest.mark.parametrize(
        "suite, key, value",
        [
            ("martingale", "replicates", "many"),
            ("dyadic-lemma", "paths_per_model", 2.5),
            ("dyadic-lemma", "n_max", "256"),
            ("dyadic-lemma", "p", "3"),
            ("fdd", "n", None),
            ("fdd", "ks_threshold", "tight"),
            ("tightness", "depth", True),
            ("tightness", "epsilon", [0.1]),
            ("martingale", "n_grid", "64"),
            ("mw", "n_grid", [64, 256.0]),
            ("tightness", "n_grid", []),
            ("tightness", "delta_grid", 0.5),
            ("tightness", "delta_grid", [0.25, "half"]),
            ("fdd", "time_grid", {"t": 0.5}),
            ("fdd", "replicates", 1),
            ("dyadic-lemma", "p", 2),
            ("martingale", "p", 1.5),
            ("tightness", "p", 2.0),
        ],
    )
    def test_ill_typed_certify_key_names_key(self, tmp_path, capsys, suite, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run(["certify", "--suite", suite, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"configuration error: {key}:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["simulate"], "replicates", "many"),
            (["simulate"], "n", 2.5),
            (["simulate"], "p", "3"),
            (["counterexample"], "K", "two"),
            (["counterexample"], "delta", "small"),
            (["counterexample"], "j", 1.5),
            (["counterexample"], "replicates", None),
            (["norms", "--which", "weak-lp"], "samples", "many"),
            (["norms", "--which", "mw-norm"], "J", "12"),
            (["norms", "--which", "mw-series"], "N", 1.5),
            (["simulate", "--n", "8"], "p", 2),
            (["simulate", "--n", "8", "--p", "2"], "p", 3),  # the flag is checked too
            (["counterexample"], "p", 1.5),
            (["norms", "--which", "weak-lp"], "p", 2.0),
            (["norms", "--which", "mw-norm", "--p", "-3"], "p", 3),
            (["norms", "--which", "mw-norm"], "variant", "sideways"),
            (["norms", "--which", "mw-norm"], "variant", 1),
            (["norms", "--which", "mw-series"], "weights", "twos"),
        ],
    )
    def test_ill_typed_key_names_key(self, tmp_path, capsys, argv, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run([*argv, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"configuration error: {key}:" in capsys.readouterr().err

    def test_config_values_are_read(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 32, "replicates": 2, "p": 4}))
        code = run(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "report_simulate.json").read_text())
        assert (doc["config"]["n"], doc["config"]["replicates"], doc["config"]["p"]) == (32, 2, 4.0)
        assert len(doc["per_point"]) == 2


class TestNormsCommand:
    def test_weak_lp(self, tmp_path):
        code = run(
            ["norms", "--which", "weak-lp", "--p", "3", "--samples", "20000",
             "--seed", "13", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report_weak_lp.json").read_text())
        assert doc["estimate"]["tail_form"] > 0

    def test_mw_norm_default_chain(self, tmp_path):
        code = run(["norms", "--which", "mw-norm", "--p", "3", "--J", "8", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "report_mw_norm.json").read_text())
        assert len(doc["report"]["terms"]) == 9

    def test_mw_series_counterexample_weights(self, tmp_path):
        code = run(
            ["norms", "--which", "mw-series", "--p", "3", "--N", "4096",
             "--weights", "counterexample", "--seed", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report_mw_series.json").read_text())
        assert doc["verdict"] == "converges"


class TestSimulateAndReport:
    def test_simulate_writes_paths(self, tmp_path):
        code = run(
            ["simulate", "--n", "64", "--replicates", "3", "--seed", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        csv_text = (tmp_path / "replicates_simulate.csv").read_text().splitlines()
        assert csv_text[0] == "replicate,t,partial_sum"
        assert len(csv_text) == 1 + 3 * 65

    def test_report_aggregates(self, tmp_path):
        run(["certify", "--suite", "dyadic-lemma", "--seed", "7", "--out", str(tmp_path)])
        code = run(["report", "--input", str(tmp_path), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary_all.txt").exists()

    def test_report_creates_missing_out_dir(self, tmp_path):
        run(["certify", "--suite", "dyadic-lemma", "--seed", "7", "--out", str(tmp_path)])
        out = tmp_path / "new" / "dir"
        code = run(["report", "--input", str(tmp_path), "--out", str(out)])
        assert code == 0
        assert (out / "summary_all.txt").read_text().startswith("== report_dyadic_lemma.json ==")

    def test_report_without_inputs_is_config_error(self, tmp_path, capsys):
        code = run(["report", "--input", str(tmp_path), "--out", str(tmp_path)])
        assert code == 2
        assert "no report" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of the start-up; the KS statistics are NumPy.
    src = str(Path(hwip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, hwip.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_render_summary_is_pure_function_of_doc():
    doc = {"a": 1, "b": {"c": 2.5}, "rows": [{"x": 1}, {"x": 2}]}
    text = render_summary(doc)
    assert "a: 1" in text and "c: 2.5" in text and "x=1" in text
