import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hwip
from hwip import cli
from hwip.cli import main, render_summary
from hwip.models import model_from_dict
from hwip.norms import empirical_weak_lp, mw_norm, mw_series_diagnostic
from hwip.rng import substream


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

    def test_seed_resolution_order(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11}))
        run(
            [
                "certify", "--suite", "dyadic-lemma", "--config", str(cfg),
                "--seed", "33", "--out", str(tmp_path / "b"),
            ]
        )
        doc = json.loads((tmp_path / "b" / "report_dyadic_lemma.json").read_text())
        assert doc["config"]["seed"] == 33  # flag beats config

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
            # counts and sizes below their minimum
            ("tightness", "replicates", 0),
            ("martingale", "replicates", 0),
            ("mw", "replicates", 0),
            ("dyadic-lemma", "paths_per_model", 0),
            ("dyadic-lemma", "n_max", 1),
            ("martingale", "n_grid", [0, 64]),
            ("fdd", "n", 0),
            ("tightness", "depth", 1),
            # non-finite numbers (JSON's NaN and Infinity)
            ("fdd", "ks_threshold", float("nan")),
            ("tightness", "epsilon", float("inf")),
            ("fdd", "time_grid", [0.5, float("nan")]),
            # ranges
            ("tightness", "epsilon", -1),
            ("tightness", "epsilon", 0),
            ("tightness", "delta_grid", [0.5, 0.0]),
            ("tightness", "delta_grid", [1.5, 0.5]),
            ("tightness", "delta_grid", [0.0625, 0.25]),  # increasing
            ("fdd", "time_grid", [2.0]),
            ("fdd", "time_grid", [0.0, 0.5]),
            # a slope needs two distinct n
            ("martingale", "n_grid", [64]),
            ("martingale", "n_grid", [64, 64]),
            ("martingale", "n_grid", [256, 64, 64]),
            ("mw", "n_grid", [64]),
            ("mw", "n_grid", [64, 64]),
            ("mw", "n_grid", [256, 64, 64]),
            # a chain with too many states (p = 3): it used to escape as a
            # NumPy memory-error traceback
            ("tightness", "depth", 6),
            # past the exact-evaluation budget of 4096
            ("dyadic-lemma", "n_max", 8192),
            # past the budget of 2^31 simulated steps: one path of max(n_grid)
            # or n steps, or replicates such paths (n_grid [64, 256, 1024] and
            # n = 2048 by default); checked before anything is sampled
            ("martingale", "n_grid", [64, 2**31 + 1]),
            ("mw", "n_grid", [64, 2**31 + 1]),
            ("tightness", "n_grid", [2**31 + 1]),
            ("fdd", "n", 2**31 + 1),
            ("martingale", "replicates", 10**7),
            ("mw", "replicates", 10**7),
            ("tightness", "replicates", 10**7),
            ("fdd", "replicates", 10**7),
            # past the chain's DP table of 2^22 entries for the bracket's
            # norm terms (2^23 - 1 steps reach it); checked before sampling
            ("mw", "n_grid", [64, 2**23]),
        ],
    )
    def test_ill_typed_certify_key_names_key(self, tmp_path, capsys, suite, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run(["certify", "--suite", suite, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {key}:" in err
        assert "Traceback" not in err


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
            # counts and sizes below their minimum
            (["simulate", "--n", "8"], "replicates", -1),
            (["simulate", "--n", "8", "--replicates", "-1"], "replicates", 1),
            (["simulate"], "n", 0),
            (["norms", "--which", "weak-lp"], "samples", 0),
            (["norms", "--which", "mw-norm"], "J", -1),
            (["norms", "--which", "mw-series"], "N", 1),
            (["counterexample"], "depth", 1),
            (["counterexample"], "replicates", 0),
            # non-finite numbers, from a flag or from the config
            (["counterexample", "--delta", "nan"], "delta", 0.1),
            (["simulate", "--n", "8", "--p", "inf"], "p", 3),
            (["counterexample"], "delta", float("nan")),
            (["simulate", "--n", "8"], "p", float("-inf")),
            (["counterexample"], "p", 10**400),  # beyond the float range
            # ranges
            (["counterexample"], "delta", -1),
            (["counterexample"], "delta", 0),
            (["counterexample"], "delta", 1.5),
            # a variant the model does not support (the default renewal chain)
            (["norms", "--which", "mw-norm"], "variant", "nonadapted"),
            # a chain with too many states (p = 3), or with u_6 beyond the
            # exact integers (p = 4)
            (["counterexample"], "depth", 6),
            (["counterexample", "--p", "4"], "depth", 6),
            # past a size budget: 2^31 simulated steps, and a chain's DP table
            # of 2^22 entries (N - 1 for the series, 2^J - 1 for the norm)
            (["counterexample"], "replicates", 100000),
            (["norms", "--which", "mw-series"], "N", 5000000),
            (["norms", "--which", "mw-norm"], "J", 23),
            # u_3 = 2^1051 + 2 at p = 2100, past the float range as well as
            # the exact integers: it was an OverflowError traceback
            (["counterexample", "--p", "2100"], "depth", 3),
            # past the budget of 2^31 simulated steps, before anything is sampled
            (["simulate"], "n", 2**31 + 1),
            (["simulate", "--n", "1048576"], "replicates", 4096),
            # the variant is named before the DP budget of J
            (["norms", "--which", "mw-norm", "--J", "23"], "variant", "nonadapted"),
            # the same budget of 2^31 for the draws of weak-lp
            (["norms", "--which", "weak-lp"], "samples", 10**12),
        ],
    )
    def test_ill_typed_key_names_key(self, tmp_path, capsys, argv, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run([*argv, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {key}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "model",
        [
            {"kind": "renewal_chain"},
            {"kind": "martingale_plus_coboundary", "direction": "backward"},
        ],
    )
    def test_variant_the_model_lacks_names_variant(self, tmp_path, capsys, model):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "variant": "nonadapted"}))
        code = run(["norms", "--which", "mw-norm", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: variant:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"kind": "iid", "innovation": "cauchy"}, "innovation"),
            ({"kind": "linear_process", "coeffs": "abc"}, "coeffs"),
            ({"kind": "linear_process", "coeffs": 5}, "coeffs"),
            ({"kind": "martingale_plus_coboundary", "g_coeffs": [1.0, "x"]}, "g_coeffs"),
        ],
    )
    def test_ill_typed_model_key_names_key(self, tmp_path, capsys, model, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        code = run(["simulate", "--n", "8", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: model.{key}:" in err
        if key == "innovation":
            assert "('rademacher', 'normal', 'uniform')" in err

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"kind": "iid", "scale": [1]}, "scale"),
            ({"kind": "iid", "scale": "big"}, "scale"),
            ({"kind": "martingale_difference", "modulation": None}, "modulation"),
            ({"kind": "martingale_plus_coboundary", "mds_part": "x"}, "mds_part"),
            ({"kind": "renewal_chain", "p": "3"}, "p"),
            ({"kind": "renewal_chain", "p": 2}, "p"),
            ({"kind": "renewal_chain", "depth": "x"}, "depth"),
            ({"kind": "renewal_chain", "depth": 1}, "depth"),
            ({"kind": "renewal_chain", "depth": True}, "depth"),
            # the builders' own checks
            ({"kind": "martingale_difference", "modulation": 1.5}, "modulation"),
            ({"kind": "martingale_difference", "innovation": "normal", "modulation": 0.5}, "modulation"),
            ({"kind": "martingale_plus_coboundary", "direction": "up"}, "direction"),
            # a chain with too many states, or with u_6 beyond the exact integers
            ({"kind": "renewal_chain", "depth": 6}, "depth"),
            ({"kind": "renewal_chain", "p": 4, "depth": 6}, "depth"),
            # rademacher innovations tabulated over 2^23 sign patterns
            ({"kind": "linear_process", "coeffs": [1.0] * 23, "innovation": "rademacher"}, "innovation"),
            # two nonzero coeffs 23 apart: the table spans the zeros between them
            (
                {"kind": "linear_process", "coeffs": [1.0] + [0.0] * 21 + [1.0], "innovation": "rademacher"},
                "innovation",
            ),
        ],
    )
    def test_ill_typed_model_scalar_names_key(self, tmp_path, capsys, model, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        code = run(["simulate", "--n", "8", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: model.{key}:" in err
        assert "Traceback" not in err

    def test_null_mds_part_is_the_pure_coboundary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "martingale_plus_coboundary", "mds_part": None}}))
        code = run(["simulate", "--n", "8", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize(
        "argv, config, bound",
        [
            ([], {"j": 9}, "1..4, got 9"),
            ([], {"j": 0}, "1..4, got 0"),
            ([], {"depth": 3, "j": 4}, "1..3, got 4"),
            (["--j", "5"], {}, "1..4, got 5"),  # the flag is checked too
        ],
    )
    def test_counterexample_level_beyond_depth_names_key(self, tmp_path, capsys, argv, config, bound):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(["counterexample", *argv, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: j: must lie in {bound}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["--K", "1"], {}, "K: got 1, but K must exceed the mean return time 1.35958"),
            ([], {"K": 1}, "K: got 1, but K must exceed the mean return time 1.35958"),
            (["--delta", "1e-6"], {}, "delta: too small at j = 4: need u_j = 131 <= n*delta = 0.196416"),
            ([], {"delta": 1e-6, "j": 3}, "delta: too small at j = 3: need u_j = 7 <= n*delta = 0.000129"),
            (
                ["--p", "2100", "--depth", "2", "--replicates", "1"],
                {},
                "j: at j = 2, n_j*K is 10^316.7 steps, above 2147483648",
            ),
        ],
        ids=["K-flag", "K-config", "delta-flag", "delta-config", "j-past-float-range"],
    )
    def test_counterexample_range_errors_name_key(self, tmp_path, capsys, argv, config, message):
        # K <= E[tau] and a window below u_j used to exit 2 as "error: ...",
        # not as a configuration error naming the key; n_j = u_j^((p+2)/2)
        # beyond the float range was an OverflowError traceback.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(["counterexample", *argv, "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {message}\n" == err

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["simulate", "--n", "8"], {"replicatez": 3}, "replicatez"),
            (["norms", "--which", "weak-lp"], {"sample": 100}, "sample"),
            (["norms", "--which", "mw-norm"], {"j": 3}, "j"),
            (["norms", "--which", "mw-series"], {"n": 64}, "n"),
            (["certify", "--suite", "dyadic-lemma"], {"paths": 2}, "paths"),
            (["certify", "--suite", "martingale"], {"depth": 3}, "depth"),
            (["certify", "--suite", "mw"], {"replicate": 3}, "replicate"),
            (["certify", "--suite", "fdd"], {"time_grids": [0.5]}, "time_grids"),
            (["certify", "--suite", "tightness"], {"eps": 0.1}, "eps"),
            (["certify", "--suite", "all"], {"n_grids": [64]}, "n_grids"),
            (["counterexample"], {"J": 3}, "J"),
            (["counterexample"], {"inputs": "elsewhere"}, "inputs"),
            # a model where the run reads none
            (["norms", "--which", "weak-lp"], {"model": {"kind": "iid"}}, "model"),
            (["counterexample"], {"model": {"kind": "renewal_chain"}}, "model"),
            (["certify", "--suite", "dyadic-lemma"], {"model": {"kind": "iid"}}, "model"),
            (["certify", "--suite", "all"], {"model": {"kind": "iid"}}, "model"),
            # a model key of another kind
            (["simulate", "--n", "8"], {"model": {"kind": "iid", "modulation": 0.5}}, "model.modulation"),
            (
                ["simulate", "--n", "8"],
                {"model": {"kind": "martingale_difference", "scale": 2.0}},
                "model.scale",
            ),
            (
                ["simulate", "--n", "8"],
                {"model": {"kind": "martingale_plus_coboundary", "coeffs": [1.0]}},
                "model.coeffs",
            ),
            (
                ["simulate", "--n", "8"],
                {"model": {"kind": "linear_process", "g_coeffs": [1.0]}},
                "model.g_coeffs",
            ),
            (
                ["simulate", "--n", "8"],
                {"model": {"kind": "renewal_chain", "innovation": "normal"}},
                "model.innovation",
            ),
            # a flag the run does not read
            (["norms", "--which", "weak-lp", "--J", "3"], {}, "J"),
            (["norms", "--which", "mw-norm", "--N", "64"], {}, "N"),
            # a depth whose chain cannot be built (u_6 beyond the exact
            # integers at p = 4); certify reads no flags, so p comes from the config
            (["certify", "--suite", "tightness"], {"p": 4, "depth": 6}, "depth"),
            # a model without what the run needs: the forward coboundary has
            # no conditional-sum oracle, and several uniform innovations no
            # exact L^p norm (these used to exit 2 naming no key)
            (["norms", "--which", "mw-series"], {"model": {"kind": "martingale_plus_coboundary"}}, "model"),
            (
                ["norms", "--which", "mw-series"],
                {"model": {"kind": "martingale_plus_coboundary", "innovation": "normal"}},
                "model",
            ),
            (
                ["norms", "--which", "mw-norm"],
                {"model": {"kind": "linear_process", "coeffs": [1, 0.5], "innovation": "uniform"}},
                "model",
            ),
            # a config seed that is no integer (argparse checks the flag's)
            (["simulate", "--n", "8"], {"seed": "1"}, "seed"),
            (["counterexample"], {"seed": 1.5}, "seed"),
        ],
    )
    def test_unknown_key_names_key(self, tmp_path, capsys, argv, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {key}:" in err
        assert "Traceback" not in err

    def test_report_takes_no_seed_or_config(self, tmp_path, capsys):
        # report uses no seed and reads no key, so neither flag exists for it
        with pytest.raises(SystemExit) as exc:
            run(["report", "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert "--seed" not in usage and "--config" not in usage
        for flag in (["--seed", "1"], ["--config", str(tmp_path / "cfg.json")]):
            with pytest.raises(SystemExit) as exc:
                run(["report", *flag, "--out", str(tmp_path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flag)}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, key, text, value",
        [
            (["simulate", "--n", "16"], "replicates", "2", 2),
            (["simulate", "--replicates", "2"], "n", "16", 16),
            (["simulate", "--n", "16"], "p", "4", 4),
            (["norms", "--which", "weak-lp", "--samples", "100"], "p", "3.5", 3.5),
            (["norms", "--which", "weak-lp"], "samples", "100", 100),
            (["norms", "--which", "mw-norm", "--J", "3"], "variant", "nonadapted", "nonadapted"),
            (["norms", "--which", "mw-norm"], "J", "3", 3),
            (["norms", "--which", "mw-norm", "--J", "3"], "p", "4", 4),
            (["norms", "--which", "mw-series", "--N", "64"], "weights", "counterexample", "counterexample"),
            (["norms", "--which", "mw-series"], "N", "64", 64),
            (["norms", "--which", "mw-series", "--N", "64"], "p", "3.5", 3.5),
            (["counterexample", "--delta", "0.1", "--j", "3", "--replicates", "4"], "p", "3.5", 3.5),
            (["counterexample", "--delta", "0.1", "--replicates", "4"], "depth", "3", 3),
            (["counterexample", "--delta", "0.1", "--j", "3", "--replicates", "4"], "K", "3", 3),
            (["counterexample", "--j", "3", "--replicates", "4"], "delta", "0.2", 0.2),
            (["counterexample", "--delta", "0.5", "--replicates", "4"], "j", "2", 2),
            (["counterexample", "--delta", "0.1", "--j", "3"], "replicates", "4", 4),
        ],
    )
    def test_flag_equals_config_key(self, tmp_path, argv, key, text, value):
        """``--key v`` and the config key ``{"key": v}`` write the same files."""
        # The nonadapted variant needs a model on which it is defined.
        model = {"model": {"kind": "martingale_plus_coboundary"}} if key == "variant" else {}
        outputs = []
        for extra, config in (([f"--{key}", text], model), ([], {**model, key: value})):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / f"out{len(outputs)}"
            assert run([*argv, *extra, "--seed", "3", "--config", str(cfg), "--out", str(out)]) in (0, 1)
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outputs[0] == outputs[1]
        assert any(name.startswith("report_") for name in outputs[0])

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

    def test_mw_norm_without_exact_norm_exits_2(self, tmp_path, capsys):
        # Several uniform innovations have no exact L^p norm.
        cfg = tmp_path / "cfg.json"
        model = {"kind": "linear_process", "coeffs": [1.0, 0.5, 0.25], "innovation": "uniform"}
        cfg.write_text(json.dumps({"model": model}))
        code = run(["norms", "--which", "mw-norm", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no exact L^p norm" in err and "Traceback" not in err

    def test_mw_series_counterexample_weights(self, tmp_path):
        code = run(
            ["norms", "--which", "mw-series", "--p", "3", "--N", "4096",
             "--weights", "counterexample", "--seed", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report_mw_series.json").read_text())
        assert doc["verdict"] == "converges"

    @pytest.mark.parametrize("which, name", [("mw-norm", "mw_norm"), ("mw-series", "mw_series")])
    def test_non_finite_report_exits_2_and_writes_nothing(self, tmp_path, capsys, which, name):
        # At scale 1e200 the norms overflow to infinity (and mw-series' rows
        # to NaN), which JSON cannot hold: mw-norm exited 1 and mw-series 0,
        # each writing a report of Infinity and NaN tokens.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "iid", "scale": 1e200}}))
        out = tmp_path / "out"
        code = run(["norms", "--which", which, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: report_{name}.json:" in err and "Traceback" not in err
        assert not list(out.glob("*"))


class TestSimulateAndReport:
    @pytest.mark.parametrize(
        "argv", [["simulate", "--n", "8"], ["certify", "--suite", "martingale"]], ids=["simulate", "certify"]
    )
    def test_failed_allocation_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # An array too large for memory used to escape as a NumPy
        # _ArrayMemoryError traceback; the runners raise one here instead.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "sample_model", no_memory)
        monkeypatch.setitem(cli._SUITES, "martingale", (cli._SUITES["martingale"][0], no_memory))
        code = run([*argv, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: Unable to allocate 745. GiB for an array\n"
        assert not (tmp_path / "out").exists()

    def test_simulate_writes_paths(self, tmp_path):
        code = run(
            ["simulate", "--n", "64", "--replicates", "3", "--seed", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        csv_text = (tmp_path / "replicates_simulate.csv").read_text().splitlines()
        assert csv_text[0] == "replicate,t,partial_sum"
        assert len(csv_text) == 1 + 3 * 65

    def test_simulate_keeps_partial_sums_in_arrays(self, tmp_path):
        # 40 paths of 2000 steps: kept as one CSV row tuple per sum, they
        # peaked at 10.6 MB (about 130 bytes a step); kept as arrays and
        # expanded while the CSV is written, the run stays below 4 MB.
        argv = ["simulate", "--n", "2000", "--replicates", "40", "--seed", "4"]
        tracemalloc.start()
        try:
            assert run([*argv, "--out", str(tmp_path)]) == 0
            assert tracemalloc.get_traced_memory()[1] < 1 << 22
        finally:
            tracemalloc.stop()
        csv_text = (tmp_path / "replicates_simulate.csv").read_text().splitlines()
        assert len(csv_text) == 1 + 40 * 2001

    def test_renewal_report_leaves_out_stationary_law(self, tmp_path):
        # A depth-5 chain has 230k states; its stationary law, derived from
        # p and depth, made this report 4.7 MB.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "renewal_chain", "p": 3.0, "depth": 5}}))
        code = run(["simulate", "--n", "64", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        report = tmp_path / "report_simulate.json"
        assert report.stat().st_size < 4096
        chain = json.loads(report.read_text())["config"]["model"]["chain"]
        assert "pi" not in chain and chain["depth"] == 5

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

    def test_report_of_a_non_object_is_config_error(self, tmp_path, capsys):
        (tmp_path / "report_x.json").write_text("[1, 2]\n")
        code = run(["report", "--input", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "report_x.json" in err and "Traceback" not in err

    def test_report_of_invalid_json_is_config_error(self, tmp_path, capsys):
        (tmp_path / "report_x.json").write_text('{"passed": tru\n')
        code = run(["report", "--input", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "report_x.json" in capsys.readouterr().err

    def test_report_passed_must_be_a_boolean(self, tmp_path, capsys):
        (tmp_path / "report_x.json").write_text('{"passed": "no"}\n')
        code = run(["report", "--input", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "report_x.json" in err and "passed" in err


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


def test_scipy_stays_out_of_start_up_and_the_headline_run(tmp_path):
    # No module of hwip imports scipy: ndtr and gammaln are ported.
    src = str(Path(hwip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "def loaded(): return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "import hwip; seen = [loaded()]\n"
        "import hwip.cli; seen.append(loaded())\n"
        "argv = ['counterexample', '--p', '3', '--depth', '3', '--j', '3', '--delta', '0.5',\n"
        "        '--replicates', '2', '--contrast', '--out', sys.argv[1]]\n"
        "assert hwip.cli.main(argv) == 0\n"
        "print(seen + [loaded()])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[False, False, False]"


def test_runs_without_scipy_write_the_same_reports(tmp_path):
    # A scipy package that raises ImportError, first on the path, stands
    # for an install without SciPy.  certify --suite all (fdd evaluates
    # ndtr) and mw-norm of normal innovations (gammaln) must run and write
    # the report bytes of a run on the usual path.
    stub = tmp_path / "stub"
    (stub / "scipy").mkdir(parents=True)
    (stub / "scipy" / "__init__.py").write_text('raise ImportError("no scipy here")\n')
    src = str(Path(hwip.__file__).resolve().parents[1])
    certify = tmp_path / "certify.json"
    certify.write_text(json.dumps(
        {"paths_per_model": 20, "n_max": 32, "n_grid": [32, 64], "replicates": 40, "n": 256}
    ))
    norms = tmp_path / "norms.json"
    norms.write_text(json.dumps({"model": {"kind": "iid", "innovation": "normal"}}))
    runs = {
        "certify": ["certify", "--suite", "all", "--config", str(certify)],
        "mw-norm": ["norms", "--which", "mw-norm", "--config", str(norms)],
    }
    code = "import sys, hwip.cli; sys.exit(hwip.cli.main(sys.argv[1:]))"
    reports = {}
    for path in ([str(stub), src], [src]):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([*path, os.environ.get("PYTHONPATH", "")])}
        blocked = subprocess.run([sys.executable, "-c", "import scipy"], env=env, capture_output=True)
        assert (blocked.returncode != 0) == (len(path) == 2)
        for name, argv in runs.items():
            out = tmp_path / str(len(path)) / name
            done = subprocess.run(
                [sys.executable, "-c", code, *argv, "--seed", "3", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode in (0, 1) and "Traceback" not in done.stderr, done.stderr
            reports[len(path), name] = {f.name: f.read_bytes() for f in sorted(out.glob("report_*.json"))}
    assert len(reports[2, "certify"]) == 5 and len(reports[2, "mw-norm"]) == 1
    for name in runs:
        assert reports[2, name] == reports[1, name]


def test_mw_series_budget_comes_before_the_weights(tmp_path, capsys):
    # counterexample_weights would hold three arrays of N = 5000000 (40 MB each).
    argv = ["norms", "--which", "mw-series", "--N", "5000000", "--weights", "counterexample"]
    tracemalloc.start()
    try:
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert tracemalloc.get_traced_memory()[1] < 1 << 24
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "configuration error: N:" in err and "Traceback" not in err


def test_dyadic_lemma_budget_comes_before_the_paths(tmp_path, capsys):
    # Three models' 10^9 paths of 256 steps would ask for 5.6 TiB.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths_per_model": 10**9}))
    argv = ["certify", "--suite", "dyadic-lemma", "--config", str(cfg), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert run(argv) == 2
        assert tracemalloc.get_traced_memory()[1] < 1 << 24
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "configuration error: paths_per_model:" in err and "Traceback" not in err


#: The keys of the dict each norms function returns, which its report prints.
_NORMS_KEYS = {
    "weak_lp": {"tail_form", "tail_form_root", "dual_lower", "dual_upper", "p", "sample_count"},
    "mw_norm": {"variant", "p", "J", "terms", "partial_sums", "converged", "tail_estimate", "value"},
    "mw_series": {"rows", "block_ratios", "verdict", "p", "N", "weighted"},
}


def test_norms_reports_print_the_functions_dicts(tmp_path):
    chain = model_from_dict({"kind": "renewal_chain"})  # the default model of norms
    samples = substream(13, 0).uniform(size=1000) ** (-1.0 / 3.0)
    runs = {
        "weak_lp": (["--which", "weak-lp", "--samples", "1000", "--seed", "13"], "estimate",
                    empirical_weak_lp(samples, 3.0)),
        "mw_norm": (["--which", "mw-norm", "--J", "8"], "report", mw_norm(chain, "adapted", 3.0, 8)),
        "mw_series": (["--which", "mw-series", "--N", "4096", "--weights", "counterexample"], "report",
                      mw_series_diagnostic(chain, 3.0, 4096, "counterexample")),
    }
    for name, (argv, field, expected) in runs.items():
        assert run(["norms", *argv, "--out", str(tmp_path)]) == 0
        printed = json.loads((tmp_path / f"report_{name}.json").read_text())[field]
        assert set(expected) == _NORMS_KEYS[name]
        assert printed == json.loads(json.dumps(expected))


def test_render_summary_is_pure_function_of_doc():
    doc = {"a": 1, "b": {"c": 2.5}, "rows": [{"x": 1}, {"x": 2}]}
    text = render_summary(doc)
    assert "a: 1" in text and "c: 2.5" in text and "x=1" in text


#: Top-level keys of every report_*.json, by file: the fields every report
#: has, plus the body of its kind.
_COMMON_KEYS = {"experiment", "config", "verdict", "passed"}
_CERTIFICATION_KEYS = _COMMON_KEYS | {"stats", "per_point"}
_REPORT_KEYS = {
    "report_simulate.json": _COMMON_KEYS | {"per_point"},
    "report_weak_lp.json": _COMMON_KEYS | {"estimate"},
    "report_mw_norm.json": _COMMON_KEYS | {"report"},
    "report_mw_series.json": _COMMON_KEYS | {"report"},
    "report_fdd_convergence.json": _COMMON_KEYS | {"report"},
    "report_dyadic_lemma.json": _CERTIFICATION_KEYS,
    "report_martingale_maximal_inequality.json": _CERTIFICATION_KEYS,
    "report_mw_maximal_inequality.json": _CERTIFICATION_KEYS,
    "report_holder_tightness_diagnostic.json": _CERTIFICATION_KEYS,
    "report_counterexample.json": _CERTIFICATION_KEYS,
    "report_counterexample_contrast.json": _CERTIFICATION_KEYS,
}


def test_report_top_level_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"paths_per_model": 2, "n_max": 8, "n_grid": [16, 32], "replicates": 20, "n": 64})
    )
    out = tmp_path / "out"
    for argv in (
        ["simulate", "--n", "16"],
        ["norms", "--which", "weak-lp", "--samples", "100"],
        ["norms", "--which", "mw-norm", "--J", "4"],
        ["norms", "--which", "mw-series", "--N", "64"],
        ["certify", "--suite", "all", "--config", str(cfg)],
        ["counterexample", "--j", "3", "--delta", "0.1", "--replicates", "5", "--contrast"],
    ):
        assert run([*argv, "--seed", "1", "--out", str(out)]) in (0, 1)
    found = {f.name: set(json.loads(f.read_text())) for f in out.glob("report_*.json")}
    assert found == _REPORT_KEYS
    # every run writes its report and its summary, and simulate its CSV too
    summaries = {f.name for f in out.glob("summary_*.txt")}
    assert summaries == {f"summary_{name[7:-5]}.txt" for name in _REPORT_KEYS}
    assert (out / "replicates_simulate.csv").exists()
    # the outputs are not a choice: there is no --format flag
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--format", "csv", "--out", str(tmp_path / "csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
