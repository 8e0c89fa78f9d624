import dataclasses
import json
import os

import numpy as np
import pytest

from hyperfed import cli, ec_block, federation, hypergraph, numcore, selfcheck
from hyperfed.config import (ConfigError, ExperimentConfig, make_config,
                             parse_config, parse_override,
                             save_resolved_config)

TINY = ["classes=3", "feature_dim=6", "samples_per_class=10",
        "client_count=2", "rounds=1", "batch_size=8", "neighbor_count=3",
        "ec_neighbor_count=3", "backbone_dim=8", "compact_dim=6",
        "relational_dim=6", "estimator_hidden=6", "expr_dim=6"]


def tiny_args(out, extra=()):
    args = ["run", "--out", str(out)]
    for item in TINY + list(extra):
        args += ["--set", item]
    return args


class TestConfigDefaults:
    def test_protocol_defaults(self):
        cfg = parse_config()
        assert cfg.client_count == 10
        assert cfg.rounds == 100
        assert cfg.participation == 0.5
        assert cfg.learning_rate == 0.10
        assert cfg.batch_size == 32
        assert cfg.eta == 0.2
        assert cfg.zeta == 0.7
        assert cfg.delta == 0.6
        assert cfg.prop_lambda == 1.0
        assert cfg.lambda1 == 0.8
        assert cfg.lambda2 == 1.0
        assert cfg.neighbor_count == 10
        assert cfg.hgnn_layers == 2
        assert cfg.method == "ue_ec"

    def test_dataclass_and_parse_agree(self):
        assert parse_config() == ExperimentConfig()


class TestConfigParsing:
    def test_json_file_merges_over_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"rounds": 7, "method": "ue"}))
        cfg = parse_config(str(p))
        assert cfg.rounds == 7 and cfg.method == "ue"
        assert cfg.client_count == 10  # untouched default

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"rounds": 7}))
        cfg = parse_config(str(p), ["rounds=3", "learning_rate=0.05"])
        assert cfg.rounds == 3 and cfg.learning_rate == 0.05

    def test_bare_string_override(self):
        assert parse_config(None, ["method=baseline"]).method == "baseline"

    def test_bool_override(self):
        assert parse_config(None, ["broadcast_all=true"]).broadcast_all
        for item, want in [("broadcast_all=1", True),
                           ("broadcast_all=0", False),
                           ('broadcast_all="1"', True),
                           ("broadcast_all=no", False)]:
            assert parse_config(None, [item]).broadcast_all is want
        assert make_config({"persist_refined": 0}).persist_refined is False
        assert ExperimentConfig(corrupt_mislabeled=1).corrupt_mislabeled \
            is True
        for item in ["broadcast_all=2", "broadcast_all=-1",
                     "broadcast_all=1.0", "broadcast_all=0.0",
                     "broadcast_all=maybe"]:
            with pytest.raises(ConfigError,
                               match="^broadcast_all: expected bool, got"):
                parse_config(None, [item])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(None, ["rouns=3"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(None, ["rounds"])

    def test_parse_override(self):
        assert parse_override(" rounds = 3 ") == ("rounds", 3)
        assert parse_override("method=ue") == ("method", "ue")
        assert parse_override('seed=[1, 2]') == ("seed", [1, 2])
        assert parse_override("csv_path=a=b.csv") == ("csv_path", "a=b.csv")
        with pytest.raises(ConfigError,
                           match="^override 'rounds' is not of the form"):
            parse_override("rounds")

    def test_non_object_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            parse_config(str(p))


class TestConfigValidation:
    def test_zeta_out_of_range_names_key_and_bounds(self):
        with pytest.raises(ConfigError, match="zeta.*1"):
            make_config({"zeta": 1.5})

    @pytest.mark.parametrize("bad", [
        {"participation": 0.0}, {"participation": 1.5},
        {"rounds": -1}, {"client_count": 0}, {"batch_size": 1},
        {"method": "fancy"}, {"noise_rate": 1.2}, {"delta": 0.0},
        {"dirichlet_alpha": 0.0}, {"aggregation": "median"},
        {"learning_rate": -0.1}, {"test_fraction": 1.0},
        {"delta": float("nan")}, {"prop_lambda": float("nan")},
        {"fixed_sigma": float("nan")}, {"zeta": float("nan")},
        {"eta": float("nan")}, {"noise_rate": float("nan")},
        {"rounds": 1.7}, {"rounds": float("inf")},
    ])
    def test_rejected_values(self, bad):
        with pytest.raises(ConfigError):
            make_config(bad)
        # the type validates itself, however it is built
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
        with pytest.raises(ConfigError):
            dataclasses.replace(ExperimentConfig(), **bad)

    def test_integral_float_is_an_int(self):
        cfg = make_config({"rounds": 2.0})
        assert cfg.rounds == 2 and type(cfg.rounds) is int
        rounds = ExperimentConfig(rounds=2.0).rounds
        assert rounds == 2 and type(rounds) is int

    def test_nan_from_json_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"rounds": 3, "eta": NaN}')
        with pytest.raises(ConfigError, match="^eta: expected finite float"):
            parse_config(str(p))

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="rounds"):
            make_config({"rounds": "many"})

    def test_error_message_names_offending_key(self):
        with pytest.raises(ConfigError, match="participation"):
            make_config({"participation": 2.0})


class TestResolvedConfig:
    def test_round_trip_equal(self, tmp_path):
        cfg = make_config({"rounds": 3, "method": "ue"})
        p = tmp_path / "resolved.json"
        save_resolved_config(cfg, p)
        back = make_config(json.loads(p.read_text()))
        assert back == cfg

    def test_byte_stable(self, tmp_path):
        cfg = make_config({"seed": 5})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_resolved_config(cfg, a)
        save_resolved_config(cfg, b)
        assert a.read_bytes() == b.read_bytes()


class TestCliRun:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run1"
        assert cli.main(tiny_args(out)) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "resolved_config.json").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header.startswith("round,client_id,split,accuracy")

    def test_resolved_config_reruns_identically(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(tiny_args(a, ["seed=4"])) == 0
        # re-run from the resolved config alone
        assert cli.main(["run", "--out", str(b), "--config",
                         str(a / "resolved_config.json")]) == 0
        assert (a / "metrics.csv").read_bytes() == \
            (b / "metrics.csv").read_bytes()

    def test_bad_override_exits_1(self, tmp_path, capsys):
        rc = cli.main(tiny_args(tmp_path / "x", ["zeta=1.5"]))
        assert rc == 1
        assert "zeta" in capsys.readouterr().err

    @pytest.mark.parametrize("item", [
        "delta=NaN", "prop_lambda=NaN", "fixed_sigma=NaN", "zeta=NaN",
        "eta=NaN", "noise_rate=NaN", "rounds=1.7", "rounds=Infinity",
        "eta=-Infinity", "client_count=NaN"])
    def test_non_finite_or_fractional_exits_1_before_writing(self, tmp_path,
                                                             capsys, item):
        out = tmp_path / "x"
        assert cli.main(tiny_args(out, [item])) == 1
        key = item.split("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {key}: expected")
        assert not out.exists()

    def test_missing_config_file_exits_1(self, tmp_path):
        rc = cli.main(["run", "--out", str(tmp_path / "x"),
                       "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_check_exits_0(self, capsys):
        assert cli.main(["check"]) == 0
        assert "[PASS]" in capsys.readouterr().out


def _lambda_doubled(orig):
    return lambda f, y, cfg: orig(
        f, y, dataclasses.replace(cfg, prop_lambda=2.0 * cfg.prop_lambda))


def _grads_scaled(orig):
    def backward(params, prefix, cache, grad_output, grads):
        out = orig(params, prefix, cache, grad_output, grads)
        grads.vector *= 1.001
        return out
    return backward


def _strict_threshold(orig):
    return lambda beta, lp, ls, y, cfg: orig(
        beta, lp, ls, y,
        ec_block.RefineConfig(float(np.nextafter(cfg.threshold, 1.0))))


# (check, module, attribute, wrong implementation made from the right one)
BROKEN = {
    "propagation ignores lambda": (
        "check_label_propagation", ec_block, "label_propagate",
        _lambda_doubled),
    "operator eigmax above 1": (
        "check_operator_spectrum", hypergraph, "normalized_operator",
        lambda orig: lambda t: 1.01 * orig(t)),
    "operator not symmetric": (
        "check_operator_spectrum", hypergraph, "normalized_operator",
        lambda orig: lambda t: np.tril(orig(t))),
    "mlp gradient off by 0.1%": (
        "check_mlp_gradients", numcore, "mlp_backward", _grads_scaled),
    "refine with beta > delta": (
        "check_refinement_rule", ec_block, "refine_labels",
        _strict_threshold),
    "refine without agreement": (
        "check_refinement_rule", ec_block, "refine_labels",
        lambda orig: lambda beta, lp, ls, y, cfg: orig(beta, lp, lp, y, cfg)),
    "refine ignores beta": (
        "check_refinement_rule", ec_block, "refine_labels",
        lambda orig: lambda beta, lp, ls, y, cfg: orig(
            np.ones(np.shape(beta)), lp, ls, y, cfg)),
    "aggregation uniform": (
        "check_aggregation", federation, "aggregate",
        lambda orig: lambda server, updates, mode: orig(server, updates,
                                                        "uniform")),
}


class TestSelfcheckCanFail:
    """Every `hyperfed check` check fails on a wrong subject, so none can
    turn into a tautology unnoticed."""

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_check_fails_on_wrong_subject(self, monkeypatch, case):
        name, module, attr, wrong = BROKEN[case]
        check = getattr(selfcheck, name)
        assert check()
        monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
        assert not check()

    def test_every_check_is_covered(self):
        covered = {name for name, _, _, _ in BROKEN.values()}
        assert covered == {fn.__name__ for _, fn in selfcheck.CHECKS}

    def test_cli_check_exits_2(self, monkeypatch, capsys):
        _, module, attr, wrong = BROKEN["aggregation uniform"]
        monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
        assert cli.main(["check"]) == 2
        assert "[FAIL] weighted aggregation hand case" in \
            capsys.readouterr().out


class TestCliSweep:
    def test_cartesian_product_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sw"
        args = ["sweep", "--out", str(out), "--seeds", "2"]
        for item in TINY:
            args += ["--set", item]
        args += ["--set", 'method=["baseline","ue"]']
        assert cli.main(args) == 0
        dirs = [d for d in os.listdir(out) if (out / d).is_dir()]
        assert len(dirs) == 4  # 2 methods x 2 seeds
        for d in dirs:
            assert (out / d / "metrics.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("method,alpha=")
        body = {line.split(",")[0] for line in summary[1:]}
        assert body == {"baseline", "ue"}
        assert all("+-" in line for line in summary[1:])  # std over 2 seeds


    def _sweep(self, out, *extra):
        args = ["sweep", "--out", str(out)]
        for item in TINY + list(extra):
            args += ["--set", item]
        return args

    def test_empty_axis_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert cli.main(self._sweep(out, "method=[]")) == 1
        assert "'method'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["seed=[5,6]", "seed=5"])
    def test_seeds_with_seed_override_is_rejected(self, tmp_path, capsys,
                                                  seed):
        out = tmp_path / "sw"
        args = self._sweep(out, seed) + ["--seeds", "2"]
        assert cli.main(args) == 1
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_list_without_seeds_sweeps_it(self, tmp_path):
        out = tmp_path / "sw"
        assert cli.main(self._sweep(out, "seed=[5,6]")) == 0
        assert sorted(d for d in os.listdir(out) if (out / d).is_dir()) == \
            ["seed=5", "seed=6"]

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_is_rejected(self, tmp_path, capsys, seeds):
        out = tmp_path / "sw"
        assert cli.main(self._sweep(out) + ["--seeds", seeds]) == 1
        assert f"--seeds must be >= 1, got {seeds}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_seed_runs_one_cell(self, tmp_path):
        out = tmp_path / "sw"
        assert cli.main(self._sweep(out) + ["--seeds", "1"]) == 0
        assert [d for d in os.listdir(out) if (out / d).is_dir()] == ["run"]

    def test_other_axes_label_the_summary(self, tmp_path):
        """Cells that differ in a field besides seed, method and alpha are
        rows of their own, not seeds of one cell."""
        out = tmp_path / "sw"
        args = self._sweep(out, "method=baseline", "lambda2=[0.0,1.0]")
        assert cli.main(args + ["--seeds", "2"]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,lambda2,alpha=0.5"
        assert [line.split(",")[:2] for line in summary[1:]] == \
            [["baseline", "0.0"], ["baseline", "1.0"]]
        assert all("+-" in line for line in summary[1:])  # 2 seeds each


class TestCsvInput:
    """A CSV of 5 feature columns and 3 classes against the config."""

    def _args(self, tmp_path, *extra):
        path = tmp_path / "emb.csv"
        lines = ["label,f0,f1,f2,f3,f4"]
        for i in range(30):
            lines.append(",".join([str(i % 3 + 1)]
                                  + [f"{(i * 7 + j) % 5 - 2.0}"
                                     for j in range(5)]))
        path.write_text("\n".join(lines) + "\n")
        sets = [t for t in TINY if not t.startswith(("classes=",
                                                     "feature_dim="))]
        args = ["run", "--out", str(tmp_path / "out"), "--set",
                f"csv_path={path}"]
        for item in sets + list(extra):
            args += ["--set", item]
        return args, path

    @pytest.mark.parametrize("extra,key,want", [
        ((), "feature_dim", 32),
        (("feature_dim=5", "classes=2"), "classes", 2),
        (("feature_dim=5",), "classes", 7),
    ])
    def test_mismatch_exits_1_naming_key_and_values(self, tmp_path, capsys,
                                                    extra, key, want):
        args, path = self._args(tmp_path, *extra)
        assert cli.main(args) == 1
        got = 5 if key == "feature_dim" else 3
        assert (f"{key}: config says {want}, but {path} has {got}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_matching_csv_runs(self, tmp_path):
        args, _ = self._args(tmp_path, "feature_dim=5", "classes=3")
        assert cli.main(args) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

class TestEmitSummary:
    def _fake_run(self, tmp_path, name, method, alpha, acc):
        d = tmp_path / name
        d.mkdir()
        (d / "resolved_config.json").write_text(
            json.dumps({"method": method, "dirichlet_alpha": alpha}))
        (d / "metrics.csv").write_text(
            "round,client_id,split,accuracy\n"
            f"1,-1,test,{acc}\n1,-1,pooled,{acc}\n")
        return str(d)

    def test_hand_mean_and_absent_cell(self, tmp_path):
        dirs = [
            self._fake_run(tmp_path, "r1", "baseline", 0.5, 0.4),
            self._fake_run(tmp_path, "r2", "baseline", 0.5, 0.6),
            self._fake_run(tmp_path, "r3", "ue", 5.0, 0.9),
        ]
        out = tmp_path / "summary.csv"
        cli.emit_summary(dirs, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "method,alpha=0.5,alpha=5"
        assert lines[1] == "baseline,0.5000+-0.1000,absent"
        assert lines[2] == "ue,absent,0.9000"


class TestExportPlot:
    def test_long_format(self, tmp_path):
        run_dir = tmp_path / "r"
        assert cli.main(tiny_args(run_dir)) == 0
        long_path = tmp_path / "long.csv"
        assert cli.main(["export-plot", "--metrics",
                         str(run_dir / "metrics.csv"),
                         "--out", str(long_path)]) == 0
        lines = long_path.read_text().splitlines()
        assert lines[0] == "round,client_id,split,metric,value"
        metrics = {line.split(",")[3] for line in lines[1:]}
        assert "accuracy" in metrics
        # empty cells are dropped, not emitted as blank values
        assert all(line.split(",")[4] != "" for line in lines[1:])
