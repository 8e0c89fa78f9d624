import copy
import csv
import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import threading
import time

import numpy as np
import pytest

import hyperfed
from hyperfed import (cli, ec_block, federation, hypergraph, numcore, oracles,
                     ue_block)
from hyperfed.config import (METHODS, ConfigError, ExperimentConfig,
                             make_config, parse_config, parse_override,
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

    def test_only_the_config_holds_a_default(self):
        """No function or method of the package gives a parameter named
        after an ExperimentConfig field a default: its callers pass the
        validated config's value, so config.py is the only place that
        holds one."""
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        found = []
        for info in pkgutil.iter_modules(hyperfed.__path__):
            mod = importlib.import_module(f"hyperfed.{info.name}")
            for obj in vars(mod).values():
                if getattr(obj, "__module__", None) != mod.__name__ or \
                        obj is ExperimentConfig:
                    continue
                members = vars(obj).values() if inspect.isclass(obj) \
                    else [obj]
                for fn in members:
                    fn = getattr(fn, "__func__", fn)  # static, class
                    if not inspect.isfunction(fn):
                        continue
                    found += [
                        f"{mod.__name__}.{fn.__qualname__}({p.name}=...)"
                        for p in inspect.signature(fn).parameters.values()
                        if p.name in names and p.default is not p.empty]
        assert found == []


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
        {"classes": 1}, {"feature_dim": 1}, {"corruption_severity": -0.1},
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

    def test_checked_config_cannot_be_changed(self):
        cfg = make_config({})
        for key, value in (("delta", float("nan")), ("method", "baseline"),
                           ("rounds", 3)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, key, value)
        assert cfg == make_config({})

    def test_replace_validates(self):
        with pytest.raises(ConfigError, match="^delta: expected finite"):
            dataclasses.replace(make_config({}), delta=float("nan"))
        cfg = dataclasses.replace(make_config({}), rounds=2.0)
        assert cfg.rounds == 2 and type(cfg.rounds) is int

    def test_replaced_method_gets_its_own_layout(self):
        cfg = make_config({"method": "ue"})
        base = dataclasses.replace(cfg, method="baseline")
        for c, size in ((cfg, 23241), (base, 6727), (cfg, 23241)):
            rng = numcore.child_rng(0, "init")
            assert federation.init_model(c, [rng])[0].vector.size == size


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

    @pytest.mark.parametrize("item,samples,clients", [
        ("samples_per_class=1", 3, 2), ("client_count=16", 30, 16)])
    def test_unpartitionable_config_exits_1_before_any_round(
            self, tmp_path, capsys, monkeypatch, item, samples, clients):
        def no_clients(*args):
            raise AssertionError("clients were built")

        monkeypatch.setattr(federation, "build_clients", no_clients)
        out = tmp_path / "x"
        assert cli.main(tiny_args(out, [item])) == 1
        assert capsys.readouterr().err == (
            f"error: client_count={clients}, dirichlet_alpha=0.5: each of 10 "
            f"Dirichlet(alpha=0.5) partitions of {samples} samples over "
            f"{clients} clients left a client with fewer than 2\n")
        assert not out.exists()

    def test_no_test_sample_exits_1_before_any_client(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_clients(*args):
            raise AssertionError("clients were built")

        monkeypatch.setattr(federation, "build_clients", no_clients)
        out = tmp_path / "x"
        assert cli.main(["run", "--out", str(out), "--set",
                         "samples_per_class=1", "--set", "classes=4",
                         "--set", "client_count=1"]) == 1
        assert capsys.readouterr().err == (
            "error: client_count=1: no client holds two samples of one "
            "class, so none has a test sample\n")
        assert not out.exists()

    def test_missing_config_file_exits_1(self, tmp_path):
        rc = cli.main(["run", "--out", str(tmp_path / "x"),
                       "--config", str(tmp_path / "nope.json")])
        assert rc == 1

    @pytest.mark.parametrize("content, reason", [
        (b'{"rounds": 1,', "line 1 column 14: Expecting property name "
                           "enclosed in double quotes"),
        (b'\n\n  {"rounds": 1\n', "line 4 column 1: Expecting ',' delimiter"),
        (b'{"method": "\xff"}', "not UTF-8 text: byte 12 is 0xff"),
        (None, "Is a directory")],
        ids=["truncated", "truncated-line-4", "not-utf8", "directory"])
    def test_malformed_config_file_exits_1(self, tmp_path, capsys, content,
                                           reason):
        p = tmp_path / "c.json"
        if content is None:
            p.mkdir()
        else:
            p.write_bytes(content)
        out = tmp_path / "x"
        assert cli.main(["run", "--out", str(out), "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {p}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,out,bad,reason", [
        ("run", "afile/sub", "afile/sub", "Not a directory"),
        ("sweep", "afile/sub", "afile/sub", "Not a directory"),
        ("sweep", "sw", "sw/run", "File exists")],
        ids=["run", "sweep", "sweep-cell"])
    def test_unusable_out_exits_1_before_any_run(self, tmp_path, capsys,
                                                 monkeypatch, command, out,
                                                 bad, reason):
        def no_data(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(federation, "build_dataset", no_data)
        (tmp_path / "afile").write_text("")
        (tmp_path / "sw").mkdir()
        (tmp_path / "sw" / "run").write_text("")  # the one cell's directory
        args = [command, "--out", str(tmp_path / out)]
        for item in TINY:
            args += ["--set", item]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == \
            f"error: {tmp_path / bad}: {reason}\n"

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


def _loss_grad_scaled(orig):
    """A loss whose returned gradient, its second value, is 0.1% too large."""
    def loss(*args):
        value, grad, *rest = orig(*args)
        return (value, 1.001 * grad, *rest)
    return loss


def _strict_threshold(orig):
    return lambda beta, lp, ls, y, cfg: orig(
        beta, lp, ls, y,
        ec_block.RefineConfig(float(np.nextafter(cfg.threshold, 1.0))))


def _uniform_head(orig):
    """aggregate into a copy of the server uniformly, into the server by
    its own mode, then the copy's head into the server."""
    def wrong(server, updates, mode):
        uniform = copy.deepcopy(server)
        orig(uniform, updates, "uniform")
        orig(server, updates, mode)
        server.shared[:] = uniform.shared
    return wrong


# (check, module, attribute, wrong implementation made from the right one)
BROKEN = {
    "propagation ignores lambda": (
        "propagation", ec_block, "label_propagate", _lambda_doubled),
    "operator eigmax above 1": (
        "spectrum", hypergraph, "normalized_operator",
        lambda orig: lambda t: 1.01 * orig(t)),
    "operator not symmetric": (
        "spectrum", hypergraph, "normalized_operator",
        lambda orig: lambda t: np.tril(orig(t))),
    "mlp gradient off by 0.1%": (
        "gradients", numcore, "mlp_backward", _grads_scaled),
    "hgnn gradient off by 0.1%": (
        "gradients", hypergraph, "hgnn_backward", _grads_scaled),
    "wce gradient off by 0.1%": (
        "gradients", ue_block, "weighted_ce_loss", _loss_grad_scaled),
    "wreg gradient off by 0.1%": (
        "gradients", ue_block, "weight_reg_loss", _loss_grad_scaled),
    "proto gradient off by 0.1%": (
        "gradients", federation, "prototype_loss", _loss_grad_scaled),
    # whole training steps: a route between correct kernels miswired
    "step drops the prototype gradient of e": (
        "gradients", ec_block, "ec_backward",
        lambda orig: lambda params, cache, grad_logits, grads, grad_e=None:
        orig(params, cache, grad_logits, grads)),
    "step doubles the prototype weight": (
        "gradients", federation, "prototype_row_grads",
        lambda orig: lambda grad_protos, counts, labels, weight: orig(
            grad_protos, counts, labels, 2.0 * weight)),
    "refine with beta > delta": (
        "refinement", ec_block, "refine_labels", _strict_threshold),
    "refine without agreement": (
        "refinement", ec_block, "refine_labels",
        lambda orig: lambda beta, lp, ls, y, cfg: orig(beta, lp, lp, y, cfg)),
    "refine ignores beta": (
        "refinement", ec_block, "refine_labels",
        lambda orig: lambda beta, lp, ls, y, cfg: orig(
            np.ones(np.shape(beta)), lp, ls, y, cfg)),
    "aggregation uniform": (
        "aggregation", federation, "aggregate",
        lambda orig: lambda server, updates, mode: orig(server, updates,
                                                        "uniform")),
    # the prototypes weighted by data size, the shared head uniformly
    "aggregation uniform on the head only": (
        "aggregation", federation, "aggregate", _uniform_head),
}


@functools.cache
def unpatched(name):
    """The result of check name on the right subjects, computed once: the
    mutants of one check share it."""
    return getattr(oracles, name)()


class TestSelfcheckCanFail:
    """Every `hyperfed check` check fails on a wrong subject, so none can
    turn into a tautology unnoticed."""

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_check_fails_on_wrong_subject(self, monkeypatch, case):
        name, module, attr, wrong = BROKEN[case]
        assert unpatched(name)[0]
        monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
        assert not getattr(oracles, name)()[0]

    def test_every_check_is_covered(self):
        covered = {name for name, _, _, _ in BROKEN.values()}
        assert covered == {fn.__name__ for _, fn in oracles.CHECKS}

    def test_cli_check_exits_2(self, monkeypatch, capsys):
        _, module, attr, wrong = BROKEN["aggregation uniform"]
        monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
        assert cli.main(["check"]) == 2
        assert "[FAIL] weighted aggregation hand case" in \
            capsys.readouterr().out

    def test_cli_check_names_a_check_that_raises(self, monkeypatch, capsys):
        def singular(features, y_onehot, cfg):
            raise numcore.LinearSolveError("matrix is numerically singular")
        monkeypatch.setattr(ec_block, "label_propagate", singular)
        assert cli.main(["check"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("[FAIL] label propagation closed form vs "
                            "explicit inverse: LinearSolveError: matrix is "
                            "numerically singular")
        assert [line[:6] for line in lines[1:]] == ["[PASS]"] * 4


STEP_MUTANTS = ["step doubles the prototype weight",
                "step drops the prototype gradient of e"]


class TestStepOracle:
    """Criterion 2's whole-step family on each method's own model."""

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_whole_vector_and_operator_only_with_ue(self, monkeypatch,
                                                    method):
        firsts = {}  # attribute -> the first argument of each call
        for module, attr in ((federation, "_batch_step"),
                             (oracles, "rel_err"),
                             (hypergraph, "normalized_operator")):
            def spy(first, *rest, orig=getattr(module, attr),
                    log=firsts.setdefault(attr, [])):
                log.append(first)
                return orig(first, *rest)
            monkeypatch.setattr(module, attr, spy)
        assert oracles._step_err(method, 0) <= 1e-4
        (params,), (analytic,) = firsts["_batch_step"], firsts["rel_err"]
        assert analytic.shape == (params.layout.size,)
        # the oracle's frozen operator, only with the UE block
        assert len(firsts["normalized_operator"]) == METHODS[method][0]

    @pytest.mark.parametrize("case", STEP_MUTANTS)
    def test_mutants_fail_on_every_method(self, monkeypatch, case):
        _, module, attr, wrong = BROKEN[case]
        monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
        for method in METHODS:
            assert oracles._step_err(method, 0) > 1e-4, method


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

    @pytest.mark.parametrize("axis,a,b", [("seed", "1", "1"),
                                          ("lambda2", "1", "1.0")])
    def test_an_axis_value_twice_is_rejected(self, tmp_path, capsys, axis,
                                             a, b):
        """Two values that give one config would run it twice into one
        directory and summarize it as two seeds."""
        out = tmp_path / "sw"
        assert cli.main(self._sweep(out, f"{axis}=[{a}, {b}]")) == 1
        assert capsys.readouterr().err == (
            f"error: {axis}: the values {a} and {b} give the same config\n")
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


def fake_cpus(monkeypatch, n, blas="1"):
    """Make CPUs 0..n-1 usable as far as the program can tell, with BLAS on
    `blas` threads (its default, every CPU, when None). A process pins
    itself to a subset with os.sched_setaffinity, and a forked process
    inherits the pin. Returns a one-item list that holds this process's
    CPU set."""
    mask = [set(range(n))]

    def setaffinity(pid, cpus):
        cpus = set(cpus)
        if pid != 0 or not cpus or not cpus <= set(range(n)):
            raise OSError(22, "Invalid argument")
        mask[0] = cpus

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask[0]))
    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    return mask


def log_cells(monkeypatch, log_dir):
    """Record, for every cell a sweep starts, the process that runs it, its
    CPUs and its round-worker count, in log_dir/<cell directory name>."""
    orig = federation.run_experiment
    log_dir.mkdir(parents=True)

    def spy(cfg, out_dir=None):
        (log_dir / os.path.basename(out_dir)).write_text(json.dumps(
            {"pid": os.getpid(), "cpus": sorted(os.sched_getaffinity(0)),
             "workers": federation.worker_count(cfg)}))
        return orig(cfg, out_dir=out_dir)

    monkeypatch.setattr(federation, "run_experiment", spy)

    def read():
        return {p.name: json.loads(p.read_text()) for p in log_dir.iterdir()}
    return read


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


# Six clients, three selected per round, refinement that fires on ue_ec
# (tests/test_federation.py PARALLEL at the SMALL sizes).
PARALLEL_SWEEP = [
    "classes=3", "feature_dim=6", "samples_per_class=30", "client_count=6",
    "batch_size=8", "backbone_dim=8", "compact_dim=6", "relational_dim=6",
    "estimator_hidden=6", "expr_dim=6", "neighbor_count=3",
    "ec_neighbor_count=3", "rounds=3", "participation=0.5",
    "noise_rate=0.3", "delta=0.2", "prop_lambda=0.5", "eta=0.6", "zeta=0.8",
    "separation=4.0", "spread=0.5", "learning_rate=0.3"]
# in cell order: the axes sorted by name, the last one fastest
CELLS = ["method=baseline,seed=5", "method=baseline,seed=6",
         "method=ue_ec,seed=5", "method=ue_ec,seed=6"]


class TestParallelSweep:
    def _sweep(self, out, *extra):
        args = ["sweep", "--out", str(out)]
        for item in PARALLEL_SWEEP + list(extra):
            args += ["--set", item]
        return args + ["--set", 'method=["baseline","ue_ec"]',
                       "--set", "seed=[5,6]"]

    def test_deal_round_robin(self, monkeypatch):
        cells = ["a", "b", "c", "d", "e"]
        for cpus, blas, want in [
            (2, "1", [([0], ["a", "c", "e"]), ([1], ["b", "d"])]),
            (3, "1", [([0], ["a", "d"]), ([1], ["b", "e"]), ([2], ["c"])]),
            (6, "1", [([0, 5], ["a"]), ([1], ["b"]), ([2], ["c"]),
                      ([3], ["d"]), ([4], ["e"])]),
            (4, "2", [([0, 2], ["a", "c", "e"]), ([1, 3], ["b", "d"])]),
            (5, "2", [([0, 2, 4], ["a", "c", "e"]), ([1, 3], ["b", "d"])]),
            (1, "1", [(None, cells)]),
            (4, None, [(None, cells)]),   # BLAS unpinned
            (4, "3", [(None, cells)]),
        ]:
            fake_cpus(monkeypatch, cpus, blas)
            assert cli.deal_cells(cells) == want, (cpus, blas)
        fake_cpus(monkeypatch, 3)
        assert cli.deal_cells(["a", "b"]) == [([0, 2], ["a"]), ([1], ["b"])]
        assert cli.deal_cells(["a"]) == [(None, ["a"])]

    def test_in_order_beside_other_threads(self, monkeypatch):
        fake_cpus(monkeypatch, 2)
        assert len(cli.deal_cells([1, 2])) == 2
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert cli.deal_cells([1, 2]) == [(None, [1, 2])]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
    def test_in_order_where_the_platform_lacks_it(self, monkeypatch, tmp_path,
                                                  missing):
        def no_fork():
            raise AssertionError("forked a worker")

        fake_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.delattr(os, missing)
        assert cli.deal_cells([1, 2]) == [(None, [1, 2])]
        assert cli.main(self._sweep(tmp_path / "out")) == 0

    def test_same_bytes_as_in_order(self, monkeypatch, tmp_path):
        """The whole output tree is the same bytes on any number of
        processes; each cell runs in the process and on the CPUs the deal
        gives it, and sizes its round workers from those CPUs."""
        trees, workers = {}, {}
        for cpus, blas, processes in [(1, "1", 1), (2, "1", 2), (3, "1", 3),
                                      (5, "1", 4), (3, None, 1)]:
            name = f"{cpus}-{blas}"
            mask = fake_cpus(monkeypatch, cpus, blas)
            read_log = log_cells(monkeypatch, tmp_path / "log" / name)
            assert cli.main(self._sweep(tmp_path / name)) == 0
            assert mask[0] == set(range(cpus))  # this process is unpinned
            trees[name] = tree_bytes(tmp_path / name)
            log = read_log()
            assert sorted(log) == CELLS
            main = [c for c in CELLS if log[c]["pid"] == os.getpid()]
            assert main == CELLS[::processes]
            assert len({log[c]["pid"] for c in CELLS}) == processes
            deal = cli.deal_cells(CELLS)
            for i, cell in enumerate(CELLS):
                share, _ = deal[i % processes]
                assert log[cell]["cpus"] == (share or list(range(cpus)))
            workers[name] = [log[c]["workers"] for c in CELLS]
        # a cell forks a round worker per CPU of its share beyond one, while
        # BLAS is pinned: with 5 CPUs, cell 0 runs on CPUs 0 and 4
        assert workers == {"1-1": [0] * 4, "2-1": [0] * 4, "3-1": [0] * 4,
                           "5-1": [1, 0, 0, 0], "3-None": [0] * 4}
        want = trees.pop("1-1")
        assert len(want) == 2 * len(CELLS) + 1
        with open(tmp_path / "1-1" / CELLS[2] / "metrics.csv",
                  newline="") as fh:  # refinement fired
            assert sum(int(r["relabel_count"] or 0)
                       for r in csv.DictReader(fh)) > 0
        for name, got in trees.items():
            assert got == want, name

    @pytest.mark.parametrize("case,cell,code,message", [
        ("csv mismatch", "feature_dim=4", 1,
         "error: feature_dim: config says 4, but a.csv has 5"),
        ("csv nan", "csv_path=b.csv", 1,
         "error: b.csv:3: non-finite feature 'nan'"),
        ("linear solve", "seed=1", 2, "runtime error: no solve for seed 1"),
        ("unpartitionable", "client_count=16", 1,
         "error: client_count=16, dirichlet_alpha=0.5: each of 10 "
         "Dirichlet(alpha=0.5) partitions of 30 samples over 16 clients "
         "left a client with fewer than 2"),
    ])
    def test_worker_error_exits_like_in_order(self, monkeypatch, tmp_path,
                                              capsys, case, cell, code,
                                              message):
        """A cell that fails in a cell worker fails the sweep with the
        error, and the exit code, of the same cell run in order."""
        monkeypatch.chdir(tmp_path)
        rows = ["label,f0,f1,f2,f3,f4"] + [
            ",".join([str(i % 3 + 1)] + [f"{(i * 7 + j) % 5 - 2.0}"
                                         for j in range(5)])
            for i in range(30)]
        (tmp_path / "a.csv").write_text("\n".join(rows) + "\n")
        rows[2] = rows[2].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "b.csv").write_text("\n".join(rows) + "\n")
        sets = [t for t in TINY if not t.startswith("feature_dim=")]
        sets += {"csv mismatch": ["csv_path=a.csv", "feature_dim=[5,4]"],
                 "csv nan": ['csv_path=["a.csv","b.csv"]', "feature_dim=5"],
                 "linear solve": ["seed=[0,1]", "feature_dim=6"],
                 "unpartitionable": ["client_count=[2,16]",
                                     "feature_dim=6"]}[case]
        orig = federation.local_train_epoch

        def epoch(client, dataset, server, cfg, rng):
            if cfg.seed == 1:
                raise numcore.LinearSolveError("no solve for seed 1")
            return orig(client, dataset, server, cfg, rng)

        monkeypatch.setattr(federation, "local_train_epoch", epoch)
        for cpus in (1, 2):
            fake_cpus(monkeypatch, cpus)
            read_log = log_cells(monkeypatch, tmp_path / f"log{cpus}")
            args = ["sweep", "--out", f"out{cpus}"]
            for item in sets:
                args += ["--set", item]
            assert cli.main(args) == code
            assert capsys.readouterr().err == message + "\n"
            # the second cell failed, in a cell worker on 2 CPUs
            log = read_log()
            assert len(log) == 2
            assert (log[cell]["pid"] == os.getpid()) == (cpus == 1)

    def test_keyboard_interrupt_kills_and_reaps_workers(self, monkeypatch,
                                                        tmp_path):
        parent = os.getpid()

        def epoch(*args, **kw):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # busy until killed

        monkeypatch.setattr(federation, "local_train_epoch", epoch)
        mask = fake_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli.main(self._sweep(tmp_path / "out"))
        assert time.monotonic() - start < 30
        assert mask[0] == {0, 1}

    def test_worker_that_dies_exits_2(self, monkeypatch, tmp_path, capsys):
        parent = os.getpid()
        orig = federation.local_train_epoch

        def epoch(*args, **kw):
            if os.getpid() != parent:
                os._exit(3)
            return orig(*args, **kw)

        monkeypatch.setattr(federation, "local_train_epoch", epoch)
        fake_cpus(monkeypatch, 2)
        assert cli.main(self._sweep(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: worker ") and "is gone" in err


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

    def test_byte_order_mark_runs_like_the_file_without(self, tmp_path):
        """A leading UTF-8 byte-order mark, as Excel writes one, is not
        part of the header."""
        args, path = self._args(tmp_path, "feature_dim=5", "classes=3")
        assert cli.main(args) == 0
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        args[args.index("--out") + 1] = str(tmp_path / "bom")
        assert cli.main(args) == 0
        for name in ("metrics.csv", "resolved_config.json"):
            assert ((tmp_path / "bom" / name).read_bytes()
                    == (tmp_path / "out" / name).read_bytes())

    @pytest.mark.parametrize("value,reason", [
        ("oops", "could not convert string to float: 'oops'"),
        ("nan", "non-finite feature 'nan'"),
        ("-inf", "non-finite feature '-inf'")])
    def test_malformed_csv_exits_1_naming_line(self, tmp_path, capsys, value,
                                               reason):
        args, path = self._args(tmp_path, "feature_dim=5", "classes=3")
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + f",{value}"
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(args) == 1
        assert capsys.readouterr().err == f"error: {path}:3: {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["directory", "missing", "not-utf8"])
    def test_unreadable_csv_exits_1_naming_file(self, tmp_path, capsys,
                                                case):
        args, path = self._args(tmp_path, "feature_dim=5", "classes=3")
        if case == "not-utf8":  # a 0xff byte at the end of line 3
            lines = path.read_bytes().split(b"\n")
            lines[2] += b"\xff"
            path.write_bytes(b"\n".join(lines))
            at = len(lines[0]) + len(lines[1]) + len(lines[2]) + 1
            reason = f"{path}:3: not UTF-8 text: byte {at} is 0xff"
        else:
            path.unlink()
            if case == "directory":
                path.mkdir()
                reason = f"{path}: Is a directory"
            else:
                reason = f"{path}: No such file or directory"
        assert cli.main(args) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_over_absolute_paths_writes_one_directory_per_cell(
            self, tmp_path):
        """Path separators in an axis value are escaped, so each cell is a
        directory directly under --out."""
        _, path = self._args(tmp_path)
        other = tmp_path / "data" / "emb 2.csv"
        other.parent.mkdir()
        other.write_text(path.read_text())
        out = tmp_path / "sw"
        args = ["sweep", "--out", str(out), "--set",
                f"csv_path={json.dumps([str(path), str(other)])}"]
        for item in TINY:
            if not item.startswith(("classes=", "feature_dim=")):
                args += ["--set", item]
        args += ["--set", "feature_dim=5", "--set", "classes=3"]
        assert cli.main(args) == 0
        cells = sorted(d for d in os.listdir(out) if (out / d).is_dir())
        assert cells == sorted(
            "csv_path=" + str(p).replace("%", "%25").replace(os.sep, "%2F")
            for p in (path, other))
        for d in cells:
            assert (out / d / "metrics.csv").exists()

    @pytest.mark.parametrize("combo,want", [
        ((("seed", 5),), "seed=5"),
        ((("method", "ue_ec"), ("seed", 5)), "method=ue_ec,seed=5"),
        ((("csv_path", "/a/b%c.csv"),), "csv_path=%2Fa%2Fb%25c.csv"),
    ])
    def test_combo_dirname(self, combo, want):
        assert cli._combo_dirname(combo) == want

class TestEmitSummary:
    def test_hand_mean_and_absent_cell(self, tmp_path):
        runs = [({"method": "baseline", "dirichlet_alpha": 0.5}, 0.4),
                ({"method": "baseline", "dirichlet_alpha": 0.5}, 0.6),
                ({"method": "ue", "dirichlet_alpha": 5.0}, 0.9)]
        out = tmp_path / "summary.csv"
        cli.emit_summary(runs, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "method,alpha=0.5,alpha=5"
        assert lines[1] == "baseline,0.5000+-0.1000,absent"
        assert lines[2] == "ue,absent,0.9000"

    # %g writes alpha=0.1 for both close alphas, and alpha=1.23457e+06
    @pytest.mark.parametrize("alphas, header", [
        ((0.1, 0.1000001), "method,alpha=0.1,alpha=0.1000001"),
        ((5.0, 1234567.0), "method,alpha=5,alpha=1234567.0")],
        ids=["close", "large"])
    def test_alpha_header_reads_back_as_the_alpha(self, tmp_path, alphas,
                                                  header):
        runs = [({"method": "ue", "dirichlet_alpha": a}, 0.5) for a in alphas]
        out = tmp_path / "summary.csv"
        cli.emit_summary(runs, out)
        assert out.read_text().splitlines()[0] == header


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

    def test_byte_order_mark_writes_the_same_long_file(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text("round,client_id,split,accuracy\n0,0,test,0.5\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, bom):
            assert cli.main(["export-plot", "--metrics", str(path), "--out",
                             str(tmp_path / f"long-{path.name}")]) == 0
        want = (tmp_path / "long-plain.csv").read_bytes()
        assert want.startswith(b"round,client_id,split,metric,value")
        assert (tmp_path / "long-bom.csv").read_bytes() == want

    @pytest.mark.parametrize("case", ["directory", "not-utf8"])
    def test_unreadable_metrics_exits_1_naming_file(self, tmp_path, capsys,
                                                    case):
        path = tmp_path / "metrics.csv"
        if case == "directory":
            path.mkdir()
            reason = f"{path}: Is a directory"
        else:
            path.write_bytes(b"round,client_id,split,accuracy\n0,\xff\n")
            reason = f"{path}:2: not UTF-8 text: byte 33 is 0xff"
        assert cli.main(["export-plot", "--metrics", str(path), "--out",
                         str(tmp_path / "long.csv")]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "long.csv").exists()

    @pytest.mark.parametrize("text,reason", [
        ("client_id,split,accuracy\n0,test,0.5\n",
         "the header has no 'round' column"),
        ("", "the header has no 'round' column"),
        ("round,client_id,split,accuracy\n0,0,test,0.5\n1,0,test\n",
         "3: expected 4 fields, got 3"),
        ("round,client_id,split,accuracy\n0,0,test,0.5,0.7\n",
         "2: expected 4 fields, got 5")],
        ids=["no-round", "empty", "short-row", "long-row"])
    def test_malformed_metrics_exits_1_before_out(self, tmp_path, capsys,
                                                  text, reason):
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        sep = ":" if reason[0].isdigit() else ": "
        assert cli.main(["export-plot", "--metrics", str(path), "--out",
                         str(tmp_path / "long.csv")]) == 1
        assert capsys.readouterr().err == f"error: {path}{sep}{reason}\n"
        assert not (tmp_path / "long.csv").exists()

    @pytest.mark.parametrize("case", ["directory", "under-a-file"])
    def test_unusable_out_exits_1_naming_it(self, tmp_path, capsys, case):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("round,client_id,split,accuracy\n0,0,test,0.5\n")
        if case == "directory":
            out, reason = tmp_path, "Is a directory"
        else:
            out, reason = metrics / "long.csv", "Not a directory"
        assert cli.main(["export-plot", "--metrics", str(metrics), "--out",
                         str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out}: {reason}\n"
