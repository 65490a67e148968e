import csv
import functools
import itertools
import json
import logging
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overparam import linalg
from overparam.cli import CONFIG_TABLE, DEFAULT_CONFIG, ConfigError, load_config, main
from overparam.data import generate_separated
from overparam.network import init_network, load_params, save_params
from overparam.verify import INIT_ITEMS

TINY = {
    "n": 8, "d": 4, "mu": 0.5, "phi": 0.05,
    "L": 2, "m": 16,
    "eta": 0.02, "K": 40, "epsilon": 1e-6, "tau": 5.0,
    "trials": 2, "probes": 4, "gradient_probes": 2, "mc_samples": 2000,
    "seed": 0,
}


# the settings of the eta x loss x m x L grid of TestVerify
GRID_BASE = {"n": 6, "d": 4, "mu": 0.5, "phi": 0.05, "K": 20, "trials": 2,
             "mc_samples": 1000, "probes": 4, "gradient_probes": 2}


def write_config(tmp_path, overrides=None, name="config.json"):
    config = dict(TINY)
    if overrides:
        config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


class TestInitConfig:
    def test_scaffold_round_trips(self, tmp_path):
        path = tmp_path / "defaults.json"
        assert main(["--init-config", str(path)]) == 0
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(DEFAULT_CONFIG))

    def test_no_command_prints_help(self):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["--init-config", "{tmp}"],                      # a directory
        ["--init-config", "{tmp}/missing/config.json"],  # under no directory
        ["train", "--config", "{tmp}/config.json",       # an existing file
         "--out", "{tmp}/config.json"],
    ])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        write_config(tmp_path)
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err


class TestGenData:
    def test_writes_dataset_and_margin(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "dataset.csv").exists()
        margin = json.loads((out / "margin.json").read_text())
        assert margin["passed"] is True
        assert margin["n"] == 8

    def test_infeasible_margin_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"phi": 1.9, "mu": 0.5})
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["gen-data", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "dataset.csv").read_bytes() == \
            (out_b / "dataset.csv").read_bytes()
        assert (out_a / "margin.json").read_bytes() == \
            (out_b / "margin.json").read_bytes()

    # batch_mode and record_patterns were config keys once, and a scaffold
    # written then still carries them
    @pytest.mark.parametrize("key, value", [("learning_rate", 3.0),
                                            ("batch_mode", "fresh"),
                                            ("record_patterns", True)])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {key: value})
        out = tmp_path / "o"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown config keys: ['{key}']" in err
        assert not out.exists() or not any(out.iterdir())


class TestTrain:
    def test_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] in ("max_iters", "zero_error", "target_loss")
        assert (out / "trajectory.csv").exists()
        assert (out / "checkpoint.net").exists()

    def test_stops_at_target_loss_immediately(self, tmp_path):
        cfg = write_config(tmp_path, {"epsilon": 10.0})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "target_loss"
        assert summary["iterations"] == 0

    def test_full_batch_sgd_matches_gd_files(self, tmp_path):
        cfg_gd = write_config(tmp_path, name="gd.json")
        cfg_sgd = write_config(tmp_path, {"B": 8}, name="sgd.json")
        out_gd, out_sgd = tmp_path / "gd", tmp_path / "sgd"
        assert main(["train", "--config", str(cfg_gd), "--out", str(out_gd)]) == 0
        assert main(["train", "--config", str(cfg_sgd), "--out", str(out_sgd)]) == 0
        assert (out_gd / "trajectory.csv").read_bytes() == \
            (out_sgd / "trajectory.csv").read_bytes()
        assert (out_gd / "checkpoint.net").read_bytes() == \
            (out_sgd / "checkpoint.net").read_bytes()

    # the warnings that an exact radius on every row gives at seed 0: a
    # layer is solved wherever its step-length bound exceeds tau, so the
    # cells left unsolved can hide none of them
    @pytest.mark.parametrize("config, lines", [
        ({"n": 20, "d": 10, "m": 200, "L": 3}, [
            "layer 1 left the tau=0.1 region at iteration 3 (radius 0.111766); "
            "2 recorded iterations over budget",
            "layer 2 left the tau=0.1 region at iteration 3 (radius 0.107095); "
            "2 recorded iterations over budget",
            "layer 3 left the tau=0.1 region at iteration 3 (radius 0.102094); "
            "2 recorded iterations over budget"]),
        ({"n": 32, "d": 10, "mu": 0.5, "phi": 0.1, "L": 3, "m": 125, "tau": 0.1}, [
            "layer 1 left the tau=0.1 region at iteration 18 (radius 0.10188); "
            "32 recorded iterations over budget",
            "layer 2 left the tau=0.1 region at iteration 14 (radius 0.103672); "
            "36 recorded iterations over budget",
            "layer 3 left the tau=0.1 region at iteration 9 (radius 0.101849); "
            "41 recorded iterations over budget"]),
        ({"n": 40, "d": 10, "mu": 0.5, "phi": 0.1, "L": 3, "m": 1000, "tau": 0.1},
         []),
        ({}, []),
    ], ids=["n20-m200", "n32-m125", "n40-m1000", "default"])
    def test_budget_warnings_are_pinned(self, tmp_path, caplog, config, lines):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        with caplog.at_level(logging.WARNING, logger="overparam.optim"):
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING] == lines
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "zero_error"
        assert summary["budget_warnings"] == sum(
            int(line.split("); ")[1].split()[0]) for line in lines)

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"eta": 1e7, "loss": "exponential",
                                      "tau": 1e12, "K": 200})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "diverged"
        assert (f"training diverged at iteration {summary['iterations']}: "
                "the loss is not finite") in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_overflow_exits_3_with_artifacts(self, tmp_path, capsys):
        # the exponential loss is still finite at the iterate whose gradient
        # overflows
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "n": 8, "d": 4, "m": 16, "L": 2, "phi": 0.05, "mu": 0.5,
            "loss": "exponential", "eta": 30, "K": 300, "tau": 0.001, "seed": 1}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "diverged"
        assert (f"training diverged at iteration {summary['iterations']}: "
                "a gradient norm is not finite") in capsys.readouterr().err
        assert summary["final_radii"] == []
        assert (out / "checkpoint.net").exists()
        with open(out / "trajectory.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert int(last["k"]) == summary["iterations"]
        assert last["loss"] != "nan" and last["loss"] != "inf"
        assert "nan" in [cell for name, cell in last.items()
                         if name.startswith(("grad_spec_", "grad_fro_"))]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_radius_solve_exits_3_with_artifacts(self, tmp_path):
        # one step of eta 1e150 puts radii near 1e149, whose A^T A products
        # overflow; the radius solve rescales instead of running to its cap
        eta = 1e150
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n": 8, "d": 4, "m": 16, "L": 2, "phi": 0.05,
                                   "mu": 0.5, "eta": eta, "K": 3, "tau": 0.1,
                                   "seed": 1}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == \
            ["checkpoint.net", "summary.json", "trajectory.csv"]
        assert json.loads((out / "summary.json").read_text())["stop_reason"] == "diverged"
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # W_1 - W_0 is eta times the gradient at W_0
        for layer in (1, 2):
            assert float(rows[1][f"radius_{layer}"]) == pytest.approx(
                eta * float(rows[0][f"grad_spec_{layer}"]), rel=1e-9)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--seed", "5",
                     "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg), "--seed", "6",
                     "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() != \
            (out_b / "trajectory.csv").read_bytes()


class TestVerify:
    def test_init_only(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "init_properties.json").exists()
        assert (out / "lemma_oracles.json").exists()
        assert not (out / "perturbation_properties.json").exists()
        oracles = json.loads((out / "lemma_oracles.json").read_text())
        assert oracles["subset_variance"]["equal"] is True
        assert oracles["relu_kernel"]["lower_bound_holds"] is True
        assert oracles["concavity"]["violations"] == 0
        assert all(row["within_4_stderr"]
                   for row in oracles["relu_kernel"]["monte_carlo"])

    def test_entry_failing_its_one_trial_fails(self, tmp_path):
        # one trial and the default allowed_failures of 1: the one failed
        # trial is every trial, so the entry and the battery fail
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n": 20, "d": 10, "m": 16, "L": 3, "trials": 1}))
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "init_properties.json").read_text())
        entry = next(e for e in report["entries"]
                     if e["name"] == "hidden_norm_deviation")
        assert entry["measured"] > entry["threshold"]
        assert (entry["failures"], entry["trials"], entry["passed"]) == (1, 1, False)
        assert report["passed"] is False

    def test_with_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(run / "checkpoint.net")]) == 0
        pert = json.loads((out / "perturbation_properties.json").read_text())
        assert pert["meta"]["measured_tau"] > 0

    @pytest.mark.parametrize("verify_args, checkpoint_overrides", [
        (["--seed", "7"], {}),          # trained from seed 0's network
        ([], {"m": 12}),                # trained at other layer dims
    ])
    def test_checkpoint_from_another_network_rejected(
            self, tmp_path, capsys, verify_args, checkpoint_overrides):
        quick = {"trials": 1, "verify_items": ["output_magnitude"]}
        cfg_train = write_config(tmp_path, checkpoint_overrides, name="train.json")
        cfg = write_config(tmp_path, quick)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_train), "--out", str(run)]) == 0
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(run / "checkpoint.net")] + verify_args) == 2
        assert "trained from another network" in capsys.readouterr().err
        # the checkpoint is checked before the init battery runs
        assert not (out / "init_properties.json").exists()
        assert not (out / "perturbation_properties.json").exists()

    def test_checkpoint_without_seed_rejected(self, tmp_path, capsys):
        params = init_network([4, 16, 16], seed=1)
        params.seed = None
        path = tmp_path / "unseeded.net"
        save_params(params, path)
        cfg = write_config(tmp_path, {"trials": 1,
                                      "verify_items": ["output_magnitude"]})
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(path)]) == 2
        assert "records no init seed" in capsys.readouterr().err
        assert not (out / "perturbation_properties.json").exists()

    def test_checkpoint_with_dead_layer(self, tmp_path):
        # W_2 = 0 leaves no active unit past layer 1, so every masked chain
        # is the zero operator; the wide chain (2, 3) takes the Lanczos path
        cfg = write_config(tmp_path, {"L": 3, "m": 24, "trials": 1,
                                      "verify_items": ["output_magnitude"]})
        params = init_network([4, 24, 24, 24], seed=1)
        params.weights[1][:] = 0.0
        path = tmp_path / "dead.net"
        save_params(params, path)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(path)]) == 0
        pert = json.loads((out / "perturbation_properties.json").read_text())
        chain = next(e for e in pert["entries"] if e["name"] == "perturbed_chain_norm")
        assert chain["per_trial"] == [0.0]

    @pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + bytes(8),
                                      lambda b: b"garbage\n"],
                             ids=["truncated", "trailing_bytes", "no_magic"])
    def test_corrupt_checkpoint_rejected(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        path = run / "checkpoint.net"
        path.write_bytes(edit(path.read_bytes()))
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(path)]) == 2
        assert "corrupt checkpoint" in capsys.readouterr().err
        assert not (out / "init_properties.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("delta", 0),
        ("probes", 0),
        ("gradient_probes", 0),
        ("allowed_failures", -1),
        ("verify_items", "output_magnitude"),
    ])
    def test_bad_battery_argument_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"n": 6, "m": 40, "trials": 1, key: value})
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key.removeprefix('verify_')} must" in err
        assert "Traceback" not in err
        assert not (out / "init_properties.json").exists()

    def test_checkpoint_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path}: cannot be read" in err
        assert "Traceback" not in err
        assert not (out / "init_properties.json").exists()

    def test_unconverged_solver_exits_3(self, tmp_path, capsys, monkeypatch):
        # d=20 puts chain (1, 2) on the Lanczos path; cut off after one
        # product, it cannot bring its residual to 1e-12
        monkeypatch.setattr(linalg, "_lanczos",
                            functools.partial(linalg._lanczos, max_iter=1))
        cfg = write_config(tmp_path, {
            "n": 4, "d": 20, "m": 24, "L": 2, "trials": 1,
            "spectral_tol": 1e-12, "mc_samples": 1000,
            "verify_items": ["chain_product_norm"]})
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Lanczos did not reach")
        assert not (out / "init_properties.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_checkpoint_fails_gradient_ratios(self, tmp_path):
        # the config of test_gradient_overflow_exits_3_with_artifacts, whose
        # checkpoint's gradient overflows
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "n": 8, "d": 4, "m": 16, "L": 2, "phi": 0.05, "mu": 0.5,
            "loss": "exponential", "eta": 30, "K": 300, "tau": 0.001, "seed": 1,
            "trials": 2, "mc_samples": 2000}))
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 3
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(run / "checkpoint.net")]) == 0
        pert = json.loads((out / "perturbation_properties.json").read_text())
        lower = next(e for e in pert["entries"] if e["name"] == "gradient_lower_ratio")
        assert not math.isfinite(lower["per_trial"][0])
        assert pert["passed"] is False

    def _train_and_verify(self, tmp_path, config):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        train_rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        verify_rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v"),
                          "--checkpoint", str(tmp_path / "run" / "checkpoint.net")])
        return train_rc, verify_rc

    def _entry(self, tmp_path, name):
        pert = json.loads((tmp_path / "v" / "perturbation_properties.json").read_text())
        return next(e for e in pert["entries"] if e["name"] == name)

    def test_nan_batch_fails_stochastic_ratio(self, tmp_path):
        # the exponential loss diverges in its gradient; a NaN batch ratio
        # is the entry's value, not skipped as a 0 that passes
        assert self._train_and_verify(tmp_path, {
            "n": 8, "d": 5, "m": 64, "L": 2, "loss": "exponential",
            "trials": 2, "mc_samples": 1000}) == (3, 0)
        entry = self._entry(tmp_path, "stochastic_gradient_upper_ratio")
        assert math.isnan(entry["per_trial"][0])
        assert entry["passed"] is False

    def test_zero_gradient_fails_lower_ratio(self, tmp_path):
        # training leaves every output and so every gradient cell at 0
        assert self._train_and_verify(tmp_path, dict(GRID_BASE, **{
            "loss": "logistic", "eta": 1e2, "m": 8, "L": 2})) == (0, 0)
        entry = self._entry(tmp_path, "gradient_lower_ratio")
        assert entry["per_trial"][0] == 0.0
        assert entry["passed"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_checkpoint_is_measured_and_fails(self, tmp_path, capsys):
        # finite weights near 1e298 overflow the thin chains: they read inf,
        # as the wide chains do, and the battery is written and fails
        assert self._train_and_verify(tmp_path, dict(GRID_BASE, **{
            "loss": "logistic", "eta": 1e150, "m": 8, "L": 2})) == (3, 0)
        err = capsys.readouterr().err
        assert "numerical failure" not in err
        assert "infeasible configuration" not in err
        pert = json.loads((tmp_path / "v" / "perturbation_properties.json").read_text())
        chain = self._entry(tmp_path, "perturbed_chain_norm")
        assert chain["per_trial"] == [math.inf]
        assert chain["passed"] is False
        assert pert["passed"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_radius_past_float_range_is_measured_and_fails(self, tmp_path):
        # finite weights up to 6.6e307 put the radius past the float range:
        # it reads inf and fails, and the entries it scales are still taken
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(GRID_BASE, m=32, L=2)))
        params = init_network([4, 32, 32], seed=1)
        params.weights[1] *= 1e308
        path = tmp_path / "huge.net"
        save_params(params, path)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(path)]) == 0
        radius = self._entry(tmp_path, "perturbation_radius")
        assert radius["per_trial"] == [math.inf]
        assert radius["passed"] is False
        for name in ("init_properties.json", "perturbation_properties.json"):
            for e in json.loads((out / name).read_text())["entries"]:
                assert not e["passed"] or all(map(math.isfinite, e["per_trial"])), e

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_checkpoint_exits_3(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, {"trials": 1, "verify_items": ["output_magnitude"]})
        params = init_network([4, 16, 16], seed=1)
        params.weights[1][2, 3] = bad
        path = tmp_path / "bad.net"
        save_params(params, path)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(path)]) == 3
        assert f"checkpoint {path} holds weights that are not finite" in \
            capsys.readouterr().err
        # the init battery does not read the checkpoint
        assert (out / "init_properties.json").exists()
        assert not (out / "perturbation_properties.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_passes_only_what_it_measured(self, tmp_path):
        # eta from harmless to overflowing at the first step, both losses,
        # two widths and three depths: each run exits as documented, verify
        # measures every checkpoint whose weights are finite, and no entry
        # passes on a non-finite value or a zero gradient lower ratio
        cases = itertools.product((1e-2, 1e2, 1e6, 1e150, 1e300),
                                  ("logistic", "exponential"), (8, 32), (1, 2, 3))
        for k, (eta, loss, m, depth) in enumerate(cases):
            case = tmp_path / str(k)
            case.mkdir()
            train_rc, verify_rc = self._train_and_verify(case, dict(
                GRID_BASE, eta=eta, loss=loss, m=m, L=depth))
            assert train_rc in (0, 3), (eta, loss, m, depth)
            assert all((case / "run" / f).exists()
                       for f in ("summary.json", "trajectory.csv", "checkpoint.net"))
            finite = all(np.isfinite(w).all() for w in
                         load_params(case / "run" / "checkpoint.net").weights)
            assert verify_rc == (0 if finite else 3), (eta, loss, m, depth)
            names = ["init_properties.json", "perturbation_properties.json"]
            assert [(case / "v" / name).exists() for name in names] == [True, finite]
            for name in names[:1 + finite]:
                for e in json.loads((case / "v" / name).read_text())["entries"]:
                    assert not e["passed"] or all(map(math.isfinite, e["per_trial"])), e
                    if e["name"] == "gradient_lower_ratio":
                        assert not e["passed"] or 0.0 not in e["per_trial"], e

    def test_missing_checkpoint_exit_code(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "v"), "--checkpoint",
                     str(tmp_path / "nope.net")]) == 2


class TestSweep:
    def test_two_value_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {"K": 25})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "m", "--values", "16,8"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("axis,value")
        assert len(lines) == 3
        # sorted ascending by value regardless of input order
        assert lines[1].split(",")[1] == "8.0"
        assert (out / "run_m_8" / "summary.json").exists()
        assert (out / "run_m_16" / "summary.json").exists()

    def test_single_value_sweep_matches_train(self, tmp_path):
        cfg = write_config(tmp_path)
        out_sweep = tmp_path / "sweep"
        out_train = tmp_path / "train"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_sweep),
                     "--axis", "m", "--values", "16"]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out_train)]) == 0
        assert (out_sweep / "run_m_16" / "trajectory.csv").read_bytes() == \
            (out_train / "trajectory.csv").read_bytes()

    def test_failed_subrun_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"mu": 0.5})
        out = tmp_path / "sweep"
        # the config table takes phi=1.9; the generator's slice-diameter cap
        # at mu=0.5 rejects it, with commas in its message
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "phi", "--values", "1.9,0.05"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert all(len(row) == 9 for row in rows)
        statuses = [row[7] for row in rows[1:]]
        assert statuses.count("error") == 1
        assert statuses.count("ok") == 1
        with pytest.raises(ValueError) as exc:
            generate_separated(n=8, d=4, mu=0.5, phi=1.9, seed=0)
        assert rows[2][8] == f"ValueError: {exc.value}"

    @pytest.mark.parametrize("axis, values", [
        ("n", "1,8"),           # n=1 fails the config table
        ("m", "32,32.7"),       # an integer axis takes no fraction
        ("m", "32,32.0"),       # two values, one setting
        ("m", "16,inf"),
        ("m", "32,abc"),        # not a number
    ])
    def test_bad_values_rejected_before_any_run(self, tmp_path, capsys,
                                                axis, values):
        cfg = write_config(tmp_path, {"K": 5})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", axis, "--values", values]) == 2
        err = capsys.readouterr().err
        assert f"config error: {axis} " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_close_values_get_their_own_runs(self, tmp_path):
        cfg = write_config(tmp_path, {"K": 5})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "phi", "--values", "0.05,0.050000001"]) == 0
        runs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert runs == ["run_phi_0.05", "run_phi_0.050000001"]
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_bad_axis_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                  "--axis", "width", "--values", "4"])


class TestConfigTable:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("train")
        cfg = write_config(tmp)
        assert main(["train", "--config", str(cfg), "--out", str(tmp / "run")]) == 0
        return str(tmp / "run" / "checkpoint.net")

    @pytest.mark.parametrize("command, key, raw, args", [
        ("verify", "spectral_tol", "1e-13", []),
        ("train", "K", "2.7", []),
        ("train", "m", "50.9", []),
        ("train", "n", '"8"', []),
        ("train", "seed", "true", []),
        ("train", "tau", "null", []),
        ("train", "seed", "-3", []),
        ("train", "seed", None, ["--seed", "-3"]),
        ("train", "n", "1e400", []),
        ("verify", "loss", '"hinge"', []),
        ("verify", "mc_samples", "10", []),
        ("verify", "spectral_tol", "0", []),
        ("verify", "tau", "-1.0", []),
        ("verify", "beta", "-1.0", []),
        ("verify", "verify_items", "[]", []),
        ("verify", "verify_items", '["output_magnitude", "output_magnitude"]', []),
        ("train", "eta_scale", "null", []),
        # a residual of 1 or more certifies nothing
        ("verify", "spectral_tol", "1", []),
        ("verify", "spectral_tol", "1.5", []),
    ])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, checkpoint,
                                             command, key, raw, args):
        # the raw JSON text goes in as written: json.dumps has no 1e400
        base = json.dumps({k: v for k, v in TINY.items() if k != key})
        cfg = tmp_path / "config.json"
        cfg.write_text(base if raw is None else f'{base[:-1]}, "{key}": {raw}}}')
        out = tmp_path / "out"
        if command == "verify":
            args = args + ["--checkpoint", checkpoint]
        assert main([command, "--config", str(cfg), "--out", str(out)] + args) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} " in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("text", ["5", "null", "[1]"])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text()
        | st.sampled_from(INIT_ITEMS),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=5)

    @settings(max_examples=400, deadline=None)
    @given(key=st.sampled_from(sorted(CONFIG_TABLE)), value=JSON_VALUES)
    def test_any_json_value_is_typed_or_names_its_key(self, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({key: value}))
            try:
                config = load_config(str(path), None)
            except ConfigError as exc:
                assert str(exc).startswith(f"{key} ")
                return
        for name, (kind, _, nullable, _) in CONFIG_TABLE.items():
            assert type(config[name]) is kind or (config[name] is None and nullable)

    # small numbers only, so that every accepted config runs in a moment
    SMALL_VALUES = (st.none() | st.booleans() | st.integers(-3, 40)
                    | st.floats(-2.0, 40.0) | st.sampled_from([float("nan"), float("inf")])
                    | st.text(max_size=4) | st.lists(st.integers(0, 3), max_size=2))

    @settings(max_examples=12, deadline=None)
    @given(key=st.sampled_from(["n", "d", "mu", "phi", "seed", "loss"]),
           value=SMALL_VALUES)
    def test_gen_data_exits_0_or_2(self, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps({"n": 8, "d": 4, key: value}))
            assert main(["gen-data", "--config", str(cfg),
                         "--out", str(Path(tmp) / "out")]) in (0, 2)
