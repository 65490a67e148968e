import json

import pytest

from overparam.cli import DEFAULT_CONFIG, main
from overparam.network import init_network, save_params

TINY = {
    "n": 8, "d": 4, "mu": 0.5, "phi": 0.05,
    "L": 2, "m": 16,
    "eta": 0.02, "K": 40, "epsilon": 1e-6, "tau": 5.0,
    "trials": 2, "probes": 4, "gradient_probes": 2, "mc_samples": 2000,
    "seed": 0,
}


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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"learning_rate": 3.0})
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


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

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"eta": 1e7, "loss": "exponential",
                                      "tau": 1e12, "K": 200})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "diverged"

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

    @pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + bytes(8)],
                             ids=["truncated", "trailing_bytes"])
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
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        # n=2 is fine, n=1 violates the generator precondition
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", "n", "--values", "1,8"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        statuses = [line.split(",")[7] for line in lines[1:]]
        assert statuses.count("error") == 1
        assert statuses.count("ok") == 1

    def test_bad_axis_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                  "--axis", "width", "--values", "4"])
