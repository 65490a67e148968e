"""Tests of the benchmark's output checks: each passes a real job's outputs
and rejects a corrupted copy of them.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
from overparam import cli, network  # noqa: E402

TINY = {"n": 8, "d": 4, "mu": 0.5, "phi": 0.05, "L": 2, "m": 256,
        "loss": "logistic", "eta": 0.02, "K": 400, "tau": 5.0,
        "spectral_tol": 1e-3, "trials": 2, "probes": 4, "gradient_probes": 2,
        "mc_samples": 2000, "seed": 0}


def _run(tmp: Path, config: dict, *args) -> Path:
    tmp.mkdir(parents=True, exist_ok=True)
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    out = tmp / "out"
    assert cli.main(list(args) + ["--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("train"), TINY, "train")


@pytest.fixture(scope="module")
def verified(tmp_path_factory, trained):
    out = _run(tmp_path_factory.mktemp("verify"), TINY, "verify",
               "--checkpoint", str(trained / "checkpoint.net"))
    return out, trained / "checkpoint.net"


def _copy(src: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(src, tmp_path / "copy"))


def test_reference_regenerates_program_data_and_weights():
    config = dict(TINY, n=12, m=30)
    x, y = ref.dataset(config, 3)
    ds = cli._dataset_from_config(dict(cli.DEFAULT_CONFIG, **dict(config, seed=3)))
    assert np.array_equal(x, ds.inputs) and np.array_equal(y, ds.labels)
    params = network.init_network(ref.layer_dims(config), 3 + ref.INIT_SEED_OFFSET)
    for w, w_prog in zip(ref.init_weights(ref.layer_dims(config), 3), params.weights):
        assert np.array_equal(w, w_prog)


def test_train_outputs_pass(trained):
    assert checks.check_train(trained, TINY, 0, full_batch=True) == []


def test_checkpoint_with_one_weight_changed_is_rejected(trained, tmp_path):
    out = _copy(trained, tmp_path)
    blob = bytearray((out / "checkpoint.net").read_bytes())
    header_end = blob.index(b"\n", blob.index(b"\n") + 1) + 1
    value = np.frombuffer(bytes(blob[header_end:header_end + 8]), dtype="<f8")[0]
    blob[header_end:header_end + 8] = np.array([value + 0.5], dtype="<f8").tobytes()
    (out / "checkpoint.net").write_bytes(bytes(blob))
    assert checks.check_train(out, TINY, 0, full_batch=True)


def test_edited_radius_is_rejected(trained, tmp_path):
    out = _copy(trained, tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    summary["final_radii"][0] *= 1.0001
    (out / "summary.json").write_text(json.dumps(summary))
    messages = checks.check_train(out, TINY, 0, full_batch=True)
    assert any("radius" in m for m in messages)


def test_verify_outputs_pass(verified):
    out, checkpoint = verified
    assert checks.check_verify(out, TINY, 0, checkpoint) == []


def test_lemma_row_outside_four_stderr_is_rejected(verified, tmp_path):
    out, checkpoint = verified
    out = _copy(out, tmp_path)
    oracles = json.loads((out / "lemma_oracles.json").read_text())
    row = oracles["relu_kernel"]["monte_carlo"][2]
    row["estimate"] = ref.relu_kernel(row["rho"]) + 4.5 * row["stderr"]
    (out / "lemma_oracles.json").write_text(json.dumps(oracles))
    messages = checks.check_verify(out, TINY, 0, checkpoint)
    assert len(messages) == 1 and "Monte-Carlo" in messages[0]


def _write_sweep(out: Path, radii: list) -> None:
    out.mkdir()
    with open(out / "sweep.csv", "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "iterations", "iterations_to_zero_error",
                         "final_loss", "max_radius", "stop_reason", "status", "error"])
        for m, r in zip((125, 250, 500), radii):
            writer.writerow(["m", f"{m}.0", 30, 30, 0.3, r, "zero_error", "ok", ""])


def test_decreasing_sweep_passes(tmp_path):
    _write_sweep(tmp_path / "s", [0.25, 0.15, 0.12])
    fails = checks.check_sweep(tmp_path / "s", (125, 250, 500))
    assert fails == {125: [], 250: [], 500: []}


def test_sweep_whose_radii_do_not_decrease_is_rejected(tmp_path):
    _write_sweep(tmp_path / "s", [0.25, 0.15, 0.15])
    fails = checks.check_sweep(tmp_path / "s", (125, 250, 500))
    assert not fails[250] and fails[500]
