"""Command-line entry point: gen-data | train | verify | sweep.

Every command is a pure function of (config file, seed): rerunning with the
same inputs reproduces byte-identical artifacts.  Exit codes: 0 success,
2 configuration or feasibility error, or a checkpoint from another run (its
header's provenance differs from the config's), 3 numerical failure: a
diverged run, a checkpoint whose weights are not finite, or a spectral solve
that does not converge.  A checkpoint with finite weights whose measurements
overflow is measured: `verify` exits 0, and the entries that overflowed read
inf, or NaN where both sides of a ratio did, and fail.

`CONFIG_TABLE` gives every config key its type, default, null rule and
range; `--init-config` writes its defaults.  `load_config` checks each key
of the config file and `--seed` against it before anything is written, and
exits 2 with a message that starts with the key.  Integer keys take JSON
integers or integral floats (``1e3``), float keys take finite numbers, and a
bool is never a number.  Only the keys whose default is documented as null
(eta, B, beta, s, verify_items) may be null.  `sweep --values` go through the
same check.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import linalg, network, optim, verify
from .losses import BUILTIN_LOSSES, builtin_loss

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SWEEP_AXES = ("m", "phi", "n", "L", "B")

# the columns of sweep.csv, in order
SWEEP_COLUMNS = ("axis", "value", "iterations", "iterations_to_zero_error",
                 "final_loss", "max_radius", "stop_reason", "status", "error")

# Seed roles are derived from the single config seed by fixed offsets.
DATA_SEED_OFFSET = 0
INIT_SEED_OFFSET = 1
TRAIN_SEED_OFFSET = 2


def _at_least(low):
    return (lambda v: v >= low), f"at least {low}"


def _above(low):
    return (lambda v: v > low), f"above {low}"


def _from_up_to(low, high):
    return (lambda v: low <= v < high), f"in [{low}, {high})"


def _inside(low, high):
    return (lambda v: low < v < high), f"in ({low}, {high})"


def _one_of(choices):
    return (lambda v: v in choices), f"one of {list(choices)}"


_ITEMS = ((lambda v: len(v) > 0 and all(i in verify.INIT_ITEMS for i in v)
           and len(set(v)) == len(v)),
          f"a non-empty list of distinct items from {list(verify.INIT_ITEMS)}")

# key: (type, default, may be null, (test, wording) of the range or choices).
# Checks that tie keys together (phi's cap for mu, B <= n, s <= m) stay
# with the domain code.
CONFIG_TABLE = {
    # dataset
    "n": (int, 20, False, _at_least(2)),
    "d": (int, 10, False, _at_least(3)),
    "mu": (float, 0.5, False, _inside(0, 1)),
    "phi": (float, 0.1, False, _above(0)),
    # network: dims = [d] + [m] * L
    "L": (int, 3, False, _at_least(1)),
    "m": (int, 1000, False, _at_least(1)),
    "loss": (str, "logistic", False, _one_of(tuple(BUILTIN_LOSSES))),
    # training
    "eta": (float, None, True, _at_least(0)),
    "eta_scale": (float, optim.DEFAULT_ETA_SCALE, False, _above(0)),
    "K": (int, 5000, False, _at_least(0)),
    "B": (int, None, True, _at_least(1)),
    "epsilon": (float, 1e-4, False, _above(0)),
    "tau": (float, 0.1, False, _above(0)),
    # verification
    "beta": (float, None, True, _at_least(0)),
    "s": (int, None, True, _at_least(1)),
    "trials": (int, 20, False, _at_least(1)),
    "delta": (float, 0.05, False, _inside(0, 1)),
    "allowed_failures": (int, 1, False, _at_least(0)),
    "probes": (int, 64, False, _at_least(1)),
    "gradient_probes": (int, 8, False, _at_least(1)),
    # a Lanczos residual below about 1e-15 is reached only through roundoff;
    # the floor keeps whether a job converges off the last bits of its GEMMs.
    # A residual r brackets an eigenvalue in [theta (1 - r), theta (1 + r)],
    # which certifies nothing from r = 1 on.
    "spectral_tol": (float, 1e-3, False, _from_up_to(1e-12, 1)),
    "verify_items": (list, None, True, _ITEMS),
    "mc_samples": (int, 100000, False, _at_least(1000)),
    # seeding
    "seed": (int, 0, False, _at_least(0)),
}
DEFAULT_CONFIG = {key: spec[1] for key, spec in CONFIG_TABLE.items()}
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a list"}


class ConfigError(ValueError):
    pass


def _typed(key: str, value):
    """`value` as `key`'s type from `CONFIG_TABLE`, or a ConfigError naming it."""
    kind, _, nullable, rule = CONFIG_TABLE[key]
    if value is None and nullable:
        return None
    if kind in (int, float):  # bool is not in (int, float), and nan fails <=
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max \
            and (kind is float or value == int(value))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    value = kind(value)
    if not rule[0](value):
        raise ConfigError(f"{key} must be {rule[1]}, got {value!r}")
    return value


def load_config(path: str | None, seed_override: int | None) -> dict:
    user = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError("the config file must hold a JSON object")
        unknown = set(user) - set(CONFIG_TABLE)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if seed_override is not None:
        user["seed"] = seed_override
    return dict(DEFAULT_CONFIG, **{k: _typed(k, v) for k, v in user.items()})


def write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _instance(config: dict) -> tuple:
    """(dataset, loss, provenance) of the run `config` describes.  The
    provenance dict is a checkpoint's header, which `verify` compares: the
    layer_dims, the seeds, the data and the loss, but not the training
    schedule (eta, K, B, tau).  data_sha256 hashes the little-endian C-order
    float64 inputs and labels."""
    data_seed = config["seed"] + DATA_SEED_OFFSET
    dataset = data_mod.generate_separated(
        n=config["n"], d=config["d"], mu=config["mu"], phi=config["phi"],
        seed=data_seed)
    # the output layer needs an even width for the half/half sign vector;
    # an odd configured width is bumped by one on the last layer only
    dims = [config["d"]] + [config["m"]] * config["L"]
    dims[-1] += dims[-1] % 2
    loss = builtin_loss(config["loss"])
    data = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for a in (dataset.inputs, dataset.labels))
    return dataset, loss, {
        "layer_dims": dims, "init_seed": config["seed"] + INIT_SEED_OFFSET,
        "data_seed": data_seed, "n": config["n"], "d": config["d"],
        "mu": config["mu"], "phi": config["phi"], "loss": loss.name,
        "data_sha256": hashlib.sha256(data).hexdigest()}


def _dataset_from_config(config: dict) -> data_mod.Dataset:
    # perfbench/test_perfbench_checks.py reads the program's dataset by this name
    return _instance(config)[0]


def cmd_gen_data(config: dict, out_dir: Path) -> int:
    dataset = _instance(config)[0]
    data_mod.save_dataset(dataset, out_dir / "dataset.csv")
    report = data_mod.validate_dataset(dataset)
    write_json(report.as_dict(), out_dir / "margin.json")
    print(f"wrote {out_dir / 'dataset.csv'} "
          f"(n={dataset.n}, margin={report.min_cross_class_distance:.4g}, "
          f"passed={report.passed})")
    return EXIT_OK


def train_once(config: dict, out_dir: Path) -> dict:
    """Run one training job into `out_dir` and return its summary dict."""
    dataset, loss, provenance = _instance(config)
    params0 = network.init_network(provenance["layer_dims"], provenance["init_seed"])
    train_config = optim.TrainConfig(
        max_iters=config["K"], eta=config["eta"], eta_scale=config["eta_scale"],
        batch_size=config["B"], target_loss=config["epsilon"], tau=config["tau"],
        seed=config["seed"] + TRAIN_SEED_OFFSET)
    run = optim.run_gd if train_config.batch_size is None else optim.run_sgd
    final, record = run(params0, dataset, loss, train_config)
    optim.write_trajectory_csv(record, out_dir / "trajectory.csv")
    summary = dict(record.summary(), loss=loss.name, seed=config["seed"],
                   layer_dims=provenance["layer_dims"])
    write_json(summary, out_dir / "summary.json")
    network.save_params(final, out_dir / "checkpoint.net", provenance)
    return summary


def cmd_train(config: dict, out_dir: Path) -> int:
    summary = train_once(config, out_dir)
    print(f"stop_reason={summary['stop_reason']} "
          f"iterations={summary['iterations']} "
          f"final_loss={summary['final_loss']:.6g} "
          f"final_misclassified={summary['final_misclassified']}")
    if summary["stop_reason"] == "diverged":
        what = "a gradient norm" if math.isfinite(summary["final_loss"]) else "the loss"
        print(f"training diverged at iteration {summary['iterations']}: "
              f"{what} is not finite", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_verify(config: dict, out_dir: Path, checkpoint: str | None) -> int:
    dataset, loss, provenance = _instance(config)
    init_seed = provenance["init_seed"]
    if checkpoint is not None:
        # the perturbation battery measures the checkpoint against this
        # config's initialisation, data and loss, so it must come from this
        # run.  Only the header is read here, so that a bad checkpoint fails
        # before the init battery runs without its weights held through it.
        header = network.checkpoint_header(checkpoint)
        differ = [k for k in sorted(header.keys() | provenance.keys())
                  if header.get(k, "missing") != provenance.get(k, "missing")]
        if differ:
            print(f"checkpoint {checkpoint} is from another run: " + "; ".join(
                f"{k} {header.get(k, 'missing')} there, {provenance.get(k, 'missing')}"
                f" here" for k in differ), file=sys.stderr)
            return EXIT_CONFIG

    params0 = network.init_network(provenance["layer_dims"], init_seed)
    report = verify.verify_init_properties(
        params0, dataset, beta=config["beta"], sparsity_s=config["s"],
        trials=config["trials"], seed=init_seed,
        allowed_failures=config["allowed_failures"], delta=config["delta"],
        spectral_tol=config["spectral_tol"], probes=config["probes"],
        gradient_probes=config["gradient_probes"], items=config["verify_items"],
    )
    write_json(report.as_dict(), out_dir / "init_properties.json")
    write_json(verify.lemma_oracles(config["seed"], config["mc_samples"], loss),
               out_dir / "lemma_oracles.json")
    print(f"init battery: passed={report.passed} "
          f"({len(report.entries)} properties, {config['trials']} trials)")

    if checkpoint is not None:
        trained = network.load_params(checkpoint)
        # the init battery and the oracles above do not read the checkpoint
        if not all(np.isfinite(w).all() for w in trained.weights):
            print(f"checkpoint {checkpoint} holds weights that are not finite; "
                  f"the perturbation battery cannot measure it", file=sys.stderr)
            return EXIT_NUMERIC
        pert = verify.verify_perturbation_properties(
            params0, trained, dataset, loss=loss,
            declared_tau=config["tau"], spectral_tol=config["spectral_tol"],
            seed=init_seed,
        )
        write_json(pert.as_dict(), out_dir / "perturbation_properties.json")
        print(f"perturbation battery: passed={pert.passed} "
              f"(measured tau {pert.meta['measured_tau']:.4g})")
    return EXIT_OK


def _sweep_row(axis: str, value: float, run_config: dict, run_dir: Path) -> dict:
    run_dir.mkdir(exist_ok=True)
    row = dict(dict.fromkeys(SWEEP_COLUMNS, ""), axis=axis, value=value,
               status="ok")
    try:
        summary = train_once(run_config, run_dir)
    except Exception as exc:  # sub-run failures become rows, the sweep survives
        row["status"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    first_zero = summary["first_zero_error_iteration"]
    row.update({
        "iterations": summary["iterations"],
        "iterations_to_zero_error": "" if first_zero is None else first_zero,
        "final_loss": f"{summary['final_loss']:.17g}",
        "max_radius": f"{max(summary['final_radii'], default=float('nan')):.17g}",
        "stop_reason": summary["stop_reason"],
    })
    return row


def _sweep_settings(axis: str, text: str) -> list:
    """The (value, setting) pairs of `--values`, each checked as `axis`."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{axis} --values must be comma-separated numbers, "
                          f"got {text!r}") from None
    settings = [_typed(axis, value) for value in values]
    if not settings or len(set(settings)) < len(settings):
        raise ConfigError(f"{axis} --values must give distinct settings, got {text!r}")
    return list(zip(values, settings))


def cmd_sweep(config: dict, out_dir: Path, axis: str, settings: list) -> int:
    rows = [_sweep_row(axis, value, dict(config, **{axis: setting}),
                       out_dir / f"run_{axis}_{setting}")
            for value, setting in settings]
    rows.sort(key=lambda r: r["value"])
    with open(out_dir / "sweep.csv", "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows([row[c] for c in SWEEP_COLUMNS] for row in rows)
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep over {axis}: {len(rows)} runs, {failures} failures "
          f"-> {out_dir / 'sweep.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overparam",
        description="Deep ReLU network training and verification experiments.")
    parser.add_argument("--init-config", metavar="PATH",
                        help="write a full-default config scaffold and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", metavar="DIR", required=True,
                       help="output directory (created if missing)")

    common(sub.add_parser("gen-data", help="generate and validate a dataset"))
    common(sub.add_parser("train", help="train with GD (B unset) or SGD"))
    p_verify = sub.add_parser("verify", help="run the property batteries")
    common(p_verify)
    p_verify.add_argument("--checkpoint", metavar="PATH",
                          help="trained checkpoint for perturbation checks")
    p_sweep = sub.add_parser("sweep", help="one train run per axis value")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if not (args.init_config or args.command):
        parser.print_help()
        return EXIT_CONFIG

    # an output path that cannot be written is a config error too
    try:
        if args.init_config:
            write_json(DEFAULT_CONFIG, Path(args.init_config))
            print(f"wrote default config to {args.init_config}")
            return EXIT_OK
        config = load_config(args.config, args.seed)
        if args.command == "sweep":
            settings = _sweep_settings(args.axis, args.values)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # JSONDecodeError and ConfigError too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "gen-data":
            return cmd_gen_data(config, out_dir)
        if args.command == "train":
            return cmd_train(config, out_dir)
        if args.command == "verify":
            checkpoint = args.checkpoint
            if checkpoint is not None and not os.path.exists(checkpoint):
                print(f"checkpoint not found: {checkpoint}", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_verify(config, out_dir, checkpoint)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, args.axis, settings)
    except network.CorruptCheckpointError as exc:
        print(f"corrupt checkpoint: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # a LinAlgError (a dense eigen- or singular-value solve that does not
    # converge) is a ValueError too
    except (linalg.SpectralNormError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, data_mod.DataGenerationError) as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
