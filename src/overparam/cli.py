"""Command-line entry point: gen-data | train | verify | sweep.

Every command is a pure function of (config file, seed): rerunning with the
same inputs reproduces byte-identical artifacts.  Exit codes: 0 success,
2 configuration or feasibility error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import network, optim, verify
from .losses import builtin_loss, check_loss_assumptions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SWEEP_AXES = ("m", "phi", "n", "L", "B")

# Seed roles are derived from the single config seed by fixed offsets.
DATA_SEED_OFFSET = 0
INIT_SEED_OFFSET = 1
TRAIN_SEED_OFFSET = 2

DEFAULT_CONFIG = {
    # dataset
    "n": 20,
    "d": 10,
    "mu": 0.5,
    "phi": 0.1,
    # network: dims = [d] + [m] * L
    "L": 3,
    "m": 1000,
    "loss": "logistic",
    # training
    "eta": None,
    "eta_scale": optim.DEFAULT_ETA_SCALE,
    "K": 5000,
    "B": None,
    "epsilon": 1e-4,
    "tau": 0.1,
    "batch_mode": "fresh",
    "record_patterns": True,
    # verification
    "beta": None,
    "s": None,
    "trials": 20,
    "delta": 0.05,
    "allowed_failures": 1,
    "probes": 64,
    "gradient_probes": 8,
    "spectral_tol": 1e-3,
    "verify_items": None,
    "mc_samples": 100000,
    # seeding
    "seed": 0,
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None, seed_override: int | None) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(user)
    if seed_override is not None:
        config["seed"] = seed_override
    return config


def write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _dataset_from_config(config: dict) -> data_mod.Dataset:
    return data_mod.generate_separated(
        n=int(config["n"]), d=int(config["d"]), mu=float(config["mu"]),
        phi=float(config["phi"]), seed=int(config["seed"]) + DATA_SEED_OFFSET)


def _dims_from_config(config: dict) -> list:
    # the output layer needs an even width for the half/half sign vector;
    # an odd configured width is bumped by one on the last layer only
    d, m, depth = int(config["d"]), int(config["m"]), int(config["L"])
    dims = [d] + [m] * depth
    if dims[-1] % 2 != 0:
        dims[-1] += 1
    return dims


def _train_config(config: dict) -> optim.TrainConfig:
    return optim.TrainConfig(
        max_iters=int(config["K"]),
        eta=None if config["eta"] is None else float(config["eta"]),
        eta_scale=None if config["eta_scale"] is None else float(config["eta_scale"]),
        batch_size=None if config["B"] is None else int(config["B"]),
        target_loss=float(config["epsilon"]),
        tau=float(config["tau"]),
        seed=int(config["seed"]) + TRAIN_SEED_OFFSET,
        record_patterns=bool(config["record_patterns"]),
        batch_mode=str(config["batch_mode"]),
    )


def cmd_gen_data(config: dict, out_dir: Path) -> int:
    dataset = _dataset_from_config(config)
    data_mod.save_dataset(dataset, out_dir / "dataset.csv")
    report = data_mod.validate_dataset(dataset)
    write_json(report.as_dict(), out_dir / "margin.json")
    print(f"wrote {out_dir / 'dataset.csv'} "
          f"(n={dataset.n}, margin={report.min_cross_class_distance:.4g}, "
          f"passed={report.passed})")
    return EXIT_OK


def train_once(config: dict, out_dir: Path) -> dict:
    """Run one training job into `out_dir` and return its summary dict."""
    dataset = _dataset_from_config(config)
    params0 = network.init_network(_dims_from_config(config),
                                   int(config["seed"]) + INIT_SEED_OFFSET)
    loss = builtin_loss(str(config["loss"]))
    train_config = _train_config(config)
    if train_config.batch_size is None:
        final, record = optim.run_gd(params0, dataset, loss, train_config)
    else:
        final, record = optim.run_sgd(params0, dataset, loss, train_config)
    optim.write_trajectory_csv(record, out_dir / "trajectory.csv")
    summary = record.summary()
    summary["loss"] = loss.name
    summary["layer_dims"] = [int(m) for m in params0.layer_dims]
    summary["seed"] = int(config["seed"])
    write_json(summary, out_dir / "summary.json")
    network.save_params(final, out_dir / "checkpoint.net")
    return summary


def cmd_train(config: dict, out_dir: Path) -> int:
    summary = train_once(config, out_dir)
    print(f"stop_reason={summary['stop_reason']} "
          f"iterations={summary['iterations']} "
          f"final_loss={summary['final_loss']:.6g} "
          f"final_misclassified={summary['final_misclassified']}")
    if summary["stop_reason"] == "diverged":
        print("training diverged; last finite rows preserved", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _lemma_oracles(config: dict) -> dict:
    grid = np.linspace(-1.0, 1.0, 1001)
    closed = verify.relu_kernel_closed_form(grid)
    kernel_margin = float(np.min(closed - grid / 2.0))
    mc_rows = []
    samples = int(config["mc_samples"])
    for i, rho in enumerate((-0.5, 0.0, 0.5, 0.9, 1.0)):
        estimate, stderr = verify.mc_relu_kernel(rho, samples,
                                                 seed=int(config["seed"]) + i)
        reference = verify.relu_kernel_closed_form(rho)
        mc_rows.append({
            "rho": rho, "estimate": estimate, "stderr": stderr,
            "closed_form": reference,
            "within_4_stderr": bool(abs(estimate - reference) <= 4.0 * stderr),
        })
    enum, formula = verify.subset_mean_variance(np.array([1.0, -1.0, 2.0, -2.0]), 2)
    rng = np.random.default_rng(int(config["seed"]))
    violations = 0
    draws = 10_000
    for _ in range(draws):
        a, b = np.exp(rng.uniform(-3, 3, size=2))
        p = rng.uniform(0.0, 1.0)
        if abs(p - 0.5) < 1e-3:
            p = 0.25
        if not verify.concavity_inequality_check(float(a), float(b), float(p)):
            violations += 1
    loss = builtin_loss(str(config["loss"]))
    assumptions = check_loss_assumptions(loss)
    return {
        "relu_kernel": {
            "grid_points": int(grid.size),
            "min_margin_vs_half_rho": kernel_margin,
            "lower_bound_holds": bool(kernel_margin >= -1e-12),
            "monte_carlo": mc_rows,
        },
        "subset_variance": {
            "case_u": [1.0, -1.0, 2.0, -2.0],
            "batch_size": 2,
            "enumeration": enum,
            "formula": formula,
            "equal": bool(abs(enum - formula) <= 1e-12),
        },
        "concavity": {"samples": draws, "violations": violations},
        "loss_assumptions": assumptions.as_dict(),
    }


def cmd_verify(config: dict, out_dir: Path, checkpoint: str | None) -> int:
    dims = _dims_from_config(config)
    init_seed = int(config["seed"]) + INIT_SEED_OFFSET
    if checkpoint is not None:
        # the perturbation battery compares the checkpoint with this config's
        # initialisation, which is only meaningful if it was trained from it.
        # Only the header is read here, so that a bad checkpoint fails before
        # the init battery runs without its weights held through that battery.
        trained_dims, trained_seed = network.checkpoint_header(checkpoint)
        if trained_seed is None:
            print(f"checkpoint {checkpoint} records no init seed; cannot check "
                  f"that it was trained from this config's network", file=sys.stderr)
            return EXIT_CONFIG
        if trained_seed != init_seed or list(trained_dims) != dims:
            print(f"checkpoint {checkpoint} was trained from another network: "
                  f"init seed {trained_seed}, layer_dims {list(trained_dims)}; "
                  f"this config initialises seed {init_seed}, layer_dims {dims}",
                  file=sys.stderr)
            return EXIT_CONFIG

    dataset = _dataset_from_config(config)
    params0 = network.init_network(dims, init_seed)
    items = config["verify_items"]
    report = verify.verify_init_properties(
        params0, dataset,
        beta=None if config["beta"] is None else float(config["beta"]),
        sparsity_s=None if config["s"] is None else int(config["s"]),
        trials=int(config["trials"]),
        seed=init_seed,
        allowed_failures=int(config["allowed_failures"]),
        delta=float(config["delta"]),
        spectral_tol=float(config["spectral_tol"]),
        probes=int(config["probes"]),
        gradient_probes=int(config["gradient_probes"]),
        items=items,
    )
    write_json(report.as_dict(), out_dir / "init_properties.json")
    write_json(_lemma_oracles(config), out_dir / "lemma_oracles.json")
    print(f"init battery: passed={report.passed} "
          f"({len(report.entries)} properties, {config['trials']} trials)")

    if checkpoint is not None:
        trained = network.load_params(checkpoint)
        loss = builtin_loss(str(config["loss"]))
        pert = verify.verify_perturbation_properties(
            params0, trained, params0, dataset, loss=loss,
            declared_tau=float(config["tau"]),
            spectral_tol=float(config["spectral_tol"]),
            probes=int(config["probes"]),
            seed=init_seed,
        )
        write_json(pert.as_dict(), out_dir / "perturbation_properties.json")
        print(f"perturbation battery: passed={pert.passed} "
              f"(measured tau {pert.meta['measured_tau']:.4g})")
    return EXIT_OK


def _sweep_value(config: dict, axis: str, value: float) -> dict:
    run = copy.deepcopy(config)
    if axis == "phi":
        run["phi"] = float(value)
    else:
        run[{"m": "m", "n": "n", "L": "L", "B": "B"}[axis]] = int(value)
    return run


def _sweep_worker(job) -> dict:
    axis, value, run_config, run_dir = job
    os.makedirs(run_dir, exist_ok=True)
    row = {"axis": axis, "value": value, "status": "ok", "error": "",
           "iterations": "", "iterations_to_zero_error": "", "final_loss": "",
           "max_radius": "", "stop_reason": ""}
    try:
        summary = train_once(run_config, Path(run_dir))
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


def cmd_sweep(config: dict, out_dir: Path, axis: str, values: list) -> int:
    jobs = []
    for value in values:
        run_config = _sweep_value(config, axis, value)
        tag = f"{value:g}" if axis == "phi" else f"{int(value)}"
        jobs.append((axis, value, run_config, str(out_dir / f"run_{axis}_{tag}")))

    workers = int(os.environ.get("OVERPARAM_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(job) for job in jobs]

    rows.sort(key=lambda r: r["value"])
    columns = ["axis", "value", "iterations", "iterations_to_zero_error",
               "final_loss", "max_radius", "stop_reason", "status", "error"]
    with open(out_dir / "sweep.csv", "w", encoding="ascii") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")
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

    if args.init_config:
        write_json(DEFAULT_CONFIG, Path(args.init_config))
        print(f"wrote default config to {args.init_config}")
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_CONFIG

    try:
        config = load_config(args.config, args.seed)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

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
            values = [float(v) for v in args.values.split(",") if v.strip()]
            if not values:
                print("empty --values", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_sweep(config, out_dir, args.axis, values)
    except network.CorruptCheckpointError as exc:
        print(f"corrupt checkpoint: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, data_mod.DataGenerationError) as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
