"""Correctness checks of one job's outputs.

Each check returns a list of failure messages; an empty list means the
outputs passed.  Expected values are recomputed by `reference` or follow
from properties the method must have; no stored copy of an earlier output
is used.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

LOSS_RTOL = 1e-9      # final_loss against the reference forward pass
RADIUS_RTOL = 1e-6    # final_radii (power iteration at tol 1e-8) against dense norms
MC_STDERRS = 4.0      # Monte-Carlo rows against the closed form


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: Path) -> list:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_train(out_dir, config: dict, seed: int, full_batch: bool) -> list:
    """`overparam train` run to zero error: stop reason, final loss and
    misclassification by an independent forward pass, radii by dense norms,
    and the loss trajectory (monotone under GD, lower at the end under SGD)."""
    out_dir = Path(out_dir)
    fails = []
    summary = _read_json(out_dir / "summary.json")
    if summary["stop_reason"] != "zero_error":
        fails.append(f"stop_reason {summary['stop_reason']!r}, expected 'zero_error'")
    dims, weights, v = ref.read_checkpoint(out_dir / "checkpoint.net")
    expected_dims = ref.layer_dims(config)
    if dims != expected_dims:
        return fails + [f"checkpoint layer_dims {dims}, expected {expected_dims}"]
    x, y = ref.dataset(config, seed)
    margins = y * ref.outputs(weights, v, x)
    wrong = int(np.count_nonzero(margins <= 0.0))
    if wrong:
        fails.append(f"{wrong} examples misclassified by the saved checkpoint")
    loss = ref.logistic_loss(margins)
    if _rel(summary["final_loss"], loss) > LOSS_RTOL:
        fails.append(f"final_loss {summary['final_loss']!r} vs recomputed {loss!r}")
    w0 = ref.init_weights(dims, seed)
    radii = summary["final_radii"]
    if len(radii) != len(weights):
        fails.append(f"{len(radii)} final_radii for {len(weights)} layers")
    for l, (r, w, w_init) in enumerate(zip(radii, weights, w0), start=1):
        dense = float(np.linalg.norm(w - w_init, 2))
        if _rel(r, dense) > RADIUS_RTOL:
            fails.append(f"layer {l} radius {r!r} vs dense {dense!r}")
        if r > config["tau"]:
            fails.append(f"layer {l} radius {r!r} exceeds tau {config['tau']}")
    losses = [float(row["loss"]) for row in read_csv(out_dir / "trajectory.csv")]
    if full_batch:
        rises = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        if rises:
            fails.append(f"GD loss increased on {rises} steps")
    elif not summary["final_loss"] < losses[0]:
        fails.append(f"SGD final loss {summary['final_loss']!r} not below "
                     f"initial {losses[0]!r}")
    return fails


def _chain_bound(norms: list) -> float:
    """Largest product of ||W_r|| over r = l1..l2 for l1 < l2 (1-based), which
    bounds every masked chain the chain_product_norm item estimates."""
    depth = len(norms)
    return max(math.prod(norms[l1 - 1:l2])
               for l1 in range(1, depth + 1) for l2 in range(l1 + 1, depth + 1))


def check_verify(out_dir, config: dict, seed: int, checkpoint) -> list:
    """`overparam verify --checkpoint`: both batteries pass, the measured
    radius and the trial-0 weight norm match dense norms within spectral_tol,
    every chain estimate stays below its product bound, and the lemma oracles
    agree with closed forms."""
    out_dir = Path(out_dir)
    fails = []
    init = _read_json(out_dir / "init_properties.json")
    pert = _read_json(out_dir / "perturbation_properties.json")
    oracles = _read_json(out_dir / "lemma_oracles.json")
    for name, report in (("init", init), ("perturbation", pert)):
        if report["passed"] is not True:
            failed = [e["name"] for e in report["entries"] if not e["passed"]]
            fails.append(f"{name} battery failed: {failed}")
    entries = {e["name"]: e for e in init["entries"]}
    tol = config["spectral_tol"]

    dims, trained, _ = ref.read_checkpoint(checkpoint)
    w0 = ref.init_weights(dims, seed)
    dense_tau = max(float(np.linalg.norm(w - w_init, 2))
                    for w, w_init in zip(trained, w0))
    measured_tau = pert["meta"]["measured_tau"]
    if _rel(measured_tau, dense_tau) > tol:
        fails.append(f"perturbation_radius {measured_tau!r} vs dense {dense_tau!r}")

    chain = entries["chain_product_norm"]["per_trial"]
    for t, value in enumerate(chain):
        weights = w0 if t == 0 else ref.init_weights(dims, seed + t)
        norms = [float(np.linalg.norm(w, 2)) for w in weights]
        if t == 0:
            spectral = entries["weight_spectral_norm"]["per_trial"][0]
            if _rel(spectral, max(norms)) > tol:
                fails.append(f"trial-0 weight_spectral_norm {spectral!r} "
                             f"vs dense {max(norms)!r}")
        bound = _chain_bound(norms)
        if value > bound * (1.0 + 1e-12):
            fails.append(f"trial {t} chain_product_norm {value!r} above "
                         f"the product bound {bound!r}")

    for row in oracles["relu_kernel"]["monte_carlo"]:
        exact = ref.relu_kernel(row["rho"])
        if abs(row["estimate"] - exact) > MC_STDERRS * row["stderr"]:
            fails.append(f"Monte-Carlo rho={row['rho']}: {row['estimate']!r} is "
                         f"more than {MC_STDERRS:g} stderr from {exact!r}")
    violations = oracles["concavity"]["violations"]
    if violations != 0:
        fails.append(f"concavity check: {violations} violations")
    return fails


def check_sweep(out_dir, widths) -> dict:
    """`overparam sweep --axis m`: width -> failure messages.  Every row must be
    ok and stop at zero error, and max_radius must fall strictly as m grows
    (the lazy-regime claim); a row that breaks the decrease is charged."""
    rows = {int(float(r["value"])): r for r in read_csv(Path(out_dir) / "sweep.csv")}
    fails = {m: [] for m in widths}
    for m in widths:
        row = rows.get(m)
        if row is None:
            fails[m].append("row missing")
        elif row["status"] != "ok" or row["stop_reason"] != "zero_error":
            fails[m].append(f"status {row['status']!r} stop_reason "
                            f"{row['stop_reason']!r} {row['error']}")
    radii = [(m, float(rows[m]["max_radius"])) for m in widths if not fails[m]]
    for (m_a, r_a), (m_b, r_b) in zip(radii, radii[1:]):
        if not r_b < r_a:
            fails[m_b].append(f"max_radius {r_b!r} at m={m_b} not below "
                              f"{r_a!r} at m={m_a}")
    return fails
