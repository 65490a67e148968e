"""Benchmark of the `overparam` CLI on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It makes the workload's inputs from the
seed, runs one `overparam` job at a time in a child process (perfbench/job.py)
for whole rounds until S seconds have passed, checks every job's outputs and
prints, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 each round also runs a traced copy of the job, and the
metrics are the per-layer ones.  The line before it is the run's record:
inputs, operation counts, failure messages and the numpy/BLAS setting.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Pinned before numpy loads, for the checks here and for every job; the
# thread count changes the last bits of the outputs, not only their speed.
# One thread: with a BLAS thread on every core, any other process stalls one
# of them, and the job's time and even its peak RSS followed the machine's load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Whether the kernel grants the huge pages numpy asks for depends on the host's
# free memory, which made identical jobs' times differ by 7 %.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402

# Every workload trains or verifies the instance of config seed 0: the
# instance seed moves time to zero error threefold (57 to 155 GD steps over
# seeds 0-23 at n=40, and 37 to 84 ms a step), more than any bound could absorb.
# The benchmark seed instead sets the step size within +-0.5 % of the default
# constant, which changes every weight of the result but not the step count.
INSTANCE_SEED = 0
ETA_SCALE = 2.0e10
SETUP_PROBES = 7
RUN_LIMIT_S = 170      # every job of a run ends by then, or the run fails
WIDTHS = (125, 250, 500, 1000, 2000)
INIT_ITEMS = ("hidden_norm_deviation", "weight_spectral_norm",
              "cross_class_separation", "output_magnitude",
              "near_threshold_fraction", "chain_product_norm",
              "sparse_output_probe", "sparse_bilinear_probe",
              "active_gradient_nodes", "pairwise_inner_product")

BASE_CONFIG = {"d": 10, "mu": 0.5, "phi": 0.1, "L": 3, "m": 1000,
               "loss": "logistic", "tau": 0.1, "spectral_tol": 1e-3}
WORKLOADS = {
    "train-gd": ({"n": 40}, ["train"]),
    "train-sgd": ({"n": 40, "B": 10}, ["train"]),
    "verify-trained": ({"n": 20, "trials": 2}, ["verify"]),
    "sweep-width": ({"n": 32}, ["sweep", "--axis", "m",
                                "--values", ",".join(map(str, WIDTHS))]),
}

STEP_LAYERS = ("linalg.power_iteration", "network.batch_forward",
               "network.backprop_signals", "network.gradient_norms")
BATTERIES = ("verify.verify_init_properties",
             "verify.verify_perturbation_properties")
ORACLES = ("verify.mc_relu_kernel", "verify.concavity_inequality_check",
           "verify.subset_mean_variance", "losses.check_loss_assumptions")
JOB_LAYERS = ("data.generate_separated", "network.init_network",
              "network.load_params", "optim.write_trajectory_csv",
              "network.save_params")


def workload_config(name: str, seed: int) -> dict:
    overrides, _ = WORKLOADS[name]
    jitter = (random.Random(seed).random() - 0.5) / 100.0
    return dict(BASE_CONFIG, **overrides, seed=INSTANCE_SEED,
                eta_scale=ETA_SCALE * (1.0 + jitter))


def file_hashes(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


class JobFailed(RuntimeError):
    pass


class Runner:
    """Runs jobs in child processes, one at a time, inside `workdir`."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, OVERPARAM_THREADS="1")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def job(self, mode: str, argv: list) -> dict:
        self.count += 1
        record_path = self.workdir / f"job{self.count}.json"
        log_path = self.workdir / f"job{self.count}.log"
        start = time.monotonic()
        with open(log_path, "wb") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), str(record_path), mode, "--"]
                + argv, cwd=self.root, env=self.env, stdout=log,
                stderr=subprocess.STDOUT, check=False,
                timeout=max(1.0, self.deadline - time.monotonic()))
        wall = time.monotonic() - start
        if proc.returncode != 0 or not record_path.exists():
            tail = log_path.read_text(errors="replace")[-2000:]
            raise JobFailed(f"job runner exited {proc.returncode}: {tail}")
        with open(record_path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        record["wall_s"] = wall
        record["job_s"] = record["t_end"] - start   # spawn to the end of cli.main
        record["log"] = log_path.read_text(errors="replace")
        if record["t_first"] is not None:
            record["setup_s"] = record["t_first"] - start + record["load_params_s"]
        return record


class Workload:
    """One workload's inputs, jobs and checks."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name = name
        self.runner = runner
        self.config = workload_config(name, seed)
        self.config_path = runner.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, sort_keys=True))
        self.checkpoint = None
        self.reference = None     # artifact hashes of the first fully checked job
        self.steps = None         # update steps per job (train, sweep)
        self.steps_by_width = {}
        self.measurements = None  # battery measurements per job (verify)

    def argv(self, out: Path) -> list:
        argv = WORKLOADS[self.name][1] + ["--config", str(self.config_path),
                                         "--out", str(out)]
        return argv + ["--checkpoint", str(self.checkpoint)] if self.checkpoint else argv

    def prepare(self) -> None:
        """verify-trained: train the checkpoint, untimed, at the same config."""
        if self.name != "verify-trained":
            return
        out = self.runner.workdir / "checkpoint"
        record = self.runner.job("run", ["train", "--config", str(self.config_path),
                                         "--out", str(out)])
        if record["rc"] != 0:
            raise JobFailed(f"checkpoint training exited {record['rc']}")
        self.checkpoint = out / "checkpoint.net"

    def operations(self) -> int:
        return len(WIDTHS) if self.name == "sweep-width" else 1

    def check(self, record: dict, out: Path) -> tuple:
        """(failed operations, failure messages, whether outputs were wrong)
        of one job.  The first correct job is checked in full; later jobs
        must reproduce its artifacts byte for byte."""
        if record["rc"] != 0:
            return self.operations(), [f"exit code {record['rc']}: "
                                       f"{record['log'][-500:]}"], False
        hashes = file_hashes(out)
        if self.reference is not None:
            if hashes != self.reference:
                return self.operations(), ["artifacts differ from the first job's"], True
            return 0, [], False
        try:
            self.count_work(out)
            if self.name == "sweep-width":
                per_row = checks.check_sweep(out, WIDTHS)
                messages = [f"m={m}: {msg}" for m, msgs in per_row.items() for msg in msgs]
                failed = sum(1 for msgs in per_row.values() if msgs)
                # a row that errored is a failed operation, not a wrong output
                errored = {m for m, k in self.steps_by_width.items() if k is None}
                wrong = any(msgs for m, msgs in per_row.items() if m not in errored)
            else:
                if self.name == "verify-trained":
                    messages = checks.check_verify(out, self.config, INSTANCE_SEED,
                                                   self.checkpoint)
                else:
                    messages = checks.check_train(out, self.config, INSTANCE_SEED,
                                                  full_batch="B" not in self.config)
                failed = 1 if messages else 0
                wrong = bool(messages)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            failed, messages = self.operations(), [f"malformed outputs: {exc!r}"]
            wrong = True
        if not messages:
            self.reference = hashes
        return failed, messages, wrong

    def count_work(self, out: Path) -> None:
        if self.name == "verify-trained":
            self.measurements = sum(
                len(entry["per_trial"])
                for report in ("init_properties.json", "perturbation_properties.json")
                for entry in json.loads((out / report).read_text())["entries"])
        elif self.name == "sweep-width":
            rows = checks.read_csv(out / "sweep.csv")
            self.steps_by_width = {
                int(float(r["value"])): int(r["iterations"]) if r["status"] == "ok"
                else None for r in rows}
            self.steps = sum(k or 0 for k in self.steps_by_width.values())
        else:
            self.steps = json.loads((out / "summary.json").read_text())["iterations"]

    def dims(self, width=None) -> list:
        return ref.layer_dims(dict(self.config, m=width or self.config["m"]))


def _total(record, names, field=3, in_run=None) -> float:
    """Sum of one field of a record's span rows [run index, name, calls,
    incl_s, self_s, iterations]: all rows of `names`, or those inside
    (in_run=True) or outside training."""
    return sum(row[field] for row in record["stats"] if row[1] in names
               and (in_run is None or (row[0] is not None) == in_run))


def end_to_end(work: Workload, records: list, setups: list) -> dict:
    if work.name == "verify-trained":
        rates = [work.measurements / _total(rec, BATTERIES) for rec in records]
    else:
        rates = [work.steps / sum(r["s"] for r in rec["runs"]) for rec in records]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in records), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "steps_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] / 1024.0
                                           for r in records), "MiB"),
    }


def gemm_gflop(dims: list, n: int, batch: int, backprop_calls: float) -> float:
    """GEMM floating-point work of one training step, computed from the shapes:
    forward pass, backprop signal passes, the n-row Gram matrices of
    gradient_norms and the weight update.  Power iteration is matrix-vector
    work and is left out."""
    products = [a * b for a, b in zip(dims[:-1], dims[1:])]
    forward = 2 * n * (sum(products) + dims[-1])
    backprop = 2 * n * sum(products[1:])
    grams = sum(2 * batch * batch * (a + b) + 2 * batch ** 3
                for a, b in zip(dims[:-1], dims[1:]))
    update = 2 * batch * sum(products)
    return (forward + backprop_calls * backprop + grams + update) / 1e9


def per_layer(work: Workload, traced: dict, plain: dict) -> tuple:
    """(metrics, absent names) of one traced job; `plain` is the untraced job
    of the same round."""
    found = set(traced["traced"])
    steps = work.steps or 0
    metrics, absent = {}, []

    def put(name, unit, needs, value):
        if set(needs) <= found:
            metrics[name] = (value(), unit)
        else:
            absent.append(name)

    def per_step(total):
        return 1000.0 * total / steps if steps else 0.0

    run_s = sum(r["s"] for r in traced["runs"])
    for layer in STEP_LAYERS:
        put(f"{layer}.ms_per_step", "ms", [layer],
            lambda layer=layer: per_step(_total(traced, [layer], 4, in_run=True)))
    pi = "linalg.power_iteration"
    put(f"{pi}.iters_per_call", "count", [pi], lambda: (
        _total(traced, [pi], 5, True) / max(1, _total(traced, [pi], 2, True))))
    bp = "network.backprop_signals"
    put(f"{bp}.calls_per_step", "count", [bp],
        lambda: _total(traced, [bp], 2, True) / steps if steps else 0.0)
    put("optim.self.ms_per_step", "ms", STEP_LAYERS, lambda: per_step(
        run_s - _total(traced, STEP_LAYERS, 4, in_run=True)))
    put("optim.run.ms_per_step", "ms", [], lambda: per_step(run_s))
    put("optim.run_untraced.ms_per_step", "ms", [],
        lambda: per_step(sum(r["s"] for r in plain["runs"])))
    put("optim.steps", "count", [], lambda: steps)

    def gflop():
        calls = _total(traced, [bp], 2, True) / steps if steps else 0.0
        batch = work.config.get("B") or work.config["n"]
        by_width = work.steps_by_width or {None: steps}
        return sum((k or 0) * gemm_gflop(work.dims(m), work.config["n"], batch, calls)
                   for m, k in by_width.items()) / steps if steps else 0.0
    put("network.gemm_gflop_per_step", "GFLOP", [bp], gflop)

    for layer in JOB_LAYERS:
        put(f"{layer}.ms", "ms", [layer],
            lambda layer=layer: 1000.0 * _total(traced, [layer]))
    items = traced["init_items_s"]
    for item in INIT_ITEMS:
        if items is not None and (item in items or not items):
            metrics[f"verify.init.{item}.ms"] = (1000.0 * items.get(item, 0.0), "ms")
        else:
            absent.append(f"verify.init.{item}.ms")
    put("verify.perturbation.ms", "ms", BATTERIES[1:],
        lambda: 1000.0 * _total(traced, BATTERIES[1:]))
    sn = "linalg.spectral_norm"
    put(f"{sn}.ms", "ms", [sn], lambda: 1000.0 * _total(traced, [sn]))
    put(f"{sn}.calls", "count", [sn], lambda: _total(traced, [sn], 2))
    put("verify.lemma_oracles.ms", "ms", ORACLES,
        lambda: 1000.0 * _total(traced, ORACLES))

    widths = {r["width"]: r["s"] for r in plain["runs"]}
    for m in WIDTHS:
        k = work.steps_by_width.get(m)
        metrics[f"sweep.ms_per_step.m{m}"] = (
            1000.0 * widths[m] / k if k and m in widths else 0.0, "ms")
    return metrics, absent


def blas_setting() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        library = "unknown"
    return {"numpy": np.__version__, "blas": library,
            "blas_threads": BLAS_THREADS, "cpu_count": os.cpu_count()}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        workdir: Path) -> tuple:
    runner = Runner(root, workdir)
    work = Workload(name, seed, runner)
    work.prepare()

    setups = []
    for i in range(SETUP_PROBES + 1):   # the first probe warms caches, discarded
        probe = runner.job("setup", work.argv(workdir / "probe"))
        if probe["rc"] != 0 or probe["t_first"] is None:
            raise JobFailed(f"set-up probe failed: {probe['log'][-500:]}")
        if i:
            setups.append(probe["setup_s"])

    attempted = failed = 0
    wrong = False
    messages = []
    plain, traced = [], []
    start = time.monotonic()
    while not attempted or time.monotonic() - start < seconds:
        for mode in ("run", "trace") if trace else ("run",):
            out = workdir / f"out{runner.count + 1}"
            record = runner.job(mode, work.argv(out))
            bad, why, wrong_output = work.check(record, out)
            shutil.rmtree(out, ignore_errors=True)
            attempted += work.operations()
            failed += bad
            wrong = wrong or wrong_output
            messages += why
            if record["rc"] == 0:
                (traced if mode == "trace" else plain).append(record)
    if not plain or (trace and not traced) or work.steps is None \
            and work.measurements is None:
        raise JobFailed("no job finished: " + "; ".join(messages[-3:]))
    setups += [r["setup_s"] for r in plain]

    if trace:
        rounds = [per_layer(work, t, p) for t, p in zip(traced, plain)]
        absent = sorted(set(rounds[0][1]))
        metrics = {key: (statistics.median(r[0][key][0] for r in rounds), unit)
                   for key, (_, unit) in rounds[0][0].items()}
        metrics["trace.overhead_s"] = (
            statistics.median(r["job_s"] for r in traced)
            - statistics.median(r["job_s"] for r in plain), "s")
    else:
        absent = []
        metrics = end_to_end(work, plain, setups)

    record = {"workload": name, "seed": seed, "inputs": work.config,
              "attempted": attempted, "failed": failed, "failures": messages,
              "absent_metrics": absent, "jobs": runner.count,
              "environment": blas_setting()}
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "overparam" / "cli.py").is_file():
        print("perfbench: src/overparam not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), root, workdir)
    except (JobFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
