"""Run one `overparam` CLI job in this process and write its timing record.

    python3 perfbench/job.py RECORD MODE -- <overparam arguments>

MODE is one of
  run    time the calls that bound set-up and training (end-to-end view)
  trace  time every public function of every module (per-layer view)
  setup  stop at the first training step or battery item (set-up probe)

The job's exit code is written to RECORD, not returned, so that a failing
job still leaves its timings behind.  Spans are kept in memory and written
once when the job ends.
"""

import importlib
import inspect
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MODULES = ("data", "linalg", "losses", "network", "optim", "verify", "cli")
RUNS = ("optim.run_gd", "optim.run_sgd")
INIT_BATTERY = "verify.verify_init_properties"
BATTERIES = (INIT_BATTERY, "verify.verify_perturbation_properties")
LOAD = "network.load_params"
# what "run" and "setup" mode time: the first step or battery item ends set-up,
# and verify's checkpoint load counts as set-up wherever it happens
LIGHT = RUNS + BATTERIES + (LOAD,)


class SetupDone(BaseException):
    """Raised at the first step or battery item of a set-up probe.

    A BaseException, so that no `except Exception` in the program (the
    sweep keeps going past failed sub-runs) swallows it."""


class Tracer:
    """Spans around wrapped calls, aggregated per (run index, name).

    The run index is the position of the enclosing run_gd/run_sgd call, or
    None outside training.  Self time is a span's duration minus the time
    its traced callees took.
    """

    def __init__(self, stop_at_setup: bool):
        self.stop_at_setup = stop_at_setup
        self.enabled = True
        self.first = None       # monotonic time of the first step or battery item
        self.run = None         # index of the enclosing run_* call
        self.runs = []          # per run_* call: width and duration
        self.stack = []         # open spans: [start, time in traced callees]
        self.stats = {}         # (run, name) -> [calls, incl_s, self_s, iterations]
        self.init_battery = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if self.first is None and (name in RUNS or name in BATTERIES):
                self.first = time.monotonic()
                if self.stop_at_setup:
                    raise SetupDone
            if name in RUNS:
                self.run = len(self.runs)
                self.runs.append({"width": _width(args), "s": None})
            key = (self.run, name)
            span = [time.monotonic(), 0.0]
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.monotonic() - span[0]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += duration
                entry = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - span[1]
                if name in RUNS:
                    self.runs[self.run]["s"] = duration
                    self.run = None
            if name == "linalg.power_iteration" and isinstance(result, tuple) \
                    and len(result) == 4:
                entry[3] += int(result[3])    # (sigma, vector, residual, iterations)
            if name == INIT_BATTERY and self.init_battery is None:
                self.init_battery = (fn, args, kwargs)
            return result
        return traced


def _width(args):
    dims = getattr(args[0], "layer_dims", None) if args else None
    return int(dims[1]) if dims is not None and len(dims) > 1 else None


def _modules() -> dict:
    found = {}
    for name in MODULES:
        try:
            found[name] = importlib.import_module(f"overparam.{name}")
        except ModuleNotFoundError:   # a module merged away: its metrics are absent
            pass
    return found


def _public_functions(module):
    return [f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            for name, value in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(value)
            and value.__module__ == module.__name__]


def install(tracer: Tracer, names) -> list:
    """Wrap each named function wherever the package binds it; return the names found.

    Modules import each other's functions by name, so every module namespace
    that holds the same function object gets the wrapper.
    """
    package = importlib.import_module("overparam")
    modules = _modules()
    namespaces = [package] + list(modules.values())
    found = []
    for qualname in names:
        module, attr = qualname.split(".", 1)
        fn = getattr(modules.get(module), attr, None)
        if not inspect.isfunction(fn):
            continue
        found.append(qualname)
        wrapped = tracer.wrap(qualname, fn)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)
    return found


def _peak_rss_kib() -> int:
    # VmHWM belongs to this image alone; ru_maxrss can carry the parent's peak
    # across fork and exec
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _checkpoint_arg(argv):
    return argv[argv.index("--checkpoint") + 1] if "--checkpoint" in argv else None


def _time_init_items(tracer: Tracer) -> dict:
    """Seconds of the init battery restricted to each item in turn, called
    with the job's own arguments: empty when the job did not call the
    battery, None when the battery no longer takes `items`."""
    if tracer.init_battery is None:
        return {}
    fn, args, kwargs = tracer.init_battery
    verify = importlib.import_module("overparam.verify")
    items = {}
    tracer.enabled = False
    try:
        for item in getattr(verify, "INIT_ITEMS", ()):
            start = time.monotonic()
            fn(*args, **dict(kwargs, items=[item]))
            items[item] = time.monotonic() - start
    except TypeError:
        return None
    finally:
        tracer.enabled = True
    return items


def main(argv) -> int:
    record_path, mode = argv[0], argv[1]
    job_argv = argv[argv.index("--") + 1:]
    tracer = Tracer(stop_at_setup=(mode == "setup"))
    cli = importlib.import_module("overparam.cli")
    if mode == "trace":
        names = [q for module in _modules().values() for q in _public_functions(module)]
        names = list(dict.fromkeys(list(LIGHT) + names))
    else:
        names = list(LIGHT)
    found = install(tracer, names)

    load_s = None
    try:
        rc = cli.main(job_argv)
    except SetupDone:
        rc = 0
        checkpoint = _checkpoint_arg(job_argv)
        if checkpoint is not None:
            network = importlib.import_module("overparam.network")
            start = time.monotonic()
            network.load_params(checkpoint)
            load_s = time.monotonic() - start
    except SystemExit as exc:   # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    t_end = time.monotonic()
    peak_rss_kib = _peak_rss_kib()
    if load_s is None:
        load_s = tracer.stats.get((None, LOAD), [0, 0.0])[1]
    items = _time_init_items(tracer) if mode == "trace" else {}

    record = {
        "rc": rc,
        "t_first": tracer.first,
        "t_end": t_end,
        "load_params_s": load_s,
        "peak_rss_kib": peak_rss_kib,
        "traced": found,
        "runs": tracer.runs,
        "stats": [[run, name] + values for (run, name), values in tracer.stats.items()],
        "init_items_s": items,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
