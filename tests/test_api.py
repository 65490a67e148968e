"""The names the benchmark hooks into must exist.

perfbench/job.py wraps the functions it times by name and silently skips a
name it cannot resolve, so a renamed or deleted function would only show as
a missing metric.  The tuples are read from the benchmark's source with
`ast`: importing perfbench/run.py would pin the BLAS thread variables of
this process.  The config keys the CLI accepts must be read by it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from overparam import cli, verify
from overparam.data import generate_separated
from overparam.network import init_network

from oracles import battery_settings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(cli.__file__).resolve().parent


def module_constants(path, names) -> dict:
    """Literal values of the module-level assignments to `names`."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    assert set(found) == set(names), f"{path.name} lacks {set(names) - set(found)}"
    return found


RUN = module_constants(PERFBENCH / "run.py", ("STEP_LAYERS", "BATTERIES", "ORACLES",
                                              "JOB_LAYERS", "INIT_ITEMS"))
JOB = module_constants(PERFBENCH / "job.py", ("RUNS", "LOAD"))
HOOKED = sorted(set(RUN["STEP_LAYERS"] + RUN["BATTERIES"] + RUN["ORACLES"]
                    + RUN["JOB_LAYERS"] + JOB["RUNS"] + (JOB["LOAD"],)))


@pytest.mark.parametrize("qualname", HOOKED)
def test_hooked_name_is_a_function_of_its_module(qualname):
    module_name, attr = qualname.split(".")
    module = importlib.import_module(f"overparam.{module_name}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn), qualname
    assert fn.__module__ == module.__name__, qualname


def test_init_items_match_the_benchmark():
    assert verify.INIT_ITEMS == RUN["INIT_ITEMS"]


@pytest.mark.parametrize("item", RUN["INIT_ITEMS"])
def test_each_init_item_runs_alone(item):
    ds = generate_separated(n=4, d=3, mu=0.5, phi=0.08, seed=0)
    params = init_network([3, 8, 8], seed=1)
    report = verify.verify_init_properties(params, ds, **battery_settings(
        trials=1, probes=2, gradient_probes=1, items=[item]))
    assert [e.name for e in report.entries] == [item]
    assert len(report.entries[0].per_trial) == 1


def test_every_config_key_is_read():
    # a key of CONFIG_TABLE that no command reads as config["<key>"] is an
    # option that changes nothing
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "config" and isinstance(node.slice, ast.Constant)}
    assert set(cli.CONFIG_TABLE) - read == set()


def test_no_module_imports_another_modules_private_name():
    # a `_` name is private to its module; one that another module needs
    # belongs in the public interface of its own
    found = [f"{path.name}: {alias.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or (node.module or "").startswith("overparam"))
             for alias in node.names if alias.name.startswith("_")]
    assert found == []
