"""The benchmark still fits the program: every config and command line that
`perfbench/workloads.py` builds is accepted by the CLI parser and the config
parsers, every figure it reproduces is a preset, and every function that
`perfbench/layers.py` wraps is still bound in its module.

The benchmark may not change together with the program, so a removed key or
flag that a workload still sends would fail every request of that workload,
and a renamed function would fail the traced run.  Both files are read by
path, without importing perfbench.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

from lzsim.cli import build_parser
from lzsim.config import parse_run_config, parse_sweep_config
from lzsim.experiments import PRESETS

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def workloads():
    # executed from its source text, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


@pytest.mark.parametrize("seed", [1, 2, 1000])
def test_every_workload_request_parses(workloads, seed):
    parsers = {"simulate": parse_run_config, "sweep": parse_sweep_config}
    for name in workloads.NAMES:
        wl = workloads.build(name, seed)
        for request in wl.requests:
            argv = [arg.format(**{"work": "w", "pass": "p", "out": "o"}) for arg in request.argv]
            args = build_parser().parse_args(argv)
            if args.command in parsers:
                config = Path(args.config).name
                parsers[args.command](wl.configs[config], source=f"{name}/{config}")


def test_every_requested_preset_exists(workloads):
    # the parser accepts any reproduce id, so a renamed preset would pass above
    missing = set(workloads.PRESET_PERIODS) - set(PRESETS)
    assert not missing, f"reproduced by perfbench/workloads.py but not a preset: {missing}"


def _timed_names():
    """The (module, function) pairs of the ``TIMED`` tuple in layers.py."""
    tree = ast.parse(LAYERS.read_text(), str(LAYERS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no TIMED tuple in {LAYERS}")


def test_every_timed_function_is_bound():
    names = _timed_names()
    assert len(names) > 10
    unbound = [f"{module}.{function}" for module, function in names
               if not callable(getattr(importlib.import_module(module), function, None))]
    assert not unbound, f"wrapped by perfbench/layers.py but gone: {unbound}"
