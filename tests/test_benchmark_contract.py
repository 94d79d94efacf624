"""The benchmark's requests still parse: every config and command line that
`perfbench/workloads.py` builds is accepted by the CLI parser and the config
parsers.

The benchmark may not change together with the program, so a removed key or
flag that a workload still sends would fail every request of that workload.
`workloads.py` is loaded read-only, by path.
"""

import sys
import types
from pathlib import Path

import pytest

from lzsim.cli import build_parser
from lzsim.config import parse_run_config, parse_sweep_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
