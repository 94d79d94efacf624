"""The benchmark still fits the program: every config and command line that
`perfbench/workloads.py` builds is accepted by the CLI parser and the config
parsers, every figure it reproduces is a preset, and every function that
`perfbench/layers.py` wraps is still bound in its module and still returns
or receives what its counting hook takes ``len()`` of.

The benchmark may not change together with the program, so a removed key or
flag that a workload still sends would fail every request of that workload,
and a renamed function would fail the traced run.  Both files are read by
path, without importing perfbench.
"""

import ast
import functools
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from lzsim.cli import build_parser, main
from lzsim.config import parse_run_config, parse_sweep_config
from lzsim.experiments import PRESETS
from lzsim.model import DriveParameters
from lzsim.seriesio import read_series
from lzsim.transfer_matrix import resonance_scan

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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


def _timed_entries(tree):
    """The (module, function, hook name or None) entries of ``TIMED``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value, getattr(entry.elts[2], "id", None))
                    for entry in node.value.elts]
    raise AssertionError(f"no TIMED tuple in {LAYERS}")


def _timed_names():
    """The (module, function) pairs of the ``TIMED`` tuple in layers.py."""
    return [entry[:2] for entry in _timed_entries(ast.parse(LAYERS.read_text(), str(LAYERS)))]


def _len_hooked():
    """The (module, function) pairs of ``TIMED`` whose hook takes ``len()``,
    itself or through another function of layers.py."""
    tree = ast.parse(LAYERS.read_text(), str(LAYERS))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def uses_len(name):
        called = {node.func.id for node in ast.walk(defs[name])
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        return "len" in called or any(uses_len(c) for c in called & defs.keys() - {name})

    return {(module, function) for module, function, hook in _timed_entries(tree)
            if hook is not None and uses_len(hook)}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _samples(traj):
    # a trajectory's len() counts its samples
    assert len(traj) == traj.times.size == traj.populations.shape[0] > 0


def _scan_points(args, kwargs, scan):
    values = _arg(args, kwargs, 2, "values")
    assert len(scan) == len(values) == scan.value.size == scan.rotation_angle.size


def _rows_written(args, kwargs, _):
    traj = _arg(args, kwargs, 1, "traj")
    _samples(traj)
    assert read_series(_arg(args, kwargs, 0, "path"))[2].shape[0] == len(traj)


def _table_rows(args, kwargs, text):
    rows = _arg(args, kwargs, 1, "rows")
    body = [line for line in text.splitlines() if not line.startswith("#")][1:]
    assert len(rows) == len(body) > 0


#: what each len()-based hook of layers.py counts, checked on what it receives
_FITS = {
    ("lzsim.propagator", "evolve"): lambda args, kwargs, traj: _samples(traj),
    ("lzsim.propagator", "evolve_ensemble_dephased"): lambda args, kwargs, traj: _samples(traj),
    ("lzsim.transfer_matrix", "resonance_scan"): _scan_points,
    ("lzsim.seriesio", "write_series"): _rows_written,
    ("lzsim.seriesio", "render_table_csv"): _table_rows,
}


@pytest.mark.parametrize("parameter, grid", [
    ("period_ns", np.linspace(100.0, 200.0, 2000)),
    ("epsilon_m_mhz", np.linspace(30.0, 200.0, 7)),
    ("period_ns", np.array([128.0])),
])
def test_scan_len_counts_its_points(parameter, grid):
    base = DriveParameters(5.57, 100.0, 128.0)
    assert len(resonance_scan(base, parameter, grid)) == grid.size


def test_every_len_hook_fits_what_it_receives(workloads, tmp_path, monkeypatch):
    # every workload's requests run once through the CLI, as a traced pass runs
    # them, with each len()-hooked function checked wherever the package binds it
    hooked = _len_hooked()
    assert hooked, "perfbench/layers.py counts nothing with len()"
    assert hooked <= _FITS.keys(), f"no check here for the len() hooks of {hooked - _FITS.keys()}"
    calls = dict.fromkeys(hooked, 0)
    for module, function in hooked:
        original = getattr(importlib.import_module(module), function)

        @functools.wraps(original)
        def checked(*args, _key=(module, function), _original=original, **kwargs):
            result = _original(*args, **kwargs)
            _FITS[_key](args, kwargs, result)
            calls[_key] += 1
            return result

        for name, mod in list(sys.modules.items()):
            if name == "lzsim" or name.startswith("lzsim."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, checked)
    for name in workloads.NAMES:
        wl = workloads.build(name, 1)
        work, pass_dir = tmp_path / name, tmp_path / name / "pass"
        work.mkdir()
        for config, text in wl.configs.items():
            (work / config).write_text(text)
        for request in wl.requests:
            out = pass_dir / request.label
            argv = [arg.format(work=work, out=out, **{"pass": pass_dir}) for arg in request.argv]
            assert main(argv) == 0, f"{name}: {argv}"
    assert all(calls.values()), f"never called by a workload: {calls}"


def test_every_timed_function_is_bound():
    names = _timed_names()
    assert len(names) > 10
    unbound = [f"{module}.{function}" for module, function in names
               if not callable(getattr(importlib.import_module(module), function, None))]
    assert not unbound, f"wrapped by perfbench/layers.py but gone: {unbound}"
