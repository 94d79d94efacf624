"""Command-line interface: simulate, reproduce, sweep, analyze.

Exit codes: 0 success, 2 configuration/usage error, 3 computation failure
(norm drift, no oscillation found, fit failure).  All file output is atomic;
a failing command leaves no partial files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import rabi_frequency
from .config import load_run_config, load_sweep_config
from .errors import ConfigError, FitFailureError, IntegrationError, NoOscillationError
from .experiments import (
    ExperimentResult,
    provenance,
    run_figure,
    run_lz_probability_sweep,
    run_scenario,
)
from .model import Basis, DriveParameters
from .propagator import Trajectory
from .seriesio import (
    atomic_write_text,
    read_series,
    render_series_json,
    render_table_csv,
    write_series,
)
from .transfer_matrix import resonance_scan

_USAGE_ERROR = 2
_COMPUTE_ERROR = 3


def _out_dir(flag_value: str | None, config_value: str | None) -> Path:
    chosen = flag_value or config_value or os.environ.get("LZSIM_OUT_DIR") or "."
    return Path(chosen)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _write_series(out: Path, result: ExperimentResult, fmt: str) -> list[str]:
    """Write each series of a run as ``<name>[_<series>]_series.<fmt>``.

    The suffix is added only when more than one file is written; the
    ``adiabatic`` series goes in as columns of the ``ode`` file.  A series
    whose drive differs from the scenario's finds it in the provenance under
    ``<series>_drive``.
    """
    out.mkdir(parents=True, exist_ok=True)
    prov = result.provenance
    adiabatic = result.series.get("adiabatic")
    written = {k: traj for k, traj in result.series.items() if k != "adiabatic"}
    files = []
    for series_name, traj in written.items():
        suffix = "" if len(written) == 1 else f"_{series_name}"
        path = out / f"{result.name}{suffix}_series.{fmt}"
        drive = DriveParameters(**prov.get(f"{series_name}_drive", prov["scenario"]["drive"]))
        write_series(path, traj, prov, fmt=fmt, drive=drive,
                     adiabatic=adiabatic if series_name == "ode" else None)
        files.append(str(path))
    return files


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    result = run_scenario(cfg.spec)
    files = _write_series(_out_dir(args.out, cfg.out_dir), result, args.format or cfg.format)
    summary = {"name": result.name, "files": files, **_plain_scalars(result.scalars)}
    if cfg.report_rabi:
        fit = rabi_frequency(result.series["ode"])
        summary["rabi_frequency_mhz"] = fit.frequency_mhz
    _emit(summary)
    return 0


def cmd_reproduce(args) -> int:
    figure = args.figure
    result = run_figure(figure)
    out = _out_dir(args.out, None)
    files = _write_series(out, result, args.format or "csv")

    scalars_path = out / f"{figure}_scalars.json"
    atomic_write_text(
        scalars_path,
        json.dumps(
            {"scalars": _plain_scalars(result.scalars), "provenance": result.provenance},
            sort_keys=True, indent=2, allow_nan=False,
        ) + "\n",
    )
    files.append(str(scalars_path))
    _emit({"name": figure, "files": files, **_plain_scalars(result.scalars)})
    return 0


def cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    if args.format is not None:
        cfg = replace(cfg, format=args.format)
    out = _out_dir(args.out, cfg.out_dir)

    prov = provenance({
        "sweep": cfg.kind,
        "scan_parameter": cfg.scan_parameter,
        "drive": asdict(cfg.drive),
        # named as the sweep config keys, so the header reruns the sweep
        "integrator": {
            "steps_per_min_period": cfg.integrator.steps_per_min_period,
            "norm_tolerance": cfg.integrator.norm_drift_tolerance,
        },
    })
    summary: dict = {"sweep": cfg.kind, "points": len(cfg.scan_values)}
    if cfg.kind == "resonance":
        scan = resonance_scan(cfg.drive, cfg.scan_parameter, cfg.scan_values)
        columns = [cfg.scan_parameter, "rotation_angle_rad", "axis_z"]
        rows = np.column_stack((scan.value, scan.rotation_angle, scan.axis_z))
        summary["rotation_angle_min_at"] = float(scan.value[np.argmin(scan.rotation_angle)])
        summary["axis_z_min_at"] = float(scan.value[np.argmin(np.abs(scan.axis_z))])
    else:
        res = run_lz_probability_sweep(
            cfg.drive.delta_mhz, cfg.drive.epsilon_m_mhz, cfg.scan_values,
            cfg=cfg.integrator,
        )
        columns = ["period_ns", "transfer_probability"]
        rows = res.points
        summary["delta_fit_mhz"] = res.delta_fit_mhz
        summary["fit_residual_rms"] = res.fit_residual_rms

    if not np.isfinite(np.asarray(rows, dtype=float)).all():
        raise ValueError(f"{cfg.kind} sweep produced a non-finite value; nothing written")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_{cfg.kind}.{cfg.format}"
    render = render_table_csv if cfg.format == "csv" else render_series_json
    atomic_write_text(path, render(columns, rows, prov))
    summary["files"] = [str(path)]
    _emit(summary)
    return 0


def cmd_analyze(args) -> int:
    meta, columns, data = read_series(Path(args.series))
    try:
        it, i0, i1 = columns.index("t_ns"), columns.index("P0"), columns.index("P1")
    except ValueError as exc:
        raise ConfigError(f"{args.series}: missing required columns t_ns/P0/P1") from exc
    # an empty (CSV) or null (JSON) cell reads as NaN, which no fit may take
    finite = np.isfinite(data[:, (it, i0, i1)])
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ConfigError(f"{args.series}: row {i + 1}: column {('t_ns', 'P0', 'P1')[j]} "
                          f"holds {data[i, (it, i0, i1)[j]]}, not a finite number")
    traj = Trajectory(data[:, it], data[:, (i0, i1)], Basis.DIABATIC)
    fit = rabi_frequency(traj)
    _emit({
        "series": str(args.series),
        "frequency_mhz": fit.frequency_mhz,
        "amplitude": fit.amplitude,
        "residual_rms": fit.residual_rms,
    })
    return 0


def _plain_scalars(scalars: dict) -> dict:
    plain = {}
    for k, v in scalars.items():
        if isinstance(v, (list, tuple)):
            plain[k] = [float(x) for x in v]
        elif isinstance(v, (bool, int, float, str)):
            plain[k] = v
    return plain


@functools.cache  # built on the first `main` call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzsim",
        description="Driven two-level system simulator: dense integration and "
                    "transfer-matrix models of repeated avoided-crossing passages.",
    )
    parser.add_argument("--version", action="version", version=f"lzsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="output directory (default: $LZSIM_OUT_DIR or .)")
        sp.add_argument("--format", choices=("csv", "json"))

    sp = sub.add_parser("simulate", help="run a config file and write a series file")
    sp.add_argument("config")
    add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("reproduce", help="run a named figure preset")
    sp.add_argument("figure", metavar="figure-id")
    add_common(sp)
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("sweep", help="run a parameter sweep config")
    sp.add_argument("config")
    add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("analyze", help="post-process a series file")
    sp.add_argument("what", choices=("rabi",))
    sp.add_argument("series")
    sp.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError and DegenerateDriveError among them
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (IntegrationError, NoOscillationError, FitFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
