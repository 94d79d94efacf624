"""Command-line interface: simulate, reproduce, sweep, analyze.

Exit codes: 0 success, 2 configuration/usage error, 3 computation failure
(norm drift, no oscillation found, fit failure).  All file output is atomic;
a failing command leaves no partial files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import rabi_frequency
from .config import RunConfig, load_run_config, load_sweep_config
from .errors import (
    ConfigError,
    DegenerateDriveError,
    FitFailureError,
    IntegrationError,
    NoOscillationError,
)
from .experiments import (
    FIGURE_IDS,
    PRESETS,
    NoiseSpec,
    ScenarioSpec,
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


def _scenario_to_runconfig_parts(cfg: RunConfig):
    """Resolve a scenario id from a run config into drive/duration/sampling."""
    preset = PRESETS[cfg.scenario]
    if cfg.scenario == "fig4":
        raise ConfigError("scenario fig4 is a two-arm comparison; use 'reproduce fig4'")
    drive = DriveParameters(**preset["drive"])
    t_end = cfg.t_end_ns if cfg.t_end_ns is not None else preset["t_end_ns"]
    sample_every = (
        cfg.sample_every_ns if cfg.sample_every_ns is not None else preset["sample_every_ns"]
    )
    return drive, t_end, sample_every


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.format is not None:
        cfg = replace(cfg, format=args.format)

    if cfg.scenario is not None:
        drive, t_end, sample_every = _scenario_to_runconfig_parts(cfg)
        name = cfg.scenario
    else:
        drive = cfg.drive
        t_end = cfg.t_end_ns
        sample_every = cfg.sample_every_ns
        name = "custom"

    noise = None
    if cfg.t2_star_us is not None:
        noise = NoiseSpec(
            t2_star_us=cfg.t2_star_us,
            n_samples=cfg.n_noise_samples,
            detuning_mhz=cfg.detuning_mhz,
            preparation_rotation=cfg.preparation_rotation_rad,
            readout_rotation=cfg.readout_rotation_rad,
        )
    spec = ScenarioSpec(
        name=name,
        drive=drive,
        method=cfg.method,
        t_end_ns=t_end,
        sample_every_ns=sample_every,
        noise=noise,
        seed=cfg.seed,
        integrator=cfg.integrator,
    )
    result = run_scenario(spec)

    out = _out_dir(args.out, cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for series_name, traj in result.series.items():
        suffix = "" if len(result.series) == 1 else f"_{series_name}"
        path = out / f"{name}{suffix}_series.{cfg.format}"
        write_series(path, traj, result.provenance, fmt=cfg.format, drive=drive)
        files.append(str(path))

    summary = {"name": name, "files": files, **_plain_scalars(result.scalars)}
    if cfg.report_rabi and "ode" in result.series:
        fit = rabi_frequency(result.series["ode"])
        summary["rabi_frequency_mhz"] = fit.frequency_mhz
    _emit(summary)
    return 0


def cmd_reproduce(args) -> int:
    figure = args.figure
    if figure not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure!r}; valid: {', '.join(FIGURE_IDS)}")
    result = run_figure(figure)
    fmt = args.format or "csv"
    out = _out_dir(args.out, None)
    out.mkdir(parents=True, exist_ok=True)

    drive = DriveParameters(**result.provenance["scenario"]["drive"])
    files = []
    adiabatic = result.series.get("adiabatic")
    written = [k for k in result.series if k != "adiabatic"]
    for series_name, traj in result.series.items():
        if series_name == "adiabatic":
            continue  # merged into the ode series columns
        suffix = "" if len(written) == 1 else f"_{series_name}"
        path = out / f"{figure}{suffix}_series.{fmt}"
        overlay = adiabatic if series_name == "ode" else None
        series_drive = drive
        if series_name == "destructive":
            series_drive = DriveParameters(**result.provenance["destructive_drive"])
        write_series(path, traj, result.provenance, fmt=fmt, drive=series_drive,
                     adiabatic=overlay)
        files.append(str(path))

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


def _resonance_row(point):
    return (point.value, point.rotation_angle, point.axis_z)


def cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    if args.format is not None:
        cfg = replace(cfg, format=args.format)
    out = _out_dir(args.out, cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

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
        points = resonance_scan(cfg.drive, cfg.scan_parameter, cfg.scan_values)
        columns = [cfg.scan_parameter, "rotation_angle_rad", "axis_z"]
        rows = [_resonance_row(pt) for pt in points]
        angles = [pt.rotation_angle for pt in points]
        zs = [abs(pt.axis_z) for pt in points]
        summary["rotation_angle_min_at"] = points[int(np.argmin(angles))].value
        summary["axis_z_min_at"] = points[int(np.argmin(zs))].value
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
    path = out / f"sweep_{cfg.kind}.{cfg.format}"
    render = render_table_csv if cfg.format == "csv" else render_series_json
    atomic_write_text(path, render(columns, rows, prov))
    summary["files"] = [str(path)]
    _emit(summary)
    return 0


def cmd_analyze(args) -> int:
    if args.what != "rabi":
        raise ConfigError(f"unknown analysis {args.what!r}; valid: rabi")
    meta, columns, data = read_series(Path(args.series))
    try:
        it, i0, i1 = columns.index("t_ns"), columns.index("P0"), columns.index("P1")
    except ValueError as exc:
        raise ConfigError(f"{args.series}: missing required columns t_ns/P0/P1") from exc
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
    sp.add_argument("--seed", type=int, help="seed of the dephasing ensemble")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (OSError, ValueError, DegenerateDriveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (IntegrationError, NoOscillationError, FitFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
