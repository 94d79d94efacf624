"""Canned, parameterized experiment scenarios with full provenance.

Each runner wires the model, propagator, transfer-matrix and analysis layers
into a named scenario and returns an `ExperimentResult` whose provenance is
complete enough to re-run bit-identically.  The figure presets freeze the
published drive-parameter sets; overriding any of them derives a new scenario
name so golden outputs are never silently invalidated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .analysis import AdiabaticMask, detect_steps, rabi_frequency, to_adiabatic
from .errors import FitFailureError
from .model import DriveParameters, QubitState
from .propagator import (
    IntegratorConfig,
    Trajectory,
    evolve,
    evolve_ensemble_dephased,
    rotation_x,
)
from .transfer_matrix import lz_probability, single_period_rotation, stroboscopic_evolve

FIGURE_IDS = ("fig2c", "fig2d", "fig3a", "fig3b", "fig3c", "fig3d", "fig4")

_FAST_DRIVE = dict(delta_mhz=5.57, epsilon_m_mhz=100.0, period_ns=128.0)
_SLOW_DRIVE = dict(delta_mhz=9.60, epsilon_m_mhz=50.4, period_ns=606.0)
_MID_DRIVE = dict(delta_mhz=5.84, epsilon_m_mhz=100.0, period_ns=592.0)

#: Frozen figure presets: drive, duration and sampling of each scenario.
PRESETS: dict[str, dict] = {
    # double passages: one period, two crossings
    "fig2c": dict(drive=dict(_FAST_DRIVE, n_periods=1), t_end_ns=128.0,
                  sample_every_ns=128.0 / 64, regime="fast"),
    "fig2d": dict(drive=dict(_SLOW_DRIVE, n_periods=1), t_end_ns=606.0,
                  sample_every_ns=606.0 / 64, regime="slow"),
    # long drives
    "fig3a": dict(drive=dict(_FAST_DRIVE, n_periods=63), t_end_ns=8000.0,
                  sample_every_ns=8.0),
    "fig3b": dict(drive=dict(_SLOW_DRIVE, n_periods=15), t_end_ns=15 * 606.0,
                  sample_every_ns=606.0 / 16),
    "fig3c": dict(drive=dict(_SLOW_DRIVE, n_periods=15), t_end_ns=15 * 606.0,
                  sample_every_ns=606.0 / 32),
    "fig3d": dict(drive=dict(_MID_DRIVE, n_periods=10), t_end_ns=10 * 592.0,
                  sample_every_ns=592.0 / 16),
    # constructive vs destructive pair over the same window
    "fig4": dict(drive=dict(_FAST_DRIVE, n_periods=8), t_end_ns=1000.0,
                 sample_every_ns=2.0, period_destructive_ns=149.0),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Quasi-static dephasing ensemble configuration.

    ``preparation_rotation`` and ``readout_rotation`` are instantaneous
    x-rotations (radians) applied to |0> before the evolution and to every
    member before populations are read; pi/2 for both gives a standard
    free-induction (Ramsey) sequence.
    """

    t2_star_us: float
    detuning_mhz: float = 0.0
    preparation_rotation: float = 0.0
    readout_rotation: float = 0.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully determined simulation request."""

    name: str
    drive: DriveParameters
    method: str = "ode"  # ode | transfer-matrix | both
    t_end_ns: float | None = None
    sample_every_ns: float | None = None
    noise: NoiseSpec | None = None
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        if self.method not in ("ode", "transfer-matrix", "both"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class ExperimentResult:
    """Named series and scalars plus a provenance block echoing the request."""

    name: str
    series: dict[str, Trajectory]
    scalars: dict
    provenance: dict


@functools.cache
def _scipy_version() -> str:
    """The installed scipy's version, read from its package metadata: importing
    scipy itself would cost more than most runs."""
    from importlib.metadata import version

    return version("scipy")


def provenance(body: dict) -> dict:
    """The provenance block of every output file: a shared header plus ``body``."""
    return {
        "schema_version": 1,
        "generator": f"lzsim {__version__}",
        "numpy_version": np.__version__,
        "scipy_version": _scipy_version(),
        **body,
    }


def _noise_provenance(noise: NoiseSpec | None, nodes: int | None) -> dict | None:
    """The noise request plus ``nodes``, the quadrature nodes of the dephasing
    average when it ran.  T2* = inf is written as the string "inf": JSON has no
    inf, and the string reads back through the ``t2_star_us`` parser."""
    if noise is None:
        return None
    block = asdict(noise)
    if math.isinf(noise.t2_star_us):
        block["t2_star_us"] = "inf"
    if nodes is not None:
        block["nodes"] = nodes
    return block


def _scenario_provenance(spec: ScenarioSpec, extra: dict | None = None,
                         noise_nodes: int | None = None) -> dict:
    return provenance({
        "scenario": {
            "name": spec.name,
            "drive": asdict(spec.drive),
            "method": spec.method,
            "t_end_ns": spec.t_end_ns,
            "sample_every_ns": spec.sample_every_ns,
            "noise": _noise_provenance(spec.noise, noise_nodes),
            "integrator": asdict(spec.integrator),
        },
        **(extra or {}),
    })


def run_scenario(spec: ScenarioSpec) -> ExperimentResult:
    """Execute a scenario: dense ODE, transfer-matrix strobe, or both.

    With method='both' a comparison is reported: the maximum absolute P0
    difference at the stroboscopic sample instants that fall on the ODE grid.
    """
    drive = spec.drive
    t_end = spec.t_end_ns if spec.t_end_ns is not None else drive.total_time_ns
    series: dict[str, Trajectory] = {}
    scalars: dict = {}

    if spec.method in ("ode", "both"):
        if spec.noise is not None:
            init = QubitState.ket0()
            if spec.noise.preparation_rotation:
                amps = rotation_x(spec.noise.preparation_rotation) @ init.as_array()
                init = QubitState(complex(amps[0]), complex(amps[1]))
            series["ode"] = evolve_ensemble_dephased(
                drive, spec.integrator,
                t2_star_us=spec.noise.t2_star_us,
                initial=init,
                t_span=(0.0, t_end),
                sample_every=spec.sample_every_ns,
                detuning_mhz=spec.noise.detuning_mhz,
                readout_rotation=spec.noise.readout_rotation,
            )
        else:
            series["ode"] = evolve(
                drive, spec.integrator,
                t_span=(0.0, t_end),
                sample_every=spec.sample_every_ns,
            )
    if spec.method in ("transfer-matrix", "both"):
        n = max(1, int(t_end / drive.period_ns))
        series["transfer_matrix"] = stroboscopic_evolve(drive, n)
        rot = single_period_rotation(drive)
        scalars["g1_rotation_angle_rad"] = rot.rotation_angle
        scalars["g1_axis"] = [float(c) for c in rot.axis]

    if drive.epsilon_m_mhz > 0:
        scalars["p_lz"] = lz_probability(drive)

    if spec.method == "both":
        ode, strob = series["ode"], series["transfer_matrix"]
        common = strob.times[(strob.times >= ode.times[0]) & (strob.times <= ode.times[-1])]
        ode_p0 = np.interp(common, ode.times, ode.p0)
        strob_p0 = np.interp(common, strob.times, strob.p0)
        scalars["method_max_p0_diff"] = float(np.max(np.abs(ode_p0 - strob_p0)))

    nodes = series["ode"].noise_nodes if "ode" in series else None
    return ExperimentResult(spec.name, series, scalars,
                            _scenario_provenance(spec, noise_nodes=nodes))


def _make_drive(preset: dict) -> DriveParameters:
    return DriveParameters(**preset["drive"])


def run_double_passage(regime: str, drive: DriveParameters | None = None) -> ExperimentResult:
    """One drive period (two crossings) in the fast or slow passage regime.

    The drive defaults to the matching long-drive parameter class; the
    substitution is visible in the provenance.  Scalars report the
    single-passage transfer P1 at the apex (after the full crossing region)
    and the per-crossing step sizes.
    """
    if regime not in ("fast", "slow"):
        raise ValueError(f"regime must be 'fast' or 'slow', got {regime!r}")
    preset_name = "fig2c" if regime == "fast" else "fig2d"
    preset = PRESETS[preset_name]
    drive = drive or _make_drive(preset)
    crossings = 2 * drive.n_periods
    if crossings != 2:
        raise ValueError(f"double passage needs exactly one period, got {drive.n_periods}")
    spec = ScenarioSpec(
        name=preset_name if drive == _make_drive(preset) else f"double-passage-{regime}-custom",
        drive=drive,
        # the impulse overlay is meaningless without a gap
        method="both" if drive.delta_mhz > 0 else "ode",
        t_end_ns=drive.period_ns,
        sample_every_ns=drive.period_ns / 64,
    )
    result = run_scenario(spec)
    ode = result.series["ode"]
    t_apex = drive.period_ns / 2
    result.scalars["first_passage_transfer"] = float(np.interp(t_apex, ode.times, ode.p1))
    steps = detect_steps(ode, drive)
    result.scalars["step_jumps_p0"] = [s.jump for s in steps]
    result.scalars["step_window_fraction"] = 0.1
    return result


def run_long_drive(figure: str, overrides: dict | None = None) -> ExperimentResult:
    """A long-drive figure scenario (fig3a..fig3d), optionally overridden.

    fig3c additionally reports the adiabatic-basis series restricted to
    samples with |eps| > 3*delta.  Overrides derive a new scenario name.
    """
    if figure not in ("fig3a", "fig3b", "fig3c", "fig3d"):
        raise ValueError(f"figure must be fig3a..fig3d, got {figure!r}")
    preset = PRESETS[figure]
    drive_kwargs = dict(preset["drive"])
    t_end = preset["t_end_ns"]
    sample_every = preset["sample_every_ns"]
    name = figure
    if overrides:
        unknown = set(overrides) - set(drive_kwargs) - {"t_end_ns", "sample_every_ns"}
        if unknown:
            raise ValueError(f"unknown overrides: {sorted(unknown)}")
        t_end = overrides.get("t_end_ns", t_end)
        sample_every = overrides.get("sample_every_ns", sample_every)
        for k in drive_kwargs:
            if k in overrides:
                drive_kwargs[k] = overrides[k]
        name = figure + "+" + ",".join(f"{k}={overrides[k]}" for k in sorted(overrides))
    drive = DriveParameters(**drive_kwargs)
    spec = ScenarioSpec(name=name, drive=drive, method="ode",
                        t_end_ns=t_end, sample_every_ns=sample_every)
    result = run_scenario(spec)
    ode = result.series["ode"]

    if figure == "fig3a":
        fit = rabi_frequency(ode)
        result.scalars["rabi_frequency_mhz"] = fit.frequency_mhz
        result.scalars["rabi_fit_residual_rms"] = fit.residual_rms
    if figure == "fig3c":
        mask = AdiabaticMask.build(ode, drive)
        result.series["adiabatic"] = to_adiabatic(ode, drive, mask)
        result.scalars["adiabatic_threshold_ratio"] = mask.threshold_ratio
        result.scalars["adiabatic_kept_samples"] = len(mask.kept_indices)
    if figure == "fig3d":
        steps = [s for s in detect_steps(ode, drive) if s.complete]
        jumps = [s.jump for s in steps]
        result.scalars["step_jumps_p0"] = jumps
        result.scalars["steps_alternate"] = bool(
            all(a * b < 0 for a, b in zip(jumps[:-1], jumps[1:]))
        )
    return result


def run_cdt_comparison() -> ExperimentResult:
    """Constructive vs destructive interference over the same 1 us window.

    Two runs at the fast-passage drive parameters differing only in the
    period (128 ns vs 149 ns); scalars report the maximum |0> -> |1>
    conversion of each arm.
    """
    preset = PRESETS["fig4"]
    t_end = preset["t_end_ns"]
    sample_every = preset["sample_every_ns"]
    drive_c = DriveParameters(**preset["drive"])
    dk = dict(preset["drive"])
    dk["period_ns"] = preset["period_destructive_ns"]
    dk["n_periods"] = math.ceil(t_end / dk["period_ns"])
    drive_d = DriveParameters(**dk)

    spec = ScenarioSpec(name="fig4", drive=drive_c, method="ode",
                        t_end_ns=t_end, sample_every_ns=sample_every)
    constructive = evolve(drive_c, spec.integrator, t_span=(0, t_end), sample_every=sample_every)
    destructive = evolve(drive_d, spec.integrator, t_span=(0, t_end), sample_every=sample_every)
    scalars = {
        "p_lz": lz_probability(drive_c),
        "max_p1_constructive": float(np.max(constructive.p1)),
        "max_p1_destructive": float(np.max(destructive.p1)),
        "period_constructive_ns": drive_c.period_ns,
        "period_destructive_ns": drive_d.period_ns,
    }
    prov = _scenario_provenance(spec, {"destructive_drive": asdict(drive_d)})
    return ExperimentResult(
        "fig4",
        {"constructive": constructive, "destructive": destructive},
        scalars,
        prov,
    )


@dataclass(frozen=True)
class LZSweepResult:
    """Single-passage transfer vs sweep period, with the coupling fit."""

    points: list[tuple[float, float]]
    delta_fit_mhz: float
    fit_residual_rms: float


def run_lz_probability_sweep(
    delta_mhz: float,
    epsilon_m_mhz: float,
    periods_ns: list[float],
    cfg: IntegratorConfig | None = None,
) -> LZSweepResult:
    """Single-passage |0> -> |1> transfer vs sweep period, via the ODE.

    For each period the state is swept once through the crossing (half a
    triangle period) and the transfer probability is read at the apex.  The
    curve is then fitted to 1 - exp(-pi^2 delta^2 T / (4 eps_m) * 1e-3) to
    recover the coupling, the same extraction used on measured sweep data.
    Points are evaluated in grid order.
    """
    if not periods_ns:
        raise ValueError("periods_ns must not be empty")
    cfg = cfg or IntegratorConfig()
    points = []
    for T in map(float, periods_ns):
        drive = DriveParameters(delta_mhz, epsilon_m_mhz, T, n_periods=1)
        traj = evolve(drive, cfg, t_span=(0.0, T / 2), sample_every=T / 2)
        points.append((T, float(traj.p1[-1])))

    t_arr = np.array([pt[0] for pt in points])
    p_arr = np.array([pt[1] for pt in points])

    def model(T, d):
        return 1.0 - np.exp(-(math.pi**2) * d * d * T / (4 * epsilon_m_mhz) * 1e-3)

    from scipy.optimize import curve_fit

    try:
        popt, _ = curve_fit(model, t_arr, p_arr, p0=[max(delta_mhz, 0.1)], maxfev=10000)
    except (RuntimeError, ValueError) as exc:
        raise FitFailureError(f"coupling fit failed: {exc}") from exc
    resid = p_arr - model(t_arr, *popt)
    return LZSweepResult(points, float(abs(popt[0])), float(np.sqrt(np.mean(resid**2))))


def run_figure(figure: str) -> ExperimentResult:
    """Dispatch a figure id to its runner."""
    if figure not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure!r}; valid: {', '.join(FIGURE_IDS)}")
    if figure in ("fig2c", "fig2d"):
        return run_double_passage("fast" if figure == "fig2c" else "slow")
    if figure == "fig4":
        return run_cdt_comparison()
    return run_long_drive(figure)
