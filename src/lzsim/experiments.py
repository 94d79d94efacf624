"""Canned, parameterized experiment scenarios with full provenance.

Every run is a `ScenarioSpec` executed by `run_scenario`, which wires the
model, propagator and transfer-matrix layers together and returns an
`ExperimentResult` whose provenance is complete enough to re-run
bit-identically.  `PRESETS` freezes the published figure scenarios, and
`run_figure` runs one and applies that figure's analysis.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .analysis import (_STEP_WINDOW_FRACTION, AdiabaticMask, _least_squares, detect_steps,
                       rabi_frequency, to_adiabatic)
from .model import DriveParameters, QubitState
from .propagator import (
    IntegratorConfig,
    _apply,
    Trajectory,
    evolve,
    evolve_ensemble_dephased,
    passage_transfers,
    rotation_x,
)
from .transfer_matrix import lz_probability, single_period_rotation, stroboscopic_evolve


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


_FAST_DRIVE = dict(delta_mhz=5.57, epsilon_m_mhz=100.0, period_ns=128.0)
_SLOW_DRIVE = dict(delta_mhz=9.60, epsilon_m_mhz=50.4, period_ns=606.0)
_MID_DRIVE = dict(delta_mhz=5.84, epsilon_m_mhz=100.0, period_ns=592.0)

#: Frozen figure presets: the scenario each figure id runs.
PRESETS: dict[str, ScenarioSpec] = {spec.name: spec for spec in (
    # double passages: one period, two crossings, with the impulse overlay
    ScenarioSpec("fig2c", DriveParameters(**_FAST_DRIVE, n_periods=1), method="both",
                 t_end_ns=128.0, sample_every_ns=128.0 / 64),
    ScenarioSpec("fig2d", DriveParameters(**_SLOW_DRIVE, n_periods=1), method="both",
                 t_end_ns=606.0, sample_every_ns=606.0 / 64),
    # long drives
    ScenarioSpec("fig3a", DriveParameters(**_FAST_DRIVE, n_periods=63),
                 t_end_ns=8000.0, sample_every_ns=8.0),
    ScenarioSpec("fig3b", DriveParameters(**_SLOW_DRIVE, n_periods=15),
                 t_end_ns=15 * 606.0, sample_every_ns=606.0 / 16),
    ScenarioSpec("fig3c", DriveParameters(**_SLOW_DRIVE, n_periods=15),
                 t_end_ns=15 * 606.0, sample_every_ns=606.0 / 32),
    ScenarioSpec("fig3d", DriveParameters(**_MID_DRIVE, n_periods=10),
                 t_end_ns=10 * 592.0, sample_every_ns=592.0 / 16),
    # the constructive arm of the constructive vs destructive pair
    ScenarioSpec("fig4", DriveParameters(**_FAST_DRIVE, n_periods=8),
                 t_end_ns=1000.0, sample_every_ns=2.0),
)}

#: fig4's destructive arm: the constructive drive over the same window at this period.
_PERIOD_DESTRUCTIVE_NS = 149.0


@dataclass(frozen=True)
class ExperimentResult:
    """Named series and scalars plus a provenance block echoing the request."""

    name: str
    series: dict[str, Trajectory]
    scalars: dict
    provenance: dict


def provenance(body: dict) -> dict:
    """The provenance block of every output file: a shared header plus ``body``."""
    return {
        "schema_version": 1,
        "generator": f"lzsim {__version__}",
        "numpy_version": np.__version__,
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


def _scenario_provenance(spec: ScenarioSpec, noise_nodes: int | None) -> dict:
    """The scenario's provenance; the integrator's settings only when the dense
    route ran."""
    scenario = {
        "name": spec.name,
        "drive": asdict(spec.drive),
        "method": spec.method,
        "t_end_ns": spec.t_end_ns,
        "sample_every_ns": spec.sample_every_ns,
        "noise": _noise_provenance(spec.noise, noise_nodes),
    }
    if spec.method != "transfer-matrix":
        scenario["integrator"] = asdict(spec.integrator)
    return provenance({"scenario": scenario})


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
                amps = _apply(rotation_x(spec.noise.preparation_rotation), init.as_array())
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
                            _scenario_provenance(spec, nodes))


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
    triangle period) and the transfer probability is read at the apex; all
    periods run as the members of one dense kernel call
    (`passage_transfers`).  The curve is then fitted to
    1 - exp(-pi^2 delta^2 T / (4 eps_m) * 1e-3) to recover the coupling, the
    same extraction used on measured sweep data.  Points are in grid order.
    """
    if not periods_ns:
        raise ValueError("periods_ns must not be empty")
    t_arr = np.array(periods_ns, dtype=float)
    p_arr = passage_transfers(delta_mhz, epsilon_m_mhz, t_arr, cfg)
    points = list(zip(t_arr.tolist(), p_arr.tolist()))

    # d enters only as u = d^2, fitted within u >= 0
    rate = (math.pi**2) * t_arr / (4 * epsilon_m_mhz) * 1e-3

    def residuals(u):
        decay = np.exp(-rate * u[0])
        return 1.0 - decay - p_arr, (rate * decay)[:, None]

    u, resid = _least_squares("coupling fit", residuals, [max(delta_mhz, 0.1)**2], [0.0], [np.inf])
    return LZSweepResult(points, math.sqrt(u[0]), float(np.sqrt(np.mean(resid**2))))


def _double_passage(spec: ScenarioSpec, result: ExperimentResult) -> None:
    """The transfer P1 at the apex, after the first crossing, and the step sizes."""
    ode = result.series["ode"]
    t_apex = spec.drive.period_ns / 2
    result.scalars["first_passage_transfer"] = float(np.interp(t_apex, ode.times, ode.p1))
    result.scalars["step_jumps_p0"] = [s.jump for s in detect_steps(ode, spec.drive)]
    result.scalars["step_window_fraction"] = _STEP_WINDOW_FRACTION


def _rabi_fit(spec: ScenarioSpec, result: ExperimentResult) -> None:
    fit = rabi_frequency(result.series["ode"])
    result.scalars["rabi_frequency_mhz"] = fit.frequency_mhz
    result.scalars["rabi_fit_residual_rms"] = fit.residual_rms


def _adiabatic_overlay(spec: ScenarioSpec, result: ExperimentResult) -> None:
    """The adiabatic-basis series, restricted to samples with |eps| > 3*delta."""
    ode = result.series["ode"]
    mask = AdiabaticMask.build(ode, spec.drive)
    result.series["adiabatic"] = to_adiabatic(ode, spec.drive, mask)
    result.scalars["adiabatic_threshold_ratio"] = mask.threshold_ratio
    result.scalars["adiabatic_kept_samples"] = len(mask.kept_indices)


def _alternating_steps(spec: ScenarioSpec, result: ExperimentResult) -> None:
    jumps = [s.jump for s in detect_steps(result.series["ode"], spec.drive) if s.complete]
    result.scalars["step_jumps_p0"] = jumps
    result.scalars["steps_alternate"] = bool(
        all(a * b < 0 for a, b in zip(jumps[:-1], jumps[1:]))
    )


def _destructive_arm(spec: ScenarioSpec, result: ExperimentResult) -> None:
    """Runs the destructive arm and reports each arm's largest |0> -> |1> conversion."""
    drive = replace(spec.drive, period_ns=_PERIOD_DESTRUCTIVE_NS,
                    n_periods=math.ceil(spec.t_end_ns / _PERIOD_DESTRUCTIVE_NS))
    constructive = result.series.pop("ode")
    destructive = run_scenario(replace(spec, drive=drive)).series["ode"]
    result.series.update(constructive=constructive, destructive=destructive)
    result.scalars.update(
        max_p1_constructive=float(np.max(constructive.p1)),
        max_p1_destructive=float(np.max(destructive.p1)),
        period_constructive_ns=spec.drive.period_ns,
        period_destructive_ns=drive.period_ns,
    )
    result.provenance["destructive_drive"] = asdict(drive)


#: The analysis each figure adds to its scenario's result.
_ANALYSES = {
    "fig2c": _double_passage,
    "fig2d": _double_passage,
    "fig3a": _rabi_fit,
    "fig3c": _adiabatic_overlay,
    "fig3d": _alternating_steps,
    "fig4": _destructive_arm,
}


def run_figure(figure: str) -> ExperimentResult:
    """Run a figure's preset scenario, then that figure's analysis."""
    if figure not in PRESETS:
        raise ValueError(f"unknown figure id {figure!r}; valid: {', '.join(PRESETS)}")
    spec = PRESETS[figure]
    result = run_scenario(spec)
    if figure in _ANALYSES:
        _ANALYSES[figure](spec, result)
    return result
