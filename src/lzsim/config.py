"""Flat key=value run configuration: parsing, validation, canonical echo.

The format is deliberately primitive: one ``key = value`` pair per line,
``#`` comments, no sections, and explicit units inside key names
(delta_mhz, period_ns) because unit mix-ups are this domain's dominant
failure mode.  Unknown keys are errors, not warnings, and everything is
validated before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .experiments import FIGURE_IDS
from .model import DriveParameters
from .propagator import IntegratorConfig


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int(s: str) -> int:
    # past int64 no count can be indexed, and past float range it cannot
    # even be compared with a step size
    value = int(s)
    if abs(value) >= 2**63:
        raise ValueError("must be an integer below 2**63 in magnitude")
    return value


def _parse_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {s!r}")
    return value


def _parse_t2_star(s: str) -> float:
    # +inf is a real value here: T2* = inf drops the dephasing noise
    value = float(s)
    if math.isnan(value) or value == -math.inf:
        raise ValueError(f"must be finite or inf, got {s!r}")
    return value


def _parse_float_list(s: str) -> list[float]:
    values = [_parse_float(tok) for tok in s.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    return values


#: key -> (converter, default); defaults of None mean "absent unless given"
_SIMULATE_SCHEMA = {
    "scenario": (str, None),
    "delta_mhz": (_parse_float, None),
    "epsilon_m_mhz": (_parse_float, None),
    "period_ns": (_parse_float, None),
    "n_periods": (_parse_int, None),
    "t_offset_ns": (_parse_float, 0.0),
    "method": (str, "ode"),
    "t_end_ns": (_parse_float, None),
    "sample_every_ns": (_parse_float, None),
    "steps_per_min_period": (_parse_int, 400),
    "max_step_ns": (_parse_float, None),
    "norm_tolerance": (_parse_float, 1e-8),
    "integrator_method": (str, "fixed-rk4"),
    "t2_star_us": (_parse_t2_star, None),
    "detuning_mhz": (_parse_float, 0.0),
    "preparation_rotation_rad": (_parse_float, 0.0),
    "readout_rotation_rad": (_parse_float, 0.0),
    "report_rabi": (_parse_bool, False),
    # accepted and ignored: the dephasing average is deterministic, and
    # configs written for the earlier Monte Carlo average still carry a seed
    "seed": (_parse_int, None),
    "format": (str, "csv"),
    "out_dir": (str, None),
}

#: the dephasing-ensemble keys, used by the dense route only
_NOISE_KEYS = ("t2_star_us", "detuning_mhz", "preparation_rotation_rad", "readout_rotation_rad")

_SWEEP_SCHEMA = {
    "sweep": (str, None),
    "scan_parameter": (str, "period_ns"),
    "scan_start": (_parse_float, None),
    "scan_stop": (_parse_float, None),
    "scan_points": (_parse_int, None),
    "scan_values": (_parse_float_list, None),
    "period_values_ns": (_parse_float_list, None),
    "delta_mhz": (_parse_float, None),
    "epsilon_m_mhz": (_parse_float, None),
    "period_ns": (_parse_float, None),
    "n_periods": (_parse_int, 1),
    "t_offset_ns": (_parse_float, 0.0),
    "steps_per_min_period": (_parse_int, 400),
    "norm_tolerance": (_parse_float, 1e-8),
    "format": (str, "csv"),
    "out_dir": (str, None),
}


def _parse_pairs(text: str, schema: dict, source: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        conv, _ = schema[key]
        try:
            values[key] = conv(val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key, (_, default) in schema.items():
        values.setdefault(key, default)
    return values


@dataclass(frozen=True)
class RunConfig:
    """Validated simulate-run request: a scenario id or raw drive parameters."""

    scenario: str | None
    drive: DriveParameters | None
    method: str
    t_end_ns: float | None
    sample_every_ns: float | None
    integrator: IntegratorConfig
    t2_star_us: float | None
    detuning_mhz: float
    preparation_rotation_rad: float
    readout_rotation_rad: float
    report_rabi: bool
    format: str
    out_dir: str | None
    raw: dict = field(repr=False, default_factory=dict)


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(text, source=str(path))


def parse_run_config(text: str, source: str = "<config>") -> RunConfig:
    v = _parse_pairs(text, _SIMULATE_SCHEMA, source)
    del v["seed"]

    drive_keys = ("delta_mhz", "epsilon_m_mhz", "period_ns", "n_periods")
    has_drive = any(v[k] is not None for k in drive_keys)
    if v["scenario"] is not None and has_drive:
        raise ConfigError(f"{source}: give either 'scenario' or raw drive keys, not both")
    if v["scenario"] is None and not has_drive:
        raise ConfigError(f"{source}: missing 'scenario' or drive keys {drive_keys}")

    drive = None
    if v["scenario"] is not None:
        if v["scenario"] not in FIGURE_IDS:
            raise ConfigError(
                f"{source}: unknown scenario {v['scenario']!r}; valid: {', '.join(FIGURE_IDS)}"
            )
    else:
        missing = [k for k in drive_keys if v[k] is None and k != "n_periods"]
        if missing:
            raise ConfigError(f"{source}: missing drive keys: {missing}")
        try:
            drive = DriveParameters(
                delta_mhz=v["delta_mhz"],
                epsilon_m_mhz=v["epsilon_m_mhz"],
                period_ns=v["period_ns"],
                n_periods=v["n_periods"] if v["n_periods"] is not None else 1,
                t_offset_ns=v["t_offset_ns"],
            )
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc

    if v["method"] not in ("ode", "transfer-matrix", "both"):
        raise ConfigError(f"{source}: method must be ode|transfer-matrix|both, got {v['method']!r}")
    if v["format"] not in ("csv", "json"):
        raise ConfigError(f"{source}: format must be csv|json, got {v['format']!r}")
    if v["t2_star_us"] is not None and not v["t2_star_us"] > 0:
        raise ConfigError(f"{source}: t2_star_us must be positive, got {v['t2_star_us']}")
    if v["method"] == "transfer-matrix":
        # the impulse model has no noise; the header would record it all the same
        for key in _NOISE_KEYS:
            if v[key] != _SIMULATE_SCHEMA[key][1]:
                raise ConfigError(
                    f"{source}: method = transfer-matrix has no noise model and would "
                    f"ignore {key!r}; use method = ode or both"
                )
    try:
        integrator = IntegratorConfig(
            max_step_ns=v["max_step_ns"],
            steps_per_min_period=v["steps_per_min_period"],
            norm_drift_tolerance=v["norm_tolerance"],
            method=v["integrator_method"],
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    return RunConfig(
        scenario=v["scenario"],
        drive=drive,
        method=v["method"],
        t_end_ns=v["t_end_ns"],
        sample_every_ns=v["sample_every_ns"],
        integrator=integrator,
        t2_star_us=v["t2_star_us"],
        detuning_mhz=v["detuning_mhz"],
        preparation_rotation_rad=v["preparation_rotation_rad"],
        readout_rotation_rad=v["readout_rotation_rad"],
        report_rabi=v["report_rabi"],
        format=v["format"],
        out_dir=v["out_dir"],
        raw=v,
    )


def echo_run_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing the echo reproduces the config."""
    lines = []
    for key in _SIMULATE_SCHEMA:
        value = cfg.raw.get(key)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep request: a resonance scan or an LZ probability sweep."""

    kind: str  # resonance | lz_probability
    drive: DriveParameters
    scan_parameter: str
    scan_values: list[float]
    integrator: IntegratorConfig
    format: str
    out_dir: str | None


def load_sweep_config(path: str | Path) -> SweepConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_sweep_config(text, source=str(path))


def parse_sweep_config(text: str, source: str = "<config>") -> SweepConfig:
    v = _parse_pairs(text, _SWEEP_SCHEMA, source)
    kind = v["sweep"]
    if kind not in ("resonance", "lz_probability"):
        raise ConfigError(f"{source}: sweep must be resonance|lz_probability, got {kind!r}")
    for key in ("delta_mhz", "epsilon_m_mhz"):
        if v[key] is None:
            raise ConfigError(f"{source}: missing key {key!r}")
    if v["format"] not in ("csv", "json"):
        raise ConfigError(f"{source}: format must be csv|json, got {v['format']!r}")

    if kind == "resonance":
        if v["scan_parameter"] not in ("period_ns", "epsilon_m_mhz"):
            raise ConfigError(
                f"{source}: scan_parameter must be period_ns|epsilon_m_mhz, "
                f"got {v['scan_parameter']!r}"
            )
        if v["scan_values"] is not None:
            values = v["scan_values"]
        else:
            if v["scan_start"] is None or v["scan_stop"] is None or v["scan_points"] is None:
                raise ConfigError(
                    f"{source}: resonance sweep needs scan_values or scan_start/scan_stop/scan_points"
                )
            n = v["scan_points"]
            if n < 1:
                raise ConfigError(f"{source}: scan_points must be >= 1, got {n}")
            if n == 1:
                values = [v["scan_start"]]
            else:
                step = (v["scan_stop"] - v["scan_start"]) / (n - 1)
                values = [v["scan_start"] + i * step for i in range(n)]
        scan_parameter = v["scan_parameter"]
        if v["period_ns"] is None and scan_parameter != "period_ns":
            raise ConfigError(f"{source}: missing key 'period_ns'")
    else:
        values = v["period_values_ns"]
        if not values:
            raise ConfigError(f"{source}: lz_probability sweep needs period_values_ns")
        scan_parameter = "period_ns"
    if not values:
        raise ConfigError(f"{source}: empty scan grid")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{source}: scan grid from scan_start/scan_stop is not finite")

    period = v["period_ns"] if v["period_ns"] is not None else values[0]
    try:
        drive = DriveParameters(
            delta_mhz=v["delta_mhz"],
            epsilon_m_mhz=v["epsilon_m_mhz"],
            period_ns=period,
            n_periods=v["n_periods"],
            t_offset_ns=v["t_offset_ns"],
        )
        integrator = IntegratorConfig(
            steps_per_min_period=v["steps_per_min_period"],
            norm_drift_tolerance=v["norm_tolerance"],
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    return SweepConfig(
        kind=kind,
        drive=drive,
        scan_parameter=scan_parameter,
        scan_values=values,
        integrator=integrator,
        format=v["format"],
        out_dir=v["out_dir"],
    )
