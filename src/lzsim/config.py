"""Flat key=value run configuration: parsing and validation.

The format is deliberately primitive: one ``key = value`` pair per line,
``#`` comments, no sections, and explicit units inside key names
(delta_mhz, period_ns) because unit mix-ups are this domain's dominant
failure mode.  Unknown keys are errors, not warnings, and everything is
validated before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .experiments import PRESETS, NoiseSpec, ScenarioSpec
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
    if not value > 0:
        raise ValueError(f"must be positive or inf, got {s!r}")
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
    "t_offset_ns": (_parse_float, None),
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

#: the dephasing-ensemble keys: the dense route applies them, the last three
#: only together with t2_star_us
_NOISE_KEYS = ("t2_star_us", "detuning_mhz", "preparation_rotation_rad", "readout_rotation_rad")

#: the dense integrator's keys: method = transfer-matrix runs no integrator
_INTEGRATOR_KEYS = ("steps_per_min_period", "max_step_ns", "norm_tolerance", "integrator_method")

#: a resonance sweep peaks at about 320 bytes per point, so this is about 330 MB;
#: checked before the grid is built, and also bounds the lists ``scan_values``
#: and ``period_values_ns``
_MAX_SCAN_POINTS = 1 << 20

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
    "t_offset_ns": (_parse_float, 0.0),
    "steps_per_min_period": (_parse_int, 400),
    "norm_tolerance": (_parse_float, 1e-8),
    "format": (str, "csv"),
    "out_dir": (str, None),
}

#: the keys each sweep kind ignores, refused unless at their defaults (the header records them)
_SWEEP_IGNORED = {
    "resonance": ("period_values_ns", "steps_per_min_period", "norm_tolerance"),
    "lz_probability": ("scan_parameter", "scan_start", "scan_stop", "scan_points",
                       "scan_values", "period_ns", "t_offset_ns"),
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
    """Validated simulate-run request: the scenario it runs and how to write it."""

    spec: ScenarioSpec
    report_rabi: bool
    format: str
    out_dir: str | None


def _read_config(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    return parse_run_config(_read_config(path), source=str(path))


def parse_run_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse a simulate config into the scenario it runs.

    A ``scenario`` id resolves to its preset's drive, and to the preset's
    ``t_end_ns`` and ``sample_every_ns`` unless those are given.
    """
    v = _parse_pairs(text, _SIMULATE_SCHEMA, source)

    drive_keys = ("delta_mhz", "epsilon_m_mhz", "period_ns", "n_periods", "t_offset_ns")
    if v["format"] not in ("csv", "json"):
        raise ConfigError(f"{source}: format must be csv|json, got {v['format']!r}")
    for key in _NOISE_KEYS:
        if v[key] == _SIMULATE_SCHEMA[key][1]:
            continue
        if v["method"] == "transfer-matrix":
            # the impulse model has no noise; the header would record it all the same
            raise ConfigError(
                f"{source}: method = transfer-matrix has no noise model and would "
                f"ignore {key!r}; use method = ode or both"
            )
        if v["t2_star_us"] is None:
            raise ConfigError(
                f"{source}: {key!r} applies only to the dephasing ensemble; set t2_star_us, "
                f"or t2_star_us = inf to apply it without dephasing noise"
            )
    # the header records the integrator only when it runs
    changed = [k for k in _INTEGRATOR_KEYS if v[k] != _SIMULATE_SCHEMA[k][1]]
    if changed and v["method"] == "transfer-matrix":
        raise ConfigError(
            f"{source}: method = transfer-matrix runs no integrator and would "
            f"ignore {changed[0]!r}; use method = ode or both"
        )
    if v["report_rabi"] and v["method"] == "transfer-matrix":
        # the fit reads the dense series, which the impulse model does not make
        raise ConfigError(
            f"{source}: method = transfer-matrix has no dense series and would "
            "ignore 'report_rabi'; use method = ode or both"
        )

    if v["scenario"] is not None:
        name = v["scenario"]
        if any(v[k] is not None for k in drive_keys):
            raise ConfigError(f"{source}: give either 'scenario' or raw drive keys, not both")
        if name not in PRESETS:
            raise ConfigError(f"{source}: unknown scenario {name!r}; valid: {', '.join(PRESETS)}")
        if name == "fig4":
            raise ConfigError(f"{source}: scenario fig4 is a two-arm comparison; "
                              "use 'reproduce fig4'")
        preset = PRESETS[name]
        drive = preset.drive
        for key in ("t_end_ns", "sample_every_ns"):
            if v[key] is None:
                v[key] = getattr(preset, key)
    else:
        name, drive = "custom", None
        missing = [k for k in ("delta_mhz", "epsilon_m_mhz", "period_ns") if v[k] is None]
        if missing:
            raise ConfigError(f"{source}: missing 'scenario' or drive keys {missing}")

    noise = None
    if v["t2_star_us"] is not None:
        noise = NoiseSpec(
            t2_star_us=v["t2_star_us"],
            detuning_mhz=v["detuning_mhz"],
            preparation_rotation=v["preparation_rotation_rad"],
            readout_rotation=v["readout_rotation_rad"],
        )
    try:
        if drive is None:
            # the absent optional keys take the DriveParameters defaults
            drive = DriveParameters(**{k: v[k] for k in drive_keys if v[k] is not None})
        spec = ScenarioSpec(
            name=name,
            drive=drive,
            method=v["method"],
            t_end_ns=v["t_end_ns"],
            sample_every_ns=v["sample_every_ns"],
            noise=noise,
            integrator=IntegratorConfig(
                max_step_ns=v["max_step_ns"],
                steps_per_min_period=v["steps_per_min_period"],
                norm_drift_tolerance=v["norm_tolerance"],
                method=v["integrator_method"],
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return RunConfig(spec, v["report_rabi"], v["format"], v["out_dir"])


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
    return parse_sweep_config(_read_config(path), source=str(path))


def parse_sweep_config(text: str, source: str = "<config>") -> SweepConfig:
    v = _parse_pairs(text, _SWEEP_SCHEMA, source)
    kind = v["sweep"]
    if kind not in ("resonance", "lz_probability"):
        raise ConfigError(f"{source}: sweep must be resonance|lz_probability, got {kind!r}")
    for key in _SWEEP_IGNORED[kind]:
        if v[key] != _SWEEP_SCHEMA[key][1]:
            raise ConfigError(f"{source}: sweep = {kind} would ignore {key!r}; leave it out")
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
            if any(v[key] is not None for key in ("scan_start", "scan_stop", "scan_points")):
                raise ConfigError(f"{source}: give either scan_values or "
                                  "scan_start/scan_stop/scan_points, not both")
            values = v["scan_values"]
            if len(values) > _MAX_SCAN_POINTS:
                raise ConfigError(f"{source}: scan_values holds {len(values)} values; "
                                  f"at most {_MAX_SCAN_POINTS}")
        else:
            if v["scan_start"] is None or v["scan_stop"] is None or v["scan_points"] is None:
                raise ConfigError(
                    f"{source}: resonance sweep needs scan_values or scan_start/scan_stop/scan_points"
                )
            n = v["scan_points"]
            if not 1 <= n <= _MAX_SCAN_POINTS:
                raise ConfigError(
                    f"{source}: scan_points must be in 1..{_MAX_SCAN_POINTS}, got {n}")
            if n == 1:
                values = [v["scan_start"]]
            else:
                step = (v["scan_stop"] - v["scan_start"]) / (n - 1)
                values = [v["scan_start"] + i * step for i in range(n)]
        if v["period_ns"] is None and v["scan_parameter"] != "period_ns":
            raise ConfigError(f"{source}: missing key 'period_ns'")
    else:
        values = v["period_values_ns"]
        if not values:
            raise ConfigError(f"{source}: lz_probability sweep needs period_values_ns")
        if len(values) > _MAX_SCAN_POINTS:
            raise ConfigError(f"{source}: period_values_ns holds {len(values)} values; "
                              f"at most {_MAX_SCAN_POINTS}")
        if v["epsilon_m_mhz"] == 0:  # the coupling fit divides by it
            raise ConfigError(f"{source}: no crossings: an lz_probability sweep needs "
                              "epsilon_m_mhz > 0")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{source}: scan grid from scan_start/scan_stop is not finite")

    period = v["period_ns"] if v["period_ns"] is not None else values[0]
    try:
        drive = DriveParameters(
            delta_mhz=v["delta_mhz"],
            epsilon_m_mhz=v["epsilon_m_mhz"],
            period_ns=period,
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
        scan_parameter=v["scan_parameter"],
        scan_values=values,
        integrator=integrator,
        format=v["format"],
        out_dir=v["out_dir"],
    )
