"""Which lzsim functions the traced run wraps, and the per-layer metrics of a pass.

Layers are the package's modules.  ``model`` gets no wrapper: ``epsilon_at``
and ``eigenbasis_at`` are called 10^4-10^5 times per pass from inside the hot
loops through names bound at import, so a wrapper there would mostly measure
itself; their cost shows in the self time of the propagator and
transfer_matrix spans.  ``errors`` does no work.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import Tracer, self_time_by_name


def _drive(args, kwargs):
    return args[0] if args else kwargs["p"]


def _trajectory(tracer, args, kwargs, traj):
    tracer.counts["propagator.samples"] += len(traj)
    drift = float(np.max(np.abs(traj.p0 + traj.p1 - 1.0)))
    tracer.counts["propagator.max_norm_drift"] = max(
        tracer.counts["propagator.max_norm_drift"], drift)


def _evolve(tracer, args, kwargs, traj):
    _trajectory(tracer, args, kwargs, traj)
    tracer.counts["propagator.periods"] += (traj.times[-1] - traj.times[0]) / _drive(
        args, kwargs).period_ns


def _scan(tracer, args, kwargs, points):
    tracer.counts["transfer_matrix.scan_points"] += len(points)


def _series_rows(tracer, args, kwargs, _):
    tracer.counts["seriesio.rows_written"] += len(args[1] if len(args) > 1 else kwargs["traj"])


def _table_rows(tracer, args, kwargs, _):
    tracer.counts["seriesio.rows_written"] += len(args[1] if len(args) > 1 else kwargs["rows"])


def _bytes_read(tracer, args, kwargs, _):
    tracer.counts["seriesio.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


#: (module, function, on_return hook) wrapped with a span.
TIMED = (
    ("lzsim.cli", "main", None),
    ("lzsim.config", "load_run_config", None),
    ("lzsim.config", "load_sweep_config", None),
    ("lzsim.experiments", "run_figure", None),
    ("lzsim.experiments", "run_scenario", None),
    ("lzsim.experiments", "run_lz_probability_sweep", None),
    ("lzsim.propagator", "evolve", _evolve),
    ("lzsim.propagator", "evolve_ensemble_dephased", _trajectory),
    ("lzsim.transfer_matrix", "resonance_scan", _scan),
    ("lzsim.transfer_matrix", "single_period_rotation", None),
    ("lzsim.transfer_matrix", "stroboscopic_evolve", None),
    ("lzsim.seriesio", "write_series", _series_rows),
    ("lzsim.seriesio", "render_table_csv", _table_rows),
    ("lzsim.seriesio", "read_series", _bytes_read),
    ("lzsim.analysis", "rabi_frequency", None),
    ("lzsim.analysis", "to_adiabatic", None),
    ("lzsim.analysis", "detect_steps", None),
)

CALL_COUNTS = ("propagator.evolve", "transfer_matrix.single_period_rotation")
COUNTS = ("propagator.samples", "propagator.max_norm_drift", "transfer_matrix.scan_points",
          "seriesio.rows_written", "seriesio.bytes_written", "seriesio.bytes_read")


def install(tracer: Tracer) -> None:
    for module, attr, hook in TIMED:
        if not tracer.install(module, attr, hook):
            raise RuntimeError(f"{module}.{attr} is bound nowhere in the package")


def count_written(tracer: Tracer, pass_dir: Path) -> None:
    """``seriesio.bytes_written``: every file of a pass is written under its directory."""
    tracer.counts["seriesio.bytes_written"] = float(
        sum(path.stat().st_size for path in pass_dir.rglob("*") if path.is_file()))


def pass_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans and counts of that pass only)."""
    own = self_time_by_name(spans)
    out = {f"{module.rpartition('.')[2]}.{attr}.self_s": own.get(
        f"{module.rpartition('.')[2]}.{attr}", 0.0) for module, attr, _ in TIMED}
    calls = defaultdict(int)
    evolve_busy = 0.0
    for name, start, end, _, _ in spans:
        calls[name] += 1
        if name == "propagator.evolve":
            evolve_busy += end - start
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = float(calls[name])
    for name in COUNTS:
        out[name] = float(counts.get(name, 0.0))
    periods = counts.get("propagator.periods", 0.0)
    out["propagator.periods_per_busy_s"] = periods / evolve_busy if evolve_busy > 0 else 0.0
    return out
