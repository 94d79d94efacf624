"""Self-tests of the benchmark: output checks fire on corrupted output, spans add up.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_time_by_name, self_times  # noqa: E402


def write_table(path: Path, columns, rows) -> None:
    lines = ["# lzsim-series schema=1", ",".join(columns)]
    lines += [",".join("" if x is None else repr(float(x)) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def rewrite_cell(path: Path, row: int, column: str, value: str) -> None:
    """Replace one cell of a CSV series (row counts data rows from 0)."""
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    j = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[j] = value
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


# --- spans ------------------------------------------------------------------


def test_self_times_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 8.0, 11.0, 0, 0],  # overlaps b and outlives its parent
        ["a", 12.0, 13.0, None, 1],
    ]
    # root: 10 - (a: 3) - (b and c cover 5..10: 5) = 2
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0, 1.0])
    assert self_time_by_name(spans) == pytest.approx(
        {"root": 2.0, "a": 3.0, "a1": 1.0, "b": 4.0, "c": 3.0})


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    import lzsim.experiments
    import lzsim.propagator

    original = lzsim.propagator.evolve
    tracer = Tracer("lzsim")
    layers.install(tracer)
    try:
        assert lzsim.experiments.evolve is lzsim.propagator.evolve is not original
        lzsim.experiments.run_lz_probability_sweep(5.57, 100.0, [40.0, 80.0, 120.0])
    finally:
        tracer.uninstall()
    assert lzsim.experiments.evolve is lzsim.propagator.evolve is original
    names = [s[0] for s in tracer.spans]
    assert names == ["experiments.run_lz_probability_sweep"] + ["propagator.evolve"] * 3
    assert all(s[3] == 0 for s in tracer.spans[1:])
    (tmp_path / "request").mkdir()
    text = "t_ns,P0\n0.0,1.0\n"
    (tmp_path / "request" / "series.csv").write_text(text)
    layers.count_written(tracer, tmp_path)
    metrics = layers.pass_metrics(tracer.spans, tracer.counts)
    assert metrics["seriesio.bytes_written"] == len(text)
    assert metrics["propagator.evolve.calls"] == 3
    assert metrics["propagator.samples"] == 6
    assert metrics["propagator.periods_per_busy_s"] > 0
    assert metrics["experiments.run_lz_probability_sweep.self_s"] > 0


def test_layer_map_covers_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())["metrics"]
    assert list(layer_map) == [m["name"] for m in spec["per_layer"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(workloads.NAMES)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


# --- output checks ----------------------------------------------------------


def preset_outputs(tmp_path: Path, fig: str) -> Path:
    """The recorded outputs of one preset, as a pass would write them."""
    out = tmp_path / fig
    out.mkdir(parents=True)
    for ref in (checks.REF / "presets").glob(f"{fig}_*.gz"):
        with gzip.open(ref, "rb") as fh:
            (out / ref.name[:-3]).write_bytes(fh.read())
    return out


@pytest.mark.parametrize("fig", list(workloads.PRESET_PERIODS))
def test_preset_check_accepts_recorded_outputs(tmp_path, fig):
    checks.check_preset(fig, preset_outputs(tmp_path, fig), ROOT)


def test_preset_check_rejects_perturbed_golden_value(tmp_path):
    out = preset_outputs(tmp_path, "fig2c")
    rewrite_cell(out / "fig2c_ode_series.csv", 10, "P0", "0.5")
    assert rejects(checks.check_preset, "fig2c", out, ROOT)

    out = preset_outputs(tmp_path, "fig4")
    path = out / "fig4_scalars.json"
    doc = json.loads(path.read_text())
    doc["scalars"]["max_p1_destructive"] += 1e-7
    path.write_text(json.dumps(doc))
    assert rejects(checks.check_preset, "fig4", out, ROOT)


def test_preset_check_rejects_dense_drift_and_empty_cells(tmp_path):
    out = preset_outputs(tmp_path, "fig3a")
    series = out / "fig3a_series.csv"
    value = float(checks.read_table(series)[1][500, 1])
    rewrite_cell(series, 500, "P0", repr(value + 2e-9))
    assert rejects(checks.check_preset, "fig3a", out, ROOT)

    out = preset_outputs(tmp_path, "fig3c")
    columns, data = checks.read_table(out / "fig3c_series.csv")
    masked = int(np.flatnonzero(np.isnan(data[:, columns.index("P_adiab_g")]))[0])
    rewrite_cell(out / "fig3c_series.csv", masked, "P_adiab_g", "0.5")
    assert rejects(checks.check_preset, "fig3c", out, ROOT)


def test_preset_check_rejects_empty_impulse_cell(tmp_path):
    out = preset_outputs(tmp_path, "fig2c")
    rewrite_cell(out / "fig2c_transfer_matrix_series.csv", 1, "P1", "")
    assert rejects(checks.check_preset, "fig2c", out, ROOT)


def strobe_series(path: Path, n_rows: int) -> None:
    t = np.arange(n_rows) * 64.0
    p0 = np.cos(t / 5000.0) ** 2
    write_table(path, ["t_ns", "P0", "P1", "epsilon_MHz"],
                np.column_stack([t, p0, 1 - p0, np.zeros(n_rows)]))


def test_impulse_checks_reject_empty_cell_and_bad_rotation(tmp_path):
    wl = workloads.build("impulse", 1)
    strobe = tmp_path / "strobe"
    strobe.mkdir()
    strobe_series(strobe / "custom_series.csv", 2 * workloads.IMPULSE_PERIODS + 1)
    summary = json.dumps({"g1_rotation_angle_rad": 0.1, "g1_axis": [0.6, 0.8, 0.0]})
    checks.check_request(wl, "strobe", strobe, summary, ROOT, {})
    bad = json.dumps({"g1_rotation_angle_rad": 3.5, "g1_axis": [0.6, 0.8, 0.0]})
    assert rejects(checks.check_request, wl, "strobe", strobe, bad, ROOT, {})
    rewrite_cell(strobe / "custom_series.csv", 7, "P0", "")
    assert rejects(checks.check_request, wl, "strobe", strobe, summary, ROOT, {})

    scan = tmp_path / "scan_period_ns"
    scan.mkdir()
    n = workloads.RESONANCE_POINTS
    grid = 100.0 + 100.0 / (n - 1) * np.arange(n)
    write_table(scan / "sweep_resonance.csv", ["period_ns", "rotation_angle_rad", "axis_z"],
                np.column_stack([grid, np.linspace(0, math.pi, n), np.linspace(-1, 1, n)]))
    checks.check_request(wl, "scan_period_ns", scan, "", ROOT, {})
    rewrite_cell(scan / "sweep_resonance.csv", 42, "rotation_angle_rad", "3.3")  # > pi
    assert rejects(checks.check_request, wl, "scan_period_ns", scan, "", ROOT, {})
    rewrite_cell(scan / "sweep_resonance.csv", 42, "rotation_angle_rad", "1.0")
    rewrite_cell(scan / "sweep_resonance.csv", 43, "axis_z", "1.01")
    assert rejects(checks.check_request, wl, "scan_period_ns", scan, "", ROOT, {})


def test_passages_check_uses_reference_and_fit(tmp_path):
    wl = workloads.build("passages", 7)
    refs = checks.load_references("passages")
    periods = wl.params["periods"]
    write_table(tmp_path / "sweep_lz_probability.csv", ["period_ns", "transfer_probability"],
                [(t, refs["passages"][t]) for t in periods])
    good = json.dumps({"delta_fit_mhz": 5.5})
    checks.check_request(wl, "sweep", tmp_path, good, ROOT, refs)
    assert rejects(checks.check_request, wl, "sweep", tmp_path,
                   json.dumps({"delta_fit_mhz": 6.0}), ROOT, refs)
    p = refs["passages"][periods[3]]
    rewrite_cell(tmp_path / "sweep_lz_probability.csv", 3, "transfer_probability", repr(p + 1e-8))
    assert rejects(checks.check_request, wl, "sweep", tmp_path, good, ROOT, refs)


def test_dephased_check_allows_monte_carlo_error_only(tmp_path):
    from scipy.interpolate import CubicSpline

    wl = workloads.build("dephased", 1)
    refs = checks.load_references("dephased")
    ref = refs["dephased"]
    t = np.arange(65) * 8.0
    p0 = CubicSpline(ref["times"], ref["p0_mean"])(t)
    path = tmp_path / "fig3a_series.csv"
    write_table(path, ["t_ns", "P0", "P1"], np.column_stack([t, p0, 1 - p0]))
    checks.check_request(wl, "simulate", tmp_path, "", ROOT, refs)
    se = float(np.interp(t[40], ref["times"], ref["p0_se"]))
    assert se > 0
    for shift, ok in ((2 * se, True), (6 * se, False)):
        bad = p0.copy()
        bad[40] += shift
        write_table(path, ["t_ns", "P0", "P1"], np.column_stack([t, bad, 1 - bad]))
        assert rejects(checks.check_request, wl, "simulate", tmp_path, "", ROOT, refs) != ok


@pytest.mark.parametrize("t2_star_us, ok", [
    (workloads.DEPHASED_T2_STAR_US, True),
    (math.inf, False),                              # noise dropped: every member coherent
    (2 * workloads.DEPHASED_T2_STAR_US, False),     # noise sigma halved
])
def test_dephased_check_rejects_a_broken_kernel(tmp_path, t2_star_us, ok):
    import bench

    wl = workloads.build("dephased", 1)
    config = wl.configs["dephased.conf"]
    line = f"t2_star_us = {workloads.DEPHASED_T2_STAR_US!r}\n"
    assert line in config
    (tmp_path / "dephased.conf").write_text(config.replace(line, f"t2_star_us = {t2_star_us!r}\n"))
    run = bench.Pass(wl, tmp_path, tmp_path / "pass0")
    assert run.status == {"simulate": "ok"}
    verdicts = bench.first_pass_verdicts(wl, run, ROOT, checks.load_references("dephased"))
    assert (verdicts["simulate"] is None) == ok, verdicts


def test_malformed_output_counts_as_failed(tmp_path):
    import bench

    wl = workloads.build("impulse", 1)
    first = bench.Pass.__new__(bench.Pass)
    first.dir = tmp_path
    first.status = {req.label: "ok" for req in wl.requests}
    first.stdout = {req.label: "" for req in wl.requests}
    first.stdout["rabi"] = json.dumps({"frequency_mhz": None})
    verdicts = bench.first_pass_verdicts(wl, first, ROOT, {})
    assert verdicts["rabi"].startswith("output check: TypeError"), verdicts


def test_real_outputs_pass_their_checks(tmp_path):
    import bench

    for name in ("presets", "impulse"):
        wl = workloads.build(name, 1)
        work = tmp_path / name
        work.mkdir()
        for fname, text in wl.configs.items():
            (work / fname).write_text(text)
        first = bench.Pass(wl, work, work / "pass0")
        verdicts = bench.first_pass_verdicts(wl, first, ROOT, checks.load_references(name))
        assert verdicts == {req.label: None for req in wl.requests}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "presets",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
