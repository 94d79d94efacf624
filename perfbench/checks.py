"""Output checks of one benchmark pass.

They must pass on any correct implementation that the roadmap's planned
optimisations allow (periodic propagation, one ensemble kernel or quadrature,
a vectorised or more accurate impulse model):

- dense-route outputs (``presets``, ``passages``) match references recorded
  at the seed commit to 1e-9, and fig2c / fig4 match ``tests/golden``;
- ``dephased`` matches a seed-commit reference within four Monte-Carlo
  standard errors per sample, so exact quadrature passes too;
- impulse-route outputs are checked by invariants only, because a better
  crossing node may change their values.

Files are parsed here, not with ``lzsim.seriesio``, so a broken reader in the
program cannot hide a broken output.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

import workloads

REF = Path(__file__).resolve().parent / "ref"
DENSE_TOL = 1e-9
#: P0 + P1 is the squared norm, so twice the program's default norm tolerance.
NORM_TOL = 2e-8
MC_SIGMAS = 4.0
DELTA_FIT_REL = 0.05
#: Scalars computed by the impulse route; checked by invariants only.
IMPULSE_SCALARS = ("g1_rotation_angle_rad", "g1_axis", "method_max_p0_diff")


class CheckError(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def parse_table(text: str) -> tuple[list[str], np.ndarray]:
    """Columns and values of a CSV series/table; empty cells become NaN."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    require(lines, "no column header")
    columns = lines[0].split(",")
    rows = [[math.nan if tok == "" else float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    require(all(len(r) == len(columns) for r in rows), "ragged rows")
    return columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        return parse_table(fh.read())


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    require(lines, "no summary printed")
    return json.loads(lines[-1])


def _column(columns, data, name):
    require(name in columns, f"missing column {name}")
    return data[:, columns.index(name)]


def check_populations(columns, data, rows: int | None = None) -> None:
    """P columns: no empty cells, inside [0, 1], and P0 + P1 = 1."""
    if rows is not None:
        require(data.shape[0] == rows, f"{data.shape[0]} rows, expected {rows}")
    p0, p1 = _column(columns, data, "P0"), _column(columns, data, "P1")
    require(not np.isnan(p0).any() and not np.isnan(p1).any(), "empty P cell")
    require(((p0 >= 0) & (p0 <= 1) & (p1 >= 0) & (p1 <= 1)).all(), "P outside [0, 1]")
    drift = float(np.max(np.abs(p0 + p1 - 1.0)))
    require(drift <= NORM_TOL, f"|P0 + P1 - 1| = {drift:.2e} > {NORM_TOL:.0e}")


def check_close(columns, data, ref_columns, ref, what: str) -> None:
    """Every reference column present, same NaN cells, values within 1e-9."""
    require(data.shape[0] == ref.shape[0], f"{what}: {data.shape[0]} rows, expected {ref.shape[0]}")
    for j, name in enumerate(ref_columns):
        got, want = _column(columns, data, name), ref[:, j]
        require((np.isnan(got) == np.isnan(want)).all(), f"{what}: empty cells differ in {name}")
        ok = ~np.isnan(want)
        err = float(np.max(np.abs(got[ok] - want[ok]), initial=0.0))
        require(err <= DENSE_TOL, f"{what}: {name} off by {err:.2e}")


def check_rotation(angle, axis_z) -> None:
    angle, axis_z = np.asarray(angle, dtype=float), np.asarray(axis_z, dtype=float)
    require(not np.isnan(angle).any() and not np.isnan(axis_z).any(), "empty rotation cell")
    require(((angle >= 0) & (angle <= math.pi + 1e-12)).all(), "G1 angle outside [0, pi]")
    require((np.abs(axis_z) <= 1 + 1e-12).all(), "|axis_z| > 1")


def check_scalars(fresh: dict, ref: dict, what: str) -> None:
    for key, want in ref.items():
        require(key in fresh, f"{what}: missing scalar {key}")
        got = fresh[key]
        if key == "g1_axis":
            require(len(got) == 3 and abs(math.hypot(*got) - 1) <= 1e-9, f"{what}: bad G1 axis")
            check_rotation(0.0, got[2])
        elif key == "g1_rotation_angle_rad":
            check_rotation(got, 0.0)
        elif key in IMPULSE_SCALARS:
            require(0.0 <= got <= 1.0, f"{what}: {key} outside [0, 1]")
        elif isinstance(want, float) or isinstance(want, list):
            a, b = np.atleast_1d(np.asarray(got, float)), np.atleast_1d(np.asarray(want, float))
            require(a.shape == b.shape, f"{what}: {key} has shape {a.shape}, expected {b.shape}")
            require(np.max(np.abs(a - b), initial=0.0) <= DENSE_TOL, f"{what}: {key} = {got}, expected {want}")
        else:
            require(got == want, f"{what}: {key} = {got!r}, expected {want!r}")


def check_preset(fig: str, out: Path, root: Path) -> None:
    refs = {p.name[:-3]: p for p in sorted((REF / "presets").glob(f"{fig}_*.gz"))}
    require(refs, f"no reference for {fig}")
    written = sorted(p.name for p in out.iterdir())
    require(written == sorted(refs), f"wrote {written}, expected {sorted(refs)}")
    for name, ref_path in refs.items():
        if name.endswith(".json"):
            fresh = json.loads((out / name).read_text())["scalars"]
            with gzip.open(ref_path, "rt") as fh:
                check_scalars(fresh, json.load(fh)["scalars"], name)
            continue
        columns, data = read_table(out / name)
        ref_columns, ref = read_table(ref_path)
        if "transfer_matrix" in name:
            check_populations(columns, data, rows=ref.shape[0])
        else:
            check_close(columns, data, ref_columns, ref, name)
    golden = root / "tests" / "golden"
    if fig == "fig2c":
        g_columns, g = read_table(golden / "fig2c_ode_series.csv")
        columns, data = read_table(out / "fig2c_ode_series.csv")
        require(columns == g_columns, "fig2c: columns differ from golden")
        check_close(columns, data, g_columns, g, "fig2c golden")
    if fig == "fig4":
        fresh = json.loads((out / "fig4_scalars.json").read_text())["scalars"]
        check_scalars(fresh, json.loads((golden / "fig4_scalars.json").read_text())["scalars"],
                      "fig4 golden")


def dephased_reference() -> dict:
    with gzip.open(REF / "dephased.json.gz", "rt") as fh:
        return json.load(fh)


def check_dephased(out: Path, ref: dict) -> None:
    from scipy.interpolate import CubicSpline

    columns, data = read_table(out / "fig3a_series.csv")
    check_populations(columns, data)
    t, p0 = _column(columns, data, "t_ns"), _column(columns, data, "P0")
    require(t[0] == 0.0 and abs(t[-1] - workloads.DEPHASED_T_END_NS) <= 1e-9, "wrong time span")
    ref_t = np.asarray(ref["times"])
    mean = CubicSpline(ref_t, ref["p0_mean"])(t)
    se = np.interp(t, ref_t, ref["p0_se"])
    # the reference mean carries its own Monte-Carlo error (seeds x members)
    allowed = MC_SIGMAS * se * math.sqrt(1 + 1 / ref["seeds"]) + ref["interp_err"]
    z = np.abs(p0 - mean) - allowed
    worst = int(np.argmax(z))
    require(z[worst] <= 0, f"P0(t={t[worst]}) = {p0[worst]}, reference {mean[worst]} "
                           f"+- {allowed[worst]:.2e}")


def check_scan(out: Path, parameter: str, start: float, stop: float) -> None:
    columns, data = read_table(out / "sweep_resonance.csv")
    require(columns == [parameter, "rotation_angle_rad", "axis_z"], f"columns {columns}")
    n = workloads.RESONANCE_POINTS
    require(data.shape[0] == n, f"{data.shape[0]} rows, expected {n}")
    grid = start + (stop - start) / (n - 1) * np.arange(n)
    require(np.max(np.abs(data[:, 0] - grid)) <= 1e-9 * abs(stop), "scan grid differs")
    check_rotation(data[:, 1], data[:, 2])


def passages_reference() -> dict[float, float]:
    _, ref = read_table(REF / "passages.csv.gz")
    return dict(zip(ref[:, 0].tolist(), ref[:, 1].tolist()))


def check_passages(out: Path, summary: dict, periods: list[float], ref: dict) -> None:
    columns, data = read_table(out / "sweep_lz_probability.csv")
    require(columns == ["period_ns", "transfer_probability"], f"columns {columns}")
    require(data.shape[0] == len(periods), f"{data.shape[0]} rows, expected {len(periods)}")
    require((data[:, 0] == np.asarray(periods)).all(), "periods differ from the request")
    want = np.array([ref[t] for t in periods])
    err = float(np.max(np.abs(data[:, 1] - want)))
    require(err <= DENSE_TOL, f"transfer probability off by {err:.2e}")
    fit = summary["delta_fit_mhz"]
    require(abs(fit - workloads.DELTA_MHZ) <= DELTA_FIT_REL * workloads.DELTA_MHZ,
            f"delta_fit_mhz = {fit}")


def check_request(wl, label: str, out: Path, stdout: str, root: Path, refs: dict) -> None:
    """Raise CheckError if the output of request ``label`` in one pass is wrong."""
    if wl.name == "presets":
        check_preset(label, out, root)
    elif wl.name == "dephased":
        check_dephased(out, refs["dephased"])
    elif wl.name == "passages":
        check_passages(out, last_json(stdout), wl.params["periods"], refs["passages"])
    elif label.startswith("scan_"):
        parameter = label[len("scan_"):]
        check_scan(out, parameter, *wl.params["scans"][parameter])
    elif label == "strobe":
        columns, data = read_table(out / "custom_series.csv")
        check_populations(columns, data, rows=2 * workloads.IMPULSE_PERIODS + 1)
        summary = last_json(stdout)
        check_rotation(summary["g1_rotation_angle_rad"], summary["g1_axis"][2])
    elif label == "rabi":
        summary = last_json(stdout)
        require(math.isfinite(summary["frequency_mhz"]) and summary["frequency_mhz"] > 0,
                "no Rabi frequency")
    else:
        raise CheckError(f"no check for {wl.name}/{label}")


def load_references(name: str) -> dict:
    if name == "dephased":
        return {"dephased": dephased_reference()}
    if name == "passages":
        return {"passages": passages_reference()}
    return {}
