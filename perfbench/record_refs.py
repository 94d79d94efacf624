"""Record the references the output checks compare against.

Run from the repository root at the commit that defines the benchmark:

    PYTHONPATH=src python3 perfbench/record_refs.py

It writes ``perfbench/ref/``:

- ``presets/<file>.gz``: every file ``lzsim reproduce`` writes for the seven
  figure presets;
- ``passages.csv.gz``: the single-passage transfer at every period the
  ``passages`` workload can draw;
- ``dephased.json.gz``: the mean P0 of the ``dephased`` request over
  ``REF_SEEDS`` independent 2000-member ensembles, sampled every 0.5 ns, with
  the standard error of one ensemble (the spread over seeds) and a bound on
  the error of interpolating between the samples.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from lzsim.cli import main as lzsim_main  # noqa: E402

REF_SEED_BASE = 10**6
#: Independent ensembles averaged into the ``dephased`` reference.
REF_SEEDS = 40


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lzsim_main(argv)
    if code != 0:
        raise SystemExit(f"lzsim {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _gzip(data: bytes, dst: Path) -> None:
    """Write gzip without a name or time stamp, so reruns give the same bytes."""
    with open(dst, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
            gz.write(data)


def record_presets(tmp: Path, ref: Path) -> None:
    (ref / "presets").mkdir(parents=True, exist_ok=True)
    for fig in workloads.PRESET_PERIODS:
        out = tmp / fig
        _cli(["reproduce", fig, "--format", "csv", "--out", str(out)])
        for path in sorted(out.iterdir()):
            _gzip(path.read_bytes(), ref / "presets" / f"{path.name}.gz")


def record_passages(tmp: Path, ref: Path) -> None:
    conf = tmp / "grid.conf"
    conf.write_text(
        f"sweep = lz_probability\ndelta_mhz = {workloads.DELTA_MHZ!r}\n"
        f"epsilon_m_mhz = {workloads.EPSILON_M_MHZ!r}\n"
        "period_values_ns = " + ", ".join(repr(t) for t in workloads.PASSAGE_GRID_NS) + "\n"
    )
    _cli(["sweep", str(conf), "--out", str(tmp)])
    _gzip((tmp / "sweep_lz_probability.csv").read_bytes(), ref / "passages.csv.gz")


def record_dephased(tmp: Path, ref: Path) -> None:
    from scipy.interpolate import CubicSpline

    grid = None
    runs = []
    for i in range(REF_SEEDS):
        conf = tmp / "dephased.conf"
        conf.write_text(
            f"scenario = fig3a\nt_end_ns = {workloads.DEPHASED_T_END_NS!r}\n"
            f"t2_star_us = {workloads.DEPHASED_T2_STAR_US!r}\nsample_every_ns = 0.5\n"
            f"seed = {REF_SEED_BASE + i}\n"
        )
        _cli(["simulate", str(conf), "--out", str(tmp)])
        columns, data = checks.read_table(tmp / "fig3a_series.csv")
        t, p0 = data[:, columns.index("t_ns")], data[:, columns.index("P0")]
        if grid is None:
            grid = t
        # the step (and so the sample grid) depends on the largest drawn offset
        runs.append(p0 if np.array_equal(t, grid) else CubicSpline(t, p0)(grid))
        print(f"dephased reference seed {i + 1}/{REF_SEEDS}", file=sys.stderr)
    runs = np.array(runs)
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1)
    # error of a spline through every other sample bounds that through all
    interp_err = float(np.max(np.abs(CubicSpline(grid[::2], mean[::2])(grid[1::2]) - mean[1::2])))
    doc = {
        "members": workloads.DEPHASED_MEMBERS,
        "seeds": REF_SEEDS,
        "times": grid.tolist(),
        "p0_mean": mean.tolist(),
        "p0_se": se.tolist(),
        "interp_err": interp_err,
    }
    _gzip(json.dumps(doc).encode(), ref / "dephased.json.gz")


def main() -> None:
    tmp = HERE.parent / ".perfbench_work" / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ref = HERE / "ref"
    ref.mkdir(exist_ok=True)
    try:
        record_presets(tmp, ref)
        record_passages(tmp, ref)
        record_dephased(tmp, ref)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
