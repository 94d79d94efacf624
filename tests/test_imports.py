"""Start-up cost and run-time dependencies: importing the CLI, parsing configs,
every command (the lz_probability sweep and its coupling fit included) and
`ramsey_fit` load no scipy module; importing it costs more than most runs and
doubles a sweep's peak memory.  orjson is imported only when a command
renders a CSV, so start-up does not load it either, and the CLI's parser is
built on the first `main` call, not at import."""

import subprocess
import sys
from pathlib import Path

import lzsim

_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
out = Path(sys.argv[2])

import lzsim.cli
from lzsim.config import load_run_config, load_sweep_config
assert lzsim.cli.build_parser.cache_info().currsize == 0, "parser built at import"

configs = {
    "dense.conf": "scenario = fig2c\\nmethod = ode\\n",
    "impulse.conf": "delta_mhz = 5.57\\nepsilon_m_mhz = 100.0\\nperiod_ns = 128.0\\n"
                    "n_periods = 20\\nmethod = transfer-matrix\\n",
    "scan.conf": "sweep = resonance\\ndelta_mhz = 5.57\\nepsilon_m_mhz = 100.0\\n"
                 "scan_start = 100\\nscan_stop = 200\\nscan_points = 50\\n",
    "passages.conf": "sweep = lz_probability\\ndelta_mhz = 5.57\\nepsilon_m_mhz = 100.0\\n"
                     "period_values_ns = 160, 320, 640, 1280, 2560\\n",
}
for name, text in configs.items():
    (out / name).write_text(text)
load_run_config(out / "dense.conf")
load_sweep_config(out / "scan.conf")
assert "orjson" not in sys.modules, "orjson loaded before any command ran"
for argv in (["simulate", "dense.conf"], ["simulate", "impulse.conf"], ["sweep", "scan.conf"],
             ["sweep", "passages.conf"]):
    code = lzsim.cli.main([argv[0], str(out / argv[1]), "--out", str(out)])
    assert code == 0, (argv, code)

import math
import numpy as np
from lzsim.analysis import ramsey_fit
from lzsim.model import Basis
from lzsim.propagator import Trajectory
t_us = np.linspace(0.0, 14.0, 560)
p0 = 0.5 - 0.5 * np.exp(-((t_us / 6.56) ** 2)) * np.cos(2 * math.pi * 0.56 * t_us)
fit = ramsey_fit(Trajectory(t_us * 1e3, np.column_stack([p0, 1 - p0]), Basis.DIABATIC))
assert abs(fit.decay_time_us - 6.56) < 1e-6, fit
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(lzsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _CHILD, src, str(tmp_path)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert {p.name for p in tmp_path.glob("*.csv")} == {
        "fig2c_series.csv", "custom_series.csv", "sweep_resonance.csv",
        "sweep_lz_probability.csv"}
