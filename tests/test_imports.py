"""Start-up cost: importing the CLI, parsing configs and running the commands
that need no fit load no scipy module.  scipy is imported only by the two
curve fits (`ramsey_fit` and the coupling fit of the lz_probability sweep),
when they run; importing it costs more than most runs.  orjson is imported
only when a command renders a CSV, so start-up does not load it either."""

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

configs = {
    "dense.conf": "scenario = fig2c\\nmethod = ode\\n",
    "impulse.conf": "delta_mhz = 5.57\\nepsilon_m_mhz = 100.0\\nperiod_ns = 128.0\\n"
                    "n_periods = 20\\nmethod = transfer-matrix\\n",
    "scan.conf": "sweep = resonance\\ndelta_mhz = 5.57\\nepsilon_m_mhz = 100.0\\n"
                 "scan_start = 100\\nscan_stop = 200\\nscan_points = 50\\n",
}
for name, text in configs.items():
    (out / name).write_text(text)
load_run_config(out / "dense.conf")
load_sweep_config(out / "scan.conf")
assert "orjson" not in sys.modules, "orjson loaded before any command ran"
for argv in (["simulate", "dense.conf"], ["simulate", "impulse.conf"], ["sweep", "scan.conf"]):
    code = lzsim.cli.main([argv[0], str(out / argv[1]), "--out", str(out)])
    assert code == 0, (argv, code)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(lzsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _CHILD, src, str(tmp_path)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert {p.name for p in tmp_path.glob("*.csv")} == {
        "fig2c_series.csv", "custom_series.csv", "sweep_resonance.csv"}
