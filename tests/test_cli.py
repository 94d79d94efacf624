import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from lzsim import cli, propagator
from lzsim.cli import main
from lzsim.config import load_sweep_config, parse_run_config
from lzsim.errors import ConfigError
from lzsim.experiments import PRESETS, run_figure
from lzsim.seriesio import read_series, series_table
from lzsim.transfer_matrix import ResonanceScan, resonance_scan

GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


FIG3A_CONF = "scenario = fig3a\nmethod = ode\n"
CUSTOM_CONF = """\
delta_mhz = 5.57
epsilon_m_mhz = 100.0
period_ns = 128.0
n_periods = 8
method = both
sample_every_ns = 4.0
"""


class TestSimulate:
    def test_fig3a_row_count(self, tmp_path, capsys):
        conf = write(tmp_path, "run.conf", FIG3A_CONF)
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["p_lz"] == pytest.approx(0.9067, abs=5e-4)
        _, columns, data = read_series(tmp_path / "fig3a_series.csv")
        assert data.shape[0] >= 1000
        assert columns[:3] == ["t_ns", "P0", "P1"]

    def test_negative_epsilon_m_names_key(self, tmp_path, capsys):
        conf = write(tmp_path, "bad.conf",
                     "delta_mhz = 5\nepsilon_m_mhz = -3\nperiod_ns = 128\nn_periods = 1\n")
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 2
        assert "epsilon_m_mhz" in capsys.readouterr().err

    README_CONF = """\
# fast-passage long drive
delta_mhz = 5.57
epsilon_m_mhz = 100.0
period_ns = 128.0
n_periods = 63
t_end_ns = 8000.0
sample_every_ns = 8.0
method = both            # ode | transfer-matrix | both
report_rabi = true
"""

    def test_readme_example_reports_rabi(self, tmp_path, capsys):
        # fig3a's drive over 8 us: the fit of acceptance criterion 2
        conf = write(tmp_path, "run.conf", self.README_CONF)
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rabi_frequency_mhz"] == pytest.approx(1.5508, abs=1e-4)

    def test_transfer_matrix_refuses_report_rabi(self, tmp_path, capsys):
        # the impulse model makes no dense series for the fit to read
        conf = write(tmp_path, "run.conf",
                     self.README_CONF.replace("method = both", "method = transfer-matrix"))
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert "would ignore 'report_rabi'" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = write(tmp_path, "bad.conf", FIG3A_CONF + "coffee = yes\n")
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 2
        assert "coffee" in capsys.readouterr().err

    def test_unwritable_output_leaves_nothing(self, tmp_path, capsys):
        # block the atomic rename by planting a directory at the target path;
        # the command must fail cleanly without leaving temp files behind
        conf = write(tmp_path, "run.conf", "scenario = fig2d\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "fig2d_series.csv").mkdir()
        assert main(["simulate", conf, "--out", str(out)]) == 2
        leftovers = [p.name for p in out.iterdir() if p.name != "fig2d_series.csv"]
        assert leftovers == []

    def test_both_writes_two_series(self, tmp_path):
        conf = write(tmp_path, "run.conf", CUSTOM_CONF)
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "custom_ode_series.csv").exists()
        assert (tmp_path / "custom_transfer_matrix_series.csv").exists()

    def test_json_format(self, tmp_path):
        conf = write(tmp_path, "run.conf", FIG3A_CONF + "format = json\nt_end_ns = 1024\n")
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        meta, columns, data = read_series(tmp_path / "fig3a_series.json")
        assert meta["scenario"]["name"] == "fig3a"
        assert columns[:3] == ["t_ns", "P0", "P1"]

    def test_dephasing_ensemble_config(self, tmp_path, capsys):
        conf = write(tmp_path, "run.conf", """\
delta_mhz = 0.0
epsilon_m_mhz = 0.0
period_ns = 1000.0
n_periods = 4
t2_star_us = 6.56
detuning_mhz = 0.56
preparation_rotation_rad = 1.5707963267948966
readout_rotation_rad = 1.5707963267948966
sample_every_ns = 100.0
""")
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        _, columns, data = read_series(tmp_path / "custom_series.csv")
        p0 = data[:, columns.index("P0")]
        assert p0[0] == pytest.approx(0.0, abs=1e-9)  # fringe starts at full contrast
        assert np.max(p0) > 0.5

    def test_seed_key_is_ignored(self, tmp_path):
        # the dephasing average is a quadrature: configs differing only in the
        # leftover seed key write the same bytes, and the file records the
        # node count instead of a seed
        files = []
        for seed in (1, 2):
            conf = write(tmp_path, f"run{seed}.conf", "scenario = fig3a\nt_end_ns = 512.0\n"
                         f"t2_star_us = 6.56\nseed = {seed}\n")
            out = tmp_path / f"out{seed}"
            assert main(["simulate", conf, "--out", str(out)]) == 0
            files.append((out / "fig3a_series.csv").read_bytes())
        assert files[0] == files[1]
        meta, _, _ = read_series(tmp_path / "out1" / "fig3a_series.csv")
        assert meta["scenario.noise.nodes"] == "9"
        assert not any("seed" in key for key in meta)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_infinite_t2_star_reruns_from_its_header(self, tmp_path, fmt):
        conf = write(tmp_path, "run.conf", f"scenario = fig2c\nt2_star_us = inf\nformat = {fmt}\n")
        assert main(["simulate", conf, "--out", str(tmp_path / "a")]) == 0
        meta, _, data = read_series(tmp_path / "a" / f"fig2c_series.{fmt}")
        noise = meta["scenario"]["noise"] if fmt == "json" else {
            key.rpartition(".")[2]: value for key, value in meta.items()
            if key.startswith("scenario.noise.")}
        assert noise["t2_star_us"] == "inf" and int(noise["nodes"]) == 1
        rerun = write(tmp_path, "rerun.conf", f"scenario = fig2c\nformat = {fmt}\n"
                      f"t2_star_us = {noise['t2_star_us']}\n")
        assert main(["simulate", rerun, "--out", str(tmp_path / "b")]) == 0
        _, _, data2 = read_series(tmp_path / "b" / f"fig2c_series.{fmt}")
        assert np.array_equal(data, data2)

    def test_integration_failure_exit_code(self, tmp_path, capsys):
        conf = write(tmp_path, "run.conf", """\
delta_mhz = 5.57
epsilon_m_mhz = 100.0
period_ns = 128.0
n_periods = 10
steps_per_min_period = 8
norm_tolerance = 1e-12
sample_every_ns = 64.0
""")
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 3
        assert "norm drift" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("method", ["ode", "transfer-matrix"])
    def test_non_finite_drive_rejected_at_the_boundary(self, tmp_path, capsys, method):
        conf = write(tmp_path, "nan.conf", "delta_mhz = nan\nepsilon_m_mhz = 100.0\n"
                     f"period_ns = 128.0\nn_periods = 4\nmethod = {method}\n")
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert "'delta_mhz': must be finite" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("method", ["transfer-matrix", "both"])
    def test_impulse_route_refuses_zero_gap(self, tmp_path, capsys, method):
        # no gap, no Stokes phase: the refusal names the key that set it
        conf = write(tmp_path, "run.conf", CUSTOM_CONF.replace("delta_mhz = 5.57", "delta_mhz = 0")
                     .replace("method = both", f"method = {method}"))
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert "needs delta_mhz > 0, got 0.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("line", ["t2_star_us = 0.5", "detuning_mhz = 0.56",
                                      "preparation_rotation_rad = 1.5",
                                      "readout_rotation_rad = 1.5"])
    def test_transfer_matrix_refuses_noise_keys(self, tmp_path, capsys, fmt, line):
        # the impulse model has no noise; the key would go into the header unused
        conf = write(tmp_path, "run.conf", f"scenario = fig3a\nmethod = transfer-matrix\n"
                     f"format = {fmt}\n{line}\n")
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        key = line.partition(" = ")[0]
        assert f"method = transfer-matrix has no noise model and would ignore '{key}'" \
            in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("key", ["detuning_mhz", "preparation_rotation_rad",
                                     "readout_rotation_rad"])
    def test_noise_key_without_t2_star_refused(self, tmp_path, capsys, key):
        # without t2_star_us there is no ensemble to apply the key to
        conf = write(tmp_path, "run.conf", f"scenario = fig2c\n{key} = 0.5\n")
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "t2_star_us = inf" in err
        assert not out.exists()

    def test_fig4_scenario_refused(self, tmp_path, capsys):
        conf = write(tmp_path, "run.conf", "scenario = fig4\n")
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert "use 'reproduce fig4'" in capsys.readouterr().err
        assert not out.exists()

    def test_both_keeps_the_noise(self, tmp_path):
        conf = write(tmp_path, "run.conf", "scenario = fig3a\nmethod = both\nt_end_ns = 512.0\n"
                     "t2_star_us = 6.56\n")
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        meta, _, _ = read_series(tmp_path / "fig3a_ode_series.csv")
        assert meta["scenario.noise.t2_star_us"] == "6.56"

    def test_nan_preparation_rotation_rejected_at_the_boundary(self, tmp_path, capsys):
        conf = write(tmp_path, "nan.conf", """\
delta_mhz = 0.0
epsilon_m_mhz = 0.0
period_ns = 1000.0
n_periods = 4
t2_star_us = 6.56
preparation_rotation_rad = nan
sample_every_ns = 100.0
""")
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert "'preparation_rotation_rad': must be finite" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("lines, message", [
        ("scenario = fig2c\nt2_star_us = 1\ndetuning_mhz = inf\n", "'detuning_mhz': must be finite"),
        ("scenario = fig2c\nsample_every_ns = inf\n", "'sample_every_ns': must be finite"),
        ("scenario = fig2c\nt2_star_us = 1\ndetuning_mhz = 1e308\n", "too many to integrate"),
        ("scenario = fig2c\nsample_every_ns = 1e308\n", "steps: too many"),
        # 2n + 1 = 2**25 + 1 strobe samples, the first count past the dense route's cap
        ("delta_mhz = 5.57\nepsilon_m_mhz = 100.0\nperiod_ns = 128.0\nn_periods = 16777216\n"
         "method = transfer-matrix\n", "lower n_periods"),
    ], ids=["detuning-inf", "sample-every-inf", "detuning-1e308", "sample-every-1e308",
            "strobe-periods-2**24"])
    def test_non_finite_and_overflowing_values_exit_2(self, tmp_path, capsys, lines, message):
        conf = write(tmp_path, "run.conf", lines)
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("command, text", [
        ("simulate", "scenario = fig2c\nsteps_per_min_period = 1" + "0" * 400 + "\n"),
        ("simulate", "scenario = fig2c\nsteps_per_min_period = 9223372036854775808\n"),
        ("sweep", "sweep = lz_probability\ndelta_mhz = 5.57\nepsilon_m_mhz = 100.0\n"
                  "period_values_ns = 160\nsteps_per_min_period = 1" + "0" * 400 + "\n"),
    ], ids=["simulate-1e400", "simulate-2**63", "sweep-1e400"])
    def test_integer_past_int64_exits_2(self, tmp_path, capsys, command, text):
        conf = write(tmp_path, "run.conf", text)
        out = tmp_path / "out"
        assert main([command, conf, "--out", str(out)]) == 2
        assert "bad value for 'steps_per_min_period'" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_absurd_step_count_refused_before_integrating(self, tmp_path, capsys, monkeypatch):
        # about 1.3e16 steps, where fig2c normally takes 5e3
        def integrate(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(propagator, "_propagate", integrate)
        conf = write(tmp_path, "run.conf",
                     "scenario = fig2c\nsteps_per_min_period = 1000000000000000\n")
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "lower steps_per_min_period or raise max_step_ns" in capsys.readouterr().err
        assert not out.exists()

    def test_off_turning_start_counts_the_steps_from_its_turning_point(self, tmp_path, capsys,
                                                                      monkeypatch):
        # a 10 ns span is 400 steps, but it starts 3e8 ns past the trough, and
        # the grid is integrated from there: 1.2e10 steps, refused untouched
        def integrate(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(propagator, "_propagate", integrate)
        conf = write(tmp_path, "run.conf",
                     "delta_mhz = 5.57\nepsilon_m_mhz = 100.0\nperiod_ns = 1e9\n"
                     "t_offset_ns = 3e8\nt_end_ns = 10\n")
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert "1.2e+10 steps per member exceed" in capsys.readouterr().err
        assert not out.exists()

    def test_absurd_sample_count_refused_before_allocating(self, tmp_path, capsys):
        # 1e15 samples, where one period is 5128 steps
        conf = write(tmp_path, "run.conf",
                     "delta_mhz = 5.57\nepsilon_m_mhz = 100.0\nperiod_ns = 128.0\n"
                     "n_periods = 100000000000\nt_end_ns = 1e12\nsample_every_ns = 0.001\n")
        out = tmp_path / "out"
        assert main(["simulate", conf, "--out", str(out)]) == 2
        assert "raise sample_every_ns" in capsys.readouterr().err
        assert not out.exists()

    def test_series_contract(self, tmp_path):
        conf = write(tmp_path, "run.conf", CUSTOM_CONF)
        main(["simulate", conf, "--out", str(tmp_path)])
        _, columns, data = read_series(tmp_path / "custom_ode_series.csv")
        t = data[:, columns.index("t_ns")]
        assert np.all(np.diff(t) > 0)
        for name in ("P0", "P1"):
            col = data[:, columns.index(name)]
            assert np.all((col >= 0) & (col <= 1))


class TestReproduce:
    def test_fig4_two_series_plus_scalars(self, tmp_path, capsys):
        assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["max_p1_constructive"] > 0.9
        assert summary["max_p1_destructive"] < 0.15
        for name in ("fig4_constructive_series.csv", "fig4_destructive_series.csv",
                     "fig4_scalars.json"):
            assert (tmp_path / name).exists()

    def test_unknown_figure_lists_valid_ids(self, tmp_path, capsys):
        assert main(["reproduce", "fig7x", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "fig3a" in err and "fig4" in err

    def test_repeat_invocation_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "fig2c", "--out", str(out1)]) == 0
        assert main(["reproduce", "fig2c", "--out", str(out2)]) == 0
        for name in ("fig2c_ode_series.csv", "fig2c_transfer_matrix_series.csv",
                     "fig2c_scalars.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_fig3c_adiabatic_columns_masked(self, tmp_path):
        assert main(["reproduce", "fig3c", "--out", str(tmp_path)]) == 0
        _, columns, data = read_series(tmp_path / "fig3c_series.csv")
        ie = columns.index("epsilon_MHz")
        ig = columns.index("P_adiab_g")
        filled = ~np.isnan(data[:, ig])
        assert np.all(np.abs(data[filled, ie]) > 3 * 9.60)
        assert np.all(np.abs(data[~filled, ie]) <= 3 * 9.60)
        assert filled.sum() > 0 and (~filled).sum() > 0

    def test_json_reads_back_bit_for_bit(self, tmp_path):
        # fig3c's overlay columns hold NaN (written as null) outside the mask
        assert main(["reproduce", "fig3c", "--out", str(tmp_path), "--format", "json"]) == 0
        _, columns, data = read_series(tmp_path / "fig3c_series.json")
        result = run_figure("fig3c")
        want_columns, want = series_table(result.series["ode"], drive=PRESETS["fig3c"].drive,
                                          adiabatic=result.series["adiabatic"])
        assert columns == want_columns
        assert np.isnan(data).any()
        assert np.array_equal(data.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("figure", ["fig2c", "fig2d", "fig3a", "fig3b", "fig3c", "fig3d"])
    def test_simulate_scenario_runs_the_same_preset(self, tmp_path, figure):
        # reproduce <id> and simulate with scenario = <id> read one preset table
        assert main(["reproduce", figure, "--out", str(tmp_path / "r")]) == 0
        conf = write(tmp_path, "run.conf", f"scenario = {figure}\nmethod = ode\n")
        assert main(["simulate", conf, "--out", str(tmp_path / "s")]) == 0
        ode = "_ode" if figure in ("fig2c", "fig2d") else ""
        _, r_cols, r_data = read_series(tmp_path / "r" / f"{figure}{ode}_series.csv")
        _, s_cols, s_data = read_series(tmp_path / "s" / f"{figure}_series.csv")
        columns = ["t_ns", "P0", "P1", "epsilon_MHz"]
        assert s_cols == columns
        assert np.array_equal(r_data[:, [r_cols.index(c) for c in columns]], s_data)

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LZSIM_OUT_DIR", str(tmp_path / "envout"))
        assert main(["reproduce", "fig2c"]) == 0
        assert (tmp_path / "envout" / "fig2c_ode_series.csv").exists()


class TestSweep:
    def test_resonance_scan_locates_destructive_period(self, tmp_path, capsys):
        conf = write(tmp_path, "sweep.conf", """\
sweep = resonance
scan_parameter = period_ns
scan_start = 140
scan_stop = 158
scan_points = 73
delta_mhz = 5.57
epsilon_m_mhz = 100.0
""")
        assert main(["sweep", conf, "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rotation_angle_min_at"] == pytest.approx(149.0, abs=2.0)
        _, columns, data = read_series(tmp_path / "sweep_resonance.csv")
        assert data.shape == (73, 3)
        assert np.all(np.diff(data[:, 0]) > 0)  # grid order preserved

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_holds_the_scan_columns(self, tmp_path, fmt):
        conf = write(tmp_path, "sweep.conf", f"""\
sweep = resonance
scan_parameter = epsilon_m_mhz
scan_start = 30
scan_stop = 200
scan_points = 2000
delta_mhz = 5.57
epsilon_m_mhz = 100.0
period_ns = 128.0
format = {fmt}
""")
        assert main(["sweep", conf, "--out", str(tmp_path)]) == 0
        cfg = load_sweep_config(conf)
        scan = resonance_scan(cfg.drive, cfg.scan_parameter, cfg.scan_values)
        _, columns, data = read_series(tmp_path / f"sweep_resonance.{fmt}")
        assert columns == ["epsilon_m_mhz", "rotation_angle_rad", "axis_z"]
        expected = np.column_stack((scan.value, scan.rotation_angle, scan.axis_z))
        assert data.tobytes() == expected.tobytes()

    def test_minima_at_the_first_of_tied_points(self, tmp_path, capsys, monkeypatch):
        scan = ResonanceScan(np.array([120.0, 128.0, 136.0, 144.0]),
                             np.array([0.5, 0.1, 0.1, 0.3]), np.array([0.05, 0.2, 0.3, -0.05]))
        monkeypatch.setattr(cli, "resonance_scan", lambda *args: scan)
        conf = write(tmp_path, "sweep.conf", """\
sweep = resonance
scan_values = 120.0, 128.0, 136.0, 144.0
delta_mhz = 5.57
epsilon_m_mhz = 100.0
""")
        assert main(["sweep", conf, "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rotation_angle_min_at"] == 128.0
        assert summary["axis_z_min_at"] == 120.0

    def test_single_point_grid(self, tmp_path):
        conf = write(tmp_path, "sweep.conf", """\
sweep = resonance
scan_values = 128.0
delta_mhz = 5.57
epsilon_m_mhz = 100.0
""")
        assert main(["sweep", conf, "--out", str(tmp_path)]) == 0
        _, _, data = read_series(tmp_path / "sweep_resonance.csv")
        assert data.shape[0] == 1

    def test_empty_grid_rejected(self, tmp_path):
        conf = write(tmp_path, "sweep.conf", """\
sweep = resonance
scan_start = 140
scan_stop = 158
scan_points = 0
delta_mhz = 5.57
epsilon_m_mhz = 100.0
""")
        assert main(["sweep", conf, "--out", str(tmp_path)]) == 2

    def test_scan_points_bounded_before_the_grid(self, tmp_path, capsys):
        # a grid of 10**12 points would exhaust memory while it is built
        conf = write(tmp_path, "sweep.conf", """\
sweep = resonance
scan_start = 140
scan_stop = 158
scan_points = 1000000000000
delta_mhz = 5.57
epsilon_m_mhz = 100.0
""")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert "scan_points must be in 1..1048576" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_row_refused(self, tmp_path, capsys, monkeypatch, fmt):
        scan = ResonanceScan(np.array([128.0]), np.array([math.nan]), np.array([0.1]))
        monkeypatch.setattr(cli, "resonance_scan", lambda *args: scan)
        conf = write(tmp_path, "sweep.conf", f"""\
sweep = resonance
scan_values = 128.0
delta_mhz = 5.57
epsilon_m_mhz = 100.0
format = {fmt}
""")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("parameter, bad, message", [
        ("period_ns", "nan", "'scan_values': must be finite"),
        ("period_ns", "inf", "'scan_values': must be finite"),
        ("period_ns", "0.0", "period_ns must be positive"),
        ("period_ns", "-5.0", "period_ns must be positive"),
        ("epsilon_m_mhz", "5.57", "needs epsilon_m > delta"),
        ("epsilon_m_mhz", "3.0", "needs epsilon_m > delta"),
        ("epsilon_m_mhz", "0.0", "no crossings"),
        ("epsilon_m_mhz", "-1.0", "epsilon_m_mhz must be >= 0"),
    ])
    def test_bad_grid_point_rejected(self, tmp_path, capsys, parameter, bad, message):
        # one bad point among good ones; the fig3a gap is 5.57 MHz
        conf = write(tmp_path, "sweep.conf", f"""\
sweep = resonance
scan_parameter = {parameter}
scan_values = 128.0, {bad}, 150.0
delta_mhz = 5.57
epsilon_m_mhz = 100.0
period_ns = 128.0
""")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_gap_refused(self, tmp_path, capsys):
        conf = write(tmp_path, "sweep.conf", """\
sweep = resonance
scan_values = 120.0, 128.0
delta_mhz = 0
epsilon_m_mhz = 100.0
""")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert "needs delta_mhz > 0, got 0.0" in capsys.readouterr().err
        assert not out.exists()

    def test_large_grid_rows_in_order(self, tmp_path):
        conf = write(tmp_path, "sweep.conf", """\
sweep = resonance
scan_start = 120
scan_stop = 170
scan_points = 10000
delta_mhz = 5.57
epsilon_m_mhz = 100.0
""")
        assert main(["sweep", conf, "--out", str(tmp_path)]) == 0
        _, _, data = read_series(tmp_path / "sweep_resonance.csv")
        assert data.shape[0] == 10000
        assert np.all(np.diff(data[:, 0]) > 0)

    def test_integration_error_exits_3_and_writes_nothing(self, tmp_path, capsys):
        conf = write(tmp_path, "sweep.conf", """\
sweep = lz_probability
delta_mhz = 5.57
epsilon_m_mhz = 100.0
period_values_ns = 160, 320
steps_per_min_period = 4
""")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 3
        assert "norm drift" in capsys.readouterr().err
        assert not out.exists()

    def test_period_values_bounded_before_integrating(self, tmp_path, capsys, monkeypatch):
        def integrate(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(propagator, "_propagate", integrate)
        values = ", ".join(["160"] * (2**20 + 1))
        conf = write(tmp_path, "sweep.conf", "sweep = lz_probability\ndelta_mhz = 5.57\n"
                     f"epsilon_m_mhz = 100.0\nperiod_values_ns = {values}\n")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert "period_values_ns holds 1048577 values; at most 1048576" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_values_bounded_before_scanning(self, tmp_path, capsys, monkeypatch):
        def scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(cli, "resonance_scan", scan)
        values = ", ".join(["128"] * (2**20 + 1))
        conf = write(tmp_path, "sweep.conf", "sweep = resonance\ndelta_mhz = 5.57\n"
                     f"epsilon_m_mhz = 100.0\nscan_values = {values}\n")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert "scan_values holds 1048577 values; at most 1048576" in capsys.readouterr().err
        assert not out.exists()

    def test_lz_probability_without_crossings_refused(self, tmp_path, capsys, monkeypatch):
        # eps_m = 0 has no crossing to pass through, and the fit divides by it
        def integrate(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(propagator, "_propagate", integrate)
        conf = write(tmp_path, "sweep.conf", """\
sweep = lz_probability
delta_mhz = 5.57
epsilon_m_mhz = 0.0
period_values_ns = 20, 40, 80
""")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert "no crossings" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, key, value, default", [
        ("lz_probability", "t_offset_ns", "19", "0.0"),
        ("lz_probability", "scan_parameter", "epsilon_m_mhz", "period_ns"),
        ("lz_probability", "scan_values", "120, 130", None),
        ("lz_probability", "scan_start", "120", None),
        ("lz_probability", "scan_stop", "170", None),
        ("lz_probability", "scan_points", "10", None),
        ("lz_probability", "period_ns", "128", None),
        ("resonance", "period_values_ns", "160, 320", None),
        ("resonance", "steps_per_min_period", "7", "400"),
        ("resonance", "norm_tolerance", "0.5", "1e-08"),
    ])
    def test_key_the_kind_ignores_refused(self, tmp_path, capsys, kind, key, value, default):
        # the run would not read the key, yet the header would record it; at
        # its default, as a rerun from a header may give it, it is accepted
        grid = {"lz_probability": "period_values_ns = 160, 320", "resonance": "scan_values = 128"}
        base = f"sweep = {kind}\ndelta_mhz = 5.57\nepsilon_m_mhz = 100.0\n{grid[kind]}\n"
        out = tmp_path / "out"
        conf = write(tmp_path, "sweep.conf", f"{base}{key} = {value}\n")
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert f"sweep = {kind} would ignore {key!r}" in capsys.readouterr().err
        assert not out.exists()
        if default is not None:
            conf = write(tmp_path, "default.conf", f"{base}{key} = {default}\n")
            assert main(["sweep", conf, "--out", str(out)]) == 0

    @pytest.mark.parametrize("key, value", [
        ("scan_start", "100"), ("scan_stop", "200"), ("scan_points", "50")])
    def test_range_key_beside_scan_values_refused(self, tmp_path, capsys, key, value):
        # the range would be ignored: scan_values alone sets the grid
        conf = write(tmp_path, "sweep.conf", "sweep = resonance\ndelta_mhz = 5.57\n"
                     f"epsilon_m_mhz = 100.0\nscan_values = 128\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["sweep", conf, "--out", str(out)]) == 2
        assert ("give either scan_values or scan_start/scan_stop/scan_points, not both"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_lz_probability_sweep(self, tmp_path, capsys):
        conf = write(tmp_path, "sweep.conf", """\
sweep = lz_probability
delta_mhz = 5.57
epsilon_m_mhz = 100.0
period_values_ns = 160, 320, 640, 1280, 2560
""")
        assert main(["sweep", conf, "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["delta_fit_mhz"] == pytest.approx(5.57, rel=0.02)

    def test_provenance_header_reruns_the_sweep(self, tmp_path):
        conf = write(tmp_path, "sweep.conf", """\
sweep = lz_probability
delta_mhz = 5.57
epsilon_m_mhz = 100.0
period_values_ns = 160, 640, 2560
steps_per_min_period = 300
norm_tolerance = 1e-9
""")
        assert main(["sweep", conf, "--out", str(tmp_path), "--format", "json"]) == 0
        meta, _, data = read_series(tmp_path / "sweep_lz_probability.json")
        assert {"schema_version", "generator", "numpy_version"} <= set(meta)
        assert "scipy_version" not in meta  # no fit imports scipy, so none is recorded
        assert meta["integrator"] == {"steps_per_min_period": 300, "norm_tolerance": 1e-9}
        assert "seed" not in meta and "workers" not in meta

        rerun = write(tmp_path, "rerun.conf", "".join(
            f"{key} = {value}\n" for key, value in [
                ("sweep", meta["sweep"]),
                ("delta_mhz", meta["drive"]["delta_mhz"]),
                ("epsilon_m_mhz", meta["drive"]["epsilon_m_mhz"]),
                ("period_values_ns", ", ".join(map(repr, data[:, 0].tolist()))),
                *meta["integrator"].items(),
            ]))
        out = tmp_path / "rerun"
        assert main(["sweep", rerun, "--out", str(out), "--format", "json"]) == 0
        meta2, _, data2 = read_series(out / "sweep_lz_probability.json")
        assert meta2 == meta
        assert np.array_equal(data2, data)

    def test_removed_flags_are_usage_errors(self, tmp_path, capsys):
        conf = write(tmp_path, "sweep.conf", "sweep = resonance\nscan_values = 128.0\n"
                     "delta_mhz = 5.57\nepsilon_m_mhz = 100.0\n")
        for argv in (["simulate", conf, "--workers", "2"],
                     ["reproduce", "fig2c", "--workers", "2"],
                     ["sweep", conf, "--workers", "2"],
                     ["simulate", conf, "--seed", "1"],
                     ["reproduce", "fig2c", "--seed", "1"],
                     ["sweep", conf, "--seed", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestParser:
    def test_two_calls_build_the_parser_once(self, tmp_path):
        cli.build_parser.cache_clear()
        conf = write(tmp_path, "run.conf", FIG3A_CONF)
        for _ in range(2):
            assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep", "--help"],
                                      ["simulate"], ["reproduce", "fig2c", "--bogus"]])
    def test_help_version_and_usage_errors_read_as_built_afresh(self, capsys, argv):
        readings = []
        for clear in (True, False, False):
            if clear:
                cli.build_parser.cache_clear()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            readings.append((exc.value.code, capsys.readouterr()))
        assert readings[0] == readings[1] == readings[2]


def _series_json(rows):
    return json.dumps({"schema": 1, "provenance": {}, "columns": ["t_ns", "P0", "P1"], "rows": rows})


class TestAnalyze:
    def test_rabi_on_series_file(self, tmp_path, capsys):
        conf = write(tmp_path, "run.conf", """\
delta_mhz = 5.0
epsilon_m_mhz = 0.0
period_ns = 128.0
n_periods = 8
sample_every_ns = 1.0
t_end_ns = 1000.0
""")
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "rabi", str(tmp_path / "custom_series.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["frequency_mhz"] == pytest.approx(5.0, rel=0.005)

    def test_no_oscillation_exit_code(self, tmp_path, capsys):
        conf = write(tmp_path, "run.conf", """\
delta_mhz = 0.0
epsilon_m_mhz = 100.0
period_ns = 128.0
n_periods = 8
sample_every_ns = 4.0
""")
        assert main(["simulate", conf, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", "rabi", str(tmp_path / "custom_series.csv")]) == 3

    @pytest.mark.parametrize("name, text", [
        ("header_only.csv", "# lzsim-series schema=1\nt_ns,P0,P1\n"),
        ("no_rows.json", _series_json([])),
    ], ids=["csv", "json"])
    def test_series_without_rows_exits_2(self, tmp_path, capsys, name, text):
        path = write(tmp_path, name, text)
        assert read_series(Path(path))[2].shape == (0, 3)
        assert main(["analyze", "rabi", path]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name, text", [
        ("narrow.csv", "# lzsim-series schema=1\nt_ns,P0,P1\n0.0,1.0\n1.0,0.5\n"),
        ("narrow.json", _series_json([[0.0, 1.0], [1.0, 0.5]])),
        ("flat.json", _series_json([0.0, 1.0])),
        # other malformed files, each refused naming the file
        ("no_columns.json", json.dumps({"schema": 1, "provenance": {}, "rows": [[0.0, 1.0]]})),
        ("latin1.csv", b"# lzsim-series schema=1\nt_ns,P\xe9,P1\n0.0,1.0,0.0\n"),
        ("truncated.json", _series_json([[0.0, 1.0, 0.0], [1.0, 0.5, 0.5]])[:-9]),
        ("ragged.json", _series_json([[0.0, 1.0, 0.0], [1.0, 0.5]])),
    ], ids=["csv", "json", "json-flat", "json-no-columns", "csv-header-not-utf8",
            "json-truncated", "json-ragged"])
    def test_rows_narrower_than_header_exit_2(self, tmp_path, capsys, name, text):
        path = write(tmp_path, name, text)
        with pytest.raises(ValueError, match=name):
            read_series(Path(path))
        assert main(["analyze", "rabi", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("body", ["0.0,1.0,0.0\n1.0,0.5\n2.0,0.25,0.75\n",
                                      "0.0,1.0,0.0\n\n1.0,0.5\n2.0,nan,0.75\n"],
                             ids=["plain", "cell-by-cell"])
    def test_ragged_csv_row_names_its_line(self, tmp_path, capsys, body):
        path = write(tmp_path, "ragged.csv", "# lzsim-series schema=1\nt_ns,P0,P1\n" + body)
        line = 5 if "\n\n" in body else 4
        with pytest.raises(ValueError,
                           match=f"^{re.escape(path)}: line {line}: a row of 2 cells under 3"):
            read_series(Path(path))
        assert main(["analyze", "rabi", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line {line}: ")

    @pytest.mark.parametrize("cell", ["abc", "é", "1e5e"])
    def test_csv_cell_not_a_number_names_its_line(self, tmp_path, capsys, cell):
        path = write(tmp_path, "bad.csv",
                     f"# lzsim-series schema=1\nt_ns,P0,P1\n0.0,1.0,0.0\n1.0,{cell},0.5\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(path)}: line 4: '{cell}' is not a number"):
            read_series(Path(path))
        assert main(["analyze", "rabi", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 4: ")


class TestConfigRoundTrip:
    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_run_config("scenario = fig3a\nscenario = fig3b\n")

    def test_scenario_and_drive_exclusive(self):
        with pytest.raises(ConfigError, match="either"):
            parse_run_config("scenario = fig3a\ndelta_mhz = 5\n")


class TestGolden:
    """Reference outputs are regenerated with tests/make_golden.py."""

    def test_fig2c_series_matches_golden(self, tmp_path):
        golden_meta, golden_cols, golden = read_series(GOLDEN / "fig2c_ode_series.csv")
        assert main(["reproduce", "fig2c", "--out", str(tmp_path)]) == 0
        _, cols, data = read_series(tmp_path / "fig2c_ode_series.csv")
        assert cols == golden_cols
        assert data.shape == golden.shape
        assert np.nanmax(np.abs(data - golden)) <= 1e-9

    def test_fig4_scalars_match_golden(self, tmp_path):
        golden = json.loads((GOLDEN / "fig4_scalars.json").read_text())
        assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
        fresh = json.loads((tmp_path / "fig4_scalars.json").read_text())
        for key, value in golden["scalars"].items():
            if isinstance(value, float):
                assert fresh["scalars"][key] == pytest.approx(value, abs=1e-9)
            else:
                assert fresh["scalars"][key] == value
