import numpy as np
import pytest

from lzsim import (
    DriveParameters,
    ScenarioSpec,
    lz_probability,
    run_cdt_comparison,
    run_double_passage,
    run_figure,
    run_long_drive,
    run_lz_probability_sweep,
    run_scenario,
)
from lzsim.experiments import FIGURE_IDS, PRESETS
from lzsim.model import epsilon_at
from conftest import FIG3A


class TestDoublePassage:
    def test_fast_regime_transfer(self):
        result = run_double_passage("fast")
        expected = 1 - result.scalars["p_lz"]
        assert result.scalars["first_passage_transfer"] == pytest.approx(expected, abs=0.02)

    def test_slow_regime_transfer(self):
        result = run_double_passage("slow")
        expected = 1 - result.scalars["p_lz"]  # ~0.935
        assert expected == pytest.approx(0.935, abs=0.002)
        assert result.scalars["first_passage_transfer"] == pytest.approx(expected, abs=0.02)

    def test_zero_gap_flat(self):
        drive = DriveParameters(0.0, 100.0, 128.0, n_periods=1)
        result = run_double_passage("fast", drive=drive)
        traj = result.series["ode"]
        assert np.max(np.abs(traj.p0 - 1.0)) < 1e-9

    def test_one_period_enforced(self):
        with pytest.raises(ValueError):
            run_double_passage("fast", drive=DriveParameters(**FIG3A, n_periods=2))

    def test_transfer_matrix_overlay_present(self):
        result = run_double_passage("slow")
        assert "transfer_matrix" in result.series
        assert "method_max_p0_diff" in result.scalars
        assert result.scalars["method_max_p0_diff"] < 0.05


class TestLongDrives:
    def test_fig3a_scalars(self):
        result = run_long_drive("fig3a")
        assert result.scalars["p_lz"] == pytest.approx(0.91, abs=0.005)
        # frozen from two independent integrations of the stated parameters
        assert result.scalars["rabi_frequency_mhz"] == pytest.approx(1.5508, abs=0.003)
        assert len(result.series["ode"]) >= 1000

    def test_fig3b_scalar(self):
        result = run_long_drive("fig3b")
        assert result.scalars["p_lz"] == pytest.approx(0.065, abs=0.002)

    def test_fig3d_scalars(self):
        result = run_long_drive("fig3d")
        assert result.scalars["p_lz"] == pytest.approx(0.61, abs=0.005)
        assert result.scalars["steps_alternate"] is True

    def test_fig3c_adiabatic_series(self):
        result = run_long_drive("fig3c")
        adiab = result.series["adiabatic"]
        drive = DriveParameters(**PRESETS["fig3c"]["drive"])
        eps = np.abs(np.asarray(epsilon_at(drive, adiab.times)))
        assert np.all(eps > 3 * drive.delta_mhz)
        assert result.scalars["adiabatic_kept_samples"] == len(adiab)

    def test_override_derives_new_name(self):
        result = run_long_drive("fig3a", overrides={"period_ns": 130.0, "t_end_ns": 1000.0})
        assert result.name.startswith("fig3a+")
        assert result.provenance["scenario"]["drive"]["period_ns"] == 130.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            run_long_drive("fig3a", overrides={"amplitude": 3})

    def test_scalar_consistency_same_code_path(self):
        result = run_long_drive("fig3d")
        drive = DriveParameters(**PRESETS["fig3d"]["drive"])
        assert result.scalars["p_lz"] == lz_probability(drive)


class TestCdtComparison:
    def test_constructive_vs_destructive(self):
        result = run_cdt_comparison()
        assert result.scalars["max_p1_constructive"] > 0.9
        assert result.scalars["max_p1_destructive"] < 0.15

    def test_deterministic_series(self):
        a = run_cdt_comparison()
        b = run_cdt_comparison()
        for key in a.series:
            assert np.array_equal(a.series[key].populations, b.series[key].populations)
            assert np.array_equal(a.series[key].times, b.series[key].times)
        assert a.scalars == b.scalars


class TestLZSweep:
    def test_coupling_recovery(self):
        res = run_lz_probability_sweep(5.57, 100.0, [160, 320, 640, 1280, 2560])
        assert res.delta_fit_mhz == pytest.approx(5.57, rel=0.02)

    def test_adiabatic_and_sudden_limits(self):
        res = run_lz_probability_sweep(5.57, 100.0, [20.0, 20000.0])
        by_period = dict(res.points)
        assert by_period[20000.0] > 0.95   # very slow sweep converts fully
        assert by_period[20.0] < 0.05      # very fast sweep converts nothing

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_lz_probability_sweep(5.57, 100.0, [])


class TestScenario:
    def test_both_reports_comparison(self):
        spec = ScenarioSpec(
            name="x", drive=DriveParameters(**FIG3A, n_periods=6), method="both",
            t_end_ns=6 * 128.0, sample_every_ns=8.0,
        )
        result = run_scenario(spec)
        assert set(result.series) == {"ode", "transfer_matrix"}
        assert "method_max_p0_diff" in result.scalars

    def test_provenance_echoes_request(self):
        result = run_long_drive("fig3b")
        scenario = result.provenance["scenario"]
        assert scenario["drive"]["delta_mhz"] == 9.60
        assert scenario["seed"] == 20240807
        assert result.provenance["schema_version"] == 1

    def test_determinism_bit_identical(self):
        a = run_long_drive("fig3d")
        b = run_long_drive("fig3d")
        assert np.array_equal(a.series["ode"].populations, b.series["ode"].populations)
        assert a.scalars == b.scalars

    def test_all_figures_dispatch(self):
        for figure in FIGURE_IDS:
            assert run_figure(figure).name == figure

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig9z")
