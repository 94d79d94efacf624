import numpy as np
import pytest

from lzsim import (
    DriveParameters,
    ScenarioSpec,
    lz_probability,
    run_figure,
    run_lz_probability_sweep,
    run_scenario,
)
from lzsim import experiments, propagator
from lzsim.experiments import PRESETS
from lzsim.model import epsilon_at
from conftest import FIG3A


class TestDoublePassage:
    def test_fast_regime_transfer(self):
        result = run_figure("fig2c")
        expected = 1 - result.scalars["p_lz"]
        assert result.scalars["first_passage_transfer"] == pytest.approx(expected, abs=0.02)

    def test_slow_regime_transfer(self):
        result = run_figure("fig2d")
        expected = 1 - result.scalars["p_lz"]  # ~0.935
        assert expected == pytest.approx(0.935, abs=0.002)
        assert result.scalars["first_passage_transfer"] == pytest.approx(expected, abs=0.02)

    def test_transfer_matrix_overlay_present(self):
        result = run_figure("fig2d")
        assert "transfer_matrix" in result.series
        assert "method_max_p0_diff" in result.scalars
        assert result.scalars["method_max_p0_diff"] < 0.05


class TestLongDrives:
    def test_fig3a_scalars(self):
        result = run_figure("fig3a")
        assert result.scalars["p_lz"] == pytest.approx(0.91, abs=0.005)
        # frozen from two independent integrations of the stated parameters
        assert result.scalars["rabi_frequency_mhz"] == pytest.approx(1.5508, abs=0.003)
        assert len(result.series["ode"]) >= 1000

    def test_fig3b_scalar(self):
        result = run_figure("fig3b")
        assert result.scalars["p_lz"] == pytest.approx(0.065, abs=0.002)

    def test_fig3d_scalars(self):
        result = run_figure("fig3d")
        assert result.scalars["p_lz"] == pytest.approx(0.61, abs=0.005)
        assert result.scalars["steps_alternate"] is True

    def test_fig3c_adiabatic_series(self):
        result = run_figure("fig3c")
        adiab = result.series["adiabatic"]
        drive = PRESETS["fig3c"].drive
        eps = np.abs(np.asarray(epsilon_at(drive, adiab.times)))
        assert np.all(eps > 3 * drive.delta_mhz)
        assert result.scalars["adiabatic_kept_samples"] == len(adiab)

    def test_scalar_consistency_same_code_path(self):
        result = run_figure("fig3d")
        assert result.scalars["p_lz"] == lz_probability(PRESETS["fig3d"].drive)


class TestCdtComparison:
    def test_constructive_vs_destructive(self):
        result = run_figure("fig4")
        assert result.scalars["max_p1_constructive"] > 0.9
        assert result.scalars["max_p1_destructive"] < 0.15

    def test_destructive_arm_covers_the_window(self):
        result = run_figure("fig4")
        assert list(result.series) == ["constructive", "destructive"]
        destructive = DriveParameters(**result.provenance["destructive_drive"])
        assert destructive == DriveParameters(5.57, 100.0, 149.0, n_periods=7)
        assert result.series["destructive"].times[-1] == PRESETS["fig4"].t_end_ns

    def test_deterministic_series(self):
        a = run_figure("fig4")
        b = run_figure("fig4")
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

    def test_one_kernel_call_no_evolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-point evolve")

        calls = []
        kernel = propagator._propagate
        monkeypatch.setattr(experiments, "evolve", refuse)
        monkeypatch.setattr(propagator, "evolve", refuse)
        monkeypatch.setattr(propagator, "_propagate", lambda *args: calls.append(1) or kernel(*args))
        periods = [640.0, 160.0, 2560.0, 320.0, 1280.0]
        res = run_lz_probability_sweep(5.57, 100.0, periods)
        assert len(calls) == 1
        assert [T for T, _ in res.points] == periods


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
        result = run_figure("fig3b")
        scenario = result.provenance["scenario"]
        assert scenario["drive"]["delta_mhz"] == 9.60
        assert "seed" not in scenario
        assert result.provenance["schema_version"] == 1

    def test_determinism_bit_identical(self):
        a = run_figure("fig3d")
        b = run_figure("fig3d")
        assert np.array_equal(a.series["ode"].populations, b.series["ode"].populations)
        assert a.scalars == b.scalars

    def test_all_figures_dispatch(self):
        for figure in PRESETS:
            assert run_figure(figure).name == figure

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="valid: fig2c, fig2d, fig3a"):
            run_figure("fig9z")
