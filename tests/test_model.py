import math

import numpy as np
import pytest

from lzsim import (
    Basis,
    DegenerateDriveError,
    DriveParameters,
    QubitState,
    angular_to_mhz,
    crossing_times,
    epsilon_at,
    mhz_to_angular,
    sweep_rate,
)
from lzsim.model import eigenbasis_at, epsilon_integral, mixing_angle_at


def drive(em=100.0, T=128.0, delta=5.57, n=1, off=0.0):
    return DriveParameters(delta_mhz=delta, epsilon_m_mhz=em, period_ns=T,
                           n_periods=n, t_offset_ns=off)


class TestUnitConvention:
    def test_factor_is_2pi_times_1e_minus_3(self):
        assert mhz_to_angular(1.0) == pytest.approx(2e-3 * math.pi, rel=0, abs=0)

    def test_round_trip(self):
        f = np.array([0.125, 1.0, 5.57, 100.0, 2870.0, 1e-6])
        assert np.allclose(angular_to_mhz(mhz_to_angular(f)), f, rtol=1e-15)
        # powers of two survive exactly
        assert angular_to_mhz(mhz_to_angular(0.25)) == 0.25


class TestTriangleWave:
    def test_documented_values(self):
        p = drive()
        assert epsilon_at(p, 0.0) == -100.0
        assert epsilon_at(p, 32.0) == 0.0
        assert epsilon_at(p, 64.0) == 100.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            epsilon_at(drive(), -1.0)

    def test_periodicity_exact_on_representable_grid(self):
        p = drive(n=4)
        t = np.arange(0, 128, 0.125)
        assert np.array_equal(epsilon_at(p, t), epsilon_at(p, t + 128.0))

    def test_symmetry_about_half_period(self):
        p = drive()
        t = np.arange(0, 64.001, 0.25)
        left = epsilon_at(p, 64.0 - t)
        right = epsilon_at(p, 64.0 + t)
        assert np.allclose(left, right, rtol=0, atol=1e-12)

    def test_slope_matches_sweep_rate_away_from_breakpoints(self):
        p = drive()
        t = np.linspace(1.0, 31.0, 101)
        h = 1e-4
        deriv = (epsilon_at(p, t + h) - epsilon_at(p, t - h)) / (2 * h)
        assert np.allclose(np.abs(deriv), 4 * 100.0 / 128.0, rtol=1e-9)

    def test_offset_shifts_origin(self):
        p0, p_off = drive(), drive(off=17.0)
        t = np.linspace(5.0, 250.0, 57)
        assert np.allclose(epsilon_at(p_off, t), epsilon_at(p0, t + 17.0), atol=1e-12)

    def test_integral_matches_quadrature(self):
        from scipy.integrate import quad

        p = drive(off=10.0)
        for t_end in (13.0, 64.0, 128.0, 200.0):
            ref, _ = quad(lambda u: epsilon_at(p, u), 0, t_end, limit=200,
                          points=[22.0, 54.0, 86.0, 118.0, 150.0, 182.0])
            assert epsilon_integral(p, t_end) == pytest.approx(ref, abs=1e-8)


class TestCrossings:
    def test_one_period(self):
        assert crossing_times(drive()) == [32.0, 96.0]

    def test_two_slow_periods(self):
        p = drive(em=50.4, T=606.0, delta=9.6, n=2)
        assert crossing_times(p) == pytest.approx([151.5, 454.5, 757.5, 1060.5])

    def test_no_crossings_without_sweep(self):
        assert crossing_times(drive(em=0.0)) == []

    def test_crossings_are_zeros(self):
        p = drive(em=50.4, T=606.0, n=3, off=47.0)
        for tc in crossing_times(p):
            assert abs(epsilon_at(p, tc)) < 1e-12 * 50.4


class TestSweepRate:
    def test_values(self):
        assert sweep_rate(drive(em=100.0, T=128.0)) == pytest.approx(3.125)
        assert sweep_rate(drive(em=50.4, T=606.0)) == pytest.approx(0.33267, abs=5e-6)
        # 4 * eps_m / T throughout; see the mid-sweep preset
        assert sweep_rate(drive(em=100.0, T=592.0)) == pytest.approx(0.675676, abs=5e-6)

    def test_degenerate(self):
        with pytest.raises(DegenerateDriveError):
            sweep_rate(drive(em=0.0))


class TestDriveValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            DriveParameters(-1.0, 100.0, 128.0)
        with pytest.raises(ValueError):
            DriveParameters(5.0, -1.0, 128.0)
        with pytest.raises(ValueError):
            DriveParameters(5.0, 100.0, 0.0)
        with pytest.raises(ValueError):
            DriveParameters(5.0, 100.0, 128.0, n_periods=0)

    def test_zero_delta_allowed(self):
        assert DriveParameters(0.0, 100.0, 128.0).delta_mhz == 0.0

    @pytest.mark.parametrize("field, value, match", [
        ("delta_mhz", math.nan, "delta_mhz must be finite"),
        ("delta_mhz", math.inf, "delta_mhz must be finite"),
        ("epsilon_m_mhz", math.nan, "epsilon_m_mhz must be finite"),
        ("epsilon_m_mhz", math.inf, "epsilon_m_mhz must be finite"),
        ("period_ns", math.nan, "period_ns must be finite"),
        ("period_ns", math.inf, "period_ns must be finite"),
        ("t_offset_ns", math.nan, "t_offset_ns must be finite"),
        ("t_offset_ns", -math.inf, "t_offset_ns must be finite"),
        ("n_periods", 2.5, "n_periods must be an integer"),
        ("n_periods", math.nan, "n_periods must be an integer"),
    ])
    def test_rejects_non_finite_and_non_integer(self, field, value, match):
        kw = dict(delta_mhz=5.57, epsilon_m_mhz=100.0, period_ns=128.0, n_periods=2,
                  t_offset_ns=0.0)
        kw[field] = value
        with pytest.raises(ValueError, match=match):
            DriveParameters(**kw)

    def test_numpy_integer_periods_accepted(self):
        assert DriveParameters(5.57, 100.0, 128.0, n_periods=np.int64(3)).total_time_ns == 384.0


class TestQubitState:
    def test_kets(self):
        assert QubitState.ket0().populations == (1.0, 0.0)
        assert QubitState.ket1().populations == (0.0, 1.0)

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            QubitState(1.0, 1.0)
        QubitState(1 / math.sqrt(2), -1j / math.sqrt(2))  # fine

    def test_basis_tag(self):
        s = QubitState.ket0(basis=Basis.ADIABATIC)
        assert s.basis is Basis.ADIABATIC


class TestEigenbasis:
    def test_mixing_angle_limits(self):
        p = drive()
        assert mixing_angle_at(p, 32.0) == pytest.approx(math.pi / 2)  # at the crossing
        pz = drive(delta=0.0)
        assert mixing_angle_at(pz, 0.0) == pytest.approx(math.pi)   # eps < 0
        assert mixing_angle_at(pz, 64.0) == pytest.approx(0.0)      # eps > 0

    def test_columns_orthonormal(self):
        p = drive()
        for t in (0.0, 17.3, 32.0, 64.0, 100.0):
            v = eigenbasis_at(p, t)
            assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)

    def test_eigenvectors_diagonalize_h(self):
        p = drive()
        t = 20.0
        eps = mhz_to_angular(epsilon_at(p, t))
        h = 0.5 * np.array([[eps, p.delta_ang], [p.delta_ang, -eps]])
        v = eigenbasis_at(p, t)
        d = v.conj().T @ h @ v
        omega = math.hypot(eps, p.delta_ang)
        assert np.allclose(d, np.diag([-omega / 2, omega / 2]), atol=1e-12)
