import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from lzsim import (
    DegenerateDriveError,
    DriveParameters,
    ModelAccuracyWarning,
    PeriodRotation,
    QubitState,
    evolve,
    free_phase,
    lz_probability,
    mhz_to_angular,
    resonance_scan,
    single_period_rotation,
    stokes_phase,
    stroboscopic_evolve,
)
from lzsim.model import crossing_times, eigenbasis_at, epsilon_at
from lzsim.su2 import _apply, _powers
from lzsim.transfer_matrix import _arg_gamma, adiabaticity
from conftest import (
    FIG3A,
    FIG3B,
    FIG3D,
    LZNode,
    StepKind,
    free_step,
    mixing_matrix,
    ode_propagator,
    period_steps,
    stroboscopic_reference,
    su2_axis_angle,
    sweep_direction,
)

FAST = DriveParameters(**FIG3A, n_periods=8)
SLOW = DriveParameters(**FIG3B, n_periods=8)
MID = DriveParameters(**FIG3D, n_periods=8)


class TestLZProbability:
    def test_published_anchors(self):
        assert lz_probability(FAST) == pytest.approx(0.91, abs=0.005)
        assert lz_probability(SLOW) == pytest.approx(0.065, abs=0.002)
        assert lz_probability(MID) == pytest.approx(0.61, abs=0.005)

    def test_zero_gap_survives(self):
        p = DriveParameters(0.0, 100.0, 128.0)
        assert lz_probability(p) == 1.0

    def test_degenerate_drive(self):
        with pytest.raises(DegenerateDriveError):
            lz_probability(DriveParameters(5.0, 0.0, 128.0))

    def test_monotone_in_sweep_rate_and_gap(self):
        # raising the sweep rate (shorter period) raises P; raising the gap lowers it
        periods = np.linspace(60.0, 2000.0, 100)
        probs = [lz_probability(DriveParameters(5.57, 100.0, T)) for T in periods]
        assert np.all(np.diff(probs) < 0)  # slower sweep -> smaller P
        deltas = np.linspace(0.5, 30.0, 100)
        probs = [lz_probability(DriveParameters(d, 100.0, 128.0)) for d in deltas]
        assert np.all(np.diff(probs) < 0)


class TestStokesPhase:
    def test_arg_gamma_matches_scipy(self):
        # Im log Gamma(1 - i d) on the continuous branch of scipy's loggamma
        from scipy.special import loggamma

        d = np.logspace(-8, 6, 4001)
        ref = loggamma(1 - 1j * d).imag
        err = np.abs(_arg_gamma(d) - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(err) <= 1e-13
        # a scalar, as stokes_phase passes it
        assert float(_arg_gamma(np.float64(2.0))) == pytest.approx(loggamma(1 - 2j).imag, abs=1e-13)

    def test_sudden_limit(self):
        assert stokes_phase(1e-12) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_adiabatic_limit(self):
        assert abs(stokes_phase(5.0)) < 0.02

    def test_monotone_decreasing(self):
        d = np.linspace(1e-4, 6.0, 200)
        values = [stokes_phase(x) for x in d]
        assert np.all(np.diff(values) < 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            stokes_phase(0.0)
        with pytest.raises(ValueError):
            stokes_phase(-1.0)

    def test_matches_ode_scattering_phase(self):
        # independent oracle: integrate a single isolated passage with
        # eps_m/delta = 40, transform the propagator to the adiabatic frame,
        # strip the closed-form dynamical phases, and read the mixing matrix
        delta, ratio, d_target = 4.0, 40.0, 0.5
        eps_m = ratio * delta
        d_ang = mhz_to_angular(delta)
        period = d_target * 4 * mhz_to_angular(4 * eps_m) / d_ang**2
        p = DriveParameters(delta, eps_m, period, n_periods=1)
        assert adiabaticity(p) == pytest.approx(d_target, rel=1e-12)

        w = ode_propagator(p, 0.0, period / 2)
        w_ad = eigenbasis_at(p, period / 2).conj().T @ w @ eigenbasis_at(p, 0.0)
        tc = period / 4
        z1, z2 = free_phase(p, 0.0, tc), free_phase(p, tc, period / 2)
        u1 = np.diag([np.exp(1j * z1), np.exp(-1j * z1)])
        u2 = np.diag([np.exp(1j * z2), np.exp(-1j * z2)])
        n_extracted = u2.conj().T @ w_ad @ u1.conj().T

        phi_ode = float(np.angle(n_extracted[0, 0]))
        assert phi_ode == pytest.approx(stokes_phase(d_target), abs=0.02)
        p_ode = abs(n_extracted[1, 0]) ** 2
        assert p_ode == pytest.approx(math.exp(-2 * math.pi * d_target), abs=1e-3)
        # and the implemented N matches entry for entry
        n_model = mixing_matrix(LZNode.from_drive(p), sweep="up").matrix
        assert np.max(np.abs(n_extracted - n_model)) < 5e-4


class TestLZNode:
    def test_from_drive_consistency(self):
        node = LZNode.from_drive(FAST)
        assert node.p_lz == pytest.approx(math.exp(-2 * math.pi * node.delta_adiab), abs=1e-15)
        assert 0 < node.phi_s <= math.pi / 4

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            LZNode(p_lz=0.5, phi_s=0.3, delta_adiab=0.5)
        with pytest.raises(ValueError):
            LZNode(p_lz=1.5, phi_s=0.3, delta_adiab=0.1)


class TestMixingMatrix:
    def test_sudden_limit_antidiagonal(self):
        d = 1e-12
        node = LZNode(math.exp(-2 * math.pi * d), stokes_phase(d), d)
        n = mixing_matrix(node).matrix
        assert np.allclose(n, [[0, 1], [-1, 0]], atol=1e-5)

    def test_adiabatic_limit_identity(self):
        d = 50.0
        node = LZNode(math.exp(-2 * math.pi * d), stokes_phase(d), d)
        n = mixing_matrix(node).matrix
        assert np.allclose(n, np.eye(2), atol=5e-3)

    def test_slow_passage_amplitudes(self):
        node = LZNode.from_drive(SLOW)
        n = mixing_matrix(node).matrix
        assert abs(n[1, 0]) ** 2 == pytest.approx(0.065, abs=0.002)
        assert abs(n[0, 0]) ** 2 == pytest.approx(0.935, abs=0.002)

    def test_unitary(self):
        node = LZNode.from_drive(MID)
        for sweep in ("up", "down"):
            m = mixing_matrix(node, sweep=sweep).matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) <= 1e-12


class TestFreePhase:
    def test_empty_interval(self):
        assert free_phase(FAST, 40.0, 40.0) == 0.0

    def test_zero_gap_quarter_period(self):
        # area of the first triangle half: zeta = pi*eps_m*T/8 (MHz*ns*1e-3)
        p = DriveParameters(0.0, 100.0, 128.0)
        expected = math.pi * 100.0 * 128.0 / 8 * 1e-3
        assert free_phase(p, 0.0, 32.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "drive,t1,t2",
        [
            (FAST, 32.0, 96.0),
            (FAST, 0.0, 128.0),
            (FAST, 10.0, 300.0),
            (SLOW, 151.5, 454.5),
            (MID, 37.0, 1500.0),
            (DriveParameters(5.57, 100.0, 128.0, n_periods=8, t_offset_ns=19.0), 5.0, 400.0),
        ],
    )
    def test_matches_quadrature(self, drive, t1, t2):
        def gap(t):
            eps = mhz_to_angular(epsilon_at(drive, t))
            return math.hypot(eps, drive.delta_ang)

        half = drive.period_ns / 2
        kinks = [k * half - drive.t_offset_ns for k in range(-1, 60)]
        kinks = [t for t in kinks if t1 < t < t2]
        ref, err = quad(gap, t1, t2, points=kinks or None, limit=400,
                        epsabs=1e-13, epsrel=1e-13)
        assert free_phase(drive, t1, t2) == pytest.approx(ref / 2, rel=1e-10)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            free_phase(FAST, 50.0, 40.0)

    def test_free_step_structure(self):
        step = free_step(FAST, 32.0, 96.0)
        zeta = free_phase(FAST, 32.0, 96.0)
        assert step.kind is StepKind.FREE
        assert step.matrix[0, 0] == pytest.approx(np.exp(1j * zeta))
        assert step.matrix[1, 1] == pytest.approx(np.exp(-1j * zeta))


class TestPeriodRotation:
    def test_steps_structure(self):
        steps = period_steps(FAST)
        kinds = [s.kind for s in steps]
        assert kinds == [StepKind.MIXING, StepKind.FREE, StepKind.MIXING, StepKind.FREE]
        for s in steps:
            assert np.max(np.abs(s.matrix.conj().T @ s.matrix - np.eye(2))) <= 1e-12

    def test_g1_unitary(self):
        for p in (FAST, SLOW, MID):
            rot = single_period_rotation(p)
            assert np.max(np.abs(rot.g1.conj().T @ rot.g1 - np.eye(2))) <= 1e-12
            assert abs(np.linalg.norm(rot.axis) - 1.0) <= 1e-12

    def test_warns_at_small_sweep_ratio(self):
        with pytest.warns(ModelAccuracyWarning):
            single_period_rotation(DriveParameters(20.0, 60.0, 606.0))

    def test_rejects_gap_exceeding_sweep(self):
        with pytest.raises(ValueError, match="epsilon_m > delta"):
            single_period_rotation(DriveParameters(120.0, 100.0, 128.0))

    def test_degenerate_drive(self):
        with pytest.raises(DegenerateDriveError):
            single_period_rotation(DriveParameters(5.0, 0.0, 128.0))

    @pytest.mark.parametrize("g1, axis, message", [
        (np.full((2, 2), math.nan), [0.0, 0.0, 1.0], "unitary"),
        (np.full((2, 2), math.inf), [0.0, 0.0, 1.0], "unitary"),
        (np.eye(2), [math.nan, 0.0, 0.0], "unit vector"),
    ], ids=["nan-g1", "inf-g1", "nan-axis"])
    def test_refuses_non_finite_fields(self, g1, axis, message):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
            PeriodRotation(g1, 0.5, np.array(axis))

    @pytest.mark.parametrize("params", [FIG3A, FIG3B, FIG3D], ids=["fig3a", "fig3b", "fig3d"])
    def test_angle_matches_dense_one_period_map(self, params):
        # G1 and the dense propagator over one period from the first crossing
        # share their end bases, so their rotation angles are comparable; the
        # bare crossing nodes alone miss by 0.15-1.4% (the turning-point kicks)
        p = DriveParameters(**params, n_periods=2)
        tc = crossing_times(p)[0]
        dense, _ = su2_axis_angle(ode_propagator(p, tc, tc + p.period_ns))
        model = single_period_rotation(p).rotation_angle
        assert abs(model - dense) / dense < 1e-3

    def test_resonant_axis_near_xy_plane(self):
        rot = single_period_rotation(FAST)
        assert abs(rot.axis[2]) < math.sin(math.radians(15))

    def test_destructive_point_near_149ns(self):
        scan = resonance_scan(FAST, "period_ns", np.arange(140.0, 158.01, 0.25))
        t_min = scan.value[np.argmin(scan.rotation_angle)]
        assert t_min == pytest.approx(149.0, abs=2.0)

    def test_g1_powers_stay_diagonal_at_destructive_point(self):
        # at the rotation-angle minimum the net rotation is the identity up to
        # a global phase, so repeated periods never build up transfer
        res = minimize_scalar(
            lambda T: single_period_rotation(
                DriveParameters(5.57, 100.0, float(T))).rotation_angle,
            bounds=(145.0, 153.0), method="bounded",
            options={"xatol": 1e-10},
        )
        rot = single_period_rotation(DriveParameters(5.57, 100.0, float(res.x)))
        assert rot.rotation_angle < 1e-3
        g_n = np.eye(2, dtype=complex)
        worst = 0.0
        for _ in range(60):
            g_n = rot.g1 @ g_n
            worst = max(worst, abs(g_n[1, 0]))
        assert worst < 0.1

    def test_cdt_invariance_up_to_1000_periods(self):
        res = minimize_scalar(
            lambda T: single_period_rotation(
                DriveParameters(5.57, 100.0, float(T))).rotation_angle,
            bounds=(145.0, 153.0), method="bounded",
            options={"xatol": 1e-10},
        )
        rot = single_period_rotation(DriveParameters(5.57, 100.0, float(res.x)))
        assert rot.rotation_angle < 1e-3
        g_n = np.eye(2, dtype=complex)
        worst = 0.0
        for _ in range(1000):
            g_n = rot.g1 @ g_n
            worst = max(worst, abs(g_n[1, 0]) ** 2)
        assert worst < 1e-2


class TestDoublePassage:
    def test_stueckelberg_amplitude(self):
        # hop probability after crossing-free-crossing is
        # 4 P (1-P) sin^2(zeta + phi); its maximum over the phase is 4P(1-P)
        node = LZNode.from_drive(MID)
        n_up = mixing_matrix(node, sweep="up").matrix
        n_dn = mixing_matrix(node, sweep="down").matrix
        p = node.p_lz
        target = 4 * p * (1 - p)

        def hop(z):
            u = np.diag([np.exp(1j * z), np.exp(-1j * z)])
            return abs((n_dn @ u @ n_up)[1, 0]) ** 2

        zetas = np.linspace(0, 2 * math.pi, 2001)
        for z in zetas:
            expected = target * math.sin(z + node.phi_s) ** 2
            assert hop(z) == pytest.approx(expected, abs=1e-12)
        # the amplitude is attained exactly where the interference phase is pi/2
        z_peak = math.pi / 2 - node.phi_s
        assert abs(hop(z_peak) - target) <= 1e-9
        assert max(hop(z) for z in zetas) <= target + 1e-12

    def test_double_passage_against_ode(self):
        # diabatic transfer after one full period's two crossings
        p = DriveParameters(**FIG3B, n_periods=1)
        traj = evolve(p, t_span=(0.0, 606.0), sample_every=606.0)
        strob = stroboscopic_evolve(p, 1)
        # compare at the final trough sample
        assert strob.times[-1] == pytest.approx(606.0)
        assert strob.p0[-1] == pytest.approx(traj.p0[-1], abs=0.02)


class TestStroboscopic:
    def test_identity_rotation_populations_constant(self):
        res = minimize_scalar(
            lambda T: single_period_rotation(
                DriveParameters(5.57, 100.0, float(T))).rotation_angle,
            bounds=(145.0, 153.0), method="bounded", options={"xatol": 1e-10},
        )
        p = DriveParameters(5.57, 100.0, float(res.x), n_periods=40)
        strob = stroboscopic_evolve(p, 40)
        troughs = strob.p0[2::2]  # samples alternate [start, apex, trough, ...]
        assert np.max(np.abs(troughs - troughs[0])) < 1e-2

    def test_fast_passage_envelope_matches_ode(self, fig3a_drive):
        # both routes oscillate full scale at slightly different stroboscopic
        # frequencies (the model's period rotation is a fraction of a percent
        # off), so the comparison is between oscillation envelopes c +/- a,
        # each extracted by a cosine fit at the series' own dominant frequency
        from lzsim import Basis, Trajectory, rabi_frequency

        n = 100
        p = DriveParameters(**FIG3A, n_periods=n + 1)
        strob = stroboscopic_evolve(p, n)
        model = strob.p0[2::2]  # trough samples, t = kT
        ode = evolve(p, t_span=(0.0, n * 128.0), sample_every=128.0).p0[1:]

        def envelope(x):
            times = 128.0 * np.arange(1, x.size + 1)
            traj = Trajectory(times, np.column_stack([x, 1 - x]), Basis.DIABATIC)
            fit = rabi_frequency(traj)
            return float(np.mean(x)), fit.amplitude, fit.frequency_mhz

        c_model, a_model, f_model = envelope(model)
        c_ode, a_ode, f_ode = envelope(ode)
        assert abs(c_model - c_ode) < 0.05
        assert abs(a_model - a_ode) < 0.05
        assert abs(f_model - f_ode) / f_ode < 0.02

    def test_slow_passage_staircase(self):
        # nearly every crossing swaps the diabatic populations: the apex
        # sample after the first crossing retains only ~P_LZ in |0>
        p = DriveParameters(**FIG3B, n_periods=16)
        strob = stroboscopic_evolve(p, 15)
        first_apex = np.argmin(np.abs(strob.times - 303.0))
        ode = evolve(p, t_span=(0.0, 606.0), sample_every=303.0)
        assert strob.p0[first_apex] == pytest.approx(lz_probability(p), abs=0.02)
        assert strob.p0[first_apex] == pytest.approx(float(ode.p0[-2]), abs=0.03)

    def test_requires_positive_periods(self):
        with pytest.raises(ValueError):
            stroboscopic_evolve(FAST, 0)

    @pytest.mark.parametrize("n", [2.5, 3.0, math.nan, "3", True],
                             ids=["fraction", "float", "nan", "str", "bool"])
    def test_requires_an_integer_period_count(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            stroboscopic_evolve(FAST, n)

    @pytest.mark.parametrize("n, tol", [(200, 1e-12), (20000, 1e-10)])
    def test_closed_form_powers_match_the_period_loop(self, n, tol):
        m1, u1, m2, u2 = (s.matrix for s in period_steps(FAST))
        g1 = u2 @ m2 @ u1 @ m1
        psi = np.array([0.6, 0.8j])
        loop = np.empty((n, 2), dtype=complex)
        for k in range(n):
            loop[k] = psi
            psi = g1 @ psi
        got = _apply(_powers(g1[0], np.arange(n)), loop[0])  # g1's (p, q) is its first row
        assert np.max(np.abs(got - loop)) <= tol

    @pytest.mark.parametrize("drive", [FIG3A, FIG3B, dict(FIG3D, t_offset_ns=19.0)],
                             ids=["fig3a", "fig3b", "fig3d-offset19"])
    def test_period_map_between_samples_is_g1(self, drive):
        # the strobe and G1 compose one period from the same factors: the map
        # A[k+1] A[k]^-1 from one first-turning-point sample to the next, with
        # A[k] the diabatic amplitudes of the runs from |0> and |1> as columns,
        # is G1 in another basis, so it rotates by G1's angle
        p = DriveParameters(**drive, n_periods=6)
        runs = [stroboscopic_evolve(p, 5, init).amplitudes
                for init in (QubitState.ket0(), QubitState.ket1())]
        a = np.stack(runs, axis=-1)[1::2]
        g1_angle = single_period_rotation(p).rotation_angle
        for k in range(len(a) - 1):
            angle, _ = su2_axis_angle(a[k + 1] @ np.linalg.inv(a[k]))
            assert abs(angle - g1_angle) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0, -1.0, 0.97, -1.03])
    def test_closed_form_powers_of_a_multiple_of_identity(self, scale):
        # the limit s -> 0 of a map with no traceless part, +-r I
        psi = np.array([0.6, 0.8j])
        got = _apply(_powers(np.array([scale, 0j]), np.arange(5)), psi)
        expected = np.array([scale**k * psi for k in range(5)])
        assert np.max(np.abs(got - expected)) <= 1e-15

    @pytest.mark.parametrize("n, tol", [(200, 1e-12), (20000, 1e-10)])
    @pytest.mark.parametrize("drive", [FIG3A, FIG3B, FIG3D], ids=["fig3a", "fig3b", "fig3d"])
    @pytest.mark.parametrize("ns, fraction", [(0.0, 0.0), (19.0, 0.0), (0.0, 0.5), (0.0, 0.7)],
                             ids=["0", "19ns", "T/2", "0.7T"])
    def test_matches_the_matrix_composition(self, drive, ns, fraction, n, tol):
        # offsets of ns plus a fraction of the period: the first crossing is
        # an up- or a down-sweep, and t = 0 lies on either branch
        p = DriveParameters(**drive, n_periods=n,
                            t_offset_ns=ns + fraction * drive["period_ns"])
        got, want = stroboscopic_evolve(p, n), stroboscopic_reference(p, n)
        assert np.array_equal(got.times, want.times)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= tol

    def test_conversion_reaches_above_09_on_resonance(self):
        strob = stroboscopic_evolve(DriveParameters(**FIG3A, n_periods=60), 60)
        assert np.max(strob.p1) > 0.9


class TestResonanceScan:
    def test_single_point_equals_direct_call(self):
        scan = resonance_scan(FAST, "period_ns", [128.0])
        rot = single_period_rotation(DriveParameters(5.57, 100.0, 128.0, n_periods=8))
        assert len(scan) == 1
        assert scan.value[0] == 128.0
        assert scan.rotation_angle[0] == rot.rotation_angle
        assert scan.axis_z[0] == rot.axis[2]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            resonance_scan(FAST, "period_ns", [])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            resonance_scan(FAST, "delta_mhz", [5.0])

    @pytest.mark.parametrize("parameter", ["period_ns", "epsilon_m_mhz"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, parameter, bad):
        with pytest.raises(ValueError, match=f"{parameter} must be finite"):
            resonance_scan(FAST, parameter, [128.0, bad])

    def test_near_xy_axis_at_resonant_period(self):
        scan = resonance_scan(FAST, "period_ns", [120.0, 128.0, 136.0])
        assert scan.value.tolist() == [120.0, 128.0, 136.0]
        assert abs(scan.axis_z[1]) < math.sin(math.radians(15))


def _factorized_scan(base, parameter, values):
    """(angle, axis_z) per grid point from the per-point factorization."""
    out = []
    for v in values:
        n1, u1, n2, u2 = period_steps(dataclasses.replace(base, **{parameter: float(v)}))
        angle, axis = su2_axis_angle(u2.matrix @ n2.matrix @ u1.matrix @ n1.matrix)
        out.append((angle, axis[2]))
    return np.array(out)


def _scan_columns(scan):
    return np.column_stack((scan.rotation_angle, scan.axis_z))


class TestBatchedScan:
    """``resonance_scan`` composes G1 for a whole grid at once; the per-point
    ``period_steps`` product and ``su2_axis_angle`` are its oracle."""

    @pytest.mark.parametrize("parameter, start, stop, n, t_offset", [
        ("period_ns", 100.0, 200.0, 2000, 0.0),
        ("epsilon_m_mhz", 30.0, 200.0, 2000, 0.0),
        ("period_ns", 100.0, 200.0, 201, 40.0),
    ], ids=["period", "epsilon_m", "period-offset40"])
    def test_matches_per_point_factorization(self, parameter, start, stop, n, t_offset):
        base = DriveParameters(**FIG3A, t_offset_ns=t_offset)
        values = np.linspace(start, stop, n)
        if t_offset:
            # the first crossing sweeps down below T = 160 ns and up above it
            sweeps = {sweep_direction(d, crossing_times(d)[0]) for d in
                      (dataclasses.replace(base, period_ns=T) for T in (values[0], values[-1]))}
            assert sweeps == {"up", "down"}
        got = _scan_columns(resonance_scan(base, parameter, values))
        assert np.max(np.abs(got - _factorized_scan(base, parameter, values))) <= 1e-11

    def test_near_destructive_point(self):
        got = _scan_columns(resonance_scan(FAST, "period_ns", [149.22]))
        assert got[0, 0] < 1e-3
        assert np.max(np.abs(got - _factorized_scan(FAST, "period_ns", [149.22]))) <= 1e-11

    def test_angle_pi_axis_tie_break(self):
        # Tr G1 = 0 near 517 ns at the fig3b gap and amplitude; a few ulps
        # around the root the trace rounds to either sign, so the phase fix
        # negates G1 on one side and only the tie-break keeps the axis
        slow = DriveParameters(**FIG3B)

        def half_trace(T):
            n1, u1, n2, u2 = period_steps(dataclasses.replace(slow, period_ns=T))
            return (u2.matrix @ n2.matrix @ u1.matrix @ n1.matrix).trace().real / 2

        t_pi = brentq(half_trace, 516.0, 518.0, xtol=1e-13, rtol=8.9e-16)
        grid = [t_pi + k * np.spacing(t_pi) for k in range(-12, 13)]
        assert {np.sign(half_trace(T)) for T in grid} == {-1.0, 1.0}
        got = _scan_columns(resonance_scan(slow, "period_ns", grid))
        assert np.all(np.abs(got[:, 0] - math.pi) < 1e-12)
        assert np.all(got[:, 1] > 0)
        assert np.max(np.abs(got - _factorized_scan(slow, "period_ns", grid))) <= 1e-11

    def test_warns_once_below_sweep_ratio_5(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resonance_scan(FAST, "epsilon_m_mhz", [20.0, 25.0, 27.0, 100.0])
        assert [w.category for w in caught] == [ModelAccuracyWarning]

    @pytest.mark.parametrize("period", [120.0, 170.0], ids=["down-first", "up-first"])
    def test_one_point_matches_factorization(self, period):
        # angle and axis_z do not depend on the first crossing's orientation
        # (it conjugates G1 by sigma_z); G1 and the axis' x and y do
        drive = DriveParameters(**{**FIG3A, "period_ns": period}, t_offset_ns=40.0)
        n1, u1, n2, u2 = period_steps(drive)
        g1 = u2.matrix @ n2.matrix @ u1.matrix @ n1.matrix
        angle, axis = su2_axis_angle(g1)
        rot = single_period_rotation(drive)
        assert np.max(np.abs(rot.g1 - g1)) <= 1e-11
        assert abs(rot.rotation_angle - angle) <= 1e-11
        assert np.max(np.abs(rot.axis - axis)) <= 1e-11

