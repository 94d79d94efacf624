"""Acceptance gate: every criterion at its stated tolerance.

Each check prints one `[acceptance]` line with the measured value, then
asserts.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

One check, criterion 2, encodes an anchor that the implemented equations,
cross-validated by four independent evaluations, place just outside its
stated window; it is asserted as stated and fails honestly rather than being
loosened (see its docstring for the measured values).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lzsim import (
    Basis,
    DriveParameters,
    IntegratorConfig,
    QubitState,
    Trajectory,
    evolve,
    evolve_ensemble_dephased,
    free_phase,
    lz_probability,
    mhz_to_angular,
    rabi_frequency,
    ramsey_fit,
    resonance_scan,
    run_figure,
    single_period_rotation,
    stroboscopic_evolve,
)
from lzsim.model import epsilon_at
from conftest import (FIG3A, FIG3B, FIG3D, LZNode, basis_discrepancy, mixing_matrix,
                      period_steps)


def report(criterion, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion} ({label}): {status} -- {detail}")
    return ok


class TestCriterion1LZAnchors:
    def test_lz_probability_anchors(self):
        cases = [
            (DriveParameters(**FIG3A), 0.91, 0.005),
            (DriveParameters(**FIG3B), 0.065, 0.002),
            (DriveParameters(**FIG3D), 0.61, 0.005),
        ]
        values = [lz_probability(p) for p, _, _ in cases]
        ok = all(abs(v - ref) <= tol for v, (_, ref, tol) in zip(values, cases))
        assert report(1, "crossing-probability anchors", ok,
                      f"P = {values[0]:.4f}/{values[1]:.4f}/{values[2]:.4f} "
                      "vs 0.91/0.065/0.61")


class TestCriterion2RabiFrequency:
    def test_fast_passage_rabi_frequency(self, fig3a_traj_8us):
        """Stated anchor: 1.49 +/- 0.05 MHz over an 8 us window.

        The implemented equations give 1.549-1.551 MHz at the stated drive
        parameters, 0.01 MHz outside the window, by four independent
        evaluations: the spectral peak of this 8 us dense trajectory
        (1.5508), the rotation angle of the dense one-period propagator
        (1.5493), the first-order average-Hamiltonian coupling
        Delta |<exp(i phi(t))>_T| (1.5510) and the impulse model with its
        turning-point kicks (1.5497).  A ~2% smaller sweep amplitude gives
        1.487, so the anchor may be a measured value at an unrounded
        calibration; that can be settled only from the paper's Fig. 3a
        calibration, which the repository does not hold.  Asserted as
        stated until then; expected to fail.
        """
        fit = rabi_frequency(fig3a_traj_8us)
        ok = abs(fit.frequency_mhz - 1.49) <= 0.05
        assert report(2, "fast-passage oscillation frequency", ok,
                      f"extracted {fit.frequency_mhz:.4f} MHz vs 1.49 +/- 0.05")


class TestCriterion3DestructiveInterference:
    def test_period_change_flips_conversion(self):
        cfg = IntegratorConfig()
        maxima = {}
        for period in (128.0, 149.0):
            p = DriveParameters(5.57, 100.0, period, n_periods=math.ceil(1000.0 / period) + 1)
            traj = evolve(p, cfg, t_span=(0.0, 1000.0), sample_every=1.0)
            maxima[period] = float(np.max(traj.p1))
        ok = maxima[128.0] > 0.9 and maxima[149.0] < 0.15
        assert report(3, "constructive/destructive conversion flip", ok,
                      f"max P1 over 1 us: {maxima[128.0]:.3f} at 128 ns (>0.9), "
                      f"{maxima[149.0]:.3f} at 149 ns (<0.15)")

    def test_scan_locates_destructive_period(self):
        base = DriveParameters(**FIG3A)
        points = resonance_scan(base, "period_ns", np.arange(140.0, 158.001, 0.25))
        angles = [pt.rotation_angle for pt in points]
        t_min = points[int(np.argmin(angles))].value
        ok = abs(t_min - 149.0) <= 2.0
        assert report(3, "rotation-angle minimum location", ok,
                      f"minimum at T = {t_min:.2f} ns vs 149 +/- 2")


def _boundary_comparison(params, n_periods):
    p = DriveParameters(**params, n_periods=n_periods + 1)
    strob = stroboscopic_evolve(p, n_periods)
    # samples alternate [start, apex, trough, apex, trough, ...]; the trough
    # samples sit on the period boundaries t = kT
    model = strob.p0[2::2][:n_periods]
    ode = evolve(p, t_span=(0.0, n_periods * p.period_ns),
                 sample_every=p.period_ns).p0[1:]
    return float(np.max(np.abs(model - ode)))


class TestCriterion4OracleEquivalence:
    def test_fast_passage_preset(self):
        """Stated bound: 0.05 at period boundaries over >= 20 periods.

        At the resonant fast-passage preset (sweep ratio 18) any error in the
        impulse model's period rotation accumulates coherently.  With bare
        asymptotic crossing nodes the rotation is 0.86% off the dense
        integrator's and the deviation reaches 0.10 by period 20; the
        turning-point kicks exp(-i kappa sigma_x) of the finite triangle
        bring the rotation within 3e-4 and the deviation to 0.0034.
        """
        diff = _boundary_comparison(FIG3A, 20)
        ok = diff <= 0.05
        assert report(4, "strobe-vs-dense, fast-passage preset", ok,
                      f"max |dP0| over 20 periods = {diff:.2e} vs 0.05 "
                      f"(sweep ratio {100.0 / 5.57:.1f})")

    def test_intermediate_preset(self):
        diff = _boundary_comparison(FIG3D, 20)
        ok = diff <= 0.05
        assert report(4, "strobe-vs-dense, intermediate preset", ok,
                      f"max |dP0| over 20 periods = {diff:.2e} vs 0.05 "
                      f"(sweep ratio {100.0 / 5.84:.1f})")

    def test_discrepancy_shrinks_with_sweep_ratio(self):
        delta = 5.84
        diffs = []
        for ratio in (15, 30, 60):
            eps_m = delta * ratio
            period = 592.0 * eps_m / 100.0  # keeps the crossing probability fixed
            diffs.append(_boundary_comparison(
                dict(delta_mhz=delta, epsilon_m_mhz=eps_m, period_ns=period), 20))
        ok = diffs[0] > diffs[1] > diffs[2]
        assert report(4, "discrepancy monotone in sweep ratio", ok,
                      "max |dP0| at ratios 15/30/60 = "
                      f"{diffs[0]:.2e}/{diffs[1]:.2e}/{diffs[2]:.2e} at fixed P_LZ")


class TestCriterion5AnalyticLimit:
    def test_resonant_rabi_formula(self):
        p = DriveParameters(delta_mhz=5.0, epsilon_m_mhz=0.0, period_ns=128.0, n_periods=8)
        traj = evolve(p, t_span=(0.0, 1000.0), sample_every=1.0)  # 5 Rabi periods
        err = float(np.max(np.abs(traj.p1 - np.sin(math.pi * 5.0e-3 * traj.times) ** 2)))
        ok = err <= 1e-6
        assert report(5, "zero-sweep analytic limit", ok,
                      f"max |P1 - sin^2(pi delta t)| = {err:.2e} vs 1e-6")


class TestCriterion6AdiabaticThreshold:
    def test_discrepancy_at_threshold(self):
        value = basis_discrepancy(3.0)
        ok = abs(value - 0.0257) <= 1e-4 and value < 0.03
        assert report(6, "basis discrepancy at |eps| = 3*delta", ok,
                      f"(1 - cos theta)/2 = {value:.5f} vs 0.0257, below 3%")

    def test_pipeline_drops_exactly_the_masked_samples(self):
        result = run_figure("fig3c")
        ode = result.series["ode"]
        adiab = result.series["adiabatic"]
        drive = DriveParameters(**FIG3B, n_periods=15)
        eps = np.abs(np.asarray(epsilon_at(drive, ode.times)))
        expected_kept = ode.times[eps > 3 * drive.delta_mhz]
        ok = np.array_equal(adiab.times, expected_kept)
        assert report(6, "masked conversion keeps |eps| > 3*delta only", ok,
                      f"kept {len(adiab)} of {len(ode)} samples, boundaries exact")


@pytest.fixture(scope="module")
def ramsey_setup():
    drive = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=0.0,
                            period_ns=1000.0, n_periods=13)
    init = QubitState(1 / math.sqrt(2), -1j / math.sqrt(2))
    kw = dict(t2_star_us=6.56, initial=init,
              t_span=(0.0, 13000.0), sample_every=25.0,
              readout_rotation=math.pi / 2)
    return drive, kw


class TestCriterion7DephasingEnvelope:
    def test_gaussian_envelope(self, ramsey_setup):
        drive, kw = ramsey_setup
        traj = evolve_ensemble_dephased(drive, detuning_mhz=0.0, **kw)
        signal = 1.0 - 2.0 * traj.p0  # ensemble-averaged coherence
        envelope = np.exp(-((traj.times / 6560.0) ** 2))
        err = float(np.max(np.abs(signal - envelope)))
        ok = err <= 0.03
        assert report(7, "free-induction Gaussian envelope", ok,
                      f"max deviation {err:.2e} vs 0.03 ({traj.noise_nodes} quadrature nodes)")

    def test_fit_recovery_on_synthetic_fid(self):
        t_us = np.linspace(0.0, 14.0, 560)
        p0 = 0.5 - 0.5 * np.exp(-((t_us / 6.56) ** 2)) * np.cos(2 * math.pi * 0.56 * t_us)
        traj = Trajectory(t_us * 1e3, np.column_stack([p0, 1 - p0]), Basis.DIABATIC)
        fit = ramsey_fit(traj)
        ok = (abs(fit.decay_time_us - 6.56) / 6.56 <= 0.05
              and abs(fit.frequency_mhz - 0.56) / 0.56 <= 0.02)
        assert report(7, "fit recovery, synthetic data", ok,
                      f"T* = {fit.decay_time_us:.3f} us (5% of 6.56), "
                      f"f = {fit.frequency_mhz:.4f} MHz (2% of 0.56)")

    def test_fit_recovery_on_ensemble_fid(self, ramsey_setup):
        drive, kw = ramsey_setup
        traj = evolve_ensemble_dephased(drive, detuning_mhz=0.56, **kw)
        fit = ramsey_fit(traj)
        ok = (abs(fit.decay_time_us - 6.56) / 6.56 <= 0.05
              and abs(fit.frequency_mhz - 0.56) / 0.56 <= 0.02)
        assert report(7, "fit recovery, simulated ensemble", ok,
                      f"T* = {fit.decay_time_us:.3f} us (5% of 6.56), "
                      f"f = {fit.frequency_mhz:.4f} MHz (2% of 0.56)")


class TestCriterion8PropertySuite:
    def test_unitarity(self):
        worst = 0.0
        for params in (FIG3A, FIG3B, FIG3D):
            p = DriveParameters(**params)
            for step in period_steps(p):
                m = step.matrix
                worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(2)))))
            g1 = single_period_rotation(p).g1
            worst = max(worst, float(np.max(np.abs(g1.conj().T @ g1 - np.eye(2)))))
        ok = worst <= 1e-12
        assert report(8, "unitarity of transfer steps", ok,
                      f"max deviation {worst:.2e} vs 1e-12")

    def test_norm_conservation(self):
        p = DriveParameters(**FIG3A, n_periods=25)
        traj = evolve(p, t_span=(0.0, 2600.0), sample_every=2.0)  # > 1e5 steps
        norms = np.sqrt(np.sum(np.abs(traj.amplitudes) ** 2, axis=1))
        drift = float(np.max(np.abs(norms - 1.0)))
        ok = drift <= 1e-8
        assert report(8, "norm conservation over 1e5 steps", ok,
                      f"max drift {drift:.2e} vs 1e-8")

    def test_step_halving_ratio(self):
        p = DriveParameters(**FIG3D, n_periods=4)
        t_end = 3.5 * p.period_ns
        quarter = p.period_ns / 4
        omega_max = math.hypot(p.epsilon_m_ang, p.delta_ang)
        m0 = math.ceil(quarter * omega_max / (2 * math.pi) * 128)
        base = quarter / m0
        pops = []
        for divisor in (1, 2, 4):
            cfg = IntegratorConfig(max_step_ns=base / divisor, steps_per_min_period=1,
                                   norm_drift_tolerance=1e-3)
            pops.append(evolve(p, cfg, t_span=(0.0, t_end), sample_every=t_end).populations[-1])
        ratio = float(np.max(np.abs(pops[0] - pops[1])) / np.max(np.abs(pops[1] - pops[2])))
        ok = 12.0 <= ratio <= 20.0
        assert report(8, "fourth-order step-halving ratio", ok,
                      f"error ratio {ratio:.2f} vs 16 +/- 4")

    def test_free_phase_quadrature(self):
        worst = 0.0
        for params, t1, t2 in ((FIG3A, 32.0, 96.0), (FIG3B, 151.5, 454.5),
                               (FIG3D, 10.0, 1400.0)):
            p = DriveParameters(**params, n_periods=8)

            def gap(t):
                return math.hypot(mhz_to_angular(epsilon_at(p, t)), p.delta_ang)

            kinks = [k * p.period_ns / 2 for k in range(1, 10) if t1 < k * p.period_ns / 2 < t2]
            ref, _ = quad(gap, t1, t2, points=kinks or None, limit=400,
                          epsabs=1e-13, epsrel=1e-13)
            worst = max(worst, abs(free_phase(p, t1, t2) - ref / 2) / (ref / 2))
        ok = worst <= 1e-10
        assert report(8, "closed-form phase vs quadrature", ok,
                      f"max relative deviation {worst:.2e} vs 1e-10")

    def test_stueckelberg_amplitude(self):
        node = LZNode.from_drive(DriveParameters(**FIG3D))
        n_up = mixing_matrix(node, sweep="up").matrix
        n_dn = mixing_matrix(node, sweep="down").matrix
        z = math.pi / 2 - node.phi_s
        u = np.diag([np.exp(1j * z), np.exp(-1j * z)])
        peak = abs((n_dn @ u @ n_up)[1, 0]) ** 2
        target = 4 * node.p_lz * (1 - node.p_lz)
        ok = abs(peak - target) <= 1e-9
        assert report(8, "double-passage interference amplitude", ok,
                      f"|peak - 4P(1-P)| = {abs(peak - target):.2e} vs 1e-9")

    def test_determinism(self):
        a = run_figure("fig3d")
        b = run_figure("fig3d")
        ok = (np.array_equal(a.series["ode"].populations, b.series["ode"].populations)
              and np.array_equal(a.series["ode"].times, b.series["ode"].times)
              and a.scalars == b.scalars)
        assert report(8, "bit-identical reruns", ok,
                      "identical series and scalars across repeated runs")
