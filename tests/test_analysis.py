import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lzsim import (
    AdiabaticMask,
    Basis,
    DriveParameters,
    FitFailureError,
    NoOscillationError,
    QubitState,
    Trajectory,
    detect_steps,
    evolve,
    evolve_ensemble_dephased,
    lz_probability,
    rabi_frequency,
    ramsey_fit,
    run_figure,
    stroboscopic_evolve,
    to_adiabatic,
    to_diabatic,
)
from lzsim import analysis
from lzsim.analysis import _peak_bin, _uniform_signal
from lzsim.model import epsilon_at
from conftest import FIG3A, FIG3B, FIG3D, basis_discrepancy


def slow_traj(n_periods=3):
    p = DriveParameters(**FIG3B, n_periods=n_periods)
    return p, evolve(p, t_span=(0.0, n_periods * 606.0), sample_every=606.0 / 64)


class TestBasisConversion:
    def test_threshold_discrepancy_value(self):
        # wrong-branch weight at |eps| = 3*delta: (1 - 3/sqrt(10))/2
        assert basis_discrepancy(3.0) == pytest.approx(0.0257, abs=1e-4)
        assert basis_discrepancy(3.0) < 0.03

    def test_mask_keeps_exactly_the_far_detuned_samples(self):
        p, traj = slow_traj()
        mask = AdiabaticMask.build(traj, p)
        eps = np.abs(np.asarray(epsilon_at(p, traj.times)))
        kept = np.zeros(len(traj), dtype=bool)
        kept[list(mask.kept_indices)] = True
        assert np.array_equal(kept, eps > 3 * p.delta_mhz)
        assert kept.sum() > 0 and kept.sum() < len(traj)

    def test_rotation_preserves_probability(self):
        p, traj = slow_traj()
        adiab = to_adiabatic(traj, p)
        assert adiab.basis is Basis.ADIABATIC
        assert np.max(np.abs(adiab.populations.sum(axis=1) - 1.0)) < 1e-9

    def test_round_trip_exact(self):
        p, traj = slow_traj()
        mask = AdiabaticMask.build(traj, p)
        adiab = to_adiabatic(traj, p, mask)
        back = to_diabatic(adiab, p)
        idx = np.array(mask.kept_indices)
        assert np.max(np.abs(back.populations - traj.populations[idx])) <= 1e-12
        assert np.max(np.abs(back.amplitudes - traj.amplitudes[idx])) <= 1e-12

    def test_zero_gap_reduces_to_relabeling(self):
        p = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=100.0, period_ns=128.0, n_periods=2)
        init = QubitState(0.6, 0.8j)
        traj = evolve(p, initial=init, sample_every=4.0)
        adiab = to_adiabatic(traj, p, AdiabaticMask(threshold_ratio=1e-9))
        eps = np.asarray(epsilon_at(p, adiab.times))
        # ground state is |0> on the eps < 0 branches and |1> on eps > 0
        idx = [int(np.argmin(np.abs(traj.times - t))) for t in adiab.times]
        expect_g = np.where(eps < 0,
                            traj.populations[idx, 0],
                            traj.populations[idx, 1])
        assert np.max(np.abs(adiab.p0 - expect_g)) < 1e-12

    def test_wrong_basis_rejected(self):
        p, traj = slow_traj()
        adiab = to_adiabatic(traj, p)
        with pytest.raises(ValueError):
            to_adiabatic(adiab, p)
        with pytest.raises(ValueError):
            to_diabatic(traj, p)

    def test_slow_passage_becomes_recognizable_oscillation(self):
        # the diabatic trace flips nearly every half period; in the adiabatic
        # basis a slow full-amplitude oscillation emerges
        p = DriveParameters(**FIG3B, n_periods=15)
        traj = evolve(p, t_span=(0.0, 15 * 606.0), sample_every=606.0 / 32)
        adiab = to_adiabatic(traj, p)
        period_index = (adiab.times // 606.0).astype(int)
        means = np.array([adiab.p1[period_index == k].mean() for k in range(15)])
        assert means.min() < 0.2
        assert means.max() > 0.8
        # multiple full swings within the 15 periods
        crossings = np.sum(np.abs(np.diff(means > 0.5)))
        assert crossings >= 4


class TestRabiFrequency:
    def test_resonant_value(self):
        p = DriveParameters(delta_mhz=5.0, epsilon_m_mhz=0.0, period_ns=128.0, n_periods=8)
        traj = evolve(p, t_span=(0.0, 1000.0), sample_every=1.0)
        fit = rabi_frequency(traj)
        assert fit.frequency_mhz == pytest.approx(5.0, rel=0.005)
        assert fit.amplitude == pytest.approx(0.5, abs=0.01)
        assert fit.residual_rms < 1e-3

    def test_invariant_under_offset_and_shift(self):
        p = DriveParameters(delta_mhz=5.0, epsilon_m_mhz=0.0, period_ns=128.0, n_periods=16)
        base = rabi_frequency(evolve(p, t_span=(0.0, 1000.0), sample_every=1.0)).frequency_mhz
        shifted = rabi_frequency(
            evolve(p, t_span=(437.0, 1437.0), sample_every=1.0)
        ).frequency_mhz
        assert shifted == pytest.approx(base, rel=0.005)
        traj = evolve(p, t_span=(0.0, 1000.0), sample_every=1.0)
        offset = Trajectory(
            traj.times,
            np.clip(traj.populations * 0.5 + 0.25, 0, 1),
            Basis.DIABATIC,
        )
        assert rabi_frequency(offset).frequency_mhz == pytest.approx(base, rel=0.005)

    def test_flat_signal_raises(self):
        p = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=100.0, period_ns=128.0, n_periods=8)
        traj = evolve(p, sample_every=4.0)
        with pytest.raises(NoOscillationError):
            rabi_frequency(traj)

    def test_fast_passage_frequency_frozen(self, fig3a_traj_8us):
        # value pinned by two independent integrators; guards regressions
        fit = rabi_frequency(fig3a_traj_8us)
        assert fit.frequency_mhz == pytest.approx(1.5508, abs=0.003)



def _lstsq_fit(traj: Trajectory) -> tuple[float, float, float]:
    """The frequency, amplitude and residual rms of the cosine fit solved by
    ``np.linalg.lstsq`` on the column-stacked (n, 3) basis: the reference for
    `rabi_frequency`'s normal equations."""
    x, dt = _uniform_signal(traj)
    f_mhz = analysis._spectral_peak(x, dt, k_min=analysis._RABI_MIN_CYCLES)[0]
    ph = 2e-3 * math.pi * f_mhz * np.arange(x.size) * dt
    basis = np.column_stack([np.cos(ph), np.sin(ph), np.ones_like(ph)])
    coef = np.linalg.lstsq(basis, x, rcond=None)[0]
    resid = x - basis @ coef
    return f_mhz, math.hypot(coef[0], coef[1]), float(np.sqrt(np.mean(resid**2)))


def _fringe(n: int, phase: float, noise: float = 1e-3) -> Trajectory:
    """``_RABI_MIN_CYCLES`` cycles of a small fringe on a large offset over n
    samples, plus seeded noise so the residual is more than rounding."""
    t = np.arange(n) * 4.0
    cycles = analysis._RABI_MIN_CYCLES * t / (n * 4.0)
    p0 = (0.95 + 0.04 * np.cos(2 * math.pi * cycles + phase)
          + noise * np.random.default_rng(n).standard_normal(n))
    return Trajectory(t, np.column_stack([p0, 1 - p0]), Basis.DIABATIC)


class TestRabiNormalEquations:
    """The fit by its 3x3 normal equations against the least-squares fit on
    the (n, 3) basis: the same frequency bit for bit, and the amplitude and
    residual within 1e-12 (the offset is 24 times the amplitude; rounding in
    either fit grows with that ratio)."""

    def _check(self, traj):
        fit = rabi_frequency(traj)
        f_mhz, amplitude, rms = _lstsq_fit(traj)
        assert fit.frequency_mhz == f_mhz
        assert fit.amplitude == pytest.approx(amplitude, rel=1e-12, abs=0)
        assert fit.residual_rms == pytest.approx(rms, rel=1e-12, abs=0)

    def test_impulse_strobe(self):
        # the benchmark's 20000-period strobe: 40001 samples
        self._check(stroboscopic_evolve(DriveParameters(**FIG3A, n_periods=20000), 20000))

    def test_fig3a_trajectory(self, fig3a_traj_8us):
        self._check(fig3a_traj_8us)

    # 12 samples are the fewest whose 3 cycles pass the spectral peak test
    @pytest.mark.parametrize("n", [12, 13, 64, 1001])
    @pytest.mark.parametrize("phase", [0.0, 0.7, 1.6, 3.0, 4.4])
    def test_fringe_at_the_fewest_cycles(self, n, phase):
        self._check(_fringe(n, phase))

    @pytest.mark.parametrize("n", [12, 1000])
    def test_fringe_at_the_nyquist_frequency(self, n):
        # the sin row is rounding: a singular 3x3 system, whose direction the
        # solve drops as lstsq does; the fit is exact
        p0 = 0.5 + 0.4 * (-1.0) ** np.arange(n)
        traj = Trajectory(np.arange(n) * 2.0, np.column_stack([p0, 1 - p0]), Basis.DIABATIC)
        fit = rabi_frequency(traj)
        f_mhz, amplitude, _ = _lstsq_fit(traj)
        assert fit.frequency_mhz == f_mhz == 250.0
        assert fit.amplitude == pytest.approx(amplitude, rel=1e-12, abs=0)
        assert fit.amplitude == pytest.approx(0.4, rel=1e-12)
        assert fit.residual_rms < 1e-13


def _np_trig_fit(traj: Trajectory) -> tuple[float, float, float]:
    """The frequency, amplitude and residual rms of `rabi_frequency` with
    ``np.hanning``'s window and a basis of ``np.cos``/``np.sin`` of the
    sampled phases: the reference for the window and basis that
    ``analysis._unit_phases`` forms by angle addition."""
    x, dt = _uniform_signal(traj)
    k_min = analysis._RABI_MIN_CYCLES
    mag = np.abs(np.fft.rfft((x - np.mean(x)) * np.hanning(x.size)))
    f_mhz = _peak_bin(mag, int(np.argmax(mag[k_min:])) + k_min) * (1e3 / (x.size * dt))
    t = np.arange(x.size) * dt
    ph = 2e-3 * math.pi * f_mhz * t
    basis = np.stack([np.cos(ph), np.sin(ph), np.ones_like(t)])
    coef = np.linalg.lstsq(basis @ basis.T, basis @ x, rcond=1e-10)[0]
    resid = x - coef @ basis
    return f_mhz, math.hypot(coef[0], coef[1]), float(np.sqrt(np.mean(resid**2)))


def _nyquist_fringe(n: int) -> Trajectory:
    p0 = 0.5 + 0.4 * (-1.0) ** np.arange(n)
    return Trajectory(np.arange(n) * 2.0, np.column_stack([p0, 1 - p0]), Basis.DIABATIC)


class TestAngleAddition:
    """The window and the cosine basis by angle addition against the
    transcendental calls they replace: both round each phase k step once
    before its cos and sin, so the fit moves only at that rounding."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(step=st.floats(1e-6, math.pi), n=st.integers(1, 50_000))
    def test_unit_phases_match_mpmath(self, step, n):
        z = analysis._unit_phases(step, n)
        assert z.shape == (n,) and z.dtype == complex
        block = math.isqrt(n)
        # both ends, the first block's edge and points between
        ks = {0, 1, block - 1, block, block + 1, n - 2, n - 1, *np.linspace(0, n - 1, 13).astype(int)}
        with mpmath.workprec(113):
            for k in sorted(i for i in ks if 0 <= i < n):
                exact = mpmath.expj(k * mpmath.mpf(step))
                assert abs(mpmath.mpc(complex(z[k])) - exact) <= (1 + k * step) * 4e-16

    def test_window_is_hanning(self):
        for n in (12, 161, 241, 1003, 40001):
            w = 0.5 - 0.5 * analysis._unit_phases(2 * math.pi / (n - 1), n).real
            assert np.max(np.abs(w - np.hanning(n))) < 1e-15

    @pytest.mark.parametrize("name", ["strobe", "fig3a", "fig3b", "fig3d", "fewest", "nyquist12",
                                      "nyquist1000"])
    def test_fit_matches_np_trig(self, name):
        if name == "strobe":  # the benchmark's 20000-period strobe: 40001 samples
            traj = stroboscopic_evolve(DriveParameters(**FIG3A, n_periods=20000), 20000)
        elif name.startswith("fig"):  # the presets' series: 1003, 241 and 161 samples
            traj = run_figure(name).series["ode"]
        elif name == "fewest":
            traj = _fringe(12, 0.7)
        else:
            traj = _nyquist_fringe(int(name[7:]))
        fit = rabi_frequency(traj)
        f_mhz, amplitude, rms = _np_trig_fit(traj)
        assert fit.frequency_mhz == pytest.approx(f_mhz, rel=1e-12, abs=0)
        assert fit.amplitude == pytest.approx(amplitude, rel=0, abs=1e-12)
        assert fit.residual_rms == pytest.approx(rms, rel=0, abs=1e-12)


class TestUniformSignal:
    def _traj(self, times):
        p0 = 0.5 + 0.4 * np.cos(0.3 * np.arange(times.size))
        return Trajectory(times, np.column_stack([p0, 1 - p0]), Basis.DIABATIC)

    @pytest.mark.parametrize("first, last", [(0.0, 44.0), (19.0, 44.0), (0.0, 20.0), (45.0, 19.0)])
    def test_an_odd_first_or_last_interval_drops_its_sample(self, first, last):
        times = np.arange(10) * 64.0 + 100.0
        times[0] -= first
        times[-1] -= last
        x, dt = _uniform_signal(self._traj(times))
        lo, hi = int(first != 0), 10 - int(last != 0)
        assert dt == 64.0
        assert np.array_equal(x, self._traj(times).p0[lo:hi])

    @pytest.mark.parametrize("where", [2, 5, 8])
    def test_an_odd_interior_interval_is_refused(self, where):
        times = np.arange(10) * 64.0
        times[where:] += 3.0
        with pytest.raises(ValueError, match="^spectral analysis requires uniform sampling$"):
            _uniform_signal(self._traj(times))


class TestRamseyFit:
    def _synthetic(self, t2_star_us=6.56, f_mhz=0.56, n=400, t_max_us=14.0):
        t_us = np.linspace(0.0, t_max_us, n)
        signal = 0.5 - 0.5 * np.exp(-((t_us / t2_star_us) ** 2)) * np.cos(
            2 * math.pi * f_mhz * t_us
        )
        return Trajectory(
            t_us * 1000.0, np.column_stack([signal, 1 - signal]), Basis.DIABATIC
        )

    def test_round_trip_recovery(self):
        fit = ramsey_fit(self._synthetic())
        assert fit.frequency_mhz == pytest.approx(0.56, rel=1e-3)
        assert fit.decay_time_us == pytest.approx(6.56, rel=1e-3)
        assert fit.amplitude == pytest.approx(0.5, rel=1e-3)
        assert fit.residual_rms < 1e-9

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_fringe_decayed_early_in_the_span(self, n):
        # T* = 1.34 us over 28.6 us: a Hann window, zero at t = 0, leaves no
        # peak near 0.84 MHz, and a fit from its peak fell to the corner
        # (1e-3 us, 1e-6 MHz), which fits the first sample alone
        fit = ramsey_fit(self._synthetic(t2_star_us=1.34, f_mhz=0.84, n=n, t_max_us=28.6))
        assert fit.decay_time_us == pytest.approx(1.34, rel=1e-9)
        assert fit.frequency_mhz == pytest.approx(0.84, rel=1e-9)
        assert fit.residual_rms < 1e-9

    def test_frequency_below_nyquist(self):
        # a fringe sampled every 50.3 ns has an alias near 1948 MHz that fits
        # as well as it does; f is bounded by the 9.94 MHz Nyquist frequency
        t_us = np.linspace(0.0, 32.093, 639)
        p0 = 0.5 + 0.5 * np.exp(-((t_us / 2.4818) ** 2)) * np.cos(2 * math.pi * 0.182 * t_us)
        fit = ramsey_fit(Trajectory(t_us * 1e3, np.column_stack([p0, 1 - p0]), Basis.DIABATIC))
        assert fit.frequency_mhz == pytest.approx(0.182, rel=1e-6)
        assert fit.decay_time_us == pytest.approx(2.4818, rel=1e-6)

    def test_constant_signal_raises(self):
        t = np.linspace(0, 10000.0, 200)
        traj = Trajectory(t, np.column_stack([np.full(200, 0.5), np.full(200, 0.5)]),
                          Basis.DIABATIC)
        with pytest.raises(FitFailureError):
            ramsey_fit(traj)

    @staticmethod
    def _curve_fit(traj, **tolerances):
        """(a, T*, f, c) as scipy's curve_fit fits them, from the start
        ramsey_fit takes: the unwindowed periodogram's peak and half the
        span, clipped into the bounds."""
        from scipy.optimize import curve_fit

        t_us, x = traj.times / 1000.0, traj.p0
        xs, dt = _uniform_signal(traj)
        mag = np.abs(np.fft.rfft(xs - np.mean(xs)))
        f0 = _peak_bin(mag, int(np.argmax(mag[1:])) + 1) * (1e3 / (xs.size * dt))
        lo, hi = [-2.0, 1e-3, 1e-6, -1.0], [2.0, 1e4, 500 / dt, 2.0]
        start = np.clip([x[0] - np.mean(x), (t_us[-1] - t_us[0]) / 2, f0, np.mean(x)], lo, hi)

        def model(t, a, t_star, f, c):
            return a * np.exp(-((t / t_star) ** 2)) * np.cos(2 * math.pi * f * t) + c

        return curve_fit(model, t_us, x, p0=start, bounds=(lo, hi), maxfev=20000, **tolerances)[0]

    def _assert_matches_curve_fit(self, traj, **tolerances):
        fit = ramsey_fit(traj)
        a, t_star, f, _ = self._curve_fit(traj, **tolerances)
        assert fit.decay_time_us == pytest.approx(t_star, rel=1e-6)
        assert fit.frequency_mhz == pytest.approx(f, rel=1e-6)
        assert fit.amplitude == pytest.approx(abs(a), rel=1e-6)

    def test_ensemble_fid_matches_curve_fit(self):
        # criterion 7's simulated ensemble
        drive = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=0.0, period_ns=1000.0, n_periods=13)
        traj = evolve_ensemble_dephased(
            drive, t2_star_us=6.56, initial=QubitState(1 / math.sqrt(2), -1j / math.sqrt(2)),
            t_span=(0.0, 13000.0), sample_every=25.0, detuning_mhz=0.56,
            readout_rotation=math.pi / 2)
        self._assert_matches_curve_fit(traj)

    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_fid_matches_curve_fit(self, seed):
        traj = self._synthetic(n=560)
        noise = 0.02 * np.random.default_rng(seed).standard_normal(len(traj))
        p0 = traj.p0 + noise
        self._assert_matches_curve_fit(Trajectory(traj.times, np.column_stack([p0, 1 - p0]),
                                                  Basis.DIABATIC))

    def test_start_clipped_into_the_bounds(self):
        # half the 3e4 us span is past the 1e4 us bound on T*, so the fit
        # starts from the bound
        traj = self._synthetic(t2_star_us=5000.0, f_mhz=1e-3, n=600, t_max_us=30000.0)
        self._assert_matches_curve_fit(traj)
        assert ramsey_fit(traj).decay_time_us == pytest.approx(5000.0, rel=1e-9)

    @pytest.mark.parametrize("amplitude, offset", [(2.5, 0.5), (0.5, -1.3), (-2.4, 2.3)])
    def test_bounds_on_amplitude_and_offset_bind(self, amplitude, offset):
        # the fit lands on |A| = 2 or on c = -1 or 2; curve_fit's default
        # tolerances stop it about 5e-6 short there, so it runs to convergence
        t_us = np.linspace(0.0, 14.0, 560)
        p0 = offset + amplitude * np.exp(-((t_us / 6.56) ** 2)) * np.cos(2 * math.pi * 0.56 * t_us)
        traj = Trajectory(t_us * 1e3, np.column_stack([p0, 1 - p0]), Basis.DIABATIC)
        self._assert_matches_curve_fit(traj, xtol=1e-15, ftol=1e-15, gtol=1e-15)

    def test_no_fringe_raises(self):
        # one spike: a flat spectrum, with no peak above its floor
        p0 = np.full(400, 0.5)
        p0[200] = 0.6
        traj = Trajectory(np.arange(400) * 25.0, np.column_stack([p0, 1 - p0]), Basis.DIABATIC)
        with pytest.raises(FitFailureError, match="no fringe to fit"):
            ramsey_fit(traj)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "_FIT_STEPS", 1)
        with pytest.raises(FitFailureError, match="no convergence in 1 steps"):
            ramsey_fit(self._synthetic())

    def test_non_finite_signal_raises(self):
        traj = self._synthetic()
        p0 = traj.p0.copy()
        p0[7] = np.nan
        with pytest.raises(FitFailureError, match="not finite"):
            ramsey_fit(Trajectory(traj.times, np.column_stack([p0, 1 - p0]), Basis.DIABATIC))


class TestDetectSteps:
    def test_zero_gap_no_jumps(self):
        p = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=100.0, period_ns=128.0, n_periods=3)
        traj = evolve(p, sample_every=2.0)
        events = detect_steps(traj, p)
        assert len(events) == 6
        assert all(abs(e.jump) < 1e-9 for e in events)

    def test_slow_passage_first_jump(self):
        # window-limited jump across the first crossing; the T/10 window
        # captures most of the 1 - P_LZ ~ 0.935 transfer at this sweep ratio
        p, traj = slow_traj(n_periods=1)
        events = detect_steps(traj, p)
        assert events[0].complete
        assert events[0].jump == pytest.approx(-0.871, abs=0.03)

    def test_jump_converges_to_lz_transfer_with_sweep_ratio(self):
        # fixed P_LZ = 0.1; the window-edge interference wiggles scale as
        # delta/eps_m so the measured jump converges to 1 - P_LZ
        errors = []
        for ratio in (10, 20, 40):
            delta = 6.0
            eps_m = ratio * delta
            # keep the crossing probability fixed: T proportional to eps_m
            T = -math.log(0.1) / (math.pi**2 * delta**2 * 1e-3) * 4 * eps_m
            p = DriveParameters(delta, eps_m, T, n_periods=1)
            traj = evolve(p, t_span=(0.0, T / 2), sample_every=T / 512)
            events = detect_steps(traj, p)
            errors.append(abs(abs(events[0].jump) - (1 - lz_probability(p))))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.05

    def test_alternating_steps_mid_regime(self):
        p = DriveParameters(**FIG3D, n_periods=4)
        traj = evolve(p, t_span=(0.0, 4 * 592.0), sample_every=592.0 / 64)
        jumps = [e.jump for e in detect_steps(traj, p) if e.complete]
        assert len(jumps) >= 6
        assert all(a * b < 0 for a, b in zip(jumps[:-1], jumps[1:]))

    def test_partial_window_flagged(self):
        p = DriveParameters(**FIG3B, n_periods=1)
        traj = evolve(p, t_span=(140.0, 606.0), sample_every=4.0)
        events = detect_steps(traj, p)
        # first crossing at 151.5 ns: window [121.2, 181.8] clipped at 140
        assert not events[0].complete
        assert events[1].complete
