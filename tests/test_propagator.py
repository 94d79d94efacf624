import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite_e import hermegauss

from lzsim import (
    DriveParameters,
    IntegrationError,
    IntegratorConfig,
    QubitState,
    evolve,
    evolve_ensemble_dephased,
)
from lzsim import propagator
from lzsim.model import angular_to_mhz, epsilon_at, mhz_to_angular
from conftest import (FIG3A, FIG3B, FIG3D, drive_step_maps, evolve_lab_frame_toy, rk4_maps,
                      step_by_step)


def resonant_drive(delta=5.0, n=8):
    return DriveParameters(delta_mhz=delta, epsilon_m_mhz=0.0, period_ns=128.0, n_periods=n)


class TestAnalyticLimits:
    def test_resonant_rabi(self):
        # eps_m = 0: P1(t) = sin^2(pi * delta * t), delta in MHz, t in ns
        p = resonant_drive()
        traj = evolve(p, t_span=(0.0, 1000.0), sample_every=1.0)
        expected = np.sin(math.pi * 5.0e-3 * traj.times) ** 2
        assert np.max(np.abs(traj.p1 - expected)) < 1e-6

    def test_sigma_z_only_preserves_populations(self):
        p = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=100.0, period_ns=128.0, n_periods=4)
        traj = evolve(p, sample_every=2.0)
        assert np.max(np.abs(traj.p0 - 1.0)) < 1e-9

    def test_gauge_offset_with_zero_gap(self):
        # adding a constant to eps(t) with delta = 0 changes no population;
        # pin the step so both runs share a grid (the offset raises the
        # automatic step ceiling otherwise)
        p = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=100.0, period_ns=128.0, n_periods=4)
        cfg = IntegratorConfig(max_step_ns=0.01)
        init = QubitState(0.6, 0.8j)
        base = evolve(p, cfg, initial=init, sample_every=2.0)
        shifted = evolve(p, cfg, initial=init, sample_every=2.0, epsilon_offset_mhz=37.0)
        assert np.array_equal(base.times, shifted.times)
        assert np.max(np.abs(base.populations - shifted.populations)) < 1e-9


def halving_finals(p, span):
    """Final states of ``span`` at the steps h, h/2 and h/4.  The base step
    has Omega_max*h ~ 0.05, so the h^4 term dominates, and divides the
    quarter period exactly, so halving doubles the count."""
    quarter = p.period_ns / 4
    omega_max = math.hypot(p.epsilon_m_ang, p.delta_ang)
    base = quarter / math.ceil(quarter * omega_max / (2 * math.pi) * 128)
    finals = []
    for divisor in (1, 2, 4):
        cfg = IntegratorConfig(max_step_ns=base / divisor, steps_per_min_period=1,
                               norm_drift_tolerance=1e-3)
        finals.append(evolve(p, cfg, t_span=span, sample_every=span[1] - span[0]).amplitudes[-1])
    return finals


def halving_ratio(x):
    """e1/e2 for values x at the steps h, h/2 and h/4, where e1 and e2 are
    the changes of the two halvings."""
    e1 = np.max(np.abs(x[0] - x[1]))
    e2 = np.max(np.abs(x[1] - x[2]))
    assert e2 > 0
    return e1 / e2


def count_ramp_maps(monkeypatch):
    """The sizes of the map arrays `propagator._ramp_map` builds from now on."""
    built = []
    ramp_map = propagator._ramp_map

    def counted(*args):
        maps = ramp_map(*args)
        built.append(maps[0].size)
        return maps

    monkeypatch.setattr(propagator, "_ramp_map", counted)
    return built


def record_partners(monkeypatch):
    """The partners `propagator._partners` picks from now on, one per kernel
    call (None where the sigma_x reflection does not hold)."""
    picked = []
    partners = propagator._partners

    def recorded(grid, offsets):
        picked.append(partners(grid, offsets))
        return picked[-1]

    monkeypatch.setattr(propagator, "_partners", recorded)
    return picked


class TestNumericalQuality:
    def test_norm_conservation_100k_steps(self):
        p = DriveParameters(**FIG3A, n_periods=25)
        traj = evolve(p, t_span=(0.0, 2600.0), sample_every=2.0)
        # default resolution: dt = 32/1283 ns -> > 1e5 steps over 2.6 us
        assert 2600.0 / (32.0 / 1283) > 1e5
        norms = np.sqrt(np.sum(np.abs(traj.amplitudes) ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) <= 1e-8

    def test_norm_drift_of_a_constant_drive_over_100000_periods(self):
        # a constant drive repeats one step, so the drift after N steps is
        # r^N - 1 with r the norm of that step's map; the closed-form powers
        # of the period map keep that growth instead of rounding it away.  At
        # 100 steps per period RK4's growth per step (1e-13) stands above the
        # rounding of the period map, which 1e7 periods of four steps amplify
        p = DriveParameters(delta_mhz=5.57, epsilon_m_mhz=0.0, period_ns=128.0,
                            n_periods=100000)
        cfg = IntegratorConfig(steps_per_min_period=100, norm_drift_tolerance=1e-4)
        traj = evolve(p, cfg, sample_every=128.0)
        grid = propagator._build_grid(p, cfg, (0.0, p.total_time_ns), 128.0)
        (a, c), = propagator._ramp_map("fixed-rk4", grid.h, np.zeros(1), 0.0,
                                       p.delta_ang / 2).T
        r2m1 = (a.real - 1) * (a.real + 1) + a.imag ** 2 + abs(c) ** 2  # r^2 - 1
        want = math.expm1(grid.n[0, -1] / 2 * math.log1p(r2m1))
        drift = np.linalg.norm(traj.amplitudes[-1]) - 1.0
        assert abs(drift) > 1e-6 and abs(drift - want) <= 1e-4 * abs(want)

    @pytest.mark.parametrize("params", [FIG3A, FIG3B, FIG3D])
    def test_step_halving_fourth_order(self, params):
        p = DriveParameters(**params, n_periods=6)
        # end on the quarter-period grid but off the full-period symmetry
        # points, where the leading h^4 error coefficient can cancel and the
        # observed order jumps to five
        pops = [np.abs(a) ** 2 for a in halving_finals(p, (0.0, 3.5 * p.period_ns))]
        assert 12.0 <= halving_ratio(pops) <= 20.0

    @pytest.mark.parametrize("drive, span", [
        (dict(**FIG3A, n_periods=3, t_offset_ns=19.0), (0.0, 384.0)),
        (dict(**FIG3A, n_periods=3), (50.0, 384.0)),
    ], ids=["t_offset_19", "t_span_50_384"])
    def test_step_halving_fourth_order_off_a_turning_point(self, drive, span):
        # the grid starts on the turning point before the span and reaches the
        # start and the end by partial ramp steps, so no kink falls inside a
        # step: the order stays four (one and two with kinks inside steps)
        assert 12.0 <= halving_ratio(halving_finals(DriveParameters(**drive), span)) <= 20.0

    @pytest.mark.parametrize("params", [FIG3A, FIG3B, FIG3D])
    def test_halving_default_resolution_converged(self, params):
        p = DriveParameters(**params, n_periods=6)
        t_end = 5 * p.period_ns
        final = []
        for spp in (400, 800):
            cfg = IntegratorConfig(steps_per_min_period=spp)
            traj = evolve(p, cfg, t_span=(0.0, t_end), sample_every=t_end)
            final.append(traj.populations[-1])
        assert np.max(np.abs(final[0] - final[1])) < 1e-6

    def test_time_reversal(self):
        # the triangle is even about its trough, so over an integer number of
        # periods the reversed drive is the drive itself: conjugate-evolve the
        # conjugated final state and recover the initial populations
        p = DriveParameters(**FIG3A, n_periods=5)
        t_end = 5 * p.period_ns
        fwd = evolve(p, t_span=(0.0, t_end), sample_every=t_end)
        a0, a1 = fwd.amplitudes[-1]
        back = evolve(
            p,
            initial=QubitState(complex(a0).conjugate(), complex(a1).conjugate()),
            t_span=(0.0, t_end),
            sample_every=t_end,
        )
        assert abs(back.p0[-1] - 1.0) < 1e-6
        assert abs(back.p1[-1]) < 1e-6

    def test_norm_drift_raises_not_renormalizes(self):
        p = DriveParameters(**FIG3A, n_periods=10)
        cfg = IntegratorConfig(steps_per_min_period=8, norm_drift_tolerance=1e-12)
        with pytest.raises(IntegrationError, match="norm drift"):
            evolve(p, cfg, t_span=(0.0, 10 * 128.0), sample_every=64.0)

    def test_nan_drift_raises(self):
        # the norm check must not let NaN states pass as "no drift over
        # tolerance" (a NaN drive is now rejected before it gets this far)
        states = np.full((1, 3, 2), math.nan, dtype=complex)
        with pytest.raises(IntegrationError, match="norm drift"):
            propagator._check_norms(states, 1e-8)

    @pytest.mark.parametrize("kw", [
        dict(norm_drift_tolerance=math.nan),
        dict(norm_drift_tolerance=math.inf),
        dict(max_step_ns=math.nan),
        dict(max_step_ns=math.inf),
    ])
    def test_non_finite_config_rejected(self, kw):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**kw)

    def test_invalid_span_rejected(self):
        p = DriveParameters(**FIG3A, n_periods=2)
        with pytest.raises(ValueError):
            evolve(p, t_span=(100.0, 50.0))
        with pytest.raises(ValueError):
            evolve(p, t_span=(0.0, 10 * 128.0))
        with pytest.raises(ValueError):
            evolve(p, t_span=(-5.0, 128.0))

    def test_trajectory_contract(self):
        p = DriveParameters(**FIG3A, n_periods=8)
        traj = evolve(p, t_span=(0.0, 1000.0), sample_every=7.0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1000.0
        assert np.all(np.diff(traj.times) > 0)
        assert np.max(np.abs(traj.populations.sum(axis=1) - 1.0)) < 1e-8


class TestPiecewiseExact:
    def test_exact_for_constant_drive(self):
        p = resonant_drive()
        cfg = IntegratorConfig(method="piecewise-exact", steps_per_min_period=40)
        traj = evolve(p, cfg, t_span=(0.0, 1000.0), sample_every=5.0)
        expected = np.sin(math.pi * 5.0e-3 * traj.times) ** 2
        assert np.max(np.abs(traj.p1 - expected)) < 1e-12

    def test_unitary_to_machine_precision(self):
        p = DriveParameters(**FIG3A, n_periods=20)
        cfg = IntegratorConfig(method="piecewise-exact", norm_drift_tolerance=1e-12)
        traj = evolve(p, cfg, t_span=(0.0, 20 * 128.0), sample_every=64.0)
        norms = np.sqrt(np.sum(np.abs(traj.amplitudes) ** 2, axis=1))
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_cross_checks_rk4(self):
        p = DriveParameters(**FIG3A, n_periods=5)
        kw = dict(t_span=(0.0, 5 * 128.0), sample_every=16.0)
        rk4 = evolve(p, IntegratorConfig(), **kw)
        pwe = evolve(p, IntegratorConfig(method="piecewise-exact"), **kw)
        assert np.max(np.abs(rk4.populations - pwe.populations)) < 5e-3


class TestLabFrameToy:
    def test_rwa_envelope_at_ratio_100(self):
        delta, omega0 = 5.0, 500.0
        drive = resonant_drive(delta=delta, n=2)
        t_end = 200.0  # one Rabi period at 5 MHz
        lab = evolve_lab_frame_toy(delta, omega0, drive, t_span=(0.0, t_end), sample_every=0.5)
        rwa = evolve(drive, t_span=(0.0, t_end), sample_every=0.5)
        # grids snap independently; compare on the lab sample times
        rwa_p1 = np.interp(lab.times, rwa.times, rwa.p1)
        assert np.max(np.abs(lab.p1 - rwa_p1)) < 0.02

    def test_zero_gap_populations_constant(self):
        drive = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=0.0, period_ns=128.0, n_periods=2)
        lab = evolve_lab_frame_toy(0.0, 500.0, drive, t_span=(0.0, 200.0), sample_every=1.0)
        assert np.max(np.abs(lab.p0 - 1.0)) < 1e-8

    def test_deviation_shrinks_with_carrier_ratio(self):
        delta = 5.0
        drive = resonant_drive(delta=delta, n=2)
        t_end = 200.0
        rwa = evolve(drive, t_span=(0.0, t_end), sample_every=1.0)
        devs = []
        for ratio in (20, 200):
            lab = evolve_lab_frame_toy(delta, ratio * delta, drive,
                                       t_span=(0.0, t_end), sample_every=1.0)
            rwa_p1 = np.interp(lab.times, rwa.times, rwa.p1)
            devs.append(float(np.max(np.abs(lab.p1 - rwa_p1))))
        assert devs[1] < devs[0]

    def test_ratio_below_20_rejected(self):
        drive = resonant_drive()
        with pytest.raises(ValueError, match="omega0/delta"):
            evolve_lab_frame_toy(5.0, 80.0, drive)


def weighted_populations(grid, b, half_offsets, weights, psi0, cfg, readout=0.0):
    """The dephasing average's reduction over `propagator._member_states`, on a
    grid of the caller's choosing: populations summed with ``weights``."""
    pops = np.zeros((grid.times.size, 2))
    for idx, states in propagator._member_states(grid, b, half_offsets, psi0, cfg,
                                                 np.arange(half_offsets.size)):
        if readout:
            states = propagator._apply(propagator.rotation_x(readout), states)
        pops += np.tensordot(weights[idx], np.abs(states) ** 2, axes=1)
    return pops


class TestEnsemble:
    def test_single_noiseless_member_matches_evolve(self):
        # with and without an offset (detuning_mhz against epsilon_offset_mhz),
        # from a basis state and from a superposition
        p = DriveParameters(**FIG3A, n_periods=4)
        for offset_mhz, initial in ((0.0, QubitState.ket0()), (3.7, QubitState.ket0()),
                                    (-12.5, QubitState(0.6, 0.8j))):
            kw = dict(initial=initial, t_span=(0.0, 4 * 128.0), sample_every=8.0)
            single = evolve(p, epsilon_offset_mhz=offset_mhz, **kw)
            ens = evolve_ensemble_dephased(p, t2_star_us=math.inf, detuning_mhz=offset_mhz, **kw)
            assert np.array_equal(ens.times, single.times)
            assert np.array_equal(ens.populations, single.populations)
            assert ens.amplitudes is None
            assert ens.noise_nodes == 1

    @pytest.mark.parametrize("entry", ["evolve", "evolve_ensemble_dephased"])
    def test_one_kernel_call_and_neither_calls_the_other(self, monkeypatch, entry):
        # both entry points run the one body, not each other, so each is
        # timed on its own and makes one kernel call
        def refuse(*args, **kwargs):
            raise AssertionError("called the other entry point")

        calls = []
        kernel = propagator._propagate
        run = getattr(propagator, entry)
        other = ({"evolve", "evolve_ensemble_dephased"} - {entry}).pop()
        monkeypatch.setattr(propagator, other, refuse)
        monkeypatch.setattr(propagator, "_propagate",
                            lambda *args: calls.append(1) or kernel(*args))
        run(DriveParameters(**FIG3A, n_periods=4), sample_every=8.0)
        assert len(calls) == 1

    def test_rerun_determinism(self):
        # the average is a quadrature, not a draw: a rerun gives the same bytes
        p = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=0.0, period_ns=500.0, n_periods=10)
        init = QubitState(1 / math.sqrt(2), -1j / math.sqrt(2))
        kw = dict(t2_star_us=6.56, initial=init, t_span=(0.0, 4000.0), sample_every=50.0,
                  readout_rotation=math.pi / 2)
        a = evolve_ensemble_dephased(p, **kw)
        b = evolve_ensemble_dephased(p, **kw)
        assert a.populations.tobytes() == b.populations.tobytes()
        assert a.times.tobytes() == b.times.tobytes()
        assert a.noise_nodes == b.noise_nodes > 1

    def test_driven_oscillation_survives_dephasing(self, fig3a_drive):
        # quasi-static detuning noise is echoed away by the sweep: the
        # late-time oscillation amplitude stays within 10% of the clean run
        cfg = IntegratorConfig(steps_per_min_period=60, norm_drift_tolerance=1e-3)
        kw = dict(t_span=(0.0, 8000.0), sample_every=16.0)
        clean = evolve(fig3a_drive, cfg, **kw)
        noisy = evolve_ensemble_dephased(fig3a_drive, cfg, t2_star_us=6.56, **kw)
        window = noisy.times > 6500.0
        amp_clean = (clean.p0[window].max() - clean.p0[window].min()) / 2
        amp_noisy = (noisy.p0[window].max() - noisy.p0[window].min()) / 2
        assert amp_clean > 0.4
        assert 1.0 - amp_noisy / amp_clean < 0.10

    def test_few_members_share_one_grid(self):
        # members used to get a grid each, sized by their own offset: most
        # ensembles then disagreed on the sample count and the average crashed
        p = DriveParameters(**FIG3A, n_periods=8)
        for t2_star_us in (0.3, 0.5, 1.0, 2.0, 6.56, 50.0):
            ens = evolve_ensemble_dephased(p, t2_star_us=t2_star_us, t_span=(0.0, 1000.0))
            assert ens.times[-1] == 1000.0
            assert np.max(np.abs(ens.populations.sum(axis=1) - 1.0)) < 1e-8

    def test_preconditions(self):
        p = resonant_drive()
        for t2_star_us in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="t2_star_us"):
                evolve_ensemble_dephased(p, t2_star_us=t2_star_us)
        # a phase spread past a million nodes (or infinite, from a subnormal
        # T2*) is refused before any allocation
        for t2_star_us in (1e-9, 1e-320):
            with pytest.raises(ValueError, match="quadrature nodes"):
                evolve_ensemble_dephased(p, t2_star_us=t2_star_us)


class TestNoiseQuadrature:
    """The quadrature over the Gaussian offset that replaced the Monte Carlo draw."""

    @pytest.mark.parametrize("spread", [0.11, 1.7, 2.8, 4.0, 5.0, 11.3, 29.0, 100.0])
    def test_free_induction_signal_is_exact(self, spread):
        # E cos(a X) = exp(-a^2/2) for every a up to the spread: the fastest
        # oscillation the rule must resolve, both sides of the switch of rule
        x, w = propagator._noise_nodes(spread)
        a = np.linspace(0.0, spread, 500)
        assert abs(w.sum() - 1.0) < 1e-15
        assert np.max(np.abs(np.cos(np.outer(a, x)) @ w - np.exp(-a * a / 2))) < 1e-13

    def test_gauss_hermite_rule_is_built_once_per_node_count(self):
        # spreads 1.7 and 1.75 both take 18 nodes: the second request reads
        # the first one's read-only arrays, numpy's rule with weights summing to 1
        x, w = propagator._noise_nodes(1.7)
        assert all(a is b for a, b in zip(propagator._noise_nodes(1.75), (x, w)))
        assert not (x.flags.writeable or w.flags.writeable)
        x18, w18 = hermegauss(18)
        assert np.array_equal(x, x18) and np.array_equal(w, w18 / w18.sum())

    def test_node_count_follows_the_spread(self):
        counts = [propagator._noise_nodes(a)[0].size for a in (0.0, 0.11, 1.7, 11.3, 100.0)]
        assert counts == [1, 9, 18, 55, 295]

    SETUPS = {
        # drive, span, sample spacing, T2* (us), initial state, readout rotation
        "fig3a": (dict(**FIG3A, n_periods=63), (0.0, 8000.0), 8.0, 6.56, QubitState.ket0(), 0.0),
        "fig3d": (dict(**FIG3D, n_periods=10), (0.0, 5920.0), 37.0, 6.56, QubitState.ket0(), 0.0),
        "ramsey": (dict(delta_mhz=0.0, epsilon_m_mhz=0.0, period_ns=1000.0, n_periods=13),
                   (0.0, 13000.0), 25.0, 6.56, QubitState(1 / math.sqrt(2), -1j / math.sqrt(2)),
                   math.pi / 2),
    }

    @pytest.mark.parametrize("name", list(SETUPS))
    def test_doubling_the_nodes_moves_populations_below_1e9(self, name):
        # both node sets run on one grid, sized by the larger set's largest
        # node: the sample times depend on it, and interpolating between two
        # grids would hide the convergence
        drive, span, every, t2_star_us, init, readout = self.SETUPS[name]
        p, cfg = DriveParameters(**drive), IntegratorConfig()
        sigma = math.sqrt(2) / t2_star_us / 1000.0
        x, w = propagator._noise_nodes(sigma * (span[1] - span[0]))
        x2, w2 = hermegauss(2 * x.size)
        w2 = w2 / w2.sum()
        grid = propagator._build_grid(p, cfg, span, every,
                                      extra_omega_ang=sigma * float(np.max(x2)))

        def populations(nodes, weights):
            return weighted_populations(grid, p.delta_ang / 2, sigma * nodes / 2, weights,
                                        init.as_array(), cfg, readout)

        assert np.max(np.abs(populations(x, w) - populations(x2, w2))) < 1e-9

    def test_ramsey_signal_is_the_gaussian_envelope(self):
        # free induction after a pi/2 pulse: 1 - 2 P0 = exp(-(t/T2*)^2) up to
        # the integrator's error, for T2* long and short against the span
        # (Gauss-Hermite and trapezoid nodes)
        drive = DriveParameters(delta_mhz=0.0, epsilon_m_mhz=0.0, period_ns=1000.0,
                                n_periods=13)
        init = QubitState(1 / math.sqrt(2), -1j / math.sqrt(2))
        for t2_star_us in (6.56, 1.0):
            traj = evolve_ensemble_dephased(drive, t2_star_us=t2_star_us, initial=init,
                                            t_span=(0.0, 13000.0), sample_every=25.0,
                                            readout_rotation=math.pi / 2)
            envelope = np.exp(-((traj.times / (1000.0 * t2_star_us)) ** 2))
            assert np.max(np.abs(1.0 - 2.0 * traj.p0 - envelope)) < 1e-8


class TestPeriodicKernel:
    """The one-period dense kernel against an independent step-by-step RK4."""

    CFG = dict(steps_per_min_period=100, norm_drift_tolerance=1e-6)
    CASES = {
        # off a turning point: start phase shifted or a span starting inside
        # a ramp, gcd(s, L) < s, every sample a partial step past the grid
        "t_offset": (dict(**FIG3A, n_periods=3, t_offset_ns=37.0), (0.0, 384.0), 10.0,
                     "fixed-rk4", True),
        "t_offset_exact": (dict(**FIG3A, n_periods=3, t_offset_ns=37.0), (0.0, 384.0), 10.0,
                           "piecewise-exact", True),
        "mid_period_start": (dict(**FIG3A, n_periods=3), (50.0, 332.8), 7.3,
                             "fixed-rk4", True),
        "mid_period_start_exact": (dict(**FIG3A, n_periods=3), (50.0, 332.8), 7.3,
                                   "piecewise-exact", True),
        # a constant drive (four steps a period) ending inside a step, and a
        # span of one period, every sample on a step boundary
        "eps_m_zero": (dict(delta_mhz=5.0, epsilon_m_mhz=0.0, period_ns=128.0, n_periods=3),
                       (0.0, 300.0), 7.0, "fixed-rk4", True),
        "one_period": (dict(**FIG3A, n_periods=1), (0.0, 128.0), 4.0, "fixed-rk4", False),
        "one_period_exact": (dict(**FIG3A, n_periods=1), (0.0, 128.0), 4.0,
                             "piecewise-exact", False),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_step_by_step_batch(self, name):
        drive, span, every, method, partial = self.CASES[name]
        p = DriveParameters(**drive)
        cfg = IntegratorConfig(method=method, **self.CFG)
        grid = propagator._build_grid(p, cfg, span, every)
        assert grid.n.max() >= grid.L and grid.f.any() == partial
        if name.startswith(("t_offset", "mid_period")):
            s = int(grid.n[0, 1] - grid.n[0, 0])
            assert math.gcd(s, grid.L) < s and grid.tp < span[0]
        psi0 = QubitState(0.6, 0.8j).as_array()
        dense = propagator._propagate(grid, p.delta_ang / 2, np.zeros(1), psi0, method)[0]
        stepped = step_by_step(p, grid, np.zeros(1), psi0, method)[0]
        assert np.max(np.abs(dense - stepped)) < 1e-11

    @pytest.mark.parametrize("method", ["fixed-rk4", "piecewise-exact"])
    def test_ensemble_matches_step_by_step_batch(self, monkeypatch, method):
        # quadrature nodes as members (Gauss-Hermite at T2* = 0.5 us, 14 nodes,
        # trapezoid at 0.1 us, 39 nodes), with a shared detuning or paired off
        # +-d without one, and a readout pulse, on a grid of several periods
        # from the turning point before the start, every sample a partial
        # step past it; the small slab runs the members in chunks of four
        # over 4-step slabs
        p = DriveParameters(**FIG3A, n_periods=3, t_offset_ns=37.0)
        cfg = IntegratorConfig(method=method, **self.CFG)
        readout = math.pi / 3
        psi0 = QubitState(0.6, 0.8j)
        for detuning, t2_star_us in [(d, t) for d in (1.3, 0.0) for t in (0.5, 0.1)]:
            kw = dict(t2_star_us=t2_star_us, initial=psi0, t_span=(0.0, 384.0),
                      sample_every=10.0, detuning_mhz=detuning, readout_rotation=readout)
            # the ensemble's members and grid, rebuilt from its nodes
            sigma = math.sqrt(2) / t2_star_us / 1000
            nodes, weights = propagator._noise_nodes(sigma * 384.0)
            offsets_ang = sigma * nodes
            extra = mhz_to_angular(np.max(np.abs(angular_to_mhz(offsets_ang) + detuning)))
            grid = propagator._build_grid(p, cfg, (0.0, 384.0), 10.0, extra_omega_ang=extra)
            assert grid.n.max() > grid.L and grid.f.all() and grid.tp < 0
            stepped = step_by_step(p, grid, offsets_ang + mhz_to_angular(detuning),
                                   psi0.as_array(), method)
            stepped = propagator._apply(propagator.rotation_x(readout), stepped)
            ref = np.tensordot(weights, np.abs(stepped) ** 2, axes=1)
            for slab in (propagator._SLAB, 16):
                monkeypatch.setattr(propagator, "_SLAB", slab)
                picked = record_partners(monkeypatch)
                ens = evolve_ensemble_dephased(p, cfg, **kw)
                assert ens.noise_nodes == nodes.size > 4
                assert np.array_equal(ens.times, grid.times)
                assert np.max(np.abs(ens.populations - ref)) < 1e-11
                assert len(picked) == -(-nodes.size // math.isqrt(slab))
                assert all((partner is None) == bool(detuning) for partner in picked)
            monkeypatch.undo()

    @pytest.mark.parametrize("slab", [3, 8])
    def test_slab_size_does_not_change_states(self, monkeypatch, slab):
        # tiny slabs chain the running product across many slabs, with
        # samples falling inside slabs and on their edges, as very long
        # periods would
        p = DriveParameters(**FIG3A, n_periods=3, t_offset_ns=37.0)
        cfg = IntegratorConfig(**self.CFG)
        kw = dict(t_span=(50.0, 384.0), sample_every=10.0)
        ref = evolve(p, cfg, **kw)
        monkeypatch.setattr(propagator, "_SLAB", slab)
        small = evolve(p, cfg, **kw)
        assert np.max(np.abs(small.amplitudes - ref.amplitudes)) < 1e-12

    def test_memory_does_not_grow_with_steps(self):
        # same sample count, eight times the steps: only one period is held
        def peak(n_periods):
            p = DriveParameters(**FIG3A, n_periods=n_periods)
            t_end = n_periods * p.period_ns
            tracemalloc.start()
            try:
                evolve(p, t_span=(0.0, t_end), sample_every=t_end / 200)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(8), peak(64)
        assert long < 1.2 * short

    def test_long_sample_spacing_builds_no_tail(self, monkeypatch):
        # 1000 fig3a periods sampled every 12850 ns: the span ends 122 periods
        # past the last whole interval, reached from prefix products already
        # formed and one partial step, so it builds no more maps than whole
        # periods apart (12800 ns), plus one partial step per distinct fraction
        built = count_ramp_maps(monkeypatch)
        p = DriveParameters(**FIG3A, n_periods=1000)
        maps, fractions = {}, {}
        for every in (12800.0, 12850.0):
            built.clear()
            evolve(p, t_span=(0.0, 128000.0), sample_every=every)
            maps[every] = sum(built)
            grid = propagator._build_grid(p, IntegratorConfig(), (0.0, 128000.0), every)
            fractions[every] = np.unique(grid.f[grid.f > 0]).size
        assert np.diff(grid.n[0])[-1] < np.diff(grid.n[0])[0]  # a short last interval
        assert maps[12800.0] == grid.L // 4  # a quarter period, and no partial step
        assert maps[12850.0] <= maps[12800.0] + fractions[12850.0]

    @staticmethod
    def _members(n):
        # n members spread over +-4 sigma of the T2* = 6.56 us noise, equal weights
        sigma = math.sqrt(2) / 6.56 / 1000
        return sigma * np.linspace(-4.0, 4.0, n) / 2, np.full(n, 1.0 / n)

    def test_ensemble_memory_does_not_grow_with_members(self):
        # same grid and samples, eight times the members: members run in
        # chunks and only their weighted populations are accumulated
        p = DriveParameters(**FIG3A, n_periods=2)
        cfg = IntegratorConfig(max_step_ns=0.2, steps_per_min_period=40,
                               norm_drift_tolerance=1e-3)
        grid = propagator._build_grid(p, cfg, (0.0, 256.0), 1.0, extra_omega_ang=1e-3)
        psi0 = QubitState.ket0().as_array()

        def peak(n_members):
            half_offsets, weights = self._members(n_members)
            tracemalloc.start()
            try:
                weighted_populations(grid, p.delta_ang / 2, half_offsets, weights, psi0, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2048) < 1.2 * peak(256)

    def test_ensemble_memory_does_not_grow_with_periods(self):
        # same 11 samples over 8 and 1024 periods: U^q is formed only for the
        # q the samples use, not for every power up to the last
        cfg = IntegratorConfig(max_step_ns=0.2, steps_per_min_period=40,
                               norm_drift_tolerance=1e-3)
        half_offsets, weights = self._members(256)
        psi0 = QubitState.ket0().as_array()

        def peak(n_periods):
            p = DriveParameters(**FIG3A, n_periods=n_periods)
            t_end = n_periods * p.period_ns
            grid = propagator._build_grid(p, cfg, (0.0, t_end), t_end / 10,
                                          extra_omega_ang=1e-3)
            tracemalloc.start()
            try:
                weighted_populations(grid, p.delta_ang / 2, half_offsets, weights, psi0, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1024) < 1.2 * peak(8)


class TestMirroredPeriod:
    """The period map and every prefix built from the first quarter (or half)
    by the triangle's reflections, against the plain product of all its steps."""

    METHODS = ["fixed-rk4", "piecewise-exact"]
    DRIVES = {"fig3a": FIG3A, "fig3b": FIG3B, "fig3d": FIG3D,
              "T=37.3": dict(FIG3A, period_ns=37.3)}

    @staticmethod
    def _steps(drive, method, *offsets_mhz):
        """Steps of one period from t = 0 of a member per offset (one member
        at 0 when none is given), and the list of step counts built."""
        p = DriveParameters(**drive)
        grid = propagator._build_grid(p, IntegratorConfig(method=method), (0.0, p.period_ns),
                                      None)
        assert grid.tp == 0.0 and grid.L % 4 == 0
        offsets = mhz_to_angular(np.array(offsets_mhz or [0.0])) / 2
        built = []

        def steps(rows, first, n, out):
            built.append(first + n)
            out[...] = drive_step_maps(p, method, grid.h, 0.0, offsets[rows], first, n)
            return out

        return grid.L, steps, built

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", list(DRIVES))
    def test_every_prefix_from_one_quarter(self, name, method):
        L, steps, built = self._steps(self.DRIVES[name], method)
        plain = propagator._products(steps, 1, np.arange(1, L + 1))[:, 0]
        built.clear()
        mirrored = propagator._mirrored_prefix(steps, 1, np.arange(L + 1), L,
                                               (False, True))[:, 0, 1:]
        assert max(built) == L // 4
        quarter, half = L // 4, L // 2
        # U(T), then C[r] = sigma_x C[L/2 - r]^-T Q^T sigma_x Q on the second
        # quarter and C[r] = C[L - r]^-T U on the second half
        assert np.max(np.abs(mirrored[:, -1] - plain[:, -1])) < 1e-12
        assert np.max(np.abs(mirrored[:, :quarter] - plain[:, :quarter])) < 1e-14
        assert np.max(np.abs(mirrored[:, quarter:half] - plain[:, quarter:half])) < 1e-12
        assert np.max(np.abs(mirrored[:, half:] - plain[:, half:])) < 1e-12

    @pytest.mark.parametrize("method", METHODS)
    def test_offset_keeps_only_the_time_reversal(self, method):
        L, steps, built = self._steps(FIG3A, method, 0.37)
        plain = propagator._products(steps, 1, np.arange(1, L + 1))[:, 0]
        built.clear()
        mirrored = propagator._mirrored_prefix(steps, 1, np.arange(L + 1), L, (False,))[:, 0, 1:]
        assert max(built) == L // 2
        assert np.max(np.abs(mirrored - plain)) < 1e-12
        # the sigma_x reflection does not hold once eps(t) is offset
        wrong = propagator._mirrored_prefix(steps, 1, np.array([L]), L, (False, True))[:, 0, 0]
        assert np.max(np.abs(wrong - plain[:, -1])) > 1e-3

    @pytest.mark.parametrize("method", METHODS)
    def test_offsets_paired_off_from_one_quarter(self, method):
        # members at +d, -d and 0: the second quarter of each is the sigma_x
        # mirror of its partner's first, C_d[r] = sigma_x C_-d[L/2 - r]^-T
        # Q_-d^T sigma_x Q_d, and the zero member is its own partner
        L, steps, built = self._steps(FIG3A, method, 0.37, -0.37, 0.0)
        plain = propagator._products(steps, 3, np.arange(1, L + 1))
        built.clear()
        mirrored = propagator._mirrored_prefix(steps, 3, np.arange(L + 1), L, (False, True),
                                               np.array([1, 0, 2]))[..., 1:]
        assert max(built) == L // 4
        assert np.max(np.abs(mirrored - plain)) < 1e-12
        # each member its own partner is the reflection of a drive without offsets
        wrong = propagator._mirrored_prefix(steps, 3, np.array([L]), L, (False, True))[..., 0]
        assert np.max(np.abs(wrong[:, :2] - plain[:, :2, -1])) > 1e-3
        assert np.max(np.abs(wrong[:, 2] - plain[:, 2, -1])) < 1e-12

    def test_partners_pair_each_offset_with_its_negative(self):
        pick = propagator._partners
        grid = propagator._build_grid(DriveParameters(**FIG3A), IntegratorConfig(),
                                      (0.0, 128.0), None)
        assert pick(grid, np.zeros(3)) == slice(None)
        assert pick(grid, np.array([-2.0, 2.0, -1.0, 1.0, 0.0])).tolist() == [1, 0, 3, 2, 4]
        offsets = np.array([0.5, 0.5, -0.5, 0.0, -0.5])
        partner = pick(grid, offsets)
        assert sorted(partner) == list(range(5)) and np.array_equal(offsets[partner], -offsets)
        # a single run's offset, a detuning, offsets that are not symmetric
        for offsets in ([0.3], [-0.9, 1.1], [-1.0, 0.0, 0.5, 1.0]):
            assert pick(grid, np.array(offsets)) is None
        # members on grids of their own share no steps
        T = np.array([[128.0], [64.0]])
        own = propagator._build_grid(DriveParameters(**FIG3A), IntegratorConfig(),
                                     (0.0, T / 2), T / 2, periods=T)
        assert pick(own, np.zeros(2)) == slice(None)
        assert pick(own, np.array([-1.0, 1.0])) is None

    def test_zero_detuning_builds_a_quarter_period_per_member(self, monkeypatch):
        # the benchmark's dephasing average (fig3a over 512 ns at T2* = 6.56
        # us, 9 nodes, every sample on a step): paired off +-d, each member
        # builds its first quarter; a detuning breaks the sigma_x reflection,
        # and each member builds its first half
        built = count_ramp_maps(monkeypatch)
        p = DriveParameters(**FIG3A, n_periods=4)
        sigma = math.sqrt(2) / 6.56 / 1000
        nodes = propagator._noise_nodes(sigma * 512.0)[0]
        for detuning, part in ((0.0, 4), (0.37, 2)):
            extra = mhz_to_angular(np.max(np.abs(angular_to_mhz(sigma * nodes) + detuning)))
            grid = propagator._build_grid(p, IntegratorConfig(), (0.0, 512.0), None,
                                          extra_omega_ang=extra)
            assert not grid.f.any()
            built.clear()
            ens = evolve_ensemble_dephased(p, t2_star_us=6.56, t_span=(0.0, 512.0),
                                           detuning_mhz=detuning)
            assert ens.noise_nodes == 9
            assert sum(built) == 9 * (grid.L // part)

    CFG = dict(steps_per_min_period=100, norm_drift_tolerance=1e-6)
    CASES = {
        # from a turning point: the quarter, or the half with an offset, and
        # a partial step at the end
        "quarter": (dict(**FIG3A, n_periods=3), (0.0, 384.0), 7.3, 0.0, True),
        "half_with_offset": (dict(**FIG3A, n_periods=3), (0.0, 384.0), 7.3, 0.37, True),
        "start_at_the_apex": (dict(**FIG3A, n_periods=3), (64.0, 300.0), 5.1, 0.0, True),
        "span_inside_a_quarter": (dict(**FIG3A, n_periods=1), (0.0, 20.0), 3.0, 0.0, True),
        "one_passage": (dict(**FIG3B, n_periods=1), (0.0, 303.0), 303.0, 0.0, True),
        # off a turning point: the grid starts at the turning point before
        "t_offset_19": (dict(**FIG3A, n_periods=3, t_offset_ns=19.0), (0.0, 384.0), 7.3,
                        0.0, False),
        "t_span_off_boundary": (dict(**FIG3A, n_periods=3), (50.0, 384.0), 7.3, 0.0, False),
    }

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", list(CASES))
    def test_evolve_matches_step_by_step(self, name, method):
        drive, span, every, offset_mhz, on_turning_point = self.CASES[name]
        p, cfg = DriveParameters(**drive), IntegratorConfig(method=method, **self.CFG)
        off_ang = mhz_to_angular(offset_mhz)
        grid = propagator._build_grid(p, cfg, span, every, extra_omega_ang=off_ang)
        assert (grid.tp == span[0]) == on_turning_point
        psi0 = QubitState(0.6, 0.8j)
        traj = evolve(p, cfg, psi0, t_span=span, sample_every=every,
                      epsilon_offset_mhz=offset_mhz)
        stepped = step_by_step(p, grid, np.array([off_ang]), psi0.as_array(), method)[0]
        assert np.array_equal(traj.times, grid.times)
        assert np.max(np.abs(traj.amplitudes - stepped)) < 1e-11


    @pytest.mark.parametrize("method", METHODS)
    def test_ensemble_in_small_slabs_matches_step_by_step(self, monkeypatch, method):
        # noise nodes as members on a mirrored grid, in chunks of two members
        # over 4-step slabs: plus a detuning, each member's half period, and
        # without one, each +-d pair's quarters (14 Gauss-Hermite nodes at
        # T2* = 0.5 us, or 13 at 0.6 us, the zero node a chunk of its own)
        p = DriveParameters(**FIG3A, n_periods=3)
        cfg = IntegratorConfig(method=method, **self.CFG)
        for detuning, t2_star_us in ((0.37, 0.5), (0.0, 0.5), (0.0, 0.6)):
            sigma = math.sqrt(2) / t2_star_us / 1000
            nodes, weights = propagator._noise_nodes(sigma * 384.0)
            offsets_ang = sigma * nodes + mhz_to_angular(detuning)
            grid = propagator._build_grid(p, cfg, (0.0, 384.0), 7.3,
                                          extra_omega_ang=float(np.max(np.abs(offsets_ang))))
            # a short last interval
            assert grid.tp == 0.0 and np.diff(grid.n[0])[-1] < np.diff(grid.n[0])[0]
            stepped = step_by_step(p, grid, offsets_ang, QubitState.ket0().as_array(), method)
            ref = np.tensordot(weights, np.abs(stepped) ** 2, axes=1)
            monkeypatch.setattr(propagator, "_SLAB", 8)
            built, picked = count_ramp_maps(monkeypatch), record_partners(monkeypatch)
            ens = evolve_ensemble_dephased(p, cfg, t2_star_us=t2_star_us, t_span=(0.0, 384.0),
                                           sample_every=7.3, detuning_mhz=detuning)
            assert ens.noise_nodes == nodes.size > 4
            assert np.array_equal(ens.times, grid.times)
            assert np.max(np.abs(ens.populations - ref)) < 1e-11
            assert len(picked) == -(-nodes.size // 2)
            assert all((partner is None) == bool(detuning) for partner in picked)
            # every sample on a step: a half or a quarter period of steps a member
            assert not grid.f.any()
            assert sum(built) == nodes.size * grid.L // (2 if detuning else 4)
            monkeypatch.undo()


class TestRampMaps:
    """Every step map from the drive's ramp (`_ramp_maps`), against the maps
    built from the triangle read at every step's ends and midpoint."""

    METHODS = TestMirroredPeriod.METHODS

    @pytest.mark.parametrize("start", [0.0, 0.5])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", list(TestMirroredPeriod.DRIVES))
    def test_half_period_equals_step_maps(self, name, method, start):
        # from the trough or the apex, over the half period that members with
        # an offset integrate: the whole half, and one slab inside it
        p = DriveParameters(**TestMirroredPeriod.DRIVES[name])
        t0 = start * p.period_ns
        grid = propagator._build_grid(p, IntegratorConfig(method=method), (t0, t0 + p.period_ns),
                                      None)
        assert grid.tp == t0
        offsets = mhz_to_angular(np.array([0.0, 0.37, -2.5])) / 2
        half = grid.L // 2
        steps = functools.partial(propagator._ramp_maps, method, grid.h,
                                  grid.x0 + offsets[:, None], grid.dx, p.delta_ang / 2)
        for first, n in ((0, half), (half // 3, 17)):
            want = drive_step_maps(p, method, grid.h, t0, offsets, first, n)
            assert np.max(np.abs(steps(np.arange(3), first, n) - want)) < 1e-14

    @pytest.mark.parametrize("method", METHODS)
    def test_ragged_chunk_equals_step_maps(self, method):
        # a passages-like chunk: a grid per member, and a slab of some of the
        # members, out of order, from one first step shared by all of them;
        # the slab runs past the quarter of one member, within its half
        periods = np.array([20.0, 37.3, 57.1, 400.0])
        T = periods[:, None]
        grid = propagator._build_grid(DriveParameters(5.57, 100.0, periods[0]),
                                      IntegratorConfig(method=method), (0.0, T / 2), T / 2,
                                      periods=T)
        assert np.all(grid.tp == 0.0) and np.all(grid.n[:, -1] == grid.L[:, 0] // 2)
        steps = functools.partial(propagator._ramp_maps, method, grid.h, grid.x0, grid.dx,
                                  mhz_to_angular(5.57) / 2)
        rows, first, n = np.array([3, 1, 2]), 300, 300
        assert first < grid.L[1, 0] // 4 < first + n <= grid.L[rows, 0].min() // 2
        got = steps(rows, first, n)
        assert got.shape == (2, rows.size, n)
        for i, row in enumerate(rows):
            want = drive_step_maps(DriveParameters(5.57, 100.0, periods[row]), method,
                                   grid.h[row, 0], 0.0, np.zeros(1), first, n)
            assert np.max(np.abs(got[:, i] - want[:, 0])) < 1e-14

    @pytest.mark.parametrize("method", METHODS)
    def test_kernel_never_reads_the_drive(self, monkeypatch, method):
        # every grid is a ramp from a turning point, so no run reads eps(t):
        # passages, turning-point and off-turning starts with member offsets,
        # a span ending inside a step, and a constant drive
        reads = []

        def counted(p, t):
            reads.append(np.size(t))
            return epsilon_at(p, t)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "lzsim" and hasattr(module, "epsilon_at"):
                monkeypatch.setattr(module, "epsilon_at", counted)
        assert not hasattr(propagator, "epsilon_at")
        cfg = IntegratorConfig(method=method)
        propagator.passage_transfers(5.57, 100.0, np.linspace(20.0, 400.0, 30), cfg)
        propagator.passage_transfers(5.57, 0.0, [20.0, 222.0], cfg)
        psi0 = QubitState.ket0().as_array()
        offsets = mhz_to_angular(np.array([0.0, 0.37, -2.5])) / 2
        for drive, span in ((dict(**FIG3A, n_periods=3), (0.0, 384.0)),
                            (dict(**FIG3A, n_periods=3, t_offset_ns=19.0), (0.0, 384.0)),
                            (dict(**FIG3A, n_periods=3), (50.0, 333.0)),
                            (dict(delta_mhz=5.0, epsilon_m_mhz=0.0, period_ns=128.0,
                                  n_periods=3), (0.0, 300.0))):
            p = DriveParameters(**drive)
            grid = propagator._build_grid(p, cfg, span, 7.3)
            propagator._propagate(grid, p.delta_ang / 2, offsets, psi0, method)
            evolve(p, cfg, t_span=span, sample_every=7.3)
            evolve_ensemble_dephased(p, cfg, t2_star_us=0.5, t_span=span, sample_every=7.3)
        assert reads == []


class TestSampleCap:
    def test_sample_count_refused_before_allocating(self):
        # 1e15 samples of a 128 ns drive: one period is few enough steps
        p = DriveParameters(**FIG3A, n_periods=100_000_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="raise sample_every_ns"):
                evolve(p, t_span=(0.0, 1e12), sample_every=0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_is_on_the_sample_count(self, monkeypatch):
        # 10 intervals and a tail: 12 samples
        p = DriveParameters(**FIG3A, n_periods=1)
        cfg = IntegratorConfig()
        monkeypatch.setattr(propagator, "_MAX_SAMPLES", 12)
        assert propagator._build_grid(p, cfg, (0.0, 105.0), 10.0).times.size == 12
        monkeypatch.setattr(propagator, "_MAX_SAMPLES", 11)
        with pytest.raises(ValueError, match="12 samples exceed 11"):
            propagator._build_grid(p, cfg, (0.0, 105.0), 10.0)

    def test_one_member_state_array_stays_under_1_gib(self):
        assert propagator._MAX_SAMPLES * 2 * np.dtype(complex).itemsize <= 1 << 30


class TestStepMaps:
    """The closed-form (p, q) step maps against the full 2x2 matrices."""

    @staticmethod
    def matrix(x):
        p, q = x
        return np.array([[p, q], [-np.conj(q), np.conj(p)]])

    def test_rk4_map_equals_stage_product(self):
        rng = np.random.default_rng(3)
        h = 0.05
        # b varies within the step, as the lab-frame toy's coupling does
        w1, w2, w3, b1, b2, b3 = rng.normal(0.0, 5.0, (6, 40))
        maps = rk4_maps(h, w1, w2, w3, b1, b2, b3)

        def stage(w, b):
            return -1j * np.array([[w, b], [b, -w]])

        for i in range(w1.size):
            a1, a2, a3 = stage(w1[i], b1[i]), stage(w2[i], b2[i]), stage(w3[i], b3[i])
            k1 = a1
            k2 = a2 + h / 2 * a2 @ k1
            k3 = a2 + h / 2 * a2 @ k2
            k4 = a3 + h * a3 @ k3
            full = np.eye(2) + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            assert np.max(np.abs(self.matrix(maps[:, i]) - full)) < 1e-14

    def test_exact_map_equals_expm(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(4)
        h = 0.05
        w, b = rng.normal(0.0, 5.0, (2, 40))
        w[0] = b[0] = 0.0  # the sinc limit at a vanishing Hamiltonian
        maps = propagator._expm_maps(h, w, b)
        for i in range(w.size):
            full = expm(-1j * h * np.array([[w[i], b[i]], [b[i], -w[i]]]))
            assert np.max(np.abs(self.matrix(maps[:, i]) - full)) < 1e-14

    def test_ramp_map_equals_rk4_and_exact_maps(self):
        # coarse steps on steep ramps, so that every term of the closed form
        # shows; three members, per-member steps, a constant coupling
        rng = np.random.default_rng(6)
        h = np.array([[0.05], [0.03], [0.08]])
        x0, dx = rng.normal(0.0, 5.0, (3, 1)), rng.normal(0.0, 0.5, (3, 1))
        b = 2.7
        j = np.arange(40)
        w1, w3 = x0 + dx * (j - 0.5), x0 + dx * (j + 0.5)
        for method, want in (
            ("fixed-rk4", rk4_maps(h, w1, (w1 + w3) / 2, w3, b, b, b)),
            ("piecewise-exact", propagator._expm_maps(h, x0 + dx * j, b)),
        ):
            got = propagator._ramp_maps(method, h, x0, dx, b, np.arange(3), 0, j.size)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_prefix_at_matches_sequential_products(self):
        # odd lengths at several tree levels, three members, counts from 1 to n
        rng = np.random.default_rng(5)
        w1, w2, w3, b1, b2, b3 = rng.normal(0.0, 5.0, (6, 3, 37))
        maps = rk4_maps(0.05, w1, w2, w3, b1, b2, b3)
        counts = np.array([1, 2, 5, 16, 17, 31, 36, 37])
        got = propagator._prefix_at(np.concatenate([maps, np.empty_like(maps)], axis=-1), counts)
        for i in range(3):
            acc = np.eye(2)
            for c in range(1, 38):
                acc = self.matrix(maps[:, i, c - 1]) @ acc
                if c in counts:
                    j = int(np.searchsorted(counts, c))
                    assert np.max(np.abs(self.matrix(got[:, i, j]) - acc)) < 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_prefix_at_any_counts_match_sequential_products(self, data):
        # counts in any order, with zeros, repeats and n itself, for 1-3
        # members over n maps, n odd at several levels of the tree
        m = data.draw(st.integers(1, 3), label="members")
        n = data.draw(st.sampled_from([1, 2, 3, 5, 37, 255, 256, 257, 321, 1282]), label="n")
        drawn = data.draw(st.lists(st.integers(0, n), max_size=30), label="counts")
        counts = np.array(data.draw(st.permutations(drawn + [0, n, n]), label="order"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # unitary maps, so that products of 1282 stay of size 1
        maps = propagator._expm_maps(0.05, *rng.normal(0.0, 5.0, (2, m, n)))
        got = propagator._prefix_at(np.concatenate([maps, np.empty_like(maps)], axis=-1), counts)
        acc = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2))
        want = np.empty((counts.size, m, 2, 2), dtype=complex)
        for c in range(n + 1):
            want[counts == c] = acc
            if c < n:
                acc = np.moveaxis(self.matrix(maps[:, :, c]), -1, 0) @ acc
        assert np.max(np.abs(np.moveaxis(self.matrix(got), (2, 3), (1, 0)) - want)) < 1e-13

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_distinct_columns_are_numpy_unique(self, data):
        # one row of counts, and (r, f) with f's bits as a second row; the
        # columns come sorted by the first row, then the next, as np.unique's
        k = data.draw(st.integers(1, 40), label="k")
        r = np.array(data.draw(st.lists(st.integers(0, 12), min_size=k, max_size=k), label="r"))
        f = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.5 + 2**-53]),
                                        min_size=k, max_size=k), label="f"))
        for a in (r[None], np.stack([r, f.view(np.int64)])):
            got, at = propagator._distinct_columns(a)
            want, inverse = np.unique(a, axis=1, return_inverse=True)
            assert np.array_equal(got, want) and np.array_equal(at, inverse.ravel())
            assert np.array_equal(got[:, at], a)

    def test_powers_match_repeated_products(self):
        # maps a little off unitary, as RK4's are, at random angles
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 30)) + 1j * rng.normal(size=(2, 30))
        x *= (1 + 1e-4 * rng.normal(size=30)) / np.linalg.norm(x, axis=0)
        k = np.array([0, 1, 2, 5, 1000])
        got = propagator._powers(x[..., None], k)
        acc = propagator._identity(30)
        for j in range(k[-1] + 1):
            if j in k:
                want = acc
                i = int(np.searchsorted(k, j))
                err = np.linalg.norm(got[..., i] - want, axis=0) / np.linalg.norm(want, axis=0)
                assert np.max(err) <= 1e-12
            acc = propagator._mul(x, acc)

    def test_rotation_x_powers(self):
        angles = np.array([-2.0, 0.0, 0.3, math.pi, 5.0])
        got = propagator._powers(propagator.rotation_x(angles), 7)
        assert np.max(np.abs(got - propagator.rotation_x(7 * angles))) < 1e-14
        full = self.matrix(propagator.rotation_x(0.3))
        assert np.allclose(full, [[math.cos(0.15), -1j * math.sin(0.15)],
                                  [-1j * math.sin(0.15), math.cos(0.15)]], rtol=0, atol=1e-16)


def one_passage(delta_mhz, epsilon_m_mhz, period_ns, cfg):
    """P1 at the apex after one passage from |0>, by one `evolve` call."""
    p = DriveParameters(delta_mhz, epsilon_m_mhz, period_ns, n_periods=1)
    return evolve(p, cfg, t_span=(0.0, period_ns / 2), sample_every=period_ns / 2).p1[-1]


class TestPassageBatch:
    """`passage_transfers`: every period a member of one kernel call, on its own grid."""

    @pytest.mark.parametrize("method", ["fixed-rk4", "piecewise-exact"])
    def test_matches_one_evolve_per_period(self, monkeypatch, method):
        # shuffled, with a repeat and both extremes: quarters of 100 to 200000
        # steps; 64-map slabs run chunks of 8 members, which end inside slabs.
        # Also: a member alone, and two members, whose quarters of 2**14
        # steps fill whole default slabs, and five copies of the periods, more
        # members than one default chunk
        rng = np.random.default_rng(12)
        slab = 4 * (propagator._SLAB - 0.5) * 1e3 / math.hypot(100.0, 5.57) / 400
        periods = rng.permutation(np.concatenate(
            [np.round(rng.uniform(20.0, 400.0, 30), 1), [20.0, 20000.0, 20.0, slab]]))
        cfg = IntegratorConfig(method=method)
        grid = propagator._build_grid(DriveParameters(5.57, 100.0, slab), cfg, (0.0, slab / 2),
                                      slab / 2)
        assert grid.L // 4 == propagator._SLAB
        many = rng.permutation(np.tile(periods, 5))
        assert many.size > math.isqrt(propagator._SLAB)
        want = {T: one_passage(5.57, 100.0, T, cfg) for T in periods}
        for size, runs in ((propagator._SLAB, (periods, [slab], [slab, slab], many)),
                           (64, (periods, [slab], [slab, slab]))):
            monkeypatch.setattr(propagator, "_SLAB", size)
            for chosen in runs:
                got = propagator.passage_transfers(5.57, 100.0, chosen, cfg)
                assert np.max(np.abs(got - [want[T] for T in chosen])) < 1e-12

    def test_grid_per_member_sampled_inside_refused(self):
        # members of their own grids are reduced to whole quarters only: a
        # sample an eighth of a period in needs a prefix no slab forms
        periods = np.array([[40.0], [57.3]])
        grid = propagator._build_grid(DriveParameters(5.57, 100.0, 40.0), IntegratorConfig(),
                                      (0.0, periods / 2), periods / 8, periods=periods)
        assert np.all(0 < grid.n[:, 1]) and np.all(grid.n[:, 1] < grid.L[:, 0] // 4)
        psi0 = QubitState.ket0().as_array()
        with pytest.raises(ValueError, match="grid per member"):
            propagator._propagate(grid, mhz_to_angular(5.57) / 2, np.zeros(2), psi0, "fixed-rk4")

    def test_memory_does_not_grow_with_steps(self):
        # 120 passages, then every period eight times longer: slabs of at
        # most _SLAB maps over the members, however many steps they take
        periods = np.round(np.random.default_rng(3).uniform(20.0, 400.0, 120), 1)

        def peak(scale):
            tracemalloc.start()
            try:
                propagator.passage_transfers(5.57, 100.0, scale * periods)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(1), peak(8)
        assert long < 1.2 * short

    def test_slabs_reuse_one_workspace(self, monkeypatch):
        # 120 passages over about 17 slabs: every slab's maps and the levels
        # they halve to are written into one workspace of the call, so no map
        # array a slab builds or multiplies is allocated anew, and what is
        # allocated holds a few maps per member
        allocated = []
        mul, ramp_map = propagator._mul, propagator._ramp_map

        def counted_mul(x, y, out=None, t=None):
            if out is None:
                allocated.append(np.broadcast_shapes(x[0].shape, y[0].shape))
            return mul(x, y, out, t)

        def counted_ramp_map(method, h, x, dx, b, out=None):
            if out is None:
                allocated.append(np.shape(x))
            return ramp_map(method, h, x, dx, b, out)

        monkeypatch.setattr(propagator, "_mul", counted_mul)
        monkeypatch.setattr(propagator, "_ramp_map", counted_ramp_map)
        periods = np.round(np.random.default_rng(3).uniform(20.0, 400.0, 120), 1)
        propagator.passage_transfers(5.57, 100.0, periods)
        assert allocated
        assert max(math.prod(shape) for shape in allocated) <= 4 * periods.size

    def test_ragged_members_build_about_their_own_steps(self, monkeypatch):
        # every member starts at step 0, and a member that ends inside a slab
        # builds the rest of it: the maps stay within 10% of the members' own
        # quarters (passages-like periods, 20-400 ns in one chunk)
        built = count_ramp_maps(monkeypatch)
        periods = np.round(np.random.default_rng(3).uniform(20.0, 400.0, 120), 1)
        T = periods[:, None]
        grid = propagator._build_grid(DriveParameters(5.57, 100.0, periods[0]),
                                      IntegratorConfig(), (0.0, T / 2), T / 2, periods=T)
        own = int(np.sum(grid.L // 4))
        propagator.passage_transfers(5.57, 100.0, periods)
        assert own <= sum(built) <= 1.1 * own

    def test_step_cap_applies_per_member(self):
        # coarse steps of the exact (unitary) rule, about 2.5 ns, capped at 0.05 ns
        coarse = dict(steps_per_min_period=4, method="piecewise-exact")
        cfg = IntegratorConfig(max_step_ns=0.05, **coarse)
        periods = [300.0, 20.0, 57.1]
        got = propagator.passage_transfers(5.57, 100.0, periods, cfg)
        want = [one_passage(5.57, 100.0, T, cfg) for T in periods]
        assert np.max(np.abs(got - want)) < 1e-12
        uncapped = propagator.passage_transfers(5.57, 100.0, periods, IntegratorConfig(**coarse))
        assert np.max(np.abs(got - uncapped)) > 1e-6

    def test_zero_amplitude_integrates_the_whole_span(self):
        # eps_m = 0 is a ramp with dx = 0 and four steps a period; with these
        # steps the passages end on a step boundary or inside a step, after a
        # short last sample interval or none
        cfg = IntegratorConfig(steps_per_min_period=401, max_step_ns=0.37)
        periods = [20.0, 222.0, 400.0, 1000.0]
        grids = [propagator._build_grid(DriveParameters(5.57, 0.0, T), cfg, (0.0, T / 2), T / 2)
                 for T in periods]
        assert all(g.L == 4 and g.dx == 0.0 for g in grids)
        assert {g.f[0, -1] > 0 for g in grids} == {True, False}
        assert {g.times.size for g in grids} == {2, 3}
        got = propagator.passage_transfers(5.57, 0.0, periods, cfg)
        want = [one_passage(5.57, 0.0, T, cfg) for T in periods]
        assert np.max(np.abs(got - want)) < 1e-12
        # the constant gap rotates |0> over the whole half period
        exact = np.sin(math.pi * 5.57e-3 * np.array(periods) / 2) ** 2
        assert np.max(np.abs(got - exact)) < 1e-8

    @pytest.mark.parametrize("bad", [0.0, math.nan, 1e9], ids=["zero", "nan", "over-the-cap"])
    def test_first_bad_period_refused_as_evolve_refuses_it(self, monkeypatch, bad):
        # a bad period among good ones, before a second bad one: the message
        # is the one `evolve` gives for that passage, and nothing is integrated
        cfg = IntegratorConfig()
        with pytest.raises(ValueError) as want:
            one_passage(5.57, 100.0, bad, cfg)

        def integrate(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(propagator, "_propagate", integrate)
        later = math.nan if bad == 0.0 else 0.0
        with pytest.raises(ValueError) as got:
            propagator.passage_transfers(5.57, 100.0, [160.0, 320.0, bad, 640.0, later], cfg)
        assert str(got.value) == str(want.value)
        assert ("exceed" in str(got.value)) == (bad == 1e9)

    def test_too_coarse_steps_raise(self):
        with pytest.raises(IntegrationError, match="norm drift"):
            propagator.passage_transfers(5.57, 100.0, [160.0, 320.0],
                                         IntegratorConfig(steps_per_min_period=4))
