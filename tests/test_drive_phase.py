"""The triangle's phase convention, read through `model._drive_phase`: the
closed-form free phase, the crossing times and every sweep direction that the
impulse model and the dense grid take from it agree with `epsilon_at`, over
random drives whose offsets have either sign or sit exactly on a turning
point, with and without a sweep and a gap."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lzsim
from lzsim import DriveParameters, crossing_times, epsilon_at, free_phase, stroboscopic_evolve
from lzsim import transfer_matrix
from lzsim.model import first_crossing, mhz_to_angular
from lzsim.propagator import IntegratorConfig, _build_grid
from lzsim.transfer_matrix import _impulse_factors

_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def _drives(draw, delta=st.one_of(st.just(0.0), st.floats(0.1, 30.0)),
            epsilon_m=st.one_of(st.just(0.0), st.floats(1.0, 300.0))):
    T = draw(st.floats(1.0, 1000.0))
    offset = draw(st.one_of(st.integers(-10, 10).map(lambda k: k * T / 2),
                            st.floats(-5.0, 5.0).map(lambda x: x * T)))
    return DriveParameters(draw(delta), draw(epsilon_m), T, draw(st.integers(1, 12)), offset)


def _times(draw, p, n):
    """n sorted times in [0, n_periods T], some on exact quarter periods."""
    span = p.total_time_ns
    quarter = st.integers(0, 4 * p.n_periods).map(lambda k: k * p.period_ns / 4)
    return sorted(draw(st.one_of(quarter, st.floats(0.0, 1.0).map(lambda u: u * span)))
                  for _ in range(n))


def _rises(p, t):
    """Whether eps rises just after t, from `epsilon_at` alone: compared at
    half the way to the next turning point, or a quarter period on."""
    to_next = p.period_ns / 2 - np.mod(t + p.t_offset_ns, p.period_ns / 2)
    h = min(to_next, p.period_ns / 2) / 2
    assume(h > 1e-6 * p.period_ns)
    return epsilon_at(p, t + h) > epsilon_at(p, t)


@_SETTINGS
@given(st.data())
def test_free_phase_is_additive(data):
    p = data.draw(_drives())
    t1, t2, t3 = _times(data.draw, p, 3)
    assume(t3 - t1 >= p.period_ns / 8)
    whole = free_phase(p, t1, t3)
    assert free_phase(p, t1, t2) + free_phase(p, t2, t3) == pytest.approx(whole, rel=1e-12)
    # and the integral itself, by the trapezoid rule on 20000 panels
    t = np.linspace(t1, t3, 20001)
    gap = np.hypot(mhz_to_angular(epsilon_at(p, t)), p.delta_ang)
    assert whole == pytest.approx(np.sum((gap[1:] + gap[:-1]) * np.diff(t)) / 4, rel=1e-5)


@_SETTINGS
@given(_drives(epsilon_m=st.floats(1.0, 300.0)))
def test_crossing_times_are_the_zeros_of_the_detuning(p):
    times = np.array(crossing_times(p))
    T, t_end = p.period_ns, p.total_time_ns
    assert np.all(np.abs(epsilon_at(p, times)) <= 1e-12 * p.epsilon_m_mhz)
    assert 0.0 <= times[0] < T / 2
    assert np.allclose(np.diff(times), T / 2, rtol=1e-12)
    assert times[-1] <= t_end + 1e-12 < times[-1] + T / 2


@_SETTINGS
@given(_drives(delta=st.floats(0.1, 10.0), epsilon_m=st.floats(50.0, 300.0)))
def test_impulse_sweep_directions_follow_the_detuning(p):
    up = _impulse_factors(p, np.array([p.epsilon_m_mhz]), np.array([p.period_ns]))[4]
    assert up[0] == (1.0 if _rises(p, first_crossing(p)) else -1.0)

    original, slopes = transfer_matrix._dressing_angle, []

    def dressing_angle(p, eps_ang, slope_ang):
        slopes.append(slope_ang)
        return original(p, eps_ang, slope_ang)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer_matrix, "_dressing_angle", dressing_angle)
        stroboscopic_evolve(p, 1)
    assert (slopes[-1] > 0) == _rises(p, 0.0)  # the last call dresses the start


@_SETTINGS
@given(_drives(epsilon_m=st.floats(1.0, 300.0)), st.floats(0.5, 4.0))
def test_dense_grid_starts_at_the_turning_point(p, start):
    t0 = start * p.period_ns
    grid = _build_grid(p, IntegratorConfig(), (t0, t0 + p.period_ns), None)
    assert 0.0 <= t0 - grid.tp < p.period_ns / 2
    # w = eps/2 at the turning point: -eps_m/2 at a trough, where eps rises
    w = grid.x0 - grid.dx / 2
    assert mhz_to_angular(epsilon_at(p, grid.tp)) == pytest.approx(2 * w, rel=1e-9)
    assert (w < 0) == _rises(p, grid.tp + p.period_ns / 8)


def test_only_model_computes_the_drive_phase():
    """The drive's phase is worked out in `model` alone: no other module
    reduces a time modulo the period."""
    calls = {}
    for path in sorted(Path(lzsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in ("mod", "fmod", "remainder")):
                calls.setdefault(path.name, []).append(f"np.{node.func.attr}:{node.lineno}")
    assert set(calls) <= {"model.py"}, calls
