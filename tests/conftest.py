import cmath
import math

import numpy as np
import pytest

from lzsim import DriveParameters, IntegratorConfig, evolve

# published drive-parameter classes used throughout the suite
FIG3A = dict(delta_mhz=5.57, epsilon_m_mhz=100.0, period_ns=128.0)
FIG3B = dict(delta_mhz=9.60, epsilon_m_mhz=50.4, period_ns=606.0)
FIG3D = dict(delta_mhz=5.84, epsilon_m_mhz=100.0, period_ns=592.0)


@pytest.fixture(scope="session")
def fig3a_drive():
    return DriveParameters(**FIG3A, n_periods=63)


@pytest.fixture(scope="session")
def fig3b_drive():
    return DriveParameters(**FIG3B, n_periods=15)


@pytest.fixture(scope="session")
def fig3d_drive():
    return DriveParameters(**FIG3D, n_periods=25)


@pytest.fixture(scope="session")
def fig3a_traj_8us(fig3a_drive):
    """Dense fast-passage trajectory over 8 us; shared by several tests."""
    return evolve(fig3a_drive, IntegratorConfig(), t_span=(0.0, 8000.0), sample_every=8.0)


def ode_propagator(p, t1, t2, cfg=None):
    """Full 2x2 diabatic propagator over [t1, t2] from two basis runs."""
    from lzsim import QubitState

    cfg = cfg or IntegratorConfig()
    cols = []
    for init in (QubitState.ket0(), QubitState.ket1()):
        traj = evolve(p, cfg, init, t_span=(t1, t2), sample_every=(t2 - t1))
        cols.append(traj.amplitudes[-1])
    return np.array(cols).T


def su2_axis_angle(g):
    """Reference rotation angle in [0, pi] and Bloch axis of one U(2) matrix.

    The global phase is removed by dividing out sqrt(det) and fixing the
    trace real-positive; at angle pi the leftover sign ambiguity is broken
    by preferring non-negative z, then x, then y axis components.  Written
    per matrix, independently of the batched extraction in
    ``transfer_matrix._period_rotations``, which it serves to check.
    """
    det = np.linalg.det(g)
    gs = g / cmath.sqrt(det)
    tr = np.trace(gs)
    if tr.real < 0:
        gs = -gs
        tr = -tr
    cos_half = min(1.0, max(-1.0, tr.real / 2))
    angle = 2 * math.acos(cos_half)
    sin_half = math.sin(angle / 2)
    if sin_half < 1e-12:
        return 0.0, np.array([0.0, 0.0, 1.0])
    a, b = gs[0, 0], gs[0, 1]
    c = gs[1, 0]
    nx = -(b + c).imag / (2 * sin_half)
    ny = -(b - c).real / (2 * sin_half)
    nz = -(a - gs[1, 1]).imag / (2 * sin_half)
    axis = np.array([nx, ny, nz])
    axis /= np.linalg.norm(axis)
    if abs(angle - math.pi) < 1e-12:
        for comp in (2, 0, 1):
            if abs(axis[comp]) > 1e-12:
                if axis[comp] < 0:
                    axis = -axis
                break
    return angle, axis


def step_by_step(grid, w_of_t, b_of_t, offsets_ang, psi0, method):
    """Reference stepper: states (members, samples, 2) at the grid's sample times.

    Steps one at a time through the grid, vectorized over members only; member
    i sees w(t) + offsets_ang[i]/2.  Independent of the periodic kernel's step
    maps, products and period reuse, which it serves to check.
    """
    m = offsets_ang.size
    half_off = offsets_ang / 2
    psi = np.broadcast_to(psi0, (m, 2)).astype(complex)
    out = np.empty((m, grid.times.size, 2), dtype=complex)
    out[:, 0] = psi

    def rhs(w, b, psi):
        d = np.empty_like(psi)
        d[:, 0] = -1j * (w * psi[:, 0] + b * psi[:, 1])
        d[:, 1] = -1j * (b * psi[:, 0] - w * psi[:, 1])
        return d

    sample_idx = 1
    segments = [(grid.t0, grid.dt, grid.n_int * grid.s, grid.s)]
    if grid.n_tail:
        segments.append((grid.t0 + grid.n_int * grid.s * grid.dt,
                         grid.dt_tail, grid.n_tail, grid.n_tail))
    for t_seg, dt, n_steps, s in segments:
        for k in range(n_steps):
            t = t_seg + k * dt
            if method == "fixed-rk4":
                w1 = w_of_t(t) + half_off
                w2 = w_of_t(t + dt / 2) + half_off
                w3 = w_of_t(t + dt) + half_off
                k1 = rhs(w1, b_of_t(t), psi)
                b_mid = b_of_t(t + dt / 2)
                k2 = rhs(w2, b_mid, psi + (dt / 2) * k1)
                k3 = rhs(w2, b_mid, psi + (dt / 2) * k2)
                k4 = rhs(w3, b_of_t(t + dt), psi + dt * k3)
                psi = psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            else:
                w2 = w_of_t(t + dt / 2) + half_off
                b2 = b_of_t(t + dt / 2)
                om = np.hypot(w2, b2)
                theta = om * dt
                cos = np.cos(theta)
                safe = np.where(om > 0, om, 1.0)
                sinc = np.where(om > 0, np.sin(theta) / safe, dt)
                a0 = (cos - 1j * w2 * sinc) * psi[:, 0] - 1j * b2 * sinc * psi[:, 1]
                a1 = -1j * b2 * sinc * psi[:, 0] + (cos + 1j * w2 * sinc) * psi[:, 1]
                psi = np.stack([a0, a1], axis=1)
            if (k + 1) % s == 0:
                out[:, sample_idx] = psi
                sample_idx += 1
    return out
