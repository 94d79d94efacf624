import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest

from lzsim import (
    Basis,
    DegenerateDriveError,
    DriveParameters,
    IntegratorConfig,
    LZNode,
    QubitState,
    Trajectory,
    evolve,
    free_phase,
    mhz_to_angular,
    sweep_rate,
)
from lzsim import propagator
from lzsim.model import first_crossing

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


def step_by_step(grid, w_of_t, b, offsets_ang, psi0, method):
    """Reference stepper: states (members, samples, 2) at the grid's sample times.

    Steps one at a time through the grid, vectorized over members only; member
    i sees w(t) + offsets_ang[i]/2 and the constant coupling b.  Independent
    of the periodic kernel's step maps, products and period reuse, which it
    serves to check.
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
                k1 = rhs(w1, b, psi)
                k2 = rhs(w2, b, psi + (dt / 2) * k1)
                k3 = rhs(w2, b, psi + (dt / 2) * k2)
                k4 = rhs(w3, b, psi + dt * k3)
                psi = psi + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            else:
                w2 = w_of_t(t + dt / 2) + half_off
                om = np.hypot(w2, b)
                theta = om * dt
                cos = np.cos(theta)
                safe = np.where(om > 0, om, 1.0)
                sinc = np.where(om > 0, np.sin(theta) / safe, dt)
                a0 = (cos - 1j * w2 * sinc) * psi[:, 0] - 1j * b * sinc * psi[:, 1]
                a1 = -1j * b * sinc * psi[:, 0] + (cos + 1j * w2 * sinc) * psi[:, 1]
                psi = np.stack([a0, a1], axis=1)
            if (k + 1) % s == 0:
                out[:, sample_idx] = psi
                sample_idx += 1
    return out


# ---------------------------------------------------------------------------
# lab-frame toy: the rotating-wave approximation's reference
# ---------------------------------------------------------------------------


def epsilon_integral(p, t):
    """Phase-style integral of the detuning, int_0^t eps(u) du, in MHz*ns.

    Used for the lab-frame drive phase.  The triangle has zero mean, so the
    integral is periodic; it is evaluated in closed form per branch.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("epsilon_integral requires t >= 0")
    T = p.period_ns
    em = p.epsilon_m_mhz

    def antiderivative(u):
        # F(u) = int_0^u triangle, for u in [0, T); F(0) = F(T/2) = 0.
        u = np.mod(u, T)
        first = -em * u + 2 * em * u**2 / T
        v = u - T / 2
        second = em * v - 2 * em * v**2 / T
        return np.where(u < T / 2, first, second)

    result = antiderivative(t_arr + p.t_offset_ns) - antiderivative(p.t_offset_ns)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(result)
    return result


def evolve_lab_frame_toy(delta_mhz, omega0_mhz, drive, t_span=None, sample_every=None):
    """Integrate the lab-frame Hamiltonian at a reduced carrier frequency, from |0>.

    H_lab(t) = omega0/2 sigma_z + delta*cos(Phi(t)) sigma_x with the drive
    phase Phi(t) = omega0*t + int_0^t eps(u) du, so the instantaneous drive
    frequency is omega0 + eps(t).  After the rotating-wave approximation this
    reduces to the rotating-frame model integrated by `evolve`.  Requires a
    toy ratio omega0/delta >= 20; a realistic GHz-scale carrier adds nothing
    but steps.  The coupling depends on time, so the RK4 step maps are built
    here from H at each step's ends and midpoint (`propagator._rk4_maps`) and
    reduced with `propagator._products` over the whole span: the carrier
    neither repeats nor mirrors with the drive.
    """
    if delta_mhz < 0 or omega0_mhz <= 0:
        raise ValueError("delta_mhz must be >= 0 and omega0_mhz > 0")
    if delta_mhz > 0 and omega0_mhz / delta_mhz < 20:
        raise ValueError(
            f"omega0/delta = {omega0_mhz / delta_mhz:.1f} < 20; "
            "the rotating-wave comparison is meaningless this close to the carrier"
        )
    cfg = IntegratorConfig()
    t_span = propagator._validate_span(drive, t_span or (0.0, drive.total_time_ns))
    omega0, delta = mhz_to_angular(omega0_mhz), mhz_to_angular(delta_mhz)
    grid = propagator._build_grid(drive, cfg, t_span, sample_every,
                                  extra_omega_ang=omega0 + 2 * delta)
    w = omega0 / 2

    def coupling(t):
        return delta * np.cos(omega0 * t + mhz_to_angular(epsilon_integral(drive, t)))

    def steps_from(t0, dt):
        def steps(rows, first, n):
            t = t0 + dt * (first + np.arange(n + 1))[None]
            ends, mid = coupling(t), coupling(t[:, :-1] + dt / 2)
            return propagator._rk4_maps(dt, w, w, w, ends[:, :-1], mid, ends[:, 1:])
        return steps

    prefix = propagator._products(steps_from(grid.t0, grid.dt), 1,
                                  grid.s * np.arange(grid.n_int + 1))
    states = propagator._apply(prefix[:, 0], QubitState.ket0().as_array())
    if grid.n_tail:
        t_tail = grid.t0 + grid.n_int * grid.s * grid.dt
        tail = propagator._products(steps_from(t_tail, grid.dt_tail), 1, np.array([grid.n_tail]))
        states = np.vstack([states, propagator._apply(tail[:, 0], states[-1])])
    propagator._check_norms(states, cfg.norm_drift_tolerance)
    return Trajectory(grid.times, np.abs(states) ** 2, Basis.DIABATIC, amplitudes=states)


# ---------------------------------------------------------------------------
# per-point impulse factorization: the oracle of the batched composition
# ---------------------------------------------------------------------------


class StepKind(str, Enum):
    MIXING = "mixing"
    FREE = "free"


@dataclass(frozen=True)
class TransferStep:
    """One factor of the stroboscopic evolution, as a 2x2 unitary."""

    matrix: np.ndarray
    kind: StepKind
    interval: tuple[float, float]

    def __post_init__(self):
        m = self.matrix
        if m.shape != (2, 2):
            raise ValueError("matrix must be 2x2")
        err = np.max(np.abs(m.conj().T @ m - np.eye(2)))
        if err > 1e-12:
            raise ValueError(f"matrix not unitary: max deviation {err:.2e}")
        if self.kind is StepKind.FREE:
            if np.max(np.abs(m - np.diag(np.diag(m)))) > 1e-12:
                raise ValueError("free-evolution step must be diagonal")


def node_matrix(node, sweep):
    alpha = math.sqrt(1.0 - node.p_lz) * cmath.exp(1j * node.phi_s)
    gamma = math.sqrt(node.p_lz)
    if sweep == "up":
        return np.array([[alpha, gamma], [-gamma, alpha.conjugate()]], dtype=complex)
    return np.array([[alpha, -gamma], [gamma, alpha.conjugate()]], dtype=complex)


def mixing_matrix(node, at_time=0.0, sweep="up"):
    """Impulse matrix of one crossing, acting on (ground, excited) amplitudes.

    ``sweep`` selects the detuning direction through the crossing; the two
    orientations differ only in the sign of the off-diagonal hop amplitude,
    an artifact of keeping the eigenbasis columns continuous along the drive.
    """
    if sweep not in ("up", "down"):
        raise ValueError(f"sweep must be 'up' or 'down', got {sweep!r}")
    return TransferStep(node_matrix(node, sweep), StepKind.MIXING, (at_time, at_time))


def free_step(p, t1, t2):
    """Adiabatic free evolution between crossings: diag(e^{+i zeta}, e^{-i zeta})."""
    zeta = free_phase(p, t1, t2)
    u = np.diag([cmath.exp(1j * zeta), cmath.exp(-1j * zeta)])
    return TransferStep(u, StepKind.FREE, (t1, t2))


def sweep_direction(p, tc):
    """'up' if the detuning rises through the crossing at tc, else 'down'."""
    phase = math.fmod(tc + p.t_offset_ns, p.period_ns)
    if phase < 0:
        phase += p.period_ns
    return "up" if abs(phase - p.period_ns / 4) < p.period_ns / 8 else "down"


def kick_angle(p, sweep):
    """kappa = -/+ Delta v / (eps_m^2 + Delta^2)^{3/2} of the turning point
    that follows a crossing swept ``sweep`` (minus after an up-sweep)."""
    slope = mhz_to_angular(sweep_rate(p))
    if sweep == "up":
        slope = -slope
    return p.delta_ang * slope / math.hypot(p.epsilon_m_ang, p.delta_ang) ** 3


def kicked_node(p, node, tc, free):
    """Crossing node at ``tc`` followed by the next turning point's kick,
    carried back through the quarter-period phase: U(zeta/2)^dag K U(zeta/2) N,
    where ``free`` = U(zeta) is the half period that holds the turning point."""
    sweep = sweep_direction(p, tc)
    kappa = kick_angle(p, sweep)
    cos_k, sin_k = math.cos(kappa), -1j * math.sin(kappa)
    e_plus, e_minus = free.matrix[0, 0], free.matrix[1, 1]
    kick = np.array([[cos_k, sin_k * e_minus], [sin_k * e_plus, cos_k]])
    return TransferStep(kick @ node_matrix(node, sweep), StepKind.MIXING, (tc, tc))


def period_steps(p):
    """The four factors of one period starting at the first crossing:
    [M(c1), U1, M(c2), U2] in application order, each checked unitary.

    Each mixing factor M is the bare crossing node N (``mixing_matrix``)
    followed by the kick exp(-i kappa sigma_x) of the turning point half a
    free step later, moved back to the crossing: M = U(zeta/2)^dag K U(zeta/2) N
    with U(zeta) the free step that follows, so U M = U(zeta/2) K U(zeta/2) N.
    Written per point with scalar math, independently of the batched
    ``transfer_matrix._impulse_factors``, which it serves to check.
    """
    if p.epsilon_m_mhz == 0:
        raise DegenerateDriveError("drive has no crossings to compose")
    node = LZNode.from_drive(p)
    tc1 = first_crossing(p)
    tc2 = tc1 + p.period_ns / 2
    tc3 = tc1 + p.period_ns
    u1 = free_step(p, tc1, tc2)
    u2 = free_step(p, tc2, tc3)
    return [kicked_node(p, node, tc1, u1), u1, kicked_node(p, node, tc2, u2), u2]
