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
    QubitState,
    Trajectory,
    evolve,
    free_phase,
    mhz_to_angular,
    stokes_phase,
    sweep_rate,
)
from lzsim import propagator
from lzsim.model import eigenbasis_at, epsilon_at, first_crossing
from lzsim.transfer_matrix import _dressing_angle, _impulse_factors, adiabaticity

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


def rk4_maps(h, w1, w2, w3, b1, b2, b3) -> np.ndarray:
    """RK4 step maps (p, q) of psi' = -iH(t) psi, H = [[w, b], [b, -w]], from
    H at the step start, midpoint and end.

    With A = -iH the stages multiply out to M = I + h/6 (k1 + 2 k2 + 2 k3 + k4).
    Because A2 A2 = -(w2^2 + b2^2) I is a scalar and
    Ai Aj = -(wi wj + bi bj) I - (wi bj - bi wj) i*sigma_y, M is the real
    quaternion with

        a  = 1 - h^2/6 (W + w2 (w1 + w3) + b2 (b1 + b3) - g (w1 w3 + b1 b3))
        c  = h^2/6 (b2 (w1 - w3) + w2 (b3 - b1) + g (w3 b1 - w1 b3))
        bz = h/6 ((1 - 2g) (w1 + w3) + 4 w2)
        bx = h/6 ((1 - 2g) (b1 + b3) + 4 b2)

    where W = w2^2 + b2^2 and g = h^2 W / 4, stored as (a - i bz, c - i bx).
    The general form of the kernel's closed-form ramp step
    (`propagator._ramp_map`), and the step of the lab-frame toy, whose
    coupling varies within a step.
    """
    out = np.empty((2, *np.broadcast_shapes(np.shape(w1), np.shape(b1))), dtype=complex)
    hh = h * h
    g = w2 * w2
    g += b2 * b2
    sw, sb = w1 + w3, b1 + b3
    t = w1 * w3
    t += b1 * b3
    t *= -hh / 4 * g
    t += g
    t += w2 * sw
    t += b2 * sb
    t *= -hh / 6
    t += 1
    out[0].real = t
    g *= hh / 4
    np.multiply(w3, b1, out=t)
    t -= w1 * b3
    t *= g
    t += b2 * (w1 - w3)
    t += w2 * (b3 - b1)
    t *= hh / 6
    out[1].real = t
    g *= -2
    g += 1
    np.multiply(g, sw, out=t)
    t += 4 * w2
    t *= -h / 6
    out[0].imag = t
    np.multiply(g, sb, out=t)
    t += 4 * b2
    t *= -h / 6
    out[1].imag = t
    return out


def drive_step_maps(p, method, h, t0, offsets, first, n):
    """Maps (2, members, n) of the steps first..first+n-1 on the grid
    t0 + h j (t0 + h first >= 0), with H read from the drive through
    `epsilon_at` at each step: RK4 at the step's ends and midpoint, or the
    exact exponential at its midpoint.  Member i sees w = eps(t)/2 plus
    offsets[i] (angular units) and the coupling delta/2."""
    t = t0 + h * (first + np.arange(n + 1))
    w = mhz_to_angular(epsilon_at(p, t))[None] / 2 + offsets[:, None]
    mid = mhz_to_angular(epsilon_at(p, t[:-1] + h / 2))[None] / 2 + offsets[:, None]
    b = p.delta_ang / 2
    if method == "fixed-rk4":
        return rk4_maps(h, w[:, :-1], mid, w[:, 1:], b, b, b)
    return propagator._expm_maps(h, mid, b)


def step_by_step(p, grid, offsets_ang, psi0, method):
    """Reference stepper: states (members, samples, 2) at the grid's samples.

    Propagates the 2x2 matrix V one step of ``grid.h`` at a time from the
    grid's turning point ``grid.tp``, reading the drive through `epsilon_at`
    at every step (RK4 at the step's ends and midpoint, or the exponential at
    its midpoint).  Sample k takes ``grid.n[0, k]`` whole steps and then one
    step of ``grid.f[0, k] * grid.h``, and its state is ``V_k V_0^-1 psi0``.
    Member i sees eps(t)/2 + offsets_ang[i]/2 and the coupling delta/2.
    Independent of the kernel's closed-form ramp maps, products, period
    reuse and reflections, which it serves to check.
    """
    half_off = offsets_ang / 2
    b = p.delta_ang / 2

    def hamiltonian(t):
        # per member; epsilon_at needs t >= 0, and tp lies less than half a
        # period before the span start
        w = mhz_to_angular(epsilon_at(p, t + p.period_ns)) / 2 + half_off
        h = np.empty((w.size, 2, 2))
        h[:, 0, 0], h[:, 1, 1], h[:, 0, 1], h[:, 1, 0] = w, -w, b, b
        return h

    def step(v, t, dt):
        if method == "fixed-rk4":
            a1, a2, a3 = (-1j * hamiltonian(s) for s in (t, t + dt / 2, t + dt))
            k1 = a1 @ v
            k2 = a2 @ (v + dt / 2 * k1)
            k3 = a2 @ (v + dt / 2 * k2)
            k4 = a3 @ (v + dt * k3)
            return v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        h = hamiltonian(t + dt / 2)
        om = np.hypot(h[:, 0, 0], b)
        safe = np.where(om > 0, om, 1.0)
        sinc = np.where(om > 0, np.sin(om * dt) / safe, dt)
        return (np.cos(om * dt)[:, None, None] * np.eye(2)
                - 1j * sinc[:, None, None] * h) @ v

    v = np.broadcast_to(np.eye(2, dtype=complex), (offsets_ang.size, 2, 2))
    maps = []
    j = 0
    for n, f in zip(grid.n[0], grid.f[0]):
        while j < n:
            v = step(v, grid.tp + j * grid.h, grid.h)
            j += 1
        maps.append(step(v, grid.tp + j * grid.h, f * grid.h))
    start = np.linalg.solve(maps[0], np.broadcast_to(psi0, (offsets_ang.size, 2))[..., None])
    return np.stack([vk @ start for vk in maps], axis=1)[..., 0]


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
    here from H at each step's ends and midpoint (`rk4_maps`) and reduced
    with `propagator._products` over the whole span: the carrier neither
    repeats nor mirrors with the drive.
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
    if grid.tp != t_span[0]:
        raise ValueError("the span must start on a turning point of the drive")
    w = omega0 / 2

    def coupling(t):
        return delta * np.cos(omega0 * t + mhz_to_angular(epsilon_integral(drive, t)))

    def steps(rows, first, n):
        t = grid.tp + grid.h * (first + np.arange(n + 1))[None]
        ends, mid = coupling(t), coupling(t[:, :-1] + grid.h / 2)
        return rk4_maps(grid.h, w, w, w, ends[:, :-1], mid, ends[:, 1:])

    # each sample's whole steps, then its partial step of f h
    whole = propagator._products(steps, 1, grid.n)[:, 0]
    t, dt = grid.tp + grid.h * grid.n[0], grid.h * grid.f[0]
    partial = rk4_maps(dt, w, w, w, coupling(t), coupling(t + dt / 2), coupling(t + dt))
    states = propagator._apply(propagator._mul(partial, whole), QubitState.ket0().as_array())
    propagator._check_norms(states, cfg.norm_drift_tolerance)
    return Trajectory(grid.times, np.abs(states) ** 2, Basis.DIABATIC, amplitudes=states)


# ---------------------------------------------------------------------------
# per-point impulse factorization: the oracle of the batched composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LZNode:
    """One avoided-crossing passage: survival probability, Stokes phase,
    and the adiabaticity parameter delta = Delta^2/(4v) (angular units)."""

    p_lz: float
    phi_s: float
    delta_adiab: float

    def __post_init__(self):
        if not 0.0 <= self.p_lz <= 1.0:
            raise ValueError(f"p_lz must be in [0, 1], got {self.p_lz}")
        if self.delta_adiab <= 0:
            raise ValueError(f"delta_adiab must be positive, got {self.delta_adiab}")
        # phi_s decreases from pi/4 through zero (near delta ~ 2.4) and
        # approaches 0 from below as -1/(12 delta) deep in the adiabatic limit
        if not -0.05 < self.phi_s <= math.pi / 4 + 1e-12:
            raise ValueError(f"phi_s must lie in (-0.05, pi/4], got {self.phi_s}")
        if abs(self.p_lz - math.exp(-2 * math.pi * self.delta_adiab)) > 1e-12:
            raise ValueError("p_lz inconsistent with exp(-2*pi*delta_adiab)")

    @classmethod
    def from_drive(cls, p: DriveParameters) -> "LZNode":
        delta_adiab = adiabaticity(p)
        return cls(
            p_lz=math.exp(-2 * math.pi * delta_adiab),
            phi_s=stokes_phase(delta_adiab),
            delta_adiab=delta_adiab,
        )


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


def rotation_matrix_x(angle):
    """The x-rotation exp(-i angle/2 sigma_x) as a 2x2 matrix."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def stroboscopic_reference(p, n, initial=None):
    """The impulse model's run of ``n`` periods, composed as 2x2 matrices.

    The maps between turning-point samples are products of the node, the
    quarter-period phase and the half kicks, built per point from the closed
    forms of ``transfer_matrix._impulse_factors``; the state at the first
    turning point of period k is the map from the previous one applied k
    times, in a loop.  Written independently of the (p, q) chain of
    ``_period_factors`` and of the closed-form powers, which it serves to
    check; samples, dressing and lead-in as in ``stroboscopic_evolve``.
    """
    initial = initial or QubitState.ket0()
    T = p.period_ns
    tc1 = first_crossing(p)
    alpha, gamma, quarter, kick, up = (
        v[0] for v in _impulse_factors(p, np.array([p.epsilon_m_mhz]), np.array([T])))

    def free(zeta):  # U(zeta) = diag(e^{+i zeta}, e^{-i zeta})
        return np.diag(np.exp(np.array([1j, -1j]) * zeta))

    def node(sign):
        return np.array([[alpha, sign * gamma], [-sign * gamma, np.conj(alpha)]])

    if initial.basis is Basis.ADIABATIC:
        psi = initial.as_array()
    else:
        psi = eigenbasis_at(p, 0.0).conj().T @ initial.as_array()
    start = eigenbasis_at(p, 0.0) @ psi
    slope = mhz_to_angular(sweep_rate(p))
    if np.mod(p.t_offset_ns, T) >= T / 2:
        slope = -slope
    dressing = rotation_matrix_x(_dressing_angle(p, mhz_to_angular(epsilon_at(p, 0.0)), slope))

    u = free(quarter)  # from a crossing to a turning point, or back
    half_first, half_second = rotation_matrix_x(-up * kick), rotation_matrix_x(up * kick)
    to_first = half_first @ u @ node(up)
    first_to_second = half_second @ u @ node(-up) @ u @ half_first
    second_to_first = to_first @ u @ half_second
    period = second_to_first @ first_to_second
    at_first = np.empty((n, 2), dtype=complex)
    at_first[0] = to_first @ free(free_phase(p, 0.0, tc1)) @ dressing @ psi
    for k in range(1, n):
        at_first[k] = period @ at_first[k - 1]
    at_second = at_first @ first_to_second.T

    times = np.concatenate([[0.0], (tc1 + T * np.arange(n)[:, None] + [T / 4, 3 * T / 4]).ravel()])
    amps = np.concatenate([start[None],
                           np.stack([at_first @ eigenbasis_at(p, tc1 + T / 4).T,
                                     at_second @ eigenbasis_at(p, tc1 + 3 * T / 4).T],
                                    axis=1).reshape(-1, 2)])
    return Trajectory(times, np.abs(amps) ** 2, Basis.DIABATIC, amplitudes=amps)


def basis_discrepancy(ratio: float) -> float:
    """Wrong-branch weight (1 - cos(theta))/2 at |eps| = ratio * delta."""
    return (1.0 - ratio / math.hypot(ratio, 1.0)) / 2.0
