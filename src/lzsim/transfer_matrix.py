"""Adiabatic-impulse (beam-splitter) model of the periodically driven qubit.

Each passage through the avoided crossing is compressed into an instantaneous
2x2 mixing matrix acting on the adiabatic amplitudes (ground, excited).  In
the continuous-eigenbasis convention used here (eigenvector columns smooth in
the mixing angle theta in [0, pi]), the up-sweep and down-sweep crossings are

    N_up   = [[a,  g], [-g, a*]]      N_down = [[a, -g], [g, a*]]
    a = sqrt(1 - P) * exp(+i*phi_s),  g = sqrt(P)

with P the diabatic-survival probability of one crossing and phi_s the Stokes
phase.  Both matrices and the sign structure were pinned by extracting the
single-passage scattering matrix from the dense integrator; the extracted
phase matches the closed-form phi_s to ~1e-6 rad at large sweep amplitude.
Between crossings the amplitudes accumulate half the gap integral,
2*zeta = int (E_e - E_g) dt, as U(zeta) = diag(e^{+i zeta}, e^{-i zeta}).

N is the asymptotic node of an infinite linear sweep.  The triangle instead
reverses at +-eps_m, where the rate of the mixing angle, thetadot =
-Delta eps' / (eps^2 + Delta^2), jumps.  To first order in that rate the
model's amplitudes are the adiabatic ones dressed as s = exp(+i thetadot /
(2 Omega) sigma_x) c, Omega = sqrt(eps^2 + Delta^2), so each turning point
adds the factor

    K = exp(-i kappa sigma_x),   kappa = -/+ Delta v / (eps_m^2 + Delta^2)^{3/2}

(v = 4 eps_m / T, angular units; minus at the apex after an up-sweep, plus
at the trough after a down-sweep): the first-order endpoint term of a finite
linear sweep (Vitanov & Garraway, PRA 53, 4288 (1996); Shevchenko, Ashhab &
Nori, Phys. Rep. 492, 1 (2010)).  At the fast-passage preset kappa = 2.8e-3,
against sqrt(1 - P) = 0.31; leaving it out puts the period rotation 0.86%
off the dense integrator's.

One period starting at the first crossing composes to G1 = U2 M2 U1 M1,
where M = U(zeta/2)^dag K U(zeta/2) N is the orientation-matched node
followed by the next turning point's kick carried back to the crossing
through the quarter-period phase (exactly half the half-period phase, since
the triangle is symmetric about its turning points).  For the bare nodes
(K = 1) the trace is 2[P + (1-P) cos 2(zeta + phi_s)], so destructive
interference (no transfer, ever) happens at zeta + phi_s = 0 mod pi and
resonant transfer at zeta + phi_s = pi/2 mod pi; with the kicks this holds
to O(kappa).

The closed forms of these factors (N's entries, the quarter-period phase
zeta/2, kappa and the first crossing's orientation) are evaluated in one
place, ``_impulse_factors``, for a whole grid of periods or amplitudes at
once.  ``resonance_scan`` composes G1 from them in the (p, q) form of the
dense kernel's step maps and returns its diagnostics as columns
(``_period_rotations``), ``single_period_rotation`` is its one-point case,
and ``stroboscopic_evolve`` splits the same period into its segments between
turning points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDriveError, ModelAccuracyWarning
from .model import (
    Basis,
    DriveParameters,
    QubitState,
    eigenbasis_at,
    epsilon_at,
    first_crossing,
    mhz_to_angular,
    sweep_rate,
)
from .propagator import _MAX_SAMPLES, Trajectory, _mul, rotation_x


@dataclass(frozen=True)
class PeriodRotation:
    """Net rotation per drive period: G1 with its SU(2) angle and Bloch axis."""

    g1: np.ndarray
    rotation_angle: float
    axis: np.ndarray

    def __post_init__(self):
        if abs(abs(np.linalg.det(self.g1)) - 1.0) > 1e-12:
            raise ValueError("g1 must be unitary (|det| = 1)")
        if not 0.0 <= self.rotation_angle <= math.pi + 1e-12:
            raise ValueError("rotation_angle must lie in [0, pi]")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise ValueError("axis must be a unit vector")


def adiabaticity(p: DriveParameters) -> float:
    """delta = Delta_ang^2 / (4 v_ang); dimensionless crossing adiabaticity."""
    if p.epsilon_m_mhz == 0:
        raise DegenerateDriveError("no crossings: epsilon_m = 0")
    v_ang = mhz_to_angular(sweep_rate(p))
    return p.delta_ang**2 / (4 * v_ang)


def lz_probability(p: DriveParameters) -> float:
    """Probability of staying in the same diabatic state through one crossing.

    exp(-pi Delta_ang^2 / (2 v_ang)) with v the sweep rate 4 eps_m / T of the
    detuning; equals 1 for delta = 0 (sigma_z alone mixes nothing).
    """
    if p.epsilon_m_mhz == 0:
        raise DegenerateDriveError("sweep rate is zero: epsilon_m = 0")
    if p.delta_mhz == 0:
        return 1.0
    return math.exp(-2 * math.pi * adiabaticity(p))


def stokes_phase(delta_adiab: float) -> float:
    """Stokes phase phi_s = pi/4 + delta*(ln delta - 1) + arg Gamma(1 - i delta).

    Continuous and monotone decreasing: pi/4 in the sudden limit, -> 0 in the
    adiabatic limit.
    """
    if delta_adiab <= 0:
        raise ValueError(f"delta_adiab must be positive, got {delta_adiab}")
    return float(_stokes_phases(np.float64(delta_adiab)))


#: Coefficients B_2k / (2k (2k - 1)) of the Stirling series of log Gamma, k = 1..9
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188)
#: Recurrence shift: the series is summed at 1 + _SHIFT - i delta, where its
#: first omitted term is below 1e-20
_SHIFT = 16


def _arg_gamma(d: np.ndarray) -> np.ndarray:
    """Im log Gamma(1 - i d) for real d >= 0, elementwise.

    The recurrence log Gamma(z) = log Gamma(z + N) - sum_k log(z + k) moves the
    argument to |w| >= 17, where the Stirling series converges to rounding.
    The imaginary part of each log(z + k) is atan2(-d, 1 + k), continuous in d,
    so the result stays on the continuous branch (that of
    ``scipy.special.loggamma``), not wrapped into (-pi, pi].
    """
    w = (1.0 + _SHIFT) - 1j * d
    inv2 = (1.0 / w) ** 2
    series = np.zeros_like(w)
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    shifted = ((w - 0.5) * np.log(w) - w + series / w).imag
    return shifted - np.arctan2(-d[..., None], 1.0 + np.arange(_SHIFT)).sum(axis=-1)


def _stokes_phases(d: np.ndarray) -> np.ndarray:
    """phi_s = pi/4 + d (ln d - 1) + arg Gamma(1 - i d), elementwise for d > 0."""
    return np.pi / 4 + d * (np.log(d) - 1.0) + _arg_gamma(d)


def free_phase(p: DriveParameters, t1: float, t2: float) -> float:
    """Half the adiabatic phase, zeta = (1/2) int_t1^t2 sqrt(eps_ang^2 + Delta_ang^2) dt.

    Evaluated in closed form on each linear branch of the triangle wave using
    the antiderivative of sqrt(u^2 + m^2); branch kinks inside [t1, t2] are
    split automatically.
    """
    if t1 > t2:
        raise ValueError(f"need t1 <= t2, got {t1} > {t2}")
    if t1 == t2:
        return 0.0
    T = p.period_ns
    m = p.delta_ang
    slope = 4 * p.epsilon_m_ang / T  # |d eps_ang / dt| on each branch

    # kink times (apex/trough) strictly inside (t1, t2)
    half = T / 2
    kinks = []
    k = math.floor((t1 + p.t_offset_ns) / half) + 1
    while True:
        tk = k * half - p.t_offset_ns
        if tk >= t2 - 1e-12 * T:
            break
        if tk > t1 + 1e-12 * T:
            kinks.append(tk)
        k += 1
    edges = [t1, *kinks, t2]

    def antiderivative(u):
        if m == 0.0:
            return u * abs(u) / 2
        return (u * math.hypot(u, m) + m * m * math.asinh(u / m)) / 2

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ea = mhz_to_angular(epsilon_at(p, a))
        eb = mhz_to_angular(epsilon_at(p, b))
        if abs(eb - ea) < 1e-15 * max(1.0, abs(ea)):
            total += (b - a) * math.hypot(ea, m)
            continue
        c1 = slope if eb > ea else -slope
        total += (antiderivative(eb) - antiderivative(ea)) / c1
    return total / 2


def _dressing_angle(p: DriveParameters, eps_ang: float, slope_ang: float) -> float:
    """Angle a of the first-order dressing s = rotation_x(a) c of the adiabatic
    amplitudes c at detuning ``eps_ang`` swept at ``slope_ang``:
    a = -thetadot / Omega = Delta eps' / (eps^2 + Delta^2)^{3/2}."""
    return p.delta_ang * slope_ang / math.hypot(eps_ang, p.delta_ang) ** 3


def _check_impulse_regime(delta_mhz: float, epsilon_m_mhz) -> None:
    """Refuse amplitudes the model cannot compose and warn, once, where it degrades."""
    eps = np.asarray(epsilon_m_mhz, dtype=float)
    if np.any(eps == 0):
        raise DegenerateDriveError("drive has no crossings to compose")
    low = eps <= delta_mhz
    if np.any(low):
        raise ValueError(
            "adiabatic-impulse model needs epsilon_m > delta "
            f"(got {float(eps[low][0])} <= {delta_mhz})"
        )
    if np.any(eps < 5 * delta_mhz):
        warnings.warn(
            f"epsilon_m/delta = {float(np.min(eps)) / delta_mhz:.2f} < 5: "
            "the adiabatic-impulse model degrades at small sweep amplitudes",
            ModelAccuracyWarning,
            stacklevel=3,
        )


def _impulse_factors(p: DriveParameters, epsilon_m_mhz: np.ndarray,
                     period_ns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The closed forms of one period of the model for every (epsilon_m, T)
    pair of a grid; the drives share ``p``'s gap and start offset.

    Returns arrays (n,):

    - ``alpha`` and ``gamma``: the node of an up-sweep crossing is
      [[alpha, gamma], [-gamma, alpha*]], that of a down-sweep has -gamma,
      with alpha = sqrt(1 - P) exp(i phi_s) and gamma = sqrt(P), where
      P = exp(-2 pi delta), phi_s = ``stokes_phase(delta)`` and delta =
      Delta^2/(4v) is the crossing's ``adiabaticity``;
    - ``quarter``: the free phase zeta/2 from a crossing to the next turning
      point, A(eps_m)/(2 slope) with A(u) = (u hypot(u, m) + m^2 asinh(u/m))/2
      the antiderivative ``free_phase`` integrates; every quarter period holds
      the same phase, since the triangle is symmetric about its turning points;
    - ``kick``: |kappa| = Delta v / (eps_m^2 + Delta^2)^{3/2}; the turning
      point after an up-sweep kicks by -kick, after a down-sweep by +kick;
    - ``up``: +1 where the first crossing after t = 0 sweeps the detuning up,
      else -1.
    """
    if p.delta_mhz <= 0:
        raise ValueError(f"delta_adiab must be positive, got delta_mhz = {p.delta_mhz}")
    m = p.delta_ang
    t_off = p.t_offset_ns
    eps_m = mhz_to_angular(epsilon_m_mhz)
    T = period_ns
    rate = mhz_to_angular(4 * epsilon_m_mhz / T)  # sweep rate at a crossing
    d = m**2 / (4 * rate)
    p_lz = np.exp(-2 * np.pi * d)
    alpha = np.sqrt(1.0 - p_lz) * np.exp(1j * _stokes_phases(d))
    area = (eps_m * np.hypot(eps_m, m) + m * m * np.arcsinh(eps_m / m)) / 2
    quarter = area / (4 * eps_m / T) / 2

    tc1 = np.fmod(T / 4 - t_off, T / 2)
    tc1 = np.where(tc1 < 0, tc1 + T / 2, tc1)
    phase = np.fmod(tc1 + t_off, T)
    phase = np.where(phase < 0, phase + T, phase)
    up = np.where(np.abs(phase - T / 4) < T / 8, 1.0, -1.0)
    kick = m * rate / np.hypot(eps_m, m) ** 3
    return alpha, np.sqrt(p_lz), quarter, kick, up


def _nodes(alpha: np.ndarray, gamma: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Bare crossing nodes (n, 2, 2): [[alpha, up gamma], [-up gamma, alpha*]]."""
    bare = np.empty((alpha.size, 2, 2), dtype=complex)
    bare[:, 0, 0] = alpha
    bare[:, 0, 1] = up * gamma
    bare[:, 1, 0] = -up * gamma
    bare[:, 1, 1] = alpha.conj()
    return bare


def _period_rotations(
    p: DriveParameters, epsilon_m_mhz: np.ndarray, period_ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G1 and its rotation for every (epsilon_m, T) pair of a grid.

    The drives share ``p``'s gap and start offset.  Each G1 = U M2 U M1 is
    composed for the whole grid at once from ``_impulse_factors``: U is the
    half-period phase zeta (both half periods hold one turning point and are
    equal), and each M = U(zeta/2)^dag K U(zeta/2) N is a node oriented as
    its crossing sweeps, followed by the next turning point's kick K carried
    back to the crossing.  Every factor lies in SU(2), so it is held as the
    pair (p, q) of [[p, q], [-conj(q), conj(p)]] and multiplied by the dense
    kernel's ``_mul``: U is (e^{i zeta}, 0), a node (alpha, +-gamma) and a
    kick (cos kappa, i sin kappa e^{-i zeta}).

    Angle and axis follow the convention of an SU(2) rotation: the global
    phase is removed by dividing out sqrt(det), det = |p|^2 + |q|^2, and
    fixing the trace 2 Re p real-positive, so the angle lies in [0, pi] and
    the axis is along -(Im q, Re q, Im p); at angle pi the leftover sign is
    broken by preferring a non-negative z, then x, then y axis component.

    Returns ``g1`` as (p, q) rows (2, n), ``angles`` (n,) and ``axes`` (n, 3).
    """
    alpha, gamma, quarter, kick, up = _impulse_factors(p, epsilon_m_mhz, period_ns)
    e_plus = np.exp(2j * quarter)

    def node(sign):
        # the turning point after an up-sweep kicks by -kick, after a down-sweep by +kick
        k = np.stack([np.cos(sign * kick) + 0j, 1j * np.sin(sign * kick) * e_plus.conj()])
        return _mul(k, np.stack([alpha, sign * gamma + 0j]))

    free = np.stack([e_plus, np.zeros_like(e_plus)])
    g1 = _mul(_mul(_mul(free, node(-up)), free), node(up))
    det = np.abs(g1[0]) ** 2 + np.abs(g1[1]) ** 2  # G1^H G1 = det I
    err = np.max(np.abs(det - 1.0))
    if not err <= 1e-12:
        raise ValueError(f"G1 not unitary: max deviation {err:.2e}")

    half_trace = g1[0].real / np.sqrt(det)
    angles = 2 * np.arccos(np.minimum(1.0, np.abs(half_trace)))
    axes = np.stack([g1[1].imag, g1[1].real, g1[0].imag], axis=1)
    axes *= np.where(half_trace < 0, 1.0, -1.0)[:, None]
    norm = np.linalg.norm(axes, axis=1, keepdims=True)
    axes /= np.where(norm > 0, norm, 1.0)  # zero only at angle 0, set below
    at_pi = np.abs(angles - np.pi) < 1e-12
    if np.any(at_pi):
        zxy = axes[:, [2, 0, 1]]
        lead = zxy[np.arange(zxy.shape[0]), np.argmax(np.abs(zxy) > 1e-12, axis=1)]
        axes[at_pi & (lead < 0)] *= -1
    still = np.sin(angles / 2) < 1e-12
    angles[still] = 0.0
    axes[still] = (0.0, 0.0, 1.0)
    if not np.all((angles >= 0.0) & (angles <= np.pi + 1e-12)):
        raise ValueError("rotation angles must lie in [0, pi]")
    return g1, angles, axes


def single_period_rotation(p: DriveParameters) -> PeriodRotation:
    """Compose one period, G1 = U2 M2 U1 M1, and extract its rotation.

    Each M is a crossing node with the following turning point's kick folded
    in (``_period_rotations``), so G1 is the one-period map of the dense
    drive to first order in the turning-point rate, not the bare-node product
    whose trace is 2[P + (1-P) cos 2(zeta + phi_s)].  Resonant driving corresponds
    to the axis lying in the Bloch xy plane; a vanishing rotation angle means
    destructive interference (no transfer no matter how long the drive runs).
    This is the one-point case of ``resonance_scan``.
    """
    _check_impulse_regime(p.delta_mhz, p.epsilon_m_mhz)
    (pp, q), angles, axes = _period_rotations(p, np.array([p.epsilon_m_mhz]),
                                              np.array([p.period_ns]))
    g1 = np.array([[pp[0], q[0]], [-q[0].conjugate(), pp[0].conjugate()]])
    return PeriodRotation(g1, float(angles[0]), axes[0])


def stroboscopic_evolve(p: DriveParameters, n: int, initial: QubitState | None = None) -> Trajectory:
    """Propagate ``n`` drive periods with the impulse model.

    The state is tracked as the model's dressed adiabatic amplitudes
    (impulses at the crossings, kicks at the turning points, phase
    accumulation in between) and reported as diabatic populations.  Samples
    are emitted at the start time and at the two turning points per period
    (triangle apex and trough), where |eps| = eps_m and the diabatic
    conversion is well conditioned; inside the crossing regions the impulse
    idealization has no meaningful instantaneous state.  A turning-point
    sample sits at its kick's midpoint, half the kick exp(-i kappa sigma_x)
    on each side, where the dressed and the adiabatic amplitudes agree.  The
    start state is dressed the same way, s = exp(+i thetadot/(2 Omega)
    sigma_x) c at t = 0, which with t_offset = 0 is half a trough kick.  With
    t_offset = 0 the trough samples are the period boundaries t = kT.

    The segment maps come from the closed forms of ``_impulse_factors``, the
    ones ``_period_rotations`` composes into G1; only the lead-in from t = 0
    to the first crossing is a ``free_phase`` of its own.  The 2n + 1 samples
    are refused past ``_MAX_SAMPLES``, as the dense route's are, before
    anything is allocated.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if 2 * n + 1 > _MAX_SAMPLES:
        raise ValueError(f"{2 * n + 1:.3g} samples of {n} periods exceed {_MAX_SAMPLES}; "
                         "lower n_periods")
    initial = initial or QubitState.ket0()
    _check_impulse_regime(p.delta_mhz, p.epsilon_m_mhz)
    T = p.period_ns
    tc1 = first_crossing(p)
    alpha, gamma, quarter, kick, up = _impulse_factors(p, np.array([p.epsilon_m_mhz]),
                                                       np.array([T]))

    def free(zeta):  # U(zeta) = diag(e^{+i zeta}, e^{-i zeta})
        return np.diag(np.exp(np.array([1j, -1j]) * zeta))

    u = free(quarter)  # from a crossing to a turning point, or back

    if initial.basis is Basis.ADIABATIC:
        psi = initial.as_array()
    else:
        psi = eigenbasis_at(p, 0.0).conj().T @ initial.as_array()
    start = eigenbasis_at(p, 0.0) @ psi

    slope = mhz_to_angular(sweep_rate(p))
    if np.mod(p.t_offset_ns, T) >= T / 2:  # t = 0 on the falling branch
        slope = -slope
    dressing = rotation_x(_dressing_angle(p, mhz_to_angular(epsilon_at(p, 0.0)), slope))
    # half kicks of the turning points after the first and the second crossing
    half_first = rotation_x(float(-up[0] * kick[0]))
    half_second = rotation_x(float(up[0] * kick[0]))

    # constant segment maps between samples (the drive is periodic), from a
    # turning point's sample to the next one's
    to_first = half_first @ u @ _nodes(alpha, gamma, up)[0]
    first_to_second = half_second @ u @ _nodes(alpha, gamma, -up)[0] @ u @ half_first
    second_to_first = to_first @ u @ half_second

    psi = to_first @ (free(free_phase(p, 0.0, tc1)) @ (dressing @ psi))
    at_first = _unitary_powers(second_to_first @ first_to_second, psi, n)
    at_second = at_first @ first_to_second.T

    t_base = tc1 + T * np.arange(n)
    times = np.empty(2 * n + 1)
    times[0] = 0.0
    times[1::2] = t_base + T / 4
    times[2::2] = t_base + 3 * T / 4
    amps = np.empty((2 * n + 1, 2), dtype=complex)
    amps[0] = start
    amps[1::2] = at_first @ eigenbasis_at(p, tc1 + T / 4).T
    amps[2::2] = at_second @ eigenbasis_at(p, tc1 + 3 * T / 4).T
    return Trajectory(times, np.abs(amps) ** 2, Basis.DIABATIC, amplitudes=amps)


def _unitary_powers(u: np.ndarray, psi: np.ndarray, n: int) -> np.ndarray:
    """Rows u^k psi for k = 0..n-1, for a 2x2 unitary ``u``, in closed form.

    u = e^{i phi} S with S in SU(2), S = cos(h) I + sin(h) B, B = -i n.sigma,
    so u^k = e^{i k phi} (cos(k h) I + sin(k h) B): every power at once,
    without the rounding drift of repeated products.
    """
    phi = np.angle(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]) / 2
    s = u * np.exp(-1j * phi)
    cos_h = (s[0, 0] + s[1, 1]).real / 2
    b = s - cos_h * np.eye(2)
    sin_h = math.sqrt(abs(b[0, 0]) ** 2 + abs(b[0, 1]) ** 2)
    b_psi = b @ psi / sin_h if sin_h > 0 else np.zeros(2, dtype=complex)
    kh = np.arange(n) * math.atan2(sin_h, cos_h)
    return np.exp(1j * phi * np.arange(n))[:, None] * (
        np.cos(kh)[:, None] * psi + np.sin(kh)[:, None] * b_psi)


@dataclass(frozen=True)
class ResonanceScan:
    """G1 diagnostics over the points of a parameter scan, in grid order:
    the scanned ``value``, the ``rotation_angle`` and the axis' z component."""

    value: np.ndarray
    rotation_angle: np.ndarray
    axis_z: np.ndarray

    def __len__(self) -> int:
        return self.value.size


def resonance_scan(p_base: DriveParameters, parameter: str, values) -> ResonanceScan:
    """G1 rotation diagnostics over a grid of ``period_ns`` or ``epsilon_m_mhz``.

    Resonances show up as minima of |axis_z|; destructive-interference points
    as minima of the rotation angle.  The grid is checked as
    ``DriveParameters`` checks each drive, and G1 is composed for all points
    at once.
    """
    if parameter not in ("period_ns", "epsilon_m_mhz"):
        raise ValueError(f"parameter must be 'period_ns' or 'epsilon_m_mhz', got {parameter!r}")
    grid = np.asarray(list(values), dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("scan grid must be a non-empty list of values")
    bad = ~np.isfinite(grid)
    if np.any(bad):
        raise ValueError(f"{parameter} must be finite, got {float(grid[bad][0])}")
    if parameter == "period_ns":
        if np.any(grid <= 0):
            raise ValueError(f"period_ns must be positive, got {float(grid[grid <= 0][0])}")
        eps_m, period = np.full(grid.size, p_base.epsilon_m_mhz), grid
    else:
        if np.any(grid < 0):
            raise ValueError(f"epsilon_m_mhz must be >= 0, got {float(grid[grid < 0][0])}")
        eps_m, period = grid, np.full(grid.size, p_base.period_ns)
    _check_impulse_regime(p_base.delta_mhz, eps_m)
    _, angles, axes = _period_rotations(p_base, eps_m, period)
    return ResonanceScan(grid, angles, axes[:, 2].copy())  # not a view holding every axis
