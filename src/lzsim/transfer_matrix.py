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

From the first crossing one period composes to G1 = U H2 H2 U N2 U H1 H1 U N1:
the orientation-matched nodes, the quarter-period phase U = U(zeta/2) from a
crossing to a turning point or back (half the half-period phase, since the
triangle is symmetric about its turning points), and each turning point's
kick K = H H in halves H = exp(-i kappa/2 sigma_x), between which the turning
point's sample lies.  For the bare nodes (K = 1) the trace is
2[P + (1-P) cos 2(zeta + phi_s)], so destructive interference (no transfer,
ever) happens at zeta + phi_s = 0 mod pi and resonant transfer at
zeta + phi_s = pi/2 mod pi; with the kicks this holds to O(kappa).

The closed forms of these factors (N's entries, the quarter-period phase
zeta/2, kappa and the first crossing's orientation) are evaluated in one
place, ``_impulse_factors``, for a whole grid of periods or amplitudes at
once, and ``_period_factors`` alone orders them, in the (p, q) form of the
dense kernel's step maps.  Sweep directions and the free phase ``free_phase``
between any two times are read off the drive's phase as ``model``'s
``_drive_phase`` splits it, in closed form.  ``resonance_scan`` reduces that chain to G1 and
returns its diagnostics as columns (``_period_rotations``),
``single_period_rotation`` is its one-point case, and ``stroboscopic_evolve``
reads the maps to the turning-point samples off the same chain and G1's
powers from the dense kernel's ``_powers``.
"""

from __future__ import annotations

import functools
import itertools
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
    _drive_phase,
    _first_crossing,
    first_crossing,
    mhz_to_angular,
    sweep_rate,
)
from .propagator import _MAX_SAMPLES, Trajectory, _apply, _mul, _polar, _powers, rotation_x


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
    out = ((w - 0.5) * np.log(w) - w + series / w).imag
    for k in range(_SHIFT):
        out -= np.arctan2(-d, 1.0 + k)
    return out


def _stokes_phases(d: np.ndarray) -> np.ndarray:
    """phi_s = pi/4 + d (ln d - 1) + arg Gamma(1 - i d), elementwise for d > 0."""
    return np.pi / 4 + d * (np.log(d) - 1.0) + _arg_gamma(d)


def free_phase(p: DriveParameters, t1: float, t2: float) -> float:
    """Half the adiabatic phase, zeta = (1/2) int_t1^t2 sqrt(eps_ang^2 + Delta_ang^2) dt.

    On either branch, the gap integral from a turning point to v after it is
    (A(s v - eps_m) + A(eps_m)) / s, A = ``_gap_area`` (odd), s = 4 eps_m / T,
    and a half period holds 2 A(eps_m) / s.  So with ``_drive_phase``'s (j, v)
    of t1 and t2, zeta = ((j2 - j1) 2 A(eps_m) + A(s v2 - eps_m) - A(s v1 -
    eps_m)) / (2 s), and Delta (t2 - t1) / 2 for a constant drive (eps_m = 0).
    """
    if not 0 <= t1 <= t2:
        raise ValueError(f"need 0 <= t1 <= t2, got {t1}, {t2}")
    m = p.delta_ang
    if p.epsilon_m_mhz == 0:
        return m * (t2 - t1) / 2
    eps_m = p.epsilon_m_ang
    s = 4 * eps_m / p.period_ns
    j, v = _drive_phase(p.period_ns, p.t_offset_ns, np.array([t1, t2]))
    a = _gap_area(s * v - eps_m, m)
    return float(((j[1] - j[0]) * 2 * _gap_area(eps_m, m) + a[1] - a[0]) / (2 * s))


def _gap_area(u, m):
    """A(u) = (u hypot(u, m) + m^2 asinh(u/m))/2, the antiderivative of
    hypot(u, m) (u |u|/2 at m = 0), elementwise."""
    if m == 0.0:
        return u * np.abs(u) / 2
    return (u * np.hypot(u, m) + m * m * np.arcsinh(u / m)) / 2


def _dressing_angle(p: DriveParameters, eps_ang, slope_ang):
    """Angle a of the first-order dressing s = rotation_x(a) c of the adiabatic
    amplitudes c at detuning ``eps_ang`` swept at ``slope_ang`` (elementwise):
    a = -thetadot / Omega = Delta eps' / (eps^2 + Delta^2)^{3/2}."""
    return p.delta_ang * slope_ang / np.hypot(eps_ang, p.delta_ang) ** 3


def _check_impulse_regime(delta_mhz: float, epsilon_m_mhz) -> None:
    """Refuse drives the model cannot compose and warn, once, where it degrades."""
    if not delta_mhz > 0:  # no gap: no Stokes phase, and every crossing is diabatic
        raise ValueError(f"adiabatic-impulse model needs delta_mhz > 0, got {delta_mhz}")
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
      point, A(eps_m)/(2 slope) with A = ``_gap_area``, the antiderivative
      ``free_phase`` integrates; every quarter period holds the same phase,
      since the triangle is symmetric about its turning points;
    - ``kick``: |kappa|, the ``_dressing_angle`` at eps_m; the turning point
      after an up-sweep kicks by -kick, after a down-sweep by +kick;
    - ``up``: +1 where the first crossing after t = 0 sweeps the detuning up,
      else -1.
    """
    m = p.delta_ang
    eps_m = mhz_to_angular(epsilon_m_mhz)
    T = period_ns
    rate = mhz_to_angular(4 * epsilon_m_mhz / T)  # sweep rate at a crossing
    d = m**2 / (4 * rate)
    p_lz = np.exp(-2 * np.pi * d)
    alpha = np.sqrt(1.0 - p_lz) * np.exp(1j * _stokes_phases(d))
    quarter = _gap_area(eps_m, m) / (4 * eps_m / T) / 2

    j, _ = _drive_phase(T, p.t_offset_ns, _first_crossing(T, p.t_offset_ns))
    return alpha, np.sqrt(p_lz), quarter, _dressing_angle(p, eps_m, rate), (-1.0) ** j


#: Indices of the factors of ``_period_factors`` after which the samples of
#: the first and the second turning point lie
_SAMPLED = (2, 7)


def _period_factors(alpha, gamma, quarter, kick, up) -> list[np.ndarray]:
    """The (p, q) maps (2, n) of one period from the first crossing over a
    grid of drives, in the order they act: N1, U, H1, H1, U, N2, U, H2, H2, U.

    N is a node (alpha, +-gamma) oriented as its crossing sweeps, U = U(zeta/2)
    and H = ``rotation_x(kappa)`` half a turning point's kick, kappa = -kick
    after an up-sweep, +kick after a down-sweep; a turning point's sample lies
    between its two H (``_SAMPLED``).
    """
    free = np.stack([np.exp(1j * quarter), np.zeros_like(alpha)])  # U(zeta/2)
    chain = []
    for sign in (up, -up):
        half = rotation_x(-sign * kick)
        chain += [np.stack([alpha, sign * gamma + 0j]), free, half, half, free]
    return chain


def _period_rotations(
    p: DriveParameters, epsilon_m_mhz: np.ndarray, period_ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G1 and its rotation for every (epsilon_m, T) pair of a grid.

    The drives share ``p``'s gap and start offset.  G1 is the product of the
    chain of ``_period_factors``, composed for the whole grid at once with the
    dense kernel's ``_mul``, from the last factor back: near angle 0 the axis
    is a ratio of entries of size sin(angle/2), and this order rounds them
    about three times less than the forward one does.

    Angle and axis follow the convention of an SU(2) rotation, read from
    G1 = r (cos a I + sin a B) (``_polar``): r^2 = |p|^2 + |q|^2 is the
    determinant, the rotation angle 2 min(a, pi - a) in [0, pi] (the global
    phase fixed so that the trace is real-positive), and the axis is along
    -(Im q, Re q, Im p), with the opposite sign where Re p < 0; at angle pi
    the leftover sign is broken by preferring a non-negative z, then x, then
    y axis component.

    Returns ``g1`` as (p, q) rows (2, n), ``angles`` (n,) and ``axes`` (n, 3).
    """
    chain = _period_factors(*_impulse_factors(p, epsilon_m_mhz, period_ns))
    g1 = functools.reduce(_mul, reversed(chain))
    r, a, s = _polar(g1)
    err = np.max(np.abs(r * r - 1.0))  # G1^H G1 = r^2 I
    if not err <= 1e-12:
        raise ValueError(f"G1 not unitary: max deviation {err:.2e}")

    angles = 2 * np.minimum(a, np.pi - a)
    axes = np.stack([g1[1].imag, g1[1].real, g1[0].imag], axis=1)
    # s is zero only at angle 0, set below
    axes *= (np.where(g1[0].real < 0, 1.0, -1.0) / np.where(s > 0, s, 1.0))[:, None]
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
    """Compose one period's map G1 and extract its rotation.

    G1 holds both crossings and both turning-point kicks
    (``_period_factors``), so it is the one-period map of the dense drive to
    first order in the turning-point rate, not the bare-node product whose
    trace is 2[P + (1-P) cos 2(zeta + phi_s)].  Resonant driving corresponds
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

    One period's maps come from the chain of ``_period_factors``, the one
    ``_period_rotations`` reduces to G1: the maps ``first`` and ``second``
    from the first crossing to the two turning-point samples are its
    prefixes, so the samples of period k are first G1^k psi_c and second
    G1^k psi_c, with psi_c the state at the first crossing and every power
    G1^k in closed form (``_powers``).  Only the lead-in from t = 0 to the
    first crossing is a ``free_phase`` of its own.  The 2n + 1 samples are
    refused past ``_MAX_SAMPLES``, as the dense route's are, before anything
    is allocated.
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
    factors = _impulse_factors(p, np.array([p.epsilon_m_mhz]), np.array([T]))
    prefixes = list(itertools.accumulate(_period_factors(*factors), lambda acc, x: _mul(x, acc)))
    first, second = (prefixes[i] for i in _SAMPLED)

    if initial.basis is Basis.ADIABATIC:
        psi = initial.as_array()
    else:
        psi = eigenbasis_at(p, 0.0).conj().T @ initial.as_array()
    start = eigenbasis_at(p, 0.0) @ psi

    j, _ = _drive_phase(T, p.t_offset_ns, 0.0)
    slope = mhz_to_angular(sweep_rate(p)) * (-1.0) ** j
    psi = _apply(rotation_x(_dressing_angle(p, mhz_to_angular(epsilon_at(p, 0.0)), slope)), psi)
    psi *= np.exp(np.array([1j, -1j]) * free_phase(p, 0.0, tc1))  # at the first crossing
    at_crossing = _apply(_powers(prefixes[-1], np.arange(n)), psi)  # G1^k psi_c

    t_base = tc1 + T * np.arange(n)
    times = np.empty(2 * n + 1)
    times[0] = 0.0
    times[1::2] = t_base + T / 4
    times[2::2] = t_base + 3 * T / 4
    amps = np.empty((2 * n + 1, 2), dtype=complex)
    amps[0] = start
    amps[1::2] = _apply(first, at_crossing) @ eigenbasis_at(p, tc1 + T / 4).T
    amps[2::2] = _apply(second, at_crossing) @ eigenbasis_at(p, tc1 + 3 * T / 4).T
    return Trajectory(times, np.abs(amps) ** 2, Basis.DIABATIC, amplitudes=amps)


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
