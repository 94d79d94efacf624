"""Physical parameterization of the driven two-level model.

Unit policy
-----------
Every public interface speaks ordinary frequencies in MHz and times in ns
(dephasing times in us where noted).  All internal dynamics use angular
frequency in rad/ns.  Since 1 MHz is exactly one cycle per microsecond, the
conversion is ``omega = 2e-3 * pi * f_mhz`` and is lossless both ways.

The effective Hamiltonian in the frame rotating at the qubit frequency is

    H(t) = eps(t)/2 * sigma_z + delta/2 * sigma_x        (angular units)

where eps(t) is a symmetric triangle wave of amplitude eps_m and period T,
starting at -eps_m, and delta is the drive-induced coupling (the gap of the
avoided crossing at eps = 0).

Phase convention
----------------
The triangle's origin is a trough, a time t lies t + t_offset_ns after it,
and the detuning rises first.  ``_drive_phase`` splits that time as
t + t_offset_ns = j T/2 + v with 0 <= v < T/2: after turning point j, eps is
-eps_m + 4 eps_m v / T for an even j (a trough) and eps_m - 4 eps_m v / T for
an odd j (an apex), zero at v = T/4.  Every other module reads the drive's
phase through it; ``epsilon_at`` keeps its own ``np.mod`` form, the definition.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDriveError

#: rad/ns per MHz; exactly 2*pi*1e-3.
RAD_PER_NS_PER_MHZ = 2.0e-3 * math.pi

#: Most samples of one run, on either route: one member's (samples, 2) complex
#: states then take at most 1 GiB.  With the maps gathered per sample and their
#: temporaries, a dense run peaks at about 210 bytes per sample and member
#: (tracemalloc: 193 for fig3a's 256201 or 320501 samples a step apart, on or
#: off a turning point, 212 for 40001 samples on turning points), about 6.6 GiB
#: at the cap.  Past it the run is refused before the sample times are made.
_MAX_SAMPLES = 1 << 25


def mhz_to_angular(f_mhz):
    """Ordinary frequency in MHz -> angular frequency in rad/ns."""
    return RAD_PER_NS_PER_MHZ * f_mhz


def angular_to_mhz(omega):
    """Angular frequency in rad/ns -> ordinary frequency in MHz."""
    return omega / RAD_PER_NS_PER_MHZ


class Basis(str, Enum):
    """Basis tag for states and trajectories."""

    DIABATIC = "diabatic"
    ADIABATIC = "adiabatic"


@dataclass(frozen=True)
class DriveParameters:
    """Triangle-wave frequency-modulated drive.

    delta_mhz      coupling (avoided-crossing gap) in MHz; >= 0
    epsilon_m_mhz  triangle amplitude in MHz (detuning sweeps -eps_m..+eps_m)
    period_ns      triangle period T in ns
    n_periods      number of drive periods in the simulated window
    t_offset_ns    shift of the triangle's origin; 0 starts at eps = -eps_m
    """

    delta_mhz: float
    epsilon_m_mhz: float
    period_ns: float
    n_periods: int = 1
    t_offset_ns: float = 0.0

    def __post_init__(self):
        for name in ("delta_mhz", "epsilon_m_mhz", "period_ns", "t_offset_ns"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if isinstance(self.n_periods, bool) or not isinstance(self.n_periods, numbers.Integral):
            raise ValueError(f"n_periods must be an integer, got {self.n_periods!r}")
        # Several operations (pure dephasing runs, sweep-rate limits) need
        # delta = 0, so zero is allowed even though a real drive has delta > 0.
        if self.delta_mhz < 0:
            raise ValueError(f"delta_mhz must be >= 0, got {self.delta_mhz}")
        if self.epsilon_m_mhz < 0:
            raise ValueError(f"epsilon_m_mhz must be >= 0, got {self.epsilon_m_mhz}")
        if self.period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {self.period_ns}")
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods}")

    @property
    def delta_ang(self) -> float:
        return mhz_to_angular(self.delta_mhz)

    @property
    def epsilon_m_ang(self) -> float:
        return mhz_to_angular(self.epsilon_m_mhz)

    @property
    def total_time_ns(self) -> float:
        return self.n_periods * self.period_ns


@dataclass(frozen=True)
class QubitState:
    """Normalized two-component state (amp0, amp1) in the tagged basis."""

    amp0: complex
    amp1: complex
    basis: Basis = Basis.DIABATIC

    def __post_init__(self):
        norm_sq = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if not abs(norm_sq - 1.0) <= 1e-9:
            raise ValueError(f"state not normalized: |amp|^2 = {norm_sq!r}")

    @classmethod
    def ket0(cls, basis: Basis = Basis.DIABATIC) -> "QubitState":
        return cls(1.0 + 0.0j, 0.0j, basis)

    @classmethod
    def ket1(cls, basis: Basis = Basis.DIABATIC) -> "QubitState":
        return cls(0.0j, 1.0 + 0.0j, basis)

    def as_array(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)

    @property
    def populations(self) -> tuple[float, float]:
        return abs(self.amp0) ** 2, abs(self.amp1) ** 2


def epsilon_at(p: DriveParameters, t):
    """Instantaneous detuning eps(t) in MHz; t in ns (scalar or array).

    Piecewise linear: rises from -eps_m at the period start to +eps_m at T/2,
    then falls back.  Periodic for all t >= 0; breakpoints are exact.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("epsilon_at requires t >= 0")
    T = p.period_ns
    em = p.epsilon_m_mhz
    u = np.mod(t_arr + p.t_offset_ns, T)
    s = (u >= T / 2) * -2.0
    s += 1.0  # the slope's sign: 1 on the rise from -em, -1 on the fall from em
    u -= (1 - s) * (T / 4)  # v, the time since the turning point: u, or u - T/2 (exact)
    u *= 4 * em
    u /= T
    u *= s
    # s (4 em v/T) - s em equals -em + 4 em v/T on the rise and em - 4 em v/T
    # on the fall to the bit, the sign of a zero included
    u -= s * em
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(u)
    return u


def crossing_times(p: DriveParameters) -> list[float]:
    """Times in [0, n_periods*T] where eps(t) = 0, sorted ascending.

    The triangle crosses zero twice per period, T/2 apart, from
    ``first_crossing`` on.  Returns an empty list when epsilon_m = 0.
    """
    if p.epsilon_m_mhz == 0:
        return []
    half, t_end = p.period_ns / 2, p.total_time_ns
    first = first_crossing(p)
    times = first + np.arange((t_end - first) // half + 2) * half
    return times[times <= t_end + 1e-12].tolist()


def first_crossing(p: DriveParameters) -> float:
    """The first time t >= 0 where the triangle (of nonzero amplitude) crosses
    zero: eps(t) = 0 when t + t_offset = T/4 mod T/2, so it lies in [0, T/2)."""
    return float(_first_crossing(p.period_ns, p.t_offset_ns))


def _first_crossing(T, t_offset_ns):
    """`first_crossing` of drives of periods ``T`` (an array), elementwise."""
    return np.remainder(T / 4 - t_offset_ns, T / 2)


def _drive_phase(T, t_offset_ns, t):
    """(j, v) with t + t_offset_ns = j T/2 + v and 0 <= v < T/2, elementwise
    over periods ``T`` and times ``t``: the detuning's slope after turning
    point j has the sign (-1)**j (see the phase convention above)."""
    return np.divmod(t + t_offset_ns, T / 2)


def sweep_rate(p: DriveParameters) -> float:
    """Detuning sweep rate at a crossing, v = 4*eps_m/T, in MHz/ns."""
    if p.epsilon_m_mhz == 0:
        raise DegenerateDriveError("sweep rate undefined for epsilon_m = 0")
    return 4 * p.epsilon_m_mhz / p.period_ns


def mixing_angle_at(p: DriveParameters, t):
    """Instantaneous mixing angle theta(t) in [0, pi].

    cos(theta) = eps/Omega and sin(theta) = delta/Omega with
    Omega = sqrt(eps^2 + delta^2); theta -> pi for eps -> -inf and theta -> 0
    for eps -> +inf, continuous through the crossing.
    """
    eps = np.asarray(epsilon_at(p, t), dtype=float)
    return np.arctan2(p.delta_mhz, eps)


def eigenbasis_at(p: DriveParameters, t: float) -> np.ndarray:
    """Columns (|g>, |e>) of the instantaneous eigenbasis at time t.

    |g> = (-sin(theta/2), cos(theta/2)), |e> = (cos(theta/2), sin(theta/2)).
    The column phases are continuous along the sweep, which keeps transfer
    matrices extracted at successive crossings mutually consistent.
    """
    th = float(mixing_angle_at(p, t))
    c, s = math.cos(th / 2), math.sin(th / 2)
    return np.array([[-s, c], [c, s]], dtype=complex)
