"""Trajectory post-processing: basis conversion, frequency extraction, fits.

All operations are pure functions over immutable trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitFailureError, NoOscillationError
from .model import Basis, DriveParameters, crossing_times, epsilon_at, mixing_angle_at
from .propagator import Trajectory

#: The fewest cycles `rabi_frequency` takes for an oscillation in its window
_RABI_MIN_CYCLES = 3
#: Width of `detect_steps`' window about a crossing, as a fraction of the period
_STEP_WINDOW_FRACTION = 0.1


@dataclass(frozen=True)
class AdiabaticMask:
    """Samples where |eps(t)| > threshold_ratio * delta.

    Outside the mask the diabatic and adiabatic bases differ by more than
    (1 - cos(theta))/2 evaluated at the threshold (2.57% for the default
    ratio of 3), so population relabeling between the bases stops being
    harmless there.
    """

    threshold_ratio: float = 3.0
    kept_indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.threshold_ratio <= 0:
            raise ValueError("threshold_ratio must be positive")

    @classmethod
    def build(cls, traj: Trajectory, p: DriveParameters, threshold_ratio: float = 3.0) -> "AdiabaticMask":
        eps = np.asarray(epsilon_at(p, traj.times))
        kept = np.nonzero(np.abs(eps) > threshold_ratio * p.delta_mhz)[0]
        return cls(threshold_ratio, tuple(int(i) for i in kept))


@dataclass(frozen=True)
class FitResult:
    """Extracted oscillation parameters; the residual is always reported."""

    frequency_mhz: float
    amplitude: float
    residual_rms: float
    decay_time_us: float | None = None

    def __post_init__(self):
        if self.frequency_mhz <= 0:
            raise ValueError("frequency_mhz must be positive")


def _eigenbasis_rotation(p: DriveParameters, times: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Each sample's amplitudes times the eigenbasis matrix [[-s, c], [c, s]]
    (`eigenbasis_at`) at its time.  The matrix is real, symmetric and
    orthogonal, hence its own inverse: the same rotation takes diabatic
    amplitudes to adiabatic ones and back."""
    half = mixing_angle_at(p, times) / 2
    c, s = np.cos(half), np.sin(half)
    a0, a1 = amps[:, 0], amps[:, 1]
    return np.column_stack([-s * a0 + c * a1, c * a0 + s * a1])


def to_adiabatic(traj: Trajectory, p: DriveParameters, mask: AdiabaticMask | None = None) -> Trajectory:
    """Rotate a diabatic trajectory into the instantaneous eigenbasis.

    Samples failing |eps(t)| > threshold_ratio * delta are dropped; the
    remaining states are rotated exactly (amplitudes required), so total
    probability is preserved sample by sample and the conversion is
    invertible via `to_diabatic`.
    """
    if traj.basis is not Basis.DIABATIC:
        raise ValueError("trajectory is already in the adiabatic basis")
    if traj.amplitudes is None:
        raise ValueError("basis conversion needs per-sample amplitudes")
    if mask is None or not mask.kept_indices:
        ratio = mask.threshold_ratio if mask is not None else 3.0
        mask = AdiabaticMask.build(traj, p, ratio)
    idx = np.array(mask.kept_indices, dtype=int)
    if idx.size == 0:
        raise ValueError("mask keeps no samples; drive never leaves the crossing region")
    times = traj.times[idx]
    amps = _eigenbasis_rotation(p, times, traj.amplitudes[idx])
    return Trajectory(times, np.abs(amps) ** 2, Basis.ADIABATIC, amplitudes=amps)


def to_diabatic(traj: Trajectory, p: DriveParameters) -> Trajectory:
    """Inverse of `to_adiabatic` on whatever samples the trajectory carries."""
    if traj.basis is not Basis.ADIABATIC:
        raise ValueError("trajectory is not in the adiabatic basis")
    if traj.amplitudes is None:
        raise ValueError("basis conversion needs per-sample amplitudes")
    amps = _eigenbasis_rotation(p, traj.times, traj.amplitudes)
    return Trajectory(traj.times, np.abs(amps) ** 2, Basis.DIABATIC, amplitudes=amps)


def _uniform_signal(traj: Trajectory) -> tuple[np.ndarray, float]:
    """P0 samples on a uniform grid, and their interval.  A first or last
    interval off the second one drops its outer sample: a trailing partial
    sample, or the impulse strobe's start sample at t = 0, which sits off
    its turning-point grid unless ``t_offset_ns`` puts a turning point there.
    """
    t = traj.times
    if t.size < 8:
        raise ValueError("trajectory too short for spectral analysis")
    dt = np.diff(t)
    # np.allclose's test at rtol 1e-6, against the second interval
    uniform = np.abs(dt - dt[1]) <= 1e-8 + 1e-6 * abs(dt[1])
    lo, hi = int(not uniform[0]), dt.size - int(not uniform[-1])
    if not uniform[lo:hi].all():
        raise ValueError("spectral analysis requires uniform sampling")
    return np.asarray(traj.p0[lo:hi + 1], dtype=float), float(dt[lo])


def _unit_phases(step: float, n: int) -> np.ndarray:
    """``exp(i k step)`` for k = 0..n-1, by angle addition: the outer product
    of ``exp(i j B step)`` over whole blocks of B = isqrt(n) samples and
    ``exp(i b step)`` for b < B, about 2 sqrt(n) complex exponentials and n
    complex products in place of n cosines and n sines.  Each phase is
    rounded once before its exponential, as ``np.cos(k * step)`` rounds it,
    so an entry is within ``(1 + k step) 4e-16`` of ``exp(i k step)``."""
    block = math.isqrt(n) or 1
    table = np.exp(1j * step * np.concatenate((np.arange(0, n, block), np.arange(block))))
    blocks = table.size - block
    return (table[:blocks, None] * table[blocks:]).ravel()[:n]


def _spectral_peak(x: np.ndarray, dt_ns: float, k_min: int) -> tuple[float, float, float]:
    """Dominant frequency (MHz) via Hann-windowed DFT + quadratic interpolation.

    Returns (frequency_mhz, peak_magnitude, median_floor); bins below k_min
    are excluded, which also enforces a minimum cycle count in the window.
    The window is ``np.hanning``'s, ``0.5 - 0.5 cos(2 pi k / (n - 1))``, with
    the cosines read off `_unit_phases`: equal to it up to the rounding of
    the phases, which ``np.hanning`` pays as well.
    """
    x = x - np.mean(x)
    # anything below ~1e-9 is integrator truncation noise, not an oscillation
    if float(np.std(x)) < 1e-9:
        raise NoOscillationError("signal is constant")
    w = 0.5 - 0.5 * _unit_phases(2 * math.pi / (x.size - 1), x.size).real
    mag = np.abs(np.fft.rfft(x * w))
    if k_min + 1 >= mag.size - 1:
        raise ValueError("too few samples for the requested minimum frequency")
    k = int(np.argmax(mag[k_min:]) + k_min)
    floor = float(np.median(mag[k_min:]))
    peak = float(mag[k])
    if peak <= 3.0 * floor or peak == 0.0:
        raise NoOscillationError(
            f"no spectral peak above 3x the median floor (peak {peak:.3g}, floor {floor:.3g})"
        )
    return _peak_bin(mag, k) * (1e3 / (x.size * dt_ns)), peak, floor


def _peak_bin(mag: np.ndarray, k: int) -> float:
    """Bin k of the DFT magnitudes ``mag``, refined by the parabola through
    the log magnitudes of bins k-1, k and k+1 (exact on a Gaussian line)."""
    if 1 <= k < mag.size - 1 and mag[k - 1] > 0 and mag[k + 1] > 0:
        la, l0, lb = np.log(mag[k - 1]), np.log(mag[k]), np.log(mag[k + 1])
        denom = la - 2 * l0 + lb
        return k + (0.5 * (la - lb) / denom if denom != 0 else 0.0)
    return float(k)


def rabi_frequency(traj: Trajectory) -> FitResult:
    """Dominant oscillation frequency of P0 from a uniformly sampled trajectory.

    Windowed DFT with local quadratic peak interpolation; the amplitude and
    residual come from a linear least-squares cosine fit at the found
    frequency, so offsets and time shifts do not bias the estimate.  The fit
    solves its 3x3 normal equations ``(B B^T) c = B x`` for the rows ``B`` =
    (cos, sin, 1) at that frequency.  With at least ``_RABI_MIN_CYCLES`` cycles
    in the window ``B B^T`` is close to ``diag(n/2, n/2, n)``; only a peak at
    the Nyquist frequency makes it singular (the sin row is rounding), and the
    solve then drops that direction as a least-squares fit on ``B`` does.
    The cos and sin rows are the real and imaginary parts of `_unit_phases`
    at the step ``2 pi f dt``: angle addition over blocks of about sqrt(n)
    samples, whose phases are rounded once each, as ``np.cos`` of the
    sampled phases rounds them, so the fit moves only at that rounding.
    """
    x, dt = _uniform_signal(traj)
    f_mhz, _, _ = _spectral_peak(x, dt, k_min=_RABI_MIN_CYCLES)
    basis = np.ones((3, x.size))
    # the cos and sin rows, read off the (re, im) pairs; no phase outlives them
    basis[:2] = _unit_phases(2e-3 * math.pi * f_mhz * dt, x.size).view(float).reshape(-1, 2).T
    # B B^T: numpy sends ``basis @ basis.T``, a buffer times its own
    # transpose, to BLAS syrk, about ten times slower here than the general
    # product of the top two rows with ``basis.T``; the last row is n and
    # that product's last column
    gram = np.empty((3, 3))
    gram[:2] = basis[:2] @ basis.T
    gram[2] = gram[0, 2], gram[1, 2], x.size
    coef = np.linalg.lstsq(gram, basis @ x, rcond=1e-10)[0]
    resid = x - coef @ basis
    amplitude = float(math.hypot(coef[0], coef[1]))
    return FitResult(
        frequency_mhz=float(f_mhz),
        amplitude=amplitude,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


#: the most steps `_least_squares` takes; a fit that needs more has failed
_FIT_STEPS = 100


def _least_squares(what: str, residuals, x, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt in the box lo <= x <= hi: the x minimising |r|^2
    and r there, where ``residuals(x)`` returns r and its Jacobian (n, k).
    Parameters that the gradient holds at a bound stay there; the others take
    a damped Gauss-Newton step (Marquardt's scaling), clipped into the box and
    kept if it lowers |r|^2.  The damping falls tenfold if the fall is over 3/4
    of the linearised model's, and grows tenfold under 1/4.  Converged when a
    step would move no parameter by 1e-10 of its value."""
    x = np.clip(np.asarray(x, dtype=float), lo, hi)
    r, jac = residuals(x)
    if not np.isfinite(r).all():
        raise FitFailureError(f"{what}: the residuals at the start are not finite")
    damping = 1e-3
    for _ in range(_FIT_STEPS):
        grad = jac.T @ r
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        a = jac[:, free].T @ jac[:, free]
        norm = np.where(np.diag(a) > 0, np.sqrt(np.diag(a)), 1.0)
        step = np.zeros_like(x)
        step[free] = np.linalg.lstsq(a / np.outer(norm, norm) + damping * np.eye(norm.size),
                                     -grad[free] / norm, rcond=None)[0] / norm
        if np.all(np.abs(step) <= 1e-10 * np.abs(x)):
            return x, r
        trial = np.clip(x + step, lo, hi)
        r_trial, jac_trial = residuals(trial)
        predicted = r @ r - np.sum((r + jac @ (trial - x)) ** 2)  # by the linearised model
        gain = (r @ r - r_trial @ r_trial) / predicted if predicted > 0 else 0.0
        damping *= 0.1 if gain > 0.75 else 10 if not gain > 0.25 else 1  # NaN gains too
        if gain > 0:
            x, r, jac = trial, r_trial, jac_trial
    raise FitFailureError(f"{what}: no convergence in {_FIT_STEPS} steps")


def ramsey_fit(traj: Trajectory) -> FitResult:
    """Least-squares fit of A exp[-(t/T*)^2] cos(2 pi f t) + c to P0(t).

    Times are fitted in us, so the returned decay time is in us and the
    frequency in MHz.  The model is linear in (A, c), which are solved for
    at each (T*, f) (variable projection); `_least_squares` fits (T*, f)
    from half the span and the peak of the unwindowed periodogram.  A signal
    whose Hann-windowed spectrum has no peak over its floor has no fringe.
    """
    t_us = traj.times / 1000.0
    x = np.asarray(traj.p0, dtype=float)
    if float(np.std(x)) < 1e-12:
        raise FitFailureError("signal is constant; nothing to fit")

    xs, dt = _uniform_signal(traj)
    try:
        _spectral_peak(xs, dt, k_min=1)
    except NoOscillationError as exc:
        raise FitFailureError(f"no fringe to fit: {exc}") from exc
    # f starts from the plain periodogram's peak: the Gaussian envelope
    # already windows the fringe, and a Hann window, zero at t = 0, would
    # erase a fringe that has decayed early in the span
    mag = np.abs(np.fft.rfft(xs - np.mean(xs)))
    f0 = _peak_bin(mag, int(np.argmax(mag[1:])) + 1) * (1e3 / (xs.size * dt))
    lo, hi = np.array([-2.0, -1.0]), np.array([2.0, 2.0])  # the bounds of (A, c)

    def fringe(theta):
        """The residuals at (T*, f) and their Jacobian, then (A, c)."""
        envelope = np.exp(-((t_us / theta[0]) ** 2))
        phase = 2 * math.pi * theta[1] * t_us
        basis = np.column_stack([envelope * np.cos(phase), np.ones_like(t_us)])
        ac = np.linalg.lstsq(basis, x, rcond=None)[0]
        if np.any((ac < lo) | (ac > hi)):  # the box binds, and the fit is linear
            ac = _least_squares("bounded (A, c)", lambda ac: (basis @ ac - x, basis), ac, lo, hi)[0]
        jac = -ac[0] * np.column_stack([2 * basis[:, 0] * t_us**2 / theta[0] ** 3,
                                        -2 * math.pi * t_us * envelope * np.sin(phase)])
        # the free coefficients follow (T*, f): their columns are projected out
        q = np.linalg.qr(basis[:, (lo < ac) & (ac < hi)])[0]
        return (x - basis @ ac, jac - q @ (q.T @ jac)), ac

    # T* in [1e-3, 1e4] us and f in [1e-6, 500/dt] MHz, below the samples'
    # Nyquist frequency, past which a fringe fits as well as its alias
    theta, resid = _least_squares(f"fit from f0={f0:.4g} MHz", lambda theta: fringe(theta)[0],
                                  [float(t_us[-1] - t_us[0]) / 2, f0],
                                  [1e-3, 1e-6], [1e4, 500 / dt])
    return FitResult(frequency_mhz=float(theta[1]), amplitude=float(abs(fringe(theta)[1][0])),
                     residual_rms=float(np.sqrt(np.mean(resid**2))), decay_time_us=float(theta[0]))


@dataclass(frozen=True)
class StepEvent:
    """Population change across one crossing window."""

    time_ns: float
    jump: float
    complete: bool


def detect_steps(traj: Trajectory, p: DriveParameters) -> list[StepEvent]:
    """Signed P0 change across a window of width T*_STEP_WINDOW_FRACTION at each crossing.

    Windows clipped by the trajectory bounds yield a partial result flagged
    ``complete=False``.  The window width is a reporting choice, not physics;
    it is recorded by callers that serialize results.
    """
    if traj.basis is not Basis.DIABATIC:
        raise ValueError("step detection expects diabatic populations")
    half = p.period_ns * _STEP_WINDOW_FRACTION / 2
    t0, t1 = traj.times[0], traj.times[-1]
    events = []
    for tc in crossing_times(p):
        if tc < t0 or tc > t1:
            continue
        lo, hi = tc - half, tc + half
        complete = lo >= t0 and hi <= t1
        lo, hi = max(lo, t0), min(hi, t1)
        p_lo = float(np.interp(lo, traj.times, traj.p0))
        p_hi = float(np.interp(hi, traj.times, traj.p0))
        events.append(StepEvent(tc, p_hi - p_lo, complete))
    return events
