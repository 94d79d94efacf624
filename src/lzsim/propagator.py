"""Time-domain integration of the driven two-level Schrodinger equation.

The integrator is a fixed-step classical RK4 on the 2x2 system
``i d|psi>/dt = H(t)|psi>`` (hbar = 1, angular units).  For a linear ODE the
four RK4 stages collapse into a per-step transfer matrix, so propagation is
a product of 2x2 matrices built vectorized over slabs of steps.  Steps are
aligned to the triangle wave's quarter-period grid so the integrand is
smooth inside every step and the method keeps its clean fourth-order
convergence.

Because the drive is exactly T-periodic and the aligned grid holds a whole
number of steps per period, the step matrices repeat from one period to the
next.  The dense route therefore integrates a single period: segments of
steps are reduced by pairwise halving, chained into prefix products ``C[r]``
over the period, and the state at a sample ``r`` steps into period ``q`` is
``C[r] U^q psi0`` with ``U`` the one-period map.  A span of at most one
period, a constant drive and the lab-frame toy (whose carrier does not
repeat with the drive) take the same code with the whole span as the
"period".  Memory grows with the number of samples, not of steps.

Norm drift is a quality signal: it is checked against a tolerance at every
sample and an `IntegrationError` is raised on violation.  States are never
renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError
from .model import (
    Basis,
    DriveParameters,
    QubitState,
    epsilon_at,
    epsilon_integral,
    mhz_to_angular,
    angular_to_mhz,
)

_METHODS = ("fixed-rk4", "piecewise-exact")

#: Most steps whose transfer matrices are held at once.
_SLAB = 1 << 16

_EYE = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control for the fixed-step propagator.

    The effective step obeys dt <= min(T, 2*pi/Omega_max)/steps_per_min_period
    with Omega_max = sqrt(eps_m^2 + delta^2) in angular units, further capped
    by ``max_step_ns`` when given.  ``piecewise-exact`` replaces the RK4 step
    with the exact exponential of the midpoint Hamiltonian (exactly unitary,
    second-order accurate; exact when the drive is constant).
    """

    max_step_ns: float | None = None
    steps_per_min_period: int = 400
    norm_drift_tolerance: float = 1e-8
    method: str = "fixed-rk4"

    def __post_init__(self):
        if self.max_step_ns is not None and not (
            math.isfinite(self.max_step_ns) and self.max_step_ns > 0
        ):
            raise ValueError(f"max_step_ns must be finite and positive, got {self.max_step_ns}")
        if self.steps_per_min_period < 1:
            raise ValueError("steps_per_min_period must be >= 1")
        if not (math.isfinite(self.norm_drift_tolerance) and self.norm_drift_tolerance > 0):
            raise ValueError(
                f"norm_drift_tolerance must be finite and positive, got {self.norm_drift_tolerance}"
            )
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times (ns), populations (n, 2), optional amplitudes.

    ``amplitudes`` holds the complex state per sample for single realizations
    and is None for ensemble averages, where no pure state exists.
    """

    times: np.ndarray
    populations: np.ndarray
    basis: Basis
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        pops = np.asarray(self.populations, dtype=float)
        if t.ndim != 1 or pops.shape != (t.size, 2):
            raise ValueError("times must be (n,), populations (n, 2)")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if self.amplitudes is not None and self.amplitudes.shape != (t.size, 2):
            raise ValueError("amplitudes must be (n, 2)")

    def __len__(self) -> int:
        return self.times.size

    @property
    def p0(self) -> np.ndarray:
        return self.populations[:, 0]

    @property
    def p1(self) -> np.ndarray:
        return self.populations[:, 1]

    def state_at(self, i: int) -> QubitState:
        if self.amplitudes is None:
            raise ValueError("trajectory carries no per-sample amplitudes")
        a0, a1 = self.amplitudes[i]
        return QubitState(complex(a0), complex(a1), self.basis)


# ---------------------------------------------------------------------------
# step grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Grid:
    t0: float
    dt: float
    s: int            # steps per full sample interval
    n_int: int        # number of full sample intervals
    n_tail: int       # steps in the trailing partial interval (0 if none)
    dt_tail: float
    times: np.ndarray  # sample times, first = t0, last = t_end
    steps_per_period: int  # drive period in steps when the grid is aligned to it, else 0


def _build_grid(
    p: DriveParameters,
    cfg: IntegratorConfig,
    t_span: tuple[float, float],
    sample_every: float | None,
    extra_omega_ang: float = 0.0,
) -> _Grid:
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    if span <= 0:
        raise ValueError(f"invalid time span {t_span}")
    omega_max = math.hypot(p.epsilon_m_ang + extra_omega_ang, p.delta_ang)
    if omega_max > 0:
        natural = min(p.period_ns, 2 * math.pi / omega_max) / cfg.steps_per_min_period
    else:
        natural = p.period_ns / cfg.steps_per_min_period
    dt_cap = natural if cfg.max_step_ns is None else min(natural, cfg.max_step_ns)
    if p.epsilon_m_mhz > 0:
        # align to the quarter-period grid so kinks sit on step boundaries
        base = p.period_ns / 4
        per_quarter = math.ceil(base / dt_cap)
        dt = base / per_quarter
        steps_per_period = 4 * per_quarter
    else:
        dt = dt_cap
        steps_per_period = 0
    if sample_every is None:
        sample_every = span / 1000
    if sample_every <= 0:
        raise ValueError("sample_every must be positive")
    s = max(1, round(sample_every / dt))
    spacing = s * dt
    n_int = int(span / spacing + 1e-9)
    while n_int * spacing > span * (1 + 1e-12):
        n_int -= 1
    tail = span - n_int * spacing
    if tail <= 1e-9 * max(span, 1.0):
        n_tail, dt_tail = 0, dt
    else:
        n_tail = math.ceil(tail / dt)
        dt_tail = tail / n_tail
    times = t0 + spacing * np.arange(n_int + 1)
    if n_tail:
        times = np.append(times, t1)
    return _Grid(t0, dt, s, n_int, n_tail, dt_tail, times, steps_per_period)


# ---------------------------------------------------------------------------
# per-step transfer matrices (vectorized over steps)
# ---------------------------------------------------------------------------


def _stage(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-i*H for H = [[w, b], [b, -w]], batched over the leading axis."""
    n = w.shape[0]
    a = np.empty((n, 2, 2), dtype=complex)
    a[:, 0, 0] = -1j * w
    a[:, 0, 1] = -1j * b
    a[:, 1, 0] = -1j * b
    a[:, 1, 1] = 1j * w
    return a


def _rk4_matrices(dt, w1, w2, w3, b1, b2, b3) -> np.ndarray:
    """Per-step RK4 transfer matrices for the linear system psi' = -iH(t)psi.

    w*/b* are the H matrix elements at the step start, midpoint and end.
    """
    a1, a2, a3 = _stage(w1, b1), _stage(w2, b2), _stage(w3, b3)
    k1 = a1
    k2 = a2 + (dt / 2) * (a2 @ k1)
    k3 = a2 + (dt / 2) * (a2 @ k2)
    k4 = a3 + dt * (a3 @ k3)
    m = (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    m[:, 0, 0] += 1.0
    m[:, 1, 1] += 1.0
    return m


def _expm_matrices(dt, w2, b2) -> np.ndarray:
    """Exact exponential exp(-i*H_mid*dt) of the midpoint Hamiltonian."""
    om = np.hypot(w2, b2)
    theta = om * dt
    cos = np.cos(theta)
    # sin(theta)/om, continuous through om = 0 where it equals dt
    safe = np.where(om > 0, om, 1.0)
    sinc = np.where(om > 0, np.sin(theta) / safe, dt)
    m = np.empty((w2.shape[0], 2, 2), dtype=complex)
    m[:, 0, 0] = cos - 1j * w2 * sinc
    m[:, 0, 1] = -1j * b2 * sinc
    m[:, 1, 0] = -1j * b2 * sinc
    m[:, 1, 1] = cos + 1j * w2 * sinc
    return m


def _step_matrices(method, dt, t0, lo, hi, w_of_t, b_of_t) -> np.ndarray:
    """Transfer matrices of steps lo..hi-1 of the uniform grid t0 + dt*j."""
    t = t0 + dt * np.arange(lo, hi)
    if method == "fixed-rk4":
        return _rk4_matrices(
            dt,
            w_of_t(t), w_of_t(t + dt / 2), w_of_t(t + dt),
            b_of_t(t), b_of_t(t + dt / 2), b_of_t(t + dt),
        )
    return _expm_matrices(dt, w_of_t(t + dt / 2), b_of_t(t + dt / 2))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched 2x2 product a @ b, written out: numpy's batched matmul is several
    times slower on stacks of 2x2 complex matrices."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _reduce(m: np.ndarray) -> np.ndarray:
    """Ordered product m[..., n-1, :, :] @ ... @ m[..., 0, :, :] by pairwise halving."""
    while m.shape[-3] > 1:
        n = m.shape[-3]
        pairs = _mul(m[..., 1:n:2, :, :], m[..., 0:n - 1:2, :, :])
        m = np.concatenate([pairs, m[..., n - 1:, :, :]], axis=-3) if n % 2 else pairs
    return m[..., 0, :, :]


def _prefix(m: np.ndarray) -> np.ndarray:
    """Inclusive ordered prefix products out[i] = m[i] @ ... @ m[0] (log-depth scan)."""
    out = m.copy()
    d = 1
    while d < out.shape[0]:
        out[d:] = _mul(out[d:], out[:-d])
        d *= 2
    return out


def _segment_products(method, dt, t0, n_seg, g, w_of_t, b_of_t):
    """Yield the products of n_seg consecutive g-step segments from t0, slab by slab.

    A slab holds at most ``_SLAB`` step matrices: whole segments when a segment
    fits, else the pieces of one segment folded into a running product.
    """
    per = _SLAB // g
    if per:
        for lo in range(0, n_seg, per):
            hi = min(lo + per, n_seg)
            m = _step_matrices(method, dt, t0, lo * g, hi * g, w_of_t, b_of_t)
            yield _reduce(m.reshape(hi - lo, g, 2, 2))
        return
    for i in range(n_seg):
        prod = _EYE
        for lo in range(i * g, (i + 1) * g, _SLAB):
            m = _step_matrices(method, dt, t0, lo, min(lo + _SLAB, (i + 1) * g), w_of_t, b_of_t)
            prod = _mul(_reduce(m), prod)
        yield prod[None]


def _propagate_sampled(grid: _Grid, w_of_t, b_of_t, psi0: np.ndarray, method: str) -> np.ndarray:
    """States at the grid's sample times for one initial state.

    Only the first ``L`` steps are integrated: one drive period when the grid
    is periodic and the sampled span is longer, else the whole span.  With
    ``g = gcd(s, L)`` the samples fall on g-step segment boundaries, so the
    prefix products ``C`` are kept only at the segment counts a sample uses;
    sample k is ``C[r] U^q psi0`` with ``q, r = divmod(k*s, L)`` and ``U`` the
    product of all L steps.
    """
    states = np.empty((grid.times.size, 2), dtype=complex)
    states[0] = psi0
    n_main = grid.n_int * grid.s
    if n_main:
        L = grid.steps_per_period if 0 < grid.steps_per_period < n_main else n_main
        g = math.gcd(grid.s, L)
        q, r = np.divmod(grid.s * np.arange(grid.n_int + 1), L)
        need = np.unique(r // g)
        prefix = np.empty((need.size, 2, 2), dtype=complex)
        prefix[0] = _EYE  # need[0] == 0: the first sample
        u, done = _EYE, 0
        for seg in _segment_products(method, grid.dt, grid.t0, L // g, g, w_of_t, b_of_t):
            chained = _mul(_prefix(seg), u)  # segment counts done+1 .. done+len(seg)
            lo = np.searchsorted(need, done + 1)
            hi = np.searchsorted(need, done + len(seg), side="right")
            prefix[lo:hi] = chained[need[lo:hi] - done - 1]
            u, done = chained[-1], done + len(seg)
        powers, p = psi0[None], u  # powers[j] = U^j psi0; p = U^len(powers)
        while powers.shape[0] <= q[-1]:
            powers = np.concatenate([powers, powers @ p.T])
            p = p @ p
        rows = prefix[np.searchsorted(need, r // g)]
        states[: grid.n_int + 1] = np.einsum("kij,kj->ki", rows, powers[q])
    if grid.n_tail:
        t_tail = grid.t0 + n_main * grid.dt
        tail = next(_segment_products(method, grid.dt_tail, t_tail, 1, grid.n_tail,
                                      w_of_t, b_of_t))
        states[-1] = tail[0] @ states[grid.n_int]
    return states


def _propagate_batch(grid: _Grid, w_of_t, b_of_t, offsets_ang: np.ndarray,
                     psi0: np.ndarray, method: str) -> np.ndarray:
    """States at sample times for a batch of members with static detuning offsets.

    Steps sequentially but vectorizes each step over the member axis; suited
    to many members over a moderate number of steps.
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


def _check_norms(states: np.ndarray, tol: float) -> None:
    norms = np.sqrt(np.sum(np.abs(states) ** 2, axis=-1))
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= tol:  # a NaN drift fails too
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds tolerance {tol:.1e}; "
            "reduce the step size instead of renormalizing"
        )


def _validate_span(p: DriveParameters, t_span):
    t0, t1 = float(t_span[0]), float(t_span[1])
    total = p.total_time_ns
    if not (0 <= t0 < t1):
        raise ValueError(f"invalid time span {t_span}")
    if t1 > total * (1 + 1e-12):
        raise ValueError(
            f"time span {t_span} exceeds the simulated window [0, {total}] ns; "
            "increase n_periods"
        )
    return t0, t1


def _detuned_hamiltonian(p: DriveParameters, offset_mhz: float):
    """Matrix elements w(t), b(t) of H = (eps(t) + offset)/2 sigma_z + delta/2 sigma_x."""
    half_gap = p.delta_ang / 2

    def w_of_t(t):
        return mhz_to_angular(epsilon_at(p, t) + offset_mhz) / 2

    def b_of_t(t):
        return np.full_like(np.asarray(t, dtype=float), half_gap)

    return w_of_t, b_of_t


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def evolve(
    p: DriveParameters,
    cfg: IntegratorConfig | None = None,
    initial: QubitState | None = None,
    t_span: tuple[float, float] | None = None,
    sample_every: float | None = None,
    epsilon_offset_mhz: float = 0.0,
) -> Trajectory:
    """Integrate H(t) = eps(t)/2 sigma_z + delta/2 sigma_x from ``initial``.

    Returns a diabatic-basis trajectory sampled roughly every ``sample_every``
    ns (the actual spacing is snapped to the integration grid; the final
    sample lands exactly on the span end).  ``epsilon_offset_mhz`` adds a
    constant to the detuning, which is how static noise and deliberate
    carrier detunings enter.
    """
    cfg = cfg or IntegratorConfig()
    initial = initial or QubitState.ket0()
    if initial.basis is not Basis.DIABATIC:
        raise ValueError("evolve expects a diabatic-basis initial state")
    t_span = _validate_span(p, t_span or (0.0, p.total_time_ns))
    off_ang = mhz_to_angular(abs(epsilon_offset_mhz))
    grid = _build_grid(p, cfg, t_span, sample_every, extra_omega_ang=off_ang)
    w_of_t, b_of_t = _detuned_hamiltonian(p, epsilon_offset_mhz)
    states = _propagate_sampled(grid, w_of_t, b_of_t, initial.as_array(), cfg.method)
    _check_norms(states, cfg.norm_drift_tolerance)
    return Trajectory(grid.times, np.abs(states) ** 2, Basis.DIABATIC, amplitudes=states)


def evolve_lab_frame_toy(
    delta_mhz: float,
    omega0_mhz: float,
    drive: DriveParameters,
    initial: QubitState | None = None,
    t_span: tuple[float, float] | None = None,
    sample_every: float | None = None,
    cfg: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate the lab-frame Hamiltonian at a reduced carrier frequency.

    H_lab(t) = omega0/2 sigma_z + delta*cos(Phi(t)) sigma_x with the drive
    phase Phi(t) = omega0*t + int_0^t eps(u) du, so the instantaneous drive
    frequency is omega0 + eps(t).  After the rotating-wave approximation this
    reduces to the rotating-frame model integrated by `evolve`, which serves
    as the comparison oracle.  Requires a toy ratio omega0/delta >= 20; a
    realistic GHz-scale carrier adds nothing but steps.
    """
    if delta_mhz < 0 or omega0_mhz <= 0:
        raise ValueError("delta_mhz must be >= 0 and omega0_mhz > 0")
    if delta_mhz > 0 and omega0_mhz / delta_mhz < 20:
        raise ValueError(
            f"omega0/delta = {omega0_mhz / delta_mhz:.1f} < 20; "
            "the rotating-wave comparison is meaningless this close to the carrier"
        )
    cfg = cfg or IntegratorConfig()
    initial = initial or QubitState.ket0()
    if initial.basis is not Basis.DIABATIC:
        raise ValueError("evolve_lab_frame_toy expects a diabatic-basis initial state")
    t_span = _validate_span(drive, t_span or (0.0, drive.total_time_ns))
    omega0_ang = mhz_to_angular(omega0_mhz)
    delta_ang = mhz_to_angular(delta_mhz)
    # the carrier phase omega0*t does not repeat with the drive period, so the
    # whole span is integrated
    grid = replace(
        _build_grid(drive, cfg, t_span, sample_every,
                    extra_omega_ang=omega0_ang + 2 * delta_ang),
        steps_per_period=0,
    )

    def w_of_t(t):
        return np.full_like(np.asarray(t, dtype=float), omega0_ang / 2)

    def b_of_t(t):
        phase = omega0_ang * np.asarray(t, dtype=float) + mhz_to_angular(
            epsilon_integral(drive, t)
        )
        return delta_ang * np.cos(phase)

    states = _propagate_sampled(grid, w_of_t, b_of_t, initial.as_array(), cfg.method)
    _check_norms(states, cfg.norm_drift_tolerance)
    return Trajectory(grid.times, np.abs(states) ** 2, Basis.DIABATIC, amplitudes=states)


def rotation_x(angle: float) -> np.ndarray:
    """Instantaneous x-rotation by ``angle`` radians (an ideal pulse)."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def evolve_ensemble_dephased(
    p: DriveParameters,
    cfg: IntegratorConfig | None = None,
    t2_star_us: float = math.inf,
    n_samples: int = 1,
    seed: int = 0,
    initial: QubitState | None = None,
    t_span: tuple[float, float] | None = None,
    sample_every: float | None = None,
    detuning_mhz: float = 0.0,
    readout_rotation: float = 0.0,
) -> Trajectory:
    """Average populations over static Gaussian detuning offsets.

    Each member sees eps(t) + detuning + delta_i with delta_i drawn from a
    zero-mean Gaussian of angular standard deviation sqrt(2)/T2* (rad/us),
    the quasi-static noise model whose free-induction envelope is the
    Gaussian exp[-(t/T2*)^2].  ``readout_rotation`` applies an instantaneous
    x-rotation (the closing pulse of a Ramsey sequence) to every member
    before populations are read off, which maps coherence into population.

    Deterministic for a fixed seed.  The returned trajectory carries averaged
    populations and no amplitudes.
    """
    cfg = cfg or IntegratorConfig()
    initial = initial or QubitState.ket0()
    if initial.basis is not Basis.DIABATIC:
        raise ValueError("ensemble evolution expects a diabatic-basis initial state")
    if not t2_star_us > 0:
        raise ValueError("t2_star_us must be positive (inf disables the noise)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    t_span = _validate_span(p, t_span or (0.0, p.total_time_ns))

    rng = np.random.default_rng(seed)
    sigma_ang_per_ns = 0.0 if math.isinf(t2_star_us) else math.sqrt(2) / t2_star_us / 1000.0
    offsets_ang = rng.normal(0.0, sigma_ang_per_ns, n_samples)
    offsets_mhz = angular_to_mhz(offsets_ang) + detuning_mhz

    readout = rotation_x(readout_rotation) if readout_rotation else None

    def member_populations(states: np.ndarray) -> np.ndarray:
        if readout is not None:
            states = states @ readout.T
        return np.abs(states) ** 2

    # one grid for every member, fine enough for the largest offset
    extra = mhz_to_angular(float(np.max(np.abs(offsets_mhz))))
    grid = _build_grid(p, cfg, t_span, sample_every, extra_omega_ang=extra)

    if n_samples <= 16:
        # few members: one periodic dense propagation per member (bit-identical
        # to evolve() for a single noiseless member)
        pops = np.zeros((grid.times.size, 2))
        for off in offsets_mhz:
            w_of_t, b_of_t = _detuned_hamiltonian(p, off)
            states = _propagate_sampled(grid, w_of_t, b_of_t, initial.as_array(), cfg.method)
            _check_norms(states, cfg.norm_drift_tolerance)
            pops += member_populations(states)
        return Trajectory(grid.times, pops / n_samples, Basis.DIABATIC)

    half_gap = p.delta_ang / 2

    def w_of_t(t):
        return mhz_to_angular(epsilon_at(p, t) + detuning_mhz) / 2

    def b_of_t(t):
        return half_gap

    # detuning_mhz lives in the shared drive term; offsets carry the noise only
    states = _propagate_batch(grid, w_of_t, b_of_t, offsets_ang, initial.as_array(), cfg.method)
    _check_norms(states, cfg.norm_drift_tolerance)
    pops = np.mean(member_populations(states), axis=0)
    return Trajectory(grid.times, pops, Basis.DIABATIC)
