"""Time-domain integration of the driven two-level Schrodinger equation.

The integrator is a fixed-step classical RK4 on the 2x2 system
``i d|psi>/dt = H(t)|psi>`` (hbar = 1, angular units).  For a linear ODE the
four RK4 stages collapse into a per-step transfer map, so propagation is a
product of 2x2 maps built vectorized over slabs of steps.  Steps are aligned
to the triangle wave's quarter-period grid so the integrand is smooth inside
every step and the method keeps its clean fourth-order convergence.

Step maps.  H = [[w, b], [b, -w]] is traceless and real-symmetric, so an RK4
step, the piecewise-exact step ``exp(-i h H_mid)`` and every product of them
is a real quaternion ``a I + c i*sigma_y - i (bx sigma_x + bz sigma_z)``
(the Cayley-Klein form of an SU(2) map that need not be exactly unitary).
A map is stored as the pair ``(p, q) = (a - i bz, c - i bx)``, meaning
``[[p, q], [-conj(q), conj(p)]]``; steps are built from closed forms in
float arithmetic and multiplied as ``(p1 p2 - q1 conj(q2), p1 q2 + q1 conj(p2))``.

Periodic kernel.  Because the drive is exactly T-periodic and the aligned
grid holds a whole number of steps per period, the step maps repeat from one
period to the next.  The kernel therefore integrates a single period: the
state at a sample ``r`` steps into period ``q`` is ``C[r] U^q psi0``, with
``C[r]`` the product of the first ``r`` steps and ``U = C[L]`` the one-period
map.  The products ``C`` are formed only at the ``r`` a sample uses, from a
tree of pairwise products over each slab of steps, so a period costs about
one product per step however the samples fall in it.  A span of at most one
period, a constant drive and the lab-frame toy (whose carrier does not
repeat with the drive) take the same code with the whole span as the
"period".

Members.  The kernel has a leading member axis: member i sees w(t) plus a
static offset of its own on a grid shared by all members.  `evolve` and
`evolve_lab_frame_toy` run one member at offset 0; the dephasing ensemble
runs its members in chunks and keeps only their summed populations.  A slab
holds at most ``_SLAB`` maps over members and steps, so memory grows with the
number of samples, not of steps or members.

Norm drift is a quality signal: it is checked against a tolerance at every
sample (of every member) and an `IntegrationError` is raised on violation.
States are never renormalized.
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

#: Most step maps held at once, counted over members and steps.  An ensemble
#: runs its members in chunks of at most ``isqrt(_SLAB)``, so a slab still
#: spans at least as many steps as a chunk has members.
_SLAB = 1 << 14


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
    # inf when the step underflows; past int64 the count cannot be indexed either
    if not span / dt_cap < 2**63:
        raise ValueError(f"{span / dt_cap:.3g} steps over {span} ns: too many to integrate")
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
    if not sample_every / dt < 2**63:
        raise ValueError(f"sample_every {sample_every} ns is {sample_every / dt:.3g} steps: too many")
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
# step maps (p, q), vectorized over (member, step); the leading axis of a map
# array holds p and q
# ---------------------------------------------------------------------------


def _identity(*shape: int) -> np.ndarray:
    out = np.zeros((2, *shape), dtype=complex)
    out[0] = 1.0
    return out


def _rk4_maps(h, w1, w2, w3, b1, b2, b3) -> np.ndarray:
    """RK4 step maps of psi' = -iH(t) psi, from H at the step start, midpoint and end.

    With A = -iH the stages multiply out to M = I + h/6 (k1 + 2 k2 + 2 k3 + k4).
    Because A2 A2 = -(w2^2 + b2^2) I is a scalar and
    Ai Aj = -(wi wj + bi bj) I - (wi bj - bi wj) i*sigma_y, M is the real
    quaternion with

        a  = 1 - h^2/6 (W + w2 (w1 + w3) + b2 (b1 + b3) - g (w1 w3 + b1 b3))
        c  = h^2/6 (b2 (w1 - w3) + w2 (b3 - b1) + g (w3 b1 - w1 b3))
        bz = h/6 ((1 - 2g) (w1 + w3) + 4 w2)
        bx = h/6 ((1 - 2g) (b1 + b3) + 4 b2)

    where W = w2^2 + b2^2 and g = h^2 W / 4.  Evaluated in place: the
    temporaries of a slab are the step count times a few doubles.
    """
    out = np.empty((2, *np.broadcast_shapes(w1.shape, b1.shape)), dtype=complex)
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


def _expm_maps(h, w, b) -> np.ndarray:
    """Exact exponential exp(-i*H_mid*h) of the midpoint Hamiltonian."""
    om = np.hypot(w, b)
    theta = om * h
    # sin(theta)/om, continuous through om = 0 where it equals h
    safe = np.where(om > 0, om, 1.0)
    sinc = np.where(om > 0, np.sin(theta) / safe, h)
    out = np.empty((2, *theta.shape), dtype=complex)
    out[0].real, out[0].imag = np.cos(theta), -w * sinc
    out[1].real, out[1].imag = 0.0, -b * sinc
    return out


def _step_maps(method, dt, t0, lo, hi, w_of_t, b_of_t, offsets) -> np.ndarray:
    """Maps (2, members, hi - lo) of steps lo..hi-1 of the uniform grid t0 + dt*j.

    Member i sees the Hamiltonian with w(t) + offsets[i].
    """
    t = t0 + dt * np.arange(lo, hi)
    col = offsets[:, None]
    if method == "fixed-rk4":
        return _rk4_maps(
            dt,
            w_of_t(t) + col, w_of_t(t + dt / 2) + col, w_of_t(t + dt) + col,
            b_of_t(t), b_of_t(t + dt / 2), b_of_t(t + dt),
        )
    return _expm_maps(dt, w_of_t(t + dt / 2) + col, b_of_t(t + dt / 2))


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched product x @ y of maps: (p1 p2 - q1 conj(q2), p1 q2 + q1 conj(p2))."""
    (p1, q1), (p2, q2) = x, y
    out = np.empty((2, *np.broadcast(p1, p2).shape), dtype=complex)
    out[0] = p1 * p2 - q1 * q2.conj()
    out[1] = p1 * q2 + q1 * p2.conj()
    return out


def _apply(x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States x @ psi for maps x and states psi (..., 2)."""
    p, q = x
    a0, a1 = psi[..., 0], psi[..., 1]
    return np.stack([p * a0 + q * a1, p.conj() * a1 - q.conj() * a0], axis=-1)


def _prefix_at(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Ordered products x[..., c-1] @ ... @ x[..., 0] over the last axis, one per count c.

    ``counts`` are in 1..n.  A tree of pairwise products (level l holds the
    products of aligned blocks of 2**l maps) costs about n products; each
    count then takes the blocks of its binary digits, highest first.
    """
    levels = [x]
    while levels[-1].shape[-1] > 1:
        y = levels[-1]
        n = y.shape[-1] // 2 * 2
        levels.append(_mul(y[..., 1:n:2], y[..., 0:n:2]))
    acc = _identity(*x.shape[1:-1], counts.size)
    start = np.zeros_like(counts)
    bits = int(np.bitwise_or.reduce(counts))
    for level in reversed(range(len(levels))):
        if bits >> level & 1:
            sel = np.flatnonzero(counts >> level & 1)
            acc[..., sel] = _mul(levels[level][..., start[sel] >> level], acc[..., sel])
            start[sel] += 1 << level
    return acc


def _products(method, dt, t0, counts, w_of_t, b_of_t, offsets) -> np.ndarray:
    """Maps (2, members, len(counts)): the product of the first c steps of the
    grid t0 + dt*j for each count c of the sorted positive ``counts``.

    Steps stream in slabs of at most ``_SLAB`` maps over all members; each
    slab's products are chained onto the product of the slabs before it.
    """
    m, n = offsets.size, int(counts[-1])
    steps = max(1, _SLAB // m)
    out = np.empty((2, m, counts.size), dtype=complex)
    done = _identity(m)
    for lo in range(0, n, steps):
        hi = min(lo + steps, n)
        x = _step_maps(method, dt, t0, lo, hi, w_of_t, b_of_t, offsets)
        a, b = np.searchsorted(counts, (lo + 1, hi + 1))  # the counts in lo+1..hi
        local = _mul(_prefix_at(x, np.append(counts[a:b] - lo, hi - lo)), done[..., None])
        out[..., a:b], done = local[..., :-1], local[..., -1]
    return out


def _propagate(grid: _Grid, w_of_t, b_of_t, offsets: np.ndarray, psi0: np.ndarray,
               method: str) -> np.ndarray:
    """States (members, samples, 2) at the grid's sample times from one initial state.

    Member i sees w(t) + offsets[i].  Only the first ``L`` steps are
    integrated: one drive period when the grid is periodic and the sampled
    span is longer, else the whole span.  Sample k is ``C[r] U^q psi0`` with
    ``q, r = divmod(k*s, L)``, ``C[r]`` the product of the first r steps and
    ``U = C[L]``; ``C[r]`` and ``U^q`` are formed only at the r and q a
    sample uses.
    """
    m = offsets.size
    states = np.empty((m, grid.times.size, 2), dtype=complex)
    states[:, 0] = psi0
    n_main = grid.n_int * grid.s
    if n_main:
        L = grid.steps_per_period if 0 < grid.steps_per_period < n_main else n_main
        q, r = np.divmod(grid.s * np.arange(grid.n_int + 1), L)
        need = np.unique(np.append(r, L))  # need[0] == 0 (the first sample), need[-1] == L
        prefix = np.concatenate(
            [_identity(m, 1), _products(method, grid.dt, grid.t0, need[1:], w_of_t, b_of_t,
                                         offsets)], axis=-1)
        # U^q for each distinct q by squaring; powers of U commute, so the
        # bits of q multiply in any order
        periods = np.unique(q)
        powers, u = _identity(m, periods.size), prefix[..., -1]
        for bit in range(int(periods[-1]).bit_length()):
            sel = np.flatnonzero(periods >> bit & 1)
            powers[..., sel] = _mul(u[..., None], powers[..., sel])
            u = _mul(u, u)
        rows = prefix[..., np.searchsorted(need, r)]
        psi = _apply(powers, psi0)[:, np.searchsorted(periods, q)]
        states[:, : grid.n_int + 1] = _apply(rows, psi)
    if grid.n_tail:
        t_tail = grid.t0 + n_main * grid.dt
        tail = _products(method, grid.dt_tail, t_tail, np.array([grid.n_tail]),
                         w_of_t, b_of_t, offsets)
        states[:, -1] = _apply(tail[..., 0], states[:, grid.n_int])
    return states


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
    states = _propagate(grid, w_of_t, b_of_t, np.zeros(1), initial.as_array(), cfg.method)[0]
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

    states = _propagate(grid, w_of_t, b_of_t, np.zeros(1), initial.as_array(), cfg.method)[0]
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

    # one grid for every member, fine enough for the largest offset
    extra = mhz_to_angular(float(np.max(np.abs(offsets_mhz))))
    grid = _build_grid(p, cfg, t_span, sample_every, extra_omega_ang=extra)
    # detuning_mhz lives in the shared drive term; the offsets carry the noise only
    w_of_t, b_of_t = _detuned_hamiltonian(p, detuning_mhz)

    def summed_populations(half_offsets):
        states = _propagate(grid, w_of_t, b_of_t, half_offsets, initial.as_array(), cfg.method)
        _check_norms(states, cfg.norm_drift_tolerance)
        if readout is not None:
            states = states @ readout.T
        return np.sum(np.abs(states) ** 2, axis=0)

    # members run in chunks; only their summed populations are kept
    chunk = math.isqrt(_SLAB)
    half_offsets = offsets_ang / 2
    pops = sum(summed_populations(half_offsets[lo:lo + chunk])
               for lo in range(0, n_samples, chunk))
    return Trajectory(grid.times, pops / n_samples, Basis.DIABATIC)
