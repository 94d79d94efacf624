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
period to the next.  The state at a sample ``r`` steps into period ``q`` is
``C[r] U^q psi0``, with ``C[r]`` the product of the first ``r`` steps and
``U = C[L]`` the one-period map.  The products ``C`` are formed only at the
``r`` a sample uses, from a tree of pairwise products over each slab of
steps, so a period costs about one product per step however the samples
fall in it.  Unless the grid mirrors (below), a span of at most one period,
a constant drive and the lab-frame toy (whose carrier does not repeat with
the drive) take the same code with the whole span as the "period".

Mirrored period.  When the grid starts on a turning point of the triangle,
the drive has two reflections over a period: ``eps(T - t) = eps(t)`` (time
reversal; H is real symmetric) and ``eps(T/2 - t) = -eps(t)``, so that
``H(T/2 - t) = sigma_x H(t) sigma_x`` (generalized parity).  Both step rules
keep them exactly, because an RK4 map obeys ``M(H1, H2, H3)^T = M(H3, H2, H1)``
and the midpoint exponential is symmetric, so every mirrored step is the
transpose of a computed one.  Only the first quarter ``Q`` is integrated;
``U(T/2) = sigma_x Q^T sigma_x Q``, ``U(T) = U(T/2)^T U(T/2)``, and every
other prefix is ``C[r] = sigma_x C[L/2 - r]^-T Q^T sigma_x Q`` on the second
quarter and ``C[r] = C[L - r]^-T U`` on the second half.  A static offset
keeps only the time reversal, so members with offsets integrate the first
half.  Other starts, a constant drive and the lab-frame toy mirror nothing
and integrate the whole period (or span).  The integrated quarter or half
is one ramp of the triangle, so the drive is evaluated only at its two
turning points: step j then has the midpoint detuning ``x0 + j dx`` and
ends ``dx/2`` either side of it, and RK4 (whose midpoint is the mean of the
step's ends) and the exact exponential are closed forms in ``x`` and ``dx``.

Members.  The kernel has a leading member axis: member i sees its own drive
plus a static offset of its own, on one grid shared by all members or on a
grid of its own (its own step, period and step count).  `evolve` runs one
member at its detuning offset, `evolve_lab_frame_toy` one at offset 0; the
dephasing average runs the nodes of a quadrature over the Gaussian offset,
plus the detuning, as members of one grid, in chunks, and keeps only their
weighted populations; `passage_transfers` runs one passage per period as
members of their own grids, in chunks.  Per-member step counts are ragged:
each member's steps are right-aligned behind identity maps, so its product
runs over the same padded count as every other's, and a slab of steps holds
only the members with real steps in it, so the work is the members' own
steps.  A slab holds at most ``_SLAB`` maps over members and steps, so
memory grows with the number of samples, not of steps or members.

Norm drift is a quality signal: it is checked against a tolerance at every
sample (of every member) and an `IntegrationError` is raised on violation.
States are never renormalized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

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

#: Most quadrature nodes of a dephasing average; past it the run is refused
#: before anything is allocated.
_MAX_NODES = 1 << 20

#: Most steps in one member's period map: one drive period, or the whole span
#: when the grid does not repeat, plus the tail.  A mirrored grid integrates a
#: quarter or half of that period (see `_propagate`), but the cap counts the
#: whole period, so the same grids are refused whatever the start.  Unmirrored,
#: the RK4 kernel runs about 4e6 steps/s per member (fig2c at 5.1e6 steps on one
#: core of a 2-vCPU Xeon), so this is about 18 min; past it the run is refused
#: before any step is taken.
_MAX_STEPS = 1 << 32

#: Most samples of one run: one member's (samples, 2) complex states then take
#: at most 1 GiB.  Past it the run is refused before the sample times are made.
_MAX_SAMPLES = 1 << 25


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
    ``noise_nodes`` is the number of quadrature nodes averaged over the
    dephasing noise (1 for a single realization).
    """

    times: np.ndarray
    populations: np.ndarray
    basis: Basis
    amplitudes: np.ndarray | None = None
    noise_nodes: int = 1

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
    mirrored: bool    # the grid starts on a turning point of the drive (see _propagate)

    def __post_init__(self):
        steps = self.main_steps + self.n_tail
        if steps > _MAX_STEPS:
            raise ValueError(f"{steps:.3g} steps per member exceed {_MAX_STEPS}; "
                             "lower steps_per_min_period or raise max_step_ns")

    @property
    def main_steps(self) -> int:
        """Steps integrated before the tail: one drive period when the grid is
        periodic and the sampled span is longer, else the whole sampled span."""
        n_main = self.n_int * self.s
        return self.steps_per_period if 0 < self.steps_per_period < n_main else n_main


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
        # eps = -eps_m or +eps_m at the start: the drive mirrors about T/4 and T/2
        turn = math.remainder(t0 + p.t_offset_ns, p.period_ns / 2)
        mirrored = abs(turn) <= 1e-12 * p.period_ns
    else:
        dt = dt_cap
        steps_per_period, mirrored = 0, False
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
    samples = n_int + 1 + (n_tail > 0)
    if samples > _MAX_SAMPLES:
        raise ValueError(f"{samples:.3g} samples exceed {_MAX_SAMPLES}; raise sample_every_ns "
                         "or shorten the span")
    times = t0 + spacing * np.arange(n_int + 1)
    if n_tail:
        times = np.append(times, t1)
    return _Grid(t0, dt, s, n_int, n_tail, dt_tail, times, steps_per_period, mirrored)


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


def _pad(maps: np.ndarray, first) -> np.ndarray:
    """``maps`` (2, members, n) of the steps first, first + 1, ... with
    identity maps in place of the negative steps, a member's front padding
    (see `_products`)."""
    if isinstance(first, np.ndarray):
        padding = first + np.arange(maps.shape[-1]) < 0
        maps[0][padding] = 1.0
        maps[1][padding] = 0.0
    return maps


def _step_maps(method, dt, t0, w_of_t, b_of_t, offsets, linear, rows, first, n) -> np.ndarray:
    """Maps (2, members, n) of the steps first..first+n-1 of each member in
    ``rows`` (an index array or a slice of the member axis), on the uniform
    grid t0 + dt*j.

    ``dt`` and ``t0`` are floats shared by every member, or (members, 1)
    arrays with a grid per member.  ``first`` is an int shared by the
    members, or a (members, 1) array of their own first steps, where the
    negative steps are identity maps (a member's padding, see `_products`).
    Member i sees the Hamiltonian with w(t) + offsets[i], where
    ``w_of_t(t, rows)`` takes the times of the members ``rows``, one row each
    or one row shared by all; ``b_of_t`` may return a scalar, a constant
    coupling.  When ``linear``, w and b are linear inside every step, so RK4
    takes its midpoint values as the mean of the step's ends and the
    Hamiltonian is evaluated once per step boundary.  `_propagate` builds a
    mirrored grid's maps with `_ramp_maps` instead, which gives the same maps
    without evaluating the drive per step.
    """
    if isinstance(dt, np.ndarray):
        dt, t0 = dt[rows], t0[rows]
    t = t0 + dt * np.maximum(first + np.arange(n + 1), 0)  # padding is built at the first time
    col = offsets[rows, None]
    if method != "fixed-rk4":
        mid = t[..., :-1] + dt / 2
        maps = _expm_maps(dt, w_of_t(mid, rows) + col, b_of_t(mid, rows))
    else:
        w, b = w_of_t(t, rows) + col, b_of_t(t, rows)
        w1, w3 = w[..., :-1], w[..., 1:]
        b1, b3 = (b, b) if np.ndim(b) == 0 else (b[..., :-1], b[..., 1:])
        if linear:
            w2, b2 = w1 + w3, (b1 + b3) / 2
            w2 /= 2
        else:
            mid = t[..., :-1] + dt / 2
            w2, b2 = w_of_t(mid, rows) + col, b_of_t(mid, rows)
        maps = _rk4_maps(dt, w1, w2, w3, b1, b2, b3)
    return _pad(maps, first)


def _ramp_maps(method, dt, x0, dx, b, rows, first, n) -> np.ndarray:
    """Maps (2, members, n) of the steps first..first+n-1 of each member in
    ``rows`` on a ramp: member i's w rises by dx[i] per step, so step j has
    the midpoint value x = x0[i] + j dx[i] and ends at x -+ e, e = dx[i]/2.
    ``x0`` and ``dx`` are (members, 1) arrays, b is the constant coupling,
    and ``dt`` and ``first`` are as in `_step_maps`.

    RK4 is `_rk4_maps` at w1, w2, w3 = x - e, x, x + e, which with
    W = x^2 + b^2 and f = 1 - h^2 W/6 multiplies out to

        p = 1 - h^2 W/2 + h^4 W (W - e^2)/24 - i h x f
        q = (h^2 e b/3)(h^2 W/4 - 1) - i h b f;

    the piecewise-exact rule is `_expm_maps` at x.
    """
    h = dt[rows] if isinstance(dt, np.ndarray) else dt
    dx = dx[rows]
    x = x0[rows] + dx * np.maximum(first + np.arange(n), 0)
    if method != "fixed-rk4":
        return _pad(_expm_maps(h, x, b), first)
    hh, e = h * h, dx / 2
    w = x * x
    w += b * b
    out = np.empty((2, *w.shape), dtype=complex)
    t = w * (-hh / 6)
    t += 1
    np.multiply(t, -h * b, out=out[1].imag)
    t *= x
    np.multiply(t, -h, out=out[0].imag)
    np.subtract(w, e * e, out=t)
    t *= hh * hh / 24
    t -= hh / 2
    t *= w
    np.add(t, 1, out=out[0].real)
    w *= hh / 4
    w -= 1
    np.multiply(w, hh * e * b / 3, out=out[1].real)
    return _pad(out, first)


def _ramp_steps(method, dt, t0, half, w_of_t, b_of_t, offsets):
    """``steps(rows, first, n)`` of the ramp from the turning point ``t0`` to
    the next, ``half`` steps of ``dt`` later (floats, or (members, 1) arrays
    with a grid per member), as `_ramp_maps`: w(t) + offsets[i] is evaluated
    at the two turning points only."""
    start = w_of_t(t0, slice(None)) + offsets[:, None]
    dx = (w_of_t(t0 + half * dt, slice(None)) + offsets[:, None] - start) / half
    return functools.partial(_ramp_maps, method, dt, start + dx / 2, dx,
                             b_of_t(t0, slice(None)))


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched product x @ y of maps: (p1 p2 - q1 conj(q2), p1 q2 + q1 conj(p2)),
    the row (p1, q1) times the rows (p2, q2) and (-conj(q2), conj(p2)) of y."""
    row = np.conj(y[::-1])
    row[0] *= -1
    out = x[0] * y
    out += x[1] * row
    return out


def _mirror(x: np.ndarray, flip: bool, inverse: bool = False) -> np.ndarray:
    """Maps x^T, or x^-T when ``inverse``, conjugated by sigma_x when ``flip``.

    In (p, q) form x^T = (p, -conj(q)), x^-T = (conj(p), conj(q))/(|p|^2 + |q|^2)
    and sigma_x x sigma_x = (conj(p), -conj(q)).
    """
    p, q = x
    if inverse:
        norm = np.abs(p) ** 2 + np.abs(q) ** 2
        p, q = p.conj() / norm, q.conj() / norm
    else:
        q = -q.conj()
    if flip:
        p, q = p.conj(), -q.conj()
    return np.stack([p, q])


def _apply(x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States x @ psi for maps x and states psi (..., 2)."""
    p, q = x
    a0, a1 = psi[..., 0], psi[..., 1]
    return np.stack([p * a0 + q * a1, p.conj() * a1 - q.conj() * a0], axis=-1)


def _prefix_at(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Maps (2, members, k): member i's ordered product x[:, i, c-1] @ ... @
    x[:, i, 0] of the maps x (2, members, n), one per count c = counts[i, j].

    ``counts`` (members, k), or one row (k,) or (1, k) shared by every
    member, are in 0..n; a count of 0 is the identity.  A tree of pairwise
    products (level l holds the products of aligned blocks of 2**l maps)
    costs about n products per member; each count then takes the blocks of
    its binary digits, highest first.
    """
    levels = [x]
    while levels[-1].shape[-1] > 1:
        y = levels[-1]
        n = y.shape[-1] // 2 * 2
        levels.append(_mul(y[..., 1:n:2], y[..., 0:n:2]))
    counts = counts.reshape(-1, counts.shape[-1])
    acc = _identity(x.shape[1], counts.shape[1])
    if counts.shape[0] == 1:  # every member takes the same blocks
        counts = counts[0]
    start = np.zeros_like(counts)
    bits = int(np.bitwise_or.reduce(counts, axis=None))
    for level in reversed(range(len(levels))):
        if bits >> level & 1:
            at = (counts >> level & 1).nonzero()
            i, j = (slice(None), *at) if counts.ndim == 1 else at
            acc[:, i, j] = _mul(levels[level][:, i, start[at] >> level], acc[:, i, j])
            start[at] += 1 << level
    return acc


def _entries(mask: np.ndarray, every) -> tuple:
    """Indices (i, j) of the true entries of ``mask`` (rows, k) in a
    (2, members, k) map array, as the block ``a[:, i, j]``.  Row i is member
    i, or one row is shared by every member and i is then ``every``: a slice,
    or the column ``arange(members)[:, None]``, with which ``b[:, i]`` of a
    (2, members) array broadcasts against the block.
    """
    if mask.shape[0] == 1:
        return every, mask[0].nonzero()[0]
    i, j = mask.nonzero()
    return i[:, None], j[:, None]


def _products(steps, m: int, counts: np.ndarray, most: int = 0) -> np.ndarray:
    """Maps (2, m, k): member i's product of its first c steps for each count
    c = counts[i, j] >= 0, where ``counts`` is (m, k), or one row shared by
    every member; ``steps(rows, first, n)`` builds maps as `_step_maps` does.

    Member i integrates its n_i = max_j counts[i, j] steps.  Members are
    right-aligned: each is padded at the front with N - n_i identity maps,
    N = max_i n_i, so every member's products run over the same N padded
    steps.  Steps stream in slabs of at most ``_SLAB`` maps, and of at most
    ``most`` steps when that is positive.  A slab holds only the members
    with real steps in it, so the work is the members' own steps, however
    ragged.  Each slab's products are chained onto the product of the slabs
    before it.
    """
    counts = counts.reshape(-1, counts.shape[-1])
    n = counts.max(axis=1)
    total = int(n.max())
    pad = total - n
    ragged = bool(pad.any())  # then counts has a row per member
    if ragged:
        counts = np.where(counts > 0, counts + pad[:, None], 0)  # the counts in padded steps
        by_pad = np.sort(pad)
    most = most if most > 0 else total
    members = np.arange(m)
    out = _identity(m, counts.shape[1])
    done = _identity(m)
    lo = 0
    while lo < total:
        hi = min(lo + max(1, min(_SLAB // m, most)), total)
        rows, first = slice(None), lo
        if ragged:
            # the widest slab whose live members, those with pad < hi, fit in _SLAB maps
            width = min(max(1, _SLAB // int(np.searchsorted(by_pad, lo, side="right"))), most)
            while True:
                hi = min(lo + width, total)
                live = int(np.searchsorted(by_pad, hi))
                if live * (hi - lo) <= _SLAB or hi == lo + 1:
                    break
                width = max(1, _SLAB // live)
            members = (pad < hi).nonzero()[0]
            rows, first = members, (lo - pad[members])[:, None]
        local = (counts[members] if ragged else counts) - lo
        inside = (local > 0) & (local <= hi - lo)  # the counts that end in this slab
        # the last column is the slab's own product
        local = np.concatenate([np.where(inside, local, 0),
                                np.full((local.shape[0], 1), hi - lo)], axis=1)
        # the slab's maps are built here, so none outlives its products
        local = _prefix_at(steps(rows, first, hi - lo), local)
        if lo:
            local = _mul(local, done[:, rows, None])
        i, j = _entries(inside, slice(None))
        out[:, members[i] if ragged else i, j] = local[:, i, j]
        done[:, rows] = local[..., -1]
        lo = hi
    return out


def _distinct_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of the integer array ``a`` (rows, k), sorted by
    the first row, then the next, and the index of each column of ``a`` among
    them (``np.unique(a, axis=1, return_inverse=True)``, without its slow
    sort of whole columns)."""
    if a.shape[0] == 1:
        distinct = np.unique(a[0])
        return distinct[None], np.searchsorted(distinct, a[0])
    order = np.lexsort(a[::-1])
    a = a[:, order]
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    new[1:] = np.any(a[:, 1:] != a[:, :-1], axis=0)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return a[:, new], inverse


def _mirrored_prefix(steps, m: int, need: np.ndarray, span, flips: tuple) -> np.ndarray:
    """Maps (2, m, k): member i's product C[r] of its first r steps for each
    count r = need[i, j] in 0..span, where ``need`` is (m, k), or (k,) shared
    by every member, and ``span`` an int, or (m, 1) with a span per member.

    Each entry of ``flips`` is a reflection of the step maps about the middle
    of ``span`` steps, then of span/2 steps, and so on: step span-1-j is the
    transpose of step j, conjugated by sigma_x when the entry is True.  Then
    ``C[span] = R(X^T) X`` with ``X = C[span/2]`` and ``R`` that conjugation
    (or none), and ``C[r] = R(C[span - r]^-T) C[span]`` past the middle, so
    only the counts up to the middle are formed, by the next reflection or,
    when none is left, by integrating ``steps``.
    """
    need = need.reshape(-1, need.shape[-1])
    if not flips:
        return _products(steps, m, need)
    half = span // 2
    if np.all(need <= half):
        return _mirrored_prefix(steps, m, need, half, flips[1:])
    upper = need > half
    inner, at = _distinct_columns(
        np.concatenate([np.where(upper, span - need, need),
                        half + np.zeros((need.shape[0], 1), dtype=need.dtype)], axis=1))
    c = _mirrored_prefix(steps, m, inner, half, flips[1:])[..., at]
    x = c[..., -1]  # C[half]
    full = _mul(_mirror(x, flips[0]), x)
    out = c[..., :-1]
    i, j = _entries(upper, np.arange(m)[:, None])
    out[:, i, j] = _mul(_mirror(out[:, i, j], flips[0], inverse=True), full[:, i])
    return out


def _propagate(grids: tuple[_Grid, ...], w_of_t, b_of_t, offsets: np.ndarray,
               psi0: np.ndarray, method: str) -> np.ndarray:
    """States (members, samples, 2) at the sample times from one initial state.

    ``grids`` holds one grid shared by every member, or one grid per member
    with its own step and drive (row i of the times ``w_of_t`` gets is member
    i's; see `_step_maps`).  Member i sees w(t) + offsets[i]; ``w_of_t`` and
    ``b_of_t`` must be the bare triangle drive when the grids mirror, and
    static offsets go in ``offsets`` (`_ramp_steps` reads w at two turning
    points and takes b as constant).  Sample k is ``C[r] U^q psi0`` with
    ``q, r = divmod(k*s, L)``, ``C[r]`` the product of the first r steps and
    ``U = C[L]``, where L is one drive period when the grid is periodic and
    mirrors or the sampled span is longer, else the whole span.  ``C[r]`` and
    ``U^q`` are formed only at the r and q a sample uses.  On a mirrored grid
    only the first quarter of the period is integrated, or the first half when
    any member carries an offset, which breaks the sigma_x reflection; the
    rest comes from `_mirrored_prefix`.

    Per-member grids must all mirror or all not.  Their samples are aligned
    at the ends: sample k of member i is its sample min(k, n_int) of the
    full intervals, and the last is every member's span end.
    """
    m = offsets.size
    g = grids[0]
    if any(x.mirrored != g.mirrored for x in grids):
        raise ValueError("per-member grids must all mirror or all not")

    def field(name):  # shared by every member, or one per member in a (members, 1) array
        if len(grids) == 1:
            return getattr(g, name)
        return np.array([[getattr(x, name)] for x in grids])

    n_int, s, dt = field("n_int"), field("s"), field("dt")
    k_max = max(x.n_int for x in grids)
    tail = any(x.n_tail for x in grids)
    states = np.empty((m, k_max + 1 + tail, 2), dtype=complex)
    states[:, 0] = psi0
    if k_max:
        flips = (False, True) if g.mirrored else ()
        if np.any(offsets):  # keeps the time reversal, breaks the sigma_x reflection
            flips = flips[:1]
        # a member with no full interval has no main steps: L = 1 keeps its divmod
        L = np.maximum(field("steps_per_period" if flips else "main_steps"), 1)
        q, r = np.divmod(s * np.minimum(np.arange(k_max + 1), n_int), L)
        q, r = np.atleast_2d(q), np.atleast_2d(r)
        if q[:, -1].any():
            r = np.concatenate([r, L + np.zeros((r.shape[0], 1), dtype=r.dtype)], axis=1)
        # need[:, 0] == 0, the first sample; C[L], when needed, is the last column
        need, r_at = _distinct_columns(r)
        if flips:
            steps = _ramp_steps(method, dt, field("t0"), L // 2, w_of_t, b_of_t, offsets)
        else:
            steps = functools.partial(_step_maps, method, dt, field("t0"), w_of_t, b_of_t,
                                      offsets, False)
        prefix = _mirrored_prefix(steps, m, need, L, flips)
        # U^q for each distinct q by squaring; powers of U commute, so the
        # bits of q multiply in any order
        periods, q_at = _distinct_columns(q)
        powers, u = _identity(m, periods.shape[1]), prefix[..., -1]
        every = np.arange(m)[:, None]
        for bit in range(int(periods.max()).bit_length()):
            i, j = _entries(periods >> bit & 1, every)
            powers[:, i, j] = _mul(u[:, i], powers[:, i, j])
            u = _mul(u, u)
        rows = prefix[..., r_at[: k_max + 1]]
        psi = _apply(powers, psi0)[:, q_at]
        states[:, : k_max + 1] = _apply(rows, psi)
    if tail:
        # the tail grows with the sample spacing; streamed in slabs of at most
        # a quarter period, it holds no more maps than the mirrored period
        t_tail = field("t0") + n_int * s * dt
        steps = functools.partial(_step_maps, method, field("dt_tail"), t_tail, w_of_t, b_of_t,
                                  offsets, False)
        counts = np.reshape(field("n_tail"), (-1, 1))
        most = min(x.steps_per_period for x in grids) // 4
        states[:, -1] = _apply(_products(steps, m, counts, most)[..., 0], states[:, k_max])
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


def _drive_hamiltonian(p: DriveParameters, periods: np.ndarray | None = None):
    """Matrix elements w(t), b of H = eps(t)/2 sigma_z + delta/2 sigma_x; b is constant.

    ``periods`` (members, 1), when given, gives member i the drive ``p`` at
    the period ``periods[i]``.  A static detuning enters the kernel as a
    member offset, not here, so the kernel can tell which of the drive's
    reflections it keeps.
    """
    half_gap = p.delta_ang / 2

    def w_of_t(t, rows=slice(None)):
        period = None if periods is None else periods[rows]
        return mhz_to_angular(epsilon_at(p, t, period)) / 2

    def b_of_t(t, rows=slice(None)):
        return half_gap

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
    w_of_t, b_of_t = _drive_hamiltonian(p)
    offset = np.array([mhz_to_angular(epsilon_offset_mhz) / 2])
    states = _propagate((grid,), w_of_t, b_of_t, offset, initial.as_array(), cfg.method)[0]
    _check_norms(states, cfg.norm_drift_tolerance)
    return Trajectory(grid.times, np.abs(states) ** 2, Basis.DIABATIC, amplitudes=states)


def passage_transfers(
    delta_mhz: float,
    epsilon_m_mhz: float,
    periods_ns,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """|0> -> |1> transfer of one passage per period, in request order.

    A passage runs from |0> at the trough (t = 0) to the apex (t = T/2),
    through one crossing.  Each period is a member of one kernel call (in
    chunks of members), on the grid `evolve` builds for that passage, so
    every step cap, both step rules and the norm check apply per member.  On
    a mirrored grid each member integrates only its own first quarter,
    whose step count grows with its period (see `_products`).
    """
    cfg = cfg or IntegratorConfig()
    drives, grids = [], []
    for T in map(float, periods_ns):  # refused at the first bad period, in order
        drives.append(DriveParameters(delta_mhz, epsilon_m_mhz, T, n_periods=1))
        grids.append(_build_grid(drives[-1], cfg, (0.0, T / 2), T / 2))
    periods = np.array([p.period_ns for p in drives])
    psi0 = QubitState.ket0().as_array()
    transfers = np.empty(periods.size)
    # members of like step counts share a chunk
    order = np.argsort(periods, kind="stable")
    chunk = math.isqrt(_SLAB)
    for lo in range(0, order.size, chunk):
        idx = order[lo:lo + chunk]
        w_of_t, b_of_t = _drive_hamiltonian(drives[0], periods[idx, None])
        states = _propagate(tuple(grids[i] for i in idx), w_of_t, b_of_t, np.zeros(idx.size),
                            psi0, cfg.method)
        _check_norms(states, cfg.norm_drift_tolerance)
        transfers[idx] = np.abs(states[:, -1, 1]) ** 2
    return transfers


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
    # the carrier phase omega0*t neither repeats with the drive period nor
    # mirrors with it, so the whole span is integrated
    grid = replace(
        _build_grid(drive, cfg, t_span, sample_every,
                    extra_omega_ang=omega0_ang + 2 * delta_ang),
        steps_per_period=0, mirrored=False,
    )

    def w_of_t(t, rows):
        return np.full_like(np.asarray(t, dtype=float), omega0_ang / 2)

    def b_of_t(t, rows):
        phase = omega0_ang * np.asarray(t, dtype=float) + mhz_to_angular(
            epsilon_integral(drive, t)
        )
        return delta_ang * np.cos(phase)

    states = _propagate((grid,), w_of_t, b_of_t, np.zeros(1), initial.as_array(), cfg.method)[0]
    _check_norms(states, cfg.norm_drift_tolerance)
    return Trajectory(grid.times, np.abs(states) ** 2, Basis.DIABATIC, amplitudes=states)


def rotation_x(angle: float) -> np.ndarray:
    """Instantaneous x-rotation by ``angle`` radians (an ideal pulse)."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _noise_nodes(spread: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_k and weights w_k (summing to 1) with sum w_k f(x_k) = E f(X), X ~ N(0, 1).

    ``spread`` is the largest rate at which f may oscillate in x: a member at
    offset sigma*x that evolves for a time t gains a phase sigma*x*t, so its
    populations are entire functions of x of exponential type sigma*t.  The
    hardest such f is the free-induction signal cos(spread*x), which both
    rules below average to about 1e-14: Gauss-Hermite with 8 + 5a + a^2/4
    nodes at spread a, or the trapezoid rule in x with Gaussian weights,
    spacing 2 pi/(a + 8) (its aliasing sits past a + 8) out to |x| = 8.5.
    The rule with fewer nodes is used: Gauss-Hermite up to about a = 4.5, the
    trapezoid above, whose count grows linearly in a (``hermegauss`` also
    overflows past about 370 nodes).  No noise (spread 0) is one node at 0.
    """
    if spread == 0:
        return np.zeros(1), np.ones(1)
    k = 8.5 * (spread + 8) / (2 * math.pi)  # trapezoid nodes on either side of 0
    if not k < _MAX_NODES / 2:
        raise ValueError(f"a noise phase spread of {spread:.3g} rad needs more than "
                         f"{_MAX_NODES} quadrature nodes; raise t2_star_us or shorten the span")
    k = math.ceil(k)
    n_hermite = math.ceil(8 + 5 * spread + spread * spread / 4)
    if n_hermite <= 2 * k + 1:
        x, w = hermegauss(n_hermite)
    else:
        x = 2 * math.pi / (spread + 8) * np.arange(-k, k + 1)
        w = np.exp(-x * x / 2)
    return x, w / w.sum()


def _dephased_populations(grid: _Grid, w_of_t, b_of_t, offsets: np.ndarray,
                          weights: np.ndarray, psi0: np.ndarray, cfg: IntegratorConfig,
                          readout: np.ndarray | None) -> np.ndarray:
    """Populations (samples, 2) summed over members with ``weights``.

    Member i sees w(t) + offsets[i]; ``readout`` (a 2x2 matrix or None) acts
    on every member before populations are read.  Members run in chunks, so
    only the summed populations outlive a chunk.
    """
    chunk = math.isqrt(_SLAB)
    pops = np.zeros((grid.times.size, 2))
    for lo in range(0, offsets.size, chunk):
        states = _propagate((grid,), w_of_t, b_of_t, offsets[lo:lo + chunk], psi0, cfg.method)
        _check_norms(states, cfg.norm_drift_tolerance)
        if readout is not None:
            states = states @ readout.T
        pops += np.tensordot(weights[lo:lo + chunk], np.abs(states) ** 2, axes=1)
    return pops


def evolve_ensemble_dephased(
    p: DriveParameters,
    cfg: IntegratorConfig | None = None,
    t2_star_us: float = math.inf,
    initial: QubitState | None = None,
    t_span: tuple[float, float] | None = None,
    sample_every: float | None = None,
    detuning_mhz: float = 0.0,
    readout_rotation: float = 0.0,
) -> Trajectory:
    """Average populations over a static Gaussian detuning offset.

    The offset delta is a zero-mean Gaussian of angular standard deviation
    sigma = sqrt(2)/T2* (rad/us), the quasi-static noise model whose
    free-induction envelope is the Gaussian exp[-(t/T2*)^2]; every member
    sees eps(t) + detuning + delta.  The average over delta is a quadrature
    (`_noise_nodes`) whose node count follows the phase spread sigma*t over
    the span, so it is deterministic and exact to about 1e-14 in the
    average itself.  T2* = inf is one member at offset 0, the same numbers
    as `evolve`.  ``readout_rotation`` applies an instantaneous x-rotation
    (the closing pulse of a Ramsey sequence) to every member before
    populations are read off, which maps coherence into population.

    The returned trajectory carries averaged populations, no amplitudes, and
    the number of nodes in ``noise_nodes``.
    """
    cfg = cfg or IntegratorConfig()
    initial = initial or QubitState.ket0()
    if initial.basis is not Basis.DIABATIC:
        raise ValueError("ensemble evolution expects a diabatic-basis initial state")
    if not t2_star_us > 0:
        raise ValueError("t2_star_us must be positive (inf disables the noise)")
    t_span = _validate_span(p, t_span or (0.0, p.total_time_ns))

    sigma_ang_per_ns = 0.0 if math.isinf(t2_star_us) else math.sqrt(2) / t2_star_us / 1000.0
    nodes, weights = _noise_nodes(sigma_ang_per_ns * (t_span[1] - t_span[0]))
    offsets_ang = sigma_ang_per_ns * nodes
    offsets_mhz = angular_to_mhz(offsets_ang) + detuning_mhz

    # one grid for every member, fine enough for the largest offset
    extra = mhz_to_angular(float(np.max(np.abs(offsets_mhz))))
    grid = _build_grid(p, cfg, t_span, sample_every, extra_omega_ang=extra)
    w_of_t, b_of_t = _drive_hamiltonian(p)
    readout = rotation_x(readout_rotation) if readout_rotation else None
    pops = _dephased_populations(grid, w_of_t, b_of_t,
                                 (offsets_ang + mhz_to_angular(detuning_mhz)) / 2, weights,
                                 initial.as_array(), cfg, readout)
    return Trajectory(grid.times, pops, Basis.DIABATIC, noise_nodes=nodes.size)
