"""Time-domain integration of the driven two-level Schrodinger equation.

The integrator is a fixed-step classical RK4 on the 2x2 system
``i d|psi>/dt = H(t)|psi>`` (hbar = 1, angular units).  For a linear ODE the
four RK4 stages collapse into a per-step transfer map, so propagation is a
product of 2x2 maps built vectorized over slabs of steps.

Step grid.  Every grid starts on the triangle's turning point ``tp`` at or
before the span start (possibly before t = 0) with a whole number of steps
per quarter period, so the kinks sit on step boundaries and RK4 keeps its
clean fourth order whatever the start.  Step j of the first half period then
lies on one ramp, with the midpoint detuning ``x0 + j dx`` and its ends
``dx/2`` either side, so RK4 and the exact exponential are closed forms in
``x`` and ``dx``; the drive is never evaluated per step.  A sample ``n + f``
steps after ``tp`` (0 <= f < 1) takes n whole steps and one partial ramp
step of ``f h``, which never crosses a kink.  The integration begins at
``tp``, so a start off a turning point also costs the steps before it (at
most a quarter period, or a half with a detuning; see `_MAX_STEPS`).  A
constant drive is a ramp with ``dx = 0`` and a period of four steps.

Step maps.  H = [[w, b], [b, -w]] is traceless and real-symmetric, so an RK4
step, the piecewise-exact step ``exp(-i h H_mid)`` and every product of them
is a real quaternion ``a I + c i*sigma_y - i (bx sigma_x + bz sigma_z)``
(the Cayley-Klein form of an SU(2) map that need not be exactly unitary).
A map is stored as the pair ``(p, q) = (a - i bz, c - i bx)``, meaning
``[[p, q], [-conj(q), conj(p)]]``; steps are built from closed forms in
float arithmetic and multiplied as ``(p1 p2 - q1 conj(q2), p1 q2 + q1 conj(p2))``.

Periodic kernel.  The drive is exactly T-periodic and the grid holds L
steps per period, so the map to a sample ``n = q L + r`` whole steps after
``tp`` is ``V = P C[r] U^q``, with ``C[r]`` the product of the first r
steps, ``U = C[L]`` and ``P`` the sample's partial step.  Its state is
``V V0^-1 psi0``, V0 the first sample's map (the identity at a start on a
turning point).  ``C`` is formed only at the distinct r the samples use,
from a tree of pairwise products over each slab of steps, so a period costs
about one product per step however the samples fall in it: one gather takes
the tree's blocks that the binary digits of every r select, and pairwise
products halve them to ``C[r]`` (`_prefix_at`).  ``U^q`` comes in closed
form from U's angle and norm (`_powers`), for every q at once.

Mirrored period.  From a turning point the drive has two reflections over a
period: ``eps(T - t) = eps(t)`` (time reversal; H is real symmetric) and
``eps(T/2 - t) = -eps(t)``, so that ``H(T/2 - t) = sigma_x H(t) sigma_x``
(generalized parity).  Both step rules keep them exactly, because an RK4 map
obeys ``M(H1, H2, H3)^T = M(H3, H2, H1)`` and the midpoint exponential is
symmetric, so every mirrored step is the transpose of a computed one.  Only
the first quarter ``Q`` is integrated; ``U(T/2) = sigma_x Q^T sigma_x Q``,
``U(T) = U(T/2)^T U(T/2)``, and every other prefix is
``C[r] = sigma_x C[L/2 - r]^-T Q^T sigma_x Q`` on the second quarter and
``C[r] = C[L - r]^-T U`` on the second half.  A static offset d keeps the
time reversal, and the parity maps it onto -d: ``H_d(T/2 - t) = sigma_x
H_-d(t) sigma_x``, so members whose offsets pair off +-d on one grid (the
nodes of a noise quadrature) still integrate only the first quarter, each
reading its mirrored factors from its partner's: ``C_d[r] = sigma_x
C_-d[L/2 - r]^-T Q_-d^T sigma_x Q_d`` (`_partners`).  Only a detuning, or
offsets that are not symmetric, leave the time reversal alone, and then the
members integrate the first half.

Members.  The kernel has a leading member axis: member i sees its own ramp
plus a static offset of its own, on one grid shared by all members or on a
grid of its own (its own step, ramp, period and samples); the coupling b is
one number for every member and time.  One loop (`_member_states`) feeds
members to the kernel in chunks and checks their norms.  The dephasing
average runs the nodes of a quadrature over the Gaussian offset, plus the
detuning, as members of one grid and keeps only their weighted populations;
`evolve` is its one-node case, whose member's states are the amplitudes.
`passage_transfers` runs a passage per period, each on its own grid.  Step
counts are ragged: every member starts at step 0, and a slab of steps holds
only the members that have steps left, so the work is about the members'
own steps.  A member on a grid of its own needs only the product of all of
its steps (a passage needs its whole first quarter), so its slab is reduced
without gathering any prefix: the maps past its last step are set to the
identity, which multiplies exactly, levels of pairwise products reduce each
slab to its product, and the slabs' products are chained; every slab is
built and halved in one workspace of the call, so slabs allocate no maps.  A
slab holds at most ``_SLAB`` maps over members and steps, so memory grows
with the number of samples, not of steps or members.

Norm drift is a quality signal: it is checked against a tolerance at every
sample (of every member) and an `IntegrationError` is raised on violation.
States are never renormalized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError
from .model import (
    Basis,
    DriveParameters,
    QubitState,
    _drive_phase,
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

#: Most steps one member's kernel may integrate: those from its grid's turning
#: point to the span end, or of one drive period when that is shorter.  The
#: kernel integrates no more (a quarter or a half period once a sample passes
#: the quarter, a step or two of a constant drive), so the cap bounds each run's
#: work; a start off a turning point counts the steps from the turning point
#: before it, where its integration begins.  The RK4 kernel integrates about
#: 2e7 steps/s (one member's quarter of 1e6 steps, or the 2.5e5 quarter steps
#: of the benchmark's 120 passages, on one core of a 2-vCPU Xeon), so 2**32
#: steps would take about 4 min; past it the run is refused before any step
#: is taken.
_MAX_STEPS = 1 << 32

#: Most samples of one run: one member's (samples, 2) complex states then take
#: at most 1 GiB.  With the maps gathered per sample and their temporaries, a
#: run peaks at about 210 bytes per sample and member (tracemalloc: 193 for
#: fig3a's 256201 or 320501 samples a step apart, on or off a turning point,
#: 212 for 40001 samples on turning points), about 6.6 GiB at the cap.  Past
#: it the run is refused before the sample times are made.
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
    """Steps of ``h`` from the drive's turning point ``tp``, ``L`` of them to
    a drive period.  Step j < L/2 has the midpoint value ``x0 + j dx`` of
    w = eps/2 (angular units), and step L-1-j is its time reversal.  Sample k
    lies ``n[:, k] + f[:, k]`` steps after ``tp``, with 0 <= f < 1.

    ``tp``, ``h``, ``L``, ``x0`` and ``dx`` are numbers shared by every
    member, or (members, 1) arrays with a grid per member; ``n``, ``f`` and
    the sample ``times`` have one row shared by every member, or a row each.
    """

    tp: float | np.ndarray
    h: float | np.ndarray
    L: int | np.ndarray
    x0: float | np.ndarray
    dx: float | np.ndarray
    n: np.ndarray
    f: np.ndarray
    times: np.ndarray


def _build_grid(
    p: DriveParameters,
    cfg: IntegratorConfig,
    t_span: tuple,
    sample_every: float | np.ndarray | None,
    extra_omega_ang: float = 0.0,
    periods: np.ndarray | None = None,
) -> _Grid:
    """The grid of the drive ``p`` over ``t_span``, sampled about every
    ``sample_every`` ns (span/1000 when None), the last sample on the span
    end.

    ``periods`` (members, 1) gives each member a grid of its own, for ``p``
    with that period; the span ends and ``sample_every`` are then numbers or
    arrays broadcasting against it, and a member with fewer samples than
    another repeats its last.  Every count is checked per member before the
    samples are laid out, and the first member refused, in member order,
    gets the message its drive alone would get.
    """
    T = p.period_ns if periods is None else periods
    t0, t1 = t_span
    omega_max = math.hypot(p.epsilon_m_ang + extra_omega_ang, p.delta_ang)
    limit = 2 * math.pi / omega_max if omega_max > 0 else math.inf
    dt_cap = np.minimum(T, limit) / cfg.steps_per_min_period
    if cfg.max_step_ns is not None:
        dt_cap = np.minimum(dt_cap, cfg.max_step_ns)
    ramp = p.epsilon_m_mhz > 0
    with np.errstate(all="ignore"):  # a bad input's counts are inf or NaN, refused below
        # a ramp's step h divides the quarter period, so the drive's kinks sit
        # on step boundaries; a constant drive steps at the ceiling and takes
        # four steps as its period
        per_quarter = np.ceil(T / 4 / dt_cap)
        h, L = (T / 4 / per_quarter, 4 * per_quarter) if ramp else (dt_cap, 4)
        span = t1 - t0
        if sample_every is None:
            sample_every = span / 1000
        # s whole steps per sample interval, n_int whole intervals in the
        # span, and a partial one at its end when ``tail``
        s = np.maximum(1, np.round(sample_every / h))
        spacing = s * h
        n_int = np.floor(span / spacing + 1e-9)
        n_int -= n_int * spacing > span * (1 + 1e-12)
        tail = span - n_int * spacing > 1e-9 * np.maximum(span, 1.0)
        samples = n_int + 1 + tail
        # the turning point tp at or before t0 (t0 itself within rounding)
        j, phase = _drive_phase(T, p.t_offset_ns, t0)
        after = T / 2 - phase <= 1e-12 * T  # t0 is the next turning point
        phase *= ramp & (phase > 1e-12 * T) & ~after
        tp = t0 - phase
        # the kernel integrates no step past the span end, nor past one period
        steps = np.minimum(t1 - tp, T) / h
        most, per_sample = span / dt_cap, sample_every / h
        checks = (
            (span > 0, lambda v: f"invalid time span {(float(v(t0)), float(v(t1)))}"),
            # inf when the step underflows; past int64 the count cannot be indexed either
            (most < 2**63,
             lambda v: f"{v(most):.3g} steps over {v(span)} ns: too many to integrate"),
            (sample_every > 0, lambda v: "sample_every must be positive"),
            (per_sample < 2**63,
             lambda v: f"sample_every {v(sample_every)} ns is {v(per_sample):.3g} steps: too many"),
            (samples <= _MAX_SAMPLES,
             lambda v: f"{v(samples):.3g} samples exceed {_MAX_SAMPLES}; raise sample_every_ns "
                       "or shorten the span"),
            (steps <= _MAX_STEPS,
             lambda v: f"{v(steps):.3g} steps per member exceed {_MAX_STEPS}; "
                       "lower steps_per_min_period or raise max_step_ns"),
        )
    bad = ~functools.reduce(np.logical_and, (ok for ok, _ in checks))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)

        def v(x):  # the first refused member's value
            return np.broadcast_to(x, bad.shape)[i]

        replace(p, period_ns=float(v(T)))  # a period no drive may have is refused as such
        raise ValueError(next(message(v) for ok, message in checks if not v(ok)))
    # w is -eps_m/2 at a trough (an even turning point), +eps_m/2 at an apex
    start = -p.epsilon_m_ang / 2 * (-1.0) ** (j + after)
    L = L.astype(np.int64) if isinstance(L, np.ndarray) else int(L)
    dx = -2 * start / (L // 2)
    # every column past a member's samples repeats its last
    k = np.minimum(np.arange(int(np.max(samples))), samples - 1)
    end = tail & (k == samples - 1)
    n, f = np.divmod(phase / h, 1.0)
    n_end, f_end = np.divmod((t1 - tp) / h, 1.0)
    n = np.atleast_2d(np.where(end, n_end, n + s * k)).astype(np.int64)
    f = np.atleast_2d(np.where(end, f_end, f))
    return _Grid(tp, h, L, start + dx / 2, dx, n, f, np.where(end, t1, t0 + s * h * k))


# ---------------------------------------------------------------------------
# step maps (p, q), vectorized over (member, step); the leading axis of a map
# array holds p and q
# ---------------------------------------------------------------------------


def _identity(*shape: int) -> np.ndarray:
    out = np.zeros((2, *shape), dtype=complex)
    out[0] = 1.0
    return out


def _expm_maps(h, w, b, out=None) -> np.ndarray:
    """Exact exponential exp(-i*H_mid*h) of the midpoint Hamiltonian, into
    ``out`` when given."""
    om = np.hypot(w, b)
    theta = om * h
    # sin(theta)/om, continuous through om = 0 where it equals h
    safe = np.where(om > 0, om, 1.0)
    sinc = np.where(om > 0, np.sin(theta) / safe, h)
    out = np.empty((2, *theta.shape), dtype=complex) if out is None else out
    out[0].real, out[0].imag = np.cos(theta), -w * sinc
    out[1].real, out[1].imag = 0.0, -b * sinc
    return out


def _ramp_map(method, h, x, dx, b, out=None) -> np.ndarray:
    """Maps of steps of length h over which w rises by dx through the
    midpoint value x, with the constant coupling b (arrays broadcasting
    against x's shape).

    RK4 takes H at the step's ends and midpoint, w1, w2, w3 = x - e, x, x + e
    with e = dx/2.  Its stages multiply out to a real quaternion which, with
    W = x^2 + b^2 and f = 1 - h^2 W/6, is

        p = 1 - h^2 W/2 + h^4 W (W - e^2)/24 - i h x f
        q = (h^2 e b/3)(h^2 W/4 - 1) - i h b f;

    the piecewise-exact rule is `_expm_maps` at x.  Evaluated in place, into
    ``out`` when given: the temporaries of a slab are the step count times a
    few doubles.
    """
    if method != "fixed-rk4":
        return _expm_maps(h, x, b, out)
    hh, e = h * h, dx / 2
    w = x * x
    w += b * b
    out = np.empty((2, *w.shape), dtype=complex) if out is None else out
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
    return out


def _ramp_maps(method, h, x0, dx, b, rows: np.ndarray, first: int, n: int,
               out=None) -> np.ndarray:
    """Maps (2, rows, n) of the steps first..first+n-1 of the first half
    period of each member in ``rows`` (an index array of the member axis),
    into ``out`` when given: step j of member i has the midpoint value
    x0[i] + j dx.

    ``x0`` is a (members, 1) array; ``h`` and ``dx`` are numbers shared by
    every member, or (members, 1) arrays.
    """
    h, dx = (v[rows] if isinstance(v, np.ndarray) else v for v in (h, dx))
    return _ramp_map(method, h, x0[rows] + dx * (first + np.arange(n)), dx, b, out)


def _partial_maps(method, grid: _Grid, x0: np.ndarray, b, r: np.ndarray,
                  f: np.ndarray) -> np.ndarray:
    """Maps (2, members, k) of the first fraction f of step r of a period,
    for the members' ramps ``x0`` (members, 1); ``r`` and ``f`` are (members,
    k) or one row shared by every member.  Step r of the second half is the
    time reversal of step L-1-r."""
    falling = r >= grid.L // 2
    dx = np.where(falling, -grid.dx, grid.dx)
    mid = x0 + grid.dx * np.where(falling, grid.L - 1 - r, r)
    return _ramp_map(method, f * grid.h, mid - (1 - f) * dx / 2, f * dx, b)


def _mul(x: np.ndarray, y: np.ndarray, out=None, t=None) -> np.ndarray:
    """Batched product x @ y of maps: (p1 p2 - q1 conj(q2), p1 q2 + q1 conj(p2)),
    the row (p1, q1) times the rows (p2, q2) and (-conj(q2), conj(p2)) of y,
    into ``out`` when given.  Its one temporary, ``t`` when given, is half
    the size of the product."""
    out = x[0] * y if out is None else np.multiply(x[0], y, out=out)
    t = np.conjugate(y[1], out=np.empty_like(out[0]) if t is None else t)
    out[0] -= np.multiply(x[1], t, out=t)
    out[1] += np.multiply(x[1], np.conjugate(y[0], out=t), out=t)
    return out


def _polar(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, a, s) of maps x = r (cos a I + sin a B), B^2 = -I: s = sqrt(Im p^2
    + |q|^2) is the size of the traceless part, r = hypot(Re p, s) (r^2 =
    |p|^2 + |q|^2 is the determinant) and a = atan2(s, Re p) in [0, pi]."""
    p, q = x
    s = np.sqrt(p.imag ** 2 + q.real ** 2 + q.imag ** 2)
    return np.hypot(p.real, s), np.arctan2(s, p.real), s


def _powers(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Maps x^k for maps x and integers k >= 0 broadcasting against them:
    with x = r (cos a I + sin a B) (`_polar`), (r^k cos ka + i Im p c, q c),
    c = r^k sin(ka)/s.  r^k keeps the norm growth of a map that is not quite
    unitary (RK4's), so the norm check still sees it.  c tends to k r^(k-1) as
    s -> 0, and at s = 0 multiplies Im p = q = 0: any finite c gives +-r^k I."""
    r, a, s = _polar(x)
    rk, ka = r ** k, k * a
    c = rk * np.sin(ka) / np.where(s > 0, s, 1.0)
    return np.stack([rk * np.cos(ka) + 1j * x[0].imag * c, x[1] * c])


def _mirror(x: np.ndarray, flip: bool, inverse: bool = False) -> np.ndarray:
    """Maps x^T, or x^-T when ``inverse``, conjugated by sigma_x when ``flip``.

    In (p, q) form x^T = (p, -conj(q)), x^-T = (conj(p), conj(q))/(|p|^2 + |q|^2)
    and sigma_x x sigma_x = (conj(p), -conj(q)): p is conjugated when one of
    the two applies, q's real part changes sign when both or neither apply,
    and its imaginary part when ``flip``.
    """
    y = np.conjugate(x) if inverse != flip else x.copy()
    if inverse == flip:
        np.negative(y[1].real, out=y[1].real)
    if flip:
        np.negative(y[1].imag, out=y[1].imag)
    if inverse:
        y /= np.abs(x[0]) ** 2 + np.abs(x[1]) ** 2
    return y


def _apply(x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States x @ psi for maps x and states psi (..., 2)."""
    p, q = x
    a0, a1 = psi[..., 0], psi[..., 1]
    return np.stack([p * a0 + q * a1, p.conj() * a1 - q.conj() * a0], axis=-1)


def _prefix_at(tree: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Maps (2, members, k): member i's ordered product x[:, i, c-1] @ ... @
    x[:, i, 0] of the maps x (2, members, n) held in the first half of
    ``tree`` (2, members, 2n), one per count c = counts[j], a row (k,) of
    counts in 0..n shared by every member, in any order and with repeats; a
    count of 0 is the identity.

    The second half of ``tree`` is overwritten by the levels of pairwise
    products over x (level l, from column at[l], holds the products of
    aligned blocks of 2**l maps; x is level 0), which cost about n products
    per member, and an identity column.  Count c's product is that of the
    blocks its binary digits select: at level l, when digit l is set, the
    block (c >> l) - 1, the latest steps at the lowest level.  One gather
    takes every count's block at every level, (2, members, levels, k) maps
    with the identity standing in for each digit that is not set (it
    multiplies exactly), and pairwise products halve the digit axis, an odd
    one left over joining the last pair.  The number of numpy calls follows
    the tree's depth, not the depth times the number of digits set.
    """
    n = tree.shape[-1] // 2
    depth = n.bit_length()
    at = np.cumsum([0] + [n >> level for level in range(depth)])  # at[-1]: the identity
    tree[0, :, at[-1]], tree[1, :, at[-1]] = 1.0, 0.0
    for level in range(1, depth):
        y = tree[..., at[level - 1]:at[level - 1] + 2 * (n >> level)]
        _mul(y[..., 1::2], y[..., 0::2], tree[..., at[level]:at[level + 1]])
    blocks = counts >> np.arange(depth)[:, None]
    g = np.take(tree, np.where(blocks & 1, blocks + (at[:-1, None] - 1), at[-1]), axis=-1)
    while g.shape[-2] > 1:
        half = g.shape[-2] // 2 * 2
        y = _mul(g[..., 0:half:2, :], g[..., 1:half:2, :])
        if half < g.shape[-2]:  # an odd digit left over joins the last pair
            y[..., -1, :] = _mul(y[..., -1, :], g[..., -1, :])
        g = y
    return g[..., 0, :]


def _products(steps, m: int, counts: np.ndarray) -> np.ndarray:
    """Maps (2, m, k): member i's product of its first c steps for each count
    c = counts[i, j] >= 0, where ``counts`` is (m, k), or one row shared by
    every member; ``steps(rows, first, n, out)`` builds maps into ``out`` as
    `_ramp_maps` does.

    Member i integrates its n_i = max_j counts[i, j] steps, from step 0 as
    every member does.  Steps stream in slabs: the slab [lo, hi) holds the
    members with n_i > lo, ``rows``, over ``_SLAB // rows.size`` steps, so it
    holds at most ``_SLAB`` maps (members only drop out as lo grows) and
    nearly as many in every slab.  The work is the members' own steps,
    however ragged, plus the steps past n_i of the slab a member ends in,
    which are built and never used.  Each slab's product is chained onto
    the product of the slabs before it, ``done``.

    One shared row of counts takes the prefixes that end in a slab from
    `_prefix_at`, each distinct count once, so the maps it gathers per count
    are bounded by a slab's.  Every slab's maps are built into the first
    half of one buffer of the call, whose second half takes their tree, so
    no slab allocates maps: maps and levels allocated apiece had their pages
    faulted in again on every call (about 250 minor faults a request for the
    benchmark's dephasing average of 9 members in two slabs).  Counts of a
    member's own must each be 0 or n_i (a grid per member sampled at
    anything else is refused), so they need no prefix: the maps past each
    member's last step are set to the identity, which multiplies exactly,
    and levels of pairwise products reduce the slab to its product, an odd
    map left over at a level joining the last pair.  Every member's product is then read off ``done``.  The maps and
    the levels they halve to are written, in turn, into two buffers of one
    workspace allocated per call (1.75 slabs of maps with `_mul`'s
    temporary), so a slab allocates only a few doubles a step of ramp
    temporaries.  Maps allocated and freed per slab made a call's time depend
    on the heap's layout: where freeing them left the heap's free top past
    the allocator's trim threshold, their pages were returned and faulted in
    again in every slab (about 1500 minor faults and a fifth more time for
    the benchmark's 120 passages, or none).
    """
    counts = counts.reshape(-1, counts.shape[-1])
    own = counts.shape[0] > 1
    if not own:
        counts, back = _distinct_columns(counts)
    n = counts.max(axis=1)
    if own and np.any((counts != 0) & (counts != n[:, None])):
        raise ValueError("a grid per member is sampled only where each member needs none "
                         "or all of its quarter (or half) period, as on turning points")
    n = np.broadcast_to(n, m)
    total = int(n.max())
    out = _identity(m, counts.shape[1])
    done = _identity(m)
    if own:  # two buffers for a slab's maps and its levels, and one for _mul's temporary
        cap = max(_SLAB, m)
        work = np.empty(7 * cap // 2, dtype=complex)
        slabs, temp = (work[:2 * cap], work[2 * cap:3 * cap]), work[3 * cap:]

        def view(buf, *shape):
            return buf[:math.prod(shape)].reshape(shape)
    else:  # a slab's maps, then their tree
        work = np.empty((2, m, 2 * min(total, max(1, _SLAB // m))), dtype=complex)
    lo = 0
    while lo < total:
        rows = (n > lo).nonzero()[0]
        hi = min(lo + max(1, _SLAB // rows.size), total)
        # the slab's maps are built here, so none outlives its products
        if own:
            x = steps(rows, lo, hi - lo, view(slabs[0], 2, rows.size, hi - lo))
            past = np.arange(lo, hi) >= n[rows, None]
            x[0][past], x[1][past] = 1.0, 0.0
            level = 0
            while x.shape[-1] > 1:
                k = x.shape[-1] // 2 * 2
                level += 1
                y = _mul(x[..., 1:k:2], x[..., 0:k:2], view(slabs[level % 2], 2, rows.size, k // 2),
                         view(temp, rows.size, k // 2))
                if k < x.shape[-1]:
                    y[..., -1] = _mul(x[..., -1], y[..., -1])
                x = y
            done[:, rows] = _mul(x[..., 0], done[:, rows])
        else:
            steps(rows, lo, hi - lo, work[..., :hi - lo])
            local = counts[0] - lo
            j = ((local > 0) & (local <= hi - lo)).nonzero()[0]  # the counts that end in this slab
            # the last column is the slab's own product
            local = _prefix_at(work[..., :2 * (hi - lo)], np.append(local[j], hi - lo))
            if lo:
                local = _mul(local, done[..., None])
            out[..., j] = local[..., :-1]
            done[:] = local[..., -1]
        lo = hi
    return np.where(counts > 0, done[..., None], out) if own else out[..., back]


def _distinct_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of the integer array ``a`` (rows, k), sorted by
    the first row, then the next, and the index of each column of ``a`` among
    them (``np.unique(a, axis=1, return_inverse=True)``): the columns are
    sorted and each one unlike its left neighbour starts a new distinct one.
    This costs neither ``np.unique``'s sort of whole columns nor, for one
    row, its hash table."""
    order = np.lexsort(a[::-1])
    a = a[:, order]
    new = np.empty(order.size, dtype=bool)
    new[0] = True
    np.any(a[:, 1:] != a[:, :-1], axis=0, out=new[1:])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return a[:, new], inverse


def _mirrored_prefix(steps, m: int, need: np.ndarray, span, flips: tuple,
                     partner=slice(None)) -> np.ndarray:
    """Maps (2, m, k): member i's product C[r] of its first r steps for each
    count r = need[i, j] in 0..span, where ``need`` is (m, k), or (k,) shared
    by every member, and ``span`` an int, or (m, 1) with a span per member.

    Each entry of ``flips`` is a reflection of the step maps about the middle
    of ``span`` steps, then of span/2 steps, and so on: step span-1-j is the
    transpose of step j, conjugated by sigma_x when the entry is True.  Then
    ``C[span] = R(X^T) X`` with ``X = C[span/2]`` and ``R`` that conjugation
    (or none), and ``C[r] = R(C[span - r]^-T) C[span]`` past the middle, so
    only the counts up to the middle are formed, by the next reflection or,
    when none is left, by integrating ``steps``.  A sigma_x reflection maps
    member i's steps onto those of member ``partner[i]`` (an index array, or
    the default slice for every member its own partner), whose X and
    ``C[span - r]`` it reads: ``C_i[span] = R(X_p^T) X_i``.  A member's
    partner must need the same counts, as when ``need`` is one shared row.
    """
    need = need.reshape(-1, need.shape[-1])
    if not flips:
        return _products(steps, m, need)
    half = span // 2
    if np.all(need <= half):
        return _mirrored_prefix(steps, m, need, half, flips[1:], partner)
    upper = need > half
    c = _mirrored_prefix(steps, m, np.concatenate(
        [np.where(upper, span - need, need), half + np.zeros((need.shape[0], 1), dtype=need.dtype)],
        axis=1), half, flips[1:], partner)
    mirrored = c[:, partner] if flips[0] else c
    full = _mul(_mirror(mirrored[..., -1], flips[0]), c[..., -1])  # from C[half]
    out = c[..., :-1]
    np.copyto(out, _mul(_mirror(mirrored[..., :-1], flips[0], inverse=True), full[..., None]),
              where=upper)
    return out


def _partners(grid: _Grid, offsets: np.ndarray):
    """The member whose steps are each member's sigma_x mirror image, for
    `_mirrored_prefix`, or None when the reflection does not hold.

    Without an offset ``H(T/2 - t) = sigma_x H(t) sigma_x``, and every member
    is its own partner.  With offsets ``sigma_x H_d(t) sigma_x = H_-d(T/2 - t)``
    maps the member at offset d onto the one at -d, so members on one grid
    whose sorted offsets equal their negated reverse (a noise quadrature
    without a detuning) pair off, a member at 0 with itself.  A detuning, or
    offsets that are not symmetric, leave only the time reversal.
    """
    if not np.any(offsets):
        return slice(None)
    if np.ndim(grid.h) == 0:
        order = np.argsort(offsets, kind="stable")
        if np.array_equal(offsets[order], -offsets[order[::-1]]):
            partner = np.empty_like(order)
            partner[order] = order[::-1]
            return partner
    return None


def _propagate(grid: _Grid, b: float, offsets: np.ndarray, psi0: np.ndarray,
               method: str) -> np.ndarray:
    """States (members, samples, 2) at the grid's samples, from ``psi0`` at
    the first, as ``P C[r] U^q V0^-1 psi0`` (see the module docstring).

    Member i sees its ramp plus offsets[i] and the constant coupling b.
    ``C[r]`` and ``U^q`` are formed only at the r and q a sample uses, from
    the first quarter of the period, its second quarter the sigma_x mirror
    of the first quarter of the member at the opposite offset (every member
    its own partner without offsets); offsets that do not pair off +-d on a
    shared grid (a detuning) break that reflection, and the first half is
    integrated.
    """
    m = offsets.size
    x0 = grid.x0 + offsets[:, None]
    partner = _partners(grid, offsets)
    flips = (False,) if partner is None else (False, True)
    q, r = np.divmod(grid.n, grid.L)
    # P C[r] is formed once per distinct (r, f), and P only where some f > 0
    ends, end_at = _distinct_columns(np.concatenate([r, grid.f.view(np.int64)]))
    r, f = ends[:len(ends) // 2], ends[len(ends) // 2:].view(float)
    k = r.shape[1]
    # C[L], when needed, is the last column
    if q.any():
        r = np.concatenate([r, grid.L + np.zeros((r.shape[0], 1), dtype=r.dtype)], axis=1)
    steps = functools.partial(_ramp_maps, method, grid.h, x0, grid.dx, b)
    prefix = _mirrored_prefix(steps, m, r, grid.L, flips, partner)
    # U^q for each distinct q in closed form; with no q > 0 the last column
    # is no C[L], but its zeroth power is still the identity
    periods, q_at = _distinct_columns(q)
    powers = _powers(prefix[..., -1, None], periods)
    rows = prefix[..., :k]
    at = (f > 0).any(axis=0).nonzero()[0]
    rows[..., at] = _mul(_partial_maps(method, grid, x0, b, r[:, at], f[:, at]), rows[..., at])
    rows = rows[..., end_at]
    p0, q0 = _mul(rows[..., 0], powers[..., q_at[0]])  # V0
    psi = _apply(np.stack([p0.conj(), -q0]) / (np.abs(p0) ** 2 + np.abs(q0) ** 2), psi0)
    return _apply(rows, _apply(powers, psi[:, None])[:, q_at])


def _check_norms(states: np.ndarray, tol: float) -> None:
    norms = np.sqrt(np.sum(np.abs(states) ** 2, axis=-1))
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= tol:  # a NaN drift fails too
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds tolerance {tol:.1e}; "
            "reduce the step size instead of renormalizing"
        )


def _member_states(grid: _Grid, b: float, offsets: np.ndarray, psi0: np.ndarray,
                   cfg: IntegratorConfig, order: np.ndarray):
    """Yield (idx, states (chunk, samples, 2)), norm checked, for the members
    ``order`` (an index array) in chunks of at most ``isqrt(_SLAB)``; member
    i sees the grid's ramp plus offsets[i], on the grid's row i when it has
    a row per member.  Only what the caller keeps of a chunk outlives it."""
    chunk = math.isqrt(_SLAB)
    for lo in range(0, order.size, chunk):
        idx = order[lo:lo + chunk]
        rows = grid if np.ndim(grid.h) == 0 else _Grid(
            *(v[idx] if isinstance(v, np.ndarray) else v for v in vars(grid).values()))
        states = _propagate(rows, b, offsets[idx], psi0, cfg.method)
        _check_norms(states, cfg.norm_drift_tolerance)
        yield idx, states


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
    carrier detunings enter.  This is the one-node case of the dephasing
    average (T2* = inf), whose one member's states are the amplitudes.
    """
    times, pops, states, _ = _dephased(p, cfg, math.inf, initial, t_span, sample_every,
                                       epsilon_offset_mhz, 0.0)
    return Trajectory(times, pops, Basis.DIABATIC, amplitudes=states[0])


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
    every step cap, both step rules and the norm check apply per member.
    Each member integrates only its own first quarter, whose step count
    grows with its period (see `_products`).
    """
    cfg = cfg or IntegratorConfig()
    periods = np.fromiter(map(float, periods_ns), dtype=float)
    if not periods.size:
        return periods
    # the drive, with the first period, then every period, refused as `evolve` refuses them
    p = DriveParameters(delta_mhz, epsilon_m_mhz, periods[0])
    T = periods[:, None]
    grid = _build_grid(p, cfg, (0.0, T / 2), T / 2, periods=T)
    transfers = np.empty(periods.size)
    # members of like step counts share a chunk
    for idx, states in _member_states(grid, p.delta_ang / 2, np.zeros(periods.size),
                                      QubitState.ket0().as_array(), cfg,
                                      np.argsort(periods, kind="stable")):
        transfers[idx] = np.abs(states[:, -1, 1]) ** 2
    return transfers


def rotation_x(angle) -> np.ndarray:
    """Instantaneous x-rotations exp(-i angle/2 sigma_x) (ideal pulses) as
    maps (cos(angle/2), -i sin(angle/2)), for an angle or an array of them."""
    half = np.asarray(angle, dtype=float) / 2
    return np.stack([np.cos(half) + 0j, -1j * np.sin(half)])


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
        return _hermite_rule(n_hermite)
    x = 2 * math.pi / (spread + 8) * np.arange(-k, k + 1)
    w = np.exp(-x * x / 2)
    return x, w / w.sum()


@functools.cache
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Hermite rule of `_noise_nodes`, read-only, built once
    per node count (`_noise_nodes` uses 9 to 37 nodes)."""
    # only dephasing averages pay the import of the numpy.polynomial package
    from numpy.polynomial.hermite_e import hermegauss
    x, w = hermegauss(n)
    w = w / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    times, pops, _, nodes = _dephased(p, cfg, t2_star_us, initial, t_span, sample_every,
                                      detuning_mhz, readout_rotation)
    return Trajectory(times, pops, Basis.DIABATIC, noise_nodes=nodes)


def _dephased(p: DriveParameters, cfg: IntegratorConfig | None, t2_star_us: float,
              initial: QubitState | None, t_span, sample_every, detuning_mhz: float,
              readout_rotation: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The body of `evolve_ensemble_dephased` and of `evolve`, its one-node case:
    the sample times, the weighted populations (samples, 2), the last chunk's
    states (members, samples, 2) after the readout, and the node count."""
    cfg = cfg or IntegratorConfig()
    initial = initial or QubitState.ket0()
    if initial.basis is not Basis.DIABATIC:
        raise ValueError("dense evolution expects a diabatic-basis initial state")
    if not t2_star_us > 0:
        raise ValueError("t2_star_us must be positive (inf disables the noise)")
    t_span = _validate_span(p, t_span or (0.0, p.total_time_ns))

    sigma_ang_per_ns = 0.0 if math.isinf(t2_star_us) else math.sqrt(2) / t2_star_us / 1000.0
    nodes, weights = _noise_nodes(sigma_ang_per_ns * (t_span[1] - t_span[0]))
    offsets_ang = sigma_ang_per_ns * nodes
    # one grid for every member, fine enough for the largest offset
    extra = mhz_to_angular(float(np.max(np.abs(angular_to_mhz(offsets_ang) + detuning_mhz))))
    grid = _build_grid(p, cfg, t_span, sample_every, extra_omega_ang=extra)
    pops = np.zeros((grid.times.size, 2))
    # the nodes are symmetric about 0: taken from both ends inwards, every
    # chunk (an even number of members) holds whole +- pairs (see `_partners`)
    ends = np.arange(nodes.size)
    order = np.stack([ends, ends[::-1]], axis=1).ravel()[:nodes.size]
    for idx, states in _member_states(grid, p.delta_ang / 2,
                                      (offsets_ang + mhz_to_angular(detuning_mhz)) / 2,
                                      initial.as_array(), cfg, order):
        if readout_rotation:
            states = _apply(rotation_x(readout_rotation), states)
        pops += np.tensordot(weights[idx], np.abs(states) ** 2, axes=1)
    return grid.times, pops, states, nodes.size
