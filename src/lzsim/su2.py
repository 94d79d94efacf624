"""SU(2) maps in Cayley-Klein form, the algebra both propagation routes
compute in: the dense kernel's step products and the adiabatic-impulse chain
G1 (Shevchenko, Ashhab & Nori, Phys. Rep. 492, 1 (2010)).

Step maps.  H = [[w, b], [b, -w]] is traceless and real-symmetric, so an RK4
step, the piecewise-exact step ``exp(-i h H_mid)`` and every product of them
is a real quaternion ``a I + c i*sigma_y - i (bx sigma_x + bz sigma_z)``
(the Cayley-Klein form of an SU(2) map that need not be exactly unitary).
A map is stored as the pair ``(p, q) = (a - i bz, c - i bx)``, meaning
``[[p, q], [-conj(q), conj(p)]]``; steps are built from closed forms in
float arithmetic and multiplied as ``(p1 p2 - q1 conj(q2), p1 q2 + q1 conj(p2))``.
The impulse model's nodes, free phases and kicks are maps of the same form.
The leading axis of a map array holds p and q; the rest (members, steps or
grid points) broadcast.

Rotation.  Angle and axis follow the convention of an SU(2) rotation, read
from x = r (cos a I + sin a B) (``_polar``): r^2 = |p|^2 + |q|^2 is the
determinant, the rotation angle 2 min(a, pi - a) in [0, pi] (the global
phase fixed so that the trace is real-positive), and the axis is along
-(Im q, Re q, Im p), with the opposite sign where Re p < 0; at angle pi
the leftover sign is broken by preferring a non-negative z, then x, then
y axis component, and at angle 0 the axis is (0, 0, 1) (``_rotation``).
"""

from __future__ import annotations

import numpy as np


def _identity(*shape: int) -> np.ndarray:
    out = np.zeros((2, *shape), dtype=complex)
    out[0] = 1.0
    return out


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


def rotation_x(angle) -> np.ndarray:
    """Instantaneous x-rotations exp(-i angle/2 sigma_x) (ideal pulses) as
    maps (cos(angle/2), -i sin(angle/2)), for an angle or an array of them."""
    half = np.asarray(angle, dtype=float) / 2
    return np.stack([np.cos(half) + 0j, -1j * np.sin(half)])


def _rotation(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation ``angles`` (n,) and Bloch ``axes`` (n, 3) of maps x (2, n),
    in the convention of the module docstring."""
    _, a, s = _polar(x)
    angles = 2 * np.minimum(a, np.pi - a)
    axes = np.stack([x[1].imag, x[1].real, x[0].imag], axis=1)
    # s is zero only at angle 0, set below
    axes *= (np.where(x[0].real < 0, 1.0, -1.0) / np.where(s > 0, s, 1.0))[:, None]
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
    return angles, axes
