"""The SU(2) map module both routes share: `su2._rotation` reads the angle and
axis of maps that need not be exactly unitary, as a dense `U(T)` is not, and
`su2` alone defines the (p, q) algebra, imports nothing of lzsim and is the
only place a route takes private map helpers from."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lzsim
from lzsim import su2
from conftest import su2_axis_angle

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _maps(theta, n, c=1.0):
    """(p, q) rows (2, k) of c exp(-i theta/2 n.sigma) for angles (k,) and unit
    axes (k, 3)."""
    cos, sin = c * np.cos(theta / 2), c * np.sin(theta / 2)
    return np.stack([cos - 1j * sin * n[:, 2], -sin * (n[:, 1] + 1j * n[:, 0])])


def _matrix(x):
    p, q = x
    return np.array([[p, q], [-np.conj(q), np.conj(p)]])


def _tie_broken(n):
    """The axis n of a rotation by pi, signed so that its first component of
    z, x, y that is not zero is positive."""
    lead = next((n[i] for i in (2, 0, 1) if abs(n[i]) > 1e-12), 1.0)
    return n if lead > 0 else -n


@st.composite
def _rotations(draw):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    assume(np.linalg.norm(v) > 0.1)
    theta = draw(st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, 1e-13, math.pi])))
    # clear of the edge of the tie-break at pi, where rounding picks the side
    assume(abs(abs(theta - math.pi) - 1e-12) > 1e-14)
    return theta, v / np.linalg.norm(v)


@_SETTINGS
@given(st.lists(_rotations(), min_size=1, max_size=8),
       st.sampled_from([1.0, 1.0 - 1e-6, 1.0 + 1e-6]))
def test_rotation_reads_angle_and_signed_axis(rotations, c):
    theta = np.array([t for t, _ in rotations])
    n = np.array([axis for _, axis in rotations])
    x = _maps(theta, n, c)
    angles, axes = su2._rotation(x)
    for k, (t, axis) in enumerate(rotations):
        if math.sin(t / 2) < 1e-12:  # no rotation: angle 0 about z
            want_angle, want_axis = 0.0, np.array([0.0, 0.0, 1.0])
        elif abs(t - math.pi) < 1e-12:
            want_angle, want_axis = t, _tie_broken(axis)
        else:
            want_angle, want_axis = t, axis
        assert abs(angles[k] - want_angle) <= 1e-12
        assert np.max(np.abs(axes[k] - want_axis)) <= 1e-12
        if t >= 0.02:  # the reference's acos loses digits near angle 0
            ref_angle, ref_axis = su2_axis_angle(_matrix(x[:, k]))
            assert abs(angles[k] - ref_angle) <= 1e-12
            assert np.max(np.abs(axes[k] - ref_axis)) <= 1e-12
    # -x, where Re p < 0, is the same rotation
    flipped_angles, flipped_axes = su2._rotation(-x)
    assert np.max(np.abs(flipped_angles - angles)) <= 1e-15
    assert np.max(np.abs(flipped_axes - axes)) <= 1e-15


@pytest.mark.parametrize("p", [1.0, -1.0, 1.0 + 1e-6, -0.97,
                               math.cos(5e-13) - 1j * math.sin(5e-13)],
                         ids=["identity", "minus-identity", "scaled", "scaled-minus", "below-1e-12"])
def test_no_rotation_reads_angle_zero_about_z(p):
    angles, axes = su2._rotation(np.array([[p], [0j]], dtype=complex))
    assert angles.tolist() == [0.0]
    assert axes.tolist() == [[0.0, 0.0, 1.0]]


@pytest.mark.parametrize("axis, want", [
    ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0)),
    ((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    ((0.0, -1.0, 0.0), (0.0, 1.0, 0.0)),
    ((-0.6, 0.8, 0.0), (0.6, -0.8, 0.0)),
    ((0.6, -0.8, 0.0), (0.6, -0.8, 0.0)),
    ((0.0, 0.6, -0.8), (0.0, -0.6, 0.8)),
    ((0.6, 0.0, -0.8), (-0.6, 0.0, 0.8)),
])
def test_rotation_by_pi_prefers_positive_z_then_x_then_y(axis, want):
    # exp(-i pi/2 n.sigma) = -i n.sigma, built without rounding: p = -i nz,
    # q = -(ny + i nx), so Re p = 0 and the axis' sign is the tie-break's alone
    n = np.array(axis)
    x = np.array([[-1j * n[2]], [-(n[1] + 1j * n[0])]])
    angles, axes = su2._rotation(x)
    assert angles.tolist() == [math.pi]
    assert axes.tolist() == [list(want)]
    # -x is the same rotation
    angles, axes = su2._rotation(-x)
    assert angles.tolist() == [math.pi]
    assert axes.tolist() == [list(want)]


# ---------------------------------------------------------------------------
# where the map algebra lives
# ---------------------------------------------------------------------------

_HELPERS = ("_identity", "_mul", "_polar", "_powers", "_mirror", "_apply", "rotation_x",
            "_rotation")
_ROUTES = ("propagator", "transfer_matrix")


def _sources():
    """{module file name: parsed module} of every lzsim module."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(Path(lzsim.__file__).parent.glob("*.py"))}


def test_su2_alone_defines_the_map_algebra():
    """Every (p, q) helper and the rotation reader is defined once, in `su2`."""
    defs = {}
    for name, tree in _sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in _HELPERS:
                defs.setdefault(node.name, []).append(name)
    assert defs == {helper: ["su2.py"] for helper in _HELPERS}, defs


def test_su2_imports_no_lzsim_module():
    """`su2` is a leaf: both routes import it, and it imports only numpy."""
    tree = _sources().get("su2.py")
    assert tree is not None
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported <= {"__future__", "numpy"}, imported


def test_no_module_imports_a_private_name_of_a_route():
    """A private name of `propagator` or `transfer_matrix` stays in its route:
    what both routes share comes from `su2` or `model`."""
    found = []
    for name, tree in _sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in _ROUTES:
                found += [f"{name}:{node.lineno} {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == [], found
