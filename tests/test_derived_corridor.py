"""Corridors derived from a valid one stay valid without full re-validation.

`transformed` applies a rigid motion and `window` checks only its one cut
step; both must still give arrays that the full constructor accepts.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from curvepath.road import Corridor, CorridorError, LanePolynomial, Pose, corridor_from_polynomial

polynomials = st.builds(
    LanePolynomial,
    c0=st.floats(-3.0, 3.0),
    c1=st.floats(-0.3, 0.3),
    c2=st.floats(-0.02, 0.02),
    c3=st.floats(-2e-4, 2e-4),
    preview_length=st.floats(5.0, 200.0),
)
anchors = st.builds(
    Pose,
    x=st.floats(-1e4, 1e4),
    y=st.floats(-1e4, 1e4),
    theta=st.floats(-10.0, 10.0),
)


def revalidated(corridor: Corridor) -> Corridor:
    return Corridor(
        s=corridor.s,
        x=corridor.x,
        y=corridor.y,
        theta=corridor.theta,
        kappa=corridor.kappa,
        lane_width=corridor.lane_width,
    )


def reference_corridor(poly: LanePolynomial, step: float) -> Corridor:
    """The docstring's formulas: y(x), heading atan(y'), curvature
    y'' / (1 + y'^2)^(3/2), arc length accumulating chord lengths."""
    n = max(2, int(math.ceil(poly.preview_length / step)) + 1)
    xs = np.linspace(0.0, poly.preview_length, n)
    ys = poly.c0 + poly.c1 * xs + 0.5 * poly.c2 * xs**2 + (1.0 / 6.0) * poly.c3 * xs**3
    dy = poly.c1 + poly.c2 * xs + 0.5 * poly.c3 * xs**2
    ddy = poly.c2 + poly.c3 * xs
    s = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(xs), np.diff(ys)))))
    return Corridor(s=s, x=xs, y=ys, theta=np.arctan(dy), kappa=ddy / (1.0 + dy**2) ** 1.5)


def assert_bit_identical(a: Corridor, b: Corridor):
    for name in ("s", "x", "y", "theta", "kappa"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _polynomial_corridor(poly):
    try:
        return corridor_from_polynomial(poly)
    except CorridorError:
        assume(False)


@given(polynomials, anchors, st.floats(0.0, 1.0))
def test_transformed_and_window_pass_full_validation(poly, anchor, start_frac):
    moved = _polynomial_corridor(poly).transformed(anchor)
    assert_bit_identical(revalidated(moved), moved)
    start = start_frac * moved.length
    assume(start + 0.01 <= moved.length)
    window = moved.window(start)
    assert window.length == pytest.approx(moved.length - start, abs=1e-9)
    assert window.min_step > 1e-9
    assert_bit_identical(revalidated(window), window)


@given(polynomials, st.floats(0.05, 3.0))
def test_corridor_from_polynomial_matches_docstring_formulas(poly, step):
    try:
        want = reference_corridor(poly, step)
    except CorridorError:
        with pytest.raises(CorridorError):
            corridor_from_polynomial(poly, step=step)
        return
    assert_bit_identical(corridor_from_polynomial(poly, step=step), want)


def curvature_jump_corridor() -> Corridor:
    """Valid corridor whose step [1, 2] has ds * dkappa = 0.2: headings are
    the exact trapezoidal integral, so every full step has zero residual."""
    return Corridor(
        s=[0.0, 1.0, 2.0, 3.0],
        x=[0.0, 1.0, 2.0, 3.0],
        y=[0.0, 0.0, 0.0, 0.0],
        theta=[0.0, 0.0, 0.1, 0.3],
        kappa=[0.0, 0.0, 0.2, 0.2],
    )


def test_window_cut_through_curvature_jump_is_rejected():
    # a cut halving the step leaves a residual of 0.125 * ds * dkappa = 0.025 > 0.02
    with pytest.raises(CorridorError, match="heading increments"):
        curvature_jump_corridor().window(1.5)


def test_window_cut_at_samples_keeps_the_jump_step():
    window = curvature_jump_corridor().window(1.0)
    assert window.s.tolist() == [0.0, 1.0, 2.0]
    assert window.kappa.tolist() == [0.0, 0.2, 0.2]

