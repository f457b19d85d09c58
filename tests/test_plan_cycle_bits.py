"""The planning cycle's corridor and subsection curvatures, bit for bit
against the per-call numpy computation they replace, with every check and
message of the corridor kept."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvepath.planner import NodePointParams, average_curvatures
from curvepath.road import (
    DEFAULT_CORRIDOR_STEP_M,
    DEFAULT_LANE_WIDTH_M,
    Corridor,
    CorridorError,
    InsufficientPreviewError,
    LanePolynomial,
    Pose,
    corridor_from_polynomial,
)

PREVIEWS = (103.0, 113.0, 140.0, 148.0, 150.0)
STEPS = (0.25, 0.5, 0.7, 1.0)


def reference_channels(poly: LanePolynomial, step: float):
    """s, x, y, theta and kappa built the per-call way: a fresh grid, its
    powers and its steps on every call."""
    n = max(2, int(math.ceil(poly.preview_length / step)) + 1)
    xs = np.linspace(0.0, poly.preview_length, n)
    ys = poly.c0 + poly.c1 * xs + 0.5 * poly.c2 * xs**2 + (1.0 / 6.0) * poly.c3 * xs**3
    dy = poly.c1 + poly.c2 * xs + 0.5 * poly.c3 * xs**2
    ddy = poly.c2 + poly.c3 * xs
    kappa = ddy / (1.0 + dy**2) ** 1.5
    s = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(xs), np.diff(ys)))))
    return s, xs, ys, np.arctan(dy), kappa


def random_polys(seed: int, preview: float, count: int = 6):
    rng = np.random.default_rng(seed)
    polys = [LanePolynomial(0.0, 0.0, 0.0, 0.0, preview)]
    for _ in range(count):
        c0, c1, c2, c3 = rng.normal(0.0, (1.0, 0.05, 4e-3, 1e-4))
        polys.append(LanePolynomial(float(c0), float(c1), float(c2), float(c3), preview))
    return polys


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("preview", PREVIEWS)
def test_corridor_matches_the_per_call_grid(preview, step):
    for poly in random_polys(int(preview * 10 + step * 100), preview):
        corridor = corridor_from_polynomial(poly, step, lane_width=3.5)
        want = reference_channels(poly, step)
        got = (corridor.s, corridor.x, corridor.y, corridor.theta, corridor.kappa)
        for name, g, w in zip(("s", "x", "y", "theta", "kappa"), got, want):
            assert same_bits(g, w), name
        assert corridor.lane_width == 3.5


def outcome(build):
    """A built corridor's channel bytes and lane width, or the class and
    message of what building it raised."""
    try:
        corridor = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(getattr(corridor, name).tobytes() for name in ("s", "x", "y", "theta", "kappa")), corridor.lane_width


def assert_constructor_agrees(poly: LanePolynomial, step: float, lane_width: float):
    """corridor_from_polynomial, which checks only what a polynomial can
    break, against the full constructor on the per-call channels."""
    got = outcome(lambda: corridor_from_polynomial(poly, step, lane_width))
    assert got == outcome(lambda: Corridor(*reference_channels(poly, step), lane_width=lane_width))
    return got


def slope_bound(poly: LanePolynomial) -> float:
    return abs(poly.c1) + poly.preview_length * (abs(poly.c2) + 0.5 * poly.preview_length * abs(poly.c3))


@st.composite
def grids(draw):
    """A preview and a step: 0.1 to 1000 m with steps of 0.1 to 3 m, or up
    to the 1e100 m bound with at most 2001 samples."""
    if draw(st.booleans()):
        return draw(st.floats(0.1, 1000.0)), draw(st.floats(0.1, 3.0))
    preview = draw(st.floats(1000.0, 1e100, exclude_max=True))
    return preview, preview / draw(st.integers(1, 2000))


coefficients = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=1000)
@given(
    c=st.tuples(coefficients, coefficients, coefficients, coefficients),
    grid=grids(),
    lane_width=st.one_of(st.sampled_from([0.0, -1.0, math.nan, 5e-324, 3.7]), st.floats(0.01, 10.0)),
)
def test_polynomial_corridor_checks_what_the_constructor_checks(c, grid, lane_width):
    preview, step = grid
    poly = LanePolynomial(*c, preview_length=preview)
    assume(slope_bound(poly) < 1e100)
    assert_constructor_agrees(poly, step, lane_width)


@pytest.mark.parametrize(
    "poly, lane_width, message",
    [
        (LanePolynomial(1e100, 0.0, 1e80, 0.0), 3.7, "corridor arc length must be strictly increasing"),
        (LanePolynomial(0.0, 0.0, 0.0, 0.0), 0.0, "lane_width must be positive"),
        (LanePolynomial(0.0, 0.0, 0.0, 0.0), math.nan, "lane_width must be positive"),
        (LanePolynomial(0.0, 9.99e99, 0.0, 0.0), 3.7, None),
    ],
    ids=["rise", "zero-width", "nan-width", "under-the-slope-bound"],
)
def test_each_kept_rule_fires_as_in_the_constructor(poly, lane_width, message):
    got = assert_constructor_agrees(poly, DEFAULT_CORRIDOR_STEP_M, lane_width)
    if message is not None:
        assert got == (CorridorError, message)


def test_the_slope_bound_comes_first():
    # before the lane width, and before (1 + y'^2)^1.5 can overflow
    for c1 in (1e100, 1e300):
        with pytest.raises(CorridorError, match=r"^lane polynomial too steep to sample \(slope up to 1\.000e\+[0-9]+\)$"):
            corridor_from_polynomial(LanePolynomial(0.0, c1, 0.0, 0.0), lane_width=0.0)


def test_curvature_of_one_is_still_rejected():
    with pytest.raises(CorridorError, match="^corridor heading increments inconsistent with curvature$"):
        corridor_from_polynomial(LanePolynomial(0.0, 0.0, 1.0, 0.0))
    # as the full constructor rejects it
    assert_constructor_agrees(LanePolynomial(0.0, 0.0, 1.0, 0.0), DEFAULT_CORRIDOR_STEP_M, DEFAULT_LANE_WIDTH_M)


def test_step_is_still_checked():
    with pytest.raises(ValueError, match="^step must be positive$"):
        corridor_from_polynomial(LanePolynomial(0.0, 0.0, 0.0, 0.0), 0.0)


def test_cached_grid_is_read_only_and_not_shared():
    from curvepath.road import _sample_grid

    corridor = corridor_from_polynomial(LanePolynomial(0.0, 0.0, 0.0, 0.0, 150.0), 0.5)
    grid = _sample_grid(150.0, 0.5)
    assert _sample_grid(150.0, 0.5) is grid
    for array in grid:
        with pytest.raises(ValueError):
            array[0] = 1.0
    for channel in (corridor.s, corridor.x, corridor.y, corridor.theta, corridor.kappa):
        assert not any(np.shares_memory(channel, array) for array in grid)


def test_overflowing_heading_residual_is_still_rejected():
    """inf - inf makes one step's residual nan; the step after it is still
    out of tolerance and rejects the corridor, as a comparison with any() did."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CorridorError, match="^corridor heading increments inconsistent with curvature$"):
            Corridor(
                s=[0.0, 1.0, 2.0],
                x=[0.0, 1.0, 2.0],
                y=[0.0, 0.0, 0.0],
                theta=[-1e308, 1e308, 1e308],
                kappa=[1e308, 1e308, 0.0],
            )


NAN_RESIDUAL = dict(s=[0.0, 1.0], x=[0.0, 1.0], y=[0.0, 0.0], theta=[-1e308, 1e308], kappa=[1e308, 1e308])


def test_a_lone_nan_heading_residual_is_rejected():
    """The only step's increment and curvature integral both overflow, so its
    residual is inf - inf = nan; no step may pass unless it is within tolerance."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CorridorError, match="^corridor heading increments inconsistent with curvature$"):
            Corridor(**NAN_RESIDUAL)


def test_a_window_cut_with_a_nan_heading_residual_is_rejected():
    """window() checks its cut step by the step rule; the nan residual of the
    whole step (from 0) fails there as the overflowing one of a cut at 0.25 does."""
    arrays = [np.array(NAN_RESIDUAL[name], dtype=float) for name in ("s", "x", "y", "theta", "kappa")]
    corridor = Corridor._derived(3.7, *arrays)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in (0.0, 0.25):
            with pytest.raises(CorridorError, match="^corridor heading increments inconsistent with curvature$"):
                corridor.window(start)


def test_non_increasing_arc_length_is_still_rejected():
    for s in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
        with pytest.raises(CorridorError, match="^corridor arc length must be strictly increasing$"):
            Corridor(s=s, x=[0.0, 1.0, 2.0], y=[0.0] * 3, theta=[0.0] * 3, kappa=[0.0] * 3)


def corridors():
    rng = np.random.default_rng(17)
    for poly in random_polys(5, 150.0) + random_polys(6, 148.0):
        local = corridor_from_polynomial(poly)
        anchor = Pose(*rng.normal(0.0, 200.0, 2), float(rng.uniform(-math.pi, math.pi)))
        yield local
        yield local.transformed(anchor)
        yield local.window(3.3).transformed(anchor)


@pytest.mark.parametrize("distances", [(10.0, 39.0, 137.0), (7.25, 50.5, 120.125), (10, 39, 137)])
def test_average_curvatures_match_numpy_diff(distances):
    for corridor in corridors():
        bounds = np.array([0.0, *distances])
        want = np.diff(corridor.heading_unwrapped_at(bounds)) / np.diff(bounds)
        got = average_curvatures(corridor, distances)
        means = (got.kappa_on, got.kappa_nm, got.kappa_mf)
        assert all(type(v) is float for v in means)
        assert same_bits(np.array(means), want)


def test_short_corridor_still_raises_insufficient_preview():
    corridor = corridor_from_polynomial(LanePolynomial(0.0, 0.0, 0.0, 0.0, 103.0))
    with pytest.raises(InsufficientPreviewError, match=r"station 137\.0 outside corridor"):
        average_curvatures(corridor, (10.0, 39.0, 137.0))
    with pytest.raises(InsufficientPreviewError, match=r"station 137\.0 outside corridor"):
        corridor.poses_at(NodePointParams().distances)
