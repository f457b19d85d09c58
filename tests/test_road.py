import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import simpson

from curvepath.road import (
    AllSkippedError,
    CoordinateRangeError,
    Corridor,
    CorridorError,
    LanePolynomial,
    PlanningFrame,
    Pose,
    corridor_from_polynomial,
    from_planning_frame,
    offset_point,
    tally,
    to_planning_frame,
    wrap_angle,
)


def midline_y(poly: LanePolynomial, x: float) -> float:
    """y at grid point x of the polynomial's 1 m corridor, where src
    evaluates a lane polynomial."""
    corr = corridor_from_polynomial(poly, step=1.0)
    i = int(x)
    assert corr.x[i] == x
    return float(corr.y[i])


class TestLanePolynomial:
    def test_zero_polynomial(self):
        poly = LanePolynomial(0.0, 0.0, 0.0, 0.0)
        assert midline_y(poly, 10.0) == 0.0

    def test_constant_offset(self):
        poly = LanePolynomial(0.5, 0.0, 0.0, 0.0)
        assert midline_y(poly, 20.0) == 0.5

    def test_curvature_coefficient_scaling(self):
        # quadratic coefficient is the curvature at x = 0, so y = c2/2 * x^2
        poly = LanePolynomial(0.0, 0.0, 0.001, 0.0)
        assert midline_y(poly, 100.0) == pytest.approx(5.0, abs=1e-12)

    def test_preview_must_be_positive(self):
        with pytest.raises(ValueError):
            LanePolynomial(0.0, 0.0, 0.0, 0.0, preview_length=0.0)

    @pytest.mark.parametrize("preview", [-1.0, math.nan, 1e100, math.inf])
    def test_preview_lies_below_the_coordinate_limit(self, preview):
        # so the sample grid's cube stays finite
        with pytest.raises(ValueError, match=r"^preview_length must be positive and below 1e\+100 m$"):
            LanePolynomial(0.0, 0.0, 0.0, 0.0, preview_length=preview)


class TestCorridorFromPolynomial:
    def test_straight(self):
        corr = corridor_from_polynomial(LanePolynomial(0, 0, 0, 0), step=1.0)
        assert np.all(corr.kappa == 0.0)
        assert np.all(corr.theta == 0.0)
        assert np.allclose(corr.s, corr.x)

    def test_curvature_at_origin(self):
        corr = corridor_from_polynomial(LanePolynomial(0, 0, 0.001, 0))
        assert corr.kappa[0] == pytest.approx(0.001, abs=1e-9)

    def test_heading_at_origin(self):
        corr = corridor_from_polynomial(LanePolynomial(0, 0.1, 0, 0))
        assert corr.theta[0] == pytest.approx(math.atan(0.1), abs=1e-12)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            corridor_from_polynomial(LanePolynomial(0, 0, 0, 0), step=0.0)

    @given(
        c1=st.floats(-0.1, 0.1),
        c2=st.floats(-0.005, 0.005),
        c3=st.floats(-5e-5, 5e-5),
    )
    def test_heading_curvature_consistency(self, c1, c2, c3):
        # heading change between any two stations equals the integral of
        # curvature over arc length
        corr = corridor_from_polynomial(LanePolynomial(0.0, c1, c2, c3), step=0.5)
        total = simpson(corr.kappa, x=corr.s)
        assert abs((corr.theta[-1] - corr.theta[0]) - total) < 1e-6
        mid = len(corr) // 3
        partial = simpson(corr.kappa[: mid + 1], x=corr.s[: mid + 1])
        assert abs((corr.theta[mid] - corr.theta[0]) - partial) < 1e-6


class TestCorridorValidation:
    def test_needs_increasing_arclength(self):
        with pytest.raises(ValueError):
            Corridor(
                s=np.array([0.0, 1.0, 1.0]),
                x=np.array([0.0, 1.0, 2.0]),
                y=np.zeros(3),
                theta=np.zeros(3),
                kappa=np.zeros(3),
            )

    def test_rejects_inconsistent_heading(self):
        with pytest.raises(ValueError):
            Corridor(
                s=np.array([0.0, 1.0, 2.0]),
                x=np.array([0.0, 1.0, 2.0]),
                y=np.zeros(3),
                theta=np.array([0.0, 0.5, 1.0]),
                kappa=np.zeros(3),
            )

    def test_positive_lane_width(self):
        with pytest.raises(ValueError):
            Corridor(
                s=np.array([0.0, 1.0]),
                x=np.array([0.0, 1.0]),
                y=np.zeros(2),
                theta=np.zeros(2),
                kappa=np.zeros(2),
                lane_width=0.0,
            )

    def test_project_signs(self):
        corr = corridor_from_polynomial(LanePolynomial(0, 0, 0, 0), step=1.0)
        station, offset = corr.project(10.0, 0.5)
        assert station == pytest.approx(10.0, abs=1e-9)
        assert offset == pytest.approx(0.5, abs=1e-9)
        _, offset = corr.project(10.0, -0.5)
        assert offset == pytest.approx(-0.5, abs=1e-9)


class TestOffsetPoint:
    def test_zero_offset_is_identity(self):
        pose = Pose(100.0, 5.0, 0.0)
        assert offset_point(pose, 0.0) == pose

    def test_zero_heading_moves_along_y(self):
        moved = offset_point(Pose(100.0, 5.0, 0.0), 1.0)
        assert (moved.x, moved.y, moved.theta) == (100.0, 6.0, 0.0)

    def test_oblique_heading(self):
        moved = offset_point(Pose(100.0, 5.0, 0.1), 0.3)
        assert moved.x == pytest.approx(99.97005, abs=1e-5)
        assert moved.y == pytest.approx(5.29850, abs=1e-5)
        assert moved.theta == pytest.approx(0.1)

    @given(
        x=st.floats(-100, 100),
        y=st.floats(-100, 100),
        theta=st.floats(-math.pi, math.pi),
        delta=st.floats(0.0, 2.0),
    )
    def test_mirror_offsets(self, x, y, theta, delta):
        pose = Pose(x, y, theta)
        left = offset_point(pose, delta)
        right = offset_point(pose, -delta)
        assert left.x + right.x == pytest.approx(2 * pose.x, abs=1e-9)
        assert left.y + right.y == pytest.approx(2 * pose.y, abs=1e-9)


class TestPlanningFrame:
    def test_identity_frame(self):
        frame = PlanningFrame(origin=Pose(0, 0, 0))
        pose = Pose(3.0, 4.0, 0.5)
        assert to_planning_frame(pose, frame) == pose

    def test_pure_translation(self):
        frame = PlanningFrame(origin=Pose(10.0, 0.0, 0.0))
        local = to_planning_frame(Pose(15.0, 0.0, 0.0), frame)
        assert (local.x, local.y, local.theta) == (5.0, 0.0, 0.0)

    def test_quarter_turn(self):
        frame = PlanningFrame(origin=Pose(0.0, 0.0, math.pi / 2))
        local = to_planning_frame(Pose(0.0, 5.0, math.pi / 2), frame)
        assert local.x == pytest.approx(5.0, abs=1e-12)
        assert local.y == pytest.approx(0.0, abs=1e-12)
        assert local.theta == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_many(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            frame = PlanningFrame(
                origin=Pose(*rng.uniform(-1000, 1000, 2), rng.uniform(-math.pi, math.pi))
            )
            pose = Pose(*rng.uniform(-1000, 1000, 2), rng.uniform(-math.pi, math.pi))
            back = from_planning_frame(to_planning_frame(pose, frame), frame)
            assert math.hypot(back.x - pose.x, back.y - pose.y) < 1e-9
            assert abs(wrap_angle(back.theta - pose.theta)) < 1e-12


class TestPose:
    def test_heading_normalised(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Pose(0, 0, -math.pi).theta == pytest.approx(math.pi)
        assert -math.pi < Pose(0, 0, 7.0).theta <= math.pi

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose(math.nan, 0.0, 0.0)


def test_tally_keeps_results_in_order_and_counts_skips_by_reason():
    def step(unit):
        if unit % 3 == 0:
            raise CorridorError("bad")
        if unit == 4:
            raise CoordinateRangeError("far")
        return unit * 10

    assert tally(range(8), step, "units") == ([10, 20, 50, 70], {"corridor": 3, "coordinates": 1})
    assert tally([], step, "units") == ([], {})
    # an error that is not a skip is not counted
    with pytest.raises(ZeroDivisionError):
        tally([1, 0], lambda unit: 1 / unit, "units")


def test_tally_raises_when_every_unit_is_skipped():
    def step(unit):
        if unit == 4:
            raise CoordinateRangeError("far")
        if unit != 5:
            raise CorridorError("bad")
        return unit

    message = "all 5 cycles were skipped: {'corridor': 4, 'coordinates': 1}"
    with pytest.raises(AllSkippedError, match=f"^{re.escape(message)}$"):
        tally(range(5), step, "cycles")
    # one kept unit is enough
    assert tally(range(6), step, "cycles") == ([5], {"corridor": 4, "coordinates": 1})
