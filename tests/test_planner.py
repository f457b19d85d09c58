import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvepath.planner import (
    CurvatureInput,
    GainMatrix,
    NodePointParams,
    OffsetVector,
    average_curvatures,
    compute_offsets,
    plan_path,
    plan_path_from_offsets,
)
from curvepath.road import (
    InsufficientPreviewError,
    LanePolynomial,
    PlanningFrame,
    Pose,
    corridor_from_polynomial,
    from_planning_frame,
)
from curvepath.simulate import RoadSegmentSpec, ScenarioSpec, build_scenario_road


def straight_corridor(length=300.0):
    spec = ScenarioSpec(segments=(RoadSegmentSpec.straight(length),))
    return build_scenario_road(spec)


def arc_corridor(kappa, length=300.0):
    spec = ScenarioSpec(segments=(RoadSegmentSpec.arc(length, kappa),))
    return build_scenario_road(spec)


class TestNodePointParams:
    def test_defaults(self):
        params = NodePointParams()
        assert params.distances == (10.0, 39.0, 137.0)

    @pytest.mark.parametrize("bad", [(0.0, 39, 137), (39, 10, 137), (10, 39, 260)])
    def test_ordering_enforced(self, bad):
        with pytest.raises(ValueError):
            NodePointParams(*bad)


class TestSelectNodePoints:
    def test_straight_defaults(self):
        poses = straight_corridor().poses_at(NodePointParams().distances)
        for pose, d in zip(poses, NodePointParams().distances):
            assert pose.x == pytest.approx(d, abs=1e-9)
            assert pose.y == pytest.approx(0.0, abs=1e-9)
            assert pose.theta == pytest.approx(0.0, abs=1e-12)

    def test_heading_on_circle(self):
        corr = arc_corridor(1.0 / 500.0)
        poses = corr.poses_at(NodePointParams().distances)
        assert poses[0].theta == pytest.approx(10.0 / 500.0, abs=1e-9)

    def test_short_corridor_rejected(self):
        with pytest.raises(InsufficientPreviewError):
            straight_corridor(100.0).poses_at(NodePointParams().distances)


class TestAverageCurvatures:
    def test_straight(self):
        kbar = average_curvatures(straight_corridor(), (10.0, 39.0, 137.0))
        assert kbar.as_array() == pytest.approx(np.zeros(3), abs=1e-12)

    def test_constant_curvature(self):
        kbar = average_curvatures(arc_corridor(0.01), (10.0, 39.0, 137.0))
        assert kbar.as_array() == pytest.approx(np.full(3, 0.01), rel=1e-9)

    def test_linear_ramp_gives_midpoints(self):
        rate = 1.4599e-4
        spec = ScenarioSpec(
            segments=(RoadSegmentSpec.transition(150.0, 0.0, rate * 150.0),)
        )
        corr = build_scenario_road(spec)
        kbar = average_curvatures(corr, (10.0, 39.0, 137.0))
        assert kbar.kappa_on == pytest.approx(rate * 5.0, rel=1e-9)
        assert kbar.kappa_nm == pytest.approx(rate * 24.5, rel=1e-9)
        assert kbar.kappa_mf == pytest.approx(rate * 88.0, rel=1e-9)


class TestComputeOffsets:
    def test_zero_input_gives_midline(self):
        gains = GainMatrix(np.arange(9.0).reshape(3, 3))
        offsets = compute_offsets(gains, CurvatureInput(0.0, 0.0, 0.0))
        assert offsets.as_array() == pytest.approx(np.zeros(3))

    def test_diagonal_scaling(self):
        offsets = compute_offsets(
            GainMatrix(np.diag([20, 20, 20])), CurvatureInput(0.01, 0.01, 0.01)
        )
        assert offsets.as_array() == pytest.approx(np.full(3, 0.2))

    def test_row_dot_product(self):
        p = np.zeros((3, 3))
        p[0] = (5.0, 10.0, 15.0)
        offsets = compute_offsets(GainMatrix(p), CurvatureInput(0.01, 0.02, 0.01))
        assert offsets.delta_near == pytest.approx(0.40)

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        k1=st.tuples(*[st.floats(-0.01, 0.01)] * 3),
        k2=st.tuples(*[st.floats(-0.01, 0.01)] * 3),
    )
    def test_linearity(self, a, b, k1, k2):
        gains = GainMatrix(np.array([[22.0, 3.0, -1.0], [4.0, 25.0, 2.0], [-2.0, 5.0, 30.0]]))
        mixed = CurvatureInput(*(a * np.array(k1) + b * np.array(k2)))
        lhs = compute_offsets(gains, mixed).as_array()
        rhs = a * compute_offsets(gains, CurvatureInput(*k1)).as_array() + b * compute_offsets(
            gains, CurvatureInput(*k2)
        ).as_array()
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPlanPath:
    def test_straight_road_stays_on_midline(self):
        corr = straight_corridor()
        frame = PlanningFrame(origin=Pose(0.0, 0.0, 0.0))
        planned = plan_path(corr, GainMatrix(np.diag([40, 40, 40])), NodePointParams(), frame)
        stations = np.linspace(0.0, planned.path.length, 100)
        _, ys, _ = planned.path.sample(stations)
        assert np.max(np.abs(ys)) < 1e-6

    def test_zero_gains_interpolate_midline(self):
        corr = arc_corridor(0.004)
        frame = PlanningFrame(origin=corr.poses_at((0.0,))[0])
        planned = plan_path(corr, GainMatrix.zeros(), NodePointParams(), frame)
        for pose, d in zip(planned.node_poses[1:], NodePointParams().distances):
            node_global = from_planning_frame(pose, frame)
            nominal = corr.poses_at((d,))[0]
            gap = math.hypot(node_global.x - nominal.x, node_global.y - nominal.y)
            assert gap < 1e-9

    def test_constant_left_curve_offsets_inward(self):
        corr = arc_corridor(0.005)
        frame = PlanningFrame(origin=corr.poses_at((0.0,))[0])
        planned = plan_path(corr, GainMatrix(np.diag([20, 20, 20])), NodePointParams(), frame)
        for pose, d in zip(planned.node_poses[1:], NodePointParams().distances):
            node_global = from_planning_frame(pose, frame)
            _, offset = corr.project(node_global.x, node_global.y)
            assert offset == pytest.approx(0.1, abs=1e-6)

    def test_path_passes_through_node_poses(self):
        corr = arc_corridor(0.003)
        frame = PlanningFrame(origin=corr.poses_at((0.0,))[0])
        planned = plan_path(corr, GainMatrix(np.diag([30, 30, 30])), NodePointParams(), frame)
        bounds = np.concatenate(([0.0], np.cumsum([s.length for s in planned.path.segments])))
        for pose, s in zip(planned.node_poses, bounds):
            at = planned.path.pose_at(float(s))
            assert math.hypot(at.x - pose.x, at.y - pose.y) < 1e-6

    def test_mirror_symmetry_of_offsets(self):
        params = NodePointParams()
        gains = GainMatrix(np.array([[22.0, 3.0, -1.0], [4.0, 25.0, 2.0], [-2.0, 5.0, 30.0]]))
        left = average_curvatures(arc_corridor(0.004), params.distances)
        right = average_curvatures(arc_corridor(-0.004), params.distances)
        d_left = compute_offsets(gains, left).as_array()
        d_right = compute_offsets(gains, right).as_array()
        assert d_left == pytest.approx(-d_right, abs=1e-12)

    def test_monotone_curve_cutting(self):
        params = NodePointParams()
        gains = GainMatrix(np.diag([25, 25, 25]))
        previous = -1.0
        for kappa in (0.001, 0.002, 0.004, 0.006):
            kbar = average_curvatures(arc_corridor(kappa), params.distances)
            offsets = compute_offsets(gains, kbar)
            assert offsets.delta_near > previous
            previous = offsets.delta_near

    def test_plan_from_polynomial_corridor(self):
        corr = corridor_from_polynomial(LanePolynomial(0.0, 0.0, 0.002, 0.0))
        frame = PlanningFrame(origin=Pose(0.0, 0.0, 0.0))
        planned = plan_path(corr, GainMatrix(np.diag([25, 25, 25])), NodePointParams(), frame)
        # spans from the origin to the far node; cutting makes it a touch
        # shorter than the midline stations
        assert planned.path.length == pytest.approx(137.0, abs=1.0)

    def test_offsets_injection_matches_gain_product(self):
        corr = arc_corridor(0.004)
        frame = PlanningFrame(origin=corr.poses_at((0.0,))[0])
        params = NodePointParams()
        gains = GainMatrix(np.diag([25, 25, 25]))
        direct = plan_path(corr, gains, params, frame)
        injected = plan_path_from_offsets(
            corr,
            compute_offsets(gains, average_curvatures(corr, params.distances)),
            params,
            frame,
        )
        assert direct.node_poses == injected.node_poses


class TestOffsetPlausibility:
    def test_half_lane_offsets_warn_but_plan(self, caplog):
        import logging

        corr = arc_corridor(0.004)
        frame = PlanningFrame(origin=corr.poses_at((0.0,))[0])
        huge = OffsetVector(2.0, 2.0, 2.0)  # beyond half the 3.70 m lane
        with caplog.at_level(logging.WARNING, logger="curvepath.planner"):
            planned = plan_path_from_offsets(corr, huge, NodePointParams(), frame)
        assert planned.path.length > 0
        assert any("lane width" in rec.message for rec in caplog.records)


class TestGainMatrix:
    def test_row_major_round_trip(self):
        gains = GainMatrix(np.arange(9.0).reshape(3, 3))
        assert GainMatrix.from_row_major(gains.row_major()).p.tolist() == gains.p.tolist()

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            GainMatrix(np.zeros((2, 3)))

    def test_finite_enforced(self):
        bad = np.zeros((3, 3))
        bad[1, 1] = math.inf
        with pytest.raises(ValueError):
            GainMatrix(bad)


class TestOffsetVector:
    def test_max_abs(self):
        assert OffsetVector(0.1, -0.4, 0.2).max_abs() == pytest.approx(0.4)


@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_offset_max_abs_matches_the_array_maximum(values):
    offsets = OffsetVector(*values)
    assert offsets.max_abs() == float(np.max(np.abs(offsets.as_array())))
