"""The scalar quadrature kernel against the array kernel, and the
planning-frame fit against a fit in the global frame."""

import math

import numpy as np
import pytest

from curvepath.clothoid import ClothoidSegment, _phase_integrals, _rule, _scalar_phase_integrals, fit_composite
from curvepath.planner import NodePointParams, OffsetVector, plan_path_from_offsets
from curvepath.road import (
    PlanningFrame,
    Pose,
    corridor_from_polynomial,
    offset_point,
    to_planning_frame,
    wrap_angle,
)
from curvepath.simulate import (
    RoadSegmentSpec,
    ScenarioSpec,
    build_scenario_road,
    fit_lane_polynomial,
    offset_pose_on,
    s_curve_scenario,
)


def test_scalar_kernel_matches_array_kernel():
    rng = np.random.default_rng(11)
    slopes = np.concatenate((10.0 ** rng.uniform(-4.0, 2.5, 1500), [3.0, 7.0, 50.0, 299.0]))
    panels_seen = set()
    for slope in slopes:
        a, b = slope * rng.uniform(-1.0, 1.0, 2)
        c = rng.uniform(-math.pi, math.pi)
        panels_seen.add(math.ceil((abs(a) + abs(b) + 1.0) / 4.0))
        for moments in (False, True):
            want = _phase_integrals(a, b, c, _rule(abs(a) + abs(b)), tau_moments=moments)
            got = _scalar_phase_integrals(a, b, c, tau_moments=moments)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - float(w)) <= 1e-15
    assert 1 in panels_seen and max(panels_seen) >= 50


def test_pose_at_matches_sample():
    # Both evaluate the same nodes; only the quadrature sum's order differs,
    # so the unit-length integrals agree within 1e-15 and a position within
    # 1e-15 per metre of arc length plus the rounding of the final addition.
    rng = np.random.default_rng(12)
    for _ in range(200):
        seg = ClothoidSegment(
            Pose(*rng.uniform(-50, 50, 2), rng.uniform(-3, 3)),
            kappa0=rng.uniform(-0.05, 0.05),
            kappa_rate=rng.uniform(-1e-3, 1e-3),
            length=rng.uniform(5, 200),
        )
        stations = np.linspace(0.0, seg.length, 9)[1:]
        xs, ys, ths = seg.sample(stations)
        for s, x, y, th in zip(stations, xs, ys, ths):
            pose = seg.pose_at(s)
            assert abs(pose.x - x) <= 1e-15 * s + math.ulp(x)
            assert abs(pose.y - y) <= 1e-15 * s + math.ulp(y)
            assert pose.theta == Pose(0.0, 0.0, th).theta


def _tight_scenario():
    """Left then right curve peaking at 0.015 1/m, driven at 15 m/s."""
    seg = RoadSegmentSpec
    return ScenarioSpec(
        segments=(
            seg.straight(150.0),
            seg.transition(50.0, 0.0, 0.010),
            seg.arc(60.0, 0.010),
            seg.transition(80.0, 0.010, -0.015),
            seg.arc(50.0, -0.015),
            seg.transition(60.0, -0.015, 0.0),
            seg.straight(200.0),
        ),
        speed=15.0,
    )


@pytest.mark.parametrize("scenario", [s_curve_scenario, _tight_scenario], ids=["s-curve", "tight"])
def test_planning_frame_fit_matches_global_fit(scenario):
    road = build_scenario_road(scenario())
    params = NodePointParams()
    offsets = OffsetVector(0.4, -0.3, 0.5)
    preview = 150.0
    for station in np.arange(0.0, road.length - preview - 10.0, 25.0):
        ego = offset_pose_on(road, station, 0.2, 0.01)
        poly = fit_lane_polynomial(road, ego, station=station, preview=preview)
        corr = corridor_from_polynomial(poly, lane_width=road.lane_width).transformed(ego)
        frame = PlanningFrame(origin=ego)
        planned = plan_path_from_offsets(corr, offsets, params, frame)

        nominal = corr.poses_at(params.distances)
        nodes = [offset_point(p, d) for p, d in zip(nominal, offsets.as_array())]
        reference = fit_composite((ego, *nodes))
        for got, want in zip(planned.path.segments, reference.segments):
            assert abs(got.length - want.length) <= 1e-12
            assert abs(got.kappa0 - want.kappa0) <= 1e-14
            assert abs(got.kappa_rate - want.kappa_rate) <= 1e-14

        stations = np.linspace(0.0, min(planned.path.length, reference.length), 60)
        xs, ys, ths = planned.path.sample(stations)
        gxs, gys, gths = reference.sample(stations)
        for x, y, th, gx, gy, gth in zip(xs, ys, ths, gxs, gys, gths):
            want = to_planning_frame(Pose(gx, gy, gth), frame)
            assert math.hypot(x - want.x, y - want.y) <= 1e-12
            assert abs(wrap_angle(th - want.theta)) <= 1e-14
