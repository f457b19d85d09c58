"""Synthesis and offset_pose_on read the midline through the corridor's own
lookups, bit for bit, also on a road whose sample steps are not 0.5 m."""

import numpy as np
import pytest

from curvepath.planner import GainMatrix
from curvepath.road import wrap_angle
from curvepath.simulate import (
    RoadSegmentSpec,
    ScenarioSpec,
    SyntheticDriverSpec,
    build_scenario_road,
    generate_synthetic_driver_log,
    offset_pose_on,
)
from conftest import P_TRUE


@pytest.fixture(scope="module")
def odd_step_road():
    # no segment length is a multiple of 0.5 m, so no sample step is either
    kappa = 0.0051
    road = build_scenario_road(
        ScenarioSpec(
            segments=(
                RoadSegmentSpec.straight(230.3),
                RoadSegmentSpec.transition(70.7, 0.0, kappa),
                RoadSegmentSpec.arc(90.1, kappa),
                RoadSegmentSpec.transition(70.7, kappa, 0.0),
                RoadSegmentSpec.straight(160.9),
            )
        )
    )
    steps = np.diff(road.s)
    assert not np.any(np.isclose(steps, 0.5, rtol=0.0, atol=1e-12))
    return road


def test_offset_pose_at_zero_offset_is_the_midline(odd_step_road):
    road = odd_step_road
    stations = np.random.default_rng(3).uniform(0.0, road.length, 500)
    for s in stations.tolist():
        pose = offset_pose_on(road, s, 0.0)
        assert (pose.x, pose.y) == tuple(float(v) for v in road.point_at(s))
        assert pose.theta == wrap_angle(road.heading_unwrapped_at(s))


@pytest.mark.parametrize("gains", [P_TRUE, np.zeros((3, 3))], ids=["gained", "zero-gain"])
def test_synth_rows_on_the_midline_equal_the_lookups(odd_step_road, gains):
    road = odd_step_road
    log = generate_synthetic_driver_log(road, SyntheticDriverSpec(gains_true=GainMatrix(gains), seed=7))
    stations = np.arange(len(log)) * (log.speed[0] * log.sample_time)
    # a driver rides the midline until its first row with a nonzero intercept
    # or slope: a gained one on the straight approach, where it commits zero
    # offsets, a zero-gain one on every row, curves included
    offset_rows = np.flatnonzero((log.c0 != 0.0) | (log.c1 != 0.0))
    first = int(offset_rows[0]) if offset_rows.size else len(log)
    assert first > 50
    xm, ym = road.point_at(stations[:first])
    np.testing.assert_array_equal(log.x[:first], xm)
    np.testing.assert_array_equal(log.y[:first], ym)
    np.testing.assert_array_equal(log.theta[:first], road.heading_unwrapped_at(stations[:first]))
