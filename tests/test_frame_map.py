"""A corridor mapped out of its frame (`Corridor.transformed`) lands where
`from_planning_frame` puts each of its sample poses: positions bit for bit,
headings equal up to rounding once wrapped."""

import math

import numpy as np
import pytest

from curvepath.road import (
    Corridor,
    LanePolynomial,
    PlanningFrame,
    Pose,
    corridor_from_polynomial,
    from_planning_frame,
    wrap_angle,
)


def _circle_corridor():
    """A left-hand arc of radius 20 m turning through 5 rad, so the local
    heading itself passes pi."""
    kappa = 0.05
    s = np.linspace(0.0, 100.0, 201)
    theta = kappa * s
    return Corridor(s=s, x=np.sin(theta) / kappa, y=(1.0 - np.cos(theta)) / kappa,
                    theta=theta, kappa=np.full(s.size, kappa))


CORRIDORS = {
    "arc": _circle_corridor,
    "polynomial": lambda: corridor_from_polynomial(
        LanePolynomial(0.4, -0.08, 0.012, -2e-4, preview_length=90.0)
    ),
}


@pytest.mark.parametrize("which", sorted(CORRIDORS))
@pytest.mark.parametrize(
    "anchor",
    [Pose(12.5, -7.25, math.pi - 1e-3), Pose(-3.0, 4.0, -math.pi + 1e-3), Pose(250.0, 80.0, math.pi)],
    ids=["near+pi", "near-pi", "pi"],
)
def test_transformed_matches_from_planning_frame(which, anchor):
    local = CORRIDORS[which]()
    moved = local.transformed(anchor)
    frame = PlanningFrame(anchor)
    for i in range(len(local)):
        pose = from_planning_frame(Pose(local.x[i], local.y[i], local.theta[i]), frame)
        assert (moved.x[i], moved.y[i]) == (pose.x, pose.y)
        assert abs(wrap_angle(moved.theta[i] - pose.theta)) <= 1e-12
    assert moved.s is local.s and moved.kappa is local.kappa
