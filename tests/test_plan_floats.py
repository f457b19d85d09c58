"""A plan holds Python floats: its node poses, segment starts and frame
origin carry no numpy scalars, so following it stays in float arithmetic."""

from curvepath.planner import GainMatrix, NodePointParams, plan_path
from curvepath.road import PlanningFrame, Pose
from curvepath.simulate import RoadSegmentSpec, ScenarioSpec, build_scenario_road, run_replay

from conftest import P_TRUE


def _plan_poses(plan):
    return (*plan.node_poses, *(seg.start for seg in plan.path.segments), plan.frame.origin)


def _non_floats(plan):
    return [(pose, name) for pose in _plan_poses(plan) for name in ("x", "y", "theta")
            if type(getattr(pose, name)) is not float]


def test_plan_path_holds_floats():
    road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.arc(300.0, 0.004),)))
    plan = plan_path(road, GainMatrix(P_TRUE), NodePointParams(), PlanningFrame(Pose(0.0, 0.0, 0.0)))
    assert _non_floats(plan) == []


def test_replayed_plans_hold_floats(clean_driver_log):
    trace = run_replay(clean_driver_log, GainMatrix(P_TRUE), NodePointParams())
    plans = [r.path for r in trace.replans if r.path is not None]
    assert len(plans) > 1
    assert [bad for plan in plans for bad in _non_floats(plan)] == []
