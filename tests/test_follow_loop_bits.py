"""run_replay's follow loop, bit for bit against the loop it replaces: per
followed station a curvature lookup (a bisect over the segment bounds, then
the segment's curvature formula) and then CompositePath.pose_at, each
locating the station again, mapped through from_planning_frame. The
replay's perceived offsets (perceived_offsets), projected a chunk of blocks
per call, bit for bit against one Corridor.project_many call per block."""

import bisect
import dataclasses
import itertools

import numpy as np
import pytest

from curvepath import road
from curvepath.planner import GainMatrix
from curvepath.metrics import project_onto
from curvepath.road import CoordinateRangeError, from_planning_frame, project_to_polyline
from curvepath.simulate import SimTrace, load_drive_log, perceived_offsets, run_replay

from conftest import P_TRUE
from helpers import far_off

BAD_ROWS = slice(60, 64)  # a replan row at retrigger 1, 7 and 30 each
LEAD_ROWS = slice(0, 3)  # so no plan is active at the first rows


def reference_curvature_at(path, s: float) -> float:
    bounds = list(itertools.accumulate((seg.length for seg in path.segments), initial=0.0))
    i = min(max(bisect.bisect_right(bounds, s) - 1, 0), len(path.segments) - 1)
    seg = path.segments[i]
    return seg.kappa0 + seg.kappa_rate * min(max(s - bounds[i], 0.0), seg.length)


def reference_follow(log, replans):
    """x, y, theta and kappa of the followed poses, given the replay's plans."""
    plans = {rec.cycle: rec.path for rec in replans}
    n = len(log)
    xs, ys, thetas, kappas = np.empty(n), np.empty(n), np.empty(n), np.full(n, np.nan)
    ego = log.pose(0)
    active, path_s = None, 0.0
    for i in range(n):
        if plans.get(i) is not None:
            active, path_s = plans[i], 0.0
            assert active.frame.origin == ego  # each plan starts from the followed pose
        xs[i], ys[i], thetas[i] = ego.x, ego.y, ego.theta
        if active is not None:
            kappas[i] = reference_curvature_at(active.path, path_s)
            path_s = min(path_s + float(log.speed[i]) * log.sample_time, active.path.length)
            ego = from_planning_frame(active.path.pose_at(path_s), active.frame)
    return xs, ys, thetas, kappas


@pytest.fixture(scope="module")
def gapped_log(clean_driver_log):
    """The clean log with a few rows that give no corridor, its first rows
    among them; its end also lacks the preview estimation needs."""
    c2 = clean_driver_log.c2.copy()
    c2[BAD_ROWS] = 1.0
    c2[LEAD_ROWS] = 1.0
    return dataclasses.replace(clean_driver_log, c2=c2)


@pytest.mark.parametrize("retrigger", [1, 7, 30])
@pytest.mark.parametrize("mode", ["validation", "estimation"])
def test_followed_poses_and_curvature_match_the_two_lookup_loop(gapped_log, mode, retrigger):
    trace = run_replay(gapped_log, GainMatrix(P_TRUE), retrigger=retrigger, mode=mode)
    first_plan = min(rec.cycle for rec in trace.replans if not rec.gap)
    assert any(rec.gap and rec.cycle > first_plan for rec in trace.replans)  # a plan followed across a gap
    want = reference_follow(gapped_log, trace.replans)
    for got, expected in zip((trace.x, trace.y, trace.theta, trace.kappa), want):
        assert got.tobytes() == expected.tobytes()


def reference_offsets(log, trace, retrigger):
    """Each block's offsets from its active plan's corridor, one
    Corridor.project_many call per block, given the replay's trace; NaN for
    a block too far out to project."""
    gap = {rec.cycle: rec.gap for rec in trace.replans}
    offsets = np.full(len(log), np.nan)
    corr = None
    for lo in range(0, len(log), retrigger):
        block = slice(lo, min(lo + retrigger, len(log)))
        if not gap[int(trace.cycle[lo])]:
            full = log.corridor(lo).transformed(log.pose(lo))
            s_ego, _ = full.project(float(trace.x[lo]), float(trace.y[lo]))
            corr = full.window(s_ego)
        if corr is not None:
            try:
                _, offsets[block] = corr.project_many(trace.x[block], trace.y[block])
            except CoordinateRangeError:
                pass
    return offsets


@pytest.mark.parametrize("budget", [None, 700, 1])
@pytest.mark.parametrize("retrigger", [1, 7, 30])
@pytest.mark.parametrize("mode", ["validation", "estimation"])
def test_offsets_match_one_projection_per_block(gapped_log, mode, retrigger, budget, monkeypatch):
    """With the vertex budget as it is, at about two corridors and at one
    vertex, so that every block ends a chunk."""
    if budget is not None:
        monkeypatch.setattr(road, "PROJECT_VERTICES", budget)
    chunk_rows = []

    def counted(x, y, px, py, *many):  # many: starts and line, or nothing for a lone block
        chunk_rows.append(len(px))
        return project_to_polyline(x, y, px, py, *many)

    with monkeypatch.context() as patch:
        patch.setattr(road, "project_to_polyline", counted)
        replayed = run_replay(gapped_log, GainMatrix(P_TRUE), retrigger=retrigger, mode=mode)
        trace = perceived_offsets(gapped_log, replayed)
    want = reference_offsets(gapped_log, trace, retrigger)
    assert trace.offset.tobytes() == want.tobytes()

    first_plan = min(rec.cycle for rec in trace.replans if not rec.gap)
    assert np.isnan(trace.offset[:first_plan]).all() and first_plan > 0
    assert not np.isnan(trace.offset[first_plan:]).any()
    assert sum(chunk_rows) == len(gapped_log) - first_plan
    if budget == 1:
        # every block is a chunk, so a plan followed across a gap crosses a
        # chunk boundary
        assert len(chunk_rows) == -(-len(gapped_log) // retrigger) - first_plan // retrigger
    elif retrigger == 1:
        assert len(chunk_rows) > 50
    if budget == 1 or (budget == 700 and retrigger == 1):
        # a plan stays active across a gap and a chunk boundary
        boundaries = first_plan + np.cumsum(chunk_rows)[:-1]
        across = {trace.path_id[b] for b in boundaries if trace.path_id[b - 1] == trace.path_id[b]}
        assert any(rec.gap and trace.path_id[rec.cycle] in across for rec in trace.replans)


@pytest.mark.parametrize("mode", ["validation", "estimation"])
def test_replay_projects_nothing(gapped_log, mode, monkeypatch):
    calls = []
    monkeypatch.setattr(road, "project_to_polyline", lambda *args: calls.append(args))
    trace = run_replay(gapped_log, GainMatrix(P_TRUE), retrigger=7, mode=mode)
    assert calls == []
    assert np.isnan(trace.offset).all() and np.isnan(trace.station).all()


@pytest.mark.parametrize("mode", ["validation", "estimation"])
def test_evaluation_projection_ignores_the_perceived_offsets(gapped_log, s_curve_road, mode):
    trace = run_replay(gapped_log, GainMatrix(P_TRUE), mode=mode)
    perceived = perceived_offsets(gapped_log, trace)
    assert not np.isnan(perceived.offset[-1])
    got, want = project_onto(perceived, s_curve_road), project_onto(trace, s_curve_road)
    for field in dataclasses.fields(SimTrace):
        if field.name != "replans":
            assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes(), field.name
    assert got.replans is want.replans


@pytest.mark.parametrize("column", ["speed", "t"])
def test_a_block_out_of_range_loses_only_its_own_rows(synth_log, column, tmp_path):
    log = load_drive_log(far_off(synth_log, column, tmp_path / "log.csv"))
    trace = perceived_offsets(log, run_replay(log, GainMatrix(P_TRUE * 1e150), mode="validation"))
    assert trace.offset.tobytes() == reference_offsets(log, trace, 30).tobytes()
    followed = trace.path_id >= 0
    lost = followed & np.isnan(trace.offset)
    assert lost.any()
    if column == "speed":
        # the blocks before row 300 keep their offsets
        assert not lost[:300].any() and followed[:300].any()
