"""Schema of the replans JSON: one entry per retrigger, a gap entry with its
cycle alone, a plan entry with its inputs, offsets and path."""

import dataclasses
import json

from curvepath.planner import GainMatrix
from curvepath.simulate import run_replay

from conftest import P_TRUE

BAD_ROW = 60  # a replan row at the default retrigger of 30; c2 = 1.0 gives no corridor


def _pose_values(entry: dict, pose) -> bool:
    return set(entry) == {"x", "y", "theta"} and (entry["x"], entry["y"], entry["theta"]) == (
        pose.x,
        pose.y,
        pose.theta,
    )


def test_replans_json_schema(clean_driver_log, tmp_path):
    c2 = clean_driver_log.c2.copy()
    c2[BAD_ROW] = 1.0
    trace = run_replay(dataclasses.replace(clean_driver_log, c2=c2), GainMatrix(P_TRUE), mode="validation")
    out = tmp_path / "replans.json"
    trace.replans_to_json(out)
    entries = json.loads(out.read_text(encoding="utf-8"))

    assert [e["cycle"] for e in entries] == [r.cycle for r in trace.replans]
    assert any(r.gap for r in trace.replans if r.cycle == BAD_ROW)
    plans = 0
    for entry, rec in zip(entries, trace.replans, strict=True):
        if rec.gap:
            assert entry == {"cycle": rec.cycle, "gap": True, "reason": rec.reason}
            continue
        plans += 1
        assert set(entry) == {"cycle", "gap", "curvature_input", "offsets", "path"}
        assert entry["gap"] is False
        assert entry["curvature_input"] == rec.curvature_input.as_array().tolist()
        assert entry["offsets"] == rec.offsets.as_array().tolist()
        path = entry["path"]
        assert set(path) == {"frame_origin", "node_poses", "segments"}
        assert _pose_values(path["frame_origin"], rec.path.frame.origin)
        assert len(path["node_poses"]) == 4
        assert all(map(_pose_values, path["node_poses"], rec.path.node_poses))
        assert len(path["segments"]) == 3
        for seg_entry, seg in zip(path["segments"], rec.path.path.segments, strict=True):
            assert set(seg_entry) == {"start", "kappa0", "kappa_rate", "length"}
            assert _pose_values(seg_entry["start"], seg.start)
            assert (seg_entry["kappa0"], seg_entry["kappa_rate"], seg_entry["length"]) == (
                seg.kappa0,
                seg.kappa_rate,
                seg.length,
            )
    assert plans >= 10


def test_trace_and_replan_cycles_are_the_logs(clean_driver_log, tmp_path):
    shifted = dataclasses.replace(clean_driver_log, cycle=clean_driver_log.cycle + 1000)
    base = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="estimation")
    trace = run_replay(shifted, GainMatrix(P_TRUE), mode="estimation")
    assert trace.cycle.tolist() == shifted.cycle.tolist()
    assert [(r.cycle, r.gap) for r in trace.replans] == [(r.cycle + 1000, r.gap) for r in base.replans]
    assert any(r.gap for r in trace.replans)
    assert trace.x.tolist() == base.x.tolist()
    out = tmp_path / "replans.json"
    trace.replans_to_json(out)
    assert [e["cycle"] for e in json.loads(out.read_text(encoding="utf-8"))] == [r.cycle for r in trace.replans]
