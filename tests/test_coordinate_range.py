"""A point or polyline too far out to project, or a node row's intercept
too far out to read, raises CoordinateRangeError before numpy warns, so one
absurd recorded position costs one counted window in identification and
one counted gap in replay, under the suite's error::RuntimeWarning filter.
A position in range but far off the drive costs at most its window."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from curvepath import cli
from curvepath.calibration import optimize_node_distances
from curvepath.planner import NodePointParams
from curvepath.road import CoordinateRangeError, LanePolynomial, Pose, corridor_from_polynomial, project_to_polyline
from curvepath.simulate import TRACE_HEADER, extract_measured_offsets

from conftest import P_TRUE
from helpers import far_off

REPLAN_ROW = 300  # a replan row on the S-curve at the default retrigger of 30
NODE_ROW = 278  # the near node row of the replan at row 270


@pytest.fixture(scope="module")
def corridor():
    return corridor_from_polynomial(LanePolynomial(0.2, 0.01, 1e-3, 0.0))


@pytest.mark.parametrize("point", [(1e308, 0.0), (0.0, -1e308), (1e100, 0.0), (np.nan, 0.0), (0.0, np.inf)])
def test_a_point_out_of_range_raises(corridor, point):
    px, py = np.array([3.0, point[0]]), np.array([0.1, point[1]])
    with pytest.raises(CoordinateRangeError) as exc:
        project_to_polyline(corridor.x, corridor.y, px, py)
    assert exc.value.reason == "coordinates"
    with pytest.raises(CoordinateRangeError):
        project_to_polyline(np.concatenate((corridor.x, corridor.x)), np.concatenate((corridor.y, corridor.y)),
                            px, py, [0, len(corridor)], [0, 1])
    with pytest.raises(CoordinateRangeError):
        corridor.project(*point)
    with pytest.raises(CoordinateRangeError):
        corridor.project_many(px, py)


def test_a_corridor_out_of_range_raises(corridor):
    # c0 = 1e308 puts the midline out of range in its own frame, an anchor
    # at x = 1e308 in the global frame
    for far in (corridor_from_polynomial(LanePolynomial(1e308, 0.0, 0.0, 0.0)), corridor.transformed(Pose(1e308, 0.0))):
        with pytest.raises(CoordinateRangeError):
            far.project(1.0, 0.0)
        with pytest.raises(CoordinateRangeError):
            far.project_many(np.array([1.0]), np.array([0.0]))


def test_just_inside_the_range_still_projects(corridor):
    _, offset = corridor.project(10.0, 1e99)
    _, offsets = corridor.project_many(np.array([10.0]), np.array([1e99]))
    assert offset == pytest.approx(1e99) and offsets[0] == pytest.approx(1e99)


def _with_cell(log, column, row, value):
    values = getattr(log, column).copy()
    values[row] = value
    return dataclasses.replace(log, **{column: values})


def test_one_far_point_costs_one_window(clean_driver_log):
    clean = optimize_node_distances(clean_driver_log, NodePointParams(), window=120, stride=120)
    got = optimize_node_distances(_with_cell(clean_driver_log, "x", 250, 1e308), NodePointParams(),
                                  window=120, stride=120)
    assert got.skips == {**clean.skips, "coordinates": clean.skips.get("coordinates", 0) + 1}
    assert got.skipped_windows == clean.skipped_windows + 1
    assert got.window_optima and set(got.window_optima) <= set(clean.window_optima)
    assert len(got.window_optima) + got.flat_windows == len(clean.window_optima) + clean.flat_windows - 1



def test_an_outlying_point_costs_at_most_its_window(winding_log):
    """x = 1e50 on row 450, inside the second of six 400-row windows, can be
    projected, but a node placed on it gives paths about 1e50 m long. Those
    give no cost instead of a sample per metre, so that window is flat and
    the other five keep their optima to the bit."""
    clean = optimize_node_distances(winding_log, NodePointParams())
    got = optimize_node_distances(_with_cell(winding_log, "x", 450, 1e50), NodePointParams())
    assert (len(clean.window_optima), clean.flat_windows, clean.skips) == (6, 0, {})
    assert (got.flat_windows, got.skips) == (1, {})
    assert got.window_optima == clean.window_optima[:1] + clean.window_optima[2:]


@pytest.mark.parametrize("c0", [1e308, -1e100])
def test_a_far_node_intercept_raises_naming_its_cycle(clean_driver_log, c0):
    with pytest.raises(CoordinateRangeError, match="at cycle 278, a node point of cycle 270") as exc:
        extract_measured_offsets(_with_cell(clean_driver_log, "c0", NODE_ROW, c0), 270, NodePointParams())
    assert exc.value.reason == "coordinates"
    near = extract_measured_offsets(_with_cell(clean_driver_log, "c0", NODE_ROW, 9.9e99), 270, NodePointParams())
    assert near.as_array()[0] == -9.9e99


@pytest.fixture(scope="module")
def clean_files(clean_driver_log, tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    (out / "gains.json").write_text(json.dumps(P_TRUE.ravel().tolist()), encoding="utf-8")
    clean_driver_log.write_csv(out / "log.csv")
    return out


def _gap_reasons(log_path, out_dir, mode, gains) -> Counter:
    prefix = out_dir / mode
    argv = ["simulate", "--log", str(log_path), "--mode", mode, "--out-prefix", str(prefix)]
    assert cli.main([*argv, "--gains", str(gains)] if mode == "validation" else argv) == 0
    entries = json.loads((out_dir / f"{mode}_replans.json").read_text(encoding="utf-8"))
    return Counter(entry["reason"] for entry in entries if entry["gap"])


@pytest.mark.parametrize("column", ["x", "c0"])
def test_one_far_replan_row_costs_one_gap(column, clean_driver_log, clean_files, tmp_path):
    log_path = tmp_path / "log.csv"
    _with_cell(clean_driver_log, column, REPLAN_ROW, 1e308).write_csv(log_path)
    gains = clean_files / "gains.json"
    for mode in ("validation", "estimation"):
        clean = _gap_reasons(clean_files / "log.csv", clean_files, mode, gains)
        got = _gap_reasons(log_path, tmp_path, mode, gains)
        assert got - clean == Counter(coordinates=1) and not clean - got


def test_calibrate_names_the_lost_window(clean_driver_log, tmp_path, capsys):
    # the 745-row log holds one 400-row window, so losing it loses the optimisation
    log_path = tmp_path / "log.csv"
    _with_cell(clean_driver_log, "x", REPLAN_ROW, 1e308).write_csv(log_path)
    out = tmp_path / "calibration.json"
    argv = ["calibrate", "--log", str(log_path), "--out", str(out)]
    assert cli.main(argv) == 0
    assert cli.main([*argv, "--optimize-distances"]) == 2
    err = capsys.readouterr().err
    assert "{'coordinates': 1}" in err and "Traceback" not in err


@pytest.mark.parametrize("column", ["speed", "t"])
def test_simulate_names_the_rows_too_far_out_to_project(synth_log, column, tmp_path, capsys):
    log_path = far_off(synth_log, column, tmp_path / "log.csv")
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps((P_TRUE * 1e150).ravel().tolist()), encoding="utf-8")
    prefix = tmp_path / "far"
    argv = ["simulate", "--mode", "validation", "--gains", str(gains), "--log", str(log_path)]
    assert cli.main([*argv, "--out-prefix", str(prefix)]) == 0
    out = capsys.readouterr().out
    trace = np.loadtxt(f"{prefix}_trace.csv", delimiter=",", skiprows=1)
    assert len(trace) == len(synth_log)
    columns = TRACE_HEADER.split(",")
    offset, path_id = trace[:, columns.index("offset")], trace[:, columns.index("path_id")]
    lost = int(np.count_nonzero(np.isnan(offset) & (path_id >= 0)))
    assert lost > 0
    assert f"followed rows without an offset {{'coordinates': {lost}}}" in out
    replans = json.loads(prefix.with_name("far_replans.json").read_text(encoding="utf-8"))
    gaps = Counter(entry["reason"] for entry in replans if entry["gap"])
    assert f"gaps {dict(gaps)}" in out and gaps["coordinates"] > 0
