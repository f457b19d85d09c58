"""Every skipped replan, calibration cycle and window is counted by the reason
its SkipError names, and the per-reason counts sum to the existing totals."""

import dataclasses
import json
import re
from collections import Counter

import numpy as np
import pytest

from curvepath import calibration, cli, planner
from curvepath.calibration import (
    assemble_dataset,
    node_count_tradeoff,
    optimize_node_distances,
)
from curvepath.clothoid import FitError
from curvepath.planner import DEFAULT_RETRIGGER_CYCLES, GainMatrix, NodePointParams
from curvepath.road import AllSkippedError, CoordinateRangeError, SkipError
from curvepath.simulate import ResolutionError, extract_measured_offsets, load_drive_log, run_replay

from conftest import P_TRUE

BAD_ROWS = [0, 120]  # replan rows at the default retrigger of 30; c2 = 1.0 gives no corridor
FIT_ROW = 60  # the third replan row at the default retrigger of 30


@pytest.fixture(scope="module")
def corrupted_log(clean_driver_log):
    c2 = clean_driver_log.c2.copy()
    c2[BAD_ROWS] = 1.0
    return dataclasses.replace(clean_driver_log, c2=c2)


def _gap_reasons(trace) -> Counter:
    return Counter(rec.reason for rec in trace.replans if rec.gap)


def _skip_errors(cls=SkipError) -> list:
    """Every SkipError subclass the program defines, at any depth."""
    found = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("curvepath."):
            found.append(sub)
        found += _skip_errors(sub)
    return found


def _builtin_base(error) -> type:
    return next(base for base in error.__mro__ if base.__module__ == "builtins")


@pytest.mark.parametrize(
    "error", _skip_errors(), ids=lambda e: f"{e.__name__}-{vars(e).get('reason')}-{_builtin_base(e).__name__}"
)
def test_each_skip_exception_names_its_reason(error):
    # its own reason, set on the class; and one that escapes a command exits 2
    assert isinstance(vars(error).get("reason"), str)
    assert error("x").reason == error.reason
    assert issubclass(_builtin_base(error), cli.DATA_ERRORS)


def test_skip_reasons_are_unique():
    reasons = [error.reason for error in _skip_errors()]
    assert len(set(reasons)) == len(reasons)
    assert set(reasons) >= {"corridor", "preview", "fit", "coordinates", "few_stations", "no_finite_cost",
                            "resolution"}


def test_replay_gaps_name_the_corridor(corrupted_log):
    trace = run_replay(corrupted_log, GainMatrix(P_TRUE))
    gaps = [rec for rec in trace.replans if rec.gap]
    assert _gap_reasons(trace) == {"corridor": 2}
    assert sum(_gap_reasons(trace).values()) == len(gaps)
    assert [rec.cycle for rec in gaps] == BAD_ROWS
    assert all(rec.reason is None for rec in trace.replans if not rec.gap)


def test_replay_gap_names_a_failed_fit(clean_driver_log, monkeypatch):
    fit_composite = planner.fit_composite
    calls = []

    def fit_failing_at_the_third_plan(poses):
        calls.append(poses)
        if len(calls) == 3:
            raise FitError("no root")
        return fit_composite(poses)

    monkeypatch.setattr(planner, "fit_composite", fit_failing_at_the_third_plan)
    trace = run_replay(clean_driver_log, GainMatrix(P_TRUE))
    gaps = [rec for rec in trace.replans if rec.gap]
    # the first two replans plan, the third reaches its fit and fails there
    assert [(rec.cycle, rec.reason) for rec in gaps if rec.reason == "fit"] == [(FIT_ROW, "fit")]
    assert sum(_gap_reasons(trace).values()) == len(gaps)


def test_replay_counts_overflowing_fits_as_fit_gaps(clean_driver_log):
    """Gains of 1e305 put the nodes of every replan on a curve up to about
    1e303 m off the midline. Each such fit overflows and is a "fit" gap;
    the replans on the straight approach, with zero curvature input, plan."""
    clean = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="validation")
    huge = run_replay(clean_driver_log, GainMatrix(1e305 * np.eye(3)), mode="validation")
    assert not any(rec.gap for rec in clean.replans)
    curved = [rec.cycle for rec in clean.replans if rec.curvature_input.as_array().any()]
    assert len(curved) > 20
    assert [(rec.cycle, rec.reason) for rec in huge.replans if rec.gap] == [(cycle, "fit") for cycle in curved]
    assert [rec.cycle for rec in huge.replans] == [rec.cycle for rec in clean.replans]
    assert all(rec.offsets.max_abs() == 0.0 for rec in huge.replans if not rec.gap)


def test_dataset_counts_corridor_and_preview(corrupted_log):
    data = assemble_dataset(corrupted_log)
    assert data.skips == {"corridor": 2, "preview": 3}
    assert data.skipped == sum(data.skips.values())
    assert data.n_cycles + data.skipped == len(range(0, len(corrupted_log), DEFAULT_RETRIGGER_CYCLES))


def test_windows_count_corridor(corrupted_log):
    got = optimize_node_distances(corrupted_log, NodePointParams(), window=120, stride=120)
    assert got.skips == {"corridor": 2}
    assert got.skipped_windows == sum(got.skips.values())


def test_windows_count_no_finite_cost(clean_driver_log, monkeypatch):
    fit_composite = calibration.fit_composite
    failing_anchor = clean_driver_log.pose(120)

    def fit_failing_at_one_anchor(poses, fits=None):
        if poses[0] == failing_anchor:
            raise FitError("no root")
        return fit_composite(poses)

    clean = optimize_node_distances(clean_driver_log, NodePointParams(), window=120, stride=120)
    monkeypatch.setattr(calibration, "fit_composite", fit_failing_at_one_anchor)
    got = optimize_node_distances(clean_driver_log, NodePointParams(), window=120, stride=120)
    assert got.skips == {**clean.skips, "no_finite_cost": 1}
    assert got.skipped_windows == sum(got.skips.values()) == clean.skipped_windows + 1


def test_a_skip_past_a_windows_geometry_costs_that_window(clean_driver_log, monkeypatch):
    grid_costs = calibration._grid_costs
    calls = []

    def grid_failing_once(paths, pts):
        calls.append(1)
        if len(calls) == 2:
            raise CoordinateRangeError("far")
        return grid_costs(paths, pts)

    clean = optimize_node_distances(clean_driver_log, NodePointParams(), window=120, stride=120)
    monkeypatch.setattr(calibration, "_grid_costs", grid_failing_once)
    got = optimize_node_distances(clean_driver_log, NodePointParams(), window=120, stride=120)
    assert got.skips == {**clean.skips, "coordinates": 1}
    used = len(got.window_optima) + got.flat_windows
    assert used == len(clean.window_optima) + clean.flat_windows - 1


def test_sweep_counts_corridor(corrupted_log):
    rows = node_count_tradeoff(corrupted_log, counts=(1, 2), repeats=1)
    assert rows.skips == {"corridor": 2}
    assert rows.skipped_replans == sum(rows.skips.values())


def _calibrate(log, tmp_path) -> tuple[int, dict | None]:
    log_path = tmp_path / "log.csv"
    log.write_csv(log_path)
    out = tmp_path / "calibration.json"
    argv = ["calibrate", "--log", log_path, "--out", out, "--optimize-distances", "--sweep-nodes",
            "--sweep-out", tmp_path / "sweep.csv"]
    code = cli.main([str(a) for a in argv])
    return code, json.loads(out.read_text(encoding="utf-8")) if out.exists() else None


def test_calibration_json_names_the_reasons(clean_driver_log, tmp_path):
    c2 = clean_driver_log.c2.copy()
    c2[[60, 120]] = 1.0
    code, payload = _calibrate(dataclasses.replace(clean_driver_log, c2=c2), tmp_path)
    assert code == 0
    dataset, windows = payload["dataset"], payload["distance_optimization"]
    assert dataset["skipped_by_reason"] == {"corridor": 2, "preview": 3}
    assert dataset["skipped"] == 5
    # the log's one 400-row window covers only the straight approach
    assert (windows["skipped_by_reason"], windows["skipped_windows"], windows["flat_windows"]) == ({}, 0, 1)
    assert payload["node_count_sweep"] == {"skipped_by_reason": {"corridor": 2}, "skipped_replans": 2}


def test_calibration_error_names_the_reason(corrupted_log, tmp_path, capsys):
    # the log's one 400-row window starts at the corrupted row 0
    assert _calibrate(corrupted_log, tmp_path) == (2, None)
    err = capsys.readouterr().err
    assert "all 1 identification windows were skipped: {'corridor': 1}" in err
    assert "Traceback" not in err


def test_short_preview_errors_name_the_reason(clean_driver_log):
    short = dataclasses.replace(clean_driver_log, preview_length=10.0)
    with pytest.raises(AllSkippedError, match="all 6 identification windows were skipped: {'few_stations': 6}"):
        optimize_node_distances(short, NodePointParams(), window=120, stride=120)
    replans = len(range(0, len(short), DEFAULT_RETRIGGER_CYCLES))
    message = f"all {replans} replanning cycles were skipped: {{'preview': {replans}}}"
    with pytest.raises(AllSkippedError, match=message):
        assemble_dataset(short)


def test_sweep_error_names_the_reason(clean_driver_log):
    corrupted = dataclasses.replace(clean_driver_log, c2=np.full_like(clean_driver_log.c2, 1.0))
    replans = len(range(0, len(clean_driver_log), DEFAULT_RETRIGGER_CYCLES))
    message = f"all {replans} replanning cycles were skipped: {{'corridor': {replans}}}"
    with pytest.raises(AllSkippedError, match=message):
        node_count_tradeoff(corrupted, counts=(1, 2), repeats=1)


def test_replay_error_names_the_reasons(clean_driver_log):
    replans = len(range(0, len(clean_driver_log), DEFAULT_RETRIGGER_CYCLES))
    message = f"all {replans} replans were skipped: {{'preview': {replans}}}"
    with pytest.raises(AllSkippedError, match=message):
        run_replay(clean_driver_log, GainMatrix(P_TRUE), NodePointParams(10.0, 39.0, 200.0))


def test_dataset_sweep_and_replay_agree_on_the_reason(tmp_path):
    # the command line's default synthetic log: its last replans lack preview
    assert cli.main(["synth", "--drivers", "1", "--out-dir", str(tmp_path)]) == 0
    entry_log = load_drive_log(tmp_path / "driver_01.csv")
    assert assemble_dataset(entry_log).skips == {"preview": 3}
    # with no corridor anywhere they count as corridor skips in every loop,
    # and each loop, keeping nothing, raises one error in one form
    no_corridor = dataclasses.replace(entry_log, c2=np.full_like(entry_log.c2, 1.0))
    replans = len(range(0, len(entry_log), DEFAULT_RETRIGGER_CYCLES))

    def all_skipped(n, units):
        message = f"all {n} {units} were skipped: {{'corridor': {n}}}"
        return pytest.raises(AllSkippedError, match=f"^{re.escape(message)}$")

    with all_skipped(replans, "replanning cycles"):
        assemble_dataset(no_corridor)
    with all_skipped(replans, "replanning cycles"):
        node_count_tradeoff(no_corridor, counts=(1, 2), repeats=1)
    with all_skipped(1, "identification windows"):
        optimize_node_distances(no_corridor, NodePointParams())
    with all_skipped(replans, "replans"):
        run_replay(no_corridor, GainMatrix(P_TRUE), mode="estimation")


def test_a_log_too_coarse_for_its_node_points_names_the_resolution(noise_free_winding_csv, tmp_path, capsys):
    # t in milliseconds read as seconds: 1250 m per cycle puts every node
    # point of a replan on its own row, where it would read the current
    # offset three times over
    log = load_drive_log(noise_free_winding_csv)
    coarse = dataclasses.replace(log, t=log.t * 1000, sample_time=None)
    message = ("cycle 0 travels 1250 m per cycle, too far to place node points 10, 39, 137 m ahead on "
               "distinct later rows")
    with pytest.raises(ResolutionError, match=f"^{re.escape(message)}$"):
        extract_measured_offsets(coarse, 0, NodePointParams())
    coarse.write_csv(tmp_path / "coarse.csv")
    out = tmp_path / "calibration.json"
    assert cli.main(["calibrate", "--log", str(tmp_path / "coarse.csv"), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "all 87 replanning cycles were skipped: {'resolution': 87}" in err
    assert "Traceback" not in err
