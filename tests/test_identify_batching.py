"""Identification and the node-count sweep batch their work without moving a
bit: grid costs sampled in one sample_paths call per chunk and scored in
chunked many-polyline projections equal one sample and one projection per
candidate, each search evaluation is scored by the same rule in one
one-path sample and one one-polyline projection, the sweep's error column
equals one sample and one projection per path, a window's memo of fits fits
each pose pair once and gives the segments a fit without it gives, and the
search finds what it finds with the formulas that sample_paths and
project_to_polyline replaced."""

import math

import numpy as np
import pytest

from curvepath import calibration, clothoid, road
from curvepath.calibration import (
    _candidate_path,
    _sample_intervals,
    node_count_tradeoff,
    optimize_node_distances,
)
from curvepath.clothoid import FitError, fit_composite
from curvepath.planner import NodePointParams
from curvepath.road import Pose, project_to_polyline
from curvepath.simulate import build_scenario_road, winding_scenario

from helpers import build_chained_node_log
from test_composite_sample_bits import reference_sample
from test_projection_bits import reference_project_to_polyline

WINDOW = 120
STRIDE = 240  # every other window, to keep the suite quick


def _record_scoring(monkeypatch):
    """Per window, per _grid_costs call (the grid first, then one per search
    evaluation): its candidates' arguments, its costs, the argument count of
    each project_to_polyline call it made and the path count of each
    sample_paths call."""
    windows = []
    geometry = calibration._window_geometry
    candidate_path, grid_costs = calibration._candidate_path, calibration._grid_costs
    sample_paths = calibration.sample_paths

    def recorded_geometry(*args):
        windows.append([])
        return geometry(*args)

    def recorded_candidate(*args):
        windows[-1][-1]["candidates"].append(args)
        return candidate_path(*args)

    def counted(*args):
        windows[-1][-1]["calls"].append(len(args))
        return project_to_polyline(*args)

    def counted_samples(paths, stations):
        windows[-1][-1]["samples"].append(len(paths))
        return sample_paths(paths, stations)

    def recorded_grid(paths, pts):
        windows[-1].append({"candidates": [], "calls": [], "samples": [], "pts": pts})
        with monkeypatch.context() as patch:
            patch.setattr(road, "project_to_polyline", counted)
            patch.setattr(calibration, "sample_paths", counted_samples)
            windows[-1][-1]["costs"] = grid_costs(paths, pts)
        return windows[-1][-1]["costs"]

    monkeypatch.setattr(calibration, "_window_geometry", recorded_geometry)
    monkeypatch.setattr(calibration, "_candidate_path", recorded_candidate)
    monkeypatch.setattr(calibration, "_grid_costs", recorded_grid)
    return windows


def _one_polyline_cost(candidate_args, pts) -> float:
    """The mean distance of the recorded points to the candidate's path, by
    a one-path sample at most a metre apart and a one-polyline projection of
    a path fitted without the window's memos."""
    cand, corridor, stations, offsets, anchor_pose, _, _ = candidate_args
    path = _candidate_path(cand, corridor, stations, offsets, anchor_pose, fits={}, nodes={})
    if path is None:
        return math.inf
    px, py, _ = path.sample(np.linspace(0.0, path.length, _sample_intervals(path.length) + 1))
    _, _, signed = project_to_polyline(px, py, pts[:, 0], pts[:, 1])
    return float(np.mean(np.abs(signed)))


@pytest.mark.parametrize("budget", [None, 500, 1])
def test_grid_costs_match_one_window_cost_per_candidate(clean_driver_log, budget, monkeypatch):
    """With the vertex budget as it is, at about three paths and at one
    vertex, so that every path ends a chunk."""
    if budget is not None:
        monkeypatch.setattr(road, "PROJECT_VERTICES", budget)
    windows = _record_scoring(monkeypatch)
    optimize_node_distances(clean_driver_log, NodePointParams(), window=WINDOW, stride=STRIDE)
    monkeypatch.undo()

    grids = [scoring[0] for scoring in windows if scoring]
    assert len(grids) >= 2
    for grid in grids:
        costs = grid["costs"]
        assert len(costs) == len(grid["candidates"]) > 1
        assert any(map(math.isfinite, costs))
        for args, cost in zip(grid["candidates"], costs):
            # no memo: the memo must not move a bit either
            assert cost == _one_polyline_cost(args, grid["pts"])
        scored = sum(map(math.isfinite, costs))
        chunks = len(grid["calls"])
        # one sample_paths call per chunk, just before its projection, with
        # every path of the chunk: one call per path would fail here
        assert len(grid["samples"]) == chunks and sum(grid["samples"]) == scored
        if budget is None:
            assert 2 <= chunks < scored
        else:
            assert chunks >= 2
        if budget == 1:
            # every chunk a lone pair, so a one-polyline call
            assert grid["calls"] == [4] * scored


def test_each_search_evaluation_is_one_one_polyline_projection(clean_driver_log, monkeypatch):
    windows = _record_scoring(monkeypatch)
    found = optimize_node_distances(clean_driver_log, NodePointParams(), window=WINDOW, stride=STRIDE)
    monkeypatch.undo()

    searched = [scoring for scoring in windows if len(scoring) > 1]
    assert len(searched) == len(found.window_optima) >= 2
    for scoring, optimum in zip(searched, found.window_optima):
        for evaluation in scoring[1:]:
            (args,), (cost,) = evaluation["candidates"], evaluation["costs"]
            assert cost == _one_polyline_cost(args, evaluation["pts"])
            assert evaluation["calls"] == ([4] if math.isfinite(cost) else [])
            assert evaluation["samples"] == ([1] if math.isfinite(cost) else [])
        # the window reports the grid's best or the search's last candidate
        assert optimum[3] in (*scoring[0]["costs"], *scoring[-1]["costs"])


def test_sweep_errors_match_one_projection_per_path(clean_driver_log, monkeypatch):
    counts = (1, 2, 4, 7)
    plans = []
    real_fit = calibration.fit_composite

    def recorded_fit(poses, fits=None):
        plans.append(real_fit(poses, fits))
        return plans[-1]

    sampled = []  # per sample_paths call, its path count
    sample_paths = calibration.sample_paths

    def counted_samples(paths, stations):
        sampled.append(len(paths))
        return sample_paths(paths, stations)

    monkeypatch.setattr(calibration, "fit_composite", recorded_fit)
    monkeypatch.setattr(calibration, "sample_paths", counted_samples)
    rows = node_count_tradeoff(clean_driver_log, counts=counts, repeats=1)
    monkeypatch.undo()

    corridors = [clean_driver_log.corridor(row)
                 for row in range(0, len(clean_driver_log), calibration.DEFAULT_RETRIGGER_CYCLES)]
    assert rows.skipped_replans == 0 and len(plans) == len(corridors) * len(counts)
    # one call per corridor, with every count's path
    assert sampled == [len(counts)] * len(corridors)
    errors = []
    for i, count in enumerate(counts):
        per_replan = []
        for j, corridor in enumerate(corridors):
            path = plans[j * len(counts) + i]
            assert len(path.segments) == count
            n = _sample_intervals(path.length)
            px, py, _ = path.sample(np.linspace(0.0, path.length, n + 1))
            _, offsets = corridor.project_many(px, py)
            per_replan.append(float(np.mean(np.abs(offsets))))
        errors.append(float(np.mean(per_replan)))
    assert [row[1] for row in rows] == [err / max(errors) for err in errors]


def _counting_fit_g1(monkeypatch):
    calls = []
    fit_g1 = clothoid.fit_g1

    def counted(start, end):
        calls.append((start, end))
        return fit_g1(start, end)

    monkeypatch.setattr(clothoid, "fit_g1", counted)
    return calls


def test_memo_fits_each_pose_pair_once(monkeypatch):
    p = [Pose(0.0, 0.0, 0.0), Pose(20.0, 1.0, 0.1), Pose(40.0, 0.5, -0.05), Pose(65.0, 2.0, 0.02), Pose(90.0, 1.0, 0.0)]
    chains = [p, p[:3], [p[0], p[1], p[3]], p[1:], [p[0], p[2], p[3], p[4]], p]
    pairs = {pair for chain in chains for pair in zip(chain, chain[1:])}
    calls = _counting_fit_g1(monkeypatch)
    fits = {}
    memoised = [fit_composite(chain, fits) for chain in chains]
    assert len(calls) == len(set(calls)) == len(pairs) and set(calls) == pairs
    assert set(fits) == pairs
    monkeypatch.undo()
    for chain, path in zip(chains, memoised):
        assert path.segments == fit_composite(chain).segments


def test_identification_fits_each_pose_pair_once_per_window(clean_driver_log, monkeypatch):
    calls = _counting_fit_g1(monkeypatch)
    memoised = optimize_node_distances(clean_driver_log, NodePointParams(), window=WINDOW, stride=STRIDE)
    assert memoised.window_optima
    # windows share no pair: each places its nodes from its own anchor
    assert len(calls) == len(set(calls))

    real_fit = calibration.fit_composite
    monkeypatch.setattr(calibration, "fit_composite", lambda poses, fits=None: real_fit(poses))
    calls.clear()
    plain = optimize_node_distances(clean_driver_log, NodePointParams(), window=WINDOW, stride=STRIDE)
    assert len(calls) > len(set(calls))
    assert plain.params == memoised.params and plain.window_optima == memoised.window_optima


def test_cached_failure_raises_a_new_fit_error(monkeypatch):
    # the second pair is coincident, so its fit fails
    chain = (Pose(0.0, 0.0, 0.0), Pose(10.0, 0.0, 0.0), Pose(10.0, 0.0, 0.0))
    with pytest.raises(FitError) as plain:
        fit_composite(chain)
    calls = _counting_fit_g1(monkeypatch)
    fits = {}
    with pytest.raises(FitError) as first:
        fit_composite(chain, fits)
    assert len(calls) == 2
    assert isinstance(fits[chain[1], chain[2]], str)
    with pytest.raises(FitError) as again:
        fit_composite(chain, fits)
    assert len(calls) == 2  # nothing fitted again
    assert again.value is not first.value
    assert type(again.value) is FitError and again.value.reason == "fit"
    assert str(again.value) == str(first.value) == str(plain.value)
    assert str(again.value).startswith("segment 1: endpoints are coincident")


def test_identification_sees_the_bits_of_the_replaced_formulas(monkeypatch):
    """A chained log as the benchmark builds one: two three-piece plans with
    node distances (10, 39, 137) m on the 10-curve winding road, a preview
    3 m past the far node, one 120-row window. Nelder-Mead's
    path depends on every bit of every cost, so the optima must not move
    when sampling and projection run on the reference formulas."""
    truth = NodePointParams(10.0, 39.0, 137.0)
    log = build_chained_node_log(build_scenario_road(winding_scenario(10)), truth, n_blocks=2, block_rows=110,
                                 preview=140.0)
    initial = NodePointParams(20.0, 60.0, 180.0)
    found = optimize_node_distances(log, initial, window=120, stride=110)
    assert len(found.window_optima) == 1
    assert np.allclose(found.params.distances, truth.distances, rtol=0.0, atol=2.0)

    calls = {"sample": 0, "project": 0}

    def sample_paths(paths, stations):
        calls["sample"] += len(paths)
        return [reference_sample(path, part)[0] for path, part in zip(paths, stations, strict=True)]

    def project(*args):
        calls["project"] += 1
        return reference_project_to_polyline(*args)

    monkeypatch.setattr(calibration, "sample_paths", sample_paths)
    monkeypatch.setattr(road, "project_to_polyline", project)
    reference = optimize_node_distances(log, initial, window=120, stride=110)
    # paths sampled and projections made
    assert calls["sample"] > 200 and calls["project"] > 100
    assert reference.window_optima == found.window_optima
    assert reference.params == found.params
