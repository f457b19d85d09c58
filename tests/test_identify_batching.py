"""Identification and the node-count sweep batch their work without moving a
bit: grid costs scored in chunked many-polyline projections equal one
projection per candidate, the sweep's error column equals one projection per
path, a window's memo of fits fits each pose pair once and gives the
segments a fit without it gives, and the search finds what it finds with
the formulas that CompositePath.sample and project_to_polyline replaced."""

import math

import numpy as np
import pytest

from curvepath import calibration, clothoid, road
from curvepath.calibration import (
    _sample_intervals,
    _window_cost,
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


@pytest.mark.parametrize("budget", [None, 500, 1])
def test_grid_costs_match_one_window_cost_per_candidate(clean_driver_log, budget, monkeypatch):
    """With the vertex budget as it is, at about three paths and at one
    vertex, so that every path ends a chunk."""
    if budget is not None:
        monkeypatch.setattr(road, "PROJECT_VERTICES", budget)
    windows = []  # per grid: the candidates' arguments, the costs and the chunk calls
    candidate_path, grid_costs = calibration._candidate_path, calibration._grid_costs

    def recorded_candidate(*args):
        if windows and "costs" not in windows[-1]:  # the grid phase, not the search
            windows[-1]["candidates"].append(args)
        return candidate_path(*args)

    def counted(*args):
        windows[-1]["chunks"] += 1
        return project_to_polyline(*args)

    def recorded_grid(paths, pts):
        windows.append({"candidates": [], "chunks": 0, "pts": pts})
        with monkeypatch.context() as patch:
            patch.setattr(road, "project_to_polyline", counted)
            windows[-1]["costs"] = grid_costs(paths, pts)
        return windows[-1]["costs"]

    monkeypatch.setattr(calibration, "_candidate_path", recorded_candidate)
    monkeypatch.setattr(calibration, "_grid_costs", recorded_grid)
    optimize_node_distances(clean_driver_log, NodePointParams(), window=WINDOW, stride=STRIDE)
    monkeypatch.undo()

    assert len(windows) >= 2
    for window in windows:
        costs = window["costs"]
        assert len(costs) == len(window["candidates"])
        assert any(map(math.isfinite, costs))
        for (cand, corridor, stations, offsets, anchor_pose, _), cost in zip(window["candidates"], costs):
            # no memo: the memo must not move a bit either
            assert cost == _window_cost(cand, corridor, window["pts"], stations, offsets, anchor_pose)
        scored = sum(map(math.isfinite, costs))
        if budget is None:
            assert 2 <= window["chunks"] < scored
        else:
            assert window["chunks"] >= 2
        if budget == 1:
            assert window["chunks"] == scored


def test_sweep_errors_match_one_projection_per_path(clean_driver_log, monkeypatch):
    counts = (1, 2, 4, 7)
    plans = []
    real_fit = calibration.fit_composite

    def recorded_fit(poses, fits=None):
        plans.append(real_fit(poses, fits))
        return plans[-1]

    monkeypatch.setattr(calibration, "fit_composite", recorded_fit)
    rows = node_count_tradeoff(clean_driver_log, counts=counts, repeats=1)
    monkeypatch.undo()

    corridors = [clean_driver_log.corridor(row)
                 for row in range(0, len(clean_driver_log), calibration.DEFAULT_RETRIGGER_CYCLES)]
    assert rows.skipped_replans == 0 and len(plans) == len(corridors) * len(counts)
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

    def sample(path, stations):
        calls["sample"] += 1
        return reference_sample(path, stations)[0]

    def project(*args):
        calls["project"] += 1
        return reference_project_to_polyline(*args)

    monkeypatch.setattr(clothoid.CompositePath, "sample", sample)
    for module in (road, calibration):
        monkeypatch.setattr(module, "project_to_polyline", project)
    reference = optimize_node_distances(log, initial, window=120, stride=110)
    assert calls["sample"] > 200 and calls["project"] > 100
    assert reference.window_optima == found.window_optima
    assert reference.params == found.params
