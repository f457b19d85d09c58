"""Node-distance windows and the node-count sweep on logs they cannot plan
everywhere, and the work the sweep does per plan."""

import dataclasses

import numpy as np
import pytest

from curvepath import calibration
from curvepath.calibration import node_count_tradeoff, optimize_node_distances
from curvepath.planner import NodePointParams
from curvepath.road import AllSkippedError


def test_window_without_valid_corridor_is_skipped(clean_driver_log):
    # c2 = 1.0 gives no valid corridor (see test_corridor_rejection)
    c2 = clean_driver_log.c2.copy()
    c2[[0, 120]] = 1.0
    corrupted = dataclasses.replace(clean_driver_log, c2=c2)
    clean = optimize_node_distances(clean_driver_log, NodePointParams(), window=120, stride=120)
    got = optimize_node_distances(corrupted, NodePointParams(), window=120, stride=120)
    assert got.skipped_windows == clean.skipped_windows + 2
    assert got.window_optima
    assert set(got.window_optima) <= set(clean.window_optima)


def test_sweep_scores_the_timed_plans(clean_driver_log, monkeypatch):
    fits = []
    fit_composite = calibration.fit_composite

    def counting_fit(poses):
        fits.append(1)
        return fit_composite(poses)

    monkeypatch.setattr(calibration, "fit_composite", counting_fit)
    rows = node_count_tradeoff(clean_driver_log, counts=(1, 2), repeats=2)
    replans = len(range(0, len(clean_driver_log), calibration.DEFAULT_RETRIGGER_CYCLES))
    # 2 counts x 2 repeats per replan, and no further plan to score the error
    assert len(fits) == 2 * 2 * replans
    assert [row[0] for row in rows] == [1, 2]


@pytest.mark.parametrize("repeats", [0, -1])
def test_sweep_needs_one_repeat(clean_driver_log, repeats):
    with pytest.raises(ValueError, match="repeats"):
        node_count_tradeoff(clean_driver_log, counts=(1, 2), repeats=repeats)


def test_sweep_skips_a_replan_without_valid_corridor(clean_driver_log):
    c2 = clean_driver_log.c2.copy()
    c2[60] = 1.0  # a replanning row (retrigger 30)
    corrupted = dataclasses.replace(clean_driver_log, c2=c2)
    rows = node_count_tradeoff(corrupted, counts=(1, 2), repeats=1)
    assert rows.skipped_replans == 1
    assert [row[0] for row in rows] == [1, 2]
    assert rows[0][1] == 1.0
    assert node_count_tradeoff(clean_driver_log, counts=(1, 2), repeats=1).skipped_replans == 0


def test_sweep_without_any_valid_corridor_raises(clean_driver_log):
    corrupted = dataclasses.replace(clean_driver_log, c2=np.full_like(clean_driver_log.c2, 1.0))
    replans = len(range(0, len(clean_driver_log), calibration.DEFAULT_RETRIGGER_CYCLES))
    message = f"all {replans} replanning cycles were skipped: {{'corridor': {replans}}}"
    with pytest.raises(AllSkippedError, match=message):
        node_count_tradeoff(corrupted, counts=(1, 2), repeats=1)


@pytest.mark.parametrize("retrigger", [0, -1])
def test_sweep_needs_a_positive_retrigger(clean_driver_log, retrigger):
    with pytest.raises(ValueError, match="retrigger must be at least 1"):
        node_count_tradeoff(clean_driver_log, counts=(1, 2), repeats=1, retrigger=retrigger)
