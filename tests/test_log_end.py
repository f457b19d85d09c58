"""Node points that fall past the last row of a drive log.

Near the end of a log the row nearest a node distance can be the one the
log would hold a cycle after it ends. That node has no recorded offset, so
it must count as missing preview, not name a row that does not exist.
"""

import pytest

from curvepath.calibration import assemble_dataset
from curvepath.planner import GainMatrix, NodePointParams
from curvepath.road import InsufficientPreviewError
from curvepath.simulate import node_row_indices, run_replay


def test_node_nearest_the_row_after_the_log_is_missing_preview(clean_driver_log):
    n = len(clean_driver_log)
    step = float(clean_driver_log.speed[-1]) * clean_driver_log.sample_time
    row = n - 20
    # the last row sits 19 steps ahead; half a step past it is still nearest
    assert node_row_indices(clean_driver_log, row, (19.4 * step,)) == [n - 1]
    with pytest.raises(InsufficientPreviewError, match="before the node point"):
        node_row_indices(clean_driver_log, row, (19.6 * step,))
    with pytest.raises(InsufficientPreviewError):
        node_row_indices(clean_driver_log, row, (20.0 * step,))


def test_estimation_replay_records_a_gap(winding_log):
    # at retrigger 7 the far node of cycle 2492 lies past the last row 2600
    trace = run_replay(winding_log, GainMatrix.zeros(), retrigger=7, mode="estimation")
    gaps = {rec.cycle for rec in trace.replans if rec.gap}
    assert 2492 in gaps
    assert not any(rec.gap for rec in trace.replans if rec.cycle < 2492)
    for rec in trace.replans:
        if not rec.gap:
            rows = node_row_indices(winding_log, rec.cycle, NodePointParams().distances)
            assert max(rows) < len(winding_log)


def test_calibration_skips_the_cycle(winding_log):
    dataset = assemble_dataset(winding_log, retrigger=7)
    cycles = len(range(0, len(winding_log), 7))
    assert dataset.n_cycles + dataset.skipped == cycles
    assert dataset.skipped >= 1
