"""A lane polynomial that gives no valid corridor costs one cycle, not the run."""

import dataclasses

import numpy as np
import pytest

from curvepath.calibration import assemble_dataset
from curvepath.planner import GainMatrix
from curvepath.road import CorridorError, LanePolynomial, corridor_from_polynomial
from curvepath.simulate import run_replay

from conftest import P_TRUE

BAD_ROW = 60  # a replan row at the default retrigger of 30


def test_corrupted_replan_row_is_one_gap_and_one_skip(clean_driver_log):
    with pytest.raises(CorridorError):
        corridor_from_polynomial(LanePolynomial(0.0, 0.0, 1.0, 0.0))
    c2 = clean_driver_log.c2.copy()
    c2[BAD_ROW] = 1.0
    corrupted = dataclasses.replace(clean_driver_log, c2=c2)

    clean = assemble_dataset(clean_driver_log)
    data = assemble_dataset(corrupted)
    assert data.skipped == clean.skipped + 1
    assert data.n_cycles == clean.n_cycles - 1

    for mode in ("validation", "estimation"):
        want = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode=mode)
        got = run_replay(corrupted, GainMatrix(P_TRUE), mode=mode)
        gaps = [r.cycle for r in got.replans if r.gap]
        assert gaps == sorted([BAD_ROW, *(r.cycle for r in want.replans if r.gap)])
        # the plan from the cycle before stays active until the next replan
        before = slice(0, BAD_ROW)
        assert np.array_equal(got.x[before], want.x[before])
        assert got.path_id[BAD_ROW] == got.path_id[BAD_ROW - 1]
