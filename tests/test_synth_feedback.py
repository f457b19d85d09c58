"""Synthetic drives fit their lane polynomials one retrigger block at a
time; every logged row must still be the one-row fit at its own pose."""

import numpy as np
import pytest

from conftest import P_TRUE
from curvepath.calibration import assemble_dataset, fit_gain_matrix
from curvepath.planner import GainMatrix
from curvepath.simulate import (
    SyntheticDriverSpec,
    build_scenario_road,
    fit_lane_polynomial,
    generate_synthetic_driver_log,
    winding_scenario,
)

WINDING_GAINS = np.diag([30.0, 40.0, 50.0]) + 2.0


@pytest.fixture(scope="module")
def winding():
    road = build_scenario_road(winding_scenario())
    driver = SyntheticDriverSpec(gains_true=GainMatrix(WINDING_GAINS), seed=4)
    return road, generate_synthetic_driver_log(road, driver)


def assert_rows_are_one_row_fits(road, log):
    step = float(log.speed[0]) * log.sample_time
    for i in range(len(log)):
        poly = fit_lane_polynomial(
            road, log.pose(i), i * step, anchor_c0=float(log.c0[i]), anchor_c1=float(log.c1[i])
        )
        assert (poly.c2, poly.c3) == (log.c2[i], log.c3[i]), f"row {i}"


def test_s_curve_rows_are_one_row_fits(s_curve_road, clean_driver_log):
    assert_rows_are_one_row_fits(s_curve_road, clean_driver_log)


def test_winding_rows_are_one_row_fits(winding):
    assert_rows_are_one_row_fits(*winding)


def test_winding_gains_recovered(winding):
    _, log = winding
    gains = fit_gain_matrix(assemble_dataset(log)).gains.p
    assert np.max(np.abs(gains - WINDING_GAINS)) <= 1e-9


def test_same_seed_same_bytes(s_curve_road, tmp_path):
    driver = SyntheticDriverSpec(gains_true=GainMatrix(P_TRUE), offset_noise_sigma=0.05, seed=3)
    for name in ("a.csv", "b.csv"):
        generate_synthetic_driver_log(s_curve_road, driver, retrigger=7).write_csv(tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
