"""A lane polynomial whose samples would overflow gives no corridor: it raises
CorridorError before numpy warns, so one such replan row costs one
"corridor" skip or gap under the suite's error::RuntimeWarning filter, in
calibrate and in both replay modes of simulate, through the command line."""

import dataclasses
import json
from collections import Counter

import pytest

from curvepath import cli
from curvepath.road import CorridorError, LanePolynomial, corridor_from_polynomial

from conftest import P_TRUE

REPLAN_ROW = 300  # a replan row on the S-curve at the default retrigger of 30


@pytest.mark.parametrize(
    "coefficients",
    [(0.0, 1e308, 0.0, 0.0), (0.0, 0.0, 1e308, 0.0), (0.0, 0.0, 0.0, 1e308), (0.0, -1e150, 0.0, 0.0),
     (0.0, 0.0, -1e308, 1e308)],
    ids=["c1", "c2", "c3", "c1-steep", "c2-c3"],
)
def test_overflowing_polynomial_gives_no_corridor(coefficients):
    with pytest.raises(CorridorError, match="too steep to sample"):
        corridor_from_polynomial(LanePolynomial(*coefficients))


def test_a_far_but_flat_midline_still_samples():
    corridor = corridor_from_polynomial(LanePolynomial(1e308, 0.01, 0.0, 0.0))
    assert corridor.y[0] == 1e308


@pytest.fixture(scope="module")
def clean_files(clean_driver_log, tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    (out / "gains.json").write_text(json.dumps(P_TRUE.ravel().tolist()), encoding="utf-8")
    clean_driver_log.write_csv(out / "log.csv")
    return out


def _calibration_skips(log_path, out_dir) -> dict:
    out = out_dir / "calibration.json"
    assert cli.main(["calibrate", "--log", str(log_path), "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))["dataset"]["skipped_by_reason"]


def _gap_reasons(log_path, out_dir, mode, gains) -> Counter:
    prefix = out_dir / mode
    argv = ["simulate", "--log", str(log_path), "--mode", mode, "--out-prefix", str(prefix)]
    assert cli.main([*argv, "--gains", str(gains)] if mode == "validation" else argv) == 0
    entries = json.loads((out_dir / f"{mode}_replans.json").read_text(encoding="utf-8"))
    return Counter(entry["reason"] for entry in entries if entry["gap"])


@pytest.mark.parametrize("column", ["c1", "c2"])
def test_one_overflowing_replan_row_costs_one_corridor(column, clean_driver_log, clean_files, tmp_path):
    values = getattr(clean_driver_log, column).copy()
    values[REPLAN_ROW] = 1e308
    log_path = tmp_path / "log.csv"
    dataclasses.replace(clean_driver_log, **{column: values}).write_csv(log_path)
    gains = clean_files / "gains.json"

    clean = Counter(_calibration_skips(clean_files / "log.csv", clean_files))
    got = Counter(_calibration_skips(log_path, tmp_path))
    assert got - clean == Counter(corridor=1) and not clean - got
    for mode in ("validation", "estimation"):
        clean = _gap_reasons(clean_files / "log.csv", clean_files, mode, gains)
        got = _gap_reasons(log_path, tmp_path, mode, gains)
        assert got - clean == Counter(corridor=1) and not clean - got
