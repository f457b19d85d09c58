"""`curvepath case-study` picks its segment from the curve segments that the
--config thresholds define, the same list `curvepath evaluate` scores."""

import json
import re

import numpy as np
import pytest

from curvepath.cli import DATA_ERROR, main
from curvepath.metrics import CASE_STUDY_MARGIN_M, detect_curve_segments
from curvepath.simulate import build_scenario_road, s_curve_scenario

THRESHOLDS = {"kappa_threshold": 0.004, "min_curve_length": 20}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out-dir", str(out), "--drivers", "1", "--sigma", "0.03", "--seed", "11"]) == 0
    manifest = json.loads((out / "cohort.json").read_text())
    (out / "gains.json").write_text(json.dumps(manifest["drivers"][0]["gains_true_row_major"]))
    return out


def case_study(cohort, out, config=None):
    argv = ["case-study", "--log", str(cohort / "driver_01.csv"), "--gains", str(cohort / "gains.json"),
            "--out-prefix", str(out / "cs")]
    if config is not None:
        (out / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(out / "config.json")]
    assert main(argv) == 0
    return np.genfromtxt(out / "cs_offsets.csv", delimiter=",", names=True)["s"]


def test_config_thresholds_choose_the_segment(cohort, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    default = case_study(cohort, tmp_path / "a")
    configured = case_study(cohort, tmp_path / "b", THRESHOLDS)
    assert not np.array_equal(default, configured)

    road = build_scenario_road(s_curve_scenario())
    segment = detect_curve_segments(
        road, THRESHOLDS["kappa_threshold"], THRESHOLDS["min_curve_length"]
    )[0]
    assert configured[0] >= segment.start_s - CASE_STUDY_MARGIN_M
    assert configured[-1] <= segment.end_s + CASE_STUDY_MARGIN_M
    assert configured[0] - (segment.start_s - CASE_STUDY_MARGIN_M) < 2.0
    assert (segment.end_s + CASE_STUDY_MARGIN_M) - configured[-1] < 2.0


def test_segment_index_out_of_range_exits_2(cohort, tmp_path, capsys):
    argv = ["case-study", "--log", str(cohort / "driver_01.csv"), "--gains", str(cohort / "gains.json"),
            "--out-prefix", str(tmp_path / "cs"), "--segment-index", "99"]
    capsys.readouterr()
    assert main(argv) == DATA_ERROR == 2
    err = capsys.readouterr().err
    assert re.search(r"^curvepath case-study: error: segment index 99 out of range 0\.\.\d+$", err, re.M)
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())
