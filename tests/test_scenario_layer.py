"""The scenario-road layer: segment specs and their JSON form, the scenario
config key and built-in names on the command line, and curve-segment
detection at the edges of its rules."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvepath.cli import main
from curvepath.metrics import CurveSegment, detect_curve_segments
from curvepath.road import Corridor
from curvepath.simulate import RoadSegmentSpec, ScenarioSpec

SEGMENT_DICTS = [
    ({"kind": "straight", "length": 120.0}, RoadSegmentSpec("straight", 120.0, 0.0, 0.0)),
    ({"kind": "arc", "length": 80.0, "kappa": -0.004}, RoadSegmentSpec("arc", 80.0, -0.004, -0.004)),
    (
        {"kind": "clothoid-transition", "length": 60.0, "kappa_start": 0.002, "kappa_end": -0.003},
        RoadSegmentSpec("clothoid-transition", 60.0, 0.002, -0.003),
    ),
]


@pytest.mark.parametrize("d, spec", SEGMENT_DICTS, ids=[d["kind"] for d, _ in SEGMENT_DICTS])
def test_segment_dict_round_trip(d, spec):
    got = RoadSegmentSpec.from_dict(d)
    assert got == spec
    assert got.to_dict() == d
    assert list(got.to_dict()) == list(d)


def test_segment_from_dict_takes_floats():
    got = RoadSegmentSpec.from_dict({"kind": "arc", "length": 80, "kappa": 0})
    assert type(got.length) is float and type(got.kappa_start) is float and type(got.kappa_end) is float


@pytest.mark.parametrize("make", [lambda: RoadSegmentSpec.from_dict({"kind": "spiral", "length": 10.0}),
                                  lambda: RoadSegmentSpec("spiral", 10.0)], ids=["from_dict", "constructor"])
def test_unknown_segment_kind_is_named(make):
    with pytest.raises(ValueError, match="unknown segment kind 'spiral'"):
        make()


CUSTOM_SCENARIO = {
    "segments": [
        {"kind": "straight", "length": 200.0},
        {"kind": "clothoid-transition", "length": 80.0, "kappa_start": 0.0, "kappa_end": 0.005},
        {"kind": "arc", "length": 90.0, "kappa": 0.005},
        {"kind": "clothoid-transition", "length": 80.0, "kappa_start": 0.005, "kappa_end": 0.0},
        {"kind": "straight", "length": 200.0},
    ],
    "lane_width": 3.5,
    "speed": 20.0,
}


def test_config_scenario_reaches_the_cohort_and_evaluates(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": CUSTOM_SCENARIO}), encoding="utf-8")
    cohort = tmp_path / "cohort"
    assert main(["synth", "--config", str(config), "--drivers", "1", "--seed", "3", "--out-dir", str(cohort)]) == 0
    manifest = json.loads((cohort / "cohort.json").read_text())
    assert manifest["scenario"] == CUSTOM_SCENARIO
    assert ScenarioSpec.from_dict(manifest["scenario"]).to_dict() == CUSTOM_SCENARIO
    reports = tmp_path / "reports"
    assert main(["evaluate", "--cohort", str(cohort / "cohort.json"), "--out-dir", str(reports)]) == 0
    assert (reports / "safety.json").exists()


@pytest.mark.parametrize(
    "argv",
    [["synth", "--out-dir", "out"], ["case-study", "--log", "log.csv", "--gains", "g.json", "--out-prefix", "cs"]],
    ids=["synth", "case-study"],
)
def test_unknown_builtin_scenario_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scenario", "bogus"])
    assert exc.value.code == 1
    assert "bogus" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _corridor(kappa, step=0.5) -> Corridor:
    """Straight-drawn corridor carrying the given curvature samples; theta
    integrates them, so the corridor is valid."""
    kappa = np.asarray(kappa, dtype=float)
    s = step * np.arange(kappa.size)
    theta = np.concatenate(([0.0], np.cumsum(0.5 * (kappa[:-1] + kappa[1:]) * step)))
    return Corridor(s=s, x=s, y=np.zeros_like(s), theta=theta, kappa=kappa)


def test_left_run_directly_followed_by_right_run():
    road = _corridor([0.0, 0.0, 0.01, 0.02, 0.01, -0.01, -0.03, -0.01, 0.0])
    assert detect_curve_segments(road, kappa_threshold=0.005, min_length=1.0) == [
        CurveSegment(1.0, 2.0, 0.02, "left"),
        CurveSegment(2.5, 3.5, 0.03, "right"),
    ]


def test_run_ending_at_the_last_sample():
    road = _corridor([0.0, 0.0, 0.0, -0.01, -0.01, -0.02])
    assert detect_curve_segments(road, kappa_threshold=0.005, min_length=1.0) == [
        CurveSegment(1.5, 2.5, 0.02, "right"),
    ]


def test_run_of_exactly_min_length_is_kept_and_a_shorter_one_dropped():
    # a 7-sample run spans 3.0 m, a 6-sample run 2.5 m
    kappa = [0.0] + [0.01] * 7 + [0.0, 0.0] + [0.01] * 6 + [0.0]
    road = _corridor(kappa)
    assert detect_curve_segments(road, kappa_threshold=0.005, min_length=3.0) == [
        CurveSegment(0.5, 3.5, 0.01, "left"),
    ]
    assert len(detect_curve_segments(road, kappa_threshold=0.005, min_length=2.5)) == 2


def test_one_sample_run_spans_nothing():
    road = _corridor([0.0, 0.0, 0.01, 0.0, 0.0])
    assert detect_curve_segments(road, kappa_threshold=0.005, min_length=1e-12) == []
    assert detect_curve_segments(road, kappa_threshold=0.02, min_length=1e-12) == []


def _loop_segments(road, kappa_threshold, min_length):
    """Reference: scan the samples one by one, closing a run where its label changes."""
    labels = [(1.0 if k > 0 else -1.0) if abs(k) >= kappa_threshold else 0.0 for k in road.kappa]
    segments, start = [], 0
    for i, label in enumerate([*labels[1:], None], start=1):
        if label == labels[start]:
            continue
        if labels[start] and road.s[i - 1] - road.s[start] >= min_length:
            peak = max(abs(k) for k in road.kappa[start:i])
            direction = "left" if labels[start] > 0 else "right"
            segments.append(CurveSegment(float(road.s[start]), float(road.s[i - 1]), float(peak), direction))
        start = i
    return segments


@given(
    kappa=st.lists(st.sampled_from([-0.01, -0.003, -0.001, 0.0, 0.0004, 0.001, 0.002, 0.01]), min_size=2, max_size=80),
    kappa_threshold=st.sampled_from([0.0005, 0.001, 0.005]),
    min_length=st.sampled_from([1e-9, 0.5, 1.0, 2.25, 5.0]),
)
def test_detector_matches_a_sample_loop(kappa, kappa_threshold, min_length):
    road = _corridor(kappa)
    assert detect_curve_segments(road, kappa_threshold, min_length) == _loop_segments(road, kappa_threshold, min_length)
