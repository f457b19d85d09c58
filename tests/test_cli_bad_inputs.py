"""One bad input ends the command with exit code 2 and names itself: a config
setting of the wrong type or length, a bad scenario segment, or (leaving the
rest of the cohort's reports in place) one driver of `evaluate`."""

import json

import pytest

from curvepath.cli import DATA_ERROR, main


def _run(argv, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([*argv, "--config", str(path)])


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out-dir", str(out), "--drivers", "1", "--sigma", "0.03", "--seed", "4"]) == 0
    return out / "cohort.json"


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("synth", {"retrigger": None}, "retrigger"),
        ("synth", {"node_distances": 5}, "node_distances"),
        ("synth", {"node_distances": [10, 39, 137, 200]}, "node_distances"),
        ("synth", {"node_distances": [1, 2]}, "node_distances"),
        ("synth", {"vehicle_width": "wide"}, "vehicle_width"),
        ("evaluate", {"kappa_threshold": None}, "kappa_threshold"),
        # a number is never a bool or a quoted string, and retrigger takes only a JSON integer
        ("synth", {"retrigger": 2.7}, "retrigger"),
        ("synth", {"retrigger": True}, "retrigger"),
        ("synth", {"retrigger": "30"}, "retrigger"),
        ("evaluate", {"kappa_threshold": "0.001"}, "kappa_threshold"),
        ("synth", {"node_distances": ["10", "39", "137"]}, "node_distances"),
    ],
)
def test_bad_config_setting_is_named(command, config, key, cohort, tmp_path, capsys):
    out = str(tmp_path / "out")
    argv = {"synth": ["synth", "--drivers", "1", "--out-dir", out],
            "evaluate": ["evaluate", "--cohort", str(cohort), "--out-dir", out]}[command]
    capsys.readouterr()
    assert _run(argv, tmp_path, config) == DATA_ERROR
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


STRAIGHT = {"kind": "straight", "length": 100.0}


@pytest.mark.parametrize(
    "segment, message",
    [
        ({"kind": "arc", "length": 80.0}, "segment 1: missing key 'kappa'"),
        ({"length": 80.0}, "segment 1: missing key 'kind'"),
        ({"kind": "arc", "length": 80.0, "kappa": float("nan")}, "segment 1: kappa must be finite"),
        ({"kind": "clothoid-transition", "length": 80.0, "kappa_start": 0.0, "kappa_end": float("inf")},
         "segment 1: kappa_end must be finite"),
        ({"kind": "straight", "length": float("inf")}, "segment 1: length must be finite"),
        # the next segment, a straight, starts at curvature 0
        ({"kind": "clothoid-transition", "length": 80.0, "kappa_start": 0.0, "kappa_end": 0.01},
         "segment 1: transition end curvature discontinuous"),
    ],
    ids=["no-kappa", "no-kind", "nan-kappa", "inf-kappa-end", "inf-length", "transition-end-jump"],
)
def test_bad_scenario_segment_is_named(segment, message, tmp_path, capsys):
    config = {"scenario": {"segments": [STRAIGHT, segment, STRAIGHT]}}
    out = tmp_path / "out"
    assert _run(["synth", "--drivers", "1", "--out-dir", str(out)], tmp_path, config) == DATA_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_bad_driver_is_left_out_of_the_reports(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert main(["synth", "--out-dir", str(cohort), "--drivers", "3", "--sigma", "0.03", "--seed", "4"]) == 0
    log = cohort / "driver_02.csv"
    log.write_text("".join(log.read_text().splitlines(keepends=True)[:2]))
    capsys.readouterr()
    reports = tmp_path / "reports"
    assert main(["evaluate", "--cohort", str(cohort / "cohort.json"), "--out-dir", str(reports)]) == DATA_ERROR
    captured = capsys.readouterr()
    assert "curvepath evaluate: driver_02: " in captured.err
    assert "1 left out" in captured.out
    for name in ("safety", "performance"):
        rows = (reports / f"{name}.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["driver_01", "driver_03"]
        assert [r["driver_id"] for r in json.loads((reports / f"{name}.json").read_text())] == ["driver_01", "driver_03"]
