"""Wrong-typed JSON input and out-of-range `synth` options end the command
with exit code 2 and a message naming the key or option, never a traceback:
scenario values of the wrong type, a cohort manifest whose scenario or
drivers are not what `synth` writes, a gains file whose gains are not
numbers, a non-finite `--sigma` and a `--drivers` count below 1. A cohort
driver entry of the wrong type costs that driver only."""

import json

import pytest

from curvepath.cli import DATA_ERROR, main

STRAIGHT = {"kind": "straight", "length": 100.0}


def _check(argv, message, capsys):
    capsys.readouterr()
    assert main([str(a) for a in argv]) == DATA_ERROR
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"segments": [{"kind": "straight", "length": None}]}, "segment 0: length must be a number"),
        ({"segments": [STRAIGHT, {"kind": "arc", "length": 50.0, "kappa": [0.01]}]},
         "segment 1: kappa must be a number"),
        ({"segments": [{"kind": None, "length": 50.0}]}, "segment 0: kind must be a string"),
        ({"segments": [STRAIGHT, "straight"]}, "segment 1: segment must be a JSON object"),
        ({"segments": [STRAIGHT], "lane_width": None}, "lane_width must be a number"),
        ({"segments": [STRAIGHT], "speed": "fast"}, "speed must be a number"),
        ({"segments": STRAIGHT}, "segments must be a JSON array"),
        ({"lane_width": 3.5}, "missing key 'segments'"),
        ([], "scenario must be a JSON object"),
        ({"segments": [{"kind": "straight", "length": True}]}, "segment 0: length must be a number"),
        ({"segments": [{"kind": "straight", "length": "600"}]}, "segment 0: length must be a number"),
    ],
    ids=["null-length", "list-kappa", "null-kind", "string-segment", "null-lane-width", "string-speed",
         "object-segments", "no-segments", "list-scenario", "bool-length", "string-length"],
)
def test_wrong_typed_scenario_is_named(scenario, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": scenario}))
    out = tmp_path / "out"
    _check(["synth", "--drivers", 1, "--out-dir", out, "--config", config], message, capsys)
    assert not out.exists()


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out-dir", str(out), "--drivers", "1", "--sigma", "0.03", "--seed", "4"]) == 0
    return out / "cohort.json"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("scenario", None, "scenario must be a JSON object"),
        ("drivers", None, "drivers must be a JSON array"),
        ("drivers", ["driver_01.csv"], "drivers must be a JSON array of objects"),
    ],
    ids=["null-scenario", "null-drivers", "string-driver"],
)
def test_wrong_typed_manifest_is_named(key, value, message, manifest, capsys):
    data = json.loads(manifest.read_text())
    data[key] = value
    broken = manifest.with_name(f"broken_{key}.json")
    broken.write_text(json.dumps(data))
    out = manifest.parent / f"reports_{key}"
    _check(["evaluate", "--cohort", broken, "--out-dir", out], message, capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "gains, message",
    [
        ({"gains": [1.0] * 9}, "missing key 'gains_row_major'"),
        ([True] + [1.0] * 8, "gains must be a JSON array of numbers"),
        (["1"] + [1.0] * 8, "gains must be a JSON array of numbers"),
        ({"gains_row_major": [1.0] * 8 + ["1"]}, "gains must be a JSON array of numbers"),
    ],
    ids=["no-gains-key", "bool-gain", "string-gain", "string-gain-in-object"],
)
def test_wrong_typed_gains_are_named(gains, message, manifest, tmp_path, capsys):
    path = tmp_path / "gains.json"
    path.write_text(json.dumps(gains))
    out = tmp_path / "sim"
    _check(["simulate", "--log", manifest.parent / "driver_01.csv", "--gains", path, "--out-prefix", out / "run"],
           message, capsys)
    assert not out.exists()


@pytest.fixture(scope="module")
def two_drivers(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort2")
    assert main(["synth", "--out-dir", str(out), "--drivers", "2", "--sigma", "0.03", "--seed", "4"]) == 0
    return out / "cohort.json"


def _no_id_missing_log(entry):
    del entry["id"]
    entry["log"] = "missing.csv"


def _number_log(entry):
    entry["log"] = 5


@pytest.mark.parametrize(
    "corrupt, message",
    [(_no_id_missing_log, "curvepath evaluate: driver 1: "),
     (_number_log, "curvepath evaluate: driver_02: log must be a string")],
    ids=["no-id", "number-log"],
)
def test_a_wrong_typed_driver_entry_is_left_out(corrupt, message, two_drivers, tmp_path, capsys):
    data = json.loads(two_drivers.read_text())
    corrupt(data["drivers"][1])
    broken = two_drivers.with_name(f"broken_{corrupt.__name__}.json")
    broken.write_text(json.dumps(data))
    reports = tmp_path / "reports"
    capsys.readouterr()
    assert main(["evaluate", "--cohort", str(broken), "--out-dir", str(reports)]) == DATA_ERROR
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert "1 left out" in captured.out
    for name in ("safety", "performance"):
        assert [r["driver_id"] for r in json.loads((reports / f"{name}.json").read_text())] == ["driver_01"]


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_non_finite_sigma_is_named(sigma, tmp_path, capsys):
    out = tmp_path / "out"
    _check(["synth", "--drivers", 1, f"--sigma={sigma}", "--out-dir", out], "sigma must be finite", capsys)
    assert not out.exists()


@pytest.mark.parametrize("drivers", [0, -3])
def test_driver_count_below_one_writes_nothing(drivers, tmp_path, capsys):
    out = tmp_path / "out"
    _check(["synth", "--drivers", drivers, "--out-dir", out], "drivers must be at least 1", capsys)
    assert not out.exists()
