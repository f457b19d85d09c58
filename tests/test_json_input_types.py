"""Wrong-typed JSON input and out-of-range `synth` options end the command
with exit code 2 and a message naming the key or option, never a traceback:
scenario values of the wrong type, a cohort manifest whose scenario or
drivers are not what `synth` writes, a non-finite `--sigma` and a
`--drivers` count below 1."""

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
    ],
    ids=["null-length", "list-kappa", "null-kind", "string-segment", "null-lane-width", "string-speed",
         "object-segments", "no-segments", "list-scenario"],
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


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_non_finite_sigma_is_named(sigma, tmp_path, capsys):
    _check(["synth", "--drivers", 1, f"--sigma={sigma}", "--out-dir", tmp_path / "out"],
           "sigma must be finite", capsys)


@pytest.mark.parametrize("drivers", [0, -3])
def test_driver_count_below_one_writes_nothing(drivers, tmp_path, capsys):
    out = tmp_path / "out"
    _check(["synth", "--drivers", drivers, "--out-dir", out], "drivers must be at least 1", capsys)
    assert not out.exists()
