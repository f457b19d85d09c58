"""Node distances and retrigger on every command: a flag that was given beats
the --config key, and `evaluate` falls back to the cohort manifest's values
after both."""

import json

import pytest

from curvepath.cli import main

SHORT = [5.0, 20.0, 60.0]


def _config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["--config", str(path)]


def _synth(out, *extra):
    assert main(["synth", "--out-dir", str(out), "--drivers", "1", "--sigma", "0.03", "--seed", "5", *extra]) == 0
    return json.loads((out / "cohort.json").read_text())


@pytest.fixture(scope="module")
def cohort_20(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort20")
    _synth(out, "--retrigger", "20")
    return out


def test_synth_takes_config_settings_and_flags_beat_them(tmp_path):
    config = _config(tmp_path, {"retrigger": 25, "node_distances": SHORT})
    manifest = _synth(tmp_path / "config", *config)
    assert (manifest["retrigger"], manifest["node_distances"]) == (25, SHORT)
    manifest = _synth(tmp_path / "flags", *config, "--retrigger", "40", "--node-distances", "8", "30", "100")
    assert (manifest["retrigger"], manifest["node_distances"]) == (40, [8.0, 30.0, 100.0])


def test_calibrate_takes_config_settings_and_flags_beat_them(cohort_20, tmp_path):
    log = str(cohort_20 / "driver_01.csv")
    config = _config(tmp_path, {"retrigger": 25, "node_distances": SHORT})

    def calibrate(name, *extra):
        out = tmp_path / name
        assert main(["calibrate", "--log", log, "--out", str(out), *config, *extra]) == 0
        payload = json.loads(out.read_text())
        return payload["provenance"]["retrigger"], payload["node_distances"]

    assert calibrate("config.json") == (25, SHORT)
    assert calibrate("flags.json", "--retrigger", "15", "--node-distances", "8", "30", "100") == (15, [8.0, 30.0, 100.0])


def test_simulate_takes_config_retrigger(cohort_20, tmp_path):
    prefix = tmp_path / "run"
    argv = ["simulate", "--log", str(cohort_20 / "driver_01.csv"), "--mode", "estimation", "--out-prefix", str(prefix)]
    assert main([*argv, *_config(tmp_path, {"retrigger": 25})]) == 0
    cycles = [r["cycle"] for r in json.loads((tmp_path / "run_replans.json").read_text())]
    assert len(cycles) > 1 and cycles == list(range(0, 25 * len(cycles), 25))


def test_evaluate_falls_back_to_the_manifest_retrigger(cohort_20, tmp_path):
    def evaluate(name, *extra):
        out = tmp_path / name
        assert main(["evaluate", "--cohort", str(cohort_20 / "cohort.json"), "--out-dir", str(out), *extra]) == 0
        return (out / "safety.csv").read_text() + (out / "performance.csv").read_text()

    recorded = evaluate("recorded")
    assert recorded == evaluate("flag20", "--retrigger", "20")
    assert recorded != evaluate("flag30", "--retrigger", "30")
