"""Precedence of node distances and retrigger in `curvepath evaluate`:
the command-line flag, then the --config file, then the cohort manifest."""

import json

import pytest

from curvepath.cli import main


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out-dir", str(out), "--drivers", "1", "--sigma", "0.03", "--seed", "11"]) == 0
    return out / "cohort.json"


@pytest.fixture(scope="module")
def evaluate(cohort, tmp_path_factory):
    def run(*extra, config=None):
        out = tmp_path_factory.mktemp("reports")
        argv = ["evaluate", "--cohort", str(cohort), "--out-dir", str(out), *extra]
        if config is not None:
            path = out / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        return (out / "safety.csv").read_text() + (out / "performance.csv").read_text()

    return run


@pytest.fixture(scope="module")
def recorded(evaluate):
    return evaluate()


def test_node_distance_flag_is_used(evaluate, recorded):
    short = evaluate("--node-distances", "5", "20", "60")
    assert short != recorded
    assert evaluate(config={"node_distances": [5.0, 20.0, 60.0]}) == short
    # the flag beats the config
    assert evaluate("--node-distances", "10", "39", "137", config={"node_distances": [5, 20, 60]}) == recorded


def test_config_retrigger_is_used(evaluate, recorded):
    assert evaluate(config={"retrigger": 20}) != recorded
    # the flag beats the config
    assert evaluate("--retrigger", "30", config={"retrigger": 20}) == recorded


def test_seed_belongs_to_synth_only(cohort, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--cohort", str(cohort), "--out-dir", str(tmp_path), "--seed", "1"])
    assert exc.value.code == 1
