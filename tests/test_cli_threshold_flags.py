"""Precedence of the scoring settings of `curvepath evaluate`: an explicit
--vehicle-width, --kappa-threshold or --min-curve-length flag beats the
--config key, which beats the default."""

import json

import pytest

from curvepath.cli import main


@pytest.fixture(scope="module")
def evaluate(tmp_path_factory):
    cohort = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out-dir", str(cohort), "--drivers", "1", "--sigma", "0.03", "--seed", "11"]) == 0

    def run(*extra, config=None):
        out = tmp_path_factory.mktemp("reports")
        argv = ["evaluate", "--cohort", str(cohort / "cohort.json"), "--out-dir", str(out), *extra]
        if config is not None:
            path = out / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        if main(argv) != 0:
            return None
        return (out / "safety.csv").read_text() + (out / "performance.csv").read_text()

    return run


@pytest.mark.parametrize(
    "flag, key, value, other",
    [
        ("--kappa-threshold", "kappa_threshold", 0.004, 0.001),
        # no curve of the S-curve is 300 m long, so that setting fails the command
        ("--min-curve-length", "min_curve_length", 50.0, 300.0),
        ("--vehicle-width", "vehicle_width", 2.2, 1.8),
    ],
)
def test_flag_beats_config(evaluate, flag, key, value, other):
    flagged = evaluate(flag, str(value))
    assert flagged is not None
    assert evaluate(config={key: value}) == flagged
    assert evaluate(config={key: other}) != flagged
    assert evaluate(flag, str(value), config={key: other}) == flagged
