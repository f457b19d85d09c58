import dataclasses
import json

import numpy as np
import pytest

from curvepath import cli
from curvepath.cli import main
from curvepath.planner import GainMatrix
from curvepath.simulate import (
    DriveLog,
    RoadSegmentSpec,
    ScenarioSpec,
    SyntheticDriverSpec,
    build_scenario_road,
    generate_synthetic_driver_log,
    load_drive_log,
)

from conftest import P_TRUE
from helpers import read_report


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    code = main(
        [
            "synth",
            "--out-dir",
            str(out),
            "--drivers",
            "2",
            "--sigma",
            "0.03",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    return out


class TestSynth:
    def test_outputs_exist(self, cohort_dir):
        assert (cohort_dir / "cohort.json").exists()
        assert (cohort_dir / "driver_01.csv").exists()
        assert (cohort_dir / "driver_02.csv").exists()
        manifest = json.loads((cohort_dir / "cohort.json").read_text())
        assert len(manifest["drivers"]) == 2
        assert manifest["retrigger"] == 30
        assert manifest["node_distances"] == [10.0, 39.0, 137.0]


class TestCalibrate:
    def test_writes_gains_json(self, cohort_dir, tmp_path):
        out = tmp_path / "gains.json"
        code = main(["calibrate", "--log", str(cohort_dir / "driver_01.csv"), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["gains_row_major"]) == 9
        assert payload["rank"] == 3
        assert payload["node_distances"] == [10.0, 39.0, 137.0]
        assert payload["provenance"]["retrigger"] == 30

    def test_rank_deficient_log_exits_2(self, tmp_path, capsys):
        road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(900.0),)))
        log = generate_synthetic_driver_log(
            road, SyntheticDriverSpec(gains_true=GainMatrix.zeros(), seed=0)
        )
        log_path = tmp_path / "straight.csv"
        log.write_csv(log_path)
        code = main(["calibrate", "--log", str(log_path), "--out", str(tmp_path / "g.json")])
        assert code == 2
        assert "rank" in capsys.readouterr().err

    def test_outputs_name_the_sample_time(self, cohort_dir, tmp_path, capsys):
        # timestamps at twice the step read as a 0.1 s step; both commands
        # name it (in milliseconds, a 50 s step, no node point finds a row of
        # its own: test_skip_reasons.py)
        log = load_drive_log(cohort_dir / "driver_01.csv")
        slow = tmp_path / "slow.csv"
        dataclasses.replace(log, t=log.t * 2.0, sample_time=None).write_csv(slow)
        out = tmp_path / "gains.json"
        for path, step in ((cohort_dir / "driver_01.csv", 0.05), (slow, 0.1)):
            assert main(["calibrate", "--log", str(path), "--out", str(out)]) == 0
            assert json.loads(out.read_text())["provenance"]["sample_time_s"] == step
            argv = ["simulate", "--log", str(path), "--mode", "estimation", "--out-prefix", str(tmp_path / "est")]
            assert main(argv) == 0
            assert f" cycles of {step} s, " in capsys.readouterr().out

    def test_missing_log_exits_2(self, tmp_path):
        code = main(
            ["calibrate", "--log", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "g.json")]
        )
        assert code == 2


class TestSimulate:
    def test_retrigger_arithmetic(self, tmp_path):
        # a 300 cycle log replayed every 30 cycles produces exactly 10 replans
        road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(550.0),)))
        log = generate_synthetic_driver_log(
            road, SyntheticDriverSpec(gains_true=GainMatrix(P_TRUE), seed=5)
        )
        assert len(log) >= 300
        short = DriveLog(
            cycle=log.cycle[:300],
            **{name: getattr(log, name)[:300] for name in DriveLog._FLOAT_COLUMNS},
        )
        log_path = tmp_path / "short.csv"
        short.write_csv(log_path)
        gains_path = tmp_path / "gains.json"
        gains_path.write_text(json.dumps(GainMatrix(P_TRUE).row_major()))
        code = main(
            [
                "simulate",
                "--log",
                str(log_path),
                "--gains",
                str(gains_path),
                "--retrigger",
                "30",
                "--out-prefix",
                str(tmp_path / "run"),
            ]
        )
        assert code == 0
        replans = json.loads((tmp_path / "run_replans.json").read_text())
        assert len(replans) == 10

    def test_estimation_mode_needs_no_gains(self, cohort_dir, tmp_path):
        code = main(
            [
                "simulate",
                "--log",
                str(cohort_dir / "driver_01.csv"),
                "--mode",
                "estimation",
                "--out-prefix",
                str(tmp_path / "est"),
            ]
        )
        assert code == 0
        assert (tmp_path / "est_trace.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_nodes_plan_every_replan(self, tmp_path):
        # gains of 1e9 put the nodes 1e2 to 5e6 m off the lane; the fits
        # between them close to their tolerance, a fraction of the chord,
        # so every replan plans
        assert main(["synth", "--drivers", "1", "--out-dir", str(tmp_path)]) == 0
        gains_path = tmp_path / "gains.json"
        gains_path.write_text(json.dumps([1e9, 0, 0, 0, 1e9, 0, 0, 0, 1e9]))
        code = main(
            [
                "simulate",
                "--log",
                str(tmp_path / "driver_01.csv"),
                "--gains",
                str(gains_path),
                "--mode",
                "validation",
                "--out-prefix",
                str(tmp_path / "far"),
            ]
        )
        assert code == 0
        replans = json.loads((tmp_path / "far_replans.json").read_text())
        assert [entry["gap"] for entry in replans] == [False] * 25


class TestEvaluate:
    def test_reports_shape(self, cohort_dir, tmp_path):
        out = tmp_path / "reports"
        code = main(["evaluate", "--cohort", str(cohort_dir / "cohort.json"), "--out-dir", str(out)])
        assert code == 0
        safety = read_report(out / "safety.csv", "safety")
        performance = read_report(out / "performance.csv", "performance")
        assert [row["driver_id"] for row in safety] == ["driver_01", "driver_02"]
        assert len(performance) == 2
        for row in performance:
            assert 0.0 <= row["side_correctness_pct"] <= 100.0
        assert (out / "safety.json").exists()
        assert (out / "performance.json").exists()


class TestCaseStudyCommand:
    def test_emits_both_series(self, cohort_dir, tmp_path):
        gains_path = tmp_path / "gains.json"
        assert main(
            ["calibrate", "--log", str(cohort_dir / "driver_01.csv"), "--out", str(gains_path)]
        ) == 0
        code = main(
            [
                "case-study",
                "--log",
                str(cohort_dir / "driver_01.csv"),
                "--gains",
                str(gains_path),
                "--segment-index",
                "0",
                "--out-prefix",
                str(tmp_path / "cs"),
            ]
        )
        assert code == 0
        data = np.genfromtxt(tmp_path / "cs_curvature.csv", delimiter=",", names=True)
        assert set(data.dtype.names) == {
            "s",
            "kappa_planned",
            "kappa_ref",
            "kappa_corridor",
            "kappa_diff",
        }


class TestUsageErrors:
    def test_a_key_error_is_a_bug_not_bad_data(self, tmp_path, monkeypatch):
        # bad input exits 2 through a ValueError or an OSError; a KeyError is
        # a fault of the program, so it surfaces with its traceback
        def broken(scenario):
            raise KeyError("segments")

        monkeypatch.setattr(cli, "build_scenario_road", broken)
        with pytest.raises(KeyError, match="segments"):
            main(["synth", "--drivers", "1", "--out-dir", str(tmp_path)])

    def test_a_recursion_error_is_a_bug_not_bad_data(self, tmp_path, monkeypatch):
        # a RuntimeError is no data error either: every skip and failed fit
        # is a ValueError
        def broken(scenario):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "build_scenario_road", broken)
        with pytest.raises(RecursionError):
            main(["synth", "--drivers", "1", "--out-dir", str(tmp_path)])

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out-dir", "x", "--frobnicate"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_validation_without_gains_exits_2(self, cohort_dir, tmp_path):
        code = main(
            [
                "simulate",
                "--log",
                str(cohort_dir / "driver_01.csv"),
                "--mode",
                "validation",
                "--out-prefix",
                str(tmp_path / "v"),
            ]
        )
        assert code == 2
