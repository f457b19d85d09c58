"""Calibration's skip counts: every node-distance window is used, flat or
skipped, and the calibration JSON carries the window and sweep counts."""

import dataclasses
import json

import pytest

from curvepath import cli
from curvepath.calibration import assemble_dataset, fit_gain_matrix, optimize_node_distances
from curvepath.planner import NodePointParams
from curvepath.road import AllSkippedError
from curvepath.simulate import load_drive_log

BAD_ROW = 60  # a replan row at the default retrigger of 30; c2 = 1.0 gives no corridor


def _corrupted(log, rows):
    c2 = log.c2.copy()
    c2[rows] = 1.0
    return dataclasses.replace(log, c2=c2)


def test_every_window_is_used_flat_or_skipped(clean_driver_log):
    # window 0 lies on the straight approach (flat); window 120 has no corridor
    log = _corrupted(clean_driver_log, [120])
    got = optimize_node_distances(log, NodePointParams(), window=120, stride=120)
    anchors = len(range(0, len(log) - 120 + 1, 120))
    assert (got.flat_windows, got.skipped_windows) == (1, 1)
    assert len(got.window_optima) == anchors - 2


def test_calibration_json_counts_flat_windows_and_skipped_sweep_replans(clean_driver_log, tmp_path):
    log_path = tmp_path / "corrupted.csv"
    _corrupted(clean_driver_log, [BAD_ROW]).write_csv(log_path)
    out = tmp_path / "calibration.json"
    code = cli.main(
        ["calibrate", "--log", str(log_path), "--out", str(out), "--optimize-distances", "--sweep-nodes",
         "--sweep-out", str(tmp_path / "sweep.csv")]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    # the log's one 400-row window covers only the straight approach
    opt = payload["distance_optimization"]
    assert (opt["flat_cost"], opt["flat_windows"], opt["skipped_windows"], opt["window_optima"]) == (
        True, 1, 0, []
    )
    assert payload["node_count_sweep"] == {"skipped_by_reason": {"corridor": 1}, "skipped_replans": 1}
    assert (tmp_path / "sweep.csv").is_file()


def test_failing_sweep_leaves_no_calibration_json(clean_driver_log, tmp_path, monkeypatch, capsys):
    def failing_sweep(log, retrigger):
        raise AllSkippedError("replanning cycles", {"corridor": 25})

    monkeypatch.setattr(cli, "node_count_tradeoff", failing_sweep)
    log_path = tmp_path / "clean.csv"
    clean_driver_log.write_csv(log_path)
    out = tmp_path / "calibration.json"
    assert cli.main(["calibrate", "--log", str(log_path), "--out", str(out), "--sweep-nodes"]) == 2
    assert not out.exists()
    assert "all 25 replanning cycles were skipped: {'corridor': 25}" in capsys.readouterr().err


@pytest.mark.parametrize("far", [137, 250])
def test_calibration_json_names_the_residual_at_the_initial_distances(noise_free_winding_csv, tmp_path, far):
    # the stock distances are the synthetic driver's own, so the gain fit
    # there is exact; a far node at 250 m lies past every corridor (150 m
    # of x, up to 210 m of arc) and skips every replan there, while
    # identification still finds distances that fit
    out = tmp_path / "calibration.json"
    argv = ["calibrate", "--log", str(noise_free_winding_csv), "--out", str(out), "--optimize-distances",
            "--node-distances", "10", "39", str(far)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    initial = payload["distance_optimization"]["initial_residual_rms"]
    if far == 137:
        log = load_drive_log(noise_free_winding_csv)
        assert initial == fit_gain_matrix(assemble_dataset(log)).residual_rms
        assert initial < 1e-12
    else:
        assert initial is None
        with pytest.raises(AllSkippedError, match="all 87 replanning cycles were skipped: {'preview': 87}"):
            assemble_dataset(load_drive_log(noise_free_winding_csv), NodePointParams(10.0, 39.0, 250.0))
