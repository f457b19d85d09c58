import json

import pytest

from curvepath.metrics import (
    PerformanceReport,
    SafetyReport,
    write_performance_report,
    write_safety_report,
)

from helpers import read_report

SAFETY = SafetyReport(
    min_border_distance=0.4,
    per_segment_min=(0.4,),
    violations=1,
    samples=8,
)
PERFORMANCE = PerformanceReport(avg_distance=0.2, max_distance=0.7, side_correctness=0.75)


def test_round_trip_with_json_mirror(tmp_path):
    write_safety_report([("d1", SAFETY)], tmp_path / "s.csv", tmp_path / "s.json")
    write_performance_report([("d1", PERFORMANCE)], tmp_path / "p.csv", tmp_path / "p.json")
    safety = [{"driver_id": "d1", "border_violation_pct": 12.5, "min_border_distance_m": 0.4}]
    performance = [
        {"driver_id": "d1", "avg_distance_m": 0.2, "max_distance_m": 0.7, "side_correctness_pct": 75.0}
    ]
    assert read_report(tmp_path / "s.csv", "safety") == safety
    assert read_report(tmp_path / "p.csv", "performance") == performance
    assert json.loads((tmp_path / "s.json").read_text()) == safety
    assert json.loads((tmp_path / "p.json").read_text()) == performance


def test_safety_csv_is_not_a_performance_report(tmp_path):
    write_safety_report([("d1", SAFETY)], tmp_path / "s.csv", tmp_path / "s.json")
    with pytest.raises(ValueError, match="bad performance report header"):
        read_report(tmp_path / "s.csv", "performance")


def test_performance_csv_is_not_a_safety_report(tmp_path):
    write_performance_report([("d1", PERFORMANCE)], tmp_path / "p.csv", tmp_path / "p.json")
    with pytest.raises(ValueError, match="bad safety report header"):
        read_report(tmp_path / "p.csv", "safety")


def test_short_row_rejected(tmp_path):
    write_safety_report([("d1", SAFETY)], tmp_path / "s.csv", tmp_path / "s.json")
    with open(tmp_path / "s.csv", "a", encoding="utf-8") as fh:
        fh.write("d2,1.0\n")
    with pytest.raises(ValueError):
        read_report(tmp_path / "s.csv", "safety")
