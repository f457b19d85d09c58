"""Every CSV table the package writes reads back exactly: integer columns as
integers, float columns bit for bit, and a malformed row is named by line."""

import numpy as np
import pytest

from curvepath.metrics import (
    PerformanceReport,
    detect_curve_segments,
    emit_case_study,
    project_onto,
    write_performance_report,
)
from curvepath.planner import GainMatrix
from curvepath.simulate import TRACE_HEADER, LogFormatError, SimTrace, run_replay

from conftest import P_TRUE
from helpers import read_report


def read_table(path):
    """Header names and the rows as lists of field strings."""
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == "", "file must end with a newline"
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def column(rows, j):
    return np.array([float(row[j]) for row in rows])


def assert_bits_equal(got, expected):
    expected = np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.fixture(scope="module")
def replays(s_curve_road, clean_driver_log):
    gains = GainMatrix(P_TRUE)
    planned = project_onto(run_replay(clean_driver_log, gains, mode="validation"), s_curve_road)
    reference = project_onto(run_replay(clean_driver_log, gains, mode="estimation"), s_curve_road)
    return planned, reference


def test_trace_reads_back_exactly(tmp_path):
    rng = np.random.default_rng(3)
    n = 40
    floats = [rng.normal(0.0, 10.0 ** rng.integers(-12, 6, n)) for _ in range(4)]
    floats[3][:3] = (-0.0, 1e-300, 0.1 + 0.2)
    trace = SimTrace(
        cycle=np.arange(100, 100 + n, dtype=np.int64),
        x=floats[0],
        y=floats[1],
        theta=floats[2],
        offset=floats[3],
        path_id=np.repeat(np.arange(-1, n // 10 - 1, dtype=np.int64), 10),
        kappa=np.zeros(n),
        station=np.full(n, np.nan),
        replans=(),
    )
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    header, rows = read_table(path)
    assert ",".join(header) == TRACE_HEADER
    assert len(rows) == n
    for j, ints in ((0, trace.cycle), (5, trace.path_id)):
        assert [row[j] for row in rows] == [str(v) for v in ints.tolist()]
    for j, values in enumerate(floats, start=1):
        assert_bits_equal(column(rows, j), values)


def test_case_study_series_read_back_exactly(tmp_path, s_curve_road, replays):
    planned, reference = replays
    segment = detect_curve_segments(s_curve_road)[0]
    emit_case_study(planned, reference, s_curve_road, segment, tmp_path / "o.csv", tmp_path / "c.csv")

    header, rows = read_table(tmp_path / "o.csv")
    assert header == ["s", "offset_planned", "offset_ref"]
    s = column(rows, 0)
    assert np.all(np.diff(s) > 0)
    in_window = np.isin(planned.station, s)
    assert in_window.sum() == s.size
    order = np.argsort(planned.station[in_window])
    assert_bits_equal(s, planned.station[in_window][order])
    assert_bits_equal(column(rows, 1), planned.offset[in_window][order])
    h = np.argsort(reference.station)
    assert_bits_equal(column(rows, 2), np.interp(s, reference.station[h], reference.offset[h]))

    header, rows = read_table(tmp_path / "c.csv")
    assert header == ["s", "kappa_planned", "kappa_ref", "kappa_corridor", "kappa_diff"]
    assert_bits_equal(column(rows, 0), s)
    assert_bits_equal(column(rows, 1), planned.kappa[in_window][order])
    assert_bits_equal(column(rows, 2), np.interp(s, reference.station[h], reference.kappa[h]))
    assert_bits_equal(column(rows, 3), s_curve_road.kappa_at(s))
    assert_bits_equal(column(rows, 4), column(rows, 1) - column(rows, 3))


def test_report_row_errors_name_the_line(tmp_path):
    report = PerformanceReport(avg_distance=0.2, max_distance=0.7, side_correctness=0.75)
    path = tmp_path / "p.csv"
    write_performance_report([("d1", report), ("d2", report)], path, tmp_path / "p.json")
    lines = path.read_text(encoding="utf-8").splitlines()

    path.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n", encoding="utf-8")
    assert [row["driver_id"] for row in read_report(path, "performance")] == ["d1", "d2"]

    path.write_text("\n".join([lines[0], lines[1], "d2,0.2,0.7"]) + "\n", encoding="utf-8")
    with pytest.raises(LogFormatError, match=r"p\.csv: line 3: expected 4 columns, got 3"):
        read_report(path, "performance")

    path.write_text("\n".join([lines[0], "d1,0.2,x,75.0"]) + "\n", encoding="utf-8")
    with pytest.raises(LogFormatError, match="line 2"):
        read_report(path, "performance")
