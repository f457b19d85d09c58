import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvepath.metrics import (
    CurveSegment,
    SafetyReport,
    VehicleSpec,
    detect_curve_segments,
    emit_case_study,
    performance_metrics,
    project_onto,
    safety_metrics,
    write_performance_report,
    write_safety_report,
)
from curvepath.planner import GainMatrix
from curvepath.simulate import (
    RoadSegmentSpec,
    ScenarioSpec,
    SimTrace,
    SyntheticDriverSpec,
    build_scenario_road,
    generate_synthetic_driver_log,
    run_replay,
)

from conftest import P_TRUE
from helpers import read_report


def synthetic_trace(stations, offsets, corridor, cycle0=0):
    """Trace lying at given signed offsets from the corridor midline."""
    n = len(stations)
    xs = np.empty(n)
    ys = np.empty(n)
    ths = np.empty(n)
    for i, (s, d) in enumerate(zip(stations, offsets)):
        theta = corridor.heading_unwrapped_at(float(s))
        px, py = corridor.point_at(float(s))
        xs[i] = px - d * np.sin(theta)
        ys[i] = py + d * np.cos(theta)
        ths[i] = theta
    return SimTrace(
        cycle=np.arange(cycle0, cycle0 + n, dtype=np.int64),
        x=xs,
        y=ys,
        theta=ths,
        offset=np.asarray(offsets, dtype=float),
        path_id=np.zeros(n, dtype=np.int64),
        kappa=np.zeros(n),
        station=np.asarray(stations, dtype=float),
        replans=(),
    )


@pytest.fixture(scope="module")
def straight_road():
    return build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(600.0),)))


@pytest.fixture(scope="module")
def whole_route_segment(straight_road):
    return CurveSegment(0.0, straight_road.length, 0.0, "left")


class TestDetectCurveSegments:
    def test_straight_has_none(self, straight_road):
        assert detect_curve_segments(straight_road) == []

    def test_single_arc(self):
        spec = ScenarioSpec(
            segments=(
                RoadSegmentSpec.straight(100.0),
                RoadSegmentSpec.arc(300.0, 0.005),
                RoadSegmentSpec.straight(100.0),
            )
        )
        road = build_scenario_road(spec)
        segments = detect_curve_segments(road, kappa_threshold=0.001)
        assert len(segments) == 1
        seg = segments[0]
        assert seg.direction == "left"
        assert seg.start_s == pytest.approx(100.0, abs=1.0)
        assert seg.end_s == pytest.approx(400.0, abs=1.0)
        assert seg.peak_kappa == pytest.approx(0.005)

    def test_s_curve_has_left_and_right(self, s_curve_road):
        segments = detect_curve_segments(s_curve_road)
        assert [seg.direction for seg in segments] == ["left", "right"]

    def test_short_runs_filtered(self):
        spec = ScenarioSpec(
            segments=(
                RoadSegmentSpec.straight(100.0),
                RoadSegmentSpec.arc(30.0, 0.005),
                RoadSegmentSpec.straight(100.0),
            )
        )
        road = build_scenario_road(spec)
        assert detect_curve_segments(road, min_length=50.0) == []


class TestSafetyMetrics:
    def test_midline_trace(self, straight_road, whole_route_segment):
        stations = np.arange(0.0, 500.0, 1.25)
        trace = synthetic_trace(stations, np.zeros_like(stations), straight_road)
        report = safety_metrics(trace, straight_road, VehicleSpec(width=1.8), [whole_route_segment])
        assert report.border_violation_ratio == 0.0
        assert report.min_border_distance == pytest.approx(0.95, abs=1e-9)

    def test_edge_violation(self, straight_road, whole_route_segment):
        stations = np.arange(0.0, 500.0, 1.25)
        offsets = np.zeros_like(stations)
        offsets[100] = 1.0  # edge at 1.9 m exceeds the 1.85 m half lane
        trace = synthetic_trace(stations, offsets, straight_road)
        report = safety_metrics(trace, straight_road, VehicleSpec(width=1.8), [whole_route_segment])
        assert report.violations == 1
        assert report.border_violation_ratio == pytest.approx(1.0 / len(stations))
        assert report.min_border_distance == 0.0

    @given(size=st.integers(1, 100_000), data=st.data())
    def test_ratio_is_the_mean_of_the_violating_samples(self, size, data):
        """violations / samples is the ratio numpy's mean of the 0/1 sample
        flags gives, to the bit."""
        violations = data.draw(st.integers(0, size))
        violating = np.zeros(size, dtype=bool)
        violating[:violations] = True
        ratio = SafetyReport(0.0, (), violations, size).border_violation_ratio
        assert ratio == float(np.mean(violating))

    def test_width_monotonicity(self, straight_road, whole_route_segment):
        rng = np.random.default_rng(3)
        stations = np.arange(0.0, 500.0, 1.25)
        offsets = rng.uniform(-0.8, 0.8, stations.size)
        trace = synthetic_trace(stations, offsets, straight_road)
        previous_ratio, previous_min = -1.0, np.inf
        for width in (1.2, 1.5, 1.8, 2.1):
            report = safety_metrics(
                trace, straight_road, VehicleSpec(width=width), [whole_route_segment]
            )
            assert report.border_violation_ratio >= previous_ratio
            assert report.min_border_distance <= previous_min
            previous_ratio = report.border_violation_ratio
            previous_min = report.min_border_distance

    def test_report_format_row(self, tmp_path, straight_road, whole_route_segment):
        stations = np.arange(0.0, 500.0, 1.25)
        trace = synthetic_trace(stations, np.full(stations.size, 0.492), straight_road)
        report = safety_metrics(trace, straight_road, VehicleSpec(width=1.8), [whole_route_segment])
        assert report.min_border_distance == pytest.approx(0.458, abs=1e-9)
        write_safety_report([("driver_1", report)], tmp_path / "safety.csv", tmp_path / "safety.json")
        rows = read_report(tmp_path / "safety.csv", "safety")
        assert rows[0]["border_violation_pct"] == 0.0
        assert rows[0]["min_border_distance_m"] == pytest.approx(0.458)

    def test_requires_projection(self, clean_driver_log, s_curve_road):
        trace = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="validation")
        segments = detect_curve_segments(s_curve_road)
        message = r"^planned trace has no stations; run project_onto\(trace, corridor\) first$"
        with pytest.raises(ValueError, match=message):
            safety_metrics(trace, s_curve_road, VehicleSpec(), segments)


class TestPerformanceMetrics:
    def test_self_comparison(self, straight_road, whole_route_segment):
        stations = np.arange(0.0, 500.0, 1.25)
        offsets = 0.2 + 0.1 * np.sin(stations / 40.0)
        trace = synthetic_trace(stations, offsets, straight_road)
        report = performance_metrics(trace, trace, [whole_route_segment])
        assert report.avg_distance == 0.0
        assert report.max_distance == 0.0
        assert report.side_correctness == 1.0

    def test_mirrored_trace_has_zero_side_correctness(self, straight_road, whole_route_segment):
        stations = np.arange(0.0, 500.0, 1.25)
        offsets = 0.2 + 0.1 * np.sin(stations / 40.0)
        trace = synthetic_trace(stations, offsets, straight_road)
        mirrored = synthetic_trace(stations, -offsets, straight_road)
        report = performance_metrics(trace, mirrored, [whole_route_segment])
        assert report.side_correctness == 0.0

    def test_zero_band_counts_as_match(self, straight_road, whole_route_segment):
        stations = np.arange(0.0, 500.0, 1.25)
        tiny = np.full(stations.size, 0.004)
        a = synthetic_trace(stations, tiny, straight_road)
        b = synthetic_trace(stations, -tiny, straight_road)
        report = performance_metrics(a, b, [whole_route_segment])
        assert report.side_correctness == 1.0

    def test_segment_restriction(self, straight_road):
        segment = CurveSegment(100.0, 200.0, 0.0, "left")
        stations = np.arange(90.0, 210.0, 1.25)
        offsets = 0.1 * np.sin(stations / 15.0) + 0.2
        planned = synthetic_trace(stations, offsets, straight_road)
        human = synthetic_trace(stations, offsets * 0.9, straight_road)
        base = performance_metrics(planned, human, [segment])

        extra_stations = np.concatenate([stations, np.arange(300.0, 400.0, 1.25)])
        extra_offsets = np.concatenate([offsets, np.full(80, 1.4)])
        planned_ext = synthetic_trace(extra_stations, extra_offsets, straight_road)
        human_ext = synthetic_trace(extra_stations, np.concatenate([offsets * 0.9, np.full(80, -1.4)]), straight_road)
        extended = performance_metrics(planned_ext, human_ext, [segment])
        assert extended.avg_distance == pytest.approx(base.avg_distance)
        assert extended.max_distance == pytest.approx(base.max_distance)
        assert extended.side_correctness == pytest.approx(base.side_correctness)

    def test_no_overlap_raises(self, straight_road):
        segment = CurveSegment(400.0, 500.0, 0.0, "left")
        stations = np.arange(0.0, 100.0, 1.25)
        trace = synthetic_trace(stations, np.zeros_like(stations), straight_road)
        with pytest.raises(ValueError, match="overlap"):
            performance_metrics(trace, trace, [segment])

    def test_no_segments_raises(self, straight_road):
        stations = np.arange(0.0, 100.0, 1.25)
        trace = synthetic_trace(stations, np.zeros_like(stations), straight_road)
        with pytest.raises(ValueError, match="^no curve segments given$"):
            performance_metrics(trace, trace, [])

    def test_requires_projection(self, clean_driver_log, s_curve_road):
        trace = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="validation")
        segments = detect_curve_segments(s_curve_road)
        with pytest.raises(ValueError, match="project_onto"):
            performance_metrics(trace, trace, segments)


class TestCaseStudy:
    def test_column_layout(self, tmp_path, s_curve_road, clean_driver_log):
        planned = project_onto(
            run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="validation"), s_curve_road
        )
        human = project_onto(
            run_replay(clean_driver_log, GainMatrix.zeros(), mode="estimation"), s_curve_road
        )
        segment = detect_curve_segments(s_curve_road)[0]
        off_path, curv_path = emit_case_study(
            planned, human, s_curve_road, segment,
            tmp_path / "offsets.csv", tmp_path / "curvature.csv",
        )
        off_lines = (tmp_path / "offsets.csv").read_text().splitlines()
        curv_lines = (tmp_path / "curvature.csv").read_text().splitlines()
        assert off_lines[0] == "s,offset_planned,offset_ref"
        assert curv_lines[0] == "s,kappa_planned,kappa_ref,kappa_corridor,kappa_diff"
        assert all(len(line.split(",")) == 3 for line in off_lines[1:])
        assert all(len(line.split(",")) == 5 for line in curv_lines[1:])

    def test_straight_zero_gain_series_are_zero(self, tmp_path, straight_road):
        driver = SyntheticDriverSpec(gains_true=GainMatrix.zeros(), seed=5)
        log = generate_synthetic_driver_log(straight_road, driver)
        planned = project_onto(run_replay(log, GainMatrix.zeros(), mode="validation"), straight_road)
        human = project_onto(run_replay(log, GainMatrix.zeros(), mode="estimation"), straight_road)
        segment = CurveSegment(50.0, 300.0, 0.0, "left")
        emit_case_study(
            planned, human, straight_road, segment,
            tmp_path / "o.csv", tmp_path / "c.csv",
        )
        data = np.genfromtxt(tmp_path / "o.csv", delimiter=",", names=True)
        assert np.max(np.abs(data["offset_planned"])) < 1e-9
        assert np.max(np.abs(data["offset_ref"])) < 1e-9


class TestReportRoundTrip:
    def test_safety_and_performance_round_trip(self, tmp_path, straight_road, whole_route_segment):
        rng = np.random.default_rng(7)
        stations = np.arange(0.0, 500.0, 1.25)
        offsets = rng.uniform(-0.9, 0.9, stations.size)
        trace = synthetic_trace(stations, offsets, straight_road)
        human = synthetic_trace(stations, offsets + rng.uniform(-0.05, 0.05, stations.size), straight_road)
        s_rep = safety_metrics(trace, straight_road, VehicleSpec(), [whole_route_segment])
        p_rep = performance_metrics(trace, human, [whole_route_segment])
        write_safety_report([("d1", s_rep)], tmp_path / "s.csv", tmp_path / "s.json")
        write_performance_report([("d1", p_rep)], tmp_path / "p.csv", tmp_path / "p.json")
        s_rows = read_report(tmp_path / "s.csv", "safety")
        p_rows = read_report(tmp_path / "p.csv", "performance")
        assert s_rows[0]["border_violation_pct"] == 100.0 * s_rep.border_violation_ratio
        assert s_rows[0]["min_border_distance_m"] == s_rep.min_border_distance
        assert p_rows[0]["avg_distance_m"] == p_rep.avg_distance
        assert p_rows[0]["max_distance_m"] == p_rep.max_distance
        assert p_rows[0]["side_correctness_pct"] == 100.0 * p_rep.side_correctness


class TestReportFormatReference:
    def test_performance_row_shape(self, tmp_path):
        # representative magnitudes: centimetre-level average distance and a
        # side correctness fraction expressed in percent
        from curvepath.metrics import PerformanceReport

        report = PerformanceReport(
            avg_distance=0.0204, max_distance=0.0891, side_correctness=0.6656
        )
        write_performance_report([("driver_1", report)], tmp_path / "p.csv", tmp_path / "p.json")
        row = read_report(tmp_path / "p.csv", "performance")[0]
        assert row["avg_distance_m"] == pytest.approx(0.0204)
        assert row["side_correctness_pct"] == pytest.approx(66.56)


class TestCurveSegmentType:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurveSegment(10.0, 5.0, 0.005, "left")
        with pytest.raises(ValueError):
            CurveSegment(0.0, 10.0, 0.005, "up")
        with pytest.raises(ValueError):
            CurveSegment(0.0, 10.0, -0.1, "left")

    def test_vehicle_wider_than_lane_rejected(self, straight_road, whole_route_segment):
        stations = np.arange(0.0, 100.0, 1.25)
        trace = synthetic_trace(stations, np.zeros_like(stations), straight_road)
        with pytest.raises(ValueError, match="width"):
            safety_metrics(trace, straight_road, VehicleSpec(width=4.0), [whole_route_segment])
