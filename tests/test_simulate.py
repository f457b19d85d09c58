import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvepath.planner import GainMatrix, NodePointParams
from curvepath.road import Pose
from curvepath.simulate import (
    DriveLog,
    LogFormatError,
    RoadSegmentSpec,
    ScenarioSpec,
    SyntheticDriverSpec,
    build_scenario_road,
    extract_measured_offsets,
    fit_lane_polynomial,
    format_float,
    generate_synthetic_driver_log,
    load_drive_log,
    node_row_indices,
    perceived_offsets,
    run_replay,
    s_curve_scenario,
)

from conftest import P_TRUE


def _numpy_positional(value):
    return np.format_float_positional(value, unique=True, min_digits=9)


def minimal_log_rows(n=3):
    header = "cycle,t,x,y,theta,speed,c0,c1,c2,c3,lane_width"
    rows = [header]
    for i in range(n):
        rows.append(f"{i},{i*0.05},{i*1.25},0.0,0.0,25.0,0.0,0.0,0.0,0.0,3.7")
    return "\n".join(rows) + "\n"


class TestDriveLogCsv:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(minimal_log_rows(3), encoding="utf-8")
        log = load_drive_log(path)
        assert len(log) == 3
        assert log.sample_time == pytest.approx(0.05)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "cycle,t,x,y,theta,speed,c0,c1,c2,c3,lane_width\n0,0.0,0.0,1.0,2.0\n",
            encoding="utf-8",
        )
        with pytest.raises(LogFormatError, match="line 2"):
            load_drive_log(path)

    def test_header_only_is_empty_log(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("cycle,t,x,y,theta,speed,c0,c1,c2,c3,lane_width\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match="empty"):
            load_drive_log(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(LogFormatError, match="header"):
            load_drive_log(path)

    def test_non_contiguous_cycles(self, tmp_path):
        text = minimal_log_rows(3).replace("\n2,", "\n5,")
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        message = f"^{re.escape(str(path))}: cycle indices must be contiguous: row 2 has cycle 5 after 1$"
        with pytest.raises(LogFormatError, match=message):
            load_drive_log(path)

    def test_a_bad_cell_names_the_file(self, tmp_path):
        text = minimal_log_rows(3).replace(",0.0,0.0,3.7\n", ",nan,0.0,3.7\n", 1)
        assert ",nan," in text
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LogFormatError, match=f"^{re.escape(str(path))}: column c2 contains non-finite values$"):
            load_drive_log(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_timestamp_names_the_column(self, tmp_path, bad):
        # a nan must not reach the median step, which calls it non-increasing
        text = minimal_log_rows(5).replace("\n2,0.1,", f"\n2,{bad},")
        assert bad in text
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="column t contains non-finite values"):
            load_drive_log(path)

    def test_falling_timestamps_rejected(self, tmp_path):
        # t runs 0.0, -0.05, -0.1: the median step is negative
        text = minimal_log_rows(3).replace("\n1,0.05,", "\n1,-0.05,").replace("\n2,0.1,", "\n2,-0.1,")
        assert "-0.1," in text
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LogFormatError, match=f"^{re.escape(str(path))}: non-increasing timestamps$"):
            load_drive_log(path)

    def test_overflowing_median_step_rejected(self, tmp_path):
        # t alternates -1e308, 1e308: two of the three steps overflow to
        # +inf, and an infinite sample time would follow a whole plan per cycle
        text = minimal_log_rows(4)
        for row, t in enumerate(("-1e308", "1e308", "-1e308", "1e308")):
            text = text.replace(f"\n{row},{row * 0.05},", f"\n{row},{t},")
        assert text.count("e308,") == 4
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LogFormatError, match=f"^{re.escape(str(path))}: timestamps overflow their median step$"):
            load_drive_log(path)

    def test_bit_exact_round_trip(self, tmp_path, clean_driver_log):
        path = tmp_path / "log.csv"
        clean_driver_log.write_csv(path)
        loaded = load_drive_log(path)
        for name in DriveLog._FLOAT_COLUMNS:
            assert np.array_equal(getattr(clean_driver_log, name), getattr(loaded, name)), name
        path2 = tmp_path / "log2.csv"
        loaded.write_csv(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_format_float_is_fixed_notation(self):
        assert "e" not in format_float(1e-12)
        assert float(format_float(0.1 + 0.2)) == 0.1 + 0.2
        assert len(format_float(0.5).split(".")[1]) >= 9

    @settings(max_examples=3000)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_format_float_prints_as_numpy(self, value):
        expected = _numpy_positional(value)
        assert format_float(value) == expected
        assert format_float(np.float64(value)) == expected

    @settings(max_examples=1000)
    @given(st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_format_float_prints_a_float32_as_its_double(self, value):
        single = np.float32(value)
        assert format_float(single) == _numpy_positional(float(single))

    @pytest.mark.parametrize("value,text", [
        (0.0, "0.000000000"),
        (-0.0, "-0.000000000"),
        (5e-324, "0." + "0" * 323 + "5"),
        (2.2250738585072014e-308, "0." + "0" * 307 + "22250738585072014"),
        (1.7976931348623157e308, None),
        (-1.7976931348623157e308, None),
        (1e16, "10000000000000000.000000000"),
        (1e22, "10000000000000000000000.000000000"),
        (1e-5, "0.000010000"),
        (1.5e-7, "0.000000150"),
        (-2.5e-10, "-0.00000000025"),
        (1.234e-05, "0.000012340"),
        (15.0, "15.000000000"),
        (3.7, "3.700000000"),
        # fewer than 9 digits: the exact binary value to 9 digits, not a zero pad
        (-5373140820401.805, "-5373140820401.804687500"),
        (0.1 + 0.2, "0.30000000000000004"),
        # 8, 9 and 10 fractional digits in repr
        (0.12345678, "0.123456780"),
        (1234567.12345678, "1234567.123456780"),
        (0.123456789, "0.123456789"),
        (0.1234567891, "0.1234567891"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
    ])
    def test_format_float_edge_values(self, value, text):
        assert format_float(value) == _numpy_positional(value)
        if text is not None:
            assert format_float(value) == text
        if math.isfinite(value):
            assert float(format_float(value)) == value


class TestDriveLogValidation:
    def _columns(self, n, **overrides):
        cols = dict(
            cycle=np.arange(n, dtype=np.int64),
            t=np.arange(n) * 0.05,
            x=np.arange(n) * 1.25,
            y=np.zeros(n),
            theta=np.zeros(n),
            speed=np.full(n, 25.0),
            c0=np.zeros(n),
            c1=np.zeros(n),
            c2=np.zeros(n),
            c3=np.zeros(n),
            lane_width=np.full(n, 3.7),
        )
        cols.update(overrides)
        return cols

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="speed"):
            DriveLog(**self._columns(3, speed=np.array([25.0, -1.0, 25.0])))

    def test_bad_sample_time_rejected(self):
        with pytest.raises(ValueError, match="sample_time"):
            DriveLog(**self._columns(3), sample_time=0.0)

    # t's median step, or 0.05 s for one row, which says nothing of the step
    @pytest.mark.parametrize("t,step", [
        (np.arange(3) * 0.05, 0.05),
        (np.arange(3) * 0.1, 0.1),
        (np.array([0.0, 0.1, 0.2, 5.0]), 0.1),
        (np.array([7.0]), 0.05),
    ], ids=["0.05", "0.1", "outlier", "one-row"])
    def test_t_sets_the_sample_time(self, t, step):
        cols = self._columns(t.size, t=t)
        assert DriveLog(**cols).sample_time == step
        assert DriveLog(**cols, sample_time=step).sample_time == step
        with pytest.raises(ValueError, match=f"^sample_time 0.075 contradicts the median step of t, {step}$"):
            DriveLog(**cols, sample_time=0.075)

    def test_a_replaced_t_cannot_keep_the_old_step(self, synth_log, tmp_path):
        assert synth_log.sample_time == 0.05
        t = synth_log.cycle * 1e300
        message = r"^sample_time 0.05 contradicts the median step of t, 1.0000000000000149e\+300$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(synth_log, t=t)
        log = dataclasses.replace(synth_log, t=t, sample_time=None)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        assert log.sample_time == load_drive_log(path).sample_time == 1.0000000000000149e300

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DriveLog(**self._columns(3, x=np.array([0.0, np.nan, 2.5])))

    def test_a_log_and_its_trace_cannot_be_reassigned(self):
        # a new column would skip every check, the sample-time rule included
        log = DriveLog(**self._columns(5))
        trace = run_replay(log, GainMatrix.zeros())
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.t = log.t * 1000
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.x = trace.x + 1.0
        assert log.sample_time == 0.05


class TestScenarioRoad:
    def test_single_straight(self):
        road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(1000.0),)))
        assert np.all(road.kappa == 0.0)
        assert road.length == pytest.approx(1000.0)

    def test_arc_heading_change(self):
        spec = ScenarioSpec(
            segments=(
                RoadSegmentSpec.straight(200.0),
                RoadSegmentSpec.arc(300.0, 0.005),
                RoadSegmentSpec.straight(200.0),
            )
        )
        road = build_scenario_road(spec)
        assert road.theta[-1] - road.theta[0] == pytest.approx(1.5, abs=1e-9)

    def test_s_curve_antisymmetric(self):
        spec = ScenarioSpec(
            segments=(
                RoadSegmentSpec.transition(100.0, 0.0, 0.008),
                RoadSegmentSpec.arc(100.0, 0.008),
                RoadSegmentSpec.transition(200.0, 0.008, -0.008),
                RoadSegmentSpec.arc(100.0, -0.008),
                RoadSegmentSpec.transition(100.0, -0.008, 0.0),
            )
        )
        road = build_scenario_road(spec)
        mid = road.length / 2.0
        probe = np.linspace(10.0, road.length / 2.0 - 10.0, 50)
        left = road.kappa_at(mid - probe)
        right = road.kappa_at(mid + probe)
        assert np.allclose(left, -right, atol=1e-9)

    def test_discontinuous_transition_rejected(self):
        with pytest.raises(ValueError, match="discontinuous"):
            ScenarioSpec(
                segments=(
                    RoadSegmentSpec.straight(100.0),
                    RoadSegmentSpec.transition(50.0, 0.002, 0.004),
                )
            )

    def test_spec_dict_round_trip(self):
        spec = s_curve_scenario()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestSyntheticDriver:
    def test_straight_road_stays_on_midline(self):
        road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(400.0),)))
        driver = SyntheticDriverSpec(gains_true=GainMatrix(P_TRUE), seed=3)
        log = generate_synthetic_driver_log(road, driver)
        assert np.max(np.abs(log.y)) < 1e-6

    def test_same_seed_reproduces(self, s_curve_road):
        driver = SyntheticDriverSpec(gains_true=GainMatrix(P_TRUE), offset_noise_sigma=0.1, seed=9)
        a = generate_synthetic_driver_log(s_curve_road, driver)
        b = generate_synthetic_driver_log(s_curve_road, driver)
        for name in DriveLog._FLOAT_COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            SyntheticDriverSpec(gains_true=GainMatrix.zeros(), offset_noise_sigma=-0.1)

    def test_offsets_recoverable_from_log(self, clean_driver_log):
        # the committed node offsets are exactly the gain product of the
        # logged curvature inputs (measured through the perception channel)
        from curvepath.calibration import assemble_dataset

        data = assemble_dataset(clean_driver_log)
        assert np.max(np.abs(data.offsets - P_TRUE @ data.inputs)) < 1e-12


class TestMeasuredOffsets:
    def test_node_rows_at_constant_speed(self, clean_driver_log):
        rows = node_row_indices(clean_driver_log, 0, (10.0, 39.0, 137.0))
        assert rows == [8, 31, 110]

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_node_rows_are_the_nearest_station(self, data):
        # stops (zero speeds), subnormal and huge speeds and steps: each row
        # is the logged row nearest the node distance, the last of a stop
        # short of it or the first of a stop past it, and a nearest station
        # one cycle past the log's end lacks preview
        from curvepath.road import InsufficientPreviewError

        speed = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e308, allow_subnormal=True))
        speeds = data.draw(st.lists(speed, min_size=1, max_size=12))
        step = data.draw(st.sampled_from([1e-9, 0.05, 1.0, 1e300]))
        n = len(speeds)
        log = DriveLog(
            cycle=np.arange(n), t=np.arange(n) * step, x=np.zeros(n), y=np.zeros(n),
            theta=np.zeros(n), speed=np.array(speeds), c0=np.zeros(n), c1=np.zeros(n),
            c2=np.zeros(n), c3=np.zeros(n), lane_width=np.full(n, 3.7),
        )
        row = data.draw(st.integers(0, n - 1))
        stations = [0.0]
        for v in speeds[row:]:
            stations.append(stations[-1] + v * log.sample_time)
        near_station = st.builds(lambda s, f: s * f, st.sampled_from(stations), st.sampled_from([0.5, 1.0, 1.5]))
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True)
        d = data.draw(st.one_of(positive, near_station.filter(lambda d: 0 < d < math.inf)))

        def key(j):
            below = stations[j] < d
            return (abs(stations[j] - d), not below, -j if below else j)

        best = min(range(len(stations)), key=key)
        if best == len(speeds) - row:
            with pytest.raises(InsufficientPreviewError):
                node_row_indices(log, row, (d,))
        else:
            assert node_row_indices(log, row, (d,)) == [row + best]

    @pytest.mark.parametrize(
        "distances, rows",
        [((10.0, 10.5, 137.0), [38, 38, 140]), ((0.5, 39.0, 137.0), [30, 61, 140])],
        ids=["near-and-mid-share-a-row", "near-on-the-replan-row"],
    )
    def test_node_points_that_share_a_row_skip_the_replan(self, clean_driver_log, distances, rows):
        # 1.25 m per cycle: 10 m and 10.5 m are both 8 rows ahead, 0.5 m is
        # nearest the replan's own row
        from curvepath.simulate import ResolutionError

        assert node_row_indices(clean_driver_log, 30, distances) == rows
        message = (f"cycle 30 travels 1.25 m per cycle, too far to place node points "
                   f"{', '.join(f'{d:g}' for d in distances)} m ahead on distinct later rows")
        with pytest.raises(ResolutionError, match=f"^{re.escape(message)}$"):
            extract_measured_offsets(clean_driver_log, 30, NodePointParams(*distances))

    def test_insufficient_preview_near_log_end(self, clean_driver_log):
        from curvepath.road import InsufficientPreviewError

        with pytest.raises(InsufficientPreviewError):
            extract_measured_offsets(
                clean_driver_log, len(clean_driver_log) - 10, NodePointParams()
            )

    def test_offsets_read_from_perception_channel(self, clean_driver_log):
        offsets = extract_measured_offsets(clean_driver_log, 30, NodePointParams())
        rows = node_row_indices(clean_driver_log, 30, (10.0, 39.0, 137.0))
        assert offsets.as_array() == pytest.approx(
            -clean_driver_log.c0[rows], abs=0.0
        )


class TestLanePolynomialFit:
    def test_straight_road_fit_is_zero(self):
        road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(400.0),)))
        poly = fit_lane_polynomial(road, Pose(0.0, 0.0, 0.0), station=0.0)
        assert np.allclose(poly.coefficients, 0.0, atol=1e-12)

    def test_anchored_intercept(self):
        road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(400.0),)))
        poly = fit_lane_polynomial(
            road, Pose(0.0, 0.3, 0.0), station=0.0, anchor_c0=-0.3
        )
        assert poly.c0 == -0.3


class TestRunReplay:
    def test_replan_count_on_300_cycles(self, s_curve_road):
        driver = SyntheticDriverSpec(gains_true=GainMatrix(P_TRUE), seed=1)
        log = generate_synthetic_driver_log(s_curve_road, driver)
        short = DriveLog(
            cycle=log.cycle[:300],
            **{name: getattr(log, name)[:300] for name in DriveLog._FLOAT_COLUMNS},
        )
        trace = run_replay(short, GainMatrix(P_TRUE), retrigger=30, mode="validation")
        assert len(trace.replans) == 10

    def test_travel_between_replans(self, clean_driver_log):
        trace = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="validation")
        replan_cycles = [r.cycle for r in trace.replans if not r.gap]
        i0, i1 = replan_cycles[1], replan_cycles[2]
        travelled = math.hypot(
            trace.x[i1] - trace.x[i0], trace.y[i1] - trace.y[i0]
        )
        # 25 m/s for 30 cycles of 0.05 s, just short of the mid node distance
        assert travelled == pytest.approx(37.5, abs=0.1)

    def test_validation_zero_gains_on_straight(self):
        road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(500.0),)))
        driver = SyntheticDriverSpec(gains_true=GainMatrix.zeros(), seed=4)
        log = generate_synthetic_driver_log(road, driver)
        trace = perceived_offsets(log, run_replay(log, GainMatrix.zeros(), mode="validation"))
        assert np.max(np.abs(trace.offset)) < 1e-9

    def test_determinism(self, clean_driver_log, tmp_path):
        a = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="validation")
        b = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="validation")
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        ja, jb = tmp_path / "a.json", tmp_path / "b.json"
        a.replans_to_json(ja)
        b.replans_to_json(jb)
        assert ja.read_bytes() == jb.read_bytes()

    def test_path_starts_at_vehicle(self, clean_driver_log):
        from curvepath.road import from_planning_frame

        trace = run_replay(clean_driver_log, GainMatrix(P_TRUE), mode="validation")
        for rec in trace.replans:
            if rec.gap:
                continue
            start = from_planning_frame(rec.path.path.pose_at(0.0), rec.path.frame)
            i = rec.cycle
            assert math.hypot(start.x - trace.x[i], start.y - trace.y[i]) < 1e-6

    def test_estimation_mode_reproduces_log_offsets(self, clean_driver_log):
        trace = run_replay(clean_driver_log, GainMatrix.zeros(), mode="estimation")
        params = NodePointParams()
        checked = 0
        for rec in trace.replans:
            if rec.gap:
                continue
            expected = extract_measured_offsets(clean_driver_log, rec.cycle, params)
            assert rec.offsets.as_array() == pytest.approx(expected.as_array(), abs=0.0)
            checked += 1
        assert checked >= 10

    def test_gap_events_near_log_end(self, clean_driver_log):
        trace = run_replay(clean_driver_log, GainMatrix.zeros(), mode="estimation")
        gaps = [r for r in trace.replans if r.gap]
        assert gaps, "late replans lack preview and must be recorded as gaps"
        # the previous path stays active through the gaps
        assert trace.path_id[-1] == max(
            r.cycle for r in trace.replans if not r.gap
        ) // 30

    def test_bad_mode_rejected(self, clean_driver_log):
        with pytest.raises(ValueError):
            run_replay(clean_driver_log, GainMatrix.zeros(), mode="nonsense")
