"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.
"""

import math
import time

import numpy as np

from curvepath.calibration import (
    RegressionDataset,
    assemble_dataset,
    fit_gain_matrix,
    node_count_tradeoff,
    optimize_node_distances,
)
from curvepath.clothoid import fit_g1
from curvepath.cli import main
from curvepath.metrics import (
    CurveSegment,
    VehicleSpec,
    detect_curve_segments,
    emit_case_study,
    performance_metrics,
    project_onto,
    safety_metrics,
)
from curvepath.planner import (
    DEFAULT_RETRIGGER_CYCLES,
    GainMatrix,
    NodePointParams,
)
from curvepath.road import DEFAULT_LANE_WIDTH_M, DEFAULT_PREVIEW_M, Pose, wrap_angle
from curvepath.simulate import (
    DEFAULT_SAMPLE_TIME_S,
    DEFAULT_SPEED_MPS,
    DriveLog,
    RoadSegmentSpec,
    ScenarioSpec,
    SyntheticDriverSpec,
    build_scenario_road,
    generate_synthetic_driver_log,
    run_replay,
    s_curve_scenario,
    winding_scenario,
)

from conftest import P_TRUE
from helpers import build_chained_node_log
from _oracles import integrate_pose


def _passed(label):
    print(f"\nACCEPTANCE {label}: PASS")


def test_01_clothoid_g1_closure():
    """1000 random two-pose problems close at the endpoint, checked against
    an independent adaptive-quadrature integration, within the time budget."""
    rng = np.random.default_rng(20240601)
    t0 = time.perf_counter()
    worst_pos = 0.0
    worst_heading = 0.0
    for _ in range(1000):
        chord = rng.uniform(5.0, 250.0)
        phi = rng.uniform(-math.pi, math.pi)
        start = Pose(*rng.uniform(-200.0, 200.0, 2), phi + rng.uniform(-2.0, 2.0))
        end = Pose(
            start.x + chord * math.cos(phi),
            start.y + chord * math.sin(phi),
            phi + rng.uniform(-2.0, 2.0),
        )
        seg = fit_g1(start, end)
        ox, oy, oth = integrate_pose(seg.start, seg.kappa0, seg.kappa_rate, seg.length)
        worst_pos = max(worst_pos, math.hypot(ox - end.x, oy - end.y))
        worst_heading = max(worst_heading, abs(wrap_angle(oth - end.theta)))
    elapsed = time.perf_counter() - t0
    assert worst_pos < 1e-6, f"position residual {worst_pos:.2e}"
    assert worst_heading < 1e-8, f"heading residual {worst_heading:.2e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    _passed(f"1 clothoid closure (pos {worst_pos:.1e} m, heading {worst_heading:.1e} rad, {elapsed:.1f}s)")


def test_02_circle_recovery():
    """Fitting analytic circular-arc endpoints recovers the arc parameters."""
    end = Pose(100.0 * math.sin(0.5), 100.0 * (1.0 - math.cos(0.5)), 0.5)
    seg = fit_g1(Pose(0.0, 0.0, 0.0), end)
    assert abs(seg.kappa0 - 0.01) < 1e-8
    assert abs(seg.kappa_rate) < 1e-8
    assert abs(seg.length - 50.0) < 1e-6
    _passed("2 circle recovery")


def test_03_calibration_round_trip():
    """Noise-free identification is exact; noisy error scales like 1/sqrt(N)."""
    motif = s_curve_scenario().segments
    long_s = ScenarioSpec(segments=motif * 4)
    road = build_scenario_road(long_s)
    driver = SyntheticDriverSpec(gains_true=GainMatrix(P_TRUE), offset_noise_sigma=0.0, seed=17)
    log = generate_synthetic_driver_log(road, driver)
    data = assemble_dataset(log)
    assert data.n_cycles >= 100
    clean_error = float(np.linalg.norm(fit_gain_matrix(data).gains.p - P_TRUE))
    assert clean_error < 1e-9, f"noise-free error {clean_error:.2e}"

    noisy_road = build_scenario_road(winding_scenario(187))
    noisy_driver = SyntheticDriverSpec(
        gains_true=GainMatrix(P_TRUE), offset_noise_sigma=0.05, seed=12345
    )
    noisy_log = generate_synthetic_driver_log(noisy_road, noisy_driver)
    noisy_data = assemble_dataset(noisy_log)
    assert noisy_data.n_cycles >= 2000

    def error_at(n):
        sub = RegressionDataset(offsets=noisy_data.offsets[:, :n], inputs=noisy_data.inputs[:, :n])
        return float(np.linalg.norm(fit_gain_matrix(sub).gains.p - P_TRUE))

    ratio = error_at(500) / error_at(2000)
    assert 1.4 <= ratio <= 2.6, f"scaling ratio {ratio:.2f}"
    _passed(f"3 calibration round trip (clean {clean_error:.1e}, noise ratio {ratio:.2f})")


def test_04_default_parameter_conformance():
    """Stock parameters: node distances, retrigger timing, preview, lane width,
    and the replan-count arithmetic."""
    params = NodePointParams()
    assert params.distances == (10.0, 39.0, 137.0)
    assert DEFAULT_RETRIGGER_CYCLES == 30
    assert DEFAULT_SAMPLE_TIME_S == 0.05
    assert DEFAULT_RETRIGGER_CYCLES * DEFAULT_SAMPLE_TIME_S == 1.5
    assert DEFAULT_PREVIEW_M == 150.0
    assert DEFAULT_LANE_WIDTH_M == 3.70
    assert DEFAULT_SPEED_MPS * DEFAULT_SAMPLE_TIME_S * DEFAULT_RETRIGGER_CYCLES == 37.5

    road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(550.0),)))
    log = generate_synthetic_driver_log(
        road, SyntheticDriverSpec(gains_true=GainMatrix(P_TRUE), seed=3)
    )
    short = DriveLog(
        cycle=log.cycle[:300],
        **{name: getattr(log, name)[:300] for name in DriveLog._FLOAT_COLUMNS},
    )
    trace = run_replay(short, GainMatrix(P_TRUE))
    assert len(trace.replans) == 10
    _passed("4 default parameter conformance (300 cycles -> 10 replans)")


def test_05_straight_road_identity():
    """On a straight road every finite gain matrix keeps the plan on the
    midline, and the planned trace matches a midline-following reference."""
    road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(700.0),)))
    log = generate_synthetic_driver_log(
        road, SyntheticDriverSpec(gains_true=GainMatrix.zeros(), seed=1)
    )
    rng = np.random.default_rng(2)
    gain_cases = [
        GainMatrix.zeros(),
        GainMatrix(np.diag([1000.0, 1000.0, 1000.0])),
        GainMatrix(rng.uniform(-500.0, 500.0, (3, 3))),
    ]
    worst = 0.0
    for gains in gain_cases:
        trace = run_replay(log, gains, mode="validation")
        worst = max(worst, float(np.max(np.abs(trace.y))))
    assert worst < 1e-6, f"midline deviation {worst:.2e}"

    planned = project_onto(run_replay(log, gain_cases[2], mode="validation"), road)
    from test_metrics import synthetic_trace

    stations = np.arange(0.0, road.length - 1.0, 1.25)
    human = synthetic_trace(stations, np.zeros_like(stations), road)
    whole_route = CurveSegment(0.0, road.length, 0.0, "left")
    report = performance_metrics(planned, human, [whole_route])
    assert report.avg_distance < 1e-6
    _passed(f"5 straight-road identity (max deviation {worst:.1e} m)")


def test_06_curve_cutting_case_study(tmp_path):
    """The emitted case-study data reproduces the curve-cutting signature:
    within the high-curvature core of the left curve the planned path is
    less curved than the corridor (judged on the mean and the sample
    majority, which is how the sawtooth of a cyclically replanning planner
    reads once plotted), while the lead-in before the curve shows the early
    positive steering; offsets mirror when the road is mirrored."""
    gains = GainMatrix(np.diag([80.0, 80.0, 80.0]))

    def run(kappa_sign):
        scenario = s_curve_scenario(kappa=kappa_sign * 0.0045)
        road = build_scenario_road(scenario)
        driver = SyntheticDriverSpec(gains_true=gains, offset_noise_sigma=0.0, seed=3)
        log = generate_synthetic_driver_log(road, driver, speed=scenario.speed)
        planned = project_onto(run_replay(log, gains, mode="validation"), road)
        reference = project_onto(run_replay(log, gains, mode="estimation"), road)
        return road, planned, reference

    road, planned, reference = run(+1.0)
    segments = detect_curve_segments(road)
    left = [seg for seg in segments if seg.direction == "left"][0]
    off_path = tmp_path / "offsets.csv"
    curv_path = tmp_path / "curvature.csv"
    emit_case_study(planned, reference, road, left, off_path, curv_path)

    data = np.genfromtxt(curv_path, delimiter=",", names=True)
    s = data["s"]
    diff = data["kappa_diff"]
    core = (
        (s >= left.start_s)
        & (s <= left.end_s)
        & (data["kappa_corridor"] >= 0.8 * left.peak_kappa)
    )
    lead = (s > left.start_s - 45.0) & (s < left.start_s - 5.0)
    assert core.sum() > 50 and lead.sum() > 20
    core_mean = float(diff[core].mean())
    core_negative_fraction = float(np.mean(diff[core] < 0.0))
    lead_mean = float(diff[lead].mean())
    assert core_mean < -1e-5, f"core mean {core_mean:.2e}"
    assert core_negative_fraction >= 0.6, f"core negative fraction {core_negative_fraction:.2f}"
    assert lead_mean > 2e-5, f"lead-in mean {lead_mean:.2e}"

    road_m, planned_m, _ = run(-1.0)
    n = min(len(planned), len(planned_m))
    mirror_gap = float(np.max(np.abs(planned.offset[:n] + planned_m.offset[:n])))
    assert mirror_gap < 1e-9, f"mirror gap {mirror_gap:.2e}"
    _passed(
        f"6 curve-cutting case study (core mean {core_mean:.1e}, neg frac "
        f"{core_negative_fraction:.2f}, lead {lead_mean:.1e}, mirror {mirror_gap:.1e})"
    )


def test_07_node_count_sweep(clean_driver_log):
    """Normalised midline error never grows and planning time never shrinks
    with more node points (within the 5 percent noise band), both hitting 1.0."""
    sweep = node_count_tradeoff(clean_driver_log, counts=range(1, 11), repeats=3)
    errors = [row[1] for row in sweep]
    times = [row[2] for row in sweep]
    assert max(errors) == 1.0
    assert max(times) == 1.0
    for a, b in zip(errors, errors[1:]):
        assert b <= a * 1.05 + 1e-12, f"error increased: {a:.4f} -> {b:.4f}"
    for a, b in zip(times, times[1:]):
        assert b >= a * 0.95, f"time decreased: {a:.4f} -> {b:.4f}"
    _passed("7 node-count sweep shape")


def test_08_node_distance_recovery():
    """Node distances are recovered from a drive whose path was built from
    the stock distances."""
    road = build_scenario_road(winding_scenario(10))
    truth = NodePointParams()
    log = build_chained_node_log(road, truth, n_blocks=8)
    result = optimize_node_distances(
        log, NodePointParams(20.0, 60.0, 180.0), window=400, stride=109
    )
    assert not result.flat_cost
    recovered = np.array(result.params.distances)
    errors = np.abs(recovered - np.array(truth.distances))
    assert np.all(errors <= 2.0), f"recovered {recovered}, errors {errors}"
    _passed(f"8 node-distance recovery ({np.round(recovered, 2).tolist()})")


def test_09_metric_oracles():
    """Safety and performance metrics reproduce their closed-form values."""
    road = build_scenario_road(ScenarioSpec(segments=(RoadSegmentSpec.straight(600.0),)))
    whole = CurveSegment(0.0, road.length, 0.0, "left")
    from test_metrics import synthetic_trace

    stations = np.arange(0.0, 500.0, 1.25)
    midline = synthetic_trace(stations, np.zeros_like(stations), road)
    safety = safety_metrics(midline, road, VehicleSpec(width=1.8), [whole])
    assert safety.border_violation_ratio == 0.0
    assert abs(safety.min_border_distance - 0.95) < 1e-9

    offsets = 0.2 + 0.1 * np.sin(stations / 30.0)
    trace = synthetic_trace(stations, offsets, road)
    self_report = performance_metrics(trace, trace, [whole])
    assert self_report.avg_distance == 0.0
    assert self_report.max_distance == 0.0
    assert self_report.side_correctness == 1.0

    mirrored = synthetic_trace(stations, -offsets, road)
    mirror_report = performance_metrics(trace, mirrored, [whole])
    assert mirror_report.side_correctness == 0.0
    _passed("9 metric oracles")


def test_10_cli_determinism(tmp_path):
    """synth + simulate + evaluate with a fixed seed are byte-identical."""

    def pipeline(root):
        cohort = root / "cohort"
        assert main(
            ["synth", "--out-dir", str(cohort), "--drivers", "3", "--sigma", "0.04", "--seed", "99"]
        ) == 0
        gains = root / "gains.json"
        assert main(
            ["calibrate", "--log", str(cohort / "driver_01.csv"), "--out", str(gains)]
        ) == 0
        assert main(
            [
                "simulate",
                "--log",
                str(cohort / "driver_01.csv"),
                "--gains",
                str(gains),
                "--out-prefix",
                str(root / "run"),
            ]
        ) == 0
        assert main(
            ["evaluate", "--cohort", str(cohort / "cohort.json"), "--out-dir", str(root / "reports")]
        ) == 0
        artifacts = sorted(
            p for p in root.rglob("*")
            if p.is_file() and p != gains  # the calibration file carries a timestamp
        )
        return {str(p.relative_to(root)): p.read_bytes() for p in artifacts}

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact differs: {name}"
    _passed(f"10 determinism across {len(first)} artifacts")
