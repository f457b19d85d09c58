"""Command line interface for the lane-keeping path planning toolkit.

Subcommands cover the full workflow: generate synthetic drive logs for a
scenario cohort (synth), identify gains and node distances from a log
(calibrate), replay a log against the model (simulate), score a cohort
(evaluate) and export plot-ready curve data (case-study).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from collections import ChainMap, Counter
from pathlib import Path

import numpy as np

from .calibration import (
    SWEEP_HEADER,
    assemble_dataset,
    fit_gain_matrix,
    node_count_tradeoff,
    optimize_node_distances,
)
from .metrics import (
    DEFAULT_KAPPA_THRESHOLD,
    DEFAULT_MIN_CURVE_LENGTH_M,
    DEFAULT_VEHICLE_WIDTH_M,
    VehicleSpec,
    detect_curve_segments,
    emit_case_study,
    performance_metrics,
    project_onto,
    safety_metrics,
    write_performance_report,
    write_safety_report,
)
from .planner import DEFAULT_NODE_DISTANCES, DEFAULT_RETRIGGER_CYCLES, GainMatrix, NodePointParams
from .road import AllSkippedError
from .simulate import (
    DriveLog,
    ScenarioSpec,
    SyntheticDriverSpec,
    build_scenario_road,
    generate_synthetic_driver_log,
    json_field,
    json_value,
    load_drive_log,
    perceived_offsets,
    run_replay,
    s_curve_scenario,
    winding_scenario,
    write_csv,
    write_json,
)

USAGE_ERROR = 1
DATA_ERROR = 2
# the exceptions that end a command with DATA_ERROR instead of a traceback
DATA_ERRORS = (ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_ERROR)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json_value(json.load(fh), dict, f"{path}: config")


_SCENARIOS = {"s-curve": s_curve_scenario, "winding": winding_scenario}


def _scenario_from(args, config: dict) -> ScenarioSpec:
    if "scenario" in config:
        return ScenarioSpec.from_dict(config["scenario"])
    return _SCENARIOS[args.scenario or "s-curve"]()


# shared setting -> (default, JSON kind)
_SETTINGS = {
    "node_distances": (list(DEFAULT_NODE_DISTANCES), list[float]),
    "retrigger": (DEFAULT_RETRIGGER_CYCLES, int),
    "kappa_threshold": (DEFAULT_KAPPA_THRESHOLD, float),
    "min_curve_length": (DEFAULT_MIN_CURVE_LENGTH_M, float),
    "vehicle_width": (DEFAULT_VEHICLE_WIDTH_M, float),
}


def _settings(args, *layers: dict) -> argparse.Namespace:
    """Every shared setting, typed: a flag that was given beats the layers
    (the config, then evaluate's cohort manifest), which beat the default."""
    given = {key: value for key, value in vars(args).items() if value is not None}
    found = ChainMap(given, *layers)
    settings = argparse.Namespace(
        **{key: json_field(found, key, kind, default) for key, (default, kind) in _SETTINGS.items()}
    )
    distances = settings.node_distances
    if len(distances) != 3:
        raise ValueError(f"node_distances: need 3 numbers, got {len(distances)}")
    settings.node_distances = NodePointParams(*distances)
    return settings


def _load_gains(path: str) -> GainMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = json_field(data, "gains_row_major", list)
    return GainMatrix.from_row_major(json_value(data, list[float], "gains"))


def _random_gains(rng: np.random.Generator) -> GainMatrix:
    diag = rng.uniform(20.0, 60.0, 3)
    off = rng.normal(0.0, 3.0, (3, 3))
    p = np.diag(diag) + off - np.diag(np.diag(off))
    return GainMatrix(p)


def _cmd_synth(args) -> int:
    if args.drivers < 1:
        raise ValueError(f"drivers must be at least 1, got {args.drivers}")
    config = _load_config(args.config)
    scenario = _scenario_from(args, config)
    settings = _settings(args, config)
    road = build_scenario_road(scenario)
    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out_dir)
    drivers = []
    for i in range(1, args.drivers + 1):
        gains = _random_gains(rng)
        seed = int(rng.integers(0, 2**31 - 1))
        spec = SyntheticDriverSpec(gains_true=gains, offset_noise_sigma=args.sigma, seed=seed)
        # created once the first spec holds, so a bad --sigma writes nothing
        out_dir.mkdir(parents=True, exist_ok=True)
        log = generate_synthetic_driver_log(
            road, spec, params=settings.node_distances, retrigger=settings.retrigger, speed=scenario.speed
        )
        log_name = f"driver_{i:02d}.csv"
        log.write_csv(out_dir / log_name)
        drivers.append(
            {
                "id": f"driver_{i:02d}",
                "log": log_name,
                "seed": seed,
                "sigma": args.sigma,
                "gains_true_row_major": gains.row_major(),
            }
        )
    manifest = {
        "scenario": scenario.to_dict(),
        "node_distances": list(settings.node_distances.distances),
        "retrigger": settings.retrigger,
        "seed": args.seed,
        "drivers": drivers,
    }
    write_json(out_dir / "cohort.json", manifest)
    print(f"wrote {len(drivers)} driver logs and cohort.json to {out_dir}")
    return 0


def _cmd_calibrate(args) -> int:
    settings = _settings(args, _load_config(args.config))
    log = load_drive_log(args.log)

    result_distances = settings.node_distances
    extras: dict = {}
    if args.optimize_distances:
        opt = optimize_node_distances(log, result_distances)
        # the gain fit at the distances the search started from, beside the
        # one at the identified distances below
        try:
            initial_rms = fit_gain_matrix(assemble_dataset(log, result_distances, settings.retrigger)).residual_rms
        except AllSkippedError:
            initial_rms = None
        result_distances = opt.params
        extras["distance_optimization"] = {
            "flat_cost": opt.flat_cost,
            "flat_windows": opt.flat_windows,
            "initial_residual_rms": initial_rms,
            "skipped_by_reason": opt.skips,
            "skipped_windows": opt.skipped_windows,
            "window_optima": [list(o) for o in opt.window_optima],
        }
    dataset = assemble_dataset(log, result_distances, settings.retrigger)
    result = fit_gain_matrix(dataset)

    payload = result.to_dict()
    payload["node_distances"] = list(result_distances.distances)
    payload["dataset"] = {"cycles": dataset.n_cycles, "skipped": dataset.skipped,
                          "skipped_by_reason": dataset.skips}
    payload["provenance"] = {
        "log_file": str(args.log),
        "retrigger": settings.retrigger,
        "sample_time_s": log.sample_time,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    # the sweep runs before the JSON is written, so a failing sweep leaves
    # no calibration JSON behind
    if args.sweep_nodes:
        sweep = node_count_tradeoff(log, retrigger=settings.retrigger)
        sweep_path = args.sweep_out or (str(args.out) + ".sweep.csv")
        write_csv(sweep_path, SWEEP_HEADER, list(zip(*sweep)))
        print(f"wrote node-count sweep to {sweep_path}")
        extras["node_count_sweep"] = {"skipped_by_reason": sweep.skips,
                                      "skipped_replans": sweep.skipped_replans}
    payload.update(extras)
    write_json(args.out, payload)
    print(
        f"calibrated {args.log}: {dataset.n_cycles} cycles, residual rms "
        f"{result.residual_rms:.3e} m -> {args.out}"
    )
    return 0


def _cmd_simulate(args) -> int:
    settings = _settings(args, _load_config(args.config))
    log = load_drive_log(args.log)
    gains = _load_gains(args.gains) if args.gains else GainMatrix.zeros()
    if args.mode == "validation" and not args.gains:
        raise ValueError("validation mode requires --gains")
    trace = perceived_offsets(log, run_replay(log, gains, settings.node_distances, settings.retrigger, mode=args.mode))
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    trace_path = str(prefix) + "_trace.csv"
    replans_path = str(prefix) + "_replans.json"
    trace.write_csv(trace_path)
    trace.replans_to_json(replans_path)
    n_replans = sum(1 for r in trace.replans if not r.gap)
    gaps = Counter(r.reason for r in trace.replans if r.gap)
    # a followed row has no offset only when its block was too far out to project
    lost = int(np.count_nonzero(np.isnan(trace.offset) & (trace.path_id >= 0)))
    unmeasured = {"coordinates": lost} if lost else {}
    print(
        f"replayed {len(trace)} cycles of {log.sample_time} s, {n_replans} replans, gaps {dict(gaps)}, "
        f"followed rows without an offset {unmeasured} -> {trace_path}"
    )
    return 0


def _curve_segments(road, settings):
    segments = detect_curve_segments(road, settings.kappa_threshold, settings.min_curve_length)
    if not segments:
        raise ValueError("scenario road contains no curve segments")
    return segments


def _replay_both(log: DriveLog, road, gains, settings):
    """Planned (validation) and reference (estimation) replays projected onto the road."""
    return tuple(
        project_onto(run_replay(log, gains, settings.node_distances, settings.retrigger, mode=mode), road)
        for mode in ("validation", "estimation")
    )


def _evaluate_driver(log: DriveLog, road, settings, vehicle, segments):
    dataset = assemble_dataset(log, settings.node_distances, settings.retrigger)
    gains = fit_gain_matrix(dataset).gains
    planned, reference = _replay_both(log, road, gains, settings)
    safety = safety_metrics(planned, road, vehicle, segments)
    performance = performance_metrics(planned, reference, segments)
    return safety, performance


def _cmd_evaluate(args) -> int:
    cohort_path = Path(args.cohort)
    with open(cohort_path, "r", encoding="utf-8") as fh:
        manifest = json_value(json.load(fh), dict, f"{cohort_path}: cohort manifest")
    drivers = json_field(manifest, "drivers", list[dict])
    config = _load_config(args.config)
    scenario = ScenarioSpec.from_dict(manifest.get("scenario"))
    # the cohort's own node distances and retrigger rank below the config
    recorded = {k: manifest[k] for k in ("node_distances", "retrigger") if k in manifest}
    settings = _settings(args, config, recorded)
    road = build_scenario_road(scenario)
    vehicle = VehicleSpec(width=settings.vehicle_width)
    segments = _curve_segments(road, settings)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    safety_rows = []
    performance_rows = []
    for i, entry in enumerate(drivers):
        # a driver that fails is left out of both reports, not the whole cohort
        name = f"driver {i}"
        try:
            name = json_field(entry, "id", str, name)
            log = load_drive_log(cohort_path.parent / json_field(entry, "log", str))
            safety, performance = _evaluate_driver(log, road, settings, vehicle, segments)
        except DATA_ERRORS as exc:
            sys.stderr.write(f"curvepath evaluate: {name}: {exc}\n")
            continue
        safety_rows.append((name, safety))
        performance_rows.append((name, performance))
    write_safety_report(safety_rows, out_dir / "safety.csv", out_dir / "safety.json")
    write_performance_report(
        performance_rows, out_dir / "performance.csv", out_dir / "performance.json"
    )
    left_out = len(drivers) - len(safety_rows)
    note = f", {left_out} left out" if left_out else ""
    print(f"evaluated {len(safety_rows)} drivers over {len(segments)} curve segments -> {out_dir}{note}")
    return DATA_ERROR if left_out else 0


def _cmd_case_study(args) -> int:
    config = _load_config(args.config)
    scenario = _scenario_from(args, config)
    settings = _settings(args, config)
    road = build_scenario_road(scenario)
    log = load_drive_log(args.log)
    gains = _load_gains(args.gains)
    segments = _curve_segments(road, settings)
    if not 0 <= args.segment_index < len(segments):
        raise ValueError(f"segment index {args.segment_index} out of range 0..{len(segments) - 1}")
    planned, reference = _replay_both(log, road, gains, settings)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    offsets_path, curvature_path = emit_case_study(
        planned,
        reference,
        road,
        segments[args.segment_index],
        str(prefix) + "_offsets.csv",
        str(prefix) + "_curvature.csv",
    )
    print(f"wrote case-study series to {offsets_path} and {curvature_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curvepath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file with shared defaults")
        p.add_argument(
            "--node-distances", type=float, nargs=3, metavar=("NEAR", "MID", "FAR"),
            help="node point distances in metres",
        )
        p.add_argument("--retrigger", type=int, help="replanning period in cycles (default 30)")

    p = sub.add_parser("synth", help="generate a synthetic driver cohort for a scenario")
    common(p)
    p.add_argument("--scenario", choices=sorted(_SCENARIOS), help="built-in scenario")
    p.add_argument("--drivers", type=int, default=15, help="number of drivers")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--sigma", type=float, default=0.05, help="offset noise sigma in metres")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="identify the gain matrix from a drive log")
    common(p)
    p.add_argument("--log", required=True, help="drive log CSV")
    p.add_argument("--out", required=True, help="output calibration JSON")
    p.add_argument("--optimize-distances", action="store_true",
                   help="optimise node distances before the gain fit")
    p.add_argument("--sweep-nodes", action="store_true",
                   help="also run the node-count trade-off sweep")
    p.add_argument("--sweep-out", help="CSV path for the sweep (default <out>.sweep.csv)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("simulate", help="replay a drive log with cyclic replanning")
    common(p)
    p.add_argument("--log", required=True, help="drive log CSV")
    p.add_argument("--gains", help="calibration JSON or row-major gain list")
    p.add_argument("--mode", choices=["validation", "estimation"], default="validation")
    p.add_argument("--out-prefix", required=True, help="output prefix for trace and replans")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="safety and performance reports over a cohort")
    common(p)
    p.add_argument("--cohort", required=True, help="cohort manifest JSON from synth")
    p.add_argument("--out-dir", required=True, help="report output directory")
    p.add_argument("--vehicle-width", type=float,
                   help=f"vehicle width in metres (default {DEFAULT_VEHICLE_WIDTH_M})")
    p.add_argument("--kappa-threshold", type=float,
                   help=f"curve detection curvature threshold in 1/m (default {DEFAULT_KAPPA_THRESHOLD})")
    p.add_argument("--min-curve-length", type=float,
                   help=f"shortest curve segment in metres (default {DEFAULT_MIN_CURVE_LENGTH_M})")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("case-study", help="emit offset and curvature series for one curve")
    common(p)
    p.add_argument("--log", required=True, help="drive log CSV")
    p.add_argument("--gains", required=True, help="calibration JSON or row-major gain list")
    p.add_argument("--scenario", choices=sorted(_SCENARIOS), help="built-in scenario")
    p.add_argument("--segment-index", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_case_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        sys.stderr.write(f"curvepath {args.command}: error: {exc}\n")
        return DATA_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
