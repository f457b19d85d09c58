"""Constructors for probe drive logs used by calibration tests, and small
readers that tests share."""

import dataclasses
import math
import re

import numpy as np

from curvepath.metrics import PERFORMANCE_HEADER, SAFETY_HEADER
from curvepath.planner import NodePointParams, OffsetVector, PlanningFrame, plan_path_from_offsets
from curvepath.road import corridor_from_polynomial, from_planning_frame
from curvepath.simulate import DriveLog, fit_lane_polynomial, offset_pose_on, read_csv

ZIGZAG_PATTERNS = (
    (0.45, -0.40, 0.50),
    (-0.40, 0.45, -0.45),
    (0.50, -0.45, 0.40),
    (-0.45, 0.40, -0.50),
)


def build_chained_node_log(
    road,
    params: NodePointParams,
    patterns=ZIGZAG_PATTERNS,
    n_blocks: int = 8,
    block_rows: int = 109,
    speed: float = 25.0,
    sample_time: float = 0.05,
    preview: float = 140.0,
) -> DriveLog:
    """Drive log whose path is a chain of full three-piece plans.

    Each block follows one composite fitted through alternating-sign node
    offsets at the given node distances, so the recorded path carries
    curvature-rate breaks exactly at those distances; the next plan starts
    where the previous one ends. This makes the node distances sharply
    identifiable from the log alone.
    """
    step = speed * sample_time
    rows = {k: [] for k in ("t", "x", "y", "theta", "speed", "c0", "c1", "c2", "c3", "lane_width")}
    cycles = []
    station = 0.0
    pose = offset_pose_on(road, 0.0, 0.0, 0.0)
    i = 0
    for b in range(n_blocks):
        poly = fit_lane_polynomial(road, pose, station=station, preview=preview)
        corr = corridor_from_polynomial(poly, lane_width=road.lane_width).transformed(pose)
        offsets = OffsetVector(*patterns[b % len(patterns)])
        plan = plan_path_from_offsets(corr, offsets, params, PlanningFrame(origin=pose))
        for j in range(block_rows):
            ego = from_planning_frame(plan.path.pose_at(j * step), plan.frame)
            st, off = road.project(ego.x, ego.y)
            p = poly if j == 0 else fit_lane_polynomial(
                road, ego, station=st, preview=preview, anchor_c0=-off
            )
            cycles.append(i)
            rows["t"].append(i * sample_time)
            rows["x"].append(ego.x)
            rows["y"].append(ego.y)
            rows["theta"].append(ego.theta)
            rows["speed"].append(speed)
            for name, value in zip(("c0", "c1", "c2", "c3"), p.coefficients):
                rows[name].append(value)
            rows["lane_width"].append(road.lane_width)
            i += 1
        end = from_planning_frame(
            plan.path.pose_at(min(block_rows * step, plan.path.length)), plan.frame
        )
        station, _ = road.project(end.x, end.y)
        pose = end
    return DriveLog(
        cycle=np.asarray(cycles, dtype=np.int64),
        sample_time=sample_time,
        preview_length=preview,
        **{k: np.asarray(v) for k, v in rows.items()},
    )


def read_report(csv_path, kind: str) -> list[dict]:
    """A "safety" or "performance" report CSV, one dict per driver, read
    through read_csv with the report's header."""
    header = {"safety": SAFETY_HEADER, "performance": PERFORMANCE_HEADER}[kind]
    names = header.split(",")
    return read_csv(
        csv_path, header, f"{kind} report",
        lambda f: {names[0]: f[0], **{n: float(v) for n, v in zip(names[1:], f[1:])}},
    )


def curvature_profile(path, step: float) -> np.ndarray:
    """(s, kappa) rows at every `step` over a CompositePath, each curvature
    taken as replay's follow loop takes it: locate, then the segment's
    curvature_at(local)."""
    n = max(1, int(math.ceil(path.length / step)))
    stations = np.linspace(0.0, path.length, n + 1)
    kappas = [seg.curvature_at(local) for seg, local in map(path.locate, stations.tolist())]
    return np.column_stack((stations, kappas))


def best_residual(message: str) -> float:
    """The best residual that a failed Newton solve's FitError message names."""
    return float(re.search(r"best residual (\S+) at", message).group(1))


def far_off(log, column: str, path):
    """Write to `path` the log with cells that drive its replay, with gains
    scaled by 1e150, past the 1e100 m a projection can square: one huge
    speed on replan row 300, or every t times 1e300 (a sample time of
    1e300 s once read back). Returns `path`."""
    if column == "speed":
        speed = log.speed.copy()
        speed[300] = 1e308
        log = dataclasses.replace(log, speed=speed)
    else:
        log = dataclasses.replace(log, t=log.cycle * 1e300, sample_time=None)
    log.write_csv(path)
    return path
