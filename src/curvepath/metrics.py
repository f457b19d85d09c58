"""Safety and human-likeness evaluation over curve segments.

The route is split into curve segments (sustained curvature above a
threshold); safety counts corridor-border violations of the vehicle body
edges and tracks border distances, while performance measures the distance
between a planned trace and a reference trace plus the fraction of samples
on the same side of the midline. Case-study emission writes plot-ready
offset and curvature series for one segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .road import Corridor
from .simulate import SimTrace, write_csv, write_json

DEFAULT_KAPPA_THRESHOLD = 0.001
DEFAULT_MIN_CURVE_LENGTH_M = 50.0
ZERO_OFFSET_BAND_M = 0.01
DEFAULT_VEHICLE_WIDTH_M = 1.8
# Case-study windows reach this far beyond the segment so lead-in behaviour
# is visible.
CASE_STUDY_MARGIN_M = 60.0

SAFETY_HEADER = "driver_id,border_violation_pct,min_border_distance_m"
PERFORMANCE_HEADER = "driver_id,avg_distance_m,max_distance_m,side_correctness_pct"


@dataclass(frozen=True)
class CurveSegment:
    """Arc-length interval of sustained curvature, labelled by turn direction.

    Detector output always satisfies the threshold/length rules; instances
    may also be constructed manually to define evaluation windows.
    """

    start_s: float
    end_s: float
    peak_kappa: float
    direction: str

    def __post_init__(self):
        if not self.end_s > self.start_s:
            raise ValueError("segment end must exceed start")
        if self.peak_kappa < 0:
            raise ValueError("peak curvature is a magnitude, must be >= 0")
        if self.direction not in ("left", "right"):
            raise ValueError(f"direction must be 'left' or 'right', got {self.direction!r}")

    def contains(self, stations) -> np.ndarray:
        stations = np.asarray(stations, dtype=float)
        return (stations >= self.start_s) & (stations <= self.end_s)


@dataclass(frozen=True)
class VehicleSpec:
    """Vehicle body reduced to two side-edge points at the ego position."""

    width: float = DEFAULT_VEHICLE_WIDTH_M

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("vehicle width must be positive")


@dataclass(frozen=True, eq=False)
class SafetyReport:
    min_border_distance: float
    per_segment_min: tuple[float, ...]
    violations: int
    samples: int

    @property
    def border_violation_ratio(self) -> float:
        return self.violations / self.samples


@dataclass(frozen=True)
class PerformanceReport:
    avg_distance: float
    max_distance: float
    side_correctness: float


def detect_curve_segments(
    corridor: Corridor,
    kappa_threshold: float = DEFAULT_KAPPA_THRESHOLD,
    min_length: float = DEFAULT_MIN_CURVE_LENGTH_M,
) -> list[CurveSegment]:
    """Maximal constant-sign runs with |kappa| >= threshold over >= min_length."""
    if not kappa_threshold > 0 or not min_length > 0:
        raise ValueError("thresholds must be positive")
    kappa = corridor.kappa
    label = np.where(np.abs(kappa) >= kappa_threshold, np.sign(kappa), 0.0)
    cuts = [0, *(np.flatnonzero(np.diff(label)) + 1), len(label)]
    return [
        CurveSegment(
            start_s=float(corridor.s[i]),
            end_s=float(corridor.s[j - 1]),
            peak_kappa=float(np.max(np.abs(kappa[i:j]))),
            direction="left" if label[i] > 0 else "right",
        )
        for i, j in zip(cuts[:-1], cuts[1:])
        if label[i] and corridor.s[j - 1] - corridor.s[i] >= min_length
    ]


def project_onto(trace: SimTrace, corridor: Corridor) -> SimTrace:
    """Trace with station and offset filled in against an evaluation corridor.

    Replay leaves both NaN; an offset that simulate.perceived_offsets filled
    is replaced.

    Projects every trace point onto the corridor midline (nearest polyline
    segment); the returned offset is the signed perpendicular distance,
    positive left.
    """
    stations, offsets = corridor.project_many(trace.x, trace.y)
    return replace(trace, station=stations, offset=offsets)


def _require_stations(trace: SimTrace, name: str) -> None:
    if np.any(np.isnan(trace.station)):
        raise ValueError(f"{name} trace has no stations; run project_onto(trace, corridor) first")


def safety_metrics(
    trace: SimTrace,
    corridor: Corridor,
    vehicle: VehicleSpec,
    segments,
) -> SafetyReport:
    """Border-violation ratio over the whole trace plus border distances.

    A sample violates when a vehicle side edge leaves the lane; the border
    distance is the remaining margin of the nearer edge, clamped at zero.
    The headline minimum is the route-wide worst case; the minimum within
    each curve segment is returned on SafetyReport.per_segment_min, which no
    report file writes.
    """
    if not vehicle.width < corridor.lane_width:
        raise ValueError(
            f"vehicle width {vehicle.width} m must be below lane width {corridor.lane_width} m"
        )
    _require_stations(trace, "planned")
    margin = 0.5 * corridor.lane_width - (np.abs(trace.offset) + 0.5 * vehicle.width)
    violating = margin < 0.0
    border = np.maximum(margin, 0.0)
    per_segment = []
    for seg in segments:
        mask = seg.contains(trace.station)
        per_segment.append(float(border[mask].min()) if np.any(mask) else math.inf)
    return SafetyReport(
        min_border_distance=float(border.min()),
        per_segment_min=tuple(per_segment),
        violations=int(np.sum(violating)),
        samples=int(violating.size),
    )


def performance_metrics(planned: SimTrace, human: SimTrace, segments) -> PerformanceReport:
    """Distance between traces and side correctness, within curve segments only.

    Distances are point-to-nearest-point between the two traces restricted
    to the segments. Side correctness pairs samples by cycle; two offsets
    match when they share a sign or both sit inside the zero band.
    """
    segments = list(segments)
    if not segments:
        raise ValueError("no curve segments given")
    _require_stations(planned, "planned")
    _require_stations(human, "human")

    def in_segments(trace: SimTrace) -> np.ndarray:
        mask = np.zeros(len(trace), dtype=bool)
        for seg in segments:
            mask |= seg.contains(trace.station)
        return mask

    planned_mask = in_segments(planned)
    human_mask = in_segments(human)
    if not np.any(planned_mask) or not np.any(human_mask):
        raise ValueError("traces do not overlap the curve segments")

    p_pts = np.column_stack((planned.x[planned_mask], planned.y[planned_mask]))
    h_pts = np.column_stack((human.x[human_mask], human.y[human_mask]))
    dists, _ = cKDTree(h_pts).query(p_pts)

    common = np.intersect1d(planned.cycle[planned_mask], human.cycle[human_mask])
    p_idx = np.searchsorted(planned.cycle, common)
    h_idx = np.searchsorted(human.cycle, common)
    p_off = planned.offset[p_idx]
    h_off = human.offset[h_idx]
    both_zero = (np.abs(p_off) < ZERO_OFFSET_BAND_M) & (np.abs(h_off) < ZERO_OFFSET_BAND_M)
    matching = both_zero | (np.sign(p_off) == np.sign(h_off))
    side = float(np.mean(matching)) if matching.size else 0.0

    return PerformanceReport(
        avg_distance=float(np.mean(dists)),
        max_distance=float(np.max(dists)),
        side_correctness=side,
    )


def emit_case_study(
    trace: SimTrace,
    human: SimTrace,
    corridor: Corridor,
    segment: CurveSegment,
    offsets_path,
    curvature_path,
) -> tuple[str, str]:
    """Write offset and curvature series around one curve segment.

    The offsets file holds (s, planned, ref); the curvature file holds
    (s, planned, ref, corridor, planned minus corridor). The window extends
    CASE_STUDY_MARGIN_M beyond both ends of the segment.
    """
    _require_stations(trace, "planned")
    _require_stations(human, "human")
    lo = max(0.0, segment.start_s - CASE_STUDY_MARGIN_M)
    hi = min(corridor.length, segment.end_s + CASE_STUDY_MARGIN_M)
    mask = (trace.station >= lo) & (trace.station <= hi)
    if not np.any(mask):
        raise ValueError("planned trace does not cover the segment window")
    order = np.argsort(trace.station[mask])
    s_grid = trace.station[mask][order]
    off_planned = trace.offset[mask][order]
    kap_planned = trace.kappa[mask][order]

    h_order = np.argsort(human.station)
    h_station = human.station[h_order]
    off_ref = np.interp(s_grid, h_station, human.offset[h_order])
    kap_ref = np.interp(s_grid, h_station, human.kappa[h_order])
    kap_corridor = corridor.kappa_at(s_grid)

    write_csv(offsets_path, "s,offset_planned,offset_ref", [s_grid, off_planned, off_ref])
    write_csv(
        curvature_path,
        "s,kappa_planned,kappa_ref,kappa_corridor,kappa_diff",
        [s_grid, kap_planned, kap_ref, kap_corridor, kap_planned - kap_corridor],
    )
    return str(offsets_path), str(curvature_path)


# --------------------------------------------------------------------------
# Cohort reports


def _write_report(header: str, fields, rows, csv_path, json_path) -> None:
    """One CSV line and one JSON entry per (driver_id, report) row; `fields`
    maps a report to its values in the order of the header's columns."""
    names = header.split(",")
    entries = [dict(zip(names, (driver_id, *fields(report)))) for driver_id, report in rows]
    write_csv(csv_path, header, [[entry[name] for entry in entries] for name in names])
    write_json(json_path, entries)


def write_safety_report(rows, csv_path, json_path) -> None:
    """rows: iterable of (driver_id, SafetyReport)."""
    _write_report(SAFETY_HEADER, lambda r: (100.0 * r.border_violation_ratio, r.min_border_distance),
                  rows, csv_path, json_path)


def write_performance_report(rows, csv_path, json_path) -> None:
    """rows: iterable of (driver_id, PerformanceReport)."""
    _write_report(PERFORMANCE_HEADER, lambda r: (r.avg_distance, r.max_distance, 100.0 * r.side_correctness),
                  rows, csv_path, json_path)
