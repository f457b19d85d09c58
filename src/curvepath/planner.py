"""One planning cycle: node points, subsection curvatures, offsets, path fit.

Three node points are nominated on the midline at increasing preview
distances. The average road curvature over the three subsections between
the planning origin and the node points feeds a linear gain matrix that
yields a lateral offset per node point. The offset node poses are then
joined by Euler curves into the planned path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .clothoid import CompositePath, fit_composite
from .road import Corridor, PlanningFrame, Pose, offset_point, to_planning_frame

logger = logging.getLogger(__name__)

MAX_PREVIEW_M = 250.0
DEFAULT_NODE_DISTANCES = (10.0, 39.0, 137.0)
DEFAULT_RETRIGGER_CYCLES = 30


@dataclass(frozen=True)
class NodePointParams:
    """Near/mid/far node point distances in metres of midline arc length."""

    d_near: float = DEFAULT_NODE_DISTANCES[0]
    d_mid: float = DEFAULT_NODE_DISTANCES[1]
    d_far: float = DEFAULT_NODE_DISTANCES[2]

    def __post_init__(self):
        if not (0.0 < self.d_near < self.d_mid < self.d_far <= MAX_PREVIEW_M):
            raise ValueError(
                f"node_distances must satisfy 0 < near < mid < far <= {MAX_PREVIEW_M}, "
                f"got ({self.d_near}, {self.d_mid}, {self.d_far})"
            )

    @property
    def distances(self) -> tuple[float, float, float]:
        return (self.d_near, self.d_mid, self.d_far)


@dataclass(frozen=True, eq=False)
class GainMatrix:
    """3x3 gain matrix mapping subsection curvatures to node point offsets."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape != (3, 3):
            raise ValueError(f"gain matrix must be 3x3, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("gain matrix entries must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @classmethod
    def zeros(cls) -> "GainMatrix":
        return cls(np.zeros((3, 3)))

    @classmethod
    def from_row_major(cls, values) -> "GainMatrix":
        return cls(np.asarray(values, dtype=float).reshape(3, 3))

    def row_major(self) -> list[float]:
        return [float(v) for v in self.p.ravel()]


@dataclass(frozen=True)
class CurvatureInput:
    """Average curvature over the origin-near, near-mid and mid-far subsections."""

    kappa_on: float
    kappa_nm: float
    kappa_mf: float

    def as_array(self) -> np.ndarray:
        return np.array([self.kappa_on, self.kappa_nm, self.kappa_mf])


@dataclass(frozen=True)
class OffsetVector:
    """Lateral offsets at the near, mid and far node points, positive left."""

    delta_near: float
    delta_mid: float
    delta_far: float

    def as_array(self) -> np.ndarray:
        return np.array([self.delta_near, self.delta_mid, self.delta_far])

    def max_abs(self) -> float:
        return max(abs(self.delta_near), abs(self.delta_mid), abs(self.delta_far))


@dataclass(frozen=True, eq=False)
class PlannedPath:
    """Planned path with the poses it interpolates, expressed in its frame."""

    path: CompositePath
    node_poses: tuple[Pose, Pose, Pose, Pose]
    frame: PlanningFrame


def average_curvatures(corridor: Corridor, node_arclengths) -> CurvatureInput:
    """Arc-length mean curvature per subsection, computed as heading change
    over arc length (exact for the integral mean). A node past the
    corridor's end raises the lookup's InsufficientPreviewError."""
    # four bounds: one interpolation, then Python floats beat numpy's
    # per-call overhead
    b0, b1, b2, b3 = bounds = (0.0, *map(float, node_arclengths))
    h0, h1, h2, h3 = corridor.heading_unwrapped_at(bounds).tolist()
    return CurvatureInput((h1 - h0) / (b1 - b0), (h2 - h1) / (b2 - b1), (h3 - h2) / (b3 - b2))


def compute_offsets(gains: GainMatrix, kappas: CurvatureInput) -> OffsetVector:
    """Linear offset model: node offsets are the gain matrix times the
    subsection curvature vector."""
    deltas = gains.p @ kappas.as_array()
    return OffsetVector(*(float(v) for v in deltas))


def plan_path_from_offsets(
    corridor: Corridor,
    offsets: OffsetVector,
    params: NodePointParams,
    frame: PlanningFrame,
) -> PlannedPath:
    """Fit the three-piece Euler path through explicitly given node offsets.

    The corridor and frame origin must share one coordinate frame; the
    returned path is expressed in the planning frame. The first curve starts
    at the frame origin with the vehicle heading. The poses are mapped into
    the planning frame before fitting: each fit is normalised to its chord
    frame, so the curves do not depend on the frame they are fitted in.
    """
    nominal = corridor.poses_at(params.distances)

    if (largest := offsets.max_abs()) >= 0.5 * corridor.lane_width:
        logger.warning(
            "node offset %.3f m reaches half the lane width (%.2f m)",
            largest,
            corridor.lane_width,
        )

    deltas = (offsets.delta_near, offsets.delta_mid, offsets.delta_far)
    node_poses = (offset_point(pose, delta) for pose, delta in zip(nominal, deltas))
    poses_local = tuple(to_planning_frame(p, frame) for p in (frame.origin, *node_poses))
    return PlannedPath(path=fit_composite(poses_local), node_poses=poses_local, frame=frame)


def plan_path(
    corridor: Corridor,
    gains: GainMatrix,
    params: NodePointParams,
    frame: PlanningFrame,
) -> PlannedPath:
    """One full planning cycle: curvature input, linear offsets, path fit."""
    kappas = average_curvatures(corridor, params.distances)
    offsets = compute_offsets(gains, kappas)
    return plan_path_from_offsets(corridor, offsets, params, frame)
