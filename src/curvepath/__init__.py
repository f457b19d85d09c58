"""Lane-keeping path planning toolkit.

Plans lateral paths within a lane corridor by condensing previewed road
geometry into three node points, mapping subsection curvatures to lateral
offsets through a linear gain matrix, and fitting Euler curves through the
offset node points. Includes drive-log replay, least-squares gain
calibration, and safety / human-likeness evaluation metrics.
"""

from .road import (
    Corridor,
    CorridorError,
    LanePolynomial,
    PlanningFrame,
    Pose,
    corridor_from_polynomial,
    eval_lane_polynomial,
    from_planning_frame,
    offset_point,
    to_planning_frame,
    wrap_angle,
)
from .clothoid import (
    ClothoidSegment,
    CompositePath,
    DegenerateFitError,
    FitConvergenceError,
    FitError,
    curvature_profile,
    fit_composite,
    fit_g1,
)
from .planner import (
    CurvatureInput,
    GainMatrix,
    InsufficientPreviewError,
    NodePointParams,
    OffsetVector,
    PlannedPath,
    average_curvatures,
    compute_offsets,
    plan_path,
    plan_path_from_offsets,
    select_node_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]
