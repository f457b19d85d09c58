"""Model calibration from drive logs.

The gain matrix is identified per driver by linear least squares on the
stacked per-replan curvature inputs and measured node offsets, solved
through a rank-revealing SVD rather than an explicit normal-equation
inverse. Node point distances are recovered by minimising the mean distance
between paths fitted through node points on the recorded drive and the
recorded drive itself, windowed over the log. A node-count sweep trades
midline fitting error against planning time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .clothoid import ClothoidSegment, CompositePath, FitError, fit_composite
from .planner import (
    DEFAULT_RETRIGGER_CYCLES,
    MAX_PREVIEW_M,
    GainMatrix,
    InsufficientPreviewError,
    NodePointParams,
    average_curvatures,
)
from .road import (
    Corridor,
    CorridorError,
    corridor_from_polynomial,
    offset_point,
    project_to_polyline,
)
from .simulate import DriveLog, extract_measured_offsets

_SVD_REL_TOL = 1e-10
_INPUT_LABELS = ("kappa_on", "kappa_nm", "kappa_mf")

DEFAULT_WINDOW_SAMPLES = 400

SWEEP_HEADER = "node_count,norm_mean_error,norm_planning_time"


class EmptyDatasetError(ValueError):
    """No replanning cycle in the log had sufficient preview."""


class RankDeficiencyError(ValueError):
    """The curvature inputs do not excite all three subsections."""

    def __init__(self, message: str, null_directions: np.ndarray):
        super().__init__(message)
        self.null_directions = null_directions


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    """Per-replan node offsets (3xN) and curvature inputs (3xN)."""

    offsets: np.ndarray
    inputs: np.ndarray
    n_cycles: int
    skipped: int = 0

    def __post_init__(self):
        offsets = np.ascontiguousarray(self.offsets, dtype=float)
        inputs = np.ascontiguousarray(self.inputs, dtype=float)
        if offsets.shape != (3, self.n_cycles) or inputs.shape != (3, self.n_cycles):
            raise ValueError(
                f"offset/input matrices must be 3x{self.n_cycles}, got "
                f"{offsets.shape} and {inputs.shape}"
            )
        if self.n_cycles < 1:
            raise ValueError("dataset needs at least one cycle")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "inputs", inputs)


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    gains: GainMatrix
    residual_rms: float
    rank: int
    condition_number: float

    def to_dict(self) -> dict:
        return {
            "gains_row_major": self.gains.row_major(),
            "residual_rms": self.residual_rms,
            "rank": self.rank,
            "condition_number": self.condition_number,
        }


def assemble_dataset(
    log: DriveLog,
    params: NodePointParams | None = None,
    retrigger: int = DEFAULT_RETRIGGER_CYCLES,
) -> RegressionDataset:
    """One dataset column per replanning cycle with sufficient preview.

    The curvature input comes from the lane polynomial recorded at the
    replan cycle; the offsets are the driver's measured midline offsets at
    the rows nearest each node distance ahead. Replans lacking preview
    (short polynomial or log ending early) or whose lane polynomial gives no
    valid corridor are skipped and counted.
    """
    params = params or NodePointParams()
    if retrigger < 1:
        raise ValueError("retrigger must be at least 1")
    u_cols = []
    d_cols = []
    skipped = 0
    for row in range(0, len(log), retrigger):
        try:
            offsets = extract_measured_offsets(log, row, params)
            corridor = corridor_from_polynomial(log.polynomial(row))
            kappas = average_curvatures(corridor, params.distances)
        except (InsufficientPreviewError, CorridorError):
            skipped += 1
            continue
        u_cols.append(kappas.as_array())
        d_cols.append(offsets.as_array())
    if not u_cols:
        raise EmptyDatasetError(
            f"all {skipped} replanning cycles lacked preview or a valid corridor; "
            "no dataset columns"
        )
    return RegressionDataset(
        offsets=np.array(d_cols).T,
        inputs=np.array(u_cols).T,
        n_cycles=len(u_cols),
        skipped=skipped,
    )


def fit_gain_matrix(data: RegressionDataset) -> CalibrationResult:
    """Least-squares gain matrix minimising ||offsets - P inputs||.

    Solved via the pseudoinverse of the input matrix from its SVD; raises
    RankDeficiencyError naming the unexcited curvature directions when the
    numerical rank is below three.
    """
    if data.n_cycles < 3:
        raise ValueError(f"need at least 3 cycles for a determined system, got {data.n_cycles}")
    u_mat = data.inputs
    d_mat = data.offsets
    w, sig, vt = np.linalg.svd(u_mat, full_matrices=False)
    cutoff = (sig[0] if sig[0] > 0 else 1.0) * _SVD_REL_TOL
    rank = int(np.sum(sig > cutoff))
    if rank < 3:
        null = w[:, rank:]
        combos = []
        for col in null.T:
            terms = " + ".join(f"{c:+.3f}*{n}" for c, n in zip(col, _INPUT_LABELS))
            combos.append(terms)
        raise RankDeficiencyError(
            f"curvature inputs have numerical rank {rank} < 3; "
            f"unexcited direction(s): {'; '.join(combos)}",
            null_directions=null,
        )
    p = d_mat @ vt.T @ np.diag(1.0 / sig) @ w.T
    residual = d_mat - p @ u_mat
    return CalibrationResult(
        gains=GainMatrix(p),
        residual_rms=float(np.sqrt(np.mean(residual**2))),
        rank=rank,
        condition_number=float(sig[0] / sig[2]),
    )


# --------------------------------------------------------------------------
# Node distance optimisation


@dataclass(frozen=True, eq=False)
class NodeDistanceResult:
    """Averaged optimum, per-window optima with costs, and a flat-cost flag."""

    params: NodePointParams
    window_optima: tuple[tuple[float, float, float, float], ...]
    flat_cost: bool
    skipped_windows: int


def _window_geometry(log: DriveLog, anchor: int, window: int):
    """Midline corridor at the window anchor plus the recorded path expressed
    as stations and points along it."""
    corridor = corridor_from_polynomial(log.polynomial(anchor)).transformed(log.pose(anchor))
    end = min(anchor + window, len(log))
    pts = np.column_stack((log.x[anchor:end], log.y[anchor:end]))
    stations, offsets = corridor.project_many(pts[:, 0], pts[:, 1])
    horizon = min(MAX_PREVIEW_M, corridor.length)
    # a station counts only above every earlier one, so np.interp over the
    # kept stations sees a strictly increasing abscissa
    rising = np.diff(np.maximum.accumulate(stations), prepend=-1.0) > 0
    keep = (stations >= 0.0) & (stations <= horizon) & rising
    return corridor, pts[keep], stations[keep], offsets[keep]


def _sample_intervals(length: float) -> int:
    """Number of sample intervals, of at most a metre, along a path.

    The length is rounded to 1e-9 m first, so a length that quadrature puts
    one rounding above a whole metre (150.00000000000003) gets no extra
    sample.
    """
    return max(2, int(math.ceil(round(length, 9))))


def _window_cost(distances, corridor, pts, stations, offsets, anchor_pose, horizon) -> float:
    """Mean distance between the recorded points and the fitted path.

    The path is fitted through node points placed on the recorded drive
    (positions from the drive, orientations from the road) and, because the
    recorded stretch extends past the far node, continued beyond it with the
    last Euler curve so every recorded point inside the horizon is scored.
    Without the continuation, trivially short node placements explain their
    own tiny span perfectly and the cost loses all pressure on the far node.
    """
    d_near, d_mid, d_far = distances
    if not (0.0 < d_near < d_mid < d_far <= horizon):
        return math.inf
    node_poses = []
    for d in distances:
        measured = float(np.interp(d, stations, offsets))
        node_poses.append(offset_point(corridor.pose_at(d), measured))
    try:
        path = fit_composite((anchor_pose, *node_poses))
    except FitError:
        return math.inf
    last = path.segments[-1]
    tail = max(horizon - d_far, 0.0) + 1.0
    extended = CompositePath(
        segments=path.segments[:-1]
        + (
            ClothoidSegment(
                start=last.start,
                kappa0=last.kappa0,
                kappa_rate=last.kappa_rate,
                length=last.length + tail,
            ),
        )
    )
    n = _sample_intervals(extended.length)
    px, py, _ = extended.sample(np.linspace(0.0, extended.length, n + 1))
    _, _, signed = project_to_polyline(px, py, pts[:, 0], pts[:, 1])
    return float(np.mean(np.abs(signed)))


_FLAT_COST_EPS = 1e-4
# Among node placements that explain the drive equally well, prefer the one
# using more of the preview (cost bonus in metres per metre of far reach).
_PREVIEW_TIEBREAK = 3e-5


def optimize_node_distances(
    log: DriveLog,
    initial: NodePointParams,
    window: int = DEFAULT_WINDOW_SAMPLES,
    stride: int | None = None,
    grid_step: float = 5.0,
) -> NodeDistanceResult:
    """Recover node distances that best explain the recorded drive.

    Per window: node points are placed on the recorded path (position from
    the drive, orientation from the road), a three-piece Euler path is
    fitted from the window anchor pose, and the mean point distance to the
    recorded path is minimised over the distances under the ordering
    constraint. A coarse grid seeds a Nelder-Mead search on the
    positive-gap reparameterisation. Window optima are averaged; windows
    with a flat cost landscape (straight driving) are skipped, and if every
    window is flat the initial guess is returned flagged.
    """
    if window < 2:
        raise ValueError("window must span at least 2 samples")
    stride = window if stride is None else stride
    if stride < 1:
        raise ValueError("stride must be positive")
    if len(log) < window:
        raise InsufficientPreviewError(
            f"log has {len(log)} samples, shorter than one {window}-sample window"
        )

    grid_near = np.arange(grid_step, 35.0 + 1e-9, grid_step)
    optima = []
    skipped = 0
    flat_windows = 0
    evaluated_windows = 0
    for anchor in range(0, len(log) - window + 1, stride):
        try:
            corridor, pts, stations, offsets = _window_geometry(log, anchor, window)
        except InsufficientPreviewError:
            skipped += 1
            continue
        if stations.size < 8 or stations[-1] < 3.0 * grid_step:
            skipped += 1
            continue
        anchor_pose = log.pose(anchor)
        horizon = min(MAX_PREVIEW_M, corridor.length, stations[-1])

        def scored(cand):
            raw = _window_cost(cand, corridor, pts, stations, offsets, anchor_pose, horizon)
            return raw, raw + _PREVIEW_TIEBREAK * (horizon - cand[2])

        best = (math.inf, math.inf, None)
        costs = []
        for dn in grid_near:
            for dm in np.arange(dn + grid_step, min(90.0, horizon), 2.0 * grid_step):
                for df in np.arange(dm + 2.0 * grid_step, horizon + 1e-9, 4.0 * grid_step):
                    raw, adjusted = scored((dn, dm, df))
                    if math.isfinite(raw):
                        costs.append(raw)
                        if adjusted < best[1]:
                            best = (raw, adjusted, (dn, dm, df))
        if not costs or best[2] is None:
            skipped += 1
            continue
        evaluated_windows += 1
        spread = max(costs) - min(costs)
        if spread < _FLAT_COST_EPS:
            flat_windows += 1
            continue

        cost, adjusted_best, (dn, dm, df) = best

        def objective(z):
            gaps = np.exp(z)
            cand = (gaps[0], gaps[0] + gaps[1], gaps[0] + gaps[1] + gaps[2])
            if cand[2] > horizon:
                return 1e6 + cand[2]
            return scored(cand)[1]

        z0 = np.log([dn, dm - dn, df - dm])
        res = minimize(objective, z0, method="Nelder-Mead",
                       options={"maxfev": 150, "xatol": 1e-3, "fatol": 1e-9})
        gaps = np.exp(res.x)
        cand = (float(gaps[0]), float(gaps[0] + gaps[1]), float(gaps[0] + gaps[1] + gaps[2]))
        raw, adjusted = scored(cand)
        if adjusted <= adjusted_best:
            (dn, dm, df), cost = cand, raw
        optima.append((float(dn), float(dm), float(df), float(cost)))

    if not optima:
        if evaluated_windows and flat_windows == evaluated_windows:
            return NodeDistanceResult(
                params=initial, window_optima=(), flat_cost=True, skipped_windows=skipped
            )
        raise EmptyDatasetError(f"no usable optimisation window ({skipped} skipped)")
    arr = np.array([o[:3] for o in optima])
    mean = arr.mean(axis=0)
    return NodeDistanceResult(
        params=NodePointParams(float(mean[0]), float(mean[1]), float(mean[2])),
        window_optima=tuple(optima),
        flat_cost=False,
        skipped_windows=skipped,
    )


# --------------------------------------------------------------------------
# Node count trade-off


def node_count_tradeoff(
    log: DriveLog,
    counts=range(1, 11),
    retrigger: int = DEFAULT_RETRIGGER_CYCLES,
    repeats: int = 3,
) -> list[tuple[int, float, float]]:
    """Midline fitting error versus planning time for varying node counts.

    For each count, paths are fitted through equidistant midline node points
    at every replan; the mean distance of the fitted path to the midline and
    the mean planning wall time are recorded, then both series are
    normalised by their maxima. A count's planning time is the mean over
    replans of each replan's best of `repeats` timed fits.
    """
    counts = list(counts)
    if not counts or any(c < 1 for c in counts):
        raise ValueError("counts must be positive")
    corridors = [corridor_from_polynomial(log.polynomial(row)) for row in range(0, len(log), retrigger)]
    if not corridors:
        raise EmptyDatasetError("log has no replanning cycles")

    def plan_once(corridor: Corridor, count: int):
        horizon = min(corridor.length, MAX_PREVIEW_M)
        distances = horizon * (np.arange(1, count + 1) / count)
        origin = corridor.pose_at(0.0)
        nodes = [corridor.pose_at(float(d)) for d in distances]
        return fit_composite((origin, *nodes))

    errors = []
    for count in counts:
        per_replan_err = []
        for corridor in corridors:
            path = plan_once(corridor, count)
            n = _sample_intervals(path.length)
            px, py, _ = path.sample(np.linspace(0.0, path.length, n + 1))
            _, offsets = corridor.project_many(px, py)
            per_replan_err.append(float(np.mean(np.abs(offsets))))
        errors.append(float(np.mean(per_replan_err)))

    # time each corridor at every count back to back and keep per-corridor
    # minima over the repeats, so a change of machine speed hits all counts
    # alike instead of whichever count happened to run during it
    best = np.full((len(counts), len(corridors)), math.inf)
    for _ in range(repeats):
        for j, corridor in enumerate(corridors):
            for i, count in enumerate(counts):
                t0 = time.perf_counter()
                plan_once(corridor, count)
                best[i, j] = min(best[i, j], time.perf_counter() - t0)
    times = [float(t) for t in best.mean(axis=1)]

    err_max = max(errors) if max(errors) > 0 else 1.0
    time_max = max(times)
    return [
        (count, err / err_max, t / time_max)
        for count, err, t in zip(counts, errors, times)
    ]
