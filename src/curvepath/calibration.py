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
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from .clothoid import CompositePath, fit_composite
from .planner import (
    DEFAULT_RETRIGGER_CYCLES,
    MAX_PREVIEW_M,
    GainMatrix,
    NodePointParams,
    average_curvatures,
)
from .road import ChunkedProjection, Corridor, SkipError, offset_point, project_to_polyline
from .simulate import DriveLog, extract_measured_offsets

_SVD_REL_TOL = 1e-10
_INPUT_LABELS = ("kappa_on", "kappa_nm", "kappa_mf")

DEFAULT_WINDOW_SAMPLES = 400

SWEEP_HEADER = "node_count,norm_mean_error,norm_planning_time"


class EmptyDatasetError(ValueError):
    """No replanning cycle in the log had sufficient preview."""


class RankDeficiencyError(ValueError):
    """The curvature inputs do not excite all three subsections."""


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    """Per-replan node offsets and curvature inputs, 3xN for N cycles, and skips per reason."""

    offsets: np.ndarray
    inputs: np.ndarray
    skips: dict[str, int] = field(default_factory=dict)

    @property
    def n_cycles(self) -> int:
        return self.offsets.shape[1]

    @property
    def skipped(self) -> int:
        return sum(self.skips.values())

    def __post_init__(self):
        offsets = np.ascontiguousarray(self.offsets, dtype=float)
        inputs = np.ascontiguousarray(self.inputs, dtype=float)
        if offsets.ndim != 2 or offsets.shape[0] != 3 or inputs.shape != offsets.shape:
            raise ValueError(f"offset/input matrices must both be 3xN, got {offsets.shape} and {inputs.shape}")
        if offsets.shape[1] < 1:
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
    the rows nearest each node distance ahead. A replan is skipped and
    counted by reason when its lane polynomial gives no valid corridor or,
    checked next as in replay, it lacks preview.
    """
    params = params or NodePointParams()
    if retrigger < 1:
        raise ValueError("retrigger must be at least 1")
    u_cols = []
    d_cols = []
    skips = Counter()
    for row in range(0, len(log), retrigger):
        try:
            kappas = average_curvatures(log.corridor(row), params.distances)
            offsets = extract_measured_offsets(log, row, params)
        except SkipError as exc:
            skips[exc.reason] += 1
            continue
        u_cols.append(kappas.as_array())
        d_cols.append(offsets.as_array())
    if not u_cols:
        raise EmptyDatasetError(
            f"all {skips.total()} replanning cycles lacked preview or a valid corridor: {dict(skips)}"
        )
    return RegressionDataset(
        offsets=np.array(d_cols).T,
        inputs=np.array(u_cols).T,
        skips=dict(skips),
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
        combos = []
        for col in w[:, rank:].T:
            terms = " + ".join(f"{c:+.3f}*{n}" for c, n in zip(col, _INPUT_LABELS))
            combos.append(terms)
        raise RankDeficiencyError(
            f"curvature inputs have numerical rank {rank} < 3; "
            f"unexcited direction(s): {'; '.join(combos)}"
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
    """Averaged optimum, or the initial one if no window gives one, and per-window optima with costs.

    Every window is used (one optimum), flat (its cost landscape is flat,
    as on straight driving) or skipped, counted by reason ("corridor",
    "few_stations", "no_finite_cost").
    """

    params: NodePointParams
    window_optima: tuple[tuple[float, float, float, float], ...]
    skips: dict[str, int]
    flat_windows: int

    @property
    def flat_cost(self) -> bool:
        return not self.window_optima

    @property
    def skipped_windows(self) -> int:
        return sum(self.skips.values())


def _window_geometry(log: DriveLog, anchor: int, window: int):
    """Midline corridor at the window anchor plus the recorded path expressed
    as stations and points along it."""
    corridor = log.corridor(anchor).transformed(log.pose(anchor))
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


def _candidate_path(distances, corridor, stations, offsets, anchor_pose, fits=None):
    """Points (px, py) sampled at most a metre apart along the path fitted
    for candidate node distances, or None when the distances are out of
    order or past the horizon, or the fit fails.

    The path is fitted through node points placed on the recorded drive
    (positions from the drive, orientations from the road) and, because the
    recorded stretch extends past the far node, continued beyond it with the
    last Euler curve so every recorded point inside the horizon is scored.
    Without the continuation, trivially short node placements explain their
    own tiny span perfectly and the cost loses all pressure on the far node.
    `fits` is the window's memo of pose-pair fits (see fit_composite).
    """
    d_near, d_mid, d_far = distances
    horizon = stations[-1]  # the kept stations rise, so this is the farthest
    if not (0.0 < d_near < d_mid < d_far <= horizon):
        return None
    measured = np.interp(distances, stations, offsets).tolist()
    node_poses = map(offset_point, corridor.poses_at(distances), measured)
    try:
        path = fit_composite((anchor_pose, *node_poses), fits=fits)
    except SkipError:
        return None
    last = path.segments[-1]
    tail = horizon - d_far + 1.0
    extended = CompositePath(path.segments[:-1] + (replace(last, length=last.length + tail),))
    n = _sample_intervals(extended.length)
    px, py, _ = extended.sample(np.linspace(0.0, extended.length, n + 1))
    return px, py


def _window_cost(distances, corridor, pts, stations, offsets, anchor_pose, fits=None) -> float:
    """Mean distance between the recorded points and the candidate's path
    (see _candidate_path), inf without a path."""
    sampled = _candidate_path(distances, corridor, stations, offsets, anchor_pose, fits)
    if sampled is None:
        return math.inf
    _, _, signed = project_to_polyline(*sampled, pts[:, 0], pts[:, 1])
    return float(np.mean(np.abs(signed)))


def _grid_costs(paths, pts) -> list[float]:
    """_window_cost of each of the sampled paths (inf for None), bit for bit,
    with the paths projected in chunks (road.ChunkedProjection)."""
    means = []
    projection = ChunkedProjection(lambda signed: means.append(float(np.abs(signed).mean())))
    px, py = pts.T
    scored = []
    for path in paths:
        scored.append(path is not None)
        if path is not None:
            projection.add(*path, px, py)
    projection.flush()
    means = iter(means)
    return [next(means) if found else math.inf for found in scored]


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
    with a flat cost landscape (straight driving) are left out and counted
    as flat, and if every window is flat or skipped, with at least one
    flat, the initial guess is returned flagged.

    Each window fits a pose pair once: its grid and its search share one
    memo of fits. The grid's paths are projected in chunks
    (road.ChunkedProjection); the search projects one path per call.
    """
    if window < 2:
        raise ValueError("window must span at least 2 samples")
    stride = window if stride is None else stride
    if stride < 1:
        raise ValueError("stride must be positive")
    if len(log) < window:
        raise ValueError(f"log has {len(log)} samples, shorter than one {window}-sample window")

    grid_near = np.arange(grid_step, 35.0 + 1e-9, grid_step)
    optima = []
    skips = Counter()
    flat_windows = 0
    for anchor in range(0, len(log) - window + 1, stride):
        try:
            corridor, pts, stations, offsets = _window_geometry(log, anchor, window)
        except SkipError as exc:
            skips[exc.reason] += 1
            continue
        if stations.size < 8 or stations[-1] < 3.0 * grid_step:
            skips["few_stations"] += 1
            continue
        anchor_pose = log.pose(anchor)
        horizon = stations[-1]
        fits = {}

        def tiebroken(raw, cand):
            return raw + _PREVIEW_TIEBREAK * (horizon - cand[2])

        def scored(cand):
            raw = _window_cost(cand, corridor, pts, stations, offsets, anchor_pose, fits)
            return raw, tiebroken(raw, cand)

        grid = [
            (dn, dm, df)
            for dn in grid_near
            for dm in np.arange(dn + grid_step, min(90.0, horizon), 2.0 * grid_step)
            for df in np.arange(dm + 2.0 * grid_step, horizon + 1e-9, 4.0 * grid_step)
        ]
        paths = (_candidate_path(cand, corridor, stations, offsets, anchor_pose, fits) for cand in grid)
        best = (math.inf, math.inf, None)
        costs = []
        for cand, raw in zip(grid, _grid_costs(paths, pts)):
            if math.isfinite(raw):
                costs.append(raw)
                adjusted = tiebroken(raw, cand)
                if adjusted < best[1]:
                    best = (raw, adjusted, cand)
        if not costs:
            skips["no_finite_cost"] += 1
            continue
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

    # a window that is neither skipped nor flat gives an optimum
    if optima:
        mean = np.array([o[:3] for o in optima]).mean(axis=0)
        params = NodePointParams(float(mean[0]), float(mean[1]), float(mean[2]))
    elif flat_windows:
        params = initial
    else:
        raise EmptyDatasetError(f"no usable optimisation window ({skips.total()} skipped): {dict(skips)}")
    return NodeDistanceResult(
        params=params,
        window_optima=tuple(optima),
        skips=dict(skips),
        flat_windows=flat_windows,
    )


# --------------------------------------------------------------------------
# Node count trade-off


class SweepRows(list):
    """The node-count sweep's rows, and its skipped replans per reason."""

    def __init__(self, rows, skips: dict[str, int]):
        super().__init__(rows)
        self.skips = skips

    @property
    def skipped_replans(self) -> int:
        return sum(self.skips.values())


def node_count_tradeoff(
    log: DriveLog,
    counts=range(1, 11),
    retrigger: int = DEFAULT_RETRIGGER_CYCLES,
    repeats: int = 3,
) -> SweepRows:
    """Midline fitting error versus planning time for varying node counts.

    For each count, paths are fitted through equidistant midline node points
    at every replan; the mean distance of the fitted path to the midline and
    the mean planning wall time are recorded, then both series are
    normalised by their maxima. A count's planning time is the mean over
    replans of each replan's best of `repeats` timed fits. Replans whose
    lane polynomial gives no valid corridor are skipped and counted by reason.
    """
    counts = list(counts)
    if not counts or any(c < 1 for c in counts):
        raise ValueError("counts must be positive")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if retrigger < 1:
        raise ValueError("retrigger must be at least 1")
    corridors, skips = [], Counter()
    for row in range(0, len(log), retrigger):
        try:
            corridors.append(log.corridor(row))
        except SkipError as exc:
            skips[exc.reason] += 1
    if not corridors:
        raise EmptyDatasetError(f"all {skips.total()} replanning cycles lacked a valid corridor: {dict(skips)}")

    def plan_once(corridor: Corridor, count: int):
        horizon = min(corridor.length, MAX_PREVIEW_M)
        return fit_composite(corridor.poses_at(horizon * (np.arange(count + 1) / count)))

    # time each corridor at every count back to back and keep per-corridor
    # minima over the repeats, so a change of machine speed hits all counts
    # alike instead of whichever count happened to run during it
    best = np.full((len(counts), len(corridors)), math.inf)
    paths = [[None] * len(corridors) for _ in counts]
    for _ in range(repeats):
        for j, corridor in enumerate(corridors):
            for i, count in enumerate(counts):
                t0 = time.perf_counter()
                paths[i][j] = plan_once(corridor, count)
                best[i, j] = min(best[i, j], time.perf_counter() - t0)
    times = [float(t) for t in best.mean(axis=1)]

    # the plans are deterministic, so the last repeat's paths are scored,
    # all counts' paths of a corridor in one projection
    per_replan_err = [[] for _ in counts]
    for j, corridor in enumerate(corridors):
        samples = []
        for row in paths:
            path = row[j]
            n = _sample_intervals(path.length)
            samples.append(path.sample(np.linspace(0.0, path.length, n + 1))[:2])
        _, offsets = corridor.project_many(*(np.concatenate(axis) for axis in zip(*samples)))
        bounds = np.cumsum([0] + [px.size for px, _ in samples]).tolist()
        distances = np.abs(offsets)
        for err, lo, hi in zip(per_replan_err, bounds, bounds[1:]):
            err.append(float(np.mean(distances[lo:hi])))
    errors = [float(np.mean(err)) for err in per_replan_err]

    err_max = max(errors) if max(errors) > 0 else 1.0
    time_max = max(times)
    rows = ((count, err / err_max, t / time_max) for count, err, t in zip(counts, errors, times))
    return SweepRows(rows, dict(skips))
