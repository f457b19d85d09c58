"""Road geometry: lane polynomials, poses, arc-length corridors and frames.

The perceived road ahead of the vehicle is a cubic lane polynomial y(x)
over a forward preview window. A Corridor resamples that geometry (or any
other midline source) into arc length with heading and curvature channels,
which is what the planner consumes. Lateral offsets are signed perpendicular
distances from the midline, positive to the left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np
from scipy.spatial import cKDTree

TWO_PI = 2.0 * math.pi

DEFAULT_PREVIEW_M = 150.0
DEFAULT_LANE_WIDTH_M = 3.70
DEFAULT_CORRIDOR_STEP_M = 0.5


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(theta, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Pose:
    """Planar pose. Heading is counterclockwise positive, wrapped to (-pi, pi]."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class LanePolynomial:
    """Cubic midline model in the vehicle frame.

    y = c0 + c1*x + (c2/2)*x^2 + (c3/6)*x^3: c0 is the lateral distance of
    the midline at x = 0, c1 its slope, c2 the curvature and c3 the
    curvature rate at x = 0. The preview lies below 1e100 m
    (COORDINATE_LIMIT_M), so the corridor's x grid and its powers stay finite.
    """

    c0: float
    c1: float
    c2: float
    c3: float
    preview_length: float = DEFAULT_PREVIEW_M

    def __post_init__(self):
        if not 0 < self.preview_length < COORDINATE_LIMIT_M:
            raise ValueError(f"preview_length must be positive and below {COORDINATE_LIMIT_M:.0e} m")
        for name in ("c0", "c1", "c2", "c3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.c0, self.c1, self.c2, self.c3)


def offset_point(nominal: Pose, delta: float) -> Pose:
    """Shift a midline pose laterally by delta (positive moves left of the midline)."""
    if not math.isfinite(delta):
        raise ValueError("offset must be finite")
    return Pose(
        x=nominal.x - delta * math.sin(nominal.theta),
        y=nominal.y + delta * math.cos(nominal.theta),
        theta=nominal.theta,
    )


@dataclass(frozen=True)
class PlanningFrame:
    """Planning coordinate frame anchored at an origin pose in the global frame."""

    origin: Pose


def to_planning_frame(global_pose: Pose, frame: PlanningFrame) -> Pose:
    o = frame.origin
    dx = global_pose.x - o.x
    dy = global_pose.y - o.y
    c, s = math.cos(o.theta), math.sin(o.theta)
    return Pose(c * dx + s * dy, -s * dx + c * dy, global_pose.theta - o.theta)


def frame_map(origin: Pose):
    """The map out of a frame whose origin sits at `origin`: a function of
    x, y and theta (floats or arrays) with the origin's cos and sin taken
    once."""
    ox, oy, otheta = origin.x, origin.y, origin.theta
    c, s = math.cos(otheta), math.sin(otheta)

    def to_outer(x, y, theta):
        return ox + c * x - s * y, oy + s * x + c * y, theta + otheta

    return to_outer


def from_planning_frame(local_pose: Pose, frame: PlanningFrame) -> Pose:
    return Pose(*frame_map(frame.origin)(local_pose.x, local_pose.y, local_pose.theta))


# the vertices ChunkedProjection gathers for one project_to_polyline call:
# about ten corridors, or twenty sampled paths. One call for all of them
# would keep every polyline and its tree alive at once
PROJECT_VERTICES = 3000

# coordinates, in metres, up to which a projection's squares and ratios, and
# the gain solve's products of recorded offsets, stay far from overflow
COORDINATE_LIMIT_M = 1e100


def _check_reach(reach: float) -> None:
    """Raise CoordinateRangeError unless reach, a bound on the magnitude of
    every coordinate a projection uses, is below the limit; nan is not."""
    if not reach < COORDINATE_LIMIT_M:
        raise CoordinateRangeError(
            f"coordinates reach {reach:.3e} m, past the {COORDINATE_LIMIT_M:.0e} m a projection can square"
        )


# a point's two candidate segments: the ones ending and starting at its nearest vertex
_CANDIDATES = np.array([[-1], [0]])


def _check_vertices(counts) -> None:
    """Raise ValueError unless polyline k has counts[k] >= 2 vertices for every k."""
    for k, count in enumerate(counts):
        if count < 2:
            raise ValueError(f"a projection needs at least 2 vertices per polyline, and polyline {k} has {count}")


def project_to_polyline(x, y, px, py, starts=None, line=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project points (px, py) onto the polyline through (x, y).

    Each point goes to the closer of the two segments that meet at its
    nearest vertex (the earlier one on a tie). Returns per point the segment
    index a, the fraction t in [0, 1] along segment a -> a + 1 and the
    signed distance, positive when the point lies left of the polyline.

    Several polylines go in one call as their concatenated vertices, with
    `starts` the index of each polyline's first vertex (ascending, from 0)
    and `line` each point's polyline index; each point then goes to its own
    polyline, and a is an index into x. One tree serves them all: a third
    coordinate, the polyline index times a separation larger than the
    extent of every vertex and point, keeps each point's nearest vertex on
    its own polyline. Per point the result is bit for bit that of a call
    with its polyline alone, unless the point lies exactly as far from two
    vertices, a tie the two trees may break differently.

    A polyline of fewer than two vertices raises ValueError, and a
    coordinate of 1e100 m or more, or a non-finite one, raises
    CoordinateRangeError, both before any arithmetic on the coordinates.
    Both candidate segments of every point are worked out side by side, in
    arrays with an axis for the (earlier, later) candidate.
    """
    x, y, px, py = (np.asarray(v, dtype=float) for v in (x, y, px, py))
    if x.shape != y.shape or px.shape != py.shape:
        raise ValueError("x and y, and px and py, must have one shape each")
    n = x.size
    xy = np.concatenate((x, px, y, py)).reshape(2, -1)  # rows x and y: the n vertices, then the points
    if starts is None:
        _check_vertices((n,))
    else:
        starts = np.asarray(starts, dtype=np.intp)
        counts = np.diff(starts, append=n)
        _check_vertices(counts.tolist())
    _check_reach(np.abs(xy).max())
    verts, points = xy[:, :n], xy[:, n:]
    if starts is None:
        first, last = 0, n - 2
        nearest = cKDTree(verts.T).query(points.T)[1]
    else:
        line = np.asarray(line, dtype=np.intp)
        first = starts[line]
        last = first + counts[line] - 2
        # twice the diameter of the bounding box
        separation = 2.0 * math.hypot(*np.ptp(xy, axis=1).tolist()) + 1.0
        z = np.repeat(np.arange(starts.size) * separation, counts)
        nearest = cKDTree(np.column_stack((*verts, z))).query(np.column_stack((*points, line * separation)))[1]
    # clamped to the polyline, so at an end vertex both are its end segment
    seg = nearest + _CANDIDATES
    np.maximum(seg, first, out=seg)
    np.minimum(seg, last, out=seg)
    # (x, y) by candidate by point, each buffer reused once its value is spent
    a = verts.take(seg, axis=1)  # segment start
    v = verts.take(seg + 1, axis=1)
    v -= a  # segment vector
    rel = points[:, None, :] - a  # the point from the segment start
    cross = v[0] * rel[1] - v[1] * rel[0]
    work = np.multiply(rel, v, out=rel)
    t = work[0] + work[1]
    np.multiply(v, v, out=work)
    t /= work[0] + work[1]
    # zero first, so that a -0.0 fraction stays -0.0 (np.maximum gives its
    # second argument on a tie), as np.clip with scalar bounds left it
    np.maximum(0.0, t, out=t)
    np.minimum(t, 1.0, out=t)
    np.multiply(t, v, out=work)
    closest = np.add(work, a, out=a)
    off = np.subtract(points[:, None, :], closest, out=closest)
    off *= off
    d2 = off[0] + off[1]
    take_later = d2[1] < d2[0]  # the earlier one on a tie
    signed = np.copysign(np.sqrt(d2, out=d2), cross, out=d2)
    return tuple(np.where(take_later, later, earlier) for earlier, later in (seg, t, signed))


class ChunkedProjection:
    """Signed distances of many (polyline, points) pairs, projected in chunks.

    add(key, ...) gathers a polyline through (x, y) and its points (px, py)
    under the caller's key. Once the gathered polylines hold PROJECT_VERTICES
    vertices, they go through one project_to_polyline call; flush() projects
    the rest. A chunk of two or more pairs is a many-polyline call, and a
    lone pair a one-polyline call. Each pair's signed distances go to
    `each(key, signed)` as soon as its chunk is projected, bit for bit those
    of a call with its polyline alone (up to the ties project_to_polyline
    names).

    With `polylines`, a pair's (x, y) may be anything with one entry of y
    per vertex, such as a path and its sample stations: polylines(xs, ys)
    turns the chunk's gathered xs and ys into their vertex arrays, one (x, y)
    per pair, just before the chunk is projected.
    """

    def __init__(self, each, polylines=None):
        self._each = each
        self._polylines = polylines
        self._pairs = []
        self._vertices = 0

    def add(self, key, x, y, px, py) -> None:
        self._pairs.append((key, x, y, px, py))
        self._vertices += len(y)
        if self._vertices >= PROJECT_VERTICES:
            self.flush()

    def flush(self) -> None:
        if not self._pairs:
            return
        keys, xs, ys, pxs, pys = zip(*self._pairs)
        self._pairs, self._vertices = [], 0
        if self._polylines is not None:
            xs, ys = zip(*self._polylines(xs, ys))
        sizes = [len(px) for px in pxs]
        if len(keys) == 1:
            _, _, signed = project_to_polyline(xs[0], ys[0], pxs[0], pys[0])
        else:
            _, _, signed = project_to_polyline(
                *map(np.concatenate, (xs, ys, pxs, pys)),
                np.cumsum([0] + [len(x) for x in xs[:-1]]),
                np.repeat(np.arange(len(xs)), sizes),
            )
        bounds = list(accumulate(sizes, initial=0))
        for key, lo, hi in zip(keys, bounds, bounds[1:]):
            self._each(key, signed[lo:hi])


class SkipError(ValueError):
    """A unit that cannot be planned; the loops that drop it count its `reason`."""

    reason: str


class CorridorError(SkipError):
    """Midline samples that do not form a valid corridor."""

    reason = "corridor"


class InsufficientPreviewError(SkipError):
    """A station past the end of the corridor: the preview is too short."""

    reason = "preview"


class CoordinateRangeError(SkipError):
    """A point or polyline too far out to project, or not finite."""

    reason = "coordinates"


class AllSkippedError(ValueError):
    """A loop that skipped every one of its units, so it has nothing to return."""

    def __init__(self, units: str, skips: dict[str, int]):
        super().__init__(f"all {sum(skips.values())} {units} were skipped: {skips}")


def tally(units, step, what: str) -> tuple[list, dict[str, int]]:
    """Call step on each unit in order: the results of the units that raise
    no SkipError, and the others counted by their reason. Raises
    AllSkippedError, naming the units `what`, when every unit was skipped."""
    kept, skips = [], {}
    for unit in units:
        try:
            kept.append(step(unit))
        except SkipError as exc:
            skips[exc.reason] = skips.get(exc.reason, 0) + 1
    if skips and not kept:
        raise AllSkippedError(what, skips)
    return kept, skips


# Loose per-step consistency bound between heading increments and integrated
# curvature; catches corrupted corridor data without rejecting legitimate
# discretisation error at curvature jumps.
_HEADING_STEP_TOL = 0.02


_CHANNELS = ("s", "x", "y", "theta", "kappa")


def _check_steps(s: np.ndarray, theta: np.ndarray, kappa: np.ndarray) -> None:
    """The step rule of every corridor: arc length rises, and each heading
    increment is within _HEADING_STEP_TOL of the trapezoidal integral of the
    curvature over its step."""
    ds = s[1:] - s[:-1]
    # one reduction each instead of a comparison array and any(): the steps
    # of finite stations are never nan, and max() passes on the nan a
    # residual gets from inf - inf, which the check then rejects
    if ds.min() <= 0:
        raise CorridorError("corridor arc length must be strictly increasing")
    residual = np.abs(theta[1:] - theta[:-1] - 0.5 * (kappa[:-1] + kappa[1:]) * ds)
    if not residual.max() <= _HEADING_STEP_TOL:
        raise CorridorError("corridor heading increments inconsistent with curvature")


@dataclass(frozen=True, eq=False)
class Corridor:
    """Arc-length sampled road midline.

    theta is stored unwrapped (continuous along s) so heading differences
    integrate curvature without 2*pi seams; poses returned by poses_at() carry
    wrapped headings. The constructor copies its inputs and validates them in
    full. The arrays are read-only afterwards, so a corridor derived from a
    valid one (transformed, window), or sampled from a lane polynomial
    (corridor_from_polynomial), is checked only where its derivation can
    break a rule.
    """

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray
    lane_width: float = DEFAULT_LANE_WIDTH_M

    def __post_init__(self):
        arrays = [np.array(getattr(self, name), dtype=float, ndmin=1) for name in _CHANNELS]
        s, _, _, theta, kappa = arrays
        n = s.size
        if n < 2:
            raise CorridorError("corridor needs at least two samples")
        if any(arr.shape != (n,) for arr in arrays) or not np.isfinite(np.concatenate(arrays)).all():
            # name the first array at fault, its shape before its values
            for name, arr in zip(_CHANNELS, arrays):
                if arr.shape != (n,):
                    raise CorridorError(f"corridor array {name} has shape {arr.shape}, expected ({n},)")
                if not np.isfinite(arr).all():
                    raise CorridorError(f"corridor array {name} contains non-finite values")
        if abs(s[0]) > 1e-9:
            raise CorridorError("corridor arc length must start at 0")
        if not self.lane_width > 0:
            raise CorridorError("lane_width must be positive")
        s -= s[0]
        _check_steps(s, theta, kappa)
        self._store(arrays)

    def _store(self, arrays) -> None:
        for name, arr in zip(_CHANNELS, arrays):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _derived(cls, lane_width: float, *arrays: np.ndarray) -> "Corridor":
        """Corridor from arrays s, x, y, theta, kappa that are valid by
        construction or checked by the caller where its derivation can break
        a rule, and that no caller can write to; nothing is copied."""
        corridor = object.__new__(cls)
        object.__setattr__(corridor, "lane_width", lane_width)
        corridor._store(arrays)
        return corridor

    def __len__(self) -> int:
        return self.s.size

    @property
    def length(self) -> float:
        return float(self.s[-1])

    @cached_property
    def min_step(self) -> float:
        """Shortest arc-length step between consecutive samples."""
        return float(np.min(np.diff(self.s)))

    def _check(self, stations) -> None:
        """The station rule of every lookup: a nan station or one more than
        1e-9 before 0 raises ValueError, one more than 1e-9 past the end
        InsufficientPreviewError, and np.interp clamps one within 1e-9 of an
        end. A loop checks a plan's three or four stations faster than numpy."""
        end = self.length + 1e-9
        for station in stations:
            if not -1e-9 <= station <= end:
                error = InsufficientPreviewError if station > end else ValueError
                raise error(f"station {station} outside corridor [0, {self.length}]")

    def _lookup(self, station, channel: np.ndarray) -> np.ndarray | float:
        """A channel interpolated at station: a float for a scalar station,
        otherwise an array."""
        stations = np.asarray(station, dtype=float)
        self._check(stations.ravel().tolist())
        out = np.interp(stations, self.s, channel)
        return float(out) if np.isscalar(station) else out

    def heading_unwrapped_at(self, station) -> np.ndarray | float:
        return self._lookup(station, self.theta)

    def kappa_at(self, station) -> np.ndarray | float:
        return self._lookup(station, self.kappa)

    def point_at(self, station) -> tuple:
        return self._lookup(station, self.x), self._lookup(station, self.y)

    def poses_at(self, stations) -> tuple[Pose, ...]:
        """Midline poses at a sequence of arc lengths, each within [0, length]."""
        stations = np.asarray(stations, dtype=float)
        self._check(stations.tolist())
        xs, ys, thetas = (np.interp(stations, self.s, v).tolist() for v in (self.x, self.y, self.theta))
        return tuple(map(Pose, xs, ys, thetas))

    def transformed(self, anchor: Pose) -> "Corridor":
        """Map a corridor expressed in a local frame into the frame where the
        local origin sits at `anchor`.

        A rigid motion leaves s, kappa and the heading increments unchanged,
        so the result is valid by construction and is not checked again.
        """
        return Corridor._derived(
            self.lane_width,
            self.s,
            *frame_map(anchor)(self.x, self.y, self.theta),
            self.kappa,
        )

    def window(self, start: float) -> "Corridor":
        """Sub-corridor from `start` to the last sample, rebased to s = 0.

        A start within 1e-9 before 0 is 0, and the samples more than 1e-9
        past the start follow it. Their steps are steps of this corridor; the
        interpolated first step is new, and a cut through a step with a
        curvature jump leaves a heading residual of up to 0.125 * ds * dkappa,
        so the step rule checks that step.
        """
        self._check((start,))
        start = max(start, 0.0)
        rebased = self.s - start
        k = int(np.searchsorted(rebased, 1e-9, side="right"))
        if k == len(self):
            raise CorridorError("corridor needs at least two samples")
        s = np.concatenate(([0.0], rebased[k:]))
        x, y, theta, kappa = (
            np.concatenate(([np.interp(start, self.s, v)], v[k:])) for v in (self.x, self.y, self.theta, self.kappa)
        )
        _check_steps(s[:2], theta[:2], kappa[:2])
        return Corridor._derived(self.lane_width, s, x, y, theta, kappa)

    def project(self, px: float, py: float) -> tuple[float, float]:
        """Project a point onto the midline polyline.

        Returns (station, signed offset); the offset is positive when the
        point lies left of the midline. The coordinates are bounded as in
        project_to_polyline, in O(1): no vertex lies farther than the arc
        length from the first.
        """
        _check_reach(abs(float(px)) + abs(float(py)) + abs(float(self.x[0])) + abs(float(self.y[0])) + self.length)
        i = int(np.argmin((self.x - px) ** 2 + (self.y - py) ** 2))
        best = None
        for a in (i - 1, i):
            if a < 0 or a + 1 >= len(self):
                continue
            ax, ay = self.x[a], self.y[a]
            bx, by = self.x[a + 1], self.y[a + 1]
            vx, vy = bx - ax, by - ay
            seg_len2 = vx * vx + vy * vy
            t = ((px - ax) * vx + (py - ay) * vy) / seg_len2
            t = min(1.0, max(0.0, t))
            cx, cy = ax + t * vx, ay + t * vy
            d2 = (px - cx) ** 2 + (py - cy) ** 2
            if best is None or d2 < best[0]:
                seg_len = math.sqrt(seg_len2)
                cross = (vx * (py - ay) - vy * (px - ax)) / seg_len
                station = self.s[a] + t * (self.s[a + 1] - self.s[a])
                best = (d2, float(station), float(math.copysign(math.sqrt(d2), cross)))
        return best[1], best[2]

    def project_many(self, px, py) -> tuple[np.ndarray, np.ndarray]:
        """Batched project(): (stations, signed offsets) for arrays of points."""
        seg, t, offsets = project_to_polyline(self.x, self.y, px, py)
        return self.s[seg] + t * (self.s[seg + 1] - self.s[seg]), offsets


@lru_cache(maxsize=32)
def _sample_grid(preview: float, step: float):
    """x, x**2, x**3 and the x steps of the polynomial corridor's sample grid
    over [0, preview], as read-only arrays."""
    n = max(2, int(math.ceil(preview / step)) + 1)
    xs = np.linspace(0.0, preview, n)
    grid = (xs, xs**2, xs**3, np.diff(xs))
    for array in grid:
        array.setflags(write=False)
    return grid


def corridor_from_polynomial(
    poly: LanePolynomial,
    step: float = DEFAULT_CORRIDOR_STEP_M,
    lane_width: float = DEFAULT_LANE_WIDTH_M,
) -> Corridor:
    """Resample a lane polynomial into an arc-length corridor.

    Samples cover x in [0, preview_length]; heading is atan(dy/dx), curvature
    y'' / (1 + y'^2)^(3/2), and arc length accumulates chord lengths. The x
    grid, its powers and its steps are cached per (preview, step) as
    read-only arrays; the corridor gets a copy of x.

    Checks only what a polynomial can break, with the constructor's
    messages: a bound on |y'| that reaches 1e100, where (1 + y'^2)^1.5 nears
    overflow, lane_width, and the step rule (arc length stops rising once y
    moves by an ulp of a huge c0, as for LanePolynomial(1e100, 0, 1e80, 0)).
    Shapes, s[0] = 0 and finite channels hold by construction for finite
    coefficients under the slope bound and a preview below 1e100 m.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    xs, xs2, xs3, dx = _sample_grid(poly.preview_length, step)
    c0, c1, c2, c3 = poly.coefficients
    slope = abs(c1) + poly.preview_length * (abs(c2) + 0.5 * poly.preview_length * abs(c3))
    if not slope < 1e100:
        raise CorridorError(f"lane polynomial too steep to sample (slope up to {slope:.3e})")
    if not lane_width > 0:
        raise CorridorError("lane_width must be positive")
    # y(x) as LanePolynomial defines it and its first two derivatives
    ys = c0 + c1 * xs + 0.5 * c2 * xs2 + (1.0 / 6.0) * c3 * xs3
    dy = c1 + c2 * xs + 0.5 * c3 * xs2
    kappa = (c2 + c3 * xs) / (1.0 + dy**2) ** 1.5
    s = np.empty(xs.size)
    s[0] = 0.0
    np.cumsum(np.hypot(dx, ys[1:] - ys[:-1]), out=s[1:])
    theta = np.arctan(dy)
    _check_steps(s, theta, kappa)
    return Corridor._derived(lane_width, s, xs.copy(), ys, theta, kappa)
