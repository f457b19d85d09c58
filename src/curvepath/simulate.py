"""Drive logs, scenario roads, synthetic drivers and the cyclic replay loop.

A drive log is a fixed-rate time series of ego state plus the lane
polynomial the perception stack reported in that cycle. The replay loop
re-plans every `retrigger` cycles and follows the previously planned path
in between, either with offsets produced by the gain matrix (validation
mode) or with offsets read back from the recorded drive (estimation mode).

Synthetic drive logs are generated from a ground-truth gain matrix: at each
replanning instant the driver commits the model offsets (plus optional
noise) as waypoints of its lateral offset profile, and the logged lane
polynomial anchors its intercept to the exact perpendicular midline offset.
That makes the perception channel bias-free, so calibrating on a noise-free
synthetic log recovers the generating gain matrix to numerical precision.
"""

from __future__ import annotations

import bisect
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import get_args, get_origin

import numpy as np

from .clothoid import ClothoidSegment
from .planner import (
    DEFAULT_RETRIGGER_CYCLES,
    CurvatureInput,
    GainMatrix,
    NodePointParams,
    OffsetVector,
    PlannedPath,
    average_curvatures,
    compute_offsets,
    plan_path_from_offsets,
)
from .road import (
    DEFAULT_CORRIDOR_STEP_M,
    DEFAULT_LANE_WIDTH_M,
    DEFAULT_PREVIEW_M,
    COORDINATE_LIMIT_M,
    ChunkedProjection,
    CoordinateRangeError,
    Corridor,
    InsufficientPreviewError,
    LanePolynomial,
    PlanningFrame,
    Pose,
    SkipError,
    corridor_from_polynomial,
    frame_map,
    wrap_angle,
)

DEFAULT_SAMPLE_TIME_S = 0.05
DEFAULT_SPEED_MPS = 25.0

LOG_HEADER = "cycle,t,x,y,theta,speed,c0,c1,c2,c3,lane_width"
TRACE_HEADER = "cycle,x,y,theta,offset,path_id"


class LogFormatError(ValueError):
    """A CSV file (drive log, trace, report) does not match its table's header."""


class ReplayError(RuntimeError):
    """Replay could not produce any valid plan."""


def format_float(value: float) -> str:
    """Fixed-notation float with at least 9 fractional digits, exact round trip."""
    return np.format_float_positional(float(value), unique=True, min_digits=9)


def write_csv(path, header: str, columns) -> None:
    """CSV table: the header line, then row i of every column, comma separated.

    Float columns are written with format_float, every other column with
    str; UTF-8 with '\\n' line endings.
    """
    cells = []
    for column in columns:
        values = np.asarray(column)
        cells.append(list(map(format_float if values.dtype.kind == "f" else str, values.tolist())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def read_csv(path, header: str, kind: str, convert) -> list:
    """Rows of a CSV table in the write_csv format, each passed through `convert`.

    The first line must be `header`; blank lines are skipped. A row whose
    column count differs from the header's, or that `convert` rejects with
    a ValueError, raises LogFormatError naming the path and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != header:
        raise LogFormatError(f"{path}: bad {kind} header (expected '{header}')")
    width = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise LogFormatError(f"{path}: line {lineno}: expected {width} columns, got {len(fields)}")
        try:
            rows.append(convert(fields))
        except ValueError as exc:
            raise LogFormatError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# JSON kind -> the Python types json.load gives for it and its name in messages
_JSON_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    list: (list, "a JSON array"),
    dict: (dict, "a JSON object"),
}


def json_value(value, kind, what: str):
    """value, checked to be of one JSON kind, or an array of one (list[kind]).
    A bool is never a number and nothing is coerced: any other value raises a
    ValueError naming what. A number comes back as a float, as written outputs hold it."""
    (item,) = get_args(kind) or (None,)
    types, name = _JSON_KINDS[get_origin(kind) or kind]
    try:
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError
        if item is not None:
            return [json_value(v, item, what) for v in value]
    except ValueError:
        of = f" of {_JSON_KINDS[item][1].split()[-1]}s" if item else ""
        raise ValueError(f"{what} must be {name}{of}, got {value!r:.60}") from None
    return float(value) if kind is float else value


def json_field(obj, key: str, kind, default=None):
    """The value under key in a JSON object (or any mapping), or default when
    key is absent, typed by json_value under the name key; a missing key
    without a default raises a ValueError naming it."""
    if default is None and key not in obj:
        raise ValueError(f"missing key {key!r}")
    return json_value(obj.get(key, default), kind, key)


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"column {name} contains non-finite values")


@dataclass(eq=False)
class DriveLog:
    """Columnar drive log: one row per perception cycle."""

    cycle: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    speed: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    lane_width: np.ndarray
    sample_time: float = DEFAULT_SAMPLE_TIME_S
    preview_length: float = DEFAULT_PREVIEW_M

    _FLOAT_COLUMNS = ("t", "x", "y", "theta", "speed", "c0", "c1", "c2", "c3", "lane_width")

    def __post_init__(self):
        cycles = np.ascontiguousarray(self.cycle, dtype=np.int64)
        object.__setattr__(self, "cycle", cycles)
        n = cycles.size
        if n < 1:
            raise ValueError("drive log must contain at least one record")
        # int64 steps wrap, so a run past the largest index must not end below its start
        if n > 1 and not (np.all(np.diff(cycles) == 1) and cycles[-1] > cycles[0]):
            raise ValueError("cycle indices must be contiguous")
        for name in self._FLOAT_COLUMNS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"column {name} has shape {arr.shape}, expected ({n},)")
            _require_finite(name, arr)
            setattr(self, name, arr)
        if not self.sample_time > 0:
            raise ValueError("sample_time must be positive")
        if np.any(self.speed < 0):
            raise ValueError("speed must be non-negative")
        if np.any(self.lane_width <= 0):
            raise ValueError("lane_width must be positive")

    def __len__(self) -> int:
        return int(self.cycle.size)

    def pose(self, i: int) -> Pose:
        return Pose(float(self.x[i]), float(self.y[i]), float(self.theta[i]))

    def polynomial(self, i: int) -> LanePolynomial:
        return LanePolynomial(
            float(self.c0[i]),
            float(self.c1[i]),
            float(self.c2[i]),
            float(self.c3[i]),
            preview_length=self.preview_length,
        )

    def corridor(self, i: int) -> Corridor:
        """Corridor of row i's lane polynomial and lane width, in that row's frame."""
        return corridor_from_polynomial(self.polynomial(i), lane_width=float(self.lane_width[i]))

    def write_csv(self, path) -> None:
        write_csv(path, LOG_HEADER, [self.cycle, *(getattr(self, name) for name in self._FLOAT_COLUMNS)])


def _cycle_index(field: str) -> int:
    cycle = int(field)
    if not -(2**63) <= cycle < 2**63:
        raise ValueError(f"cycle index {field} outside the int64 range")
    return cycle


def load_drive_log(path) -> DriveLog:
    """Parse and validate a drive log CSV; its timestamps set the sample time alone."""
    rows = read_csv(path, LOG_HEADER, "drive log", lambda f: (_cycle_index(f[0]), [*map(float, f[1:])]))
    if not rows:
        raise LogFormatError(f"{path}: empty log (no data rows)")
    cycles, values = zip(*rows)
    data = np.array(values, dtype=float)
    # before the median step, which would call a nan timestamp non-increasing
    _require_finite("t", data[:, 0])
    if data.shape[0] >= 2:
        # so an absurd t costs nothing: a step that overflows is a +-inf outlier to the median
        with np.errstate(over="ignore", invalid="ignore"):
            sample_time = round(float(np.median(np.diff(data[:, 0]))), 9)
        if not sample_time > 0:
            raise LogFormatError(f"{path}: non-increasing timestamps")
        if sample_time == math.inf:
            raise LogFormatError(f"{path}: timestamps overflow their median step")
    else:
        sample_time = DEFAULT_SAMPLE_TIME_S
    return DriveLog(
        cycle=np.array(cycles, dtype=np.int64),
        **dict(zip(DriveLog._FLOAT_COLUMNS, data.T)),
        sample_time=sample_time,
    )


# --------------------------------------------------------------------------
# Scenario roads


# kind -> its JSON keys after "kind" and "length", each with the curvature
# fields it sets; an arc's "kappa" sets both ends
_SEGMENT_KEYS = {
    "straight": {},
    "arc": {"kappa": ("kappa_start", "kappa_end")},
    "clothoid-transition": {"kappa_start": ("kappa_start",), "kappa_end": ("kappa_end",)},
}


@dataclass(frozen=True)
class RoadSegmentSpec:
    """One scenario road piece with affine curvature."""

    kind: str
    length: float
    kappa_start: float = 0.0
    kappa_end: float = 0.0

    def __post_init__(self):
        if self.kind not in _SEGMENT_KEYS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        # name the JSON key that holds a non-finite value
        for key, value in self.to_dict().items():
            if key != "kind" and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if not self.length > 0:
            raise ValueError("segment length must be positive")
        if self.kind == "straight" and (self.kappa_start != 0.0 or self.kappa_end != 0.0):
            raise ValueError("straight segments must have zero curvature")
        if self.kind == "arc" and self.kappa_start != self.kappa_end:
            raise ValueError("arc segments must have constant curvature")

    @classmethod
    def straight(cls, length: float) -> "RoadSegmentSpec":
        return cls("straight", length)

    @classmethod
    def arc(cls, length: float, kappa: float) -> "RoadSegmentSpec":
        return cls("arc", length, kappa, kappa)

    @classmethod
    def transition(cls, length: float, kappa_start: float, kappa_end: float) -> "RoadSegmentSpec":
        return cls("clothoid-transition", length, kappa_start, kappa_end)

    @classmethod
    def from_dict(cls, d: dict) -> "RoadSegmentSpec":
        kind = json_field(json_value(d, dict, "segment"), "kind", str)
        keys = _SEGMENT_KEYS.get(kind, {})
        kappas = {field: json_field(d, key, float) for key, fields in keys.items() for field in fields}
        return cls(kind, json_field(d, "length", float), **kappas)

    def to_dict(self) -> dict:
        kappas = {key: getattr(self, fields[0]) for key, fields in _SEGMENT_KEYS[self.kind].items()}
        return {"kind": self.kind, "length": self.length, **kappas}


@dataclass(frozen=True)
class ScenarioSpec:
    """Ordered road segments plus lane width and nominal speed."""

    segments: tuple[RoadSegmentSpec, ...]
    lane_width: float = DEFAULT_LANE_WIDTH_M
    speed: float = DEFAULT_SPEED_MPS

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("scenario needs at least one segment")
        object.__setattr__(self, "segments", segments)
        if not self.lane_width > 0:
            raise ValueError("lane_width must be positive")
        if not self.speed > 0:
            raise ValueError("speed must be positive")
        for i, seg in enumerate(segments):
            if seg.kind != "clothoid-transition":
                continue
            if i > 0 and abs(segments[i - 1].kappa_end - seg.kappa_start) > 1e-12:
                raise ValueError(f"segment {i}: transition start curvature discontinuous")
            if i + 1 < len(segments) and abs(seg.kappa_end - segments[i + 1].kappa_start) > 1e-12:
                raise ValueError(f"segment {i}: transition end curvature discontinuous")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        segments = []
        for i, s in enumerate(json_field(json_value(d, dict, "scenario"), "segments", list)):
            try:
                segments.append(RoadSegmentSpec.from_dict(s))
            except ValueError as exc:
                raise ValueError(f"segment {i}: {exc}") from None
        return cls(
            segments=tuple(segments),
            lane_width=json_field(d, "lane_width", float, DEFAULT_LANE_WIDTH_M),
            speed=json_field(d, "speed", float, DEFAULT_SPEED_MPS),
        )

    def to_dict(self) -> dict:
        return {
            "segments": [s.to_dict() for s in self.segments],
            "lane_width": self.lane_width,
            "speed": self.speed,
        }


def build_scenario_road(spec: ScenarioSpec) -> Corridor:
    """Concatenate scenario segments into a global corridor.

    Positions come from the exact Euler-curve integral of each segment, so
    heading and curvature channels are consistent to quadrature accuracy.
    """
    x, y, theta_u = 0.0, 0.0, 0.0
    s_base = 0.0
    pieces = [((0.0,), (0.0,), (0.0,), (0.0,), (spec.segments[0].kappa_start,))]
    for seg in spec.segments:
        rate = (seg.kappa_end - seg.kappa_start) / seg.length
        curve = ClothoidSegment(
            start=Pose(x, y, theta_u),
            kappa0=seg.kappa_start,
            kappa_rate=rate,
            length=seg.length,
        )
        n = max(1, int(math.ceil(seg.length / DEFAULT_CORRIDOR_STEP_M)))
        local = np.linspace(0.0, seg.length, n + 1)[1:]
        xs, ys, _ = curve.sample(local)
        ths = theta_u + seg.kappa_start * local + 0.5 * rate * local**2
        pieces.append((s_base + local, xs, ys, ths, curve.curvature_at(local)))
        s_base += seg.length
        x, y, theta_u = float(xs[-1]), float(ys[-1]), float(ths[-1])
    s, x, y, theta, kappa = (np.concatenate(channel) for channel in zip(*pieces))
    return Corridor(s=s, x=x, y=y, theta=theta, kappa=kappa, lane_width=spec.lane_width)


def s_curve_scenario(kappa: float = 0.0045) -> ScenarioSpec:
    """Left-then-right S combination with clothoid transitions.

    A compact S whose lateral acceleration stays plausible at the nominal
    speed, with the curve rolling from left to right without a steady-state
    plateau: 250 m approaches, 120 m transitions and 50 m arcs."""
    return ScenarioSpec(
        segments=(
            RoadSegmentSpec.straight(250.0),
            RoadSegmentSpec.transition(120.0, 0.0, kappa),
            RoadSegmentSpec.arc(50.0, kappa),
            RoadSegmentSpec.transition(240.0, kappa, -kappa),
            RoadSegmentSpec.arc(50.0, -kappa),
            RoadSegmentSpec.transition(120.0, -kappa, 0.0),
            RoadSegmentSpec.straight(250.0),
        )
    )


_WINDING_CURVATURES = (0.004, -0.006, 0.008, -0.003, 0.005, -0.008, 0.0035, -0.0045)


def winding_scenario(n_curves: int = 8) -> ScenarioSpec:
    """Alternating curves of varied radius; rich excitation for calibration."""
    segments = [RoadSegmentSpec.straight(200.0)]
    for i in range(n_curves):
        kappa = _WINDING_CURVATURES[i % len(_WINDING_CURVATURES)]
        arc = 150.0 + 40.0 * (i % 3)
        segments.append(RoadSegmentSpec.transition(60.0, 0.0, kappa))
        segments.append(RoadSegmentSpec.arc(arc, kappa))
        segments.append(RoadSegmentSpec.transition(60.0, kappa, 0.0))
        segments.append(RoadSegmentSpec.straight(80.0 + 30.0 * (i % 2)))
    return ScenarioSpec(segments=tuple(segments))


# --------------------------------------------------------------------------
# Synthetic drivers


@dataclass(frozen=True)
class SyntheticDriverSpec:
    """Ground-truth behaviour of a simulated driver."""

    gains_true: GainMatrix
    offset_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.offset_noise_sigma):
            raise ValueError(f"offset noise sigma must be finite, got {self.offset_noise_sigma}")
        if self.offset_noise_sigma < 0:
            raise ValueError("offset noise sigma must be non-negative")


class _OffsetProfile:
    """Lateral offset over midline station, interpolated between committed
    waypoints with a C2 smoothstep (flat at each waypoint)."""

    def __init__(self):
        self._s = [0.0]
        self._v = [0.0]

    def commit(self, station: float, value: float) -> bool:
        i = bisect.bisect_left(self._s, station)
        if i < len(self._s) and abs(self._s[i] - station) < 1e-9:
            return False
        self._s.insert(i, station)
        self._v.insert(i, value)
        return True

    def eval(self, station: float) -> tuple[float, float]:
        """Offset and its station derivative."""
        i = bisect.bisect_left(self._s, station)
        if i < len(self._s) and abs(self._s[i] - station) < 1e-9:
            return self._v[i], 0.0
        if i == 0:
            return self._v[0], 0.0
        if i == len(self._s):
            return self._v[-1], 0.0
        a, b = self._s[i - 1], self._s[i]
        va, vb = self._v[i - 1], self._v[i]
        u = (station - a) / (b - a)
        blend = u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
        dblend = 30.0 * u**2 * (1.0 - u) ** 2 / (b - a)
        return va + (vb - va) * blend, (vb - va) * dblend


def _offset_pose(xm: float, ym: float, thm: float, km: float, delta: float, delta_rate: float):
    """(x, y, heading, steer) at offset delta from the midline pose (xm, ym, thm)
    of curvature km; steer turns the midline heading to the offset curve's."""
    steer = math.atan2(delta_rate, 1.0 - km * delta)
    return xm - delta * math.sin(thm), ym + delta * math.cos(thm), thm + steer, steer


def offset_pose_on(road: Corridor, station: float, delta: float, delta_rate: float = 0.0) -> Pose:
    """Pose of a point riding the midline at a lateral offset.

    delta_rate is d(delta)/d(station); the heading follows the offset curve
    tangent rather than the midline tangent.
    """
    midline = *road.point_at(station), road.heading_unwrapped_at(station), road.kappa_at(station)
    return Pose(*_offset_pose(*midline, delta, delta_rate)[:3])


# Distance weighting of the lane fit: near samples dominate, mirroring the
# falling range confidence of camera lane detection. Without it the far
# field, where a cubic cannot follow strong curves, levers the near-field
# coefficients away from the true local geometry.
_FIT_WEIGHT_SCALE_M = 50.0


def _fit_lane_block(road: Corridor, x, y, theta, station, preview: float, anchor_c0=None, anchor_c1=None):
    """Lane polynomial coefficients (c0, c1, c2, c3) of B ego poses, shape (B, 4).

    x, y, theta and station hold one entry per pose; an anchor is None (the
    coefficient is fitted) or one value per pose, and anchor_c1 needs
    anchor_c0. Each pose solves the weighted normal equations of its free
    columns in t = xe / preview, all poses in one stacked solve.
    """
    if anchor_c1 is not None and anchor_c0 is None:
        raise ValueError("anchor_c1 needs anchor_c0")
    i0 = road.s.searchsorted(station - 1e-9, side="left")
    i1 = road.s.searchsorted(station + preview + 1e-9, side="right")
    count = i1 - i0
    if count.min() < 8:
        j = int(np.argmax(count < 8))
        raise InsufficientPreviewError(
            f"only {count[j]} midline samples in the preview window at station {station[j]:.1f}"
        )
    # Every window is padded with zero weights to one width set by the road
    # and the preview alone, which no window exceeds. Sums over rows of one
    # width round alike, so a pose's fit does not depend on the poses it is
    # fitted with.
    width = min(len(road), int((preview + 2e-9) / road.min_step) + 2)
    idx = i0[:, None] + np.arange(width)
    inside = idx < i1[:, None]
    np.minimum(idx, len(road) - 1, out=idx)
    # math.cos per pose: a vectorised cos may round one lane unlike another
    rotation = np.array([(math.cos(a), math.sin(a)) for a in theta.tolist()])
    c, s = rotation[:, :1], rotation[:, 1:]
    dx = road.x[idx] - x[:, None]
    dy = road.y[idx] - y[:, None]
    xe = c * dx + s * dy
    target = c * dy - s * dx
    coeffs = np.empty((station.size, 4))
    first = 0  # the free coefficients are c_first .. c3
    if anchor_c0 is not None:
        target -= anchor_c0[:, None]
        coeffs[:, 0] = anchor_c0
        first = 1
    if anchor_c1 is not None:
        target -= anchor_c1[:, None] * xe
        coeffs[:, 1] = anchor_c1
        first = 2
    free = np.arange(first, 4)
    # terms: weight * t**p for p = 0 .. 6, then weight * t**j * target for each free j
    terms = np.empty((7 + free.size, *xe.shape))
    powers = terms[:7]
    # The fit minimises the sum of (w * residual)**2 with w = 1 / (1 + u**2)**2,
    # so the weight is w**2 inside the window and 0 in its padding.
    q = xe / _FIT_WEIGHT_SCALE_M
    q *= q
    q += 1.0
    q *= q
    q *= q
    np.divide(inside, q, out=powers[0])
    t = xe / preview
    for p in range(1, 7):
        np.multiply(powers[p - 1], t, out=powers[p])
    np.multiply(powers[first:4], target, out=terms[7:])
    sums = terms.sum(axis=-1)
    normal = sums[free[:, None] + free].transpose(2, 0, 1)
    solved = np.linalg.solve(normal, sums[7:].T[..., None])[..., 0]
    # free unknown j multiplies t**j = (xe / preview)**j, c_j multiplies xe**j / j!
    coeffs[:, first:] = solved * [math.factorial(j) / preview**j for j in free.tolist()]
    return coeffs


def fit_lane_polynomial(
    road: Corridor,
    ego: Pose,
    station: float,
    preview: float = DEFAULT_PREVIEW_M,
    anchor_c0: float | None = None,
    anchor_c1: float | None = None,
) -> LanePolynomial:
    """Distance-weighted cubic fit of the road midline in the ego frame.

    station is the ego's midline station; the fit uses the midline samples
    from there to the end of the preview. anchor_c0 / anchor_c1 pin the
    intercept and slope (a calibrated camera's lateral offset and relative
    heading outputs; the slope only with the intercept); the remaining
    coefficients are fitted. Pinning both keeps the near field of
    consecutive fits mutually consistent, so replayed plans do not inherit
    perception jitter.
    """
    coeffs = _fit_lane_block(
        road,
        np.array([ego.x]),
        np.array([ego.y]),
        np.array([ego.theta]),
        np.array([station]),
        preview,
        *(None if v is None else np.array([v]) for v in (anchor_c0, anchor_c1)),
    )
    return LanePolynomial(*coeffs[0].tolist(), preview_length=preview)


def generate_synthetic_driver_log(
    road: Corridor,
    driver: SyntheticDriverSpec,
    params: NodePointParams | None = None,
    retrigger: int = DEFAULT_RETRIGGER_CYCLES,
    speed: float = DEFAULT_SPEED_MPS,
) -> DriveLog:
    """Simulate a driver whose node offsets follow the ground-truth gains.

    The ego advances one midline station step per cycle. At each replanning
    instant the offsets produced by gains_true (plus seeded Gaussian noise)
    are committed as waypoints of the lateral offset profile at the node
    stations, rounded to the nearest whole cycle of travel so every
    committed offset is realised exactly in a logged row.

    The lane polynomials are fitted one retrigger block per kernel call: a
    block runs from the row after a replanning cycle up to the next one, so
    all its poses follow the profile as committed so far, and only its last
    fit feeds the next commit. Each row's fit equals fit_lane_polynomial at
    that row. The log is byte-deterministic per seed.
    """
    params = params or NodePointParams()
    if retrigger < 1:
        raise ValueError("retrigger must be at least 1")
    step = speed * DEFAULT_SAMPLE_TIME_S
    if road.length < DEFAULT_PREVIEW_M + step:
        raise ValueError(
            f"road length {road.length:.1f} m cannot host a {DEFAULT_PREVIEW_M:.0f} m preview"
        )
    rng = np.random.default_rng(driver.seed)
    profile = _OffsetProfile()
    node_rows = [max(1, round(d / step)) for d in params.distances]

    # one row per cycle whose preview still ends on the road
    stations = np.arange(int((road.length - DEFAULT_PREVIEW_M) / step) + 2) * step
    stations = stations[stations + DEFAULT_PREVIEW_M <= road.length + 1e-9]
    n = stations.size
    x, y, theta, c0, c1 = (np.empty(n) for _ in range(5))
    coeffs = np.empty((n, 4))
    lo = 0
    while lo < n:
        hi = min(-(-lo // retrigger) * retrigger, n - 1)  # the next replanning cycle
        block = slice(lo, hi + 1)
        at = stations[block]
        # one midline lookup per channel per block; the rows work on Python floats
        channels = (at, *road.point_at(at), road.heading_unwrapped_at(at), road.kappa_at(at))
        for i, (station, xm, ym, thm, km) in enumerate(zip(*(c.tolist() for c in channels)), lo):
            delta, delta_rate = profile.eval(station)
            x[i], y[i], theta[i], steer = _offset_pose(xm, ym, thm, km, delta, delta_rate)
            c0[i], c1[i] = -delta, math.tan(-steer)
        coeffs[block] = _fit_lane_block(
            road, x[block], y[block], theta[block], at, DEFAULT_PREVIEW_M, c0[block], c1[block]
        )
        if hi % retrigger == 0:
            poly = LanePolynomial(*coeffs[hi].tolist())
            corr = corridor_from_polynomial(poly, lane_width=road.lane_width)
            kappas = average_curvatures(corr, params.distances)
            noise = driver.offset_noise_sigma * rng.standard_normal(3)
            deltas = compute_offsets(driver.gains_true, kappas).as_array() + noise
            for n_row, value in zip(node_rows, deltas):
                profile.commit((hi + n_row) * step, float(value))
        lo = hi + 1
    return DriveLog(
        cycle=np.arange(n),
        t=np.arange(n) * DEFAULT_SAMPLE_TIME_S,
        x=x,
        y=y,
        theta=theta,
        speed=np.full(n, speed),
        c0=coeffs[:, 0],
        c1=coeffs[:, 1],
        c2=coeffs[:, 2],
        c3=coeffs[:, 3],
        lane_width=np.full(n, road.lane_width),
    )


# --------------------------------------------------------------------------
# Offset measurement and replay


def node_row_indices(log: DriveLog, row: int, distances) -> list[int]:
    """Rows at which the recorded vehicle has travelled closest to each node
    distance ahead of `row` (distance integrates the logged speed)."""
    speeds = log.speed[row:]
    # stations[j] is where row + j was logged; the last lies a cycle past the log's end
    stations = np.concatenate(([0.0], np.cumsum(speeds * log.sample_time)))
    indices = []
    for d in distances:
        k = int(np.searchsorted(stations, d))
        candidates = [j for j in (k - 1, k) if 0 <= j < stations.size]
        best = min(candidates, key=lambda j: abs(stations[j] - d))
        local_step = max(float(np.max(speeds[: best + 1], initial=0.0)) * log.sample_time, 1e-9)
        if best == speeds.size or abs(stations[best] - d) > local_step:
            raise InsufficientPreviewError(
                f"log ends {d - stations[-2]:.1f} m before the node point "
                f"{d:.1f} m ahead of cycle {int(log.cycle[row])}"
            )
        indices.append(row + best)
    return indices


def extract_measured_offsets(log: DriveLog, row: int, params: NodePointParams) -> OffsetVector:
    """Driver-selected lateral offsets at the node points ahead of `row`.

    Reads the perceived midline offset channel (the polynomial intercept) of
    the rows nearest to each node distance; the intercept is the signed
    perpendicular distance of the midline from the vehicle, so its negation
    is the vehicle's offset, positive left. An intercept of 1e100 m or more
    (COORDINATE_LIMIT_M) raises CoordinateRangeError naming its cycle, so
    the replan that reads it is skipped before a solve can overflow.
    """
    rows = node_row_indices(log, row, params.distances)
    for j in rows:
        if not abs(log.c0[j]) < COORDINATE_LIMIT_M:
            raise CoordinateRangeError(f"lane offset c0 = {log.c0[j]:.3e} m at cycle {log.cycle[j]}, a node point of "
                                       f"cycle {log.cycle[row]}, reaches the {COORDINATE_LIMIT_M:.0e} m limit")
    return OffsetVector(*(-float(log.c0[j]) for j in rows))


@dataclass(frozen=True, eq=False)
class ReplanRecord:
    """Outcome of one retrigger: a new plan, or a gap and its skip reason."""

    cycle: int
    path: PlannedPath | None = None
    curvature_input: CurvatureInput | None = None
    offsets: OffsetVector | None = None
    reason: str | None = None

    @property
    def gap(self) -> bool:
        return self.path is None


@dataclass(eq=False)
class SimTrace:
    """Per-cycle replay trace plus the per-replan planning records.

    station is NaN until the trace is projected onto an evaluation corridor
    (see metrics.project_onto); offset is measured against the perceived
    midline of the plan active in the row's block (the most recent replan
    that was not a gap), and is NaN before the first plan. Replay projects
    its blocks through road.ChunkedProjection, which leaves each offset as
    one projection per block gives it, bit for bit.
    """

    cycle: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    offset: np.ndarray
    path_id: np.ndarray
    kappa: np.ndarray
    station: np.ndarray
    replans: tuple[ReplanRecord, ...]

    def __len__(self) -> int:
        return int(self.cycle.size)

    def write_csv(self, path) -> None:
        write_csv(path, TRACE_HEADER, [self.cycle, self.x, self.y, self.theta, self.offset, self.path_id])

    def replans_to_json(self, path) -> None:
        records = []
        for rec in self.replans:
            entry: dict = {"cycle": rec.cycle, "gap": rec.gap}
            if rec.gap:
                entry["reason"] = rec.reason
            else:
                entry["curvature_input"] = list(asdict(rec.curvature_input).values())
                entry["offsets"] = list(asdict(rec.offsets).values())
                entry["path"] = {
                    "frame_origin": asdict(rec.path.frame.origin),
                    "node_poses": [asdict(p) for p in rec.path.node_poses],
                    "segments": [asdict(seg) for seg in rec.path.path.segments],
                }
            records.append(entry)
        write_json(path, records)


def run_replay(
    log: DriveLog,
    gains: GainMatrix,
    params: NodePointParams | None = None,
    retrigger: int = DEFAULT_RETRIGGER_CYCLES,
    mode: str = "validation",
) -> SimTrace:
    """Replay a drive log with cyclic replanning.

    Validation mode produces node offsets with the gain matrix; estimation
    mode reads them back from the recorded drive. Replay runs one retrigger
    block at a time: it replans at the block's first cycle, then the vehicle
    follows the active path by arc length at the logged speed through the
    block. A replan without sufficient preview, whose lane polynomial gives
    no valid corridor or whose fit fails keeps the previous path active and
    is recorded as a gap with its reason. Each row's offset is measured
    against the corridor of the plan active in its block. The loop follows
    each station once, in floats, and hands each followed block's corridor
    and rows to one road.ChunkedProjection.
    """
    if mode not in ("validation", "estimation"):
        raise ValueError(f"mode must be 'validation' or 'estimation', got {mode!r}")
    if retrigger < 1:
        raise ValueError("retrigger must be at least 1")
    params = params or NodePointParams()

    n = len(log)
    speeds = log.speed.tolist()
    dt = log.sample_time
    ego = log.pose(0)
    ex, ey, etheta = ego.x, ego.y, ego.theta
    active_corr: Corridor | None = None
    path_id = -1
    replans: list[ReplanRecord] = []

    xs = np.empty(n)
    ys = np.empty(n)
    thetas = np.empty(n)
    offsets = np.full(n, np.nan)
    kappas = np.full(n, np.nan)
    path_ids = np.full(n, -1, dtype=np.int64)
    # the followed rows' offsets, block by block: those rows run from the
    # first plan's cycle to the end of the log
    followed: list[np.ndarray] = []
    projection = ChunkedProjection(followed.append)

    for lo in range(0, n, retrigger):
        cycle = int(log.cycle[lo])
        stop = min(lo + retrigger, n)
        ego = Pose(ex, ey, etheta)
        try:
            corr_full = log.corridor(lo).transformed(log.pose(lo))
            # Node distances are measured from the planning frame, i.e.
            # from the replayed vehicle, which may run slightly ahead of
            # or behind the recording vehicle the perception is tied to.
            # A preview that ends before the far node raises at the first
            # lookup past its end (an empty one raises in window).
            s_ego, _ = corr_full.project(ego.x, ego.y)
            corr = corr_full.window(s_ego)
            kbar = average_curvatures(corr, params.distances)
            if mode == "estimation":
                node_offsets = extract_measured_offsets(log, lo, params)
            else:
                node_offsets = compute_offsets(gains, kbar)
            planned = plan_path_from_offsets(corr, node_offsets, params, PlanningFrame(origin=ego))
        except SkipError as exc:
            replans.append(ReplanRecord(cycle=cycle, reason=exc.reason))
        else:
            path_id += 1
            active_corr, locate, end = corr, planned.path.locate, planned.path.length
            to_global = frame_map(ego)
            segment, local, path_s = planned.path.segments[0], 0.0, 0.0
            replans.append(ReplanRecord(cycle=cycle, path=planned, curvature_input=kbar, offsets=node_offsets))
        path_ids[lo:stop] = path_id
        if active_corr is None:
            xs[lo:stop], ys[lo:stop], thetas[lo:stop] = ex, ey, etheta
            continue
        for i in range(lo, stop):
            xs[i], ys[i], thetas[i] = ex, ey, etheta
            # the curvature at the station the previous step reached
            kappas[i] = segment.curvature_at(local)
            path_s += speeds[i] * dt
            if path_s > end:
                path_s = end
            segment, local = locate(path_s)
            lx, ly, ltheta = segment.pose_floats_at(local)
            # the poses of the two frames each wrap their heading
            ex, ey, etheta = to_global(lx, ly, wrap_angle(ltheta))
            etheta = wrap_angle(etheta)
            if not (math.isfinite(ex) and math.isfinite(ey) and math.isfinite(etheta)):
                raise ValueError("pose components must be finite")
        projection.add(active_corr.x, active_corr.y, xs[lo:stop], ys[lo:stop])
    if path_id < 0:
        reasons = Counter(rec.reason for rec in replans)
        raise ReplayError(f"replay produced no valid plan at any of {len(replans)} retriggers: {dict(reasons)}")
    projection.flush()
    measured = np.concatenate(followed)
    offsets[n - measured.size:] = measured
    return SimTrace(
        cycle=log.cycle.copy(),
        x=xs,
        y=ys,
        theta=thetas,
        offset=offsets,
        path_id=path_ids,
        kappa=kappas,
        station=np.full(n, np.nan),
        replans=tuple(replans),
    )
