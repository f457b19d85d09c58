"""Euler-spiral path primitives: evaluation and G1 pose-to-pose fitting.

A segment has curvature kappa(s) = kappa0 + kappa_rate * s, so its heading
is a quadratic polynomial of arc length and positions are integrals of
cos/sin of that polynomial. Those integrals are evaluated with panelised
Gauss-Legendre quadrature, which is uniformly accurate from straight lines
through circular arcs to strong spirals (no special casing near zero
curvature rate is required). Two kernels share one grid: a scalar
pure-Python loop for single points and for every step of a fit, where
numpy's per-call overhead would dominate, and an array kernel for sampling
many stations at once, which only CompositePath.sample calls (a segment
samples as a one-segment path): each segment keeps the grid its own
stations size, and the segments that share a grid share one call.

The grid is sized to the phase slope |a| + |b| of (a/2) t^2 + b t + c on
[0, 1]: min(256, ceil((slope + 1) / 4)) equal panels, so a panel sees a
phase rise r = slope / panels of at most 4 rad until the panel cap binds
(slopes above 1020). Each panel gets 8 nodes for r <= 1, 10 for r <= 2.5,
12 for r <= 4 and 24 beyond, where the cap binds. An n-node rule errs by at
most (n!)^4 / ((2n+1) ((2n)!)^3) times the 2n-th derivative of the
integrand scaled to the panel, which for exp(i phase) is at most
sum_j (2n)! / (j! (2n-2j)! 2^j) r^(2n-j). That bounds the truncation error
of the two integrals by 1.5e-15 (the Jacobian's moments by 2e-14) in every
row, for the capped row up to r = 20 (slope 5120). Lane-keeping fits and
samples almost all have slope below 1, so one panel of 8 nodes, which the
rule returns without sizing anything; rounding dominates what is left.

G1 fitting normalises the problem to the chord frame and reduces it to a
scalar root-find in the heading-integral parameter, solved by Newton from
the linearised seed; every failed fit raises FitError.
Of the infinitely many spirals joining two poses, the returned one is the
branch whose heading never swings more than pi away from the chord
direction (lane-keeping paths never loop).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .road import Pose, SkipError, wrap_angle

# (largest phase rise per panel in rad, Gauss-Legendre nodes per panel); see
# the module docstring for the remainder bound each row keeps
_GL_ORDERS = ((1.0, 8), (2.5, 10), (4.0, 12), (math.inf, 24))

FIT_RESIDUAL_TOL = 1e-12
MIN_CHORD_M = 1e-6


class FitError(SkipError, RuntimeError):
    """A G1 fit that gives no segment; the message says why."""

    reason = "fit"


@functools.lru_cache(maxsize=64)
def _grid(panels: int, order: int):
    """Nodes tau, tau**2 and weights of `panels` equal panels of `order` nodes on [0, 1].

    Returned as read-only arrays for the array kernel and as (tau, tau**2,
    weight) triples for the scalar kernel; both hold the same doubles.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 / panels
    tau = (((np.arange(panels) + 0.5) / panels)[:, None] + half * nodes[None, :]).ravel()
    tau2 = tau * tau
    wts = np.tile(half * weights, panels)
    for array in (tau, tau2, wts):
        array.flags.writeable = False
    return tau, tau2, wts, tuple(zip(tau.tolist(), tau2.tolist(), wts.tolist()))


def _rule(slope: float):
    """The grid for a phase slope |a| + |b|: a few radians of phase per panel,
    at most 256 panels, then the fewest nodes that keep the remainder bound
    at the phase rise each panel sees."""
    if slope <= 1.0:  # one panel of 8 nodes, the rule of almost every call
        return _grid(1, 8)
    panels = min(256, math.ceil((slope + 1.0) / 4.0))
    rise = slope / panels
    for limit, order in _GL_ORDERS:
        if rise <= limit:
            return _grid(panels, order)


def _scalar_phase_integrals(a: float, b: float, c: float, tau_moments: bool = False):
    """_phase_integrals for one (a, b, c), summed in a pure-Python loop.

    Same grid and per-node arithmetic as the array kernel; only the
    summation order differs (sequential here, pairwise in numpy).
    """
    cos, sin = math.cos, math.sin
    nodes = _rule(abs(a) + abs(b))[3]
    half_a = 0.5 * a
    x0 = y0 = 0.0
    if not tau_moments:
        for tau, tau2, w in nodes:
            phase = half_a * tau2 + b * tau + c
            x0 += cos(phase) * w
            y0 += sin(phase) * w
        return x0, y0
    x1 = x2 = 0.0
    for tau, tau2, w in nodes:
        phase = half_a * tau2 + b * tau + c
        cw = cos(phase) * w
        x0 += cw
        y0 += sin(phase) * w
        cw_tau = cw * tau
        x1 += cw_tau
        x2 += cw_tau * tau
    return x0, y0, x1, x2


def _phase_integrals(a, b, c, tau_moments: bool = False):
    """Integrals of cos/sin((a/2) t^2 + b t + c) over t in [0, 1].

    Elementwise over arrays a, b and c of one shape; c may also be one
    scalar for every element. With tau_moments also returns the first and
    second cosine moments (needed for the fit Jacobian). One grid, sized by
    the largest phase slope, serves every element, and each element's sum
    is its own row, so it does not depend on the other elements.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    tau, tau2, wts, _ = _rule(float(np.max(np.abs(a) + np.abs(b))))

    phase = 0.5 * a[..., None] * tau2 + b[..., None] * tau + c[..., None]
    cw = np.cos(phase) * wts
    sw = np.sin(phase) * wts
    x0 = cw.sum(axis=-1)
    y0 = sw.sum(axis=-1)
    if not tau_moments:
        return x0, y0
    x1 = (cw * tau).sum(axis=-1)
    x2 = (cw * tau * tau).sum(axis=-1)
    return x0, y0, x1, x2


@dataclass(frozen=True)
class ClothoidSegment:
    """One Euler curve: start pose, initial curvature, curvature rate, length."""

    start: Pose
    kappa0: float
    kappa_rate: float
    length: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("segment length must be positive")
        for name in ("kappa0", "kappa_rate", "length"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def curvature_at(self, s):
        return self.kappa0 + self.kappa_rate * s

    def sample(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions and unwrapped headings at arc lengths s: the sample of
        the one-segment CompositePath."""
        return CompositePath((self,)).sample(s)

    def pose_at(self, s: float) -> Pose:
        """sample() at one arc length, through the scalar kernel."""
        s = float(s)
        if not -1e-9 <= s <= self.length + 1e-9:
            raise ValueError(f"arc length outside [0, {self.length}]")
        return Pose(*self.pose_floats_at(s if s < self.length else self.length))

    def pose_floats_at(self, s: float) -> tuple[float, float, float]:
        """x, y and unwrapped heading at a float arc length s <= length, as
        floats: the formula of pose_at, which replay's follow loop calls per
        station; a station at or before 0 is the start."""
        start = self.start
        if s <= 0.0:
            return start.x, start.y, start.theta
        s2 = s * s
        x0, y0 = _scalar_phase_integrals(self.kappa_rate * s2, self.kappa0 * s, start.theta)
        return start.x + s * x0, start.y + s * y0, start.theta + self.kappa0 * s + 0.5 * self.kappa_rate * s2


def _no_loop(big_a: float, delta: float, phi0: float) -> bool:
    """True when the interior heading never exceeds pi away from the chord."""
    if big_a == 0.0:
        return True
    tau_star = (big_a - delta) / (2.0 * big_a)
    if not 0.0 < tau_star < 1.0:
        return True
    q = phi0 + (delta - big_a) * tau_star + big_a * tau_star**2
    return abs(q) <= math.pi + 1e-9


def _solve_flattening(phi0: float, phi1: float) -> tuple[float, float]:
    """Solve Y(2A, delta - A, phi0) = 0 for the no-loop branch by Newton.

    Returns A and the chord projection X(2A, delta - A, phi0) > 1e-9 at it,
    as the kernel computed it while checking the root. A controls how the
    heading bows away from the straight interpolation between the end
    deviations; the linearised solution 3*(phi0 + phi1) is exact for
    straight lines and circular arcs and an excellent Newton seed otherwise.
    Raises FitError when Newton leaves without such a root, which
    happens only where both ends point back along the chord.
    """
    delta = phi1 - phi0
    big_a = 3.0 * (phi0 + phi1)
    best_residual, best_x = math.inf, math.nan

    for _ in range(32):
        x0, g, x1, x2 = _scalar_phase_integrals(2.0 * big_a, delta - big_a, phi0, tau_moments=True)
        if abs(g) < FIT_RESIDUAL_TOL and x0 > 1e-9 and _no_loop(big_a, delta, phi0):
            return big_a, x0
        if abs(g) < best_residual:
            best_residual, best_x = abs(g), x0
        dg = x2 - x1
        step = g / dg if dg != 0.0 else math.inf
        if not math.isfinite(step) or abs(step) > 100.0:
            break
        big_a -= step
    raise FitError(
        f"G1 root search found no root with X > 1e-9 and no loop (phi0={phi0:.6f}, "
        f"phi1={phi1:.6f}, best residual {best_residual:.3e} at X={best_x:.3e})"
    )


def fit_g1(start: Pose, end: Pose) -> ClothoidSegment:
    """Fit one Euler curve through two poses, matching positions and headings.

    The three unknowns (initial curvature, curvature rate, length) are fixed
    by the endpoint constraints after normalising to the chord frame.
    Raises FitError when no segment fits, as between coincident or far-apart poses.
    """
    dx = end.x - start.x
    dy = end.y - start.y
    chord = math.hypot(dx, dy)
    if chord < MIN_CHORD_M:
        raise FitError(f"endpoints are coincident (chord {chord:.2e} m)")
    phi = math.atan2(dy, dx)
    phi0 = wrap_angle(start.theta - phi)
    phi1 = wrap_angle(end.theta - phi)
    delta = phi1 - phi0

    big_a, x0 = _solve_flattening(phi0, phi1)
    length = chord / x0
    try:
        return ClothoidSegment(
            start=start,
            kappa0=(delta - big_a) / length,
            kappa_rate=2.0 * big_a / length**2,
            length=length,
        )
    except (OverflowError, ValueError):  # length**2 overflows, or length is infinite
        raise FitError(f"poses too far apart for a fit (chord {chord:.3e} m)") from None


@dataclass(frozen=True, eq=False)
class CompositePath:
    """Chain of Euler curves, G1 at the joints as fit_composite builds them."""

    segments: tuple[ClothoidSegment, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("composite path needs at least one segment")
        object.__setattr__(self, "segments", segments)
        bounds = tuple(itertools.accumulate((seg.length for seg in segments), initial=0.0))
        object.__setattr__(self, "_bounds", bounds)

    @property
    def length(self) -> float:
        return self._bounds[-1]

    def locate(self, s: float) -> tuple[ClothoidSegment, float]:
        if not -1e-9 <= s <= self.length + 1e-9:
            raise ValueError(f"arc length {s} outside [0, {self.length}]")
        # no min(max()): this runs per followed station
        i = bisect.bisect_right(self._bounds, s) - 1
        i = 0 if i < 0 else i if i < len(self.segments) else len(self.segments) - 1
        seg = self.segments[i]
        local = s - self._bounds[i]
        return seg, 0.0 if local < 0.0 else local if local <= seg.length else seg.length

    def pose_at(self, s: float) -> Pose:
        seg, local = self.locate(s)
        return seg.pose_at(local)

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """One column per segment: start station, length, kappa0, kappa_rate
        and start x, y, theta."""
        return np.array([(b, seg.length, seg.kappa0, seg.kappa_rate, seg.start.x, seg.start.y, seg.start.theta)
                         for b, seg in zip(self._bounds, self.segments)]).T

    def _locate_many(self, stations: np.ndarray):
        """locate() for a flat array of stations, with the same 1e-9 range
        rule, which rejects nan: each station's segment index, local arc
        length and segment column.
        The start stations are enough to search: a station at or past the
        path's end falls on the last segment with or without its end."""
        if stations.size and not (stations.min() >= -1e-9 and stations.max() <= self.length + 1e-9):
            raise ValueError(f"arc length outside [0, {self.length}]")
        idx = np.clip(np.searchsorted(self._table[0], stations, side="right") - 1, 0, len(self.segments) - 1)
        columns = self._table.take(idx, axis=1)
        return idx, np.clip(stations - columns[0], 0.0, columns[1]), columns

    def sample(self, stations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions and unwrapped headings at path arc lengths of any shape.

        Every segment keeps the grid its own stations size, so no station
        depends on another segment's stations; the segments that share a
        grid share one kernel call.
        """
        stations = np.asarray(stations, dtype=float)
        idx, s, (_, _, kappa0, kappa_rate, x, y, theta) = self._locate_many(stations.ravel())
        s2 = s**2
        a = kappa_rate * s2
        b = kappa0 * s
        # each segment's largest phase slope picks its grid; _grid is
        # cached, so segments on one grid share one object
        top = np.full(len(self.segments), -1.0)  # -1: no station on the segment, so no group
        np.maximum.at(top, idx, np.abs(a) + np.abs(b))
        groups = {}
        group_of = [-1 if slope < 0 else groups.setdefault(id(_rule(slope)), len(groups))
                    for slope in top.tolist()]
        x0 = np.empty_like(s)
        y0 = np.empty_like(s)
        station_group = np.array(group_of)[idx] if len(groups) > 1 else None
        for group in range(len(groups)):
            rows = slice(None) if station_group is None else station_group == group
            x0[rows], y0[rows] = _phase_integrals(a[rows], b[rows], theta[rows])
        shape = stations.shape
        return (
            (x + s * x0).reshape(shape),
            (y + s * y0).reshape(shape),
            (theta + kappa0 * s + 0.5 * kappa_rate * s2).reshape(shape),
        )


def _fit_once(fits: dict, start: Pose, end: Pose) -> ClothoidSegment:
    """fit_g1(start, end) through the memo `fits` (see fit_composite)."""
    fit = fits.get((start, end))
    if fit is None:
        try:
            fit = fit_g1(start, end)
        except FitError as exc:
            fit = str(exc)
        fits[start, end] = fit
    if isinstance(fit, str):
        raise FitError(fit)
    return fit


def fit_composite(node_poses, fits: dict | None = None) -> CompositePath:
    """Fit one Euler curve between each consecutive pose pair. Each fit
    ends on its pose to a few FIT_RESIDUAL_TOL of its chord: G1 joints.

    `fits` is an optional memo that the caller owns, from a (start, end)
    pose pair to its segment or to its failed fit's message. A pair found
    there is not fitted again, and a failure found there raises a new
    FitError.
    """
    poses = list(node_poses)
    if len(poses) < 2:
        raise ValueError("need at least two node poses")
    fit = fit_g1 if fits is None else functools.partial(_fit_once, fits)
    segments = []
    for i, (a, b) in enumerate(zip(poses[:-1], poses[1:])):
        try:
            segments.append(fit(a, b))
        except FitError as exc:
            exc.args = (f"segment {i}: {exc}",)
            raise
    return CompositePath(segments=tuple(segments))
