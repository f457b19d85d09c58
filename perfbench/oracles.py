"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports curvepath. Each function recomputes a value from its
definition with a different method than the library uses:

* spiral end poses by adaptive Gauss-Kronrod quadrature (QUADPACK) instead
  of the library's panelised fixed-order Gauss-Legendre rule;
* subsection mean curvature of a lane polynomial from its exact arc length
  (quadrature of sqrt(1 + y'^2), inverted with brentq) instead of chord
  lengths of a 0.5 m resampled polyline;
* point-to-polyline and point-to-point distances by brute force over every
  segment or point instead of a nearest-vertex search.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

# Lane polynomial convention of the drive-log format:
# y = c0 + c1 x + (c2 / 2) x^2 + (c3 / 6) x^3.


def spiral_end_pose(x0, y0, theta0, kappa0, kappa_rate, length):
    """End (x, y, theta) of an Euler spiral by adaptive quadrature."""

    def theta(s):
        return theta0 + kappa0 * s + 0.5 * kappa_rate * s * s

    with warnings.catch_warnings():
        # tolerances at round-off level trip QUADPACK's warning; the accuracy
        # reached is still far below the 1e-6 m closure check
        warnings.simplefilter("ignore", IntegrationWarning)
        dx, _ = quad(lambda s: math.cos(theta(s)), 0.0, length, epsabs=1e-12, epsrel=1e-12, limit=400)
        dy, _ = quad(lambda s: math.sin(theta(s)), 0.0, length, epsabs=1e-12, epsrel=1e-12, limit=400)
    return x0 + dx, y0 + dy, theta(length)


def _slope(c, x):
    return c[1] + c[2] * x + 0.5 * c[3] * x * x


def lane_arc_length(c, x):
    """Exact arc length of the lane polynomial from 0 to x."""
    value, _ = quad(lambda u: math.sqrt(1.0 + _slope(c, u) ** 2), 0.0, x, epsabs=1e-13, epsrel=1e-13)
    return value


def lane_x_at_arc_length(c, d, x_max):
    """Abscissa at which the lane polynomial has arc length d."""
    return brentq(lambda x: lane_arc_length(c, x) - d, 0.0, x_max, xtol=1e-13, rtol=1e-15)


def subsection_curvatures(c, distances, x_max):
    """Mean curvature over [0, d1], [d1, d2], [d2, d3] of midline arc length.

    The mean curvature of a subsection is its heading change over its arc
    length; heading is atan(y') at the exact arc-length positions.
    """
    bounds = [0.0, *distances]
    headings = [math.atan(_slope(c, 0.0))]
    headings += [math.atan(_slope(c, lane_x_at_arc_length(c, d, x_max))) for d in distances]
    return np.array([(headings[i + 1] - headings[i]) / (bounds[i + 1] - bounds[i]) for i in range(3)])


def lane_peak_curvature(c, x_max, n=601):
    """Largest |curvature| of the lane polynomial over [0, x_max]."""
    xs = np.linspace(0.0, x_max, n)
    dy = _slope(c, xs)
    return float(np.max(np.abs(c[2] + c[3] * xs) / (1.0 + dy * dy) ** 1.5))


def polyline_station_pose(c, preview, step, d):
    """Pose at station d of the lane polynomial resampled every `step` metres
    of x and parameterised by accumulated chord length, with position and
    heading interpolated linearly in station. Node points of a plan sit at
    these poses before they are shifted sideways."""
    n = max(2, int(math.ceil(preview / step)) + 1)
    xs = np.linspace(0.0, preview, n)
    ys = c[0] + c[1] * xs + 0.5 * c[2] * xs**2 + c[3] * xs**3 / 6.0
    th = np.arctan(_slope(c, xs))
    s = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(xs), np.diff(ys)))))
    return float(np.interp(d, s, xs)), float(np.interp(d, s, ys)), float(np.interp(d, s, th))


def signed_offset(point_xy, ref_xy, ref_theta):
    """Signed distance of a point from a reference pose along its left normal."""
    return -(point_xy[0] - ref_xy[0]) * math.sin(ref_theta) + (point_xy[1] - ref_xy[1]) * math.cos(ref_theta)


def project_brute_force(px, py, mx, my, ms, chunk=128):
    """Station and signed offset (positive left) of each point against the
    polyline (mx, my) with stations ms, minimising over every segment."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    ax, ay = mx[:-1], my[:-1]
    vx, vy = np.diff(mx), np.diff(my)
    seg2 = vx * vx + vy * vy
    stations = np.empty(px.size)
    offsets = np.empty(px.size)
    for lo in range(0, px.size, chunk):
        qx = px[lo:lo + chunk, None]
        qy = py[lo:lo + chunk, None]
        t = np.clip(((qx - ax) * vx + (qy - ay) * vy) / seg2, 0.0, 1.0)
        d2 = (qx - (ax + t * vx)) ** 2 + (qy - (ay + t * vy)) ** 2
        a = np.argmin(d2, axis=1)
        rows = np.arange(a.size)
        ta = t[rows, a]
        cross = vx[a] * (qy[:, 0] - ay[a]) - vy[a] * (qx[:, 0] - ax[a])
        stations[lo:lo + chunk] = ms[a] + ta * (ms[a + 1] - ms[a])
        offsets[lo:lo + chunk] = np.copysign(np.sqrt(d2[rows, a]), cross)
    return stations, offsets


def nearest_point_distances(p, q, chunk=256):
    """Distance from every row of p (n, 2) to its nearest row of q (m, 2)."""
    out = np.empty(p.shape[0])
    for lo in range(0, p.shape[0], chunk):
        blk = p[lo:lo + chunk]
        d2 = (blk[:, 0:1] - q[None, :, 0]) ** 2 + (blk[:, 1:2] - q[None, :, 1]) ** 2
        out[lo:lo + chunk] = np.sqrt(d2.min(axis=1))
    return out


ZERO_OFFSET_BAND_M = 0.01


def score_brute_force(planned, human, mid, lane_width, vehicle_width, segments):
    """Safety and performance figures of a planned trace against a human
    trace over the curve segments, from brute-force projections.

    planned and human are dicts with arrays cycle, x, y; mid is a dict with
    the road polyline x, y, s; segments is a list of (start_s, end_s).
    Returns min border distance, violation ratio, average and maximum
    distance and side correctness.
    """
    p_st, p_off = project_brute_force(planned["x"], planned["y"], mid["x"], mid["y"], mid["s"])
    h_st, h_off = project_brute_force(human["x"], human["y"], mid["x"], mid["y"], mid["s"])
    margin = 0.5 * lane_width - (np.abs(p_off) + 0.5 * vehicle_width)

    def inside(st):
        mask = np.zeros(st.size, dtype=bool)
        for a, b in segments:
            mask |= (st >= a) & (st <= b)
        return mask

    pm, hm = inside(p_st), inside(h_st)
    p_pts = np.column_stack((planned["x"][pm], planned["y"][pm]))
    h_pts = np.column_stack((human["x"][hm], human["y"][hm]))
    dists = nearest_point_distances(p_pts, h_pts)
    h_by_cycle = {int(c): o for c, o in zip(human["cycle"][hm], h_off[hm])}
    matches = []
    for c, o in zip(planned["cycle"][pm], p_off[pm]):
        h = h_by_cycle.get(int(c))
        if h is None:
            continue
        both_zero = abs(o) < ZERO_OFFSET_BAND_M and abs(h) < ZERO_OFFSET_BAND_M
        matches.append(both_zero or np.sign(o) == np.sign(h))
    return {
        "min_border_distance": float(np.maximum(margin, 0.0).min()),
        "violation_ratio": float(np.mean(margin < 0.0)),
        "avg_distance": float(dists.mean()),
        "max_distance": float(dists.max()),
        "side_correctness": float(np.mean(matches)) if matches else 0.0,
    }

