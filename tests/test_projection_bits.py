"""project_to_polyline bit for bit against the formula it replaced: both
candidate segments of each point stacked in rows, each gathered from the
vertex arrays, masked to the polyline and picked by fancy indexing. For one
polyline, and for the many-polyline calls of a ChunkedProjection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from curvepath import road
from curvepath.road import project_to_polyline


def reference_project_to_polyline(x, y, px, py, starts=None, line=None):
    """project_to_polyline as it was computed before its candidate arrays
    were stacked, for polylines of at least two vertices in range."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    if starts is None:
        first, last = 0, x.size - 2
        _, nearest = cKDTree(np.column_stack((x, y))).query(np.column_stack((px, py)))
    else:
        starts = np.asarray(starts, dtype=np.intp)
        line = np.asarray(line, dtype=np.intp)
        first, last = starts[line], np.append(starts[1:], x.size)[line] - 2
        separation = 2.0 * math.hypot(np.ptp(np.concatenate((x, px))), np.ptp(np.concatenate((y, py)))) + 1.0
        z = np.repeat(np.arange(starts.size) * separation, np.diff(starts, append=x.size))
        _, nearest = cKDTree(np.column_stack((x, y, z))).query(np.column_stack((px, py, line * separation)))
    seg = np.stack((nearest - 1, nearest))
    valid = (seg >= first) & (seg <= last)
    seg = np.clip(seg, first, last)
    ax, ay = x[seg], y[seg]
    vx, vy = x[seg + 1] - ax, y[seg + 1] - ay
    t = np.clip(((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy), 0.0, 1.0)
    cx, cy = ax + t * vx, ay + t * vy
    d2 = np.where(valid, (px - cx) ** 2 + (py - cy) ** 2, np.inf)
    pick = (d2[1] < d2[0]).astype(np.intp)
    cols = np.arange(px.size)
    seg, t, d2 = seg[pick, cols], t[pick, cols], d2[pick, cols]
    vx, vy = vx[pick, cols], vy[pick, cols]
    cross = vx * (py - y[seg]) - vy * (px - x[seg])
    return seg, t, np.copysign(np.sqrt(d2), cross)


def assert_same_bits(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.shape == e.shape and g.dtype == e.dtype
        assert g.tobytes() == e.tobytes()


def polyline(rng, vertices: int, origin: float, turn: float):
    """A random walk of `vertices` vertices with steps of 0.05 to 5 m and
    heading changes of up to `turn` rad, so no segment has zero length;
    a large turn folds the polyline back over itself."""
    heading = rng.uniform(-math.pi, math.pi) + np.cumsum(rng.uniform(-turn, turn, vertices - 1))
    step = rng.uniform(0.05, 5.0, vertices - 1)
    x = origin + np.concatenate(([0.0], np.cumsum(step * np.cos(heading))))
    y = origin + np.concatenate(([0.0], np.cumsum(step * np.sin(heading))))
    return x, y


def points_around(rng, x, y, count: int):
    """Points on both sides of random segments, on the lines through both
    end segments past the ends, and on vertices, shuffled."""
    seg = rng.integers(0, x.size - 1, count)
    t = rng.uniform(0.0, 1.0, count)
    side = rng.uniform(-3.0, 3.0, count)
    vx, vy = x[seg + 1] - x[seg], y[seg + 1] - y[seg]
    norm = np.hypot(vx, vy)
    beside = (x[seg] + t * vx - side * vy / norm, y[seg] + t * vy + side * vx / norm)
    past = []
    for a, b in ((1, 0), (-2, -1)):  # beyond the first vertex, beyond the last
        ux, uy = x[b] - x[a], y[b] - y[a]
        reach = rng.uniform(0.0, 4.0, count) / math.hypot(ux, uy)
        lateral = rng.uniform(-0.5, 0.5, count)
        past.append((x[b] + reach * ux - lateral * uy, y[b] + reach * uy + lateral * ux))
    on = rng.integers(0, x.size, count)
    px = np.concatenate((beside[0], past[0][0], past[1][0], x[on]))
    py = np.concatenate((beside[1], past[0][1], past[1][1], y[on]))
    order = rng.permutation(px.size)
    return px[order], py[order]


shapes = st.fixed_dictionaries({
    "vertices": st.integers(2, 400),
    "seed": st.integers(0, 2**32 - 1),
    "origin": st.sampled_from([0.0, -750.0, 5e5]),
    "turn": st.sampled_from([0.0, 0.05, 0.6, 3.0]),
    "count": st.integers(1, 60),
})


@settings(max_examples=300)
@given(shape=shapes)
def test_one_polyline_keeps_its_bits(shape):
    rng = np.random.default_rng(shape["seed"])
    x, y = polyline(rng, shape["vertices"], shape["origin"], shape["turn"])
    px, py = points_around(rng, x, y, shape["count"])
    assert_same_bits(project_to_polyline(x, y, px, py), reference_project_to_polyline(x, y, px, py))


@settings(max_examples=60)
@given(pairs=st.lists(shapes, min_size=2, max_size=12), budget=st.sampled_from([1, 500, road.PROJECT_VERTICES]))
def test_chunked_projection_keeps_its_bits(pairs, budget):
    calls = []  # per many-polyline call: its arguments and its result

    def recorded(*args):
        calls.append((args, project_to_polyline(*args)))
        return calls[-1][1]

    got = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(road, "PROJECT_VERTICES", budget)
        patch.setattr(road, "project_to_polyline", recorded)
        projection = road.ChunkedProjection(lambda key, signed: got.append(signed))
        for key, shape in enumerate(pairs):
            rng = np.random.default_rng(shape["seed"])
            x, y = polyline(rng, shape["vertices"], shape["origin"], shape["turn"])
            projection.add(key, x, y, *points_around(rng, x, y, shape["count"]))
        projection.flush()
    assert len(got) == len(pairs) and calls
    for args, result in calls:
        assert len(args) == 6  # x, y, px, py, starts, line
        assert_same_bits(result, reference_project_to_polyline(*args))
    assert np.concatenate(got).tobytes() == np.concatenate([result[2] for _, result in calls]).tobytes()


def test_a_point_on_the_first_vertex_of_a_falling_polyline_keeps_a_negative_zero_fraction():
    """Its coordinate differences from the vertex are zero and both of the
    first segment's components negative, so its fraction is -0.0 / length**2;
    the clamp to [0, 1] leaves it -0.0, as np.clip did."""
    x = np.array([0.0, -3.0, -5.0, -9.0])
    y = np.array([0.0, -4.0, -5.0, -6.0])
    px, py = np.array([0.0, -5.0]), np.array([0.0, -5.0])
    got = project_to_polyline(x, y, px, py)
    assert_same_bits(got, reference_project_to_polyline(x, y, px, py))
    assert got[0][0] == 0 and got[1][0] == 0.0 and np.signbit(got[1][0])
