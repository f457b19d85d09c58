"""Batched point-to-polyline projection against its references: the scalar
Corridor.project, a brute-force minimum over all segments, the replay's
perceived offsets measured one point at a time, and for several polylines
in one call or gathered in chunks by ChunkedProjection, one call per
polyline."""

import numpy as np
import pytest

from curvepath import road
from curvepath.planner import GainMatrix, NodePointParams
from curvepath.road import LanePolynomial, Pose, corridor_from_polynomial, project_to_polyline
from curvepath.simulate import perceived_offsets, run_replay

from conftest import P_TRUE


@pytest.fixture(scope="module")
def curved_corridor():
    poly = LanePolynomial(0.3, 0.05, 0.012, -2e-4, preview_length=80.0)
    return corridor_from_polynomial(poly, step=0.5).transformed(Pose(120.0, -40.0, 2.4))


def _lateral(corr, stations, deltas):
    """Points displaced by deltas (positive left) from the midline tangent
    line at the given stations; stations may lie outside the corridor."""
    inside = np.clip(stations, 0.0, corr.length)
    th = corr.heading_unwrapped_at(inside)
    bx, by = corr.point_at(inside)
    ahead = stations - inside
    return (
        bx + ahead * np.cos(th) - deltas * np.sin(th),
        by + ahead * np.sin(th) + deltas * np.cos(th),
    )


class TestProjectMany:
    def test_matches_scalar_project(self, curved_corridor):
        corr = curved_corridor
        rng = np.random.default_rng(11)
        stations = np.concatenate((
            rng.uniform(0.0, corr.length, 300),
            [-6.0, -2.0, -0.5, corr.length + 0.5, corr.length + 3.0, corr.length + 8.0],
        ))
        deltas = rng.uniform(0.02, 2.5, stations.size) * rng.choice((-1.0, 1.0), stations.size)
        px, py = _lateral(corr, stations, deltas)
        px = np.concatenate((px, corr.x[::5]))
        py = np.concatenate((py, corr.y[::5]))

        got_s, got_off = corr.project_many(px, py)

        ref = np.array([corr.project(float(a), float(b)) for a, b in zip(px, py)])
        np.testing.assert_allclose(got_s, ref[:, 0], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(got_off, ref[:, 1], rtol=0.0, atol=1e-15)
        # the sample covers both sides, both ends and the vertices
        assert np.any(got_off > 0.0) and np.any(got_off < 0.0)
        assert np.sum(got_s == 0.0) >= 3 and np.sum(got_s == corr.length) >= 3
        assert np.any(np.abs(got_off) < 1e-12)

    def test_distances_match_brute_force_minimum(self):
        x = np.linspace(0.0, 100.0, 401)
        y = 5.0 * np.sin(x / 15.0)
        rng = np.random.default_rng(3)
        qx = rng.uniform(-3.0, 103.0, 500)
        qy = 5.0 * np.sin(qx / 15.0) + rng.uniform(-2.0, 2.0, qx.size)

        _, _, signed = project_to_polyline(x, y, qx, qy)

        brute = np.empty(qx.size)
        for j, (a, b) in enumerate(zip(qx, qy)):
            best = np.inf
            for k in range(x.size - 1):
                vx, vy = x[k + 1] - x[k], y[k + 1] - y[k]
                t = min(1.0, max(0.0, ((a - x[k]) * vx + (b - y[k]) * vy) / (vx * vx + vy * vy)))
                cx, cy = x[k] + t * vx, y[k] + t * vy
                best = min(best, (a - cx) * (a - cx) + (b - cy) * (b - cy))
            brute[j] = np.sqrt(best)
        np.testing.assert_allclose(np.abs(signed), brute, rtol=0.0, atol=1e-15)


class TestReplayOffsets:
    def test_offsets_equal_scalar_projection_per_plan(self, clean_driver_log):
        log = clean_driver_log
        params = NodePointParams()
        trace = perceived_offsets(log, run_replay(log, GainMatrix(P_TRUE), params, mode="estimation"))
        plans = [r for r in trace.replans if not r.gap]
        # the log's tail lacks preview, so the last plan stays active across gaps
        assert any(r.gap and r.cycle > plans[-1].cycle for r in trace.replans)

        bounds = [r.cycle for r in plans] + [len(log)]
        checked = 0
        for k, rec in enumerate(plans):
            c = rec.cycle
            full = corridor_from_polynomial(
                log.polynomial(c), lane_width=float(log.lane_width[c])
            ).transformed(log.pose(c))
            s_ego, _ = full.project(float(trace.x[c]), float(trace.y[c]))
            corr = full.window(s_ego)
            for j in range(c, bounds[k + 1]):
                assert trace.path_id[j] == k
                _, expected = corr.project(float(trace.x[j]), float(trace.y[j]))
                assert abs(trace.offset[j] - expected) <= 1e-15
                checked += 1
        assert checked == len(log) - plans[0].cycle
        assert np.all(np.isnan(trace.offset[: plans[0].cycle]))


def _many_against_one_per_polyline(lines, px, py, line):
    """The many-polyline call against one call per polyline, bit for bit;
    returns the many-polyline result."""
    starts = np.cumsum([0] + [len(x) for x, _ in lines[:-1]])
    got = project_to_polyline(
        np.concatenate([x for x, _ in lines]), np.concatenate([y for _, y in lines]), px, py, starts, line
    )
    assert got[0].size == px.size
    for k, (x, y) in enumerate(lines):
        mine = line == k
        seg, t, signed = project_to_polyline(x, y, px[mine], py[mine])
        assert (got[0][mine] - starts[k]).tobytes() == seg.tobytes()
        assert got[1][mine].tobytes() == t.tobytes()
        assert got[2][mine].tobytes() == signed.tobytes()
    return got


def _points_near(lines, per_line, rng):
    """Points scattered around each polyline, beyond both ends too, with
    each point's polyline index."""
    px, py, line = [], [], []
    for k, (x, y) in enumerate(lines):
        pick = rng.integers(0, len(x), per_line)
        px.append(x[pick] + rng.uniform(-3.0, 3.0, per_line))
        py.append(y[pick] + rng.uniform(-3.0, 3.0, per_line))
        line.append(np.full(per_line, k))
    return np.concatenate(px), np.concatenate(py), np.concatenate(line)


class TestManyPolylines:
    """project_to_polyline over concatenated polylines, each point onto its own."""

    @pytest.fixture(scope="class")
    def replay_like(self, curved_corridor):
        """Nearly coincident corridors, as consecutive replans give: the
        same one twice, a window of it and a slightly moved copy."""
        c = curved_corridor
        moved = c.transformed(Pose(0.4, -0.05, 1e-3))
        return [(c.x, c.y), (c.x, c.y), (c.x[37:], c.y[37:]), (moved.x, moved.y)]

    def test_identical_and_overlapping_polylines(self, replay_like):
        px, py, line = _points_near(replay_like, 120, np.random.default_rng(5))
        _many_against_one_per_polyline(replay_like, px, py, line)

    def test_two_vertex_polylines(self):
        lines = [
            (np.array([0.0, 10.0]), np.array([0.0, 0.0])),
            (np.array([0.0, 10.0]), np.array([1.0, 1.5])),
            (np.array([3.0, 3.0]), np.array([-4.0, 6.0])),
        ]
        px, py, line = _points_near(lines, 40, np.random.default_rng(8))
        px = np.concatenate((px, [-5.0, 15.0, 3.0]))
        py = np.concatenate((py, [0.3, 1.2, 9.0]))
        line = np.concatenate((line, [0, 1, 2]))
        _, t, _ = _many_against_one_per_polyline(lines, px, py, line)
        assert t[-3:].tolist() == [0.0, 1.0, 1.0]

    def test_point_nearest_to_another_polylines_vertex(self):
        x = np.linspace(0.0, 50.0, 101)
        lines = [(x, np.zeros_like(x)), (x, np.full_like(x, 0.5))]
        px = np.array([10.1, 20.0, 30.3])
        py = np.array([0.45, 0.49, 0.02])
        line = np.array([0, 0, 1])
        _, _, signed = _many_against_one_per_polyline(lines, px, py, line)
        np.testing.assert_allclose(signed, [0.45, 0.49, -0.48], rtol=0.0, atol=1e-12)

    def test_utm_scale_coordinates(self, replay_like):
        shifted = [(x + 5e5, y + 5e6) for x, y in replay_like]
        px, py, line = _points_near(shifted, 80, np.random.default_rng(13))
        _many_against_one_per_polyline(shifted, px, py, line)
        near = [(x + 5e5, y + 5e6) for x, y in (
            (np.linspace(0.0, 50.0, 101), np.zeros(101)), (np.linspace(0.0, 50.0, 101), np.full(101, 0.5)))]
        _many_against_one_per_polyline(near, np.array([5e5 + 10.1, 5e5 + 30.3]), np.array([5e6 + 0.45, 5e6 + 0.02]),
                                       np.array([0, 1]))

    def test_no_points(self, replay_like):
        seg, t, signed = _many_against_one_per_polyline(replay_like, np.empty(0), np.empty(0), np.empty(0, dtype=int))
        assert seg.size == t.size == signed.size == 0

    def test_nan_point_raises(self, replay_like):
        (x0, y0), starts = replay_like[0], np.cumsum([0] + [len(x) for x, _ in replay_like[:-1]])
        px, py = np.array([x0[5], np.nan]), np.array([y0[5], y0[9]])
        with pytest.raises(ValueError):
            project_to_polyline(x0, y0, px, py)
        with pytest.raises(ValueError):
            project_to_polyline(np.concatenate([x for x, _ in replay_like]), np.concatenate([y for _, y in replay_like]),
                                px, py, starts, np.array([0, 2]))

    @pytest.mark.parametrize("budget", [None, 1])
    def test_chunked_projection_hands_over_each_pair_in_order(self, replay_like, budget, monkeypatch):
        """At the default vertex budget, with chunks of several polylines,
        and at one vertex, with one polyline per chunk."""
        budget = budget or road.PROJECT_VERTICES
        monkeypatch.setattr(road, "PROJECT_VERTICES", budget)
        rng = np.random.default_rng(17)
        pairs = [(x, y, *_points_near([(x, y)], int(rng.integers(1, 60)), rng)[:2]) for x, y in replay_like * 6]
        calls = []  # per call: the vertices and the polylines

        def counted(x, y, px, py, starts, line):
            calls.append((len(x), len(starts), int(starts[-1])))
            return project_to_polyline(x, y, px, py, starts, line)

        monkeypatch.setattr(road, "project_to_polyline", counted)
        got = []
        projection = road.ChunkedProjection(lambda key, signed: got.append((key, signed)))
        projection.flush()
        assert not calls
        for i, pair in enumerate(pairs):
            projection.add(f"pair {i}", *pair)
            # every pair of a projected chunk is handed over at once
            assert len(got) == sum(polylines for _, polylines, _ in calls)
        projection.flush()
        projection.flush()
        monkeypatch.undo()

        # each key once, in the order added, with its own pair's distances
        assert [key for key, _ in got] == [f"pair {i}" for i in range(len(pairs))]
        for (x, y, px, py), (_, signed) in zip(pairs, got):
            assert signed.tobytes() == project_to_polyline(x, y, px, py)[2].tobytes()
        # a chunk closes at the first polyline that brings it to the budget
        assert all(last_start < budget <= vertices for vertices, _, last_start in calls[:-1])
        if budget == 1:
            assert [polylines for _, polylines, _ in calls] == [1] * len(pairs)
        else:
            assert 2 <= len(calls) < len(pairs)


def test_coordinate_arrays_of_different_lengths_raise():
    x = np.array([0.0, 10.0, 20.0])
    with pytest.raises(ValueError):
        project_to_polyline(x, x[:2], np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        project_to_polyline(x, x, np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestTooFewVertices:
    """A polyline needs two vertices to have a segment; fewer raise
    ValueError, naming the vertex count, before any tree is built."""

    def test_one_vertex(self):
        with pytest.raises(ValueError, match="polyline 0 has 1"):
            project_to_polyline([0.0], [0.0], [1.0], [1.0])

    def test_no_vertex(self):
        with pytest.raises(ValueError, match="polyline 0 has 0"):
            project_to_polyline([], [], [1.0], [1.0])

    def test_one_vertex_polyline_in_a_chunked_projection(self):
        got = []
        projection = road.ChunkedProjection(lambda key, signed: got.append(key))
        projection.add("valid", np.array([0.0, 10.0]), np.array([0.0, 0.0]), np.array([5.0]), np.array([1.0]))
        projection.add("point", np.array([3.0]), np.array([4.0]), np.array([5.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="polyline 1 has 1"):
            projection.flush()
        assert not got
