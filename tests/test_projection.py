"""Batched point-to-polyline projection against its references: the scalar
Corridor.project, a brute-force minimum over all segments, and the replay's
per-cycle offsets measured one point at a time."""

import numpy as np
import pytest

from curvepath.planner import GainMatrix, NodePointParams
from curvepath.road import LanePolynomial, Pose, corridor_from_polynomial, project_to_polyline
from curvepath.simulate import run_replay

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
        trace = run_replay(log, GainMatrix(P_TRUE), params, mode="estimation")
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

