import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvepath.clothoid import (
    ClothoidSegment,
    CompositePath,
    FitError,
    fit_composite,
    fit_g1,
)
from curvepath.road import Pose, wrap_angle

from _oracles import integrate_pose
from helpers import curvature_profile

CIRCLE_END = Pose(100.0 * math.sin(0.5), 100.0 * (1.0 - math.cos(0.5)), 0.5)


class TestEvaluate:
    def test_straight_line(self):
        seg = ClothoidSegment(Pose(0, 0, 0), 0.0, 0.0, 50.0)
        end = seg.end_pose()
        assert (end.x, end.y, end.theta) == pytest.approx((50.0, 0.0, 0.0), abs=1e-12)

    def test_circular_arc(self):
        seg = ClothoidSegment(Pose(0, 0, 0), 0.01, 0.0, 50.0)
        end = seg.end_pose()
        assert end.x == pytest.approx(CIRCLE_END.x, abs=1e-10)
        assert end.y == pytest.approx(CIRCLE_END.y, abs=1e-10)
        assert end.theta == pytest.approx(0.5, abs=1e-12)

    def test_start_is_exact(self):
        seg = ClothoidSegment(Pose(3.0, -2.0, 0.7), 0.02, 1e-4, 80.0)
        assert seg.pose_at(0.0) == seg.start

    def test_out_of_range(self):
        seg = ClothoidSegment(Pose(0, 0, 0), 0.0, 0.0, 50.0)
        with pytest.raises(ValueError):
            seg.pose_at(51.0)

    def test_matches_independent_integration(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seg = ClothoidSegment(
                Pose(*rng.uniform(-50, 50, 2), rng.uniform(-3, 3)),
                kappa0=rng.uniform(-0.05, 0.05),
                kappa_rate=rng.uniform(-1e-3, 1e-3),
                length=rng.uniform(5, 200),
            )
            end = seg.end_pose()
            ox, oy, oth = integrate_pose(seg.start, seg.kappa0, seg.kappa_rate, seg.length)
            assert math.hypot(end.x - ox, end.y - oy) < 1e-8
            assert abs(wrap_angle(end.theta - oth)) < 1e-10


class TestFitG1:
    def test_straight(self):
        seg = fit_g1(Pose(0, 0, 0), Pose(50, 0, 0))
        assert seg.kappa0 == pytest.approx(0.0, abs=1e-12)
        assert seg.kappa_rate == pytest.approx(0.0, abs=1e-12)
        assert seg.length == pytest.approx(50.0, abs=1e-9)

    def test_circle_recovery(self):
        seg = fit_g1(Pose(0, 0, 0), CIRCLE_END)
        assert seg.kappa0 == pytest.approx(0.01, abs=1e-8)
        assert seg.kappa_rate == pytest.approx(0.0, abs=1e-8)
        assert seg.length == pytest.approx(50.0, abs=1e-6)

    def test_general_pose_closes(self):
        target = Pose(100.0, 10.0, 0.3)
        seg = fit_g1(Pose(0, 0, 0), target)
        end = seg.end_pose()
        assert math.hypot(end.x - target.x, end.y - target.y) < 1e-6
        assert abs(wrap_angle(end.theta - target.theta)) < 1e-8

    def test_coincident_endpoints(self):
        with pytest.raises(FitError, match="coincident") as info:
            fit_g1(Pose(1.0, 1.0, 0.0), Pose(1.0, 1.0, 0.5))
        assert type(info.value) is FitError

    def test_random_problems_close(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            chord = rng.uniform(5, 250)
            phi = rng.uniform(-math.pi, math.pi)
            start = Pose(*rng.uniform(-100, 100, 2), phi + rng.uniform(-2.5, 2.5))
            end = Pose(
                start.x + chord * math.cos(phi),
                start.y + chord * math.sin(phi),
                phi + rng.uniform(-2.5, 2.5),
            )
            seg = fit_g1(start, end)
            got = seg.end_pose()
            assert math.hypot(got.x - end.x, got.y - end.y) < 1e-6
            assert abs(wrap_angle(got.theta - end.theta)) < 1e-8

    @given(
        dev0=st.floats(-2.0, 2.0),
        dev1=st.floats(-2.0, 2.0),
        chord=st.floats(5.0, 250.0),
        phi=st.floats(-3.0, 3.0),
    )
    def test_mirror_symmetry(self, dev0, dev1, chord, phi):
        # mirroring both poses across the x axis negates the curvatures and
        # keeps the length
        start = Pose(0.0, 0.0, phi + dev0)
        end = Pose(chord * math.cos(phi), chord * math.sin(phi), phi + dev1)
        seg = fit_g1(start, end)
        mirrored = fit_g1(
            Pose(start.x, -start.y, -start.theta),
            Pose(end.x, -end.y, -end.theta),
        )
        assert mirrored.kappa0 == pytest.approx(-seg.kappa0, abs=1e-12)
        assert mirrored.kappa_rate == pytest.approx(-seg.kappa_rate, abs=1e-12)
        assert mirrored.length == pytest.approx(seg.length, rel=1e-12)


class TestComposite:
    def test_collinear_poses(self):
        poses = [Pose(10.0 * i, 0.0, 0.0) for i in range(4)]
        path = fit_composite(poses)
        assert len(path.segments) == 3
        for seg in path.segments:
            assert abs(seg.kappa0) < 1e-12
            assert abs(seg.kappa_rate) < 1e-12

    def test_circle_poses(self):
        radius = 100.0
        poses = [
            Pose(radius * math.sin(s / radius), radius * (1 - math.cos(s / radius)), s / radius)
            for s in (0.0, 50.0, 100.0, 150.0)
        ]
        path = fit_composite(poses)
        for seg in path.segments:
            assert seg.kappa0 == pytest.approx(0.01, abs=1e-8)
            assert abs(seg.kappa_rate) < 1e-8

    def test_two_poses_reduces_to_single_fit(self):
        a, b = Pose(0, 0, 0), Pose(40.0, 5.0, 0.2)
        path = fit_composite([a, b])
        single = fit_g1(a, b)
        assert len(path.segments) == 1
        assert path.segments[0].length == pytest.approx(single.length)

    def test_error_carries_segment_index(self):
        poses = [Pose(0, 0, 0), Pose(10, 0, 0), Pose(10, 0, 0.5)]
        with pytest.raises(FitError, match="segment 1"):
            fit_composite(poses)

    def test_needs_two_poses(self):
        with pytest.raises(ValueError):
            fit_composite([Pose(0, 0, 0)])

    def test_joint_continuity_enforced(self):
        a = ClothoidSegment(Pose(0, 0, 0), 0.0, 0.0, 10.0)
        b = ClothoidSegment(Pose(10.0, 1.0, 0.0), 0.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="joint"):
            CompositePath(segments=(a, b))

    def test_pose_lookup_across_joints(self):
        poses = [Pose(0, 0, 0), Pose(50, 0, 0), Pose(100, 0, 0)]
        path = fit_composite(poses)
        assert path.length == pytest.approx(100.0, abs=1e-9)
        mid = path.pose_at(75.0)
        assert mid.x == pytest.approx(75.0, abs=1e-9)


class TestCurvatureProfile:
    def test_straight_profile(self):
        path = fit_composite([Pose(0, 0, 0), Pose(50, 0, 0)])
        profile = curvature_profile(path, 1.0)
        assert np.all(np.abs(profile[:, 1]) < 1e-12)

    def test_constant_arc(self):
        seg = ClothoidSegment(Pose(0, 0, 0), 0.01, 0.0, 50.0)
        profile = curvature_profile(CompositePath(segments=(seg,)), 0.5)
        assert np.allclose(profile[:, 1], 0.01)

    def test_affine_interior_value(self):
        seg = ClothoidSegment(Pose(0, 0, 0), 0.0, 2e-4, 100.0)
        path = CompositePath(segments=(seg,))
        profile = curvature_profile(path, 0.5)
        idx = np.argmin(np.abs(profile[:, 0] - 50.0))
        assert profile[idx, 1] == pytest.approx(0.01, abs=1e-12)

    def test_stations_continuous_across_segments(self):
        path = fit_composite([Pose(0, 0, 0), Pose(30, 0, 0), Pose(60, 0, 0)])
        profile = curvature_profile(path, 1.0)
        assert np.all(np.diff(profile[:, 0]) > 0)
        assert profile[-1, 0] == pytest.approx(path.length)
