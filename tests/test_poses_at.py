"""Corridor.poses_at: one lookup for many midline poses, bit-identical to the
per-station interpolation of x, y and heading."""

import numpy as np
import pytest

from curvepath.road import LanePolynomial, Pose, corridor_from_polynomial


def reference_pose(corridor, station):
    """One station at a time: np.interp per channel on a scalar."""
    return Pose(
        float(np.interp(station, corridor.s, corridor.x)),
        float(np.interp(station, corridor.s, corridor.y)),
        float(np.interp(station, corridor.s, corridor.theta)),
    )


def bits(poses):
    return [(p.x.hex(), p.y.hex(), p.theta.hex()) for p in poses]


def transformed_polynomial_corridor():
    poly = LanePolynomial(0.4, -0.03, 0.006, -8e-5)
    return corridor_from_polynomial(poly).transformed(Pose(-37.0, 12.5, 2.8))


def random_stations(corridor, n, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate(([0.0, corridor.length], rng.uniform(0.0, corridor.length, n)))


@pytest.mark.parametrize("which", ["transformed polynomial", "scenario road"])
def test_matches_per_station_lookup_bit_for_bit(which, s_curve_road):
    corridor = transformed_polynomial_corridor() if which == "transformed polynomial" else s_curve_road
    stations = random_stations(corridor, 2000, seed=17)
    poses = corridor.poses_at(stations)
    assert len(poses) == stations.size
    want = bits(reference_pose(corridor, float(s)) for s in stations)
    assert bits(poses) == want
    assert bits(corridor.poses_at((float(s),))[0] for s in stations) == want


def test_accepts_a_tuple_of_python_floats(s_curve_road):
    stations = (10.0, 39.0, 137.0)
    assert bits(s_curve_road.poses_at(stations)) == bits(reference_pose(s_curve_road, s) for s in stations)


def test_station_range():
    corridor = transformed_polynomial_corridor()
    length = corridor.length
    # rounding slack of 1e-9 m at both ends
    corridor.poses_at((-1e-10, length + 1e-10))
    with pytest.raises(ValueError, match=r"station -0\.5 outside corridor"):
        corridor.poses_at((10.0, -0.5, 20.0))
    with pytest.raises(ValueError, match="outside corridor"):
        corridor.poses_at((10.0, length + 1e-6))
    with pytest.raises(ValueError, match=r"station -1\.0 outside corridor"):
        corridor.poses_at((-1.0,))[0]
