"""A Corridor owns its arrays, and path sampling does not hinge on the last
bit of a path length."""

import numpy as np

from curvepath.calibration import _sample_intervals
from curvepath.clothoid import ClothoidSegment, CompositePath, fit_composite
from curvepath.road import Corridor, Pose


def test_callers_array_stays_writable_and_apart():
    s = np.arange(4.0)
    corridor = Corridor(s=s, x=np.arange(4.0), y=np.zeros(4), theta=np.zeros(4), kappa=np.zeros(4))
    s[0] = 1.0
    assert corridor.s.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert not corridor.s.flags.writeable


def test_writing_the_base_of_a_row_view_leaves_the_corridor_alone():
    base = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
    corridor = Corridor(s=base[0], x=base[1], y=base[2], theta=base[2], kappa=base[2])
    base[2] = [0.0, 5.0, 10.0, 15.0]
    assert corridor.theta.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert corridor.y.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_length_one_rounding_above_a_metre_adds_no_sample():
    exact = CompositePath(segments=(ClothoidSegment(Pose(0.0, 0.0), 0.0, 0.0, 150.0),))
    above = CompositePath(segments=(ClothoidSegment(Pose(0.0, 0.0), 0.0, 0.0, 150.00000000000003),))
    fitted = fit_composite(tuple(Pose(x, 0.0) for x in (0.0, 50.0, 100.0, 150.0)))
    assert above.length > exact.length
    assert abs(fitted.length - 150.0) < 1e-12
    assert _sample_intervals(above.length) == _sample_intervals(exact.length) == 150
    assert _sample_intervals(fitted.length) == 150
    assert _sample_intervals(150.001) == 151


def test_a_numpy_length_rounds_as_a_python_float():
    """Python's round is correctly rounded; numpy's scales, rounds to an
    integer and unscales, which drops 2.0000000005 to 2.0."""
    assert _sample_intervals(np.float64(2.0000000005)) == _sample_intervals(2.0000000005) == 3
