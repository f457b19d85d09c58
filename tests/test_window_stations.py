"""The recorded points of a node-distance window keep a strictly increasing
station order, so interpolating offsets over them is well defined."""

import numpy as np

from curvepath.calibration import _window_geometry
from curvepath.simulate import DriveLog


def straight_log(x):
    n = len(x)
    zeros = np.zeros(n)
    return DriveLog(
        cycle=np.arange(n, dtype=np.int64),
        t=0.05 * np.arange(n),
        x=np.asarray(x, dtype=float),
        y=zeros,
        theta=zeros,
        speed=np.full(n, 25.0),
        c0=zeros,
        c1=zeros,
        c2=zeros,
        c3=zeros,
        lane_width=np.full(n, 3.5),
    )


def test_backward_step_keeps_stations_increasing():
    # the drive steps back from 5.0 to 3.0 and passes 5.0 again only at 6.25
    x = [0.0, 1.25, 2.5, 3.75, 5.0, 3.0, 4.0, 6.25, 7.5, 8.75, 10.0, 11.25]
    _, pts, stations, offsets = _window_geometry(straight_log(x), 0, len(x))
    assert np.all(np.diff(stations) > 0)
    np.testing.assert_array_equal(pts[:, 0], [0.0, 1.25, 2.5, 3.75, 5.0, 6.25, 7.5, 8.75, 10.0, 11.25])
    np.testing.assert_array_equal(stations, pts[:, 0])
    np.testing.assert_array_equal(offsets, 0.0)
