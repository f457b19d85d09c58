"""Corridor's channel lookups give Python floats for a scalar station and
arrays for an array of stations, with the same values either way."""

import numpy as np

from curvepath.road import LanePolynomial, Pose, corridor_from_polynomial


def _corridor():
    poly = LanePolynomial(0.4, -0.02, 0.004, -3e-5, preview_length=120.0)
    return corridor_from_polynomial(poly).transformed(Pose(12.0, -3.0, 0.7))


def test_scalar_station_gives_python_floats():
    corridor = _corridor()
    for station in (0.0, 17.3, np.float64(55.55), corridor.length):
        values = (*corridor.point_at(station), corridor.heading_unwrapped_at(station), corridor.kappa_at(station))
        assert [type(v) for v in values] == [float] * 4


def test_array_of_stations_gives_arrays_of_the_scalar_values():
    corridor = _corridor()
    stations = np.linspace(0.0, corridor.length, 37)
    lookups = (
        lambda s: corridor.point_at(s)[0],
        lambda s: corridor.point_at(s)[1],
        corridor.heading_unwrapped_at,
        corridor.kappa_at,
    )
    for lookup in lookups:
        out = lookup(stations)
        assert isinstance(out, np.ndarray) and out.shape == stations.shape
        assert out.tolist() == [lookup(s) for s in stations.tolist()]
