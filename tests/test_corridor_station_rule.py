"""Every corridor lookup checks its stations by one rule: a nan station or one
more than 1e-9 before 0 raises ValueError, one more than 1e-9 past the end
raises InsufficientPreviewError (a SkipError with reason "preview"), and one
within 1e-9 of an end reads the end value. A window starts at its station
and ends at the corridor's end, so a window from within 1e-9 of the end
would hold one sample and raises CorridorError."""

import dataclasses
import math
import re

import pytest

from curvepath.road import (
    CorridorError,
    InsufficientPreviewError,
    LanePolynomial,
    Pose,
    SkipError,
    corridor_from_polynomial,
)

CHANNELS = ("s", "x", "y", "theta", "kappa")


def _corridor():
    poly = LanePolynomial(0.4, -0.02, 0.004, -3e-5, preview_length=120.0)
    return corridor_from_polynomial(poly).transformed(Pose(12.0, -3.0, 0.7))


def _window_cut(corridor, station):
    """The channels where the window from `station` cuts the corridor."""
    window = corridor.window(station)
    return tuple(float(channel[0]) for channel in (window.x, window.y, window.theta, window.kappa))


LOOKUPS = {
    "point_at": lambda corridor, s: corridor.point_at(s),
    "heading_unwrapped_at": lambda corridor, s: (corridor.heading_unwrapped_at(s),),
    "kappa_at": lambda corridor, s: (corridor.kappa_at(s),),
    "poses_at": lambda corridor, s: dataclasses.astuple(corridor.poses_at((s,))[0]),
    "window": _window_cut,
}


def _message(corridor, station) -> str:
    return re.escape(f"station {station} outside corridor [0, {corridor.length}]")


@pytest.mark.parametrize("name", LOOKUPS)
def test_one_station_rule(name):
    lookup, corridor = LOOKUPS[name], _corridor()
    length = corridor.length
    for station in (math.nan, -2e-9):
        with pytest.raises(ValueError, match=_message(corridor, station)) as raised:
            lookup(corridor, station)
        assert raised.type is ValueError
    with pytest.raises(InsufficientPreviewError, match=_message(corridor, length + 2e-9)) as raised:
        lookup(corridor, length + 2e-9)
    assert isinstance(raised.value, SkipError) and raised.value.reason == "preview"
    for near, end in ((-5e-10, 0.0), (length + 5e-10, length)):
        if name == "window" and end == length:
            for station in (near, end):
                with pytest.raises(CorridorError, match="^corridor needs at least two samples$"):
                    lookup(corridor, station)
            continue
        got, want = lookup(corridor, near), lookup(corridor, end)
        assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("name", ["point_at", "heading_unwrapped_at", "kappa_at", "poses_at"])
def test_an_array_of_stations_is_checked_station_by_station(name):
    corridor = _corridor()
    stations = [0.0, 10.0, corridor.length + 1e-6, 20.0]
    lookup = getattr(corridor, name)
    with pytest.raises(InsufficientPreviewError, match=_message(corridor, corridor.length + 1e-6)):
        lookup(stations)


def test_a_window_from_within_the_margin_below_zero_is_the_window_from_zero():
    corridor = _corridor()
    got, want = corridor.window(-5e-10), corridor.window(0.0)
    for name in CHANNELS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_a_window_keeps_no_sample_within_the_margin_past_its_start():
    """A start just below a sample drops that sample rather than keep a step
    shorter than the station rule's margin."""
    corridor = _corridor()
    for k in (1, 40, len(corridor) - 2):
        window = corridor.window(float(corridor.s[k]) - 5e-10)
        assert window.min_step >= 1e-9
        assert len(window) == len(corridor) - k
        assert window.s[1:].tobytes() == (corridor.s[k + 1 :] - (float(corridor.s[k]) - 5e-10)).tobytes()
