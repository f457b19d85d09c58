"""Every failed fit raises FitError, reason "fit": coincident endpoints, a
Newton solve without a usable root, and poses so far apart that the length
or its square overflows. fit_composite passes the segment's error on as the
same exception, with its message, its traceback and the segment named."""

import math
import re
import traceback

import pytest

from curvepath.clothoid import FitError, fit_composite, fit_g1
from curvepath.road import Pose

from helpers import best_residual

# both ends point back along the chord with opposite signs
REVERSED = (Pose(0.0, 0.0, math.pi), Pose(10.0, 0.0, -math.pi + 1e-12))


def test_composite_keeps_the_segment_error():
    with pytest.raises(FitError) as alone:
        fit_g1(*REVERSED)
    # an S-bend that fits, then the reversed pair as segment 1
    with pytest.raises(FitError) as info:
        fit_composite((Pose(-10.0, 5.0, math.pi), *REVERSED))
    exc = info.value
    assert type(exc) is FitError
    assert exc.reason == "fit"
    assert exc.args == (f"segment 1: {alone.value}",)
    assert 0.0 <= best_residual(str(exc)) < 1e-12
    assert best_residual(str(exc)) == best_residual(str(alone.value))
    frames = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
    assert frames[-1] == "_solve_flattening"
    assert "fit_composite" in frames


def test_message_names_the_chord_projection():
    with pytest.raises(FitError) as info:
        fit_g1(*REVERSED)
    message = str(info.value)
    assert "did not converge" not in message
    # Newton reaches |Y| < 1e-12, but at a chord projection X below 1e-9
    x = float(re.search(r"at X=(\S+?)\)", message).group(1))
    assert 0.0 < x < 1e-9


@pytest.mark.parametrize(
    "start, end",
    [
        # the length is finite, its square overflows
        (Pose(0.0, 0.0, 0.0), Pose(1e300, 0.0, 0.0)),
        (Pose(0.0, 0.0, 0.3), Pose(0.0, 1e300, 1.2)),
        # the chord, and so the length, is infinite
        (Pose(-1e308, 0.0, 0.0), Pose(1e308, 0.0, 0.0)),
        (Pose(1e308, 0.0, 0.0), Pose(-1e308, 5.0, 0.1)),
        (Pose(0.0, -1e308, 0.5), Pose(0.0, 1e308, 0.5)),
    ],
    ids=["1e300-along", "1e300-across", "x-1e308-forward", "x-1e308-back", "y-1e308"],
)
def test_far_apart_poses_raise_fit_error(start, end):
    with pytest.raises(FitError, match="too far apart") as info:
        fit_g1(start, end)
    assert type(info.value) is FitError
    assert info.value.reason == "fit"
    with pytest.raises(FitError, match="segment 0: poses too far apart") as info:
        fit_composite((start, end))
    assert type(info.value) is FitError


def test_the_longest_fit_that_squares_is_still_a_segment():
    # 1e150 m squares to 1e300, below the largest double
    seg = fit_g1(Pose(0.0, 0.0, 0.0), Pose(1e150, 0.0, 0.0))
    assert seg.length == pytest.approx(1e150, rel=1e-12)
    assert (seg.kappa0, seg.kappa_rate) == (0.0, 0.0)
