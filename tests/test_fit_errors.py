"""A failed segment fit reaches the caller of fit_composite as the same
exception: its type, residual and traceback, with the segment named."""

import math
import re
import traceback

import pytest

from curvepath.clothoid import FitConvergenceError, fit_composite, fit_g1
from curvepath.road import Pose

# both ends point back along the chord with opposite signs
REVERSED = (Pose(0.0, 0.0, math.pi), Pose(10.0, 0.0, -math.pi + 1e-12))


def test_composite_keeps_the_segment_error():
    with pytest.raises(FitConvergenceError) as alone:
        fit_g1(*REVERSED)
    # an S-bend that fits, then the reversed pair as segment 1
    with pytest.raises(FitConvergenceError) as info:
        fit_composite((Pose(-10.0, 5.0, math.pi), *REVERSED))
    exc = info.value
    assert type(exc) is FitConvergenceError
    assert 0.0 <= exc.residual < 1e-12
    assert exc.residual == alone.value.residual
    assert str(exc) == f"segment 1: {alone.value}"
    frames = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
    assert frames[-1] == "_solve_flattening"
    assert "fit_composite" in frames


def test_message_names_the_chord_projection():
    with pytest.raises(FitConvergenceError) as info:
        fit_g1(*REVERSED)
    message = str(info.value)
    assert "did not converge" not in message
    # Newton reaches |Y| < 1e-12, but at a chord projection X below 1e-9
    x = float(re.search(r"at X=(\S+?)\)", message).group(1))
    assert 0.0 < x < 1e-9
