"""Each input check of the library rejects its input with its own error type
and a message that names what is wrong."""

import math
import re

import numpy as np
import pytest

from curvepath.calibration import assemble_dataset, node_count_tradeoff, optimize_node_distances
from curvepath.clothoid import ClothoidSegment, CompositePath
from curvepath.metrics import VehicleSpec
from curvepath.planner import GainMatrix, NodePointParams
from curvepath.road import Corridor, CorridorError, Pose
from curvepath.simulate import (
    DriveLog,
    RoadSegmentSpec,
    ScenarioSpec,
    SyntheticDriverSpec,
    generate_synthetic_driver_log,
    run_replay,
)

STRAIGHT = RoadSegmentSpec.straight(100.0)


def _corridor(**channels):
    arrays = dict(s=[0.0, 1.0], x=[0.0, 1.0], y=[0.0, 0.0], theta=[0.0, 0.0], kappa=[0.0, 0.0])
    arrays.update(channels)
    return Corridor(**arrays)


def _log(n=3):
    zeros = np.zeros(n)
    return DriveLog(
        cycle=np.arange(n, dtype=np.int64),
        t=0.05 * np.arange(n),
        x=1.25 * np.arange(n),
        y=zeros,
        theta=zeros,
        speed=np.full(n, 25.0),
        c0=zeros,
        c1=zeros,
        c2=zeros,
        c3=zeros,
        lane_width=np.full(n, 3.7),
    )


ZERO_GAINS = GainMatrix(np.zeros((3, 3)))

CASES = {
    "corridor-one-sample": (
        lambda: _corridor(s=[0.0], x=[0.0], y=[0.0], theta=[0.0], kappa=[0.0]),
        CorridorError,
        "corridor needs at least two samples",
    ),
    "corridor-channel-shape": (
        lambda: _corridor(x=[0.0, 1.0, 2.0]),
        CorridorError,
        "corridor array x has shape (3,), expected (2,)",
    ),
    "corridor-channel-non-finite": (
        lambda: _corridor(kappa=[0.0, math.nan]),
        CorridorError,
        "corridor array kappa contains non-finite values",
    ),
    "corridor-start-at-1": (
        lambda: _corridor(s=[1.0, 2.0]),
        CorridorError,
        "corridor arc length must start at 0",
    ),
    "straight-with-curvature": (
        lambda: RoadSegmentSpec("straight", 100.0, 0.01, 0.01),
        ValueError,
        "straight segments must have zero curvature",
    ),
    "arc-with-two-curvatures": (
        lambda: RoadSegmentSpec("arc", 100.0, 0.01, 0.02),
        ValueError,
        "arc segments must have constant curvature",
    ),
    "scenario-no-segments": (lambda: ScenarioSpec(segments=()), ValueError, "scenario needs at least one segment"),
    "scenario-zero-lane-width": (
        lambda: ScenarioSpec(segments=(STRAIGHT,), lane_width=0.0),
        ValueError,
        "lane_width must be positive",
    ),
    "scenario-zero-speed": (
        lambda: ScenarioSpec(segments=(STRAIGHT,), speed=0.0),
        ValueError,
        "speed must be positive",
    ),
    "composite-no-segments": (lambda: CompositePath(()), ValueError, "composite path needs at least one segment"),
    "clothoid-zero-length": (
        lambda: ClothoidSegment(Pose(0.0, 0.0), 0.0, 0.0, 0.0),
        ValueError,
        "segment length must be positive",
    ),
    "clothoid-infinite-length": (
        lambda: ClothoidSegment(Pose(0.0, 0.0), 0.0, 0.0, math.inf),
        ValueError,
        "length must be finite",
    ),
    "synth-retrigger-0": (
        lambda: generate_synthetic_driver_log(_corridor(), SyntheticDriverSpec(ZERO_GAINS), retrigger=0),
        ValueError,
        "retrigger must be at least 1",
    ),
    "replay-retrigger-0": (
        lambda: run_replay(_log(), ZERO_GAINS, retrigger=0),
        ValueError,
        "retrigger must be at least 1",
    ),
    "dataset-retrigger-0": (
        lambda: assemble_dataset(_log(), retrigger=0),
        ValueError,
        "retrigger must be at least 1",
    ),
    "optimize-window-1": (
        lambda: optimize_node_distances(_log(), NodePointParams(), window=1),
        ValueError,
        "window must span at least 2 samples",
    ),
    "optimize-stride-0": (
        lambda: optimize_node_distances(_log(), NodePointParams(), window=2, stride=0),
        ValueError,
        "stride must be positive",
    ),
    "sweep-count-0": (lambda: node_count_tradeoff(_log(), counts=(0,)), ValueError, "counts must be positive"),
    "vehicle-zero-width": (lambda: VehicleSpec(width=0.0), ValueError, "vehicle width must be positive"),
}


@pytest.mark.parametrize("name", CASES)
def test_input_check_names_what_it_rejects(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert raised.type is error
