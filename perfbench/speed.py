"""Machine-speed reference used to calibrate measured latencies.

The shared host this benchmark was built on runs the same fixed work at
anywhere from 1x to 2x its fastest time, in phases lasting from a fraction
of a second to over a minute, as other tenants load the physical cores. A
raw latency therefore says as much about the neighbours as about the
program. The benchmark times a fixed reference kernel, which does not
touch curvepath, before and after the program calls it measures, and
scales each call's latency by REF_NOMINAL_S over the kernel's time around
it: the result is the latency at the speed the host has when the kernel
takes REF_NOMINAL_S.
"""

from __future__ import annotations

import time

import oracles

# Fastest time of reference_kernel on the 2-core host the bounds were set on.
REF_NOMINAL_S = 0.7e-3

_LANE = (0.3, 0.01, 0.004, -2e-5)


def reference_kernel():
    """Fixed mix of interpreter, numpy and quadrature work, about 0.7 ms on
    that host: the same kinds of work the program does."""
    for d in (27.0, 37.0, 57.0, 77.0, 97.0, 117.0, 127.0, 137.0, 147.0):
        oracles.lane_arc_length(_LANE, d)
        oracles.polyline_station_pose(_LANE, 150.0, 0.5, d)
        oracles.spiral_end_pose(0.0, 0.0, 0.1, 0.004, 1e-5, d)


def scale():
    """REF_NOMINAL_S over the kernel's current time (fastest of two runs)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return REF_NOMINAL_S / best
