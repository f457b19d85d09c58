"""clothoid.sample_paths, the array sampler of many composite paths at once,
bit for bit against one-path sampling by the per-segment reference loop:
for every path, every grid row, every station shape and the stations at
and just past the ends; with the same range rule; and within a working set
that its block size bounds, however many stations a call samples."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvepath.clothoid import _BLOCK_NODES, ClothoidSegment, CompositePath, _rule, sample_paths
from curvepath.road import Pose

from test_composite_sample_bits import assert_same_bits, reference_sample

# phase slopes |kappa_rate| L^2 + |kappa0| L at a segment's end, one range
# per grid row: one panel of 8 nodes, one panel of 10 or 12, several panels
# below the 256-panel cap, and the cap, where panels get 24 nodes
SLOPES = (st.floats(0.0, 1.0), st.floats(1.0, 4.0), st.floats(4.0, 1020.0), st.floats(1020.0, 5000.0))


def nodes_per_panel(slope: float) -> int:
    panels = min(256, math.ceil((slope + 1.0) / 4.0)) if slope > 1.0 else 1
    return _rule(slope)[0].size // panels


def test_the_slope_ranges_reach_every_grid_row():
    # one slope from each range, in order
    assert [nodes_per_panel(slope) for slope in (0.5, 1.5, 2.8, 200.0, 3000.0)] == [8, 10, 12, 12, 24]


# coordinates and headings with no -0.0: sample() places a -0.0 station at
# 0.0 and the reference keeps it, which shows only on a -0.0 start
coordinate = st.floats(-1e3, 1e3).map(lambda v: v + 0.0)
heading = st.floats(-3.0, 3.0).map(lambda v: v + 0.0)


@st.composite
def segments(draw):
    length = draw(st.floats(0.5, 300.0))
    slope = draw(st.one_of(SLOPES))
    share = draw(st.floats(0.0, 1.0))  # of the slope that the curvature rate makes
    signs = draw(st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])))
    start = Pose(draw(coordinate), draw(coordinate), draw(heading))
    return ClothoidSegment(start, signs[0] * (1.0 - share) * slope / length, signs[1] * share * slope / length**2,
                           length)


paths = st.lists(segments(), min_size=1, max_size=10).map(lambda segs: CompositePath(tuple(segs)))


@st.composite
def stations_on(draw, path):
    """An array of any shape, empty ones too, of stations on `path`: -0.0,
    its ends and joints, points within 1e-9 past its ends and points
    between."""
    special = [-0.0, *path._bounds, -1e-9, -5e-10, path.length + 5e-10, path.length + 1e-9]
    station = st.one_of(st.sampled_from(special), st.floats(0.0, path.length))
    shape = draw(st.sampled_from([(), (0,), (1,), (7,), (60,), (0, 3), (4, 5)]))
    count = math.prod(shape)
    return np.array(draw(st.lists(station, min_size=count, max_size=count)), dtype=float).reshape(shape)


@st.composite
def paths_and_stations(draw, max_paths=6):
    drawn = draw(st.lists(paths, min_size=1, max_size=max_paths))
    return drawn, [draw(stations_on(path)) for path in drawn]


@settings(max_examples=150, deadline=None)
@given(paths_and_stations())
def test_every_path_matches_the_per_segment_loop(case):
    drawn, stations = case
    got = sample_paths(drawn, stations)
    assert len(got) == len(drawn)
    for path, part, sampled in zip(drawn, stations, got):
        assert_same_bits(sampled, reference_sample(path, part)[0])


@settings(max_examples=60, deadline=None)
@given(paths_and_stations(max_paths=3), st.data())
def test_one_station_out_of_range_raises_as_sample_does(case, data):
    drawn, stations = case
    k = data.draw(st.integers(0, len(drawn) - 1))
    length = drawn[k].length
    bad = data.draw(st.sampled_from([math.nan, np.nextafter(-1e-9, -math.inf), -1.0,
                                     np.nextafter(length + 1e-9, math.inf), length + 1.0]))
    stations[k] = np.append(stations[k].ravel(), bad)
    message = re.escape(f"arc length outside [0, {length}]")
    with pytest.raises(ValueError, match=message):
        sample_paths(drawn, stations)
    with pytest.raises(ValueError, match=message):
        drawn[k].sample(stations[k])


def _chain(specs) -> CompositePath:
    segs, start = [], Pose(3.0, -2.0, 0.4)
    for kappa0, kappa_rate, length in specs:
        segs.append(ClothoidSegment(start, kappa0, kappa_rate, length))
        start = segs[-1].pose_at(length)
    return CompositePath(tuple(segs))


# end slopes 0.03, 0.28 and 0.45: every segment on one panel of 8 nodes
GENTLE = _chain([(2e-3, 1e-4, 10.0), (4e-3, -2e-4, 29.0), (-3e-3, 1e-5, 110.0)])
# a nearly straight segment, a strong spiral and a tight arc: three grids
MIXED = _chain([(1e-3, 1e-6, 20.0), (0.02, 4e-3, 60.0), (-0.2, 0.0, 8.0)])

@pytest.mark.parametrize("slope", [0.5, 1.0, 1.0 + 1e-12, 1.5, 2.5, 3.0, 4.5, 1020.0, 1021.0, 4000.0])
def test_segments_either_side_of_each_grid_boundary(slope):
    """A segment whose end slope is `slope`, on its own and after a gentle
    path, sampled up to its end and at it: each of its grids, and the one
    panel of 8 nodes that every segment with an end slope of at most 1
    takes whatever its stations, as the reference picks them."""
    length, share = 50.0, 0.7
    steep = _chain([((1.0 - share) * slope / length, share * slope / length**2, length)])
    stations = [np.linspace(0.0, GENTLE.length, 40), np.concatenate((np.linspace(0.0, length, 25), [length + 1e-9]))]
    for drawn, parts in (([steep], stations[1:]), ([GENTLE, steep], stations)):
        for path, part, got in zip(drawn, parts, sample_paths(drawn, parts), strict=True):
            assert_same_bits(got, reference_sample(path, part)[0])


# Bytes a call may hold beyond its returned arrays and whatever it is given.
# Per station: its segment index (8), the three returned doubles (24), the
# concatenated stations of several paths (8), and with several grids its
# group (2), one group's mask (1) and row numbers (8): 51, so 56. Per block
# of at most _BLOCK_NODES phase values, one per node of each of at most
# _BLOCK_NODES // 8 stations: the phase array, a product that is added to
# it, and cos and sin (32 bytes per value), and about fifteen doubles per
# station (columns, arc lengths, products, positions and heading): 48.
PER_STATION_BYTES = 56
PER_NODE_BYTES = 48


@pytest.mark.parametrize("drawn", [[GENTLE], [MIXED], [GENTLE, MIXED] * 10], ids=["one-grid", "three-grids", "20-paths"])
def test_the_working_set_is_bounded_by_the_block_size(drawn):
    count = 30_000
    stations = [np.linspace(0.0, path.length, count // len(drawn)) for path in drawn]
    bound = PER_STATION_BYTES * count + PER_NODE_BYTES * _BLOCK_NODES
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sampled = sample_paths(drawn, stations)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} B above {bound} B"
    # a single kernel call over every station would hold 24 bytes per node
    # of every station: at 8 nodes, 192 per station
    assert 192 * count > bound
    for path, part, got in zip(drawn[:2], stations, sampled):
        assert_same_bits(got, reference_sample(path, part)[0])
