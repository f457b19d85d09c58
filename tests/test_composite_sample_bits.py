"""CompositePath.sample and the curvature lookups, bit for bit against the
per-segment loop they replace: one ClothoidSegment.sample call per segment
that holds stations, each on the grid its own stations size. A segment's
own sample, a one-segment CompositePath, is pinned against the formula it
replaced, and every station lookup follows one range rule."""

import math

import numpy as np
import pytest

from curvepath.clothoid import ClothoidSegment, CompositePath, _rule
from curvepath.road import Pose

from helpers import curvature_profile


def reference_phase_integrals(a, b, c: float):
    """The array kernel with one scalar c, as each segment's sample calls it."""
    tau, tau2, wts, _ = _rule(float(np.max(np.abs(a) + np.abs(b))))
    phase = 0.5 * a[..., None] * tau2 + b[..., None] * tau + c
    return (np.cos(phase) * wts).sum(axis=-1), (np.sin(phase) * wts).sum(axis=-1)


def reference_pieces(path: CompositePath, stations: np.ndarray):
    """(segment, mask, local arc lengths) for each segment holding stations."""
    bounds = path._bounds
    idx = np.clip(np.searchsorted(bounds, stations, side="right") - 1, 0, len(path.segments) - 1)
    for i in np.unique(idx):
        seg = path.segments[i]
        mask = idx == i
        yield seg, mask, np.clip(stations[mask] - bounds[i], 0.0, seg.length)


def reference_segment_sample(seg: ClothoidSegment, s: np.ndarray):
    a = seg.kappa_rate * s**2
    b = seg.kappa0 * s
    x0, y0 = reference_phase_integrals(a, b, seg.start.theta)
    heading = seg.start.theta + seg.kappa0 * s + 0.5 * seg.kappa_rate * s**2
    return seg.start.x + s * x0, seg.start.y + s * y0, heading


def reference_sample(path: CompositePath, stations):
    stations = np.asarray(stations, dtype=float)
    xs = np.empty_like(stations)
    ys = np.empty_like(stations)
    ths = np.empty_like(stations)
    slopes = []
    for seg, mask, local in reference_pieces(path, stations):
        xs[mask], ys[mask], ths[mask] = reference_segment_sample(seg, local)
        slopes.append(float(np.max(np.abs(seg.kappa_rate * local**2) + np.abs(seg.kappa0 * local))))
    return (xs, ys, ths), slopes


def reference_curvature_profile(path: CompositePath, step: float) -> np.ndarray:
    n = max(1, int(math.ceil(path.length / step)))
    stations = np.linspace(0.0, path.length, n + 1)
    kappas = np.empty_like(stations)
    for seg, mask, local in reference_pieces(path, stations):
        kappas[mask] = seg.curvature_at(local)
    return np.column_stack((stations, kappas))


def assert_same_bits(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert isinstance(g, np.ndarray)
        assert g.shape == e.shape and g.dtype == e.dtype
        assert g.tobytes() == e.tobytes()


def chained_path(rng, count: int) -> CompositePath:
    """count segments, each starting at the previous one's end pose."""
    start = Pose(*rng.normal(0.0, (50.0, 50.0, 1.0)))
    segments = []
    for _ in range(count):
        seg = ClothoidSegment(
            start=start,
            kappa0=float(rng.normal(0.0, 0.03)),
            kappa_rate=float(rng.normal(0.0, 1e-3)),
            length=float(rng.uniform(5.0, 70.0)),
        )
        segments.append(seg)
        start = seg.pose_at(seg.length)
    return CompositePath(tuple(segments))


def multi_panel(slope: float) -> bool:
    # one panel holds at most 12 nodes below the 256-panel cap
    return _rule(slope)[0].size >= 16


RANDOM_PATHS = [(seed, count) for seed in range(3) for count in range(1, 11)]


@pytest.mark.parametrize("seed,count", RANDOM_PATHS)
def test_random_composites_match_the_per_segment_loop(seed, count):
    rng = np.random.default_rng(1000 * seed + count)
    path = chained_path(rng, count)
    n = int(rng.integers(1, 400))
    stations = np.linspace(0.0, path.length, n + 1)
    got = path.sample(stations)
    expected, _ = reference_sample(path, stations)
    assert_same_bits(got, expected)
    # each segment on its own, from 0 to its length, and at one 0-d station
    for seg in path.segments:
        local = np.linspace(0.0, seg.length, n + 1)
        assert_same_bits(seg.sample(local), reference_segment_sample(seg, local))
        third = np.float64(seg.length / 3.0)
        assert_same_bits([np.asarray(out) for out in seg.sample(third)], reference_segment_sample(seg, third))


def segment_slope(seg: ClothoidSegment) -> float:
    """The largest phase slope of a segment's stations, reached at its end."""
    return abs(seg.kappa_rate) * seg.length**2 + abs(seg.kappa0) * seg.length


def test_the_random_segments_reach_one_panel_and_several():
    """Without both, the segment cases above would pin only one kind of grid."""
    slopes = [segment_slope(seg) for seed, count in RANDOM_PATHS
              for seg in chained_path(np.random.default_rng(1000 * seed + count), count).segments]
    assert sum(not multi_panel(slope) for slope in slopes) >= 5
    assert sum(multi_panel(slope) for slope in slopes) >= 5


def test_the_random_cases_mix_grids_and_reach_several_panels():
    """Without both, the cases above would not test grouping by grid."""
    mixed = panels = 0
    for seed, count in RANDOM_PATHS:
        rng = np.random.default_rng(1000 * seed + count)
        path = chained_path(rng, count)
        n = int(rng.integers(1, 400))
        _, slopes = reference_sample(path, np.linspace(0.0, path.length, n + 1))
        mixed += len({id(_rule(slope)) for slope in slopes}) >= 2
        panels += any(multi_panel(slope) for slope in slopes)
    assert mixed >= 5
    assert panels >= 5


@pytest.fixture(scope="module")
def mixed_path():
    """A nearly straight segment on the 8-node panel, a strong spiral on a
    multi-panel grid and a tight arc on one 10-node panel: three grids."""
    first = ClothoidSegment(Pose(3.0, -2.0, 0.4), 1e-3, 1e-6, 20.0)
    second = ClothoidSegment(first.pose_at(first.length), 0.02, 4e-3, 60.0)
    third = ClothoidSegment(second.pose_at(second.length), -0.2, 0.0, 8.0)
    path = CompositePath((first, second, third))
    _, slopes = reference_sample(path, np.linspace(0.0, path.length, 200))
    assert len({id(_rule(slope)) for slope in slopes}) == 3
    assert multi_panel(slopes[1])
    return path


def test_unsorted_stations_at_joints_and_ends(mixed_path):
    path = mixed_path
    special = [*path._bounds, -5e-10, -1e-9, path.length + 5e-10, path.length + 1e-9]
    rng = np.random.default_rng(5)
    stations = rng.permutation(np.concatenate((special, rng.uniform(0.0, path.length, 300))))
    assert_same_bits(path.sample(stations), reference_sample(path, stations)[0])


def test_a_segment_with_one_station(mixed_path):
    path = mixed_path
    first, second, _ = (seg.length for seg in path.segments)
    # one station on the middle segment, many on the others
    stations = np.concatenate((np.linspace(0.0, first - 1.0, 50), [first + 0.5 * second],
                               np.linspace(first + second + 0.1, path.length, 30)))
    assert_same_bits(path.sample(stations), reference_sample(path, stations)[0])
    # and a single station on the last segment only
    assert_same_bits(path.sample([path.length - 1.0]), reference_sample(path, [path.length - 1.0])[0])


def test_a_station_array_of_two_dimensions_keeps_its_shape(mixed_path):
    stations = np.linspace(0.0, mixed_path.length, 60).reshape(3, 20)[::-1]
    got = mixed_path.sample(stations)
    assert got[0].shape == (3, 20)
    assert_same_bits(got, reference_sample(mixed_path, stations)[0])


@pytest.mark.parametrize("station", [0.0, 7.5, 20.0, 50.0, 87.9999])
def test_a_0d_station_gives_0d_arrays(mixed_path, station):
    got = mixed_path.sample(np.float64(station))
    assert all(out.shape == () for out in got)
    assert_same_bits(got, reference_sample(mixed_path, np.float64(station))[0])
    assert_same_bits(mixed_path.sample(station), reference_sample(mixed_path, station)[0])


def test_a_negative_zero_station_samples_as_zero():
    """sample() clamps a -0.0 station to the path's start, 0.0, bit for bit
    (unlike locate(), which keeps -0.0): on a path that starts at -0.0 in x
    and y, the sign would show in both positions."""
    first = ClothoidSegment(Pose(-0.0, -0.0, -0.0), 0.01, 1e-4, 10.0)
    path = CompositePath((first, ClothoidSegment(first.pose_at(10.0), 0.02, 0.0, 5.0)))
    got = path.sample(np.array([-0.0, 0.0, 12.0]))
    assert_same_bits(got, path.sample(np.array([0.0, 0.0, 12.0])))
    assert not np.signbit(got[0][0]) and not np.signbit(got[1][0])


def test_no_stations_gives_empty_arrays(mixed_path):
    for stations in ([], np.empty(0), np.empty((0, 4))):
        got = mixed_path.sample(stations)
        assert all(out.shape == np.shape(stations) and out.dtype == float for out in got)


def many_curvature_profile(path: CompositePath, step: float) -> np.ndarray:
    """curvature_profile through _locate_many, the lookup sample() makes."""
    stations = curvature_profile(path, step)[:, 0]
    _, local, columns = path._locate_many(stations)
    return np.column_stack((stations, columns[2] + columns[3] * local))


@pytest.mark.parametrize("step", [0.3, 1.0, 7.0, 1000.0])
def test_curvature_profile_matches_the_per_segment_loop(mixed_path, step):
    expected = reference_curvature_profile(mixed_path, step)
    for got in (curvature_profile(mixed_path, step), many_curvature_profile(mixed_path, step)):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_random_curvature_profiles_match(seed):
    path = chained_path(np.random.default_rng(seed), 6)
    expected = reference_curvature_profile(path, 0.5).tobytes()
    assert curvature_profile(path, 0.5).tobytes() == expected
    assert many_curvature_profile(path, 0.5).tobytes() == expected


@pytest.fixture(scope="module")
def ten_metre_path():
    return CompositePath((ClothoidSegment(Pose(1.0, 2.0, 0.3), 0.01, 1e-4, 10.0),))


def test_a_0d_segment_station_gives_0d_arrays(ten_metre_path):
    for station in (4.0, np.float64(4.0), np.array(4.0)):
        got = ten_metre_path.segments[0].sample(station)
        assert all(isinstance(out, np.ndarray) and out.shape == () for out in got)


def test_a_segment_with_no_stations_gives_empty_arrays(ten_metre_path):
    for stations in ([], np.empty(0), np.empty((0, 4))):
        got = ten_metre_path.segments[0].sample(stations)
        assert len(got) == 3
        assert all(out.shape == np.shape(stations) and out.dtype == float for out in got)


OUTSIDE = [[-5.0, 50.0], [-5.0], [50.0], [-2e-9], [10.0 + 2e-9], [math.nan], [0.0, math.nan, 5.0],
           np.float64(math.nan), np.array([[0.0, 1.0], [2.0, 11.0]])]


@pytest.mark.parametrize("stations", OUTSIDE, ids=["both-ends", "below", "above", "2e-9-below", "2e-9-above",
                                                   "nan", "nan-among", "0d-nan", "2d-above"])
def test_a_station_outside_the_path_raises(ten_metre_path, stations):
    with pytest.raises(ValueError, match=r"arc length outside \[0, 10.0\]"):
        ten_metre_path.sample(stations)
    with pytest.raises(ValueError, match=r"arc length outside \[0, 10.0\]"):
        ten_metre_path.segments[0].sample(stations)


def test_a_station_outside_a_three_segment_path_raises(mixed_path):
    for stations in ([0.0, mixed_path.length + 1.0], [-1.0, 30.0], [30.0, math.nan]):
        with pytest.raises(ValueError, match="arc length outside"):
            mixed_path.sample(stations)


@pytest.mark.parametrize("lookup", [lambda path: path.locate(math.nan), lambda path: path.pose_at(math.nan),
                                    lambda path: path.segments[0].pose_at(math.nan)],
                         ids=["path-locate", "path-pose", "segment-pose"])
def test_a_scalar_lookup_rejects_a_nan_station(ten_metre_path, lookup):
    with pytest.raises(ValueError, match=r"arc length (nan )?outside \[0, 10.0\]"):
        lookup(ten_metre_path)


@pytest.mark.parametrize("station, end", [(10.0 + 5e-10, 10.0), (-5e-10, 0.0), (10.0, 10.0), (0.0, 0.0), (-0.0, -0.0)],
                         ids=["past-the-end", "before-the-start", "at-the-end", "at-the-start", "negative-zero"])
def test_a_station_within_the_tolerance_outside_is_clamped_to_the_end(ten_metre_path, station, end):
    seg = ten_metre_path.segments[0]
    assert seg.pose_at(station) == seg.pose_at(end)
    assert ten_metre_path.locate(station) == (seg, end)
    assert ten_metre_path.locate(station)[1].hex() == end.hex()
