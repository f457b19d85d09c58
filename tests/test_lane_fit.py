"""The batched lane-fit kernel against a weighted least-squares oracle, and
its block calls against the one-row public fit."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvepath.road import InsufficientPreviewError
from curvepath.simulate import (
    _fit_lane_block,
    build_scenario_road,
    fit_lane_polynomial,
    offset_pose_on,
    s_curve_scenario,
    winding_scenario,
)

# Lateral difference between kernel and oracle polynomials anywhere in the
# preview. The normal equations square the condition number of the
# least-squares problem; the worst of 6000 random fits was 1.5e-11 m, with
# no anchor.
LATERAL_TOL_M = 1e-9


@functools.cache
def scenario_road(name):
    return build_scenario_road({"s-curve": s_curve_scenario, "winding": winding_scenario}[name]())


def lstsq_oracle(road, ego, station, preview, anchor_c0, anchor_c1):
    """Weighted cubic fit by np.linalg.lstsq on the weighted design matrix."""
    inside = (road.s >= station - 1e-9) & (road.s <= station + preview + 1e-9)
    dx, dy = road.x[inside] - ego.x, road.y[inside] - ego.y
    c, s = math.cos(ego.theta), math.sin(ego.theta)
    xe, ye = c * dx + s * dy, -s * dx + c * dy
    weight = 1.0 / (1.0 + (xe / 50.0) ** 2) ** 2
    columns = [np.ones_like(xe), xe, xe**2 / 2.0, xe**3 / 6.0]
    fixed = [anchor_c0, anchor_c1, None, None]
    target = ye - sum(v * col for v, col in zip(fixed, columns) if v is not None)
    free = [j for j, v in enumerate(fixed) if v is None]
    design = np.column_stack([columns[j] for j in free]) * weight[:, None]
    solved = np.linalg.lstsq(design, target * weight, rcond=None)[0]
    coeffs = np.array([0.0 if v is None else v for v in fixed])
    coeffs[free] = solved
    return coeffs


def lateral_gap(a, b, preview):
    xs = np.linspace(0.0, preview, 61)
    d = np.asarray(a) - np.asarray(b)
    return float(np.max(np.abs(d[0] + d[1] * xs + d[2] * xs**2 / 2.0 + d[3] * xs**3 / 6.0)))


ANCHOR_SETS = st.sampled_from(["none", "c0", "c0+c1"])


@st.composite
def blocks(draw):
    """A road, a preview, an anchor set and 1 to 8 ego poses near the midline."""
    name = draw(st.sampled_from(["s-curve", "winding"]))
    preview = draw(st.floats(20.0, 200.0))
    top = scenario_road(name).length - preview - 1.0
    poses = draw(
        st.lists(
            st.tuples(st.floats(0.0, top), st.floats(-1.0, 1.0), st.floats(-0.05, 0.05),
                      st.floats(-0.2, 0.2), st.floats(-0.02, 0.02)),
            min_size=1,
            max_size=8,
        )
    )
    return name, preview, draw(ANCHOR_SETS), poses


def block_inputs(name, preview, anchors, poses):
    """Kernel arguments plus per-pose (ego, station, anchor_c0, anchor_c1)."""
    rows = []
    for station, delta, rate, c0_error, c1_error in poses:
        ego = offset_pose_on(scenario_road(name), station, delta, rate)
        c0 = -delta + c0_error if anchors != "none" else None
        c1 = -rate + c1_error if anchors == "c0+c1" else None
        rows.append((ego, station, c0, c1))
    column = lambda values: None if values[0] is None else np.array(values)  # noqa: E731
    args = (
        scenario_road(name),
        np.array([r[0].x for r in rows]),
        np.array([r[0].y for r in rows]),
        np.array([r[0].theta for r in rows]),
        np.array([r[1] for r in rows]),
        preview,
        column([r[2] for r in rows]),
        column([r[3] for r in rows]),
    )
    return args, rows


@given(blocks())
def test_kernel_matches_weighted_lstsq(block):
    name, preview, anchors, poses = block
    args, rows = block_inputs(name, preview, anchors, poses)
    coeffs = _fit_lane_block(*args)
    for got, (ego, station, c0, c1) in zip(coeffs, rows):
        want = lstsq_oracle(scenario_road(name), ego, station, preview, c0, c1)
        assert lateral_gap(got, want, preview) <= LATERAL_TOL_M
        if c0 is not None:
            assert got[0] == c0
        if c1 is not None:
            assert got[1] == c1


@given(blocks())
def test_block_rows_equal_one_row_fits(block):
    name, preview, anchors, poses = block
    args, rows = block_inputs(name, preview, anchors, poses)
    coeffs = _fit_lane_block(*args)
    for got, (ego, station, c0, c1) in zip(coeffs, rows):
        one = fit_lane_polynomial(scenario_road(name), ego, station, preview, anchor_c0=c0, anchor_c1=c1)
        assert tuple(got.tolist()) == one.coefficients


def test_short_window_names_first_short_station():
    midline = scenario_road("s-curve")
    stations = np.array([10.0, midline.length - 3.0, midline.length - 1.0])
    ego = [offset_pose_on(midline, s, 0.0) for s in stations]
    with pytest.raises(InsufficientPreviewError, match=f"station {midline.length - 3.0:.1f}"):
        _fit_lane_block(
            midline,
            np.array([p.x for p in ego]),
            np.array([p.y for p in ego]),
            np.array([p.theta for p in ego]),
            stations,
            150.0,
        )
    # seven samples (3 m at 0.5 m spacing) are too few, eight are enough
    with pytest.raises(InsufficientPreviewError, match="only 7 midline samples"):
        fit_lane_polynomial(midline, ego[0], 10.0, preview=3.0)
    fit_lane_polynomial(midline, ego[0], 10.0, preview=3.5)


def test_slope_anchor_needs_intercept_anchor():
    midline = scenario_road("s-curve")
    with pytest.raises(ValueError, match="anchor_c1 needs anchor_c0"):
        fit_lane_polynomial(midline, offset_pose_on(midline, 10.0, 0.0), 10.0, anchor_c1=0.0)
