"""The slope-sized Gauss-Legendre rule of the clothoid kernels against
QUADPACK and against a fixed 24-node rule, its remainder bound, and the
fit's reuse of the chord projection computed at the root."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import IntegrationWarning, quad

from curvepath.clothoid import (
    _GL_ORDERS,
    _grid,
    _phase_integrals,
    _rule,
    _scalar_phase_integrals,
    _solve_flattening,
    fit_g1,
)
from curvepath.road import Pose, wrap_angle

# Truncation bound of (X, Y, first moment, second moment) that every row of
# the rule keeps, and an allowance for rounding in sums of up to 256 * 24
# terms; the worst deviation from QUADPACK over the slopes below was 2.3e-15.
STATED_BOUND = (1.5e-15, 1.5e-15, 5e-15, 2e-14)
MOMENT = (0, 0, 1, 2)
ROUNDING = 4e-15
# the capped row keeps STATED_BOUND up to this phase rise per panel (slope 5120)
CAPPED_RISE_LIMIT = 20.0

# each row's largest rise (1, 2.5, and 3, 3.5, 3.75, 3.98 rad on 1, 2, 4 and
# 256 panels) and the capped regime above slope 1020
SLOPES = (1e-4, 0.01, 0.3, 1.0, 1.01, 2.0, 2.5, 2.51, 3.0, 4.0, 7.0, 11.0, 15.0, 50.0, 299.0,
          1019.0, 1030.0, 2000.0, 4000.0)


def remainder_bound(rise, order, moment=0):
    """Gauss-Legendre truncation error of one moment over [0, 1].

    An order-node rule on a panel of width h errs by h^(2n+1) (n!)^4 /
    ((2n+1) ((2n)!)^3) times the integrand's 2n-th derivative. For
    exp(i phase) with phase' <= slope and phase'' <= slope, h^k times the
    k-th derivative is at most sum_j k! / (j! (k-2j)! 2^j) rise^(k-j), with
    rise = slope * h; moments add the Leibniz terms of t and t^2.
    """
    n, k = order, 2 * order
    d = [sum(math.factorial(m) / (math.factorial(j) * math.factorial(m - 2 * j) * 2**j) * rise ** (m - j)
             for j in range(m // 2 + 1)) for m in (k, k - 1, k - 2)]
    leibniz = (d[0], d[0] + k * d[1], d[0] + 2 * k * d[1] + k * (k - 1) * d[2])[moment]
    return math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(k) ** 3) * leibniz


def quadpack_integrals(a, b, c):
    """(X, Y, first, second cosine moment) by adaptive quadrature on pieces of at most 2 rad."""

    def phase(t):
        return 0.5 * a * t * t + b * t + c

    integrands = (lambda t: math.cos(phase(t)), lambda t: math.sin(phase(t)),
                  lambda t: t * math.cos(phase(t)), lambda t: t * t * math.cos(phase(t)))
    edges = np.linspace(0.0, 1.0, math.ceil((abs(a) + abs(b)) / 2.0) + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return tuple(math.fsum(quad(f, lo, hi, epsabs=1e-17, epsrel=1e-15, limit=200)[0]
                               for lo, hi in zip(edges[:-1], edges[1:])) for f in integrands)


def gauss24_integrals(a, b, c):
    """The same integrals by 24 Gauss-Legendre nodes on about 4 rad of phase per panel."""
    panels = min(256, math.ceil((abs(a) + abs(b) + 1.0) / 4.0))
    nodes, weights = np.polynomial.legendre.leggauss(24)
    t = ((np.arange(panels) + 0.5)[:, None] + 0.5 * nodes).ravel() / panels
    w = np.tile(weights, panels) / (2 * panels)
    phase = 0.5 * a * t * t + b * t + c
    cw = np.cos(phase) * w
    return (math.fsum(cw), math.fsum(np.sin(phase) * w), math.fsum(cw * t), math.fsum(cw * t * t))


def draws(slope, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        share = rng.uniform(0.0, 1.0)
        sa, sb = rng.choice((-1.0, 1.0), 2)
        yield sa * share * slope, sb * (1.0 - share) * slope, rng.uniform(-math.pi, math.pi)


def test_every_row_keeps_the_stated_bound():
    assert _GL_ORDERS[-1][0] == math.inf and _GL_ORDERS[-1][1] >= 24
    for limit, order in _GL_ORDERS:
        rise = CAPPED_RISE_LIMIT if limit == math.inf else limit
        for k, moment in enumerate(MOMENT):
            assert remainder_bound(rise, order, moment) <= STATED_BOUND[k]
    # fewer nodes on the same rise would break it: the table is no larger than it needs to be
    for limit, order in _GL_ORDERS[:-1]:
        assert remainder_bound(limit, order - 2) > STATED_BOUND[0]


@pytest.mark.parametrize("slope", SLOPES)
def test_kernels_within_the_stated_bound(slope):
    for a, b, c in draws(slope, 2 if slope > 1000 else 8, seed=int(slope * 1000) + 1):
        exact = quadpack_integrals(a, b, c)
        fixed = gauss24_integrals(a, b, c)
        for moments in (False, True):
            kinds = 4 if moments else 2
            scalar = _scalar_phase_integrals(a, b, c, tau_moments=moments)
            array = [float(v) for v in _phase_integrals(a, b, c, _rule(abs(a) + abs(b)), tau_moments=moments)]
            assert len(scalar) == len(array) == kinds
            for k in range(kinds):
                tol = STATED_BOUND[k] + ROUNDING
                for got in (scalar[k], array[k]):
                    assert abs(got - exact[k]) <= tol, (slope, k, got - exact[k])
                    assert abs(got - fixed[k]) <= tol, (slope, k, got - fixed[k])


def test_array_kernel_shares_one_grid_across_elements():
    # one grid, sized by the largest slope, serves every element: each
    # element stays within the bound of the finer grid
    a = np.array([0.3, -5.0, 40.0, 1e-3])
    b = np.array([-0.2, 2.0, -10.0, 0.0])
    x0, y0 = _phase_integrals(a, b, 0.7, _rule(float(np.max(np.abs(a) + np.abs(b)))))
    for k in range(len(a)):
        exact = quadpack_integrals(a[k], b[k], 0.7)
        assert abs(x0[k] - exact[0]) <= STATED_BOUND[0] + ROUNDING
        assert abs(y0[k] - exact[1]) <= STATED_BOUND[1] + ROUNDING


heading = st.floats(-1.4, 1.4)


@given(
    x=st.floats(-500.0, 500.0), y=st.floats(-500.0, 500.0), chord=st.floats(0.5, 300.0),
    direction=st.floats(-math.pi, math.pi), dev0=heading, dev1=heading,
)
def test_fit_length_reuses_the_root_projection(x, y, chord, direction, dev0, dev1):
    start = Pose(x, y, direction + dev0)
    end = Pose(x + chord * math.cos(direction), y + chord * math.sin(direction), direction + dev1)
    seg = fit_g1(start, end)

    dx, dy = end.x - start.x, end.y - start.y
    phi = math.atan2(dy, dx)
    phi0 = wrap_angle(start.theta - phi)
    phi1 = wrap_angle(end.theta - phi)
    delta = phi1 - phi0
    big_a, x0 = _solve_flattening(phi0, phi1)
    recomputed = _scalar_phase_integrals(2.0 * big_a, delta - big_a, phi0)[0]
    length = math.hypot(dx, dy) / recomputed
    assert x0 == recomputed
    assert seg.length == length
    # A is the one the segment was built from
    assert seg.kappa_rate == 2.0 * big_a / length**2
    assert seg.kappa0 == (delta - big_a) / length


@pytest.mark.parametrize("slope", [0.0, 1e-300, 0.5, 1.0])
def test_rule_takes_one_eight_node_panel_up_to_slope_one(slope):
    assert _rule(slope) is _grid(1, 8)


def test_rule_just_above_slope_one_takes_ten_nodes():
    tau, _, wts, nodes = _rule(np.nextafter(1.0, 2.0))
    assert tau.size == wts.size == len(nodes) == 10


def summed_phase_integrals(a, b, c, tau_moments):
    """The scalar kernel as one loop over the rule's nodes, with the moments
    summed under a flag."""
    x0 = y0 = x1 = x2 = 0.0
    for tau, tau2, w in _rule(abs(a) + abs(b))[3]:
        phase = 0.5 * a * tau2 + b * tau + c
        cw = math.cos(phase) * w
        x0 += cw
        y0 += math.sin(phase) * w
        if tau_moments:
            x1 += cw * tau
            x2 += cw * tau * tau
    return (x0, y0, x1, x2) if tau_moments else (x0, y0)


def test_scalar_kernel_keeps_its_bits():
    rng = np.random.default_rng(41)
    slope = 3.0 * rng.random(10_000)
    share = rng.random(10_000)
    a = slope * share * rng.choice((-1.0, 1.0), 10_000)
    b = slope * (1.0 - share) * rng.choice((-1.0, 1.0), 10_000)
    c = rng.uniform(-math.pi, math.pi, 10_000)
    for args in zip(a.tolist(), b.tolist(), c.tolist()):
        assert abs(args[0]) + abs(args[1]) <= 3.0
        for tau_moments in (False, True):
            got = np.array(_scalar_phase_integrals(*args, tau_moments=tau_moments))
            want = np.array(summed_phase_integrals(*args, tau_moments))
            assert got.tobytes() == want.tobytes()
