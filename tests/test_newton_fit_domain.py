"""The Newton solve of the G1 flattening equation over the whole input domain
(phi0, phi1) in (-pi, pi]^2: it either returns a verified no-loop root or
raises FitError, and raising is confined to the corner where both
ends point back along the chord with opposite signs."""

import math

import numpy as np
import pytest

from curvepath import clothoid
from curvepath.clothoid import (
    FIT_RESIDUAL_TOL,
    FitError,
    _no_loop,
    _scalar_phase_integrals,
    _solve_flattening,
)

from helpers import best_residual

# pi - 1e-9 rounds to a double 1.00000008e-9 below pi; it counts as 1e-9 away
NEAR_PI = 1.0000001e-9
EDGE_OFFSETS = (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1)


def grid_values():
    return np.linspace(-math.pi, math.pi, 182)[1:].tolist()


def edge_values():
    """0, +-pi/2 and +-pi, each offset by 1e-15 to 0.1, kept inside (-pi, pi]."""
    values = set()
    for base in (-math.pi, -0.5 * math.pi, 0.0, 0.5 * math.pi, math.pi):
        for offset in EDGE_OFFSETS:
            values.update(v for v in (base - offset, base + offset) if -math.pi < v <= math.pi)
    return sorted(values)


def in_reversed_corner(phi0, phi1):
    """Within 1e-9 rad of (pi, -pi) or (-pi, pi)."""
    return phi0 * phi1 < 0 and math.pi - abs(phi0) <= NEAR_PI and math.pi - abs(phi1) <= NEAR_PI


def solve_all(values):
    """Solve every pair of values, check each root, and return the pairs that raised."""
    raised = []
    for phi0 in values:
        for phi1 in values:
            delta = phi1 - phi0
            try:
                big_a, x0 = _solve_flattening(phi0, phi1)
            except FitError as exc:
                assert in_reversed_corner(phi0, phi1), (phi0, phi1)
                assert 0.0 <= best_residual(str(exc)) < math.inf
                raised.append((phi0, phi1))
                continue
            x, y = _scalar_phase_integrals(2.0 * big_a, delta - big_a, phi0)
            assert x == x0
            assert abs(y) < FIT_RESIDUAL_TOL
            assert x0 > 1e-9
            assert _no_loop(big_a, delta, phi0)
    return raised


def test_grid_over_the_domain_always_converges():
    assert solve_all(grid_values()) == []


def test_edges_raise_only_in_the_reversed_corner():
    # the edge set reaches into the corner, so the raising exit runs too
    assert solve_all(edge_values())


def test_zero_derivative_raises_convergence_error(monkeypatch):
    """A flat Jacobian ends the solve as a FitError naming the residual, not
    as a ZeroDivisionError."""
    monkeypatch.setattr(clothoid, "_scalar_phase_integrals", lambda *args, **kw: (1.0, 0.5, 0.25, 0.25))
    with pytest.raises(FitError) as info:
        _solve_flattening(0.1, -0.2)
    assert type(info.value) is FitError
    assert best_residual(str(info.value)) == 0.5
