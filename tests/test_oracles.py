"""The test oracles' own helpers: the rectangle-rule integral and the
residual norm of acceptance criterion 3's order study."""

import math

import numpy as np

from logbump.domain import Field, Grid
from oracles import integrate, interior_mesh, log_equation_residual_norm


def test_integrate_constant_and_linearity():
    grid = Grid(dim=2, r=2.0, n=41)
    ones = np.ones(grid.interior_shape)
    val = integrate(ones, grid)
    assert abs(val - 16.0) < 16.0 * 2.5 * grid.h  # boundary-row truncation O(h)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(grid.interior_shape)
    g = rng.standard_normal(grid.interior_shape)
    lhs = integrate(2.5 * f + 1.5 * g, grid)
    rhs = 2.5 * integrate(f, grid) + 1.5 * integrate(g, grid)
    assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_integrate_gausson_mass():
    grid = Grid(dim=1, r=8.0, n=1025)
    (x,) = interior_mesh(grid)
    u = Field(grid, np.exp(0.5 - x * x / 2.0))
    val = integrate(u.values**2, grid)
    assert abs(val - math.e * math.sqrt(math.pi)) < 1e-6


def test_order_study_negative_control():
    # a plain Gaussian is not a solution; its residual does not vanish
    norms = []
    for n in (257, 513, 1025):
        grid = Grid(dim=1, r=8.0, n=n)
        xs = grid.axis[1:-1]
        norms.append(log_equation_residual_norm(Field(grid, np.exp(-xs * xs))))
    assert min(norms) > 0.5
    assert norms[-1] > 0.9 * norms[0]
