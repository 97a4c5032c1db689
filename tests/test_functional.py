"""Energy, residual, local energies, and the Nehari machinery."""

import math

import numpy as np
import pytest

from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    grad_energy_density,
    integrate,
    masks,
)
from logbump.cli import csv_header, row_to_csv
from logbump.functional import (
    PenalizedFunctional,
    gausson_values,
    h1_distance,
    nehari_check,
)
from logbump.penalty import make_params, sq_log_sq
from logbump.solver import MINIMAX_M, SolveError, _LocalWell
from logbump.verify import SweepRow
from oracles import dirichlet_well_energy, penalized_well_energy, restricted_norm_sq

GAUSSON_HALF_MASS = 0.5 * math.e * math.sqrt(math.pi)
# the paper's growth exponent, p > 2, of the power bound on the nonlinearity
GROWTH = 3.0


@pytest.fixture(scope="module")
def setup():
    geometry = WellGeometry(
        dim=1,
        wells=(Box((-5.0,), (2.5,)), Box((5.0,), (2.5,))),
        enlargements=(Box((-5.0,), (3.5,)), Box((5.0,), (3.5,))),
    )
    grid = Grid(dim=1, r=12.0, n=481)
    return grid, geometry, PotentialSpec(geometry, cap=1.0), make_params()


@pytest.fixture(scope="module")
def wide():
    geometry = WellGeometry(
        dim=1,
        wells=(Box((0.0,), (8.0,)),),
        enlargements=(Box((0.0,), (9.0,)),),
    )
    grid = Grid(dim=1, r=12.0, n=1025)
    return grid, geometry, PotentialSpec(geometry, cap=1.0), make_params()


def smooth_random_field(grid, rng, scale=2.0, passes=40):
    vals = rng.standard_normal(grid.interior_shape)
    for _ in range(passes):
        pad = np.pad(vals, 1)
        if grid.dim == 1:
            vals = 0.25 * pad[:-2] + 0.5 * vals + 0.25 * pad[2:]
        else:
            vals = (
                0.5 * vals
                + 0.125 * (pad[:-2, 1:-1] + pad[2:, 1:-1])
                + 0.125 * (pad[1:-1, :-2] + pad[1:-1, 2:])
            )
    return Field(grid, vals * (scale / max(1e-12, np.abs(vals).max())))


def well_supported_field(grid, center, half, bump=1.2):
    # support kept two cells inside the well so every nonzero face of the
    # discrete gradient lies strictly within the well mask
    xs = grid.axis[1:-1]
    reach = half - 2.0 * grid.h
    prof = bump * np.exp(-((xs - center) ** 2)) * np.maximum(
        reach - np.abs(xs - center), 0.0
    )
    return Field(grid, prof)


# -- energy report ---------------------------------------------------------------


def test_phi_zero_field(setup):
    grid, geometry, pot, params = setup
    fun = PenalizedFunctional(grid, pot, params, (1, 2), 100.0)
    rep = fun.report(Field.zeros(grid))
    assert rep.total == 0.0
    assert rep.lambda_v_mass == rep.outside_norm_sq == 0.0
    assert rep.per_well == (0.0, 0.0)
    assert rep.sup_outside == 0.0


def test_phi_split_consistency(setup):
    # the report's total is the one energy evaluation, not a second sum
    grid, geometry, pot, params = setup
    fun = PenalizedFunctional(grid, pot, params, (1, 2), 100.0)
    for u in (well_supported_field(grid, -5.0, 2.5),
              smooth_random_field(grid, np.random.default_rng(4))):
        energy, res, _ = fun.evaluate(u.values)
        assert fun.report(u).total == fun.phi_total(u.values) == energy
        assert np.array_equal(fun.evaluate(u.values)[1], res)


def test_phi_pure_log_collapse_for_supported_fields(setup):
    grid, geometry, pot, params = setup
    u = well_supported_field(grid, -5.0, 2.5)
    rep = PenalizedFunctional(grid, pot, params, (1, 2), 100.0).report(u)
    hd = grid.h
    full = u.full()
    pure = 0.5 * hd * (
        float(np.sum(grad_energy_density(u))) + float(np.sum(full * full))
    ) - 0.5 * hd * float(np.sum(np.asarray(sq_log_sq(full))))
    assert abs(rep.total - pure) <= 1e-12 * (1.0 + abs(pure))


def test_phi_lambda_independence_on_wells(setup):
    grid, geometry, pot, params = setup
    u = well_supported_field(grid, 5.0, 2.5)
    t1 = PenalizedFunctional(grid, pot, params, (1, 2), 1.0).report(u).total
    t2 = PenalizedFunctional(grid, pot, params, (1, 2), 1e6).report(u).total
    assert abs(t1 - t2) <= 1e-12 * (1.0 + abs(t1))


def test_report_csv_roundtrip(setup):
    grid, geometry, pot, params = setup
    u = well_supported_field(grid, -5.0, 2.5)
    rep = PenalizedFunctional(grid, pot, params, (1, 2), 10.0).report(u)
    # the report's values as the pipeline writes them to energies.csv
    sweep_row = SweepRow(
        lam=10.0, gamma=(1, 2), converged=True, phi_total=rep.total,
        b_upper=0.0, c_gamma=0.0, lambda_v_mass=rep.lambda_v_mass,
        outside_norm_sq=rep.outside_norm_sq, sup_outside=rep.sup_outside,
        a0=params.a0, min_u=0.0, mass_frac=1.0, occupied=(1,),
        i_lambda=rep.per_well, c_dirichlet=(0.0, 0.0), c_lambda=(0.0, 0.0),
    )
    header = csv_header(2).split(",")
    cells = row_to_csv(sweep_row).split(",")
    assert len(header) == len(cells)
    row = dict(zip(header, cells))
    assert float(row["phi_total"]) == rep.total
    assert float(row["i_lambda_2"]) == rep.per_well[-1]


# -- residual ----------------------------------------------------------------------


def test_residual_zero_field(setup):
    grid, geometry, pot, params = setup
    fun = PenalizedFunctional(grid, pot, params, (1, 2), 50.0)
    assert np.abs(fun.evaluate(Field.zeros(grid).values)[1]).max() == 0.0


def test_residual_is_gradient_of_phi(setup):
    grid, geometry, pot, params = setup
    fun = PenalizedFunctional(grid, pot, params, (1, 2), 100.0)
    rng = np.random.default_rng(11)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        u = smooth_random_field(grid, rng)
        v = smooth_random_field(grid, rng)
        lhs = grid.h * float(np.dot(fun.evaluate(u.values)[1], v.values))
        rhs = (
            fun.phi_total(u.values + eps * v.values)
            - fun.phi_total(u.values - eps * v.values)
        ) / (2.0 * eps)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    assert worst < 1e-6


def test_jacobian_diagonal_matches_central_difference(setup):
    grid, geometry, pot, params = setup
    fun = PenalizedFunctional(grid, pot, params, (1,), 100.0)
    u = np.abs(smooth_random_field(grid, np.random.default_rng(5)).values)
    eps = 1e-6
    fd = (fun.nonlinear_rhs(u + eps) - fun.nonlinear_rhs(u - eps)) / (2.0 * eps)
    away = np.ones(u.shape, dtype=bool)
    for kink in (0.0, params.delta, params.a0):
        away &= np.abs(u - kink) > 1e-3
    assert 0 < np.sum(away & fun.chi_in) < np.sum(away)
    assert np.any(away & ~fun.chi_in & (u > params.a0))
    slope = fun.diag - fun.evaluate(u)[2]
    assert np.all(np.abs(fd - slope)[away] <= 1e-6 * (1.0 + np.abs(slope[away])))


def test_residual_gausson_second_order(wide):
    grid, geometry, pot, params = wide
    norms = []
    for n in (257, 513, 1025):
        g = Grid(dim=1, r=12.0, n=n)
        fun = PenalizedFunctional(g, pot, params, (1,), 7.3)
        u = Field(g, gausson_values(g))
        res = fun.evaluate(u.values)[1]
        msk = masks(geometry, g, (1,)).well[1:-1]
        norms.append(math.sqrt(g.h * float(np.sum(res[msk] ** 2))))
    for a, b in zip(norms, norms[1:]):
        assert 3.6 <= a / b <= 4.4


# -- local energies ----------------------------------------------------------------


def test_local_energies_zero(setup):
    grid, geometry, pot, params = setup
    z = Field.zeros(grid)
    assert dirichlet_well_energy(z, geometry, 1) == 0.0
    assert penalized_well_energy(z, pot, 1, 10.0) == 0.0


def test_local_energy_agreement_for_supported_fields(setup):
    grid, geometry, pot, params = setup
    u = well_supported_field(grid, -5.0, 2.5)
    i_dir = dirichlet_well_energy(u, geometry, 1)
    i_lam = penalized_well_energy(u, pot, 1, 123.0)
    assert abs(i_dir - i_lam) <= 1e-12 * (1.0 + abs(i_dir))


def test_gausson_well_energy(wide):
    grid, geometry, pot, params = wide
    m = masks(geometry, grid, (1,))
    vals = np.where(m.well[1:-1], gausson_values(grid), 0.0)
    u = Field(grid, vals)
    i_dir = dirichlet_well_energy(u, geometry, 1)
    assert abs(i_dir - GAUSSON_HALF_MASS) < 1e-3 * GAUSSON_HALF_MASS


# -- Nehari machinery -----------------------------------------------------------------


def nehari_scale(geometry, grid, vals):
    """The scale t of `_LocalWell.nehari_project` on well 1's nodes, for
    interior values vals supported on the well."""
    prob = _LocalWell.dirichlet(geometry.wells[0], grid)
    local = vals[tuple(slice(s.start - 1, s.stop - 1) for s in prob.nodes)]
    return float(np.max(prob.nehari_project(local)[0]) / np.max(local))


def test_nehari_project_gausson_and_scaling(wide):
    grid, geometry, pot, params = wide
    m = masks(geometry, grid, (1,))
    vals = np.where(m.well[1:-1], gausson_values(grid), 0.0)
    t = nehari_scale(geometry, grid, vals)
    assert abs(t - 1.0) < 1e-3  # the exact state is already critical
    for c in (0.5, 2.0):
        tc = nehari_scale(geometry, grid, c * vals)
        assert abs(tc * c - t) <= 1e-12 * t


def test_nehari_project_matches_bisection(wide):
    grid, geometry, pot, params = wide
    m = masks(geometry, grid, (1,))
    vals = np.where(
        m.well[1:-1], np.exp(-0.4 * grid.axis[1:-1] ** 2) * 1.7, 0.0
    )
    t_closed = nehari_scale(geometry, grid, vals)

    def ray_constraint(t):
        return nehari_check(Field(grid, t * vals), m.well).constraint

    lo, hi = 1e-3, 1e3
    assert ray_constraint(lo) > 0.0 > ray_constraint(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ray_constraint(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_bis = 0.5 * (lo + hi)
    assert abs(t_closed - t_bis) < 1e-8


def test_nehari_identity_after_projection(wide):
    grid, geometry, pot, params = wide
    m = masks(geometry, grid, (1,))
    vals = np.where(m.well[1:-1], np.exp(-0.7 * grid.axis[1:-1] ** 2), 0.0)
    t = nehari_scale(geometry, grid, vals)
    chk = nehari_check(Field(grid, t * vals), m.well)
    assert chk.identity_gap < 1e-8 * abs(chk.energy)
    # negative control: off the manifold the identity fails visibly
    bad = nehari_check(Field(grid, 0.1 * t * vals), m.well)
    assert bad.identity_gap > 1e-3 * abs(bad.energy)


def test_nehari_refuses_unsupported_and_zero(setup):
    grid, geometry, pot, params = setup
    m = masks(geometry, grid, (1,))
    leaky = Field(grid, np.ones(grid.interior_shape))
    with pytest.raises(ValueError, match="support"):
        nehari_check(leaky, m.well)
    prob = _LocalWell.dirichlet(geometry.wells[0], grid)
    with pytest.raises(SolveError, match="mass"):
        prob.nehari_project(np.zeros(prob.w.shape))


# -- structural identities ---------------------------------------------------------


def test_scaling_identity(setup):
    grid, geometry, pot, params = setup
    fun = PenalizedFunctional(grid, pot, params, (1, 2), 250.0)
    u = well_supported_field(grid, -5.0, 2.5)
    base = fun.phi_total(u.values)
    mass = integrate(u.values**2, grid)
    for s in (0.5, 1.0, 2.0):
        lhs = fun.phi_total(s * u.values)
        rhs = s * s * (base - math.log(s) * mass)
        assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(base))


def test_scaling_law_on_the_minimax_rays(setup):
    # the law `minimax_upper_bound` evaluates in closed form, at each point
    # t = s T of its grid: a nonnegative field in the selected enlargements,
    # with mass in well 1's ring where lambda V > 0, peaking above a0
    grid, geometry, pot, params = setup
    v = well_supported_field(grid, -7.5, 1.0).values
    mass = grid.h**grid.dim * float(np.sum(v * v))
    big_t = 2.0
    t_axis = big_t * np.linspace(1.0 / big_t**2, 1.0, MINIMAX_M)
    inside = PenalizedFunctional(grid, pot, params, (1, 2), 100.0)
    assert float(np.sum(inside.v_in * v * v)) > 0.0
    assert t_axis[0] * v.max() > params.a0
    base = inside.phi_total(v)
    direct = np.array([inside.phi_total(t * v) for t in t_axis])
    for t, lhs in zip(t_axis, direct):
        assert abs(lhs - t * t * (base - math.log(t) * mass)) <= 1e-12 * abs(lhs)
    assert np.all(np.abs(inside.ray_energies(v, t_axis) - direct)
                  <= 1e-12 * np.abs(direct))
    # outside the selected enlargements the energy matches up to t v = a0
    # and leaves the law beyond, where the truncation takes over
    outside = PenalizedFunctional(grid, pot, params, (2,), 100.0)
    small = params.a0 / v.max()
    low = outside.phi_total(small * v)
    assert abs(low - inside.phi_total(small * v)) <= 1e-12 * abs(low)
    for t in t_axis:
        r = t / small
        law = r * r * (low - math.log(r) * small * small * mass)
        lhs = outside.phi_total(t * v)
        assert abs(lhs - law) > 1e-3 * abs(lhs)
    with pytest.raises(ValueError, match="outside the selected enlargements"):
        outside.ray_energies(v, t_axis)


def test_mountain_pass_small_sphere(setup):
    grid, geometry, pot, params = setup
    fun = PenalizedFunctional(grid, pot, params, (1, 2), 10.0)
    rng = np.random.default_rng(23)
    full_mask = np.ones(grid.full_shape, dtype=bool)
    rho = 1e-3
    # fit the power-growth constant from sampled directions, then check the
    # lower bound it implies stays positive on the sphere
    c_fit = 0.0
    vals = []
    for _ in range(10):
        w = smooth_random_field(grid, rng)
        nrm = math.sqrt(restricted_norm_sq(w, full_mask, 10.0, pot))
        u = Field(grid, (rho / nrm) * w.values)
        val = fun.phi_total(u.values)
        vals.append(val)
        c_fit = max(c_fit, (0.5 * rho**2 - val) / rho**GROWTH)
    bound = 0.5 * rho**2 - c_fit * rho**GROWTH
    assert bound > 0.0
    assert all(v >= bound * (1.0 - 1e-9) for v in vals)
    assert all(v > 0.0 for v in vals)


def test_energy_unbounded_below_along_rays(setup):
    grid, geometry, pot, params = setup
    fun = PenalizedFunctional(grid, pot, params, (1, 2), 10.0)
    u = well_supported_field(grid, 5.0, 2.5)
    s = 1.0
    for _ in range(25):
        if fun.phi_total(s * u.values) < 0.0:
            break
        s *= 2.0
    assert fun.phi_total(s * u.values) < 0.0


def test_h1_distance_basics(setup):
    grid, geometry, pot, params = setup
    a = well_supported_field(grid, -5.0, 2.5)
    assert h1_distance(a, a) == 0.0
    b = well_supported_field(grid, 5.0, 2.5)
    d = h1_distance(a, b)
    assert d > 0.0
