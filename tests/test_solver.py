"""Solvers: local ground states, penalized solves, path machinery."""

import csv
import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import logbump.solver as solver_module
from logbump.cli import parse_config
from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    box_mask_full,
    MIN_MARGIN_CELLS,
    box_nodes,
    five_point_apply,
    masks,
    neg_laplacian,
    validate_geometry_on_grid,
)
from logbump.functional import BUMP_THRESHOLD, PenalizedFunctional
from logbump.penalty import U_FLOOR, PenalizationParams, make_params, s_log_sq, sq_log_sq
from logbump.solver import (
    PATH_T,
    BlockTridiagonalLDL,
    SolveError,
    SolverConfig,
    TridiagonalLDL,
    _LocalWell,
    conjugate_gradient,
    lambda_sweep,
    minimax_upper_bound,
    minres,
    solve_auxiliary,
    solve_neumann_well,
    solve_single_well,
    superpose,
)

from oracles import (
    first_coupled_pair,
    integrate,
    interior_mesh,
    level_start,
    local_jacobian_apply,
    multi_bump_init,
    nehari_check,
    padded_neg_laplacian,
    restricted_norm_sq,
    slice_five_point_apply,
    whole_box_negative_eigenvalues,
)

GAUSSON_HALF_MASS = 0.5 * math.e * math.sqrt(math.pi)
REPO_ROOT = Path(__file__).resolve().parents[1]


def _reference_phi_total(workload: str, gamma: str) -> dict[float, float]:
    """phi_total by lambda of one selection in a benchmark reference."""
    path = REPO_ROOT / "perfbench" / "reference" / workload / "energies.csv"
    with open(path, newline="") as fh:
        return {float(r["lambda"]): float(r["phi_total"])
                for r in csv.DictReader(fh) if r["gamma"] == gamma}


# -- conjugate gradient -------------------------------------------------------


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((30, 30))
    a = m @ m.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    x, iters = conjugate_gradient(lambda v: a @ v, b, np.zeros(30), 1e-13, 500,
                                  diag=np.diag(a))
    assert iters <= 60
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)


def test_cg_zero_rhs():
    x, iters = conjugate_gradient(lambda v: 2.0 * v, np.zeros(5), np.ones(5),
                                  1e-12, 50)
    assert iters == 0 and np.abs(x).max() == 0.0


def test_cg_breakdown_on_indefinite():
    a = np.diag([1.0, -1.0, 2.0])
    b = np.array([1.0, 1.0, 1.0])
    with pytest.raises(SolveError, match="SPD"):
        conjugate_gradient(lambda v: a @ v, b, np.zeros(3), 1e-12, 100)


def test_cg_iteration_budget():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((40, 40))
    a = m @ m.T + 1e-4 * np.eye(40)  # badly conditioned
    b = rng.standard_normal(40)
    with pytest.raises(SolveError, match="converge"):
        conjugate_gradient(lambda v: a @ v, b, np.zeros(40), 1e-14, 2)


def _five_point_dense(jd, h):
    """Dense -lap_h + diag(jd) on a 2D node array, one stencil column per node."""
    cols = [padded_neg_laplacian(e.reshape(jd.shape), h).ravel()
            for e in np.eye(jd.size)]
    return np.column_stack(cols) + np.diag(jd.ravel())


def _indefinite_five_point(rng, shape, negatives):
    """A diagonal jd whose -lap + diag(jd), h = 1, has `negatives` negative
    eigenvalues, and that dense matrix."""
    jd = rng.random(shape)
    ev = np.linalg.eigvalsh(_five_point_dense(jd, 1.0))
    jd -= 0.5 * (ev[negatives - 1] + ev[negatives])
    return jd, _five_point_dense(jd, 1.0)


def _diagonal(minv):
    """The diagonal preconditioner r -> minv * r, as a 2D step builds it
    when no well box covers a node."""
    return solver_module._block_preconditioner(minv, ())


def test_minres_matches_dense_indefinite_solve():
    rng = np.random.default_rng(9)
    jd, dense = _indefinite_five_point(rng, (6, 7), 2)
    assert int(np.sum(np.linalg.eigvalsh(dense) < 0.0)) == 2
    b = rng.standard_normal(jd.shape)
    x, iters = minres(lambda v: (dense @ v.ravel()).reshape(v.shape), b,
                      _diagonal(1.0 / np.abs(4.0 + jd)), 1e-13, 500)
    want = np.linalg.solve(dense, b.ravel()).reshape(b.shape)
    assert 0 < iters <= 100
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_minres_zero_rhs_and_failures():
    rng = np.random.default_rng(10)
    jd, dense = _indefinite_five_point(rng, (6, 7), 2)

    def apply_a(v):
        return (dense @ v.ravel()).reshape(v.shape)

    prec = _diagonal(1.0 / np.abs(4.0 + jd))
    x, iters = minres(apply_a, np.zeros(jd.shape), prec, 1e-12, 50)
    assert iters == 0 and np.abs(x).max() == 0.0
    bad = np.ones(jd.shape)
    bad[2, 3] = math.nan
    with pytest.raises(SolveError, match="non-finite"):
        minres(apply_a, bad, prec, 1e-12, 50)
    with pytest.raises(SolveError, match="did not converge in 3 iterations"):
        minres(apply_a, rng.standard_normal(jd.shape), prec, 1e-12, 3)


def test_minres_reads_b_and_minv_only_and_allows_a_reused_buffer():
    rng = np.random.default_rng(11)
    jd, dense = _indefinite_five_point(rng, (6, 7), 2)
    b = rng.standard_normal(jd.shape)
    minv = 1.0 / np.abs(4.0 + jd)
    b0, minv0 = b.copy(), minv.copy()
    out = np.empty_like(b)

    def apply_a(v):
        out[...] = (dense @ v.ravel()).reshape(v.shape)
        return out

    # the preconditioner reuses one buffer too, and minres never writes it
    x, _ = minres(apply_a, b, _diagonal(minv), 1e-13, 500)
    assert np.array_equal(b, b0) and np.array_equal(minv, minv0)
    assert not np.shares_memory(x, b)
    y, _ = minres(lambda v: (dense @ v.ravel()).reshape(v.shape), b,
                  lambda r: minv * r, 1e-13, 500)
    assert np.array_equal(x, y)
    # nor the vector it hands the preconditioner, which may return it
    ones = np.ones_like(b)
    z, _ = minres(lambda v: (dense @ v.ravel()).reshape(v.shape), b,
                  lambda r: r, 1e-13, 500)
    w, _ = minres(lambda v: (dense @ v.ravel()).reshape(v.shape), b,
                  lambda r: ones * r, 1e-13, 500)
    assert np.array_equal(z, w) and np.array_equal(b, b0)


def test_minres_loose_tolerance_bounds_the_true_residual():
    # the recurrence's residual norm phibar is the true preconditioned
    # residual up to rounding, so a loose stop is an honest one
    rng = np.random.default_rng(13)
    jd, dense = _indefinite_five_point(rng, (6, 7), 2)
    b = rng.standard_normal(jd.shape)
    minv = 1.0 / np.abs(4.0 + jd)
    tol = 1e-3
    x, iters = minres(lambda v: (dense @ v.ravel()).reshape(v.shape), b,
                      _diagonal(minv), tol, 500)
    r = b - (dense @ x.ravel()).reshape(b.shape)
    assert iters > 0
    assert math.sqrt(np.vdot(r, minv * r)) <= (1.0 + 1e-8) * tol * math.sqrt(
        np.vdot(b, minv * b))


@pytest.mark.parametrize("bad, detail", [
    (math.inf, "non-finite preconditioner"),
    (math.nan, "non-finite preconditioner"),
    (0.0, "preconditioner not positive"),
])
def test_minres_rejects_a_bad_preconditioner_at_once(bad, detail):
    calls = []

    def apply_a(v):
        calls.append(1)
        return 2.0 * v

    # the 2D step's diagonal part is checked as the preconditioner is built
    minv = np.ones(50)
    minv[3] = bad
    with pytest.raises(SolveError, match=f"MINRES breakdown: {detail}"):
        minres(apply_a, np.ones(50), _diagonal(minv), 1e-12, 2000)
    assert calls == []


@pytest.mark.parametrize("prec, detail", [
    (lambda r: -r, "preconditioner not positive"),
    (lambda r: np.where(np.arange(r.size) == 3, math.inf, r),
     "non-finite preconditioner"),
], ids=["negative", "inf"])
def test_minres_rejects_a_bad_preconditioner_callable_at_once(prec, detail):
    # minres checks b . M^-1 b itself, before its first operator apply
    calls = []

    def apply_a(v):
        calls.append(1)
        return 2.0 * v

    with pytest.raises(SolveError, match=f"MINRES breakdown: {detail}"):
        minres(apply_a, np.ones(50), prec, 1e-12, 2000)
    assert calls == []


def test_minres_rejects_an_indefinite_preconditioner_within_the_recurrence():
    # an M^-1 positive on b but not on a later Lanczos vector: r . M^-1 r < 0
    # raises instead of reaching math.sqrt
    dense = np.diag([1.0, 2.0, 3.0, 4.0])
    minv = np.array([1.0, 1.0, -0.5, -0.5])
    with pytest.raises(SolveError, match="MINRES breakdown: preconditioner not positive"):
        minres(lambda v: dense @ v, np.ones(4), lambda r: minv * r, 1e-12, 50)


def test_minres_stops_on_a_non_finite_lanczos_scalar():
    calls = []

    def apply_a(v):
        calls.append(1)
        out = 2.0 * v
        out[3] = math.nan
        return out

    with pytest.raises(SolveError, match="MINRES breakdown: non-finite Lanczos"):
        minres(apply_a, np.ones(50), _diagonal(np.ones(50)), 1e-12, 2000)
    assert len(calls) == 1


def test_five_point_apply_matches_the_stencil():
    rng = np.random.default_rng(14)
    h = 0.3
    jd = rng.standard_normal((9, 11))
    c = -1.0 / h**2
    apply = five_point_apply(4.0 / h**2 + jd, (c, c))
    for _ in range(2):  # the second call reuses the first one's buffer
        x = rng.standard_normal(jd.shape)
        want = padded_neg_laplacian(x, h) + jd * x
        assert np.abs(apply(x) - want).max() <= 1e-13 * np.abs(want).max()


def _face_shapes(shape):
    return [shape[:ax] + (shape[ax] - 1,) + shape[ax + 1:] for ax in range(len(shape))]


@pytest.mark.parametrize("couplings", ["scalar", "array"])
@pytest.mark.parametrize("shape", [(40,), (12, 12), (9, 11), (35, 19)])
def test_five_point_apply_is_the_slice_stencil_bit_for_bit(shape, couplings):
    # the flat-face kernel does the slice stencil's float operations in its
    # order, so every bit agrees, signed zeros included: the zero columns
    # at the row ends make -0.0 sums where d < 0, since the couplings are
    # negative, and a +0.0 wrap product would turn them into +0.0
    rng = np.random.default_rng(len(shape) + shape[-1])
    d = rng.standard_normal(shape)
    if couplings == "scalar":
        off = (-3.5,) * len(shape)
    else:
        off = tuple(-0.5 - rng.random(face) for face in _face_shapes(shape))
    apply = five_point_apply(d, off)
    want = slice_five_point_apply(d, off)
    for _ in range(2):  # the second call reuses the first one's buffers
        x = rng.standard_normal(shape)
        x[..., :2] = x[..., -2:] = 0.0
        got = apply(x)
        ref = want(x)
        assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()
    assert np.any(np.signbit(ref) & (ref == 0.0))


def test_five_point_apply_checks_the_coupling_shapes():
    d = np.ones((9, 11))
    off0, off1 = (np.ones(face) for face in _face_shapes(d.shape))
    five_point_apply(d, (off0, off1))
    with pytest.raises(ValueError, match=r"axis 0 has shape \(9, 10\), expected \(8, 11\)"):
        five_point_apply(d, (off1, off1))
    with pytest.raises(ValueError, match=r"axis 1 has shape \(8, 11\), expected \(9, 10\)"):
        five_point_apply(d, (off0, off0))
    with pytest.raises(ValueError, match="axis 0"):
        five_point_apply(np.ones(9), (np.ones(9),))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)


# -- single well ----------------------------------------------------------------


def test_wide_well_ground_state(wide_well):
    geometry, grid, rec = wide_well
    assert rec.converged
    assert 0.999 * GAUSSON_HALF_MASS <= rec.energy <= 1.05 * GAUSSON_HALF_MASS
    # positivity and interior positivity
    assert rec.field.values.min() >= 0.0
    assert rec.field.values.max() > 1.0
    # Nehari identity at the stated solver tolerance
    m = masks(geometry, grid, (1,))
    chk = nehari_check(rec.field, m.well)
    assert chk.identity_gap <= 1e-6 * abs(chk.energy)


def test_wide_well_symmetry(wide_well):
    geometry, grid, rec = wide_well
    v = rec.field.values
    assert np.abs(v - v[::-1]).max() < 1e-6


def test_single_well_energy_descent(wide_well):
    _, _, rec = wide_well
    e = np.array(rec.energies)
    assert np.all(np.diff(e) <= 1e-12 * (1.0 + np.abs(e[:-1])))


def test_single_well_residual_history(wide_well):
    _, _, rec = wide_well
    r = np.array(rec.residuals)
    assert rec.residuals[-1] <= 1e-6
    burn = max(1, len(r) // 4)
    tail = r[burn:]
    assert np.all(tail[1:] <= tail[:-1] * 1.05)


def test_narrow_well_level_above_wide(ref, ref_wells):
    narrow_geom = WellGeometry(
        dim=1,
        wells=(Box((-5.0,), (1.0,)), Box((5.0,), (2.5,))),
        enlargements=(Box((-5.0,), (2.0,)), Box((5.0,), (3.5,))),
    )
    rec_narrow = solve_single_well(narrow_geom, 1, ref.grid, ref.solver)
    assert rec_narrow.converged
    assert rec_narrow.energy > ref_wells[0].energy


def test_single_well_determinism(ref):
    a = solve_single_well(ref.geometry, 1, ref.grid, ref.solver)
    b = solve_single_well(ref.geometry, 1, ref.grid, ref.solver)
    assert np.array_equal(a.field.values, b.field.values)


def test_single_well_rejects_bad_input(ref):
    with pytest.raises(ValueError, match="out of range"):
        solve_single_well(ref.geometry, 3, ref.grid, ref.solver)
    coarse = Grid(dim=1, r=12.0, n=41)
    with pytest.raises(ValueError, match="32"):
        solve_single_well(ref.geometry, 1, coarse, ref.solver)


def test_single_well_2d():
    geometry = WellGeometry(
        dim=2,
        wells=(Box((0.0, 0.0), (3.0, 3.0)),),
        enlargements=(Box((0.0, 0.0), (4.0, 4.0)),),
    )
    grid = Grid(dim=2, r=6.0, n=97)
    rec = solve_single_well(geometry, 1, grid, SolverConfig())
    assert rec.converged
    # 2d whole-space level is e^2 sqrt(pi)^2 / 2; the well truncates it above
    level = 0.5 * math.e**2 * math.pi
    assert 0.99 * level <= rec.energy <= 1.1 * level


def test_auxiliary_2d_twin_wells():
    geometry = WellGeometry(
        dim=2,
        wells=(Box((-3.0, 0.0), (2.0, 2.0)), Box((3.0, 0.0), (2.0, 2.0))),
        enlargements=(Box((-3.0, 0.0), (2.6, 2.6)), Box((3.0, 0.0), (2.6, 2.6))),
    )
    from logbump.domain import PotentialSpec

    potential = PotentialSpec(geometry, cap=1.0, power=1.0)
    grid = Grid(dim=2, r=7.0, n=127)
    config = SolverConfig()
    params = __import__("logbump.penalty", fromlist=["make_params"]).make_params()
    w = solve_single_well(geometry, 1, grid, config)
    assert w.converged
    mirrored = Field(grid, w.field.values[::-1, :])
    init = multi_bump_init([w.field, mirrored], [0.5, 0.5], 2.0)
    rec = solve_auxiliary(1e4, (1, 2), init, grid, potential, params, config)
    assert rec.converged
    assert rec.bump_mask == (1, 2)
    assert rec.field.values.min() >= 0.0
    nr = solve_neumann_well(1e4, 1, grid, potential, config)
    assert nr.converged
    assert nr.energy <= w.energy + 1e-6


# -- auxiliary problem -------------------------------------------------------------


def test_auxiliary_zero_init_stays_zero(ref):
    rec = solve_auxiliary(
        1e4, (1, 2), Field.zeros(ref.grid), ref.grid, ref.potential,
        ref.params, ref.solver
    )
    assert rec.converged
    assert np.abs(rec.field.values).max() == 0.0
    assert rec.bump_mask == ()


def test_auxiliary_rejects_negative_init(ref):
    bad = Field(ref.grid, -np.ones(ref.grid.interior_shape))
    with pytest.raises(ValueError, match="nonnegative"):
        solve_auxiliary(1e4, (1, 2), bad, ref.grid, ref.potential, ref.params,
                        ref.solver)


def test_auxiliary_determinism(ref, ref_wells, ref_big_t):
    init = multi_bump_init([r.field for r in ref_wells],
                           [1.0 / ref_big_t] * 2, ref_big_t)
    a = solve_auxiliary(1e4, (1, 2), init, ref.grid, ref.potential, ref.params,
                        ref.solver)
    b = solve_auxiliary(1e4, (1, 2), init, ref.grid, ref.potential, ref.params,
                        ref.solver)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.iterations == b.iterations
    assert a.residuals == b.residuals


def test_auxiliary_converged_fixed_point(ref, ref_sweep):
    last = ref_sweep[-1]
    one_step = SolverConfig(tol=ref.solver.tol, max_iters=1)
    again = solve_auxiliary(last.lam, (1, 2), last.field, ref.grid,
                            ref.potential, ref.params, one_step)
    move = np.linalg.norm(again.field.values - last.field.values)
    move /= np.linalg.norm(last.field.values)
    assert move < ref.solver.tol


def test_auxiliary_energy_descent_and_residual_tail(ref_sweep):
    for st in ref_sweep:
        e = np.array(st.energies)
        assert np.all(np.diff(e) <= 1e-8 * (1.0 + np.abs(e[:-1])))
        r = np.array(st.residuals)
        burn = max(1, len(r) // 4)
        tail = r[burn:]
        assert np.all(tail[1:] <= tail[:-1] * 1.10)


def test_auxiliary_positivity_and_bumps(ref_sweep):
    for st in ref_sweep:
        assert st.field.values.min() >= 0.0
        assert st.bump_mask == (1, 2)


def test_auxiliary_bump_fidelity_at_large_lambda(ref, ref_sweep):
    last = ref_sweep[-1]
    m = masks(ref.geometry, ref.grid, (1, 2))
    full = last.field.full()
    frac = float(np.sum((full * full)[m.enlarged]) / np.sum(full * full))
    assert frac >= 0.99


def test_auxiliary_norm_stays_bounded(ref, ref_wells, ref_big_t):
    init = multi_bump_init([r.field for r in ref_wells],
                           [1.0 / ref_big_t] * 2, ref_big_t)
    full_mask = np.ones(ref.grid.full_shape, dtype=bool)
    segment = SolverConfig(tol=1e-30, max_iters=10)
    u = init
    norms = [math.sqrt(restricted_norm_sq(u, full_mask, 1e4, ref.potential))]
    for _ in range(8):
        u = solve_auxiliary(1e4, (1, 2), u, ref.grid, ref.potential,
                            ref.params, segment).field
        norms.append(
            math.sqrt(restricted_norm_sq(u, full_mask, 1e4, ref.potential))
        )
    assert max(norms) < 10.0 * norms[0]


# -- bump path machinery -------------------------------------------------------------


def test_multi_bump_init_identities(ref, ref_wells, ref_big_t):
    w = [r.field for r in ref_wells]
    big_t = ref_big_t
    # (1/T) * T == 1.0 for a power of two T, so the path's start is the
    # plain sum of the ground states that `run` starts each sweep from
    for t in (big_t, 2.0 * big_t, 1024.0):
        start = multi_bump_init(w, [1.0 / t] * 2, t)
        assert np.array_equal(start.values, sum(x.values for x in w))
    single = multi_bump_init([w[0]], [0.37], big_t)
    assert np.abs(single.values - 0.37 * big_t * w[0].values).max() == 0.0
    scales = (0.4, 0.9)
    combo = multi_bump_init(w, scales, big_t)
    mass = integrate(combo.values**2, ref.grid)
    expected = sum(
        (s * big_t) ** 2 * integrate(x.values**2, ref.grid)
        for s, x in zip(scales, w)
    )
    assert abs(mass - expected) <= 1e-12 * expected


def _energy_and_mass(x: Field) -> tuple[float, float]:
    """The pure logarithmic energy E of x and its mass M = int x^2, from the
    oracle's integrals over the whole box."""
    chk = nehari_check(x, np.ones(x.grid.full_shape, dtype=bool))
    return chk.energy, 2.0 * chk.half_mass


def _wells_energy_and_mass(wells, grid):
    """Each ground state's energy and its mass, the inputs of
    `minimax_upper_bound`."""
    return ([r.energy for r in wells],
            [integrate(r.field.values**2, grid) for r in wells])


def test_path_t_meets_the_sign_conditions(ref, ref_wells):
    assert PATH_T == 2.0
    grid = ref.grid
    everywhere = np.ones(grid.full_shape, dtype=bool)

    def ray(x, t):
        # I'(t x)(t x) in closed form from E and M; the direct sum along
        # the ray agrees
        e, m = _energy_and_mass(x)
        value = t * t * (2.0 * e - m - math.log(t * t) * m)
        direct = nehari_check(Field(grid, t * x.values), everywhere).constraint
        assert abs(value - direct) <= 1e-10 * max(1.0, abs(direct))
        return value

    for r in ref_wells:
        assert ray(r.field, 1.0 / PATH_T) > 0.0 > ray(r.field, PATH_T)


def test_minimax_single_well_recovers_level(ref, ref_wells, ref_big_t,
                                            monkeypatch):
    monkeypatch.setattr(solver_module, "MINIMAX_M", 65)
    b = minimax_upper_bound(*_wells_energy_and_mass(ref_wells[:1], ref.grid),
                            ref_big_t)
    c1 = ref_wells[0].energy
    assert abs(b - c1) < 5e-3 * c1


def test_minimax_twin_separability(ref, ref_wells, ref_big_t, monkeypatch):
    monkeypatch.setattr(solver_module, "MINIMAX_M", 17)
    b = minimax_upper_bound(*_wells_energy_and_mass(ref_wells, ref.grid),
                            ref_big_t)
    c_gamma = sum(r.energy for r in ref_wells)
    assert abs(b - c_gamma) < 0.02 * c_gamma
    assert type(b) is float


def _product_scan_bound(lam, gamma, omegas, big_t, grid, potential, params):
    """Reference bound: the energy at every point of the m^l surface grid,
    m = solver.MINIMAX_M."""
    fun = PenalizedFunctional(grid, potential, params, gamma, lam)
    s_axis = np.linspace(1.0 / (big_t * big_t), 1.0, solver_module.MINIMAX_M)
    best = -math.inf
    for combo in itertools.product(s_axis, repeat=len(omegas)):
        vals = np.zeros(grid.interior_shape)
        for s, w in zip(combo, omegas):
            vals = vals + (s * big_t) * w.values
        best = max(best, fun.phi_total(vals))
    return best


@pytest.mark.parametrize("gamma", [(1,), (1, 2)])
def test_minimax_matches_product_scan(ref, ref_wells, ref_big_t, gamma,
                                     monkeypatch):
    # one bound from the wells' energies and masses matches the scan of
    # the penalized energy at every lambda: the wells hold V = 0
    monkeypatch.setattr(solver_module, "MINIMAX_M", 17)
    wells = [ref_wells[j - 1] for j in gamma]
    bound = minimax_upper_bound(*_wells_energy_and_mass(wells, ref.grid), ref_big_t)
    for lam in (10.0, 1e4):
        expected = _product_scan_bound(lam, gamma, [r.field for r in wells],
                                       ref_big_t, ref.grid, ref.potential,
                                       ref.params)
        assert abs(bound - expected) <= 1e-12 * abs(expected), lam


def _twin_geometry(dim: int, shift: float, margin: float) -> WellGeometry:
    """Two wells, each `margin` inside its enlargement, whose enlargements
    lie 2^-20 apart along axis 0, moved by `shift` along it.  With dyadic
    inputs every coordinate and margin is exact."""
    half = 2.25 + margin
    wells, enlargements = [], []
    for c in (-half - 2.0**-21, half + 2.0**-21):
        center = (c + shift,) + (0.0,) * (dim - 1)
        enlargements.append(Box(center, (half,) * dim))
        wells.append(Box(center, (2.25,) * dim))
    return WellGeometry(dim, tuple(wells), tuple(enlargements))


@pytest.mark.parametrize("shift", [0.0, 0.046875, 0.0625])
@pytest.mark.parametrize("dim", [1, 2])
def test_validated_wells_are_stencil_separated(dim, shift):
    # the additivity `minimax_upper_bound` relies on: at the closest
    # geometry validation accepts (margins of exactly MIN_MARGIN_CELLS
    # cells, enlargements a sliver apart), no stencil couples two wells
    grid = Grid(dim=dim, r=8.0, n=129)
    limit = MIN_MARGIN_CELLS * grid.h
    geometry = _twin_geometry(dim, shift, limit)
    assert 0.0 < geometry.enlargements[1].lo[0] - geometry.enlargements[0].hi[0] <= 2.0**-20
    for w, e in zip(geometry.wells, geometry.enlargements):
        assert w.lo[0] - e.lo[0] == e.hi[0] - w.hi[0] == limit
    validate_geometry_on_grid(geometry, grid)
    wells = [box_nodes(w, grid) for w in geometry.wells]
    assert all(s.stop > s.start for nodes in wells for s in nodes)
    assert not solver_module._stencil_coupled(*wells)
    # a sliver less margin is refused
    with pytest.raises(ValueError, match="margin below"):
        validate_geometry_on_grid(_twin_geometry(dim, shift, limit - 2.0**-20), grid)


# -- sweep ------------------------------------------------------------------------------


def test_a_shuffled_ladder_gives_each_lambda_its_solve(ref, ref_wells, ref_levels,
                                                       ref_big_t, ref_sweep):
    # after the first lambda no solve reads another's field, so the ladder
    # 10, 1e4, 1e3, 100 gives each lambda the sorted ladder's record
    init = multi_bump_init([r.field for r in ref_wells],
                           [1.0 / ref_big_t] * 2, ref_big_t)
    ladder = [10.0, 1e4, 1e3, 100.0]
    shuffled = lambda_sweep(ladder, (1, 2), init, ref.grid, ref.potential,
                            ref.params, ref.solver, ref_levels)
    assert [rec.lam for rec in shuffled] == ladder
    assert [rec.lam for rec in ref_sweep] == sorted(ladder)
    by_lam = {rec.lam: rec for rec in shuffled}
    assert all(_same_solve(by_lam[rec.lam], rec) for rec in ref_sweep)


def test_sweep_single_lambda_matches_direct(ref, ref_wells, ref_big_t):
    init = multi_bump_init([r.field for r in ref_wells],
                           [1.0 / ref_big_t] * 2, ref_big_t)
    sweep = lambda_sweep([1e4], (1, 2), init, ref.grid, ref.potential,
                         ref.params, ref.solver, {})
    direct = solve_auxiliary(1e4, (1, 2), init, ref.grid, ref.potential,
                             ref.params, ref.solver)
    assert np.array_equal(sweep[0].field.values, direct.field.values)


def _same_solve(a, b) -> bool:
    """Whether two sweep records hold the same field and the same
    histories, stop, counters and report, bit for bit."""
    rest = {"field": None}
    return (np.array_equal(a.field.values, b.field.values)
            and vars(a) | rest == vars(b) | rest)


def test_sweep_starts_later_lambdas_from_the_level_fields(ref, ref_wells, ref_levels):
    # the first lambda starts from init, each later one from the sum of the
    # selection's level fields at that lambda
    init = Field(ref.grid, sum(w.field.values for w in ref_wells))
    records = lambda_sweep(ref.config.lambdas, (1, 2), init, ref.grid, ref.potential,
                           ref.params, ref.solver, ref_levels)
    starts = [init] + [level_start([ref_levels[(lam, j)] for j in (1, 2)], ref.grid)
                       for lam in ref.config.lambdas[1:]]
    for lam, start, rec in zip(ref.config.lambdas, starts, records, strict=True):
        direct = solve_auxiliary(lam, (1, 2), start, ref.grid, ref.potential,
                                 ref.params, ref.solver)
        assert _same_solve(rec, direct)


@pytest.mark.parametrize("flaw", [{"stop_reason": "iteration cap"}, {"morse_index": 2.0},
                                  {"morse_index": math.nan}],
                         ids=["unconverged", "saddle", "uncounted"])
def test_a_failed_level_leaves_its_lambda_to_init(ref, ref_wells, ref_levels, ref_sweep,
                                                  flaw):
    # well 2's level at lambda = 100 failed: the sweep solve of gamma 1+2
    # there starts from init, as the first lambda does, and every other
    # lambda keeps its solve; gamma 1 does not read well 2's level
    lambdas = ref.config.lambdas
    levels = dict(ref_levels)
    levels[(100.0, 2)] = replace(ref_levels[(100.0, 2)], **flaw)
    init = Field(ref.grid, sum(w.field.values for w in ref_wells))
    seeded = lambda_sweep(lambdas, (1, 2), init, ref.grid, ref.potential, ref.params,
                          ref.solver, levels)
    assert lambdas[1] == 100.0
    assert _same_solve(seeded[1], solve_auxiliary(100.0, (1, 2), init, ref.grid,
                                                  ref.potential, ref.params, ref.solver))
    assert not _same_solve(seeded[1], ref_sweep[1])
    assert all(_same_solve(a, b) for i, (a, b) in enumerate(zip(seeded, ref_sweep,
                                                                 strict=True)) if i != 1)
    one = partial(lambda_sweep, lambdas, (1,), ref_wells[0].field, ref.grid,
                  ref.potential, ref.params, ref.solver)
    assert all(_same_solve(a, b) for a, b in zip(one(levels), one(ref_levels)))


def test_a_broken_solve_starts_no_later_lambda(ref, ref_wells, ref_levels, monkeypatch):
    # the lambda = 10 solve breaks down at its second step, and well 2's
    # level at lambda = 100 failed: the lambda = 100 solve starts from init,
    # not from the broken solve's field
    init = Field(ref.grid, sum(w.field.values for w in ref_wells))
    levels = dict(ref_levels)
    levels[(100.0, 2)] = replace(ref_levels[(100.0, 2)], stop_reason="iteration cap")
    evaluate, calls = PenalizedFunctional.evaluate, []

    def breaks(self, values):
        if self.lam == 10.0:
            calls.append(1)
            if len(calls) == 3:
                raise SolveError("injected")
        return evaluate(self, values)

    monkeypatch.setattr(PenalizedFunctional, "evaluate", breaks)
    broken, rec = lambda_sweep([10.0, 100.0], (1, 2), init, ref.grid, ref.potential,
                               ref.params, ref.solver, levels)
    monkeypatch.undo()
    assert broken.stop == "breakdown (injected)" and broken.iterations == 2
    assert not np.array_equal(broken.field.values, init.values)
    assert _same_solve(rec, solve_auxiliary(100.0, (1, 2), init, ref.grid, ref.potential,
                                            ref.params, ref.solver))


def _bits(field: Field) -> bytes:
    return field.values.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_superpose_is_the_level_start(dim, ref_wells, ref_levels, twin_2d):
    # the two ground states, then the two levels at each lambda, each alone
    # and summed, as the oracle places them; a record's field is its
    # superposition alone
    local = list(ref_wells) + list(ref_levels.values()) if dim == 1 else twin_2d[2]
    grid = local[0].grid
    assert grid.dim == dim
    for recs in (local[i:i + 2] for i in range(0, len(local), 2)):
        assert _bits(superpose(recs, grid)) == _bits(level_start(recs, grid))
        for rec in recs:
            assert rec.grid == grid
            assert _bits(superpose([rec], grid)) == _bits(level_start([rec], grid))
            assert _bits(rec.field) == _bits(superpose([rec], grid))


def test_sweep_builds_one_functional_per_solve(ref, ref_wells, ref_big_t, ref_levels,
                                               monkeypatch):
    # each solve's report comes from the functional its Newton loop used
    built = []
    init_fun = PenalizedFunctional.__init__

    def counted(self, *args):
        built.append(args[-1])
        init_fun(self, *args)

    monkeypatch.setattr(PenalizedFunctional, "__init__", counted)
    init = multi_bump_init([r.field for r in ref_wells],
                           [1.0 / ref_big_t] * 2, ref_big_t)
    lambda_sweep(ref.config.lambdas, (1, 2), init, ref.grid, ref.potential,
                 ref.params, ref.solver, ref_levels)
    assert built == list(ref.config.lambdas)


def test_sweep_report_total_is_the_field_energy(ref, ref_sweep):
    for rec in ref_sweep:
        fun = PenalizedFunctional(ref.grid, ref.potential, ref.params, (1, 2), rec.lam)
        assert rec.report.total == rec.energy == fun.phi_total(rec.field.values)


def test_sweep_localization_diagnostics(ref_sweep):
    lv = [st.report.lambda_v_mass for st in ref_sweep]
    on = [st.report.outside_norm_sq for st in ref_sweep]
    for seq in (lv, on):
        tail = seq[-3:]
        assert all(b <= a * 1.05 for a, b in zip(tail, tail[1:]))
    # energies settle along the tail
    phis = [st.report.total for st in ref_sweep]
    assert abs(phis[-1] - phis[-2]) / abs(phis[-1]) < 5e-3


# -- enlarged-well levels -----------------------------------------------------------------


def test_neumann_levels_monotone_in_lambda(ref):
    levels = [
        solve_neumann_well(lam, 1, ref.grid, ref.potential, ref.solver)
        for lam in (10.0, 100.0, 1000.0)
    ]
    assert all(rec.converged for rec in levels)
    assert all(rec.stop_reason == "converged" for rec in levels)
    vals = [rec.energy for rec in levels]
    assert vals[0] < vals[1] < vals[2]


def test_neumann_level_below_dirichlet(ref, ref_wells):
    rec = solve_neumann_well(1e4, 1, ref.grid, ref.potential, ref.solver)
    assert rec.converged
    assert rec.energy <= ref_wells[0].energy + 1e-6


def test_neumann_well_too_coarse_is_invalid_input():
    # the closed enlargement holds one node of a grid that validation refuses
    geometry = WellGeometry(dim=1, wells=(Box((0.0,), (0.5,)),),
                            enlargements=(Box((0.0,), (1.0,)),))
    grid = Grid(dim=1, r=12.0, n=5)
    with pytest.raises(ValueError, match="^enlarged well 1 too coarse for a Neumann solve$"):
        solve_neumann_well(1e2, 1, grid, PotentialSpec(geometry), SolverConfig())
    with pytest.raises(ValueError):
        validate_geometry_on_grid(geometry, grid)


@pytest.mark.parametrize("lam", [1e7, 3e7])
def test_neumann_scale_out_of_float_range_raises(ref, lam):
    # a Gausson over the whole enlargement, not confined to the well: its
    # Nehari scale is e^352 at 1e7, whose squares overflow, and at 3e7 the
    # scale e^1057 itself does
    prob = _LocalWell.neumann(lam, 1, ref.grid, ref.potential)
    bump = np.exp(0.5 - 0.5 * prob.dist_sq(ref.geometry.enlargements[0].center))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolveError, match=r"^Nehari scale e\^\d+(\.\d)? takes "
                                             "the field out of the float range$"):
            prob.nehari_project(bump)
    assert caught == []


# -- factored Jacobian solves (1D) --------------------------------------------------


def _random_spd_tridiagonal(rng, n):
    off = rng.standard_normal(n - 1)
    diag = 2.0 + np.abs(np.concatenate([off, [0.0]])) + np.abs(
        np.concatenate([[0.0], off])
    )
    return diag, off


def test_tridiagonal_ldl_matches_dense_solve():
    rng = np.random.default_rng(2)
    diag, off = _random_spd_tridiagonal(rng, 50)
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    b = rng.standard_normal(50)
    x = TridiagonalLDL.solve_once(diag, off, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=0.0, atol=1e-12)
    assert TridiagonalLDL.negative_eigenvalues(diag, off) == 0
    assert TridiagonalLDL.solve_once([4.0], [], [2.0]).tolist() == [0.5]
    assert TridiagonalLDL.negative_eigenvalues([-4.0], []) == 1


def _random_symmetric_tridiagonal(rng, n):
    diag, off = 3.0 * rng.standard_normal(n), rng.standard_normal(n - 1)
    return diag, off, np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("seed", range(6))
def test_tridiagonal_ldl_indefinite_solve_and_inertia(seed):
    rng = np.random.default_rng(seed)
    diag, off, dense = _random_symmetric_tridiagonal(rng, 40)
    b = rng.standard_normal(40)
    want = np.linalg.solve(dense, b)
    negative = int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
    assert 0 < negative < 40
    x = TridiagonalLDL.solve_once(diag, off, b)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert TridiagonalLDL.negative_eigenvalues(diag, off) == negative


def test_tridiagonal_ldl_near_zero_pivot_raises():
    # second pivot 1 - 1 = 0 exactly, then 1e-16 of the diagonal's scale;
    # the solve and the count break down alike
    for second in (1.0, 1.0 + 1e-16 * 1e4):
        with pytest.raises(SolveError, match="near zero"):
            TridiagonalLDL.solve_once([1.0, second, 1e4], [1.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(SolveError, match="near zero"):
            TridiagonalLDL.negative_eigenvalues([1.0, second, 1e4], [1.0, 0.0])
    with pytest.raises(SolveError, match="non-finite"):
        TridiagonalLDL.solve_once([1.0, -1.0], [0.0], [math.nan, 1.0])
    with pytest.raises(ValueError, match="one entry fewer"):
        TridiagonalLDL.negative_eigenvalues([1.0, 2.0], [1.0, 1.0])
    x = TridiagonalLDL.solve_once([1.0, -2.0], [0.0], [1.0, 1.0])
    count = TridiagonalLDL.negative_eigenvalues([1.0, -2.0], [0.0])
    assert x.tolist() == [1.0, -0.5] and count == 1 and type(count) is int


def _pivoted_diagonal(off, where, pivot):
    """The diagonal, for the couplings `off`, whose LDL^T pivots alternate
    in sign, 2 to 3 in size, but at node `where`, whose pivot is `pivot`:
    each entry is its pivot plus the Schur term m b that the recurrence
    subtracts from it, so the pivots formed are these, to one rounding.
    Past a zero pivot, where no recurrence goes, the entries are the
    pivots themselves."""
    diag, prev = [], 0.0
    for i, b in enumerate([0.0] + off):
        want = pivot if i == where else (-1.0) ** i * (2.0 + 0.1 * i)
        shift = b / prev * b if prev else 0.0
        diag.append(want + shift)
        prev = diag[-1] - shift
    return diag


@pytest.mark.parametrize("pivot", [0.0, 1e-13, 1e-3], ids=["zero", "near-zero", "small"])
@pytest.mark.parametrize("where", [0, 4, 8], ids=["first", "middle", "last"])
@pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "array"])
def test_tridiagonal_ldl_solve_breaks_down_where_the_count_does(pivot, where, scalar):
    # one pivot recurrence, whose zero coupling ahead of node 0 makes the
    # first node a node like any other: a pivot within PIVOT_RTOL of the
    # largest diagonal entry (here 1e-12 * 3.5) fails the solve and the
    # count alike, at the first node, a middle one or the last; above it the
    # indefinite system is solved and its inertia counted
    n = 9
    off = [-1.5] * (n - 1) if scalar else [(-1.0) ** i * (1.0 + 0.1 * i)
                                           for i in range(n - 1)]
    diag = _pivoted_diagonal(off, where, pivot)
    coupling = -1.5 if scalar else off
    b = np.linspace(1.0, -2.0, n)
    solve = partial(TridiagonalLDL.solve_once, diag, coupling, b)
    count = partial(TridiagonalLDL.negative_eigenvalues, diag, coupling)
    if pivot < TridiagonalLDL.PIVOT_RTOL * max(map(abs, diag)):
        for call in (solve, count):
            with pytest.raises(SolveError, match="^LDL\\^T breakdown: pivot near zero$"):
                call()
        return
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    want = np.linalg.solve(dense, b)
    negative = int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
    assert 0 < negative < n
    assert np.linalg.norm(solve() - want) <= 1e-12 * np.linalg.norm(want)
    assert count() == negative


@pytest.mark.parametrize("where", ["diag", "off"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("method", ["solve_once", "negative_eigenvalues"])
def test_tridiagonal_ldl_rejects_a_non_finite_entry(where, bad, method):
    # as in BlockTridiagonalLDL: the recurrences miss such an entry or
    # misname it, since an infinite coupling makes a pivot of -inf, which
    # passes the pivot floor and counts as negative, and a nan one fails
    # the floor as a pivot near zero
    entries = {"diag": [2.0, 2.0, 2.0], "off": [0.0, 0.0]}
    entries[where][0] = bad
    args = (entries["diag"], entries["off"])
    args += ([1.0, 1.0, 1.0],) if method == "solve_once" else ()
    with pytest.raises(SolveError, match="^LDL\\^T breakdown: non-finite matrix entry$"):
        getattr(TridiagonalLDL, method)(*args)


def test_tridiagonal_ldl_takes_a_scalar_coupling():
    # a scalar couples every neighbour pair, bit for bit as its array
    rng = np.random.default_rng(9)
    diag, b = 3.0 * rng.standard_normal(30), rng.standard_normal(30)
    full = np.full(29, -1.5)
    assert np.array_equal(TridiagonalLDL.solve_once(diag, -1.5, b),
                          TridiagonalLDL.solve_once(diag, full, b))
    assert (TridiagonalLDL.negative_eigenvalues(diag, -1.5)
            == TridiagonalLDL.negative_eigenvalues(diag, full) > 0)


def test_tridiagonal_ldl_rejects_a_right_hand_side_of_another_length():
    # zip would stop at the shorter list: a short rhs gave a 2-entry
    # solution, and a long one lost its last entry
    with pytest.raises(ValueError, match="one entry per diag entry"):
        TridiagonalLDL.solve_once([2.0, 2.0, 2.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="one entry per diag entry"):
        TridiagonalLDL.solve_once([2.0, 2.0], [0.0], [1.0, 1.0, 5.0])


def _one_d_problems(ref):
    """The two 1D local problems of the reference scenario, each with a
    positive field to take the Jacobian at and a right-hand side."""
    rng = np.random.default_rng(3)
    well = _LocalWell.dirichlet(ref.geometry.wells[0], ref.grid)
    enlarged = _LocalWell.neumann(1e3, 2, ref.grid, ref.potential)
    return {
        name: (prob, 0.5 + rng.random(prob.w.shape), rng.random(prob.w.shape))
        for name, prob in (("single_well", well), ("neumann", enlarged))
    }


def _local_jacobian(prob, u, mirror):
    """(diag, off) of the weighted Jacobian W(B + lambda V - log u^2 - 2)
    at u > 0, from the problem's own operator, and the oracle applying it
    free of storage with mirror or zero ghosts."""
    diag = prob.diag - prob.w * (2.0 * np.log(u) + 2.0)
    return (diag, prob.off), local_jacobian_apply(prob, u, mirror)


@pytest.mark.parametrize("name", ["single_well", "neumann"])
def test_local_jacobian_solve_matches_minres(ref, name):
    prob, u, b = _one_d_problems(ref)[name]
    (diag, off), apply = _local_jacobian(prob, u, name == "neumann")
    assert len(off) == 1
    x = TridiagonalLDL.solve_once(diag, *off, b)
    y, _ = minres(apply, b, _diagonal(1.0 / np.abs(diag)), 1e-13, 20000)
    assert np.linalg.norm(x - y) <= 1e-11 * np.linalg.norm(y)
    assert np.linalg.norm(apply(x) - b) <= 1e-12 * np.linalg.norm(b)


# -- Newton's method for the local ground states -----------------------------------


def _dense(apply, shape) -> np.ndarray:
    """The matrix of a linear map on arrays of the given shape, column by
    column."""
    eye = np.eye(math.prod(shape))
    return np.column_stack([apply(c.reshape(shape)).ravel() for c in eye])


def _dense_couplings(grid: Grid) -> np.ndarray:
    """The stencil couplings of -lap_h on the whole box as a dense matrix
    with a zero diagonal; a Jacobian is this plus its whole diagonal."""
    lap = _dense(lambda c: neg_laplacian(Field(grid, c)).values, grid.interior_shape)
    return lap - np.diag(np.diag(lap))


def _local_cases(ref):
    """Local problems with the start bumps of their solves: the 1D
    Dirichlet and mirror wells of the reference scenario, a 35 x 19 node
    2D Dirichlet rectangle and a 34 x 34 node 2D mirror box."""
    _, potential, grid = _small_2d()
    coarse = Grid(dim=2, r=3.0, n=41)
    cases = {
        "dirichlet_1d": (_LocalWell.dirichlet(ref.geometry.wells[0], ref.grid),
                         ref.geometry.wells[0].center, False),
        "mirror_1d": (_LocalWell.neumann(1e3, 2, ref.grid, ref.potential),
                      ref.geometry.enlargements[1].center, True),
        "dirichlet_2d": (_LocalWell.dirichlet(Box((0.0, 0.3), (1.75, 0.95)), grid),
                         (0.0, 0.3), False),
        "mirror_2d": (_LocalWell.neumann(1e2, 1, coarse, potential), (0.0, 0.0), True),
    }
    out = {}
    for name, (prob, center, mirror) in cases.items():
        d2 = prob.dist_sq(center)
        out[name] = (prob, np.exp(0.5 * prob.grid.dim - 0.5 * d2) if mirror
                     else np.exp(-0.5 * d2), mirror)
    return out


@pytest.mark.parametrize("case", ["dirichlet_1d", "mirror_1d", "dirichlet_2d",
                                  "mirror_2d"])
def test_local_newton_step_matches_dense_jacobian_solve(ref, case, monkeypatch):
    # the 1D step is the exact solve; the 2D step is MINRES stopped at the
    # forcing term, so its preconditioned residual is checked instead
    prob, bump, mirror = _local_cases(ref)[case]
    u, au = prob.nehari_project(bump)
    res = au - s_log_sq(u)
    jac = _dense(local_jacobian_apply(prob, u, mirror), u.shape)
    assert np.abs(jac - jac.T).max() <= 1e-12 * np.abs(jac).max()
    b = -(prob.w * res)
    calls = []

    def recorded(apply_a, rhs, prec, tol, max_iters):
        x, its = minres(apply_a, rhs, prec, tol, max_iters)
        calls.append((rhs, prec, tol, max_iters, x))
        return x, its

    monkeypatch.setattr(solver_module, "minres", recorded)
    config = SolverConfig(max_iters=1)
    run = solver_module._ground_state_newton(prob, bump, config)
    u_new = run.values
    if prob.grid.dim == 1:
        assert calls == [] and run.inner_iterations == 0
        du = np.linalg.solve(jac, b.ravel()).reshape(u.shape)
    else:
        [(rhs, prec, tol, cap, du)] = calls
        rel = math.sqrt(prob.integral(res * res) / prob.integral(u * u))
        floor = 0.5 * config.tol / max(rel, config.tol)
        assert solver_module.ETA_NORM == 0.1
        assert tol == 0.1 * max(min(solver_module.ETA_MAX, rel), floor)
        assert cap == u.size
        assert np.array_equal(rhs, b)
        # M: the Dirichlet -lap_h on the closed well's rectangle, all of the
        # Dirichlet well and the nodes where lambda V = 0 in the enlarged
        # one, and |d| elsewhere
        inside = np.broadcast_to(prob.lam_v == 0.0, u.shape)
        assert inside.all() != mirror
        [box] = prob.well_nodes()
        rectangle = np.zeros(u.shape, dtype=bool)
        rectangle[box] = True
        assert np.array_equal(inside, rectangle)
        m = np.diag(np.abs(np.diag(jac)))
        idx = np.flatnonzero(inside)
        m[np.ix_(idx, idx)] = _dirichlet_dense(inside[box].shape, prob.grid.h, 0.0)
        for x in np.random.default_rng(5).standard_normal((3,) + u.shape):
            want = np.linalg.solve(m, x.ravel()).reshape(u.shape)
            assert np.abs(prec(x) - want).max() <= 1e-10 * np.abs(want).max()
        r = b - (jac @ du.ravel()).reshape(u.shape)
        assert math.sqrt(np.vdot(r, prec(r))) <= (1.0 + 1e-8) * tol * math.sqrt(
            np.vdot(b, prec(b)))
        assert run.inner_iterations > 0
    want = prob.nehari_project(np.maximum(u + du, 0.0))[0]
    assert run.iterations == 1
    assert np.linalg.norm(u_new - want) <= 1e-11 * np.linalg.norm(want)
    # the Morse index is counted at the returned iterate's Jacobian, whose
    # log u^2 is taken at u floored at U_FLOOR
    jac_new = _dense(local_jacobian_apply(prob, np.maximum(u_new, U_FLOOR), mirror),
                     u.shape)
    assert run.morse_index == int(np.sum(np.linalg.eigvalsh(jac_new) < 0.0))


def _dirichlet_dense(shape, h, sigma) -> np.ndarray:
    """The dense five-point -lap_h + sigma I with zero ghosts on an
    (n0, n1) node rectangle, as a sum of Kronecker products."""
    t0, t1 = ((2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2 for n in shape)
    return (np.kron(t0, np.eye(shape[1])) + np.kron(np.eye(shape[0]), t1)
            + sigma * np.eye(shape[0] * shape[1]))


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("shape", [(5, 7), (35, 35), (37, 41)])
def test_dirichlet_inverse_matches_the_dense_solve(shape, sigma):
    h = 14.0 / 126
    solve = solver_module._dirichlet_inverse(shape, h, sigma)
    dense = _dirichlet_dense(shape, h, sigma)
    rng = np.random.default_rng(40)
    for r in rng.standard_normal((3,) + shape):
        want = np.linalg.solve(dense, r.ravel()).reshape(shape)
        assert np.abs(solve(r) - want).max() <= 1e-12 * np.abs(want).max()
    # a view with strides, as a well box of a larger array is
    big = rng.standard_normal((shape[0] + 4, shape[1] + 6))
    view = big[2:-2, 3:-3]
    want = np.linalg.solve(dense, view.ravel()).reshape(shape)
    assert np.abs(solve(view) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_dirichlet_inverse_is_symmetric_and_positive(sigma):
    solve = solver_module._dirichlet_inverse((37, 41), 14.0 / 126, sigma)
    x, y = np.random.default_rng(41).standard_normal((2, 37, 41))
    xy, yx = float(np.vdot(x, solve(y))), float(np.vdot(y, solve(x)))
    assert abs(xy - yx) <= 1e-13 * math.sqrt(np.vdot(x, solve(x)) * np.vdot(y, solve(y)))
    for z in (x, y, np.ones((37, 41))):
        assert float(np.vdot(z, solve(z))) > 0.0


def test_local_levels_match_reference(ref_wells, ref_levels):
    path = REPO_ROOT / "perfbench" / "reference" / "twin-wells-1d" / "energies.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    checked = set()
    for row in rows:
        lam = float(row["lambda"])
        for j in (1, 2):
            want = float(row[f"c_{j}"])
            assert abs(ref_wells[j - 1].energy - want) <= 1e-10 * abs(want)
            level = float(row[f"c_lambda_{j}"])
            if not math.isnan(level):
                got = ref_levels[(lam, j)].energy
                assert abs(got - level) <= 1e-10 * abs(level)
                checked.add((lam, j))
    assert checked == set(ref_levels)


def test_local_solves_converge_with_morse_index_one(ref_wells, ref_levels):
    # deterministic work counter: 3-4 Newton steps per solve when pinned
    for rec in list(ref_wells) + list(ref_levels.values()):
        assert rec.stop_reason == "converged" and rec.converged
        assert rec.morse_index == 1
        assert 1 <= rec.iterations <= 6
        assert len(rec.residuals) == len(rec.energies) == rec.iterations


def test_local_levels_are_the_nehari_identity(ref, monkeypatch):
    # the level a local solve reports is half the mass of its last iterate;
    # the full energy 1/2 (<(B + lambda V) u, u>_w + int_w u^2
    # - int_w u^2 log u^2) of that iterate agrees
    newton = solver_module._ground_state_newton
    iterates = []

    def keep(prob, u, config):
        rec = newton(prob, u, config)
        iterates.append((prob, rec.values))
        return rec

    monkeypatch.setattr(solver_module, "_ground_state_newton", keep)
    geometry_2d, _, grid_2d = _small_2d()
    levels = [
        solve_single_well(ref.geometry, 1, ref.grid, ref.solver).energy,
        solve_neumann_well(1e3, 1, ref.grid, ref.potential, ref.solver).energy,
        solve_single_well(geometry_2d, 1, grid_2d, SolverConfig()).energy,
    ]
    for level, (prob, u) in zip(levels, iterates, strict=True):
        energy = 0.5 * (prob.integral(prob.apply(u) / prob.w * u)
                        + prob.integral(u * u) - prob.integral(sq_log_sq(u)))
        assert abs(level - energy) <= 1e-12 * energy


def test_converged_local_morse_index_is_the_dense_count(ref, monkeypatch):
    # a converged local solve's index is the negative eigenvalue count of
    # the assembled Jacobian at the field it returns
    newton = solver_module._ground_state_newton
    solved = []

    def keep(prob, u, config):
        rec = newton(prob, u, config)
        solved.append((prob, rec.values, rec))
        return rec

    monkeypatch.setattr(solver_module, "_ground_state_newton", keep)
    mirrors = []
    for j in (1, 2):
        solve_single_well(ref.geometry, j, ref.grid, ref.solver)
        mirrors.append(False)
        for lam in ref.config.lambdas:
            solve_neumann_well(lam, j, ref.grid, ref.potential, ref.solver)
            mirrors.append(True)
    for (prob, u, run), mirror in zip(solved, mirrors, strict=True):
        jac = _dense(local_jacobian_apply(prob, np.maximum(u, U_FLOOR), mirror), u.shape)
        assert run.converged
        assert run.morse_index == int(np.sum(np.linalg.eigvalsh(jac) < 0.0)) == 1


def test_local_solves_rerun_bit_identical(ref, ref_wells, ref_levels):
    for j in (1, 2):
        again = solve_single_well(ref.geometry, j, ref.grid, ref.solver)
        assert np.array_equal(again.field.values, ref_wells[j - 1].field.values)
        assert again.residuals == ref_wells[j - 1].residuals
        assert again.energies == ref_wells[j - 1].energies
    for (lam, j), rec in ref_levels.items():
        again = solve_neumann_well(lam, j, ref.grid, ref.potential, ref.solver)
        assert np.array_equal(again.values, rec.values)
        assert vars(again) | {"values": None} == vars(rec) | {"values": None}


def test_local_newton_collapse(ref, monkeypatch):
    # a step that overshoots below zero everywhere leaves the clip no mass
    def overshoot(diag, off, rhs):
        return np.full(len(diag), -1e3)

    monkeypatch.setattr(TridiagonalLDL, "solve_once", staticmethod(overshoot))
    rec = solve_single_well(ref.geometry, 1, ref.grid, ref.solver)
    assert rec.stop_reason == "collapse" and not rec.converged
    assert rec.iterations == 1 and rec.residuals == [] and math.isnan(rec.energy)
    assert np.abs(rec.field.values).max() == 0.0
    level = solve_neumann_well(1e2, 1, ref.grid, ref.potential, ref.solver)
    assert level.stop_reason == "collapse" and not level.converged
    assert math.isnan(level.energy) and level.residuals == []


def test_local_newton_stops_on_a_growing_residual(ref, monkeypatch):
    # ever larger zig-zags: the projected iterate's residual grows every step
    amplitude = [1e-3]

    def zigzag(diag, off, rhs):
        amplitude[0] *= 4.0
        return amplitude[0] * (-1.0) ** np.arange(len(diag))

    monkeypatch.setattr(TridiagonalLDL, "solve_once", staticmethod(zigzag))
    rec = solve_single_well(ref.geometry, 1, ref.grid, ref.solver)
    assert rec.stop_reason == "diverged" and not rec.converged
    assert rec.iterations == solver_module.DIVERGE_STEPS + 1
    # the Morse index is counted at the returned field's Jacobian, whose
    # log u^2 is taken at u floored at U_FLOOR
    prob = _LocalWell.dirichlet(ref.geometry.wells[0], ref.grid)
    u = rec.field.values[tuple(slice(s.start - 1, s.stop - 1) for s in prob.nodes)]
    jac = _dense(local_jacobian_apply(prob, np.maximum(u, U_FLOOR), False), u.shape)
    assert rec.morse_index == int(np.sum(np.linalg.eigvalsh(jac) < 0.0))


def test_one_d_solves_never_call_cg(ref, ref_wells, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("conjugate_gradient called on a 1D grid")

    monkeypatch.setattr(solver_module, "conjugate_gradient", forbidden)
    config = SolverConfig(max_iters=5)
    solve_single_well(ref.geometry, 1, ref.grid, config)
    init = multi_bump_init([w.field for w in ref_wells], [0.5, 0.5], 2.0)
    solve_auxiliary(1e2, (1, 2), init, ref.grid, ref.potential, ref.params, config)
    solve_neumann_well(1e2, 1, ref.grid, ref.potential, config)


# -- the Newton driver --------------------------------------------------------


def _fake_linear_step(step, its=0):
    """A stand-in for `solver._linear_step` whose every step returns
    `step`'s direction with `its` MINRES iterations."""
    def factory(off, tol):
        return lambda u, b, d, rel: (step(u, b, d, rel), its)

    return factory


def _toy_evaluate(u):
    """u^2 = 4 on one node: (u, relative residual, energy, residual,
    Jacobian diagonal)."""
    res = u * u - 4.0
    return u, abs(res.item()) / u.item(), u.item(), res, 2.0 * u


def _toy_singular(u, b, d, rel):
    raise SolveError("LDL^T breakdown: pivot near zero")


@pytest.mark.parametrize("stop, step, max_iters, iterations, u_end", [
    ("converged", lambda u, b, d, rel: -b / d, 40, 4, 2.0),
    ("iteration cap", lambda u, b, d, rel: -b / d, 2, 2, None),
    ("collapse", lambda u, b, d, rel: -2.0 * u, 40, 1, 0.0),
    ("diverged", lambda u, b, d, rel: u, 40, solver_module.DIVERGE_STEPS + 1, None),
    ("breakdown", _toy_singular, 40, 1, 3.0),
    ("non-finite", lambda u, b, d, rel: np.full_like(u, math.inf), 40, 1, 3.0),
])
def test_newton_driver_names_every_stop(stop, step, max_iters, iterations, u_end,
                                        monkeypatch):
    # a breakdown or a non-finite step keeps the last iterate with a finite
    # residual, here the start; a collapse returns the clipped iterate.  The
    # Morse index is counted once, at the Jacobian diagonal 2u of the
    # returned field, or on a collapse of the last evaluated iterate, the
    # start; nan with no count when no step returned.  The count's trial
    # vector is the returned field, the collapsed one on a collapse
    monkeypatch.setattr(solver_module, "_linear_step", _fake_linear_step(step))
    seen, trials = [], []

    def count(u, d):
        seen.append(d.copy())
        trials.append(u.copy())
        return 1

    u, rec = solver_module._newton(
        _toy_evaluate, (None,), lambda u: u[0] <= 0.0, np.array([3.0]),
        SolverConfig(max_iters=max_iters), count)
    assert rec.stop_reason == stop and rec.converged == (stop == "converged")
    assert rec.iterations == iterations
    assert len(rec.residuals) == len(rec.energies)
    assert rec.inner_iterations == 0
    if u_end is not None:
        assert abs(u[0] - u_end) <= 1e-9
    if iterations == 1:
        assert rec.residuals == []
    if stop == "breakdown":
        assert math.isnan(rec.morse_index) and seen == []
        assert rec.stop_detail == "LDL^T breakdown: pivot near zero"
    else:
        assert rec.morse_index == 1 and rec.stop_detail == ""
        assert seen == [2.0 * (np.array([3.0]) if stop == "collapse" else u)]
        assert trials == [u]


@pytest.mark.parametrize("off", [(None,), (None, None)], ids=["1d", "2d"])
def test_newton_driver_counts_the_morse_index_at_the_returned_field(off, monkeypatch):
    # in 1D as in 2D the problem's count sees, once, the Jacobian diagonal
    # of the returned field, which no step has solved with, and that field
    # as its trial vector; its SolveError leaves the index open, and the
    # step's MINRES tally is kept
    diagonals = []

    def step(u, b, d, rel):
        diagonals.append(d)
        return -b / d

    monkeypatch.setattr(solver_module, "_linear_step", _fake_linear_step(step, its=2))
    seen = []

    def count(u, d):
        seen.append(d)
        assert np.array_equal(2.0 * u, d)
        return 3

    def singular(u, d):
        raise SolveError("block LDL^T breakdown: Schur block near singular")

    start = np.full((1,) * len(off), 3.0)
    u, rec = solver_module._newton(_toy_evaluate, off, lambda u: False, start,
                                   SolverConfig(), count)
    assert rec.converged and rec.morse_index == 3
    assert rec.inner_iterations == 2 * rec.iterations == 2 * len(diagonals)
    assert len(seen) == 1 and np.array_equal(seen[0], 2.0 * u)
    assert all(seen[0] is not d for d in diagonals)
    u, rec = solver_module._newton(_toy_evaluate, off, lambda u: False, start,
                                   SolverConfig(), singular)
    assert rec.converged and rec.stop_detail == "" and math.isnan(rec.morse_index)

    # a step that breaks down after one returned: counted at the iterate
    # the solve returns, the first step's
    def second_singular(u, b, d, rel):
        if diagonals:
            _toy_singular(u, b, d, rel)
        diagonals.append(d)
        return -b / d

    diagonals.clear()
    monkeypatch.setattr(solver_module, "_linear_step",
                        _fake_linear_step(second_singular))
    u, rec = solver_module._newton(_toy_evaluate, off, lambda u: False, start,
                                   SolverConfig(), count)
    assert rec.stop_reason == "breakdown" and rec.iterations == 2
    assert rec.morse_index == 3 and np.array_equal(seen[-1], 2.0 * u)
    assert not np.array_equal(u, start)
    monkeypatch.setattr(solver_module, "_linear_step", _fake_linear_step(_toy_singular))
    u, rec = solver_module._newton(_toy_evaluate, off, lambda u: False, start,
                                   SolverConfig(), count)
    assert rec.stop_reason == "breakdown" and math.isnan(rec.morse_index)
    assert len(seen) == 2


# -- Newton's method for the 1D auxiliary problem ----------------------------------


def test_newton_step_matches_dense_jacobian_solve(ref, ref_sweep):
    lam = 1e3
    fun = PenalizedFunctional(ref.grid, ref.potential, ref.params, (1, 2), lam)
    u = ref_sweep[1].field.values  # converged at lambda = 100
    couplings = _dense_couplings(ref.grid)

    def jacobian(v):
        return couplings + np.diag(fun.evaluate(v)[2])

    want = np.maximum(u + np.linalg.solve(jacobian(u), -fun.evaluate(u)[1]), 0.0)
    rec = solve_auxiliary(lam, (1, 2), ref_sweep[1].field, ref.grid, ref.potential,
                          ref.params, SolverConfig(max_iters=1))
    assert rec.iterations == 1
    assert np.linalg.norm(rec.field.values - want) <= 1e-11 * np.linalg.norm(want)
    # the Morse index is counted at the returned field's Jacobian
    jac_new = jacobian(rec.field.values)
    assert rec.morse_index == int(np.sum(np.linalg.eigvalsh(jac_new) < 0.0)) == 2


def test_newton_sweep_matches_reference_energies(ref_sweep):
    want = _reference_phi_total("twin-wells-1d", "1+2")
    assert sorted(want) == [st.lam for st in ref_sweep]
    for st in ref_sweep:
        assert abs(st.report.total - want[st.lam]) <= 1e-10 * abs(want[st.lam])


def test_newton_step_count_guard(ref_sweep):
    # deterministic work counter: 5, 3, 1, 1 Newton steps when pinned, from
    # the level fields after the first lambda (5, 4, 3, 3 by continuation)
    assert [st.stop_reason for st in ref_sweep] == ["converged"] * 4
    assert all(st.iterations <= 6 for st in ref_sweep)


@pytest.mark.parametrize("gamma", [(1,), (2,), (1, 2)])
def test_newton_morse_index_is_bump_count(ref, ref_wells, ref_levels, ref_big_t, gamma):
    ws = [ref_wells[j - 1].field for j in gamma]
    init = multi_bump_init(ws, [1.0 / ref_big_t] * len(ws), ref_big_t)
    steps = lambda_sweep(ref.config.lambdas, gamma, init, ref.grid,
                         ref.potential, ref.params, ref.solver, ref_levels)
    for st in steps:
        assert st.stop_reason == "converged"
        assert st.morse_index == len(gamma)
    # the report's mass split, summed directly from the top field's squares
    full = steps[-1].field.full()
    sq = full * full
    total = float(np.sum(sq))
    per = [float(np.sum(sq[box_mask_full(e, ref.grid)]))
           for e in ref.geometry.enlargements]
    assert steps[-1].bump_mask == gamma == tuple(
        j + 1 for j, m in enumerate(per) if m >= BUMP_THRESHOLD * total)
    assert steps[-1].report.mass_fraction(gamma) == sum(per[j - 1] for j in gamma) / total


def test_converged_sweep_morse_index_is_the_dense_count(ref, ref_sweep):
    # at the field each sweep solve returns, the assembled Jacobian, the
    # stencil couplings plus its whole diagonal d, has the recorded number
    # of negative eigenvalues
    couplings = _dense_couplings(ref.grid)
    for rec in ref_sweep:
        fun = PenalizedFunctional(ref.grid, ref.potential, ref.params, (1, 2), rec.lam)
        jac = couplings + np.diag(fun.evaluate(rec.field.values)[2])
        assert rec.converged
        assert rec.morse_index == int(np.sum(np.linalg.eigvalsh(jac) < 0.0)) == 2


def test_newton_sweep_reruns_bit_identical(ref, ref_wells, ref_levels, ref_big_t,
                                           ref_sweep):
    init = multi_bump_init([r.field for r in ref_wells],
                           [1.0 / ref_big_t] * 2, ref_big_t)
    again = lambda_sweep(ref.config.lambdas, (1, 2), init, ref.grid,
                         ref.potential, ref.params, ref.solver, ref_levels)
    for a, b in zip(ref_sweep, again):
        assert np.array_equal(a.field.values, b.field.values)
        assert a.residuals == b.residuals
        assert a.energies == b.energies
        assert a.morse_index == b.morse_index


def test_newton_stops_on_a_growing_residual(ref, ref_wells, monkeypatch):
    def doubling(u, *args):
        return u  # du = u doubles the iterate

    monkeypatch.setattr(solver_module, "_linear_step", _fake_linear_step(doubling))
    rec = solve_auxiliary(1e4, (1,), ref_wells[0].field, ref.grid, ref.potential,
                          ref.params, ref.solver)
    assert rec.stop_reason == "diverged" and not rec.converged
    assert rec.iterations == solver_module.DIVERGE_STEPS + 1
    # the Morse index is counted at the returned field's Jacobian
    u = rec.field.values
    assert np.array_equal(u, 2.0**rec.iterations * ref_wells[0].field.values)
    fun = PenalizedFunctional(ref.grid, ref.potential, ref.params, (1,), 1e4)
    jac = _dense_couplings(ref.grid) + np.diag(fun.evaluate(u)[2])
    assert rec.morse_index == int(np.sum(np.linalg.eigvalsh(jac) < 0.0))


def _count_terms(monkeypatch) -> list:
    """Record every call of the penalty kernel from here on."""
    calls = []
    terms = PenalizationParams.terms

    def counted(self, in_gamma, u):
        calls.append(np.shape(u))
        return terms(self, in_gamma, u)

    monkeypatch.setattr(PenalizationParams, "terms", counted)
    return calls


def test_newton_evaluates_the_kernel_once_per_iterate(ref, ref_wells, monkeypatch):
    # one evaluation per iterate, the start included, gives the residual,
    # the energy and the next Jacobian
    init = multi_bump_init([w.field for w in ref_wells], [0.5, 0.5], 2.0)
    calls = _count_terms(monkeypatch)
    rec = solve_auxiliary(1e2, (1, 2), init, ref.grid, ref.potential, ref.params,
                          ref.solver)
    assert rec.stop_reason == "converged" and rec.iterations > 1
    assert len(calls) == rec.iterations + 1


def test_newton_collapse_from_nonzero_init(ref, ref_wells):
    # a small start falls to u = 0 in one step: a collapse, not a solution
    init = Field(ref.grid, 0.3 * ref_wells[0].field.values)
    rec = solve_auxiliary(1e2, (1,), init, ref.grid, ref.potential, ref.params,
                          ref.solver)
    assert rec.stop_reason == "collapse" and not rec.converged
    assert rec.iterations == 1 and np.abs(rec.field.values).max() == 0.0
    fun = PenalizedFunctional(ref.grid, ref.potential, ref.params, (1,), 1e2)
    assert rec.report.total == fun.phi_total(rec.field.values)


def test_collapse_energy_belongs_to_the_collapsed_field(ref, ref_wells, monkeypatch):
    # the first step halves the iterate, which is evaluated; the second
    # empties it.  The record's energy is the empty field's, not the energy
    # of the last evaluated iterate.
    factors = iter([0.5, 0.0])

    def scaling(u, *args):
        return u * (next(factors) - 1.0)

    monkeypatch.setattr(solver_module, "_linear_step", _fake_linear_step(scaling))
    rec = solve_auxiliary(1e2, (1,), ref_wells[0].field, ref.grid, ref.potential,
                          ref.params, ref.solver)
    assert rec.stop_reason == "collapse" and len(rec.energies) == 1
    assert rec.energy == rec.report.total == 0.0 != rec.energies[-1]


# -- Newton's method for the 2D auxiliary problem ----------------------------------


def test_two_d_newton_collapse_from_nonzero_init():
    geometry = WellGeometry(
        dim=2,
        wells=(Box((0.0, 0.0), (2.0, 2.0)),),
        enlargements=(Box((0.0, 0.0), (2.5, 2.5)),),
    )
    grid = Grid(dim=2, r=4.0, n=41)
    init = Field(grid, np.exp(-0.5 * sum(m * m for m in interior_mesh(grid))))
    rec = solve_auxiliary(1e2, (1,), init, grid, PotentialSpec(geometry),
                          make_params(), SolverConfig(max_iters=3))
    assert rec.stop_reason == "collapse" and not rec.converged
    assert rec.iterations == 1
    # the step is solved only to the forcing term, so the clip empties the
    # selected enlargement but leaves tails of rounding size beyond it
    u = rec.field.full()
    assert np.sum((u * u)[box_mask_full(geometry.enlargements[0], grid)]) == 0.0
    assert np.abs(u).max() <= 1e-3 * np.abs(init.values).max()


def test_two_d_minres_cap_is_a_breakdown(monkeypatch):
    # the step caps MINRES at the unknown count; at a cap of 1 it cannot
    # reach the forcing term, so the first step breaks down and the record
    # keeps the start
    geometry, potential, grid = _small_2d()
    init = Field(grid, np.exp(-0.5 * sum(m * m for m in interior_mesh(grid))))
    caps = []

    def capped(apply_a, b, prec, tol, max_iters):
        caps.append(max_iters)
        return minres(apply_a, b, prec, tol, 1)

    monkeypatch.setattr(solver_module, "minres", capped)
    rec = solve_auxiliary(1e2, (1,), init, grid, potential, make_params(),
                          SolverConfig())
    assert caps == [init.values.size]
    assert rec.stop_reason == "breakdown" and not rec.converged
    assert rec.iterations == 1 and rec.residuals == [] and rec.energies == []
    assert np.array_equal(rec.field.values, init.values)
    assert math.isnan(rec.morse_index) and rec.bump_mask == (1,)


def test_two_d_newton_steps_stop_at_the_forcing_term(monkeypatch):
    geometry, potential, grid = _small_2d()
    well = solve_single_well(geometry, 1, grid, SolverConfig())
    tols = []

    def recorded(apply_a, b, prec, tol, max_iters):
        tols.append(tol)
        return minres(apply_a, b, prec, tol, max_iters)

    monkeypatch.setattr(solver_module, "minres", recorded)
    rec = solve_auxiliary(1e2, (1,), well.field, grid, potential, make_params(),
                          SolverConfig())
    assert rec.stop_reason == "converged" and rec.iterations == len(tols) > 1
    fun = PenalizedFunctional(grid, potential, make_params(), (1,), 1e2)
    u = well.field.values
    res = fun.evaluate(u)[1]
    rel0 = math.sqrt(float(np.sum(res * res))) / math.sqrt(float(np.sum(u * u)))
    assert solver_module.ETA_MAX == 1e-3 and solver_module.ETA_NORM == 0.1
    tol = SolverConfig().tol
    before = [rel0] + rec.residuals[:-1]
    # MINRES stops at a tenth of the forcing term in the M^-1 norm
    etas = [max(min(1e-3, rel), 0.5 * tol / max(rel, tol)) for rel in before]
    assert tols == [0.1 * eta for eta in etas]
    # the last step starts close enough to the solution that the floor, not
    # the residual, sets its forcing term: it is not solved past tol / 2
    assert etas[-1] == 0.5 * tol / before[-1] > before[-1]


def test_two_d_newton_records_morse_index_one(monkeypatch):
    geometry, potential, grid = _small_2d()
    well = solve_single_well(geometry, 1, grid, SolverConfig())
    assert well.converged
    calls = _count_terms(monkeypatch)
    rec = solve_auxiliary(1e2, (1,), well.field, grid, potential, make_params(),
                          SolverConfig())
    assert rec.stop_reason == "converged" and rec.bump_mask == (1,)
    assert rec.morse_index == 1
    # the Morse enclosure reuses the returned iterate's Jacobian diagonal
    assert len(calls) == rec.iterations + 1


_ENCLOSURE_BOXES = [(slice(2, 11), slice(2, 11)), (slice(3, 12), slice(13, 22))]


def _dipped_diagonal(depth, outside=30.0, h=0.25):
    """A (20, 24) Jacobian diagonal: `outside` off the two boxes of
    _ENCLOSURE_BOXES, and Gaussian dips of depth and 1.3 depth in them."""
    yy, xx = np.mgrid[0:20, 0:24]
    jd = np.full(yy.shape, outside)
    centres = [(6, 6), (7, 17)]
    for (c0, c1), box, d in zip(centres, _ENCLOSURE_BOXES, [depth, 1.3 * depth]):
        r2 = ((yy - c0) ** 2 + (xx - c1) ** 2) * h * h
        jd[box] = (outside - d * np.exp(-r2))[box]
    return jd


def _bump_trial(h=0.25):
    """A positive (20, 24) field: a Gaussian bump on each dip of
    _dipped_diagonal, narrower than the dip, with the shape of the
    lowest eigenvector of a box with a negative eigenvalue."""
    yy, xx = np.mgrid[0:20, 0:24]
    return sum(np.exp(-3.0 * ((yy - c0) ** 2 + (xx - c1) ** 2) * h * h)
               for c0, c1 in [(6, 6), (7, 17)])


@pytest.mark.parametrize("depth, count", [(20.0, 0), (35.0, 1), (45.0, 4)])
def test_morse_enclosure_matches_eigvalsh(depth, count, block_ldl_calls):
    # the upper bounds count 0 + 0, 0 + 1 and 1 + 3 negative eigenvalues.
    # Each box takes one block count for its upper bound; a second one for
    # its lower bound unless its upper count is 0, or 1 with the trial's
    # negative curvature on it.  The bumps have it on every box with one;
    # a zero or a nan trial has it nowhere, and falls back to the count
    h = 0.25
    jd = _dipped_diagonal(depth)
    want = int(np.sum(np.linalg.eigvalsh(_five_point_dense(jd, h)) < 0.0))
    assert want == count
    assert whole_box_negative_eigenvalues(4.0 / h**2 + jd, h) == count
    bumps, fallback = {20.0: (2, 2), 35.0: (2, 3), 45.0: (3, 4)}[depth]
    for x, n in [(_bump_trial(), bumps), (np.zeros_like(jd), fallback),
                 (np.full_like(jd, math.nan), fallback)]:
        block_ldl_calls.clear()
        assert solver_module._morse_enclosure(4.0 / h**2 + jd, _ENCLOSURE_BOXES, h, x) == count
        assert len(block_ldl_calls) == n


def test_negative_curvature_margin():
    # the bumps' curvature on the box of the 35-deep case's one negative
    # eigenvalue, against its round-off scale |x|^T |J| |x|, and the forms
    # that certify nothing: round-off size, zero, non-finite, overflowing
    h, c = 0.25, -16.0
    box = _ENCLOSURE_BOXES[1]
    b = (4.0 / h**2 + _dipped_diagonal(35.0))[box]
    x = _bump_trial()[box]
    form = np.vdot(x, five_point_apply(b, (c, c))(x))
    size = np.vdot(x, five_point_apply(np.abs(b), (-c, -c))(x))
    assert -0.03 < form / size < -0.02
    assert solver_module._negative_curvature(b, c, x)
    # diagonals shifted up to leave the form 1e-14 and 1e-12 of its scale
    # below zero, about half and 50 times the margin (81 + 5) eps
    for rel, certified in [(1e-14, False), (1e-12, True)]:
        shifted = b - (form + rel * size) / np.vdot(x, x)
        assert solver_module._negative_curvature(shifted, c, x) == certified
    for bad in (np.zeros_like(x), np.full_like(x, math.nan), np.where(x > 0.5, math.inf, x),
                1e300 * x):
        assert not solver_module._negative_curvature(b, c, bad)


def test_morse_enclosure_non_finite_diagonal():
    # nan off the boxes makes m nan, which certifies nothing; nan in a box
    # makes its block count raise, which `_newton` turns into a nan index
    h = 0.25
    d = 4.0 / h**2 + _dipped_diagonal(35.0)
    for trial in (_bump_trial(), np.zeros_like(d)):
        outside = d.copy()
        outside[15, 2] = math.nan
        assert math.isnan(solver_module._morse_enclosure(outside, _ENCLOSURE_BOXES, h, trial))
        for node in [(5, 5), (7, 17)]:
            inside = d.copy()
            inside[node] = math.nan
            with pytest.raises(SolveError, match="non-finite"):
                solver_module._morse_enclosure(inside, _ENCLOSURE_BOXES, h, trial)


def test_morse_enclosure_uncertified_cases():
    h = 0.25
    def enclose(outside=30.0, boxes=_ENCLOSURE_BOXES):
        jd = _dipped_diagonal(35.0, outside)
        return solver_module._morse_enclosure(4.0 / h**2 + jd, boxes, h, _bump_trial())

    assert enclose() == 1
    # J_OO not SPD: no lower bound on it
    assert math.isnan(enclose(outside=0.0))
    # J_OO barely SPD: the bounds drift apart
    assert math.isnan(enclose(outside=1e-3))
    # adjacent boxes: J_EE is not block diagonal over them
    assert math.isnan(enclose(boxes=[(slice(2, 11), slice(2, 11)),
                                     (slice(3, 12), slice(11, 22))]))


@pytest.mark.parametrize("a, b", [
    pytest.param((slice(2, 6), slice(2, 6)), (slice(4, 8), slice(3, 9)), id="overlap"),
    pytest.param((slice(2, 6), slice(2, 6)), (slice(2, 6), slice(2, 6)), id="same-box"),
    pytest.param((slice(2, 6), slice(2, 6)), (slice(3, 5), slice(6, 9)), id="edge"),
    pytest.param((slice(2, 6), slice(2, 6)), (slice(6, 9), slice(0, 3)), id="edge-below"),
    pytest.param((slice(2, 6), slice(2, 6)), (slice(6, 9), slice(6, 9)), id="corner"),
    pytest.param((slice(2, 6), slice(2, 6)), (slice(0, 2), slice(0, 2)), id="corner-low"),
    pytest.param((slice(2, 6), slice(2, 6)), (slice(3, 5), slice(7, 9)), id="1-apart"),
    pytest.param((slice(2, 6), slice(2, 6)), (slice(8, 10), slice(2, 6)), id="2-apart"),
    pytest.param((slice(2, 6), slice(2, 6)), (slice(4, 4), slice(2, 6)), id="empty"),
    pytest.param((slice(2, 6), slice(3, 3)), (slice(2, 6), slice(3, 6)), id="empty-other"),
    pytest.param((slice(2, 6),), (slice(6, 8),), id="1d-adjacent"),
    pytest.param((slice(2, 6),), (slice(7, 8),), id="1d-1-apart"),
])
def test_stencil_coupled_matches_the_mask_reference(a, b):
    shape = (10,) * len(a)
    masks = [np.zeros(shape, dtype=bool) for _ in range(2)]
    for mask, box in zip(masks, (a, b)):
        mask[box] = True
    want = first_coupled_pair(masks) is not None
    assert solver_module._stencil_coupled(a, b) == want
    assert solver_module._stencil_coupled(b, a) == want


@pytest.mark.parametrize("seed, shape", [
    (0, (6, 5)), (1, (6, 5)), (2, (6, 5)), (3, (6, 5)),
    (4, (3, 8)), (5, (8, 3)), (2, (1, 9)),
], ids=["0", "1", "2", "3", "wide", "tall", "one-row"])
def test_block_ldl_negative_eigenvalues(seed, shape):
    rng = np.random.default_rng(20 + seed)
    diag, off0, off1, dense = _random_spd_five_point(rng, *shape)
    ev = np.linalg.eigvalsh(dense)
    shift = 0.5 * (ev[seed] + ev[seed + 1])
    shifted = dense - shift * np.eye(dense.shape[0])
    if shape[0] > 1:
        # the rows before the last hold a negative eigenvalue, so by inertia
        # additivity some Schur block before the last one is indefinite,
        # and its inverse enters the next block
        head = (shape[0] - 1) * shape[1]
        assert np.linalg.eigvalsh(shifted[:head, :head]).min() < 0.0
    count = BlockTridiagonalLDL.negative_eigenvalues(diag - shift, off0, off1)
    want = int(np.sum(np.linalg.eigvalsh(shifted) < 0.0))
    assert count == want == seed + 1


def test_block_ldl_negative_eigenvalues_singular_block_raises():
    with pytest.raises(SolveError, match="singular"):
        BlockTridiagonalLDL.negative_eigenvalues(
            np.array([[1.0, 1.0]]), np.zeros((0, 2)), np.array([[1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["diag", "off0", "off1"])
def test_block_ldl_negative_eigenvalues_non_finite_entry_raises(bad, where):
    # as the tridiagonal count does; a Cholesky factor need not fail on a
    # nan, and the count read 0 on a 4 x 4 grid with one in its diagonal
    diag, off0, off1 = np.full((4, 4), 4.0), -np.ones((3, 4)), -np.ones((4, 3))
    {"diag": diag, "off0": off0, "off1": off1}[where][1, 2] = bad
    with pytest.raises(SolveError, match="non-finite"):
        BlockTridiagonalLDL.negative_eigenvalues(diag, off0, off1)


TWIN_WELLS_2D = REPO_ROOT / "perfbench" / "configs" / "twin-wells-2d.cfg"


@pytest.fixture(scope="module")
def twin_2d():
    """The twin-wells-2d benchmark scenario: its config, a callable that
    runs its gamma = (1, 2) lambda sweep from the CLI's starts, and its
    eight local solves: its two wells and its enlarged wells at every
    lambda."""
    cfg = parse_config(TWIN_WELLS_2D)
    grid, solver, potential = cfg.grid(), cfg.solver_config(), cfg.potential()
    wells = [solve_single_well(cfg.geometry(), j, grid, solver) for j in (1, 2)]
    levels = {(lam, j): solve_neumann_well(lam, j, grid, potential, solver)
              for lam in cfg.lambdas for j in (1, 2)}
    init = Field(grid, sum(w.field.values for w in wells))

    def sweep():
        return lambda_sweep(cfg.lambdas, (1, 2), init, grid, potential,
                            cfg.params(), solver, levels)

    return cfg, sweep, wells + list(levels.values())


@pytest.fixture(scope="module")
def twin_2d_sweep(twin_2d):
    return twin_2d[1]()


def test_two_d_newton_sweep_matches_reference_energies(twin_2d_sweep):
    want = _reference_phi_total("twin-wells-2d", "1+2")
    assert sorted(want) == [st.lam for st in twin_2d_sweep]
    for st in twin_2d_sweep:
        assert abs(st.report.total - want[st.lam]) <= 1e-10 * abs(want[st.lam])


def test_two_d_newton_step_count_guard(twin_2d_sweep):
    # deterministic work counter: 5, 2, 1 Newton steps when pinned, from
    # the level fields after the first lambda (5, 4, 3 by continuation)
    assert [st.stop_reason for st in twin_2d_sweep] == ["converged"] * 3
    assert all(st.iterations <= 5 for st in twin_2d_sweep)


def test_two_d_minres_iteration_guard(twin_2d_sweep):
    # deterministic work counter: 93 MINRES iterations over the sweep
    # (75, 14, 4), pinned or not, with the well-box preconditioner; 185
    # (175, 9, 1) with 1 / |d| alone, 408 by continuation from each
    # previous field, 284 with the forcing term unfloored, 763 when every
    # step is solved to a relative residual of 1e-12
    inner = [st.inner_iterations for st in twin_2d_sweep]
    assert all(n > 0 for n in inner)
    assert sum(inner) <= 100


@pytest.fixture(scope="module")
def twin_2d_local(twin_2d):
    return twin_2d[2]


def test_two_d_local_solves_converge_with_morse_index_one(twin_2d_local):
    assert len(twin_2d_local) == 8
    for rec in twin_2d_local:
        assert rec.converged and rec.morse_index == 1
        assert rec.inner_iterations > 0


def test_two_d_local_solve_work_guard(twin_2d_local):
    # deterministic work counters: 3, 3, 4, 4, 4, 4, 3, 3 Newton steps and
    # 266 MINRES iterations (18, 18, 62, 62, 33, 33, 20, 20) over the eight
    # solves, pinned or not, with the well-box preconditioner; 1,088 with
    # 1 / |d| alone (1,276 with the forcing term unfloored)
    assert all(rec.iterations <= 5 for rec in twin_2d_local)
    assert sum(rec.inner_iterations for rec in twin_2d_local) <= 290


def test_two_d_newton_steps_stay_at_the_diagonal_preconditioner_counts(
        twin_2d_local, twin_2d_sweep):
    # the well-box preconditioner's M^-1-norm stop, a tenth of the forcing
    # term, adds no Newton step to any solve of the workload: 1 / |d| took
    # 3, 3, 4, 4, 4, 4, 4, 4 steps for the ground states and levels and
    # 5, 2, 1 for the sweep (3, 3, 4, 4, 4, 4, 3, 3 and 5, 2, 1 now)
    steps = [rec.iterations for rec in twin_2d_local + twin_2d_sweep]
    before = [3, 3, 4, 4, 4, 4, 4, 4, 5, 2, 1]
    assert all(0 < n <= m for n, m in zip(steps, before, strict=True)), steps


def test_two_d_sweep_preconditions_the_selected_wells_only(monkeypatch):
    # a block on a well the selection leaves out slows MINRES down, so the
    # sweep's M holds one per selected well: 70 MINRES iterations here,
    # 161 with 1 / |d| alone and 280 with a block on well 2 too (on the
    # lambda = 10 one-well sweep of twin-wells-2d's gamma = all, 657 with
    # both blocks against 299 with 1 / |d|)
    geometry = WellGeometry(
        dim=2,
        wells=(Box((-3.0, 0.0), (2.0, 2.0)), Box((3.0, 0.0), (2.0, 2.0))),
        enlargements=(Box((-3.0, 0.0), (2.6, 2.6)), Box((3.0, 0.0), (2.6, 2.6))),
    )
    potential = PotentialSpec(geometry, cap=1.0, power=1.0)
    grid = Grid(dim=2, r=7.0, n=63)
    x, y = interior_mesh(grid)
    init = Field(grid, np.exp(1.0 - 0.5 * ((x + 3.0) ** 2 + y * y)))  # the Gausson
    built = []
    preconditioner = solver_module._block_preconditioner

    def recorded(minv, blocks):
        built.append([box for box, _ in blocks])
        return preconditioner(minv, blocks)

    monkeypatch.setattr(solver_module, "_block_preconditioner", recorded)
    rec = solve_auxiliary(1e2, (1,), init, grid, potential, make_params(), SolverConfig())
    assert rec.converged and rec.morse_index == 1 and rec.bump_mask == (1,)
    closed = box_nodes(geometry.wells[0], grid, strict=False)
    assert built and all(b == [solver_module._interior(closed)] for b in built)
    counts = []
    for boxes in ([], [closed, box_nodes(geometry.wells[1], grid, strict=False)]):
        monkeypatch.setattr(PenalizedFunctional, "well_nodes",
                            lambda self, b=boxes: [solver_module._interior(s) for s in b])
        other = solve_auxiliary(1e2, (1,), init, grid, potential, make_params(),
                                SolverConfig())
        assert other.converged and other.morse_index == 1
        counts.append(other.inner_iterations)
    assert 0 < rec.inner_iterations < min(counts)


def test_two_d_local_inertia_breakdown_leaves_the_morse_index_open(monkeypatch):
    # a Schur block near singular in the final inertia count: the solve
    # stays converged, with no Morse index
    def singular(*args):
        raise SolveError("block LDL^T breakdown: Schur block near singular")

    geometry, potential, grid = _small_2d()
    monkeypatch.setattr(BlockTridiagonalLDL, "negative_eigenvalues",
                        staticmethod(singular))
    for rec in (solve_single_well(geometry, 1, grid, SolverConfig()),
                solve_neumann_well(1e2, 1, grid, potential, SolverConfig())):
        assert rec.converged and rec.stop_detail == ""
        assert math.isnan(rec.morse_index)


def test_two_d_newton_morse_index_is_bump_count(twin_2d, twin_2d_sweep):
    cfg = twin_2d[0]
    grid = cfg.grid()
    boxes = [tuple(slice(s.start - 1, s.stop - 1)
                   for s in box_nodes(e, grid, strict=False))
             for e in cfg.geometry().enlargements]
    assert [b.stop - b.start for b in boxes[0]] == [47, 47]
    for st in twin_2d_sweep:
        assert st.morse_index == 2
        fun = PenalizedFunctional(grid, cfg.potential(), cfg.params(), (1, 2), st.lam)
        d = fun.evaluate(st.field.values)[2]
        assert solver_module._morse_enclosure(d, boxes, grid.h, st.field.values) == 2
        assert whole_box_negative_eigenvalues(d, grid.h) == 2


def test_two_d_newton_sweep_reruns_bit_identical(twin_2d, twin_2d_sweep):
    for a, b in zip(twin_2d_sweep, twin_2d[1]()):
        assert np.array_equal(a.field.values, b.field.values)
        assert a.residuals == b.residuals
        assert a.energies == b.energies
        assert a.morse_index == b.morse_index


# -- factored Jacobian solves (2D) --------------------------------------------------


def _random_spd_five_point(rng, ny, nx):
    """Diagonally dominant (ny, nx) diagonal with random couplings along
    axis 0 and axis 1, and the dense matrix they make."""
    off0 = rng.standard_normal((ny - 1, nx))
    off1 = rng.standard_normal((ny, nx - 1))
    diag = 1.0 + rng.random((ny, nx))
    diag[:-1] += np.abs(off0)
    diag[1:] += np.abs(off0)
    diag[:, :-1] += np.abs(off1)
    diag[:, 1:] += np.abs(off1)
    dense = np.diag(diag.ravel())
    idx = np.arange(ny * nx).reshape(ny, nx)
    for couple, a, b in ((off0, idx[:-1], idx[1:]), (off1, idx[:, :-1], idx[:, 1:])):
        dense[a.ravel(), b.ravel()] = dense[b.ravel(), a.ravel()] = couple.ravel()
    return diag, off0, off1, dense


@pytest.mark.parametrize("shape", [(7, 5), (1, 6), (6, 1)])
def test_block_ldl_matches_dense_solve(shape):
    # the inertia of the dense matrix, SPD on every shape, single rows and
    # columns included
    rng = np.random.default_rng(4)
    diag, off0, off1, dense = _random_spd_five_point(rng, *shape)
    assert np.linalg.eigvalsh(dense).min() > 0.0
    assert BlockTridiagonalLDL.negative_eigenvalues(diag, off0, off1) == 0


def test_block_ldl_indefinite_inertia():
    rng = np.random.default_rng(5)
    diag, off0, off1, dense = _random_spd_five_point(rng, 4, 3)
    shift = np.sort(np.linalg.eigvalsh(dense))[1:3].mean()
    want = int(np.sum(np.linalg.eigvalsh(dense - shift * np.eye(12)) < 0.0))
    assert BlockTridiagonalLDL.negative_eigenvalues(diag - shift, off0, off1) == want == 2


def _small_2d():
    """One square 2D well resolved by 39 x 39 nodes."""
    geometry = WellGeometry(
        dim=2,
        wells=(Box((0.0, 0.0), (2.0, 2.0)),),
        enlargements=(Box((0.0, 0.0), (2.5, 2.5)),),
    )
    potential = PotentialSpec(geometry, cap=1.0, power=1.0)
    return geometry, potential, Grid(dim=2, r=3.0, n=61)


@pytest.mark.parametrize("name", ["single_well", "neumann"])
def test_five_point_apply_matches_local_jacobian_2d(name):
    # the 2D Newton step's apply, with the local problem's coupling arrays
    _, potential, grid = _small_2d()
    rng = np.random.default_rng(6)
    if name == "single_well":
        # a rectangle of 35 x 19 nodes, so the two axes differ
        prob = _LocalWell.dirichlet(Box((0.0, 0.3), (1.75, 0.95)), grid)
    else:
        prob = _LocalWell.neumann(1e3, 1, grid, potential)
    u = 0.5 + rng.random(prob.w.shape)
    (diag, off), apply = _local_jacobian(prob, u, name == "neumann")
    assert len(off) == 2
    five_point = five_point_apply(diag, off)
    for _ in range(2):  # the second call reuses the first one's buffer
        x = rng.standard_normal(diag.shape)
        want = apply(x)
        assert np.abs(five_point(x) - want).max() <= 1e-13 * np.abs(want).max()


def test_two_d_well_solves_never_call_cg(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("conjugate_gradient called by a well solve")

    geometry, potential, grid = _small_2d()
    monkeypatch.setattr(solver_module, "conjugate_gradient", forbidden)
    config = SolverConfig(max_iters=5)
    solve_single_well(geometry, 1, grid, config)
    solve_neumann_well(1e2, 1, grid, potential, config)


@pytest.mark.parametrize("dim", [1, 2])
def test_dirichlet_local_stencil_matches_neg_laplacian(dim):
    # a field that vanishes off the well: the zero ghosts of the local
    # operator are the zero values of the whole-box field.  The operator
    # sums its couplings in another order than the stencil, so the two
    # agree to rounding, not bit for bit.
    grid = Grid(dim=dim, r=3.0, n=61 if dim == 2 else 121)
    prob = _LocalWell.dirichlet(Box((0.3,) * dim, (1.75,) * dim), grid)
    assert np.array_equal(prob.w, np.ones(prob.w.shape)) and prob.lam_v == 0.0
    u = np.random.default_rng(7).random(prob.w.shape)
    full = np.zeros(grid.interior_shape)
    window = tuple(slice(s.start - 1, s.stop - 1) for s in prob.nodes)
    full[window] = u
    expected = neg_laplacian(Field(grid, full)).values[window]
    assert np.abs(prob.apply(u) - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_mirror_stencil_pairing_is_face_sum(dim):
    geometry, potential, _ = _small_2d()
    if dim == 1:
        geometry = WellGeometry(dim=1, wells=(Box((0.0,), (2.0,)),),
                                enlargements=(Box((0.0,), (2.5,)),))
        potential = PotentialSpec(geometry, cap=1.0, power=1.0)
    grid = Grid(dim=dim, r=3.0, n=61)
    # at lambda = 0 the operator W(B + lambda V) is W B
    prob = _LocalWell.neumann(0.0, 1, grid, potential)
    u = np.random.default_rng(8).random(prob.w.shape)
    pairing = float(np.sum(prob.apply(u) * u))
    if dim == 1:
        faces = np.sum(np.diff(u) ** 2)
    else:
        # a face along an edge row of the other axis carries its half weight
        w0, w1 = (np.r_[0.5, np.ones(m - 2), 0.5] for m in u.shape)
        faces = np.sum(np.diff(u, axis=0) ** 2 * w1) + np.sum(
            np.diff(u, axis=1) ** 2 * w0[:, None]
        )
    faces /= grid.h**2
    assert abs(pairing - faces) <= 1e-12 * faces


def test_single_well_2d_nonlinearity_stays_on_the_window(monkeypatch):
    geometry, _, grid = _small_2d()
    shapes = []
    s_log_sq = solver_module.s_log_sq

    def recorded(values):
        shapes.append(np.shape(values))
        return s_log_sq(values)

    monkeypatch.setattr(solver_module, "s_log_sq", recorded)
    solve_single_well(geometry, 1, grid, SolverConfig(max_iters=5))
    window = _LocalWell.dirichlet(geometry.wells[0], grid).w.shape
    assert window == (39, 39)
    assert shapes and set(shapes) == {window}


def test_single_well_2d_determinism():
    geometry, potential, grid = _small_2d()
    config = SolverConfig(max_iters=30)
    a = solve_single_well(geometry, 1, grid, config)
    b = solve_single_well(geometry, 1, grid, config)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.residuals == b.residuals
    assert a.inner_iterations == b.inner_iterations > 0
    levels = [solve_neumann_well(1e2, 1, grid, potential, config) for _ in range(2)]
    assert np.array_equal(levels[0].values, levels[1].values)
    assert vars(levels[0]) | {"values": None} == vars(levels[1]) | {"values": None}
    assert levels[0].inner_iterations > 0


def test_cg_rejects_non_finite_rhs():
    b = np.array([1.0, math.nan, 1.0])
    with pytest.raises(SolveError, match="non-finite"):
        conjugate_gradient(lambda v: v, b, np.zeros(3), 1e-12, 100)


@pytest.mark.parametrize("dim", [1, 2])
def test_auxiliary_non_finite_init_stops_at_once(dim):
    offset = (0.0,) * (dim - 1)
    wells = (Box((-3.0,) + offset, (2.0,) * dim), Box((3.0,) + offset, (2.0,) * dim))
    geometry = WellGeometry(
        dim=dim,
        wells=wells,
        enlargements=tuple(Box(w.center, (2.6,) * dim) for w in wells),
    )
    potential = PotentialSpec(geometry, cap=1.0, power=1.0)
    grid = Grid(dim=dim, r=7.0, n=63)
    values = np.ones(grid.interior_shape)
    values[(grid.n // 3,) * dim] = math.nan
    rec = solve_auxiliary(1e4, (1, 2), Field(grid, values), grid, potential,
                          make_params(), SolverConfig())
    assert (rec.stop, rec.iterations, rec.residuals, rec.energies) == (
        "non-finite", 0, [], [])
    assert math.isnan(rec.morse_index) and rec.inner_iterations == 0
    assert np.array_equal(rec.field.values, values, equal_nan=True)


def test_one_d_solve_imports_no_scipy():
    # importing scipy doubles peak RSS; the 2D Newton step's MINRES is numpy
    src = Path(solver_module.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from logbump import (Box, Grid, PotentialSpec, SolverConfig, WellGeometry,"
        " make_params, solve_auxiliary, solve_neumann_well, solve_single_well)\n"
        "g = WellGeometry(dim=1, wells=(Box((0.0,), (2.5,)),),"
        " enlargements=(Box((0.0,), (3.5,)),))\n"
        "grid = Grid(dim=1, r=6.0, n=241)\n"
        "solve_single_well(g, 1, grid, SolverConfig(max_iters=3))\n"
        "g2 = WellGeometry(dim=2, wells=(Box((0.0, 0.0), (2.0, 2.0)),),"
        " enlargements=(Box((0.0, 0.0), (2.5, 2.5)),))\n"
        "grid2 = Grid(dim=2, r=3.0, n=61)\n"
        "w = solve_single_well(g2, 1, grid2, SolverConfig(max_iters=3))\n"
        "solve_neumann_well(1e2, 1, grid2, PotentialSpec(g2),"
        " SolverConfig(max_iters=3))\n"
        "solve_auxiliary(1e2, (1,), w.field, grid2, PotentialSpec(g2), make_params(),"
        " SolverConfig(max_iters=2))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
