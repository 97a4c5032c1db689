"""Acceptance suite: every headline property at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline), and
the assertions pin the exact tolerances, so a red line here means the
artifact no longer meets its contract.
"""

import math

import numpy as np
from logbump.domain import Field, integrate, masks
from logbump.functional import PenalizedFunctional, nehari_check
from logbump.penalty import make_params, sq_log_sq
from logbump.solver import (
    _LocalWell,
    minimax_upper_bound,
    multi_bump_init,
    solve_auxiliary,
    solve_neumann_well,
    solve_single_well,
)
from logbump.verify import gausson_order_study, linfty_threshold
from oracles import Splitting

GAUSSON_HALF_MASS = 0.5 * math.e * math.sqrt(math.pi)


def _line(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def smooth_random_field(grid, rng, scale=2.0, passes=40):
    vals = rng.standard_normal(grid.interior_shape)
    for _ in range(passes):
        pad = np.pad(vals, 1)
        vals = 0.25 * pad[:-2] + 0.5 * vals + 0.25 * pad[2:]
    return Field(grid, vals * (scale / max(1e-12, np.abs(vals).max())))


def test_criterion_01_splitting_identity():
    params = Splitting(make_params())
    s = np.logspace(-8.0, 3.0, 10000)
    s = np.concatenate([s, -s, [0.0]])
    resid = np.abs(
        np.asarray(params.f2(s))
        - np.asarray(params.f1(s))
        - 0.5 * np.asarray(sq_log_sq(s))
    )
    worst = float(resid.max())
    _line(1, worst < 1e-12,
          f"splitting identity max residual {worst:.3e} < 1e-12 "
          f"over 10^4 log-spaced samples in [1e-8, 1e3]")


def test_criterion_02_derivative_consistency(ref):
    params = Splitting(ref.params)
    eps = 1e-5
    worst_d = 0.0
    for x in (0.05, 0.3, 0.9, 1.7, 3.3, -0.4, -2.1):
        fd1 = (params.f1(x + eps) - params.f1(x - eps)) / (2 * eps)
        fd2 = (params.f2(x + eps) - params.f2(x - eps)) / (2 * eps)
        worst_d = max(
            worst_d,
            abs(fd1 - params.df1(x)) / (1.0 + abs(params.df1(x))),
            abs(fd2 - params.df2(x)) / (1.0 + abs(params.df2(x))),
        )
    fun = PenalizedFunctional(ref.grid, ref.potential, ref.params, (1, 2), 100.0)
    rng = np.random.default_rng(11)
    worst_g = 0.0
    for _ in range(20):
        u = smooth_random_field(ref.grid, rng)
        v = smooth_random_field(ref.grid, rng)
        lhs = ref.grid.h * float(np.dot(fun.evaluate(u.values)[1], v.values))
        rhs = (
            fun.phi_total(u.values + eps * v.values)
            - fun.phi_total(u.values - eps * v.values)
        ) / (2.0 * eps)
        worst_g = max(worst_g, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    ok = worst_d < 1e-6 and worst_g < 1e-6
    _line(2, ok,
          f"derivative vs central differences {worst_d:.3e}, residual "
          f"pairing vs energy difference {worst_g:.3e}, both < 1e-6")


def test_criterion_03_gausson_order():
    s1 = gausson_order_study(1, 8.0, (129, 257, 513, 1025))
    s2 = gausson_order_study(2, 8.0, (65, 129, 257))
    ok = all(
        1.9 <= s.fitted_order <= 2.1 and all(3.6 <= r <= 4.4 for r in s.ratios)
        for s in (s1, s2)
    )
    _line(3, ok,
          f"residual decay orders {s1.fitted_order:.3f} (1d) and "
          f"{s2.fitted_order:.3f} (2d) within 2.0 +- 0.1")


def test_criterion_04_nehari_machinery(wide_well):
    # the closed-form scale of the Newton loop's projection, on the well's
    # own nodes, against bisection on the Nehari constraint over the well
    geometry, grid, rec = wide_well
    m = masks(geometry, grid, (1,))
    vals = np.where(
        m.well[1:-1], 1.4 * np.exp(-0.55 * grid.axis[1:-1] ** 2), 0.0
    )
    prob = _LocalWell.dirichlet(geometry.wells[0], grid)
    local = vals[tuple(slice(s.start - 1, s.stop - 1) for s in prob.nodes)]
    t_closed = float(np.max(prob.nehari_project(local)[0]) / np.max(local))

    def constraint(t):
        return nehari_check(Field(grid, t * vals), m.well).constraint

    lo, hi = 1e-3, 1e3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if constraint(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    gap_bisect = abs(t_closed - 0.5 * (lo + hi))

    chk = nehari_check(Field(grid, t_closed * vals), m.well)
    identity_rel = chk.identity_gap / abs(chk.energy)

    level_lo = 0.999 * GAUSSON_HALF_MASS
    level_hi = 1.05 * GAUSSON_HALF_MASS
    ok = (
        gap_bisect < 1e-8
        and identity_rel < 1e-8
        and level_lo <= rec.energy <= level_hi
    )
    _line(4, ok,
          f"closed-form vs bisection {gap_bisect:.2e} < 1e-8, identity "
          f"{identity_rel:.2e} < 1e-8, wide-well level {rec.energy:.6f} in "
          f"[{level_lo:.4f}, {level_hi:.4f}]")


def test_criterion_05_linfty_truncation_bound(ref, ref_run, ref_top_rows):
    # the rows `logbump run` wrote for every selection of the reference
    a0 = ref.params.a0
    top = ref_top_rows.values()
    worst = max(row.sup_outside for row in top)
    thresholds = [
        linfty_threshold([r for r in ref_run.rows if r.gamma == gamma])
        for gamma in ref_top_rows
    ]
    ok = (
        worst <= a0
        and all(row.converged for row in top)
        and None not in thresholds
    )
    _line(5, ok,
          f"sup outside the enlargements {worst:.3e} <= a0 = {a0:.4f} for "
          f"every converged solution at lambda = 1e4; empirical lambda "
          f"thresholds {', '.join('never' if t is None else f'{t:g}' for t in thresholds)}")


def test_criterion_06_localization_trend(ref_sweep):
    lv = [st.report.lambda_v_mass for st in ref_sweep]
    on = [st.report.outside_norm_sq for st in ref_sweep]
    ok = True
    worst = 0.0
    for seq in (lv, on):
        tail = seq[-3:]
        ratios = [b / a for a, b in zip(tail, tail[1:])]
        worst = max(worst, max(ratios))
        ok &= all(r <= 1.05 for r in ratios)
    _line(6, ok,
          f"lambda*int(V u^2) = {[f'{v:.2e}' for v in lv]} and outside norm "
          f"= {[f'{v:.2e}' for v in on]} decrease over the sweep tail "
          f"(worst ratio {worst:.3f} <= 1.05)")


def test_criterion_07_energy_sandwich_and_limit(ref, ref_wells, ref_sweep,
                                                ref_big_t):
    lam = ref.config.lambdas[-1]
    c_gamma = sum(r.energy for r in ref_wells)
    b_upper = minimax_upper_bound(
        lam, (1, 2), [r.field for r in ref_wells], ref_big_t, ref.grid,
        ref.potential, ref.params
    )
    c_lambda = [
        solve_neumann_well(lam, j, ref.grid, ref.potential, ref.solver).c_lambda
        for j in (1, 2)
    ]
    eps = 0.02 * c_gamma
    sandwich_ok = sum(c_lambda) - eps <= b_upper <= c_gamma + eps
    gap = abs(ref_sweep[-1].report.total - c_gamma) / c_gamma
    ok = sandwich_ok and gap < 0.01
    _line(7, ok,
          f"sum c_lambda = {sum(c_lambda):.6f} <= b_upper = {b_upper:.6f} "
          f"<= c_Gamma = {c_gamma:.6f} within 2%, and the converged energy "
          f"gap {gap:.3e} < 1% at lambda = 1e4")


def test_criterion_08_multiplicity(ref_top_rows):
    # the rows `logbump run` wrote at lambda = 1e4, one per selection
    top = ref_top_rows.values()
    masks_seen = {row.occupied for row in top}
    ok = (
        sorted(ref_top_rows) == [(1,), (1, 2), (2,)]
        and masks_seen == {(1,), (2,), (1, 2)}
        and all(row.occupied == row.gamma for row in top)
        and all(row.converged and row.lam == 1e4 for row in top)
    )
    _line(8, ok,
          f"the run's sweep at lambda = 1e4 produced {len(masks_seen)} "
          f"converged solutions with distinct occupation masks "
          f"{sorted(masks_seen)}")


def test_criterion_09_scaling_identity(ref):
    fun = PenalizedFunctional(ref.grid, ref.potential, ref.params, (1, 2), 300.0)
    xs = ref.grid.axis[1:-1]
    reach = 2.5 - 2.0 * ref.grid.h
    vals = np.exp(-((xs + 5.0) ** 2)) * np.maximum(reach - np.abs(xs + 5.0), 0.0)
    vals += np.exp(-((xs - 5.0) ** 2)) * np.maximum(reach - np.abs(xs - 5.0), 0.0)
    base = fun.phi_total(vals)
    mass = integrate(vals * vals, ref.grid)
    worst = 0.0
    for s in (0.5, 2.0):
        lhs = fun.phi_total(s * vals)
        rhs = s * s * (base - math.log(s) * mass)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(base)))
    _line(9, worst < 1e-8,
          f"energy scaling law residual {worst:.3e} < 1e-8 for s in "
          "{0.5, 2} on a well-supported profile")


def test_criterion_10_determinism_and_r_robustness(ref, ref_wells, ref_big_t,
                                                   ref_sweep):
    lam = ref.config.lambdas[-1]
    init = multi_bump_init([r.field for r in ref_wells],
                           [1.0 / ref_big_t] * 2, ref_big_t)
    a = solve_auxiliary(lam, (1, 2), init, ref.grid, ref.potential, ref.params,
                        ref.solver)
    b = solve_auxiliary(lam, (1, 2), init, ref.grid, ref.potential, ref.params,
                        ref.solver)
    identical = np.array_equal(a.field.values, b.field.values)

    # double the box with the spacing fixed
    import dataclasses

    from logbump.cli import canonical_text, parse_config_text

    big = parse_config_text(
        canonical_text(dataclasses.replace(ref.config, r=24.0, n=961))
    )
    grid2 = big.grid()
    geom2 = big.geometry()
    pot2 = big.potential()
    wells2 = [solve_single_well(geom2, j, grid2, big.solver_config())
              for j in (1, 2)]
    init2 = multi_bump_init([r.field for r in wells2],
                            [1.0 / ref_big_t] * 2, ref_big_t)
    rec2 = solve_auxiliary(lam, (1, 2), init2, grid2, pot2, big.params(),
                           big.solver_config())
    e1 = a.energy
    e2 = rec2.energy
    rel = abs(e1 - e2) / abs(e1)
    ok = identical and rel < 1e-3
    _line(10, ok,
          f"rerun bit-identical: {identical}; energy change when the box "
          f"doubles at fixed spacing: {rel:.2e} < 1e-3")
