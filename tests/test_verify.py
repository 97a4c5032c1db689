"""Verification harness: verdicts, limit tables, multiplicity on pipeline
runs, and order studies."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from logbump.cli import parse_config, parse_config_text, rows_from_csv, run
from logbump.domain import Field, Grid, box_mask_full, masks
from logbump.verify import (
    TREND_SLACK,
    LimitRow,
    SweepRow,
    check_limit_problem,
    check_linfty_outside,
    check_sandwich,
    compute_verdicts,
    linfty_threshold,
)
from oracles import (
    gausson_order_study,
    integrate,
    level_start,
    log_equation_residual_norm,
    multi_bump_init,
    restricted_norm_sq,
)


def make_row(lam, gamma=(1, 2), sup=1e-8, lamv=1e-3, outn=1e-2, phi=4.8,
             b=4.81, cg=4.82, occ=None, conv=True, frac=0.999, min_u=0.0):
    return SweepRow(
        lam=lam,
        gamma=gamma,
        converged=conv,
        phi_total=phi,
        b_upper=b,
        c_gamma=cg,
        lambda_v_mass=lamv,
        outside_norm_sq=outn,
        sup_outside=sup,
        a0=0.3,
        min_u=min_u,
        mass_frac=frac,
        occupied=gamma if occ is None else occ,
        i_lambda=(2.4, 2.4),
        c_dirichlet=(2.41, 2.41),
        c_lambda=(2.405, 2.405),
    )


# -- elementary checks ---------------------------------------------------------


def test_linfty_check_and_threshold():
    assert check_linfty_outside(0.1, 0.3) == pytest.approx(0.2)
    assert check_linfty_outside(0.5, 0.3) < 0.0
    # zero field trivially passes with full margin
    assert check_linfty_outside(0.0, 0.3) == 0.3

    rows = [
        make_row(0.01, sup=0.9),   # below-threshold regime: recorded, not fatal
        make_row(10.0, sup=0.2),
        make_row(100.0, sup=0.01),
    ]
    assert linfty_threshold(rows) == 10.0
    rows_bad = rows + [make_row(1000.0, sup=0.8)]
    assert linfty_threshold(rows_bad) is None


def test_sandwich_check():
    assert check_sandwich(4.80, 4.81, 4.82) >= 0.0
    assert check_sandwich(4.99, 4.81, 4.82) < 0.0  # lower bound violated
    assert check_sandwich(4.80, 5.00, 4.82) < 0.0  # upper bound violated
    # the allowance rescues small violations
    assert check_sandwich(4.83, 4.81, 4.82) >= 0.0


def _passing_rows(unconverged=None):
    """Rows of every selection that pass every verdict; the row of the
    (lambda, gamma) `unconverged` did not converge."""
    rows = []
    for gamma in ((1,), (2,), (1, 2)):
        for lam in (10.0, 100.0, 1000.0, 10000.0):
            scale = 1000.0 / lam if lam >= 100 else 1.0
            rows.append(make_row(lam, gamma=gamma, lamv=1e-3 * scale, outn=1e-2 * scale,
                                 conv=(lam, gamma) != unconverged))
    return rows


def test_verdicts_all_pass_and_multiplicity():
    verdicts = {v.name: v for v in compute_verdicts(_passing_rows(), k=2)}
    assert set(verdicts) == {
        "convergence", "positivity", "linfty_outside", "localization_trend",
        "energy_sandwich", "limit_energy_gap", "bump_fidelity", "multiplicity",
    }
    assert all(v.passed for v in verdicts.values())


def test_verdicts_catch_failures():
    rows = [make_row(10.0), make_row(100.0), make_row(1000.0, sup=0.5)]
    verdicts = {v.name: v for v in compute_verdicts(rows, k=2)}
    assert not verdicts["linfty_outside"].passed

    rows = [make_row(10.0, lamv=1e-4), make_row(100.0, lamv=2e-4),
            make_row(1000.0, lamv=4e-4)]
    verdicts = {v.name: v for v in compute_verdicts(rows, k=2)}
    assert not verdicts["localization_trend"].passed

    rows = [make_row(10.0, occ=(1,))]
    verdicts = {v.name: v for v in compute_verdicts(rows, k=2)}
    assert not verdicts["positivity"].passed

    rows = [make_row(10.0, conv=False)]
    verdicts = {v.name: v for v in compute_verdicts(rows, k=2)}
    assert not verdicts["convergence"].passed

    rows = [make_row(10.0, phi=4.0)]  # 17% off the limit level
    verdicts = {v.name: v for v in compute_verdicts(rows, k=2)}
    assert not verdicts["limit_energy_gap"].passed


def test_verdict_multiplicity_requires_distinct_masks():
    rows = [
        make_row(10.0, gamma=(1,), occ=(1,)),
        make_row(10.0, gamma=(2,), occ=(1,)),   # migrated to the wrong well
        make_row(10.0, gamma=(1, 2), occ=(1, 2)),
    ]
    verdicts = {v.name: v for v in compute_verdicts(rows, k=2)}
    assert not verdicts["multiplicity"].passed


def test_verdict_multiplicity_fails_on_missing_selection():
    rows = [make_row(10.0, gamma=(1,)), make_row(10.0, gamma=(1, 2))]
    asked = [(1,), (2,), (1, 2)]
    verdicts = {v.name: v for v in compute_verdicts(rows, k=2, selections=asked)}
    assert not verdicts["multiplicity"].passed
    assert verdicts["multiplicity"].detail.endswith("no rows for gamma 2")
    assert not verdicts["convergence"].passed
    assert verdicts["convergence"].detail.endswith("no rows for gamma 2")
    # a run that asked for a subset gets no multiplicity verdict
    subset = compute_verdicts(rows, k=2, selections=[(1,), (1, 2)])
    assert "multiplicity" not in {v.name for v in subset}
    assert all(v.passed for v in subset if v.name == "convergence")


def test_verdict_convergence_fails_on_a_selection_without_rows():
    # a lone selection whose solves were skipped leaves no row to pass on
    verdicts = {v.name: v for v in compute_verdicts([], k=2, selections=[(2,)])}
    assert not verdicts["convergence"].passed
    assert verdicts["convergence"].detail == "no rows for gamma 2"
    # a recorded row that did not converge is named in front of the missing ones
    flagged = [make_row(10.0, gamma=(1,), conv=False)]
    verdicts = {v.name: v for v in compute_verdicts(flagged, k=2, selections=[(1,), (2,)])}
    assert verdicts["convergence"].detail == "flagged solves present; no rows for gamma 2"


ROW_VERDICTS = ("positivity", "linfty_outside", "localization_trend",
                "energy_sandwich", "limit_energy_gap", "bump_fidelity")


@pytest.mark.parametrize("name", ROW_VERDICTS)
def test_row_verdict_with_nothing_to_judge_fails(name):
    # every well failed, so no selection has a row to pass on
    asked = [(1,), (2,), (1, 2)]
    verdict = {v.name: v for v in compute_verdicts([], k=2, selections=asked)}[name]
    assert not verdict.passed
    assert math.isnan(verdict.margin)
    assert verdict.detail == "nothing to judge"


@pytest.mark.parametrize("name", ROW_VERDICTS)
def test_row_verdict_fails_on_an_unconverged_row(name):
    # gamma 2's solve at the largest lambda did not converge: its margin
    # is nan wherever it is judged, and multiplicity does not count its mask
    verdicts = {v.name: v for v in compute_verdicts(_passing_rows((10000.0, (2,))), k=2)}
    assert not verdicts[name].passed and math.isnan(verdicts[name].margin)
    assert not verdicts["multiplicity"].passed
    assert verdicts["multiplicity"].detail == "2 distinct occupation masks of 3 expected"


def test_linfty_thresholds_come_from_converged_rows():
    # gamma 2 converged at no lambda, so its threshold reads never although
    # the sup bound holds on all of its rows; gamma 1's row at lambda = 100
    # breaks the bound but did not converge, so its threshold is 10
    rows = [make_row(10.0, gamma=(1,)), make_row(100.0, gamma=(1,), sup=0.5, conv=False)]
    rows += [make_row(lam, gamma=(2,), conv=False) for lam in (100.0, 10000.0)]
    linfty = {v.name: v for v in compute_verdicts(rows, k=2)}["linfty_outside"]
    assert linfty.detail == "empirical lambda thresholds gamma=1: 10; gamma=2: never"
    assert not linfty.passed and math.isnan(linfty.margin)


def test_one_lambda_sweep_fails_only_the_trend():
    rows = [make_row(1e4, gamma=g) for g in ((1,), (1, 2), (2,))]
    verdicts = compute_verdicts(rows, k=2)
    assert [v.name for v in verdicts if not v.passed] == ["localization_trend"]


def test_two_lambda_sweep_judges_the_trend():
    rows = [make_row(100.0, lamv=1e-4), make_row(1e4, lamv=2e-4)]
    trend = {v.name: v for v in compute_verdicts(rows, k=2)}["localization_trend"]
    assert not trend.passed
    assert trend.margin == TREND_SLACK - 2.0
    assert trend.detail == f"worst tail ratio 2.0000 (slack {TREND_SLACK})"


@pytest.mark.parametrize("nan_gamma", [(1,), (2,)])
def test_nan_energy_fails_the_gap_wherever_it_sorts(nan_gamma):
    # (1,) sorts first and (2,) last; the nan margin is reported either way
    rows = [make_row(1e4, gamma=g, phi=math.nan if g == nan_gamma else 4.8)
            for g in ((1,), (1, 2), (2,))]
    gap = {v.name: v for v in compute_verdicts(rows, k=2)}["limit_energy_gap"]
    assert not gap.passed
    assert math.isnan(gap.margin)
    assert gap.detail == "worst relative gap nan at the largest lambda"


# -- limit problem -----------------------------------------------------------------


def test_limit_problem_table(ref, ref_wells, ref_sweep):
    c_gamma = sum(r.energy for r in ref_wells)
    table = check_limit_problem(ref_sweep, level_start(ref_wells, ref.grid))
    assert [row.lam for row in table] == list(ref.config.lambdas)
    gaps = [row.h1_gap for row in table]
    assert gaps[-1] <= gaps[-2] * 1.05
    assert abs(ref_sweep[-1].energy - c_gamma) / abs(c_gamma) < 0.01
    assert all(isinstance(row, LimitRow) for row in table)


def test_limit_problem_single_well(ref, ref_wells, ref_levels, ref_big_t):
    from logbump.solver import lambda_sweep

    init = multi_bump_init([ref_wells[0].field], [1.0 / ref_big_t], ref_big_t)
    steps = lambda_sweep([1e3, 1e4], (1,), init, ref.grid, ref.potential,
                         ref.params, ref.solver, ref_levels)
    table = check_limit_problem(steps, init)
    assert [row.lam for row in table] == [1e3, 1e4]
    c_gamma = ref_wells[0].energy
    assert abs(steps[-1].energy - c_gamma) / abs(c_gamma) < 0.01
    assert steps[-1].bump_mask == (1,)


def test_limit_problem_grid_consistency(ref_config):
    # the energy gap at fixed lambda is stable under refinement within O(h^2)
    from logbump.cli import parse_config_text, canonical_text
    from logbump.solver import lambda_sweep, solve_single_well

    gaps = []
    for n in (241, 481):
        import dataclasses

        config = parse_config_text(
            canonical_text(dataclasses.replace(ref_config, n=n))
        )
        grid = config.grid()
        geometry = config.geometry()
        potential = config.potential()
        rec = solve_single_well(geometry, 1, grid, config.solver_config())
        # one lambda: its solve starts from init, so it reads no levels
        steps = lambda_sweep([1e4], (1,), rec.field, grid, potential,
                             config.params(), config.solver_config(), {})
        gaps.append(abs(steps[0].report.total - rec.energy) / rec.energy)
    assert gaps[1] < 0.01 and gaps[0] < 0.02


# -- multiplicity on pipeline runs ---------------------------------------------------


def _verdict_line(out, name):
    lines = (out / "verdicts.txt").read_text().splitlines()
    return next(ln for ln in lines if ln.startswith(f"criterion={name} "))


def test_multiplicity_scan_reference(ref_run, ref_top_rows):
    # the reference run's top-lambda row of each of its 2^2 - 1 selections
    top = list(ref_top_rows.values())
    assert len(top) == 3
    assert len({row.occupied for row in top}) == 3
    assert all(row.occupied == gamma for gamma, row in ref_top_rows.items())
    assert all(row.converged for row in top)
    masks_seen = {row.occupied for row in top}
    assert masks_seen == {(1,), (2,), (1, 2)}
    line = _verdict_line(ref_run.out, "multiplicity")
    assert line.startswith("criterion=multiplicity status=PASS ")
    assert "detail=3 distinct occupation masks of 3 expected" in line


def test_multiplicity_energies_additive(ref_top_rows):
    by_gamma = {gamma: row.phi_total for gamma, row in ref_top_rows.items()}
    lhs = by_gamma[(1, 2)]
    rhs = by_gamma[(1,)] + by_gamma[(2,)]
    assert abs(lhs - rhs) <= 0.02 * abs(lhs)


def test_multiplicity_single_well_geometry(tmp_path):
    # k = 1: the one selection is all 2^1 - 1 of them
    config = parse_config_text(
        "scenario = one-well\nR = 12.0\nn = 481\npotential_power = 1.0\n"
        "well.1.center = -5.0\nwell.1.half = 2.5\nwell.1.enlarged_half = 3.5\n"
    )
    run(config, out_dir=str(tmp_path))
    line = _verdict_line(tmp_path, "multiplicity")
    assert line.startswith("criterion=multiplicity status=PASS ")
    assert "detail=1 distinct occupation masks of 1 expected" in line


def test_multiplicity_four_wells(tmp_path):
    # k = 4: all 15 selections of the bundled four-well config
    path = Path(__file__).resolve().parents[1] / "configs" / "four-wells-1d.cfg"
    config = parse_config(path)
    run(config, out_dir=str(tmp_path))
    rows, k = rows_from_csv((tmp_path / "energies.csv").read_text())
    assert k == 4
    top = {row.gamma: row for row in sorted(rows, key=lambda r: r.lam)}
    assert len(top) == 15
    assert len({row.occupied for row in top.values()}) == 15
    assert all(row.occupied == gamma for gamma, row in top.items())
    assert _verdict_line(tmp_path, "multiplicity").startswith(
        "criterion=multiplicity status=PASS ")
    with open(tmp_path / "solves.csv", newline="") as fh:
        sweeps = [r for r in csv.DictReader(fh) if r["kind"] == "sweep"]
    assert len(sweeps) == 15 * len(config.lambdas) == 60
    for solve in sweeps:
        assert float(solve["morse_index"]) == len(solve["gamma"].split("+"))


# -- per-well level tracking -----------------------------------------------------------


def test_per_well_levels_approach_dirichlet(ref_wells, ref_sweep):
    c = [r.energy for r in ref_wells]
    gaps = [
        max(abs(st.report.per_well[j] - c[j]) for j in range(2))
        for st in ref_sweep
    ]
    assert gaps[-1] <= gaps[-2] * 1.05


# -- order study -------------------------------------------------------------------------


def test_gausson_order_study_1d():
    study = gausson_order_study(1, 8.0, (129, 257, 513, 1025))
    assert all(3.6 <= r <= 4.4 for r in study.ratios)
    assert 1.9 <= study.fitted_order <= 2.1


def test_gausson_order_study_2d():
    study = gausson_order_study(2, 8.0, (65, 129, 257))
    assert all(3.6 <= r <= 4.4 for r in study.ratios)
    assert 1.9 <= study.fitted_order <= 2.1


def test_order_study_negative_control():
    # a plain Gaussian is not a solution; its residual does not vanish
    norms = []
    for n in (257, 513, 1025):
        grid = Grid(dim=1, r=8.0, n=n)
        xs = grid.axis[1:-1]
        norms.append(log_equation_residual_norm(Field(grid, np.exp(-xs * xs))))
    assert min(norms) > 0.5
    assert norms[-1] > 0.9 * norms[0]


# -- bookkeeping ---------------------------------------------------------------------------


def norm_partition_gap(u, region_masks, lam, potential):
    """|full norm - (outside-wells part + per-well parts)|, which must be
    at rounding level because the nodal gradient density is additive."""
    full_mask = np.ones(u.grid.full_shape, dtype=bool)
    total = restricted_norm_sq(u, full_mask, lam, potential)
    parts = restricted_norm_sq(u, region_masks.outside_wells, lam, potential)
    for j in region_masks.gamma:
        well = box_mask_full(potential.geometry.wells[j - 1], u.grid)
        parts += restricted_norm_sq(u, well, lam, potential)
    return abs(total - parts)


def fit_log_envelope(h1_norms, log_masses):
    """Least-squares envelope  int u^2 log u^2 <= A + B log ||u||  over a
    corpus of fields (measurement only; the constants are not universal)."""
    x = np.log(np.asarray(h1_norms, dtype=float))
    y = np.asarray(log_masses, dtype=float)
    b, a = np.polyfit(x, y, 1)
    shift = float(np.max(y - (a + b * x)))
    return a + shift, b


def test_norm_partition_reconstruction(ref, ref_sweep):
    m = masks(ref.geometry, ref.grid, (1, 2))
    u = ref_sweep[-1].field
    gap = norm_partition_gap(u, m, 1e4, ref.potential)
    total = restricted_norm_sq(
        u, np.ones(ref.grid.full_shape, dtype=bool), 1e4, ref.potential
    )
    assert gap <= 1e-10 * total


def test_log_envelope_fit(ref, ref_sweep):
    from logbump.penalty import sq_log_sq

    norms, logs = [], []
    full = np.ones(ref.grid.full_shape, dtype=bool)
    for st in ref_sweep:
        u = st.field
        norms.append(
            math.sqrt(restricted_norm_sq(u, full, st.lam, ref.potential))
        )
        logs.append(integrate(np.asarray(sq_log_sq(u.values)), ref.grid))
    for scale in (0.5, 2.0, 4.0):
        u = ref_sweep[-1].field
        scaled = Field(ref.grid, scale * u.values)
        norms.append(
            math.sqrt(restricted_norm_sq(scaled, full, 1e4, ref.potential))
        )
        logs.append(integrate(np.asarray(sq_log_sq(scaled.values)), ref.grid))
    a_fit, b_fit = fit_log_envelope(norms, logs)
    assert np.isfinite(a_fit) and np.isfinite(b_fit)
    # the fitted envelope dominates the corpus (measurement, not a theorem)
    for nrm, lg in zip(norms, logs):
        assert lg <= a_fit + b_fit * math.log(nrm) + 1e-9
