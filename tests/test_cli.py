"""Config parsing, validation messages, the run pipeline, and reports."""

import filecmp
import math
import os
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from logbump import penalty
from logbump.cli import (
    _WELL_SUFFIXES,
    CONFIG_KEYS,
    REPORT_COLUMNS,
    ConfigError,
    _write_solve_summary,
    canonical_text,
    csv_header,
    main,
    parse_config,
    parse_config_text,
    report,
    row_to_csv,
    rows_from_csv,
    run,
)
from logbump.domain import PotentialSpec
from logbump.solver import (
    SolveError,
    SolverConfig,
    conjugate_gradient,
    solve_auxiliary,
    solve_neumann_well,
)
from logbump.verify import SweepRow

MINIMAL = """
R = 12.0
n = 481
well.1.center = -5.0
well.1.half = 2.5
well.1.enlarged_half = 3.5
well.2.center = 5.0
well.2.half = 2.5
well.2.enlarged_half = 3.5
"""

TINY = """
scenario = tiny
R = 12.0
n = 241
potential_power = 1.0
well.1.center = -5.0
well.1.half = 2.5
well.1.enlarged_half = 3.5
well.2.center = 5.0
well.2.half = 2.5
well.2.enlarged_half = 3.5
lambdas = 100.0, 10000.0
"""


def test_minimal_config_parses_with_defaults():
    config = parse_config_text(MINIMAL)
    assert config.dim == 1
    assert config.gamma == "all"
    assert config.delta == pytest.approx(math.exp(-2.0))
    assert config.lambdas == (10.0, 100.0, 1000.0, 10000.0)
    assert len(config.wells) == 2


def test_canonical_echo_fixed_point():
    config = parse_config_text(MINIMAL)
    echo = canonical_text(config)
    again = parse_config_text(echo)
    assert again == config
    assert canonical_text(again) == echo


def test_bundled_scenario_parses():
    path = Path(__file__).resolve().parent.parent / "configs" / "twin-wells-1d.cfg"
    config = parse_config(path)
    assert config.scenario == "twin-wells-1d"
    assert config.potential_power == 1.0
    assert parse_config_text(canonical_text(config)) == config


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key: spacing"):
        parse_config_text(MINIMAL + "spacing = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(MINIMAL + "well.1.radius = 3\n")
    # the solves always clip negatives and take no flow step; the old
    # switch and step keys are gone
    with pytest.raises(ConfigError, match="unknown key: positivity"):
        parse_config_text(MINIMAL + "positivity = true\n")
    with pytest.raises(ConfigError, match="unknown key: tau_step"):
        parse_config_text(MINIMAL + "tau_step = 0.05\n")


def _minimal_with(key, value):
    """MINIMAL with `key = value` in place of any line it has for key."""
    lines = [ln for ln in MINIMAL.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(lines) + f"\n{key} = {value}\n"


# an out-of-range or unparsable value for every key of the table
BAD_VALUES = {
    "scenario": "",
    "dim": "3",
    "R": "-1.0",
    "n": "2",
    "cap": "0.0",
    "potential_power": "-1.0",
    "delta": "0.5",
    "l": "1.5",
    "p": "2.0",
    "gamma": "1,7",
    "lambdas": "100.0, 10.0",
    "tol": "0.0",
    "max_iters": "0",
    "cg_tol": "-1e-12",
    "cg_max_iters": "0",
    "bump_threshold": "1.5",
    "minimax_T": "1.0",
    "minimax_m": "4",
    "workers": "zero",
    "out": "",
}


def test_bad_values_cover_every_key():
    assert list(BAD_VALUES) == [key for key, _, _, _ in CONFIG_KEYS]


@pytest.mark.parametrize("key", list(BAD_VALUES))
def test_constraint_violations_name_the_key(key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: ") as err:
        parse_config_text(_minimal_with(key, BAD_VALUES[key]))
    assert "(got " in str(err.value)


@pytest.mark.parametrize("key", ["R", "n"])
def test_required_key_missing(key):
    text = "\n".join(ln for ln in MINIMAL.splitlines() if not ln.startswith(key + " "))
    with pytest.raises(ConfigError, match=f"^{key}: required key missing$"):
        parse_config_text(text)


@pytest.mark.parametrize("key,value", [
    ("tol", "nan"), ("tol", "inf"), ("cg_tol", "nan"), ("cap", "nan"),
    ("cap", "inf"), ("potential_power", "inf"), ("p", "inf"),
    ("minimax_T", "inf"), ("minimax_T", "nan"), ("lambdas", "10.0, inf"),
    ("R", "inf"), ("well.1.center", "nan"),
])
def test_non_finite_values_rejected(key, value):
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(key)}: not a finite number "
                             f"\\(got '{re.escape(value)}'\\)$"):
        parse_config_text(_minimal_with(key, value))


@pytest.mark.parametrize("extra,message", [
    ("well.4.center = 0\n", "^well.3.center: required key missing$"),
    ("well.0.center = 0\n", "^well.0.center: must be at least 1 \\(got '0'\\)$"),
    ("dim = 2\n", "^well.1.center: expected 2 comma-separated values \\(got '-5.0'\\)$"),
])
def test_well_blocks_name_the_key(extra, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(MINIMAL + extra)


def test_geometry_violations_detected():
    bad = MINIMAL.replace("well.2.enlarged_half = 3.5",
                          "well.2.enlarged_half = 9.0")
    with pytest.raises(ConfigError, match="well"):
        parse_config_text(bad)
    touching = MINIMAL.replace("R = 12.0", "R = 8.55")
    with pytest.raises(ConfigError, match="boundary"):
        parse_config_text(touching)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "nope.cfg")


def test_run_tiny_scenario(tmp_path):
    config = parse_config_text(TINY)
    out = tmp_path / "tiny"
    status = run(config, out_dir=str(out))
    assert status == 0
    for name in ("manifest.txt", "energies.csv", "verdicts.txt"):
        assert (out / name).exists()
    for gamma in ("gamma_1", "gamma_2", "gamma_1+2"):
        assert (out / gamma / "field_lambda_10000.csv").exists()
        assert (out / gamma / "residuals_lambda_10000.csv").exists()
        assert (out / gamma / "limit.csv").exists()
        meta = (out / gamma / "solve_lambda_10000.txt").read_text()
        assert "converged = true" in meta and "bump_mask =" in meta
    assert (out / "singlewell" / "omega_1.csv").exists()

    # manifest echo reparses to the same config (comments are ignored)
    again = parse_config(out / "manifest.txt")
    assert again == config
    text = (out / "manifest.txt").read_text()
    assert "# derived: a0 =" in text and "# derived: T =" in text

    verdicts = (out / "verdicts.txt").read_text().splitlines()
    assert all("status=PASS" in line for line in verdicts)
    # exactly 2^k - 1 = 3 solution families emitted
    rows, k = rows_from_csv((out / "energies.csv").read_text())
    assert k == 2
    assert {r.gamma for r in rows} == {(1,), (2,), (1, 2)}


def test_run_rerun_bit_identical(tmp_path):
    config = parse_config_text(TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(config, out_dir=str(out1)) == 0
    assert run(config, out_dir=str(out2)) == 0
    for sub in sorted(out1.rglob("*")):
        if sub.is_file():
            other = out2 / sub.relative_to(out1)
            assert filecmp.cmp(sub, other, shallow=False), sub.name


def test_run_workers_match_serial(tmp_path):
    config = parse_config_text(TINY)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert run(config, out_dir=str(out1), workers=1) == 0
    assert run(config, out_dir=str(out2), workers=3) == 0
    assert filecmp.cmp(out1 / "energies.csv", out2 / "energies.csv",
                       shallow=False)


def test_run_gamma_override(tmp_path):
    config = parse_config_text(TINY)
    out = tmp_path / "g1"
    assert run(config, out_dir=str(out), gamma="1") == 0
    rows, _ = rows_from_csv((out / "energies.csv").read_text())
    assert {r.gamma for r in rows} == {(1,)}


def test_verdict_margins_trace_to_csv(tmp_path):
    from logbump.verify import compute_verdicts

    config = parse_config_text(TINY)
    out = tmp_path / "trace"
    assert run(config, out_dir=str(out)) == 0
    rows, k = rows_from_csv((out / "energies.csv").read_text())
    recomputed = {
        v.name: f"margin={v.margin!r}" for v in compute_verdicts(rows, k)
    }
    for line in (out / "verdicts.txt").read_text().splitlines():
        name = line.split()[0].split("=", 1)[1]
        assert recomputed[name] in line


def test_report_and_degraded_mode(tmp_path, capsys):
    config = parse_config_text(TINY)
    out = tmp_path / "rep"
    assert run(config, out_dir=str(out)) == 0
    assert report(str(out)) == 0
    captured = capsys.readouterr()
    assert "lambda" in captured.out and "gamma" in captured.out
    assert (out / "report.csv").exists()

    # partial run: losing one artifact is reported by name, others summarized
    os.remove(out / "verdicts.txt")
    assert report(str(out)) == 0
    captured = capsys.readouterr()
    assert "verdicts.txt" in captured.err
    assert "10000" in captured.out

    os.remove(out / "energies.csv")
    assert report(str(out)) == 1
    captured = capsys.readouterr()
    assert "energies.csv" in captured.err


def test_main_validate_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(TINY)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "scenario = tiny" in captured.out

    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY + "l = 1.5\n")
    assert main(["validate", "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "l:" in captured.err


def test_full_reference_run(ref_run, ref_config):
    """The bundled scenario completes and passes every verdict."""
    out = ref_run.out
    assert ref_run.status == 0
    verdicts = (out / "verdicts.txt").read_text().splitlines()
    assert len(verdicts) == 8
    assert all("status=PASS" in line for line in verdicts)
    # one history per local solve, one row per Newton step
    histories = [out / "singlewell" / f"residuals_omega_{j}.csv" for j in (1, 2)]
    histories += [out / "neumann" / f"residuals_lambda_{lam:g}_well_{j}.csv"
                  for lam in ref_config.lambdas for j in (1, 2)]
    for history in histories:
        lines = history.read_text().splitlines()
        assert lines[0] == "iter,relative_residual,energy"
        assert 3 <= len(lines) - 1 <= 6
        assert float(lines[-1].split(",")[1]) <= ref_config.tol
    assert sorted(os.listdir(out / "neumann")) == sorted(h.name for h in histories[2:])


def test_tau_default_matches_cli():
    config = parse_config_text(MINIMAL)
    solver = SolverConfig()
    assert config.solver_config() == solver
    assert (config.cap, config.potential_power) == (PotentialSpec.cap,
                                                     PotentialSpec.power)
    assert (config.delta, config.l, config.p) == (
        penalty.DEFAULT_DELTA, penalty.DEFAULT_SLOPE, penalty.DEFAULT_GROWTH)
    assert config.params() == penalty.make_params()


def test_canonical_text_matches_reference_config():
    """configs/twin-wells-1d.cfg lists every key in echo order."""
    path = Path(__file__).resolve().parent.parent / "configs" / "twin-wells-1d.cfg"
    lines = [ln.split("#", 1)[0].strip() for ln in path.read_text().splitlines()]
    assert canonical_text(parse_config(path)) == "".join(f"{ln}\n" for ln in lines if ln)


def test_solve_summary_without_residual(ref, ref_wells, tmp_path):
    # at lambda = 1e8 the first step underflows well 2's empty enlargement
    # to zero mass, which ends the solve before it records a residual
    rec = solve_auxiliary(1e8, (1, 2), ref_wells[0].field, ref.grid,
                          ref.potential, ref.params, ref.solver)
    assert rec.iterations == 1 and rec.residuals == [] and not rec.converged
    assert rec.stop_reason == "collapse"
    path = tmp_path / "solve_lambda_1e+08.txt"
    _write_solve_summary(path, 1e8, (1, 2), rec)
    assert "final_residual = nan\n" in path.read_text()
    assert "stop_reason = collapse\n" in path.read_text()


def test_solve_summary_records_morse_index(ref, ref_sweep, tmp_path):
    path = tmp_path / "solve.txt"
    _write_solve_summary(path, 1e4, (1, 2), ref_sweep[-1].record)
    assert "morse_index = 2\n" in path.read_text()
    # every 1D linear solve is direct
    assert "inner_iterations = 0\n" in path.read_text()
    _write_solve_summary(path, 1e4, (1, 2), replace(ref_sweep[-1].record,
                                                    morse_index=math.nan))
    assert "morse_index = n/a\n" in path.read_text()


def _sample_rows():
    return [
        SweepRow(lam=lam, gamma=gamma, converged=lam > 10.0, phi_total=4.8 + lam,
                 b_upper=4.81, c_gamma=4.82, lambda_v_mass=1e-3 / lam,
                 outside_norm_sq=0.1 / 3.0, sup_outside=1e-8, a0=0.3,
                 min_u=-0.0, mass_frac=0.999, occupied=(2,),
                 i_lambda=(2.4, 1.0 / 7.0), c_dirichlet=(2.41, math.nan),
                 c_lambda=(2.405, 2.5))
        for lam, gamma in ((10.0, (1, 2)), (1e4, (2,)))
    ]


def test_csv_reads_columns_by_name():
    rows = _sample_rows()
    lines = [csv_header(2).split(",")] + [row_to_csv(r).split(",") for r in rows]

    def text(table):
        return "\n".join(",".join(cells) for cells in table)

    back, k = rows_from_csv(text([cells[::-1] for cells in lines]))
    assert k == 2
    assert [repr(r) for r in back] == [repr(r) for r in rows]

    for dropped in ("phi_total", "c_lambda_2"):
        i = lines[0].index(dropped)
        with pytest.raises(ValueError, match=dropped):
            rows_from_csv(text([cells[:i] + cells[i + 1:] for cells in lines]))
    extra = [lines[0] + ["extra"]] + [cells + ["1"] for cells in lines[1:]]
    with pytest.raises(ValueError, match="extra"):
        rows_from_csv(text(extra))


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", section, flags=re.M)
    accepted = [key for key, _, _, _ in CONFIG_KEYS]
    wells = [f"well.J.{suffix}" for suffix in _WELL_SUFFIXES]
    assert sorted(key for key, _ in rows) == sorted(accepted + wells)

    # MINIMAL sets only the required keys, so its echo shows every default
    echo = dict(ln.split(" = ", 1)
                for ln in canonical_text(parse_config_text(MINIMAL)).splitlines())
    expected = {key: f"`{echo[key]}`" for key in accepted}
    expected.update({well: "required" for well in wells})
    expected.update(R="required", n="required", out="`runs/<scenario>`")
    assert {key: cell.strip() for key, cell in rows} == expected


def test_report_cells_repeat_energies_cells(tmp_path, capsys):
    rows = _sample_rows()
    energies = [csv_header(2)] + [row_to_csv(r) for r in rows]
    (tmp_path / "energies.csv").write_text("\n".join(energies) + "\n")
    assert report(str(tmp_path)) == 0
    capsys.readouterr()
    rep = (tmp_path / "report.csv").read_text().splitlines()
    assert rep[0].split(",") == list(REPORT_COLUMNS)
    columns = energies[0].split(",")
    expected = []
    for line in energies[1:]:
        cells = dict(zip(columns, line.split(",")))
        expected.append(",".join(cells[c] for c in REPORT_COLUMNS))
    assert sorted(rep[1:]) == sorted(expected)


@pytest.mark.parametrize("name", ["three-wells-1d", "twin-wells-2d"])
def test_bundled_configs_match_benchmark_configs(name):
    root = Path(__file__).resolve().parent.parent
    bundled = parse_config(root / "configs" / f"{name}.cfg")
    bench = parse_config(root / "perfbench" / "configs" / f"{name}.cfg")
    assert bundled.out == f"runs/{name}"
    assert canonical_text(bundled) == canonical_text(replace(bench, out=bundled.out))


def test_missing_selection_fails_multiplicity(tmp_path, monkeypatch):
    import logbump.cli as cli

    sweep = cli.lambda_sweep

    def failing_sweep(lambdas, gamma, *args):
        if gamma == (2,):
            raise SolveError("injected failure")
        return sweep(lambdas, gamma, *args)

    monkeypatch.setattr(cli, "lambda_sweep", failing_sweep)
    out = tmp_path / "missing"
    assert run(parse_config_text(TINY), out_dir=str(out)) == 1
    verdicts = (out / "verdicts.txt").read_text()
    assert ("criterion=multiplicity status=FAIL margin=-1.0 detail=2 distinct "
            "occupation masks of 3 expected; no rows for gamma 2") in verdicts


def test_morse_index_mismatch_is_a_failure(tmp_path, capsys, monkeypatch):
    import logbump.cli as cli

    sweep = cli.lambda_sweep

    def one_off(lambdas, gamma, *args):
        steps = sweep(lambdas, gamma, *args)
        steps[0].record.morse_index += 1
        return steps

    monkeypatch.setattr(cli, "lambda_sweep", one_off)
    out = tmp_path / "morse"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    assert ("FAILURE: gamma 1: solve at lambda=100 has Morse index 2, expected 1"
            in capsys.readouterr().err)
    assert "morse_index = 2\n" in (out / "gamma_1" / "solve_lambda_100.txt").read_text()


def test_uncertified_morse_index_is_a_failure(tmp_path, capsys, monkeypatch):
    import logbump.cli as cli

    sweep = cli.lambda_sweep

    def uncertified(lambdas, gamma, *args):
        steps = sweep(lambdas, gamma, *args)
        steps[0].record.morse_index = math.nan
        return steps

    monkeypatch.setattr(cli, "lambda_sweep", uncertified)
    out = tmp_path / "uncertified"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    assert ("FAILURE: gamma 1: solve at lambda=100 has Morse index n/a, expected 1"
            in capsys.readouterr().err)
    text = (out / "gamma_1" / "solve_lambda_100.txt").read_text()
    assert "converged = true\n" in text and "morse_index = n/a\n" in text


def test_neumann_failure_names_stop_reason(tmp_path, capsys, monkeypatch):
    import logbump.cli as cli

    neumann = cli.solve_neumann_well

    def capped(lam, j, grid, potential, config):
        return neumann(lam, j, grid, potential, replace(config, max_iters=1))

    monkeypatch.setattr(cli, "solve_neumann_well", capped)
    out = tmp_path / "capped"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    assert ("FAILURE: enlarged well 1 level at lambda=100 did not converge "
            "(iteration cap)") in capsys.readouterr().err


def test_sweep_breakdown_keeps_the_other_lambdas(tmp_path, capsys, monkeypatch):
    # a pivot near zero at lambda = 100, in the sweep solve and in the
    # enlarged-well level: both end as named stops, not as errors
    import logbump.solver as solver

    def singular(*args):
        raise SolveError("LDL^T breakdown: pivot near zero")

    def at_lambda_100(solve):
        def broken(lam, *args):
            if lam != 100.0:
                return solve(lam, *args)
            with monkeypatch.context() as m:
                m.setattr(solver.TridiagonalLDL, "solve_once", staticmethod(singular))
                return solve(lam, *args)
        return broken

    monkeypatch.setattr(solver, "solve_auxiliary",
                        at_lambda_100(solver.solve_auxiliary))
    _inject(monkeypatch, "solve_neumann_well", at_lambda_100)
    out = tmp_path / "breakdown"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    assert ("FAILURE: enlarged well 1 level at lambda=100 did not converge "
            "(breakdown (LDL^T breakdown: pivot near zero))\n"
            ) in capsys.readouterr().err
    rows, _ = rows_from_csv((out / "energies.csv").read_text())
    assert [(r.lam, r.converged) for r in rows] == [(100.0, False), (10000.0, True)]
    summary = (out / "gamma_1" / "solve_lambda_100.txt").read_text()
    assert ("converged = false\nstop_reason = breakdown (LDL^T breakdown: pivot "
            "near zero)\niterations = 1\n") in summary
    assert ("criterion=convergence status=FAIL margin=0.0 detail=flagged solves "
            "present") in (out / "verdicts.txt").read_text()


def _load_tracer():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps these by name; a rename must fail here,
    # not as an AttributeError in a traced benchmark run
    import importlib

    tracer = _load_tracer()
    assert tracer.TARGETS
    for span, owner, attr, _ in tracer.TARGETS:
        obj = importlib.import_module(owner)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: {owner}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), f"{span}: {owner}.{attr} is not callable"


def test_benchmark_tracer_hooks_read_real_results(ref, ref_wells, ref_sweep):
    # each counter hook reads its target's return value; a reshaped record
    # must fail here, not in a traced benchmark run
    returns = {
        "solve_single_well": ref_wells[0],
        "solve_neumann_well": solve_neumann_well(1e2, 1, ref.grid, ref.potential,
                                                 ref.solver),
        "solve_auxiliary": ref_sweep[0].record,
        "conjugate_gradient": conjugate_gradient(lambda v: v, np.ones(3),
                                                 np.zeros(3), 1e-12, 10),
    }
    hooked = [(attr, count) for _, _, attr, count in _load_tracer().TARGETS if count]
    assert hooked and {attr for attr, _ in hooked} <= set(returns)
    for attr, count in hooked:
        counters = Counter()
        count(counters, returns[attr])
        assert sum(counters.values()) > 0, attr


def _inject(monkeypatch, name, broken):
    """Replace the CLI's binding of a solver entry point by broken(original)."""
    import logbump.cli as cli

    monkeypatch.setattr(cli, name, broken(getattr(cli, name)))


def test_failed_well_solve_still_writes_verdicts(tmp_path, capsys, monkeypatch):
    def raising(single):
        def solve(geometry, j, grid, config):
            if j == 2:
                raise SolveError("injected failure")
            return single(geometry, j, grid, config)
        return solve

    _inject(monkeypatch, "solve_single_well", raising)
    out = tmp_path / "failed-well"
    assert run(parse_config_text(TINY), out_dir=str(out)) == 1
    assert "FAILURE: well 2 ground state: injected failure" in capsys.readouterr().err
    verdicts = (out / "verdicts.txt").read_text()
    assert ("criterion=multiplicity status=FAIL margin=-2.0 detail=1 distinct "
            "occupation masks of 3 expected; no rows for gamma 1+2, 2") in verdicts
    assert ("criterion=convergence status=FAIL margin=0.0 detail=all solves "
            "converged; no rows for gamma 1+2, 2") in verdicts
    assert (out / "gamma_1").is_dir() and not (out / "gamma_2").exists()
    assert "# derived: c_2 = nan\n" in (out / "manifest.txt").read_text()


def test_unconverged_well_skips_its_selections(tmp_path, capsys, monkeypatch):
    def capped(single):
        def solve(geometry, j, grid, config):
            return single(geometry, j, grid, replace(config, max_iters=1))
        return solve

    _inject(monkeypatch, "solve_single_well", capped)
    out = tmp_path / "capped-wells"
    assert run(parse_config_text(TINY), out_dir=str(out)) == 1
    err = capsys.readouterr().err
    for j in (1, 2):
        assert (f"FAILURE: well {j} ground state did not converge (iteration cap)"
                in err)
    assert (out / "energies.csv").read_text().splitlines()[1:] == []
    assert "criterion=multiplicity status=FAIL" in (out / "verdicts.txt").read_text()
    assert "# derived: T = nan\n" in (out / "manifest.txt").read_text()


def test_failed_neumann_solve_is_a_failure(tmp_path, capsys, monkeypatch):
    def raising(neumann):
        def solve(lam, j, grid, potential, config):
            if lam == 100.0:
                raise SolveError("injected failure")
            return neumann(lam, j, grid, potential, config)
        return solve

    _inject(monkeypatch, "solve_neumann_well", raising)
    out = tmp_path / "failed-level"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    assert ("FAILURE: enlarged well 1 level at lambda=100: injected failure"
            in capsys.readouterr().err)
    rows, _ = rows_from_csv((out / "energies.csv").read_text())
    assert [math.isnan(r.c_lambda[0]) for r in rows] == [True, False]
    assert (out / "verdicts.txt").exists()


@pytest.mark.parametrize("name", ["solve_single_well", "solve_neumann_well"])
def test_local_morse_index_mismatch_is_a_failure(tmp_path, capsys, monkeypatch, name):
    def saddle(solve):
        def wrong(*args):
            return replace(solve(*args), morse_index=2)
        return wrong

    _inject(monkeypatch, name, saddle)
    out = tmp_path / "local-morse"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    err = capsys.readouterr().err
    if name == "solve_single_well":
        assert "FAILURE: well 1 ground state has Morse index 2, expected 1" in err
    else:
        for lam in (100, 10000):
            assert (f"FAILURE: enlarged well 1 level at lambda={lam} has Morse index 2, "
                    "expected 1") in err
