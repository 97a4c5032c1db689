"""Config parsing, validation messages, the run pipeline, and reports."""

import filecmp
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from logbump.cli import (
    _SCALAR_KEYS,
    _WELL_SUFFIXES,
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
from logbump.solver import SolveError, SolverConfig, solve_auxiliary
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
    # the flows always clip negatives; the old switch is gone
    with pytest.raises(ConfigError, match="unknown key: positivity"):
        parse_config_text(MINIMAL + "positivity = true\n")


def test_constraint_violations_name_the_key():
    with pytest.raises(ConfigError, match="^l:"):
        parse_config_text(MINIMAL + "l = 1.5\n")
    with pytest.raises(ConfigError, match="^delta:"):
        parse_config_text(MINIMAL + "delta = 0.5\n")
    with pytest.raises(ConfigError, match="^tau_step:"):
        parse_config_text(MINIMAL + "tau_step = 0.9\n")
    with pytest.raises(ConfigError, match="^lambdas:"):
        parse_config_text(MINIMAL + "lambdas = 100.0, 10.0\n")
    with pytest.raises(ConfigError, match="^gamma:"):
        parse_config_text(MINIMAL + "gamma = 1,7\n")
    with pytest.raises(ConfigError, match="^R: required"):
        parse_config_text("n = 41\nwell.1.center = 0\nwell.1.half = 1\n"
                          "well.1.enlarged_half = 2\n")
    with pytest.raises(ConfigError, match="^minimax_m:"):
        parse_config_text(MINIMAL + "minimax_m = 4\n")


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


def test_full_reference_run(tmp_path):
    """The bundled scenario completes and passes every verdict."""
    path = Path(__file__).resolve().parent.parent / "configs" / "twin-wells-1d.cfg"
    out = tmp_path / "reference"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    verdicts = (out / "verdicts.txt").read_text().splitlines()
    assert len(verdicts) == 8
    assert all("status=PASS" in line for line in verdicts)


def test_tau_default_matches_cli():
    assert SolverConfig().tau == parse_config_text(MINIMAL).tau_step


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
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    accepted = list(_SCALAR_KEYS) + [f"well.J.{suffix}" for suffix in _WELL_SUFFIXES]
    assert sorted(keys) == sorted(accepted)


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
