"""Config parsing, validation messages, the run pipeline, and reports."""

import csv
import filecmp
import itertools
import math
import os
import re
import shutil
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from logbump import penalty, solver
from logbump.cli import (
    _WELL_SUFFIXES,
    CONFIG_KEYS,
    REPORT_COLUMNS,
    ConfigError,
    HistoryRow,
    SolveRow,
    _log_solve,
    _write_csv,
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
from logbump.functional import PenalizedFunctional
from logbump.solver import (
    SolveError,
    SolverConfig,
    TridiagonalLDL,
    _LocalWell,
    conjugate_gradient,
    lambda_sweep,
    solve_auxiliary,
    solve_neumann_well,
    solve_single_well,
    superpose,
)
from logbump.verify import LimitRow, SweepRow, check_limit_problem
from oracles import (
    level_start,
    load_field,
    multi_bump_init,
    whole_box_negative_eigenvalues,
)

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
    assert config.power == 1.0
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
    # nothing read the growth exponent; its key is gone too
    with pytest.raises(ConfigError, match="unknown key: p$"):
        parse_config_text(MINIMAL + "p = 3.0\n")
    # the inner solve's tolerance and cap, the occupancy threshold and the
    # minimax scale and grid are fixed by the solver, not by keys
    for key, value in (("cg_tol", "1e-12"), ("cg_max_iters", "20000"),
                       ("bump_threshold", "0.01"), ("minimax_T", "auto"),
                       ("minimax_m", "33")):
        with pytest.raises(ConfigError, match=f"^unknown key: {key}$"):
            parse_config_text(MINIMAL + f"{key} = {value}\n")


def _config_with(key, value, base=MINIMAL):
    """The config text base with `key = value` in place of any line it has
    for key."""
    lines = [ln for ln in base.splitlines() if ln.split("=")[0].strip() != key]
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
    "gamma": "1,7",
    "lambdas": "100.0, 10.0",
    "tol": "0.0",
    "max_iters": "0",
    "workers": "zero",
    "out": "",
}


def test_bad_values_cover_every_key():
    assert list(BAD_VALUES) == [key for key, _, _, _ in CONFIG_KEYS]


@pytest.mark.parametrize("key", list(BAD_VALUES))
def test_constraint_violations_name_the_key(key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: ") as err:
        parse_config_text(_config_with(key, BAD_VALUES[key]))
    assert "(got " in str(err.value)


# a bad value for each key of a well block, set on well 1
BAD_WELL_VALUES = {
    "center": "x",
    "half": "0.0",
    "enlarged_half": "-1.0",
}
# well 1 of the bundled twin wells made invalid only with the other keys:
# an enlargement that does not hold it, one that reaches within two cells
# of the box edge, and 19 nodes across the well
BAD_GEOMETRIES = {
    "enlargement": ("well.1.enlarged_half", "2.0",
                    "well 1: closure must lie inside its enlargement"),
    "box-edge": ("well.1.center", "-9.0",
                 "well 1: enlargement too close to the box boundary"),
    "nodes": ("well.1.half", "0.5",
              "well 1 resolved by only 19 nodes on axis 0; need >= 32"),
}
BUNDLED = Path(__file__).resolve().parent.parent / "configs" / "twin-wells-1d.cfg"


def test_bad_well_values_cover_every_well_key():
    assert list(BAD_WELL_VALUES) == list(_WELL_SUFFIXES)


@pytest.mark.parametrize("key,value,message", [
    *[pytest.param(key, value, None, id=key) for key, value in BAD_VALUES.items()],
    *[pytest.param(f"well.1.{key}", value, None, id=f"well.1.{key}")
      for key, value in BAD_WELL_VALUES.items()],
    *[pytest.param(*case, id=name) for name, case in BAD_GEOMETRIES.items()],
    # two lambdas whose field files would both be field_lambda_1000.npy
    pytest.param("lambdas", "1000.0001, 1000.0002", None, id="lambdas-labels"),
])
def test_validate_names_the_bad_key_of_the_bundled_config(tmp_path, capsys, key, value,
                                                          message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_config_with(key, value, BUNDLED.read_text()))
    assert main(["validate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if message is None:
        assert re.fullmatch(f"invalid config: {re.escape(key)}: [^\n]+\n", err)
    else:
        assert err == f"invalid config: well: {message}\n"


# bundled configs made invalid only by a grid over domain.MAX_GRID_NODES,
# 1.6e9 and 1e8 nodes: (dim, n)
BAD_GRIDS = {
    "twin-wells-2d": (2, 40001),
    "twin-wells-1d": (1, 100000000),
}


@pytest.mark.parametrize("name", list(BAD_GRIDS))
def test_validate_refuses_a_grid_over_the_node_cap(tmp_path, capsys, name):
    dim, n = BAD_GRIDS[name]
    cfg = tmp_path / "big.cfg"
    cfg.write_text(_config_with("n", str(n), (BUNDLED.parent / f"{name}.cfg").read_text()))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == (
        "", f"invalid config: n: {dim}D grid exceeds 16777216 nodes (got {n})\n")


@pytest.mark.parametrize("key", ["R", "n"])
def test_required_key_missing(key):
    text = "\n".join(ln for ln in MINIMAL.splitlines() if not ln.startswith(key + " "))
    with pytest.raises(ConfigError, match=f"^{key}: required key missing$"):
        parse_config_text(text)


@pytest.mark.parametrize("key,value", [
    ("tol", "nan"), ("tol", "inf"), ("cap", "nan"),
    ("cap", "inf"), ("potential_power", "inf"), ("lambdas", "10.0, inf"),
    ("R", "inf"), ("well.1.center", "nan"),
])
def test_non_finite_values_rejected(key, value):
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(key)}: not a finite number "
                             f"\\(got '{re.escape(value)}'\\)$"):
        parse_config_text(_config_with(key, value))


@pytest.mark.parametrize("extra,message", [
    ("well.4.center = 0\n", "^well.3.center: required key missing$"),
    ("well.0.center = 0\n", "^well.0.center: must be at least 1 \\(got '0'\\)$"),
    # another spelling of an index given already would override its value
    ("well.01.center = -4.0\n",
     "^well.01.center: index must be written as 1 \\(got '01'\\)$"),
    ("well.+1.center = -4.0\n",
     "^well.\\+1.center: index must be written as 1 \\(got '\\+1'\\)$"),
    ("well. 2.half = 2.0\n",
     "^well. 2.half: index must be written as 2 \\(got ' 2'\\)$"),
    ("dim = 2\n", "^well.1.center: expected 2 comma-separated values \\(got '-5.0'\\)$"),
    ("well.1.half = -1.0\n",
     "^well.1.half: half-widths must be positive \\(got '-1.0'\\)$"),
    ("well.2.enlarged_half = 0.0\n",
     "^well.2.enlarged_half: half-widths must be positive \\(got '0.0'\\)$"),
])
def test_well_blocks_name_the_key(extra, message):
    key, value = (part.strip() for part in extra.split("="))
    with pytest.raises(ConfigError, match=message):
        parse_config_text(_config_with(key, value))


def test_geometry_violations_detected():
    bad = MINIMAL.replace("well.2.enlarged_half = 3.5",
                          "well.2.enlarged_half = 9.0")
    with pytest.raises(ConfigError, match="well"):
        parse_config_text(bad)
    touching = MINIMAL.replace("R = 12.0", "R = 8.55")
    with pytest.raises(ConfigError, match="boundary"):
        parse_config_text(touching)


def test_under_resolved_well_is_an_invalid_config(tmp_path, capsys):
    # 11 nodes inside the well, |x| < 0.6 at h = 0.1: validate rejects what
    # the solve would
    cfg = tmp_path / "thin.cfg"
    cfg.write_text("R = 6.0\nn = 121\nwell.1.center = 0.0\nwell.1.half = 0.6\n"
                   "well.1.enlarged_half = 1.2\n")
    out = tmp_path / "thin"
    for argv in (["validate", "--config", str(cfg)],
                 ["run", "--config", str(cfg), "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "invalid config: well: well 1 resolved by only 11 nodes on axis 0; "
            "need >= 32\n")
    assert not out.exists()


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize("below", ["", "run"], ids=["at-a-file", "below-a-file"])
def test_unwritable_run_directory_is_status_2(tmp_path, capsys, below):
    # --out at an existing file, or below one
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / below
    assert main(["run", "--config", str(BUNDLED), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"cannot write run directory {out}: ")
    assert err.count("\n") == 1


def _table(path) -> list[dict]:
    """The rows of a CSV artifact, each a dict of its cells by header name."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _solve(out, kind, lam, gamma) -> dict:
    """The one solves.csv row of a solve."""
    [row] = [r for r in _table(out / "solves.csv")
             if (r["kind"], r["lambda"], r["gamma"]) == (kind, lam, gamma)]
    return row


def _history(out, kind, lam, gamma) -> list[dict]:
    """The histories.csv rows of a solve, one per Newton step."""
    return [r for r in _table(out / "histories.csv")
            if (r["kind"], r["lambda"], r["gamma"]) == (kind, lam, gamma)]


def test_run_tiny_scenario(tmp_path):
    config = parse_config_text(TINY)
    out = tmp_path / "tiny"
    status = run(config, out_dir=str(out))
    assert status == 0
    for name in ("manifest.txt", "energies.csv", "verdicts.txt", "solves.csv",
                 "histories.csv"):
        assert (out / name).exists()
    energies = _energy_rows(out / "energies.csv")
    for gamma in ("1", "2", "1+2"):
        assert (out / f"gamma_{gamma}" / "field_lambda_10000.npy").exists()
        assert _history(out, "sweep", "10000.0", gamma)
        assert (out / f"gamma_{gamma}" / "limit.csv").exists()
        assert _solve(out, "sweep", "10000.0", gamma)["stop"] == "converged"
        assert energies[("10000.0", gamma)]["occupied"] == gamma
    assert (out / "singlewell" / "omega_1.npy").exists()

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


def _files(root) -> set[str]:
    """The paths of the files under root, relative to it."""
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def _rerun(tmp_path, config, again, gamma=None, kept=("notes.txt",)) -> Path:
    """Run config and `logbump report` into one directory, add the files
    `kept`, then run again (with the gamma override) into it and into a
    fresh one; returns the reused directory.  It holds the fresh one's
    files and the files kept, and its tables repeat the fresh ones."""
    out, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run(config, out_dir=str(out)) == 0
    assert report(out) == 0
    for name in kept:
        (out / name).write_text("kept\n")
    assert run(again, out_dir=str(out), gamma=gamma) == run(again, out_dir=str(fresh),
                                                             gamma=gamma)
    assert _files(out) == _files(fresh) | set(kept)
    for name in ("energies.csv", "solves.csv", "histories.csv", "verdicts.txt"):
        assert filecmp.cmp(out / name, fresh / name, shallow=False), name
    return out


def test_rerun_into_the_same_directory_replaces_the_tables(tmp_path):
    # field files of the lambda = 1e4 solves and report.csv are left over
    # unless the rerun removes them
    config = parse_config_text(TINY)
    out = _rerun(tmp_path, config, replace(config, lambdas=(100.0,)))
    for name in ("solves.csv", "histories.csv"):
        assert {r["lambda"] for r in _table(out / name)} == {"nan", "100.0"}


def test_rerun_with_another_gamma_removes_the_other_selections(tmp_path):
    config = parse_config_text(TINY)
    out = _rerun(tmp_path, config, config, gamma="2",
                 kept=("notes.txt", os.path.join("gamma_1", "notes.txt")))
    # a directory the rerun emptied is gone; one holding another file stays
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
        "gamma_1", "gamma_2", "singlewell"]
    assert os.listdir(out / "gamma_1") == ["notes.txt"]
    assert sorted(os.listdir(out / "singlewell")) == ["omega_2.npy"]


def _readme_tree(gammas, wells, lambdas) -> list[str]:
    """The paths of the README's run-directory tree, its placeholders
    `gamma_*`, `_J.` and `_L.` expanded to the given selections, wells and
    lambdas."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tree = readme.split("## Run artifacts", 1)[1].split("```", 2)[1]
    values = {"gamma_*": [f"gamma_{g}" for g in gammas],
              "_J.": [f"_{j}." for j in wells],
              "_L.": [f"_{lam}." for lam in lambdas]}
    paths = set()
    for line in tree.splitlines():
        if re.match(r"  \S", line):
            names = {line.split()[0]}
            for token, subs in values.items():
                names = {name.replace(token, sub) for name in names for sub in subs}
            paths |= names
    return sorted(paths)


def test_run_directory_holds_the_readme_tree(tmp_path, capsys):
    out = tmp_path / "tiny"
    assert run(parse_config_text(TINY), out_dir=str(out)) == 0
    assert report(str(out)) == 0
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == _readme_tree(["1", "2", "1+2"], [1, 2], ["100", "10000"])


def test_workers_other_than_one_rejected(tmp_path):
    # the pipeline is serial; the key and the keyword accept only 1
    with pytest.raises(ConfigError, match="^workers: the pipeline is serial; "
                                          "only 1 is accepted \\(got '2'\\)$"):
        parse_config_text(_config_with("workers", "2"))
    assert parse_config_text(_config_with("workers", "1")).workers == 1
    out = tmp_path / "parallel"
    with pytest.raises(ConfigError, match="^workers: "):
        run(parse_config_text(TINY), out_dir=str(out), workers=2)
    assert not out.exists()


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


def test_report_lists_the_problem_solves(ref_run, tmp_path, capsys):
    # the two lists come from solves.csv; report.csv and the exit code do
    # not depend on it
    out = tmp_path / "rep"
    shutil.copytree(ref_run.out, out)
    solves = (out / "solves.csv").read_text()
    os.remove(out / "solves.csv")
    assert report(str(out)) == 0
    assert "MINRES" not in capsys.readouterr().out
    bare = (out / "report.csv").read_bytes()

    def listed():
        assert report(str(out)) == 0
        assert (out / "report.csv").read_bytes() == bare
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("solves not converged or of another Morse index:")
        end = next(i for i, ln in enumerate(lines) if ln.startswith("criterion="))
        return lines[start:end]

    # the reference run converges every solve, and its 1D steps run no MINRES
    (out / "solves.csv").write_text(solves)
    assert listed() == ["solves not converged or of another Morse index:", "  none",
                        "solves with the most MINRES iterations:", "  none"]

    rows, _ = rows_from_csv(solves, SolveRow, "solves.csv")
    rows = [replace(r, inner_iterations=n) for r, n in
            zip(rows, [0, 9, 0, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 12, 0, 7, 0],
                              strict=True)]
    rows[1] = replace(rows[1], stop="iteration cap")
    rows[4] = replace(rows[4], morse_index=2.0)
    rows[18] = replace(rows[18], morse_index=math.nan)
    # a converged two-bump saddle of index 1 fails too: a sweep expects |gamma|
    rows[19] = replace(rows[19], morse_index=1.0)
    _write_csv(out / "solves.csv", SolveRow, rows)
    assert listed() == [
        "solves not converged or of another Morse index:",
        "  well 2 ground state did not converge (iteration cap)",
        "  enlarged well 1 level at lambda=100 has Morse index 2, expected 1",
        "  gamma 1+2 sweep at lambda=10 has Morse index n/a, expected 2",
        "  gamma 1+2 sweep at lambda=100 has Morse index 1, expected 2",
        "solves with the most MINRES iterations:",
        "  enlarged well 2 level at lambda=10: converged, 5 Newton steps, 40 MINRES iterations",
        "  gamma 2 sweep at lambda=10: converged, 5 Newton steps, 40 MINRES iterations",
        "  gamma 1+2 sweep at lambda=10: converged, 5 Newton steps, 12 MINRES iterations",
    ]

    # an unreadable solves.csv is named on stderr, and changes nothing else
    (out / "solves.csv").write_text("kind,lambda\n")
    assert report(str(out)) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("solves.csv header: missing ")
    assert "MINRES" not in captured.out
    assert (out / "report.csv").read_bytes() == bare


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


def _energies_with(column, cell):
    """energies.csv of the sample rows with the first row's cell in column
    replaced."""
    header = csv_header(2)
    first, second = (row_to_csv(r).split(",") for r in _sample_rows())
    first[header.split(",").index(column)] = cell
    return "\n".join([header, ",".join(first), ",".join(second)]) + "\n"


@pytest.mark.parametrize("text,reason", [
    ("", "energies.csv is empty"),
    ("\n  \n", "energies.csv is empty"),
    ("lambda,gamma,phi\n1.0,1,2.0\n", "energies.csv header: missing "),
    # only true and false are booleans; no other spelling reads as false
    *(pytest.param(_energies_with("converged", cell),
                   "energies.csv line 2, column converged: expected true or false "
                   f"(got {cell!r})", id=f"converged={cell}")
      for cell in ("True", "1", "yes", "")),
    pytest.param(_energies_with("phi_total", "abc"),
                 "energies.csv line 2, column phi_total: could not convert string "
                 "to float: 'abc'", id="phi_total=abc"),
    pytest.param(_energies_with("gamma", "1+x"), "energies.csv line 2, column gamma: ",
                 id="gamma=1+x"),
])
def test_report_rejects_an_unreadable_energies_csv(tmp_path, capsys, text, reason):
    (tmp_path / "energies.csv").write_text(text)
    assert main(["report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(reason)
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("name", ["energies.csv", "report.csv"])
def test_report_fails_on_energies_or_report_csv_it_cannot_open(ref_run, tmp_path,
                                                               capsys, name):
    # a directory in the place of the file: status 1, the reason on stderr
    out = tmp_path / "rep"
    shutil.copytree(ref_run.out, out)
    (out / "report.csv").unlink(missing_ok=True)
    (out / name).unlink(missing_ok=True)
    (out / name).mkdir()
    assert main(["report", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err and captured.err.count("\n") == 1
    assert not (out / "report.csv").is_file()


@pytest.mark.parametrize("name, first, after", [
    ("solves.csv", "solves not converged", "criterion="),
    ("verdicts.txt", "criterion=", None),
])
def test_report_names_a_solves_or_verdicts_file_it_cannot_open(ref_run, tmp_path, capsys,
                                                               name, first, after):
    # a directory in the place of the file: named on stderr, its lines
    # (from `first` up to `after`) left out of the summary, nothing else
    # changed
    out = tmp_path / "rep"
    shutil.copytree(ref_run.out, out)
    assert main(["report", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = (out / "report.csv").read_bytes()
    (out / name).unlink()
    (out / name).mkdir()
    assert main(["report", str(out)]) == 0
    captured = capsys.readouterr()
    assert name in captured.err and captured.err.count("\n") == 1
    start = next(i for i, ln in enumerate(lines) if ln.startswith(first))
    end = next((i for i, ln in enumerate(lines) if after and ln.startswith(after)),
               len(lines))
    assert start < end
    assert captured.out.splitlines() == lines[:start] + lines[end:]
    assert (out / "report.csv").read_bytes() == table


def test_config_that_is_not_utf8_is_invalid(tmp_path, capsys):
    cfg = tmp_path / "bytes.cfg"
    cfg.write_bytes(TINY.encode() + b"# \xff\n")
    out = tmp_path / "bytes"
    for argv in (["validate", "--config", str(cfg)],
                 ["run", "--config", str(cfg), "--out", str(out)]):
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"invalid config: cannot read config {cfg}: ")
        assert "codec can't decode" in err and err.count("\n") == 1
    assert not out.exists()


def test_config_with_a_utf8_bom_reads_as_the_original(tmp_path, capsys):
    # some editors start a UTF-8 file with a byte-order mark
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes("\ufeff".encode() + BUNDLED.read_bytes())
    echoes = []
    for path in (BUNDLED, cfg):
        assert main(["validate", "--config", str(path)]) == 0
        echoes.append(capsys.readouterr().out)
    assert echoes[1] == echoes[0]


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


_ROOT = Path(__file__).resolve().parent.parent
_CONFIG_FILES = sorted(_ROOT.glob("configs/*.cfg")) + sorted(
    _ROOT.glob("perfbench/configs/*.cfg"))


@pytest.mark.parametrize("path", _CONFIG_FILES,
                         ids=lambda p: str(p.relative_to(_ROOT)))
def test_every_config_file_validates(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("delta", ["1e-300", "1e-160"])
def test_tiny_delta_is_an_invalid_config(tmp_path, capsys, delta):
    # delta^2 underflows to 0 at 1e-300, and at 1e-160 keeps too few digits
    # for the bisection for a0
    cfg = tmp_path / "tiny-delta.cfg"
    cfg.write_text(_config_with("delta", delta))
    out = tmp_path / "tiny-delta"
    for argv in (["validate", "--config", str(cfg)],
                 ["run", "--config", str(cfg), "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: delta: ")
        assert err.endswith(f"(got {delta})\n") and err.count("\n") == 1
    assert not out.exists()


def _run_deep_well(tmp_path, lam):
    """(exit status, run directory) of one well with lambdas 10 and lam;
    the run raises no warning."""
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("R = 12.0\nn = 481\npotential_power = 1.0\n"
                   "well.1.center = -5.0\nwell.1.half = 2.5\n"
                   f"well.1.enlarged_half = 3.5\nlambdas = 10.0, {lam}\n")
    out = tmp_path / "deep"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["run", "--config", str(cfg), "--out", str(out)])
    assert caught == []
    return status, out


@pytest.mark.parametrize("lam", ["1e7", "3e7"])
def test_deep_well_level_converges(tmp_path, capsys, lam):
    # a start over the whole enlargement took the Nehari scale out of the
    # float range here; the start confined to the well does not
    status, out = _run_deep_well(tmp_path, lam)
    assert status == 0
    assert capsys.readouterr().err == ""
    assert _solve(out, "level", repr(float(lam)), "1")["stop"] == "converged"


def test_deep_well_breakdown_is_one_failure(tmp_path, capsys):
    status, _ = _run_deep_well(tmp_path, "1e12")
    assert status == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("FAILURE: enlarged well 1 level at lambda=1e+12 did not converge "
                    "(breakdown (LDL^T breakdown: pivot near zero))")


def test_full_reference_run(ref_run, ref_config):
    """The bundled scenario completes and passes every verdict."""
    out = ref_run.out
    assert ref_run.status == 0
    verdicts = (out / "verdicts.txt").read_text().splitlines()
    assert len(verdicts) == 8
    assert all("status=PASS" in line for line in verdicts)
    # one history per local solve, one row per Newton step
    assert (out / "histories.csv").read_text().startswith(
        "kind,lambda,gamma,step,relative_residual,energy\n")
    local = [("ground_state", "nan", str(j)) for j in (1, 2)]
    local += [("level", repr(lam), str(j)) for lam in ref_config.lambdas for j in (1, 2)]
    for key in local:
        history = _history(out, *key)
        assert [int(r["step"]) for r in history] == list(range(1, len(history) + 1))
        assert 3 <= len(history) <= 6
        assert float(history[-1]["relative_residual"]) <= ref_config.tol
    assert {(r["kind"], r["lambda"], r["gamma"]) for r in _table(out / "histories.csv")
            if r["kind"] != "sweep"} == set(local)


def test_solves_csv_has_one_row_per_solve(ref_run, ref_config):
    """solves.csv holds a row per well ground state, per (lambda, well)
    level and per energies.csv row, each with its stop reason; a converged
    solve has one histories.csv row per iteration, the last within tol."""
    out = ref_run.out
    solves = _table(out / "solves.csv")
    keys = [(r["kind"], r["lambda"], r["gamma"]) for r in solves]
    expected = [("ground_state", "nan", str(j)) for j in (1, 2)]
    expected += [("level", repr(lam), str(j)) for lam in ref_config.lambdas for j in (1, 2)]
    expected += [("sweep", lam, gamma) for lam, gamma in _energy_rows(out / "energies.csv")]
    assert sorted(keys) == sorted(expected) and len(set(keys)) == len(keys)
    assert all(r["stop"] == "converged" for r in solves)
    for solve in solves:
        history = _history(out, solve["kind"], solve["lambda"], solve["gamma"])
        assert len(history) == int(solve["iterations"])
        assert float(history[-1]["relative_residual"]) <= ref_config.tol
    assert len(_table(out / "histories.csv")) == sum(int(r["iterations"]) for r in solves)


def test_limit_csv_repeats_the_limit_rows(ref, ref_run, ref_wells, ref_levels, ref_big_t):
    """Each selection's limit.csv, read by header name, holds the repr of
    every LimitRow field that check_limit_problem gives on its sweep, from
    the run's starts: the ground states, then the level fields."""
    columns = {f.name: "lambda" if f.name == "lam" else f.name for f in fields(LimitRow)}
    for gamma in ((1,), (2,), (1, 2)):
        wells = [ref_wells[j - 1].field for j in gamma]
        init = multi_bump_init(wells, [1.0 / ref_big_t] * len(wells), ref_big_t)
        records = lambda_sweep(ref.config.lambdas, gamma, init, ref.grid,
                               ref.potential, ref.params, ref.solver, ref_levels)
        expected = check_limit_problem(records, init)
        path = ref_run.out / ("gamma_" + "+".join(map(str, gamma))) / "limit.csv"
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == list(columns.values())
            table = list(reader)
        assert table == [{column: repr(getattr(row, name)) for name, column in columns.items()}
                         for row in expected]


def test_sweeps_after_the_first_lambda_start_from_the_levels(ref_run):
    # deterministic work counters of solves.csv: from the sum of its wells'
    # level fields, each sweep solve at lambda >= 1000 takes one Newton step
    sweeps = [r for r in _table(ref_run.out / "solves.csv") if r["kind"] == "sweep"]
    assert [r["iterations"] for r in sweeps if float(r["lambda"]) >= 1000] == ["1"] * 6
    assert sum(int(r["iterations"]) for r in sweeps) == 30


def test_field_files_agree_with_energies_csv(ref_run):
    """Each sweep field, loaded on the manifest's grid, has the min_u of its
    energies.csv row bit for bit (run writes both from the same array)."""
    out = ref_run.out
    grid = parse_config(out / "manifest.txt").grid()
    paths = set()
    for row in ref_run.rows:
        gdir = "gamma_" + "+".join(map(str, row.gamma))
        path = out / gdir / f"field_lambda_{row.lam:g}.npy"
        field = load_field(path, grid)
        assert repr(float(field.values.min())) == repr(row.min_u), path
        paths.add(path)
    assert set(out.glob("gamma_*/field_lambda_*.npy")) == paths
    assert not list(out.rglob("field_*.csv")) and not list(out.rglob("omega_*.csv"))


def test_omega_files_are_the_superposed_ground_states(ref, ref_run, ref_wells):
    # each singlewell/omega_J.npy holds its ground state's superposition
    # alone, bit for bit
    for j, rec in enumerate(ref_wells, start=1):
        saved = np.load(ref_run.out / "singlewell" / f"omega_{j}.npy")
        want = superpose([rec], ref.grid).values
        assert saved.dtype == want.dtype and saved.shape == want.shape
        assert saved.tobytes() == want.tobytes()


def test_tau_default_matches_cli():
    config = parse_config_text(MINIMAL)
    solver = SolverConfig()
    assert config.solver_config() == solver
    assert (config.cap, config.power) == (PotentialSpec.cap, PotentialSpec.power)
    assert (config.delta, config.l) == (penalty.DEFAULT_DELTA, penalty.DEFAULT_SLOPE)
    assert config.params() == penalty.make_params()


def test_canonical_text_matches_reference_config():
    """configs/twin-wells-1d.cfg lists every key in echo order."""
    path = Path(__file__).resolve().parent.parent / "configs" / "twin-wells-1d.cfg"
    lines = [ln.split("#", 1)[0].strip() for ln in path.read_text().splitlines()]
    assert canonical_text(parse_config(path)) == "".join(f"{ln}\n" for ln in lines if ln)


def _logged(out, lam, gamma, record) -> tuple[dict, list[dict]]:
    """The solves.csv row and the histories.csv rows of one sweep record,
    written as `run` writes them and read back by header name."""
    solves, histories = [], []
    _log_solve(solves, histories, "sweep", lam, gamma, record)
    out.mkdir(exist_ok=True)
    _write_csv(out / "solves.csv", SolveRow, solves)
    _write_csv(out / "histories.csv", HistoryRow, histories)
    [solve] = _table(out / "solves.csv")
    return solve, _table(out / "histories.csv")


def test_solve_summary_without_residual(ref, ref_wells, tmp_path):
    # at lambda = 1e8 the first step underflows well 2's empty enlargement
    # to zero mass, which ends the solve before it records a residual
    rec = solve_auxiliary(1e8, (1, 2), ref_wells[0].field, ref.grid,
                          ref.potential, ref.params, ref.solver)
    assert rec.iterations == 1 and rec.residuals == [] and not rec.converged
    assert rec.stop_reason == "collapse"
    solve, history = _logged(tmp_path, 1e8, (1, 2), rec)
    # no step recorded a residual, so the solve has no history row
    assert history == []
    assert solve["stop"] == "collapse" and solve["iterations"] == "1"


def test_solve_summary_records_morse_index(ref, ref_sweep, tmp_path):
    solve, _ = _logged(tmp_path, 1e4, (1, 2), ref_sweep[-1])
    assert float(solve["morse_index"]) == 2
    # every 1D linear solve is direct
    assert solve["inner_iterations"] == "0"
    solve, _ = _logged(tmp_path, 1e4, (1, 2), replace(ref_sweep[-1], morse_index=math.nan))
    assert solve["morse_index"] == "nan"


def test_a_cell_with_a_comma_is_refused():
    row = SolveRow("sweep", 1e2, (1,), "breakdown (a, b)", 1, 0, math.nan)
    with pytest.raises(ValueError, match="holds a comma or a line break"):
        row_to_csv(row)


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


def test_numpy_float_cells_round_trip():
    # cells the pipeline takes from numpy reductions are written as floats
    def numpy_cells(row):
        return replace(row, **{
            f.name: np.float64(getattr(row, f.name)) if f.type == "float"
            else tuple(map(np.float64, getattr(row, f.name)))
            for f in fields(row) if f.type in ("float", "tuple[float, ...]")})

    rows = _sample_rows()
    text = "\n".join([csv_header(2)] + [row_to_csv(numpy_cells(r)) for r in rows])
    back, _ = rows_from_csv(text)
    assert [repr(r) for r in back] == [repr(r) for r in rows]


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


def test_readme_lists_the_energies_csv_columns():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"^`energies.csv` columns[^`]*:\s+`([^`]+)`", readme,
                       flags=re.M).group(1)
    k = 2
    columns = []
    for item in re.split(r",\s+", listed):
        if item.endswith("_1..k"):
            columns += [f"{item.removesuffix('1..k')}{j}" for j in range(1, k + 1)]
        else:
            columns.append(item)
    assert columns == csv_header(k).split(",")


@pytest.mark.parametrize("cls", [SolveRow, HistoryRow])
def test_readme_lists_the_columns_of_the_solve_tables(cls):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    name = {SolveRow: "solves.csv", HistoryRow: "histories.csv"}[cls]
    listed = re.search(rf"^`{name}` columns[^`]*:\s+`([^`]+)`", readme,
                       flags=re.M).group(1)
    assert re.split(r",\s+", listed) == csv_header(0, cls).split(",")


def test_readme_run_usage_lists_every_option(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    usage = re.search(r"^logbump run (.*)$", readme, flags=re.M).group(1)
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    accepted = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, flags=re.M))
    assert set(re.findall(r"--[a-z-]+", usage)) == accepted - {"--help"}


def test_readme_library_use_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["big_t"] == 2.0
    assert scope["state"].converged and scope["state"].bump_mask == (1, 2)


def test_run_evaluates_no_energy_outside_the_solves(tmp_path, monkeypatch, capsys):
    # the minimax bound comes from the ground states' levels, and each
    # solve's report reuses its last energy
    from logbump.functional import PenalizedFunctional

    calls = []
    phi_total = PenalizedFunctional.phi_total

    def counted(self, values):
        calls.append(1)
        return phi_total(self, values)

    monkeypatch.setattr(PenalizedFunctional, "phi_total", counted)
    assert run(parse_config(BUNDLED), out_dir=str(tmp_path / "run")) == 0
    assert calls == []


def test_report_cells_repeat_energies_cells(tmp_path, capsys):
    rows = _sample_rows()
    energies = [csv_header(2)] + [row_to_csv(r) for r in rows]
    (tmp_path / "energies.csv").write_text("\n".join(energies) + "\n")
    assert report(str(tmp_path)) == 0
    capsys.readouterr()
    rep = (tmp_path / "report.csv").read_text().splitlines()
    repeated = [column for column, _, _ in REPORT_COLUMNS]
    assert rep[0].split(",") == repeated
    columns = energies[0].split(",")
    expected = []
    for line in energies[1:]:
        cells = dict(zip(columns, line.split(",")))
        expected.append(",".join(cells[c] for c in repeated))
    assert sorted(rep[1:]) == sorted(expected)


@pytest.mark.parametrize("name", ["three-wells-1d", "twin-wells-2d"])
def test_bundled_configs_match_benchmark_configs(name):
    root = Path(__file__).resolve().parent.parent
    bundled = parse_config(root / "configs" / f"{name}.cfg")
    bench = parse_config(root / "perfbench" / "configs" / f"{name}.cfg")
    assert bundled.out == f"runs/{name}"
    assert canonical_text(bundled) == canonical_text(replace(bench, out=bundled.out))


def test_missing_selection_fails_multiplicity(tmp_path, monkeypatch):
    # well 2's first Newton step breaks down, so the selections that need
    # its ground state are not swept
    _inject(monkeypatch, "solve_single_well",
            _breaking(monkeypatch, lambda geometry, j, *args: j == 2,
                      TridiagonalLDL, "solve_once", "injected failure"))
    out = tmp_path / "missing"
    assert run(parse_config_text(TINY), out_dir=str(out)) == 1
    verdicts = (out / "verdicts.txt").read_text()
    assert ("criterion=multiplicity status=FAIL margin=-2.0 detail=1 distinct "
            "occupation masks of 3 expected; no rows for gamma 1+2, 2") in verdicts


def test_unconverged_rows_fail_the_row_verdicts(tmp_path, monkeypatch):
    # every gamma = 2 sweep solve breaks down at its start, so its rows
    # carry its start fields, well 2's ground state and then its level
    # field, unconverged: they judge only nan margins, their occupation mask
    # is not counted, and no lambda threshold is read off them
    broken_sweep = _breaking(monkeypatch, lambda lam, gamma, *args: tuple(gamma) == (2,),
                             PenalizedFunctional, "evaluate", "injected sweep")
    monkeypatch.setattr(solver, "solve_auxiliary", broken_sweep(solver.solve_auxiliary))
    out = tmp_path / "unconverged"
    assert run(parse_config_text(TINY + "gamma = all\n"), out_dir=str(out)) == 1
    rows, _ = rows_from_csv((out / "energies.csv").read_text())
    assert [(r.lam, r.converged) for r in rows if r.gamma == (2,)] == [
        (100.0, False), (10000.0, False)]
    verdicts = (out / "verdicts.txt").read_text()
    assert ("criterion=multiplicity status=FAIL margin=-1.0 detail=2 distinct "
            "occupation masks of 3 expected") in verdicts
    judged = {ln.split()[0]: ln.split()[1:3] for ln in verdicts.splitlines()}
    for name in ("positivity", "linfty_outside", "localization_trend", "energy_sandwich",
                 "limit_energy_gap", "bump_fidelity"):
        assert judged[f"criterion={name}"] == ["status=FAIL", "margin=nan"], name
    [linfty] = [ln for ln in verdicts.splitlines() if "criterion=linfty_outside" in ln]
    assert linfty.endswith("; gamma=2: never")


def test_morse_index_mismatch_is_a_failure(tmp_path, capsys, monkeypatch):
    import logbump.cli as cli

    sweep = cli.lambda_sweep

    def one_off(lambdas, gamma, *args):
        steps = sweep(lambdas, gamma, *args)
        for step in steps:
            if step.lam == 100.0:
                step.morse_index += 1
        return steps

    monkeypatch.setattr(cli, "lambda_sweep", one_off)
    out = tmp_path / "morse"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    assert capsys.readouterr().err == (
        "FAILURE: gamma 1 sweep at lambda=100 has Morse index 2, expected 1\n")
    assert float(_solve(out, "sweep", "100.0", "1")["morse_index"]) == 2


def test_uncertified_morse_index_is_a_failure(tmp_path, capsys, monkeypatch):
    import logbump.cli as cli

    sweep = cli.lambda_sweep

    def uncertified(lambdas, gamma, *args):
        steps = sweep(lambdas, gamma, *args)
        for step in steps:
            if step.lam == 100.0:
                step.morse_index = math.nan
        return steps

    monkeypatch.setattr(cli, "lambda_sweep", uncertified)
    out = tmp_path / "uncertified"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    assert capsys.readouterr().err == (
        "FAILURE: gamma 1 sweep at lambda=100 has Morse index n/a, expected 1\n")
    solve = _solve(out, "sweep", "100.0", "1")
    assert solve["stop"] == "converged" and solve["morse_index"] == "nan"


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
    # the sweep that did not converge is named too
    assert capsys.readouterr().err == "".join(
        f"FAILURE: {what} at lambda=100 did not converge "
        "(breakdown (LDL^T breakdown: pivot near zero))\n"
        for what in ("enlarged well 1 level", "gamma 1 sweep"))
    rows, _ = rows_from_csv((out / "energies.csv").read_text())
    assert [(r.lam, r.converged) for r in rows] == [(100.0, False), (10000.0, True)]
    solve = _solve(out, "sweep", "100.0", "1")
    assert solve["stop"] == "breakdown (LDL^T breakdown: pivot near zero)"
    assert solve["iterations"] == "1"
    assert _solve(out, "level", "100.0", "1")["stop"] == solve["stop"]
    assert ("criterion=convergence status=FAIL margin=0.0 detail=flagged solves "
            "present") in (out / "verdicts.txt").read_text()


SMALL_2D = """
scenario = small-2d
dim = 2
R = 3.0
n = 61
potential_power = 1.0
well.1.center = 0.0, 0.0
well.1.half = 2.0, 2.0
well.1.enlarged_half = 2.5, 2.5
lambdas = 100.0
"""


def test_uncounted_local_morse_index_is_a_failure(tmp_path, capsys, monkeypatch):
    # the 2D solves converge, but their final inertia count breaks down: the
    # local boxes' and the sweep enclosure's
    def singular(*args):
        raise SolveError("LDL^T breakdown: Schur block near singular")

    monkeypatch.setattr(solver, "negative_eigenvalues", singular)
    out = tmp_path / "small-2d"
    assert run(parse_config_text(SMALL_2D), out_dir=str(out)) == 1
    err = capsys.readouterr().err
    assert "FAILURE: well 1 ground state has Morse index n/a, expected 1" in err
    assert ("FAILURE: enlarged well 1 level at lambda=100 has Morse index n/a, "
            "expected 1") in err
    assert "FAILURE: gamma 1 sweep at lambda=100 has Morse index n/a, expected 1" in err
    assert "did not converge" not in err


def test_uncounted_one_d_morse_index_is_a_failure(tmp_path, capsys, monkeypatch):
    # the 1D solves converge, but the count-only LDL^T pass at each returned
    # field breaks down; the steps' own solves are untouched
    def singular(*args):
        raise SolveError("LDL^T breakdown: pivot near zero")

    monkeypatch.setattr(solver, "negative_eigenvalues", singular)
    out = tmp_path / "tiny"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    failures = capsys.readouterr().err.splitlines()
    assert len(failures) == len(_table(out / "solves.csv")) == 5
    assert all(ln.endswith("has Morse index n/a, expected 1") for ln in failures)
    assert all(r["stop"] == "converged" for r in _table(out / "solves.csv"))


WIDE_WELL_1D = """
R = 8.379
n = 201
well.1.center = 0.0
well.1.half = 5.17
well.1.enlarged_half = 6.0
gamma = 1
lambdas = 100.0, 10000.0
"""


def test_wide_well_ground_state_is_counted_at_its_field(tmp_path, capsys):
    # the ground state converges in one Newton step from the Gausson, and
    # its Jacobian's second eigenvalue is about +1e-6 (a near-translation
    # mode of the wide well): counted at the start's Jacobian it read 2
    out = tmp_path / "wide"
    run(parse_config_text(WIDE_WELL_1D), out_dir=str(out))
    assert "FAILURE:" not in capsys.readouterr().err
    row = _solve(out, "ground_state", "nan", "1")
    assert (row["stop"], row["iterations"], row["morse_index"]) == ("converged", "1", "1.0")


# A seeded corpus draw (tests/test_corpus.py): one 2D well.  Its gamma 1
# sweep solves at lambda = 100 and 1e5 converge to fields whose own
# Jacobian has 1 negative eigenvalue, where that of the iterate before
# had 2.
ONE_WELL_2D = """
dim = 2
R = 7.296597988884961
n = 61
well.1.center = 0.0, 0.7445056171685913
well.1.half = 4.451811367801454, 4.451811367801454
well.1.enlarged_half = 5.655906339747616, 5.655906339747616
gamma = all
lambdas = 10.0, 100.0, 100000.0
cap = 1.0107571743564985
potential_power = 1.0
delta = 0.0730700130158933
l = 0.5177442903992596
max_iters = 3
"""


def test_two_d_sweep_morse_index_is_the_whole_box_count_at_its_field(tmp_path, capsys):
    config = parse_config_text(ONE_WELL_2D)
    out = tmp_path / "one-well-2d"
    run(config, out_dir=str(out))
    assert "has Morse index" not in capsys.readouterr().err
    grid = config.grid()
    sweeps = [r for r in _table(out / "solves.csv")
              if r["kind"] == "sweep" and r["stop"] == "converged"]
    assert [r["lambda"] for r in sweeps] == ["10.0", "100.0", "100000.0"]
    for row in sweeps:
        lam = float(row["lambda"])
        field = load_field(out / "gamma_1" / f"field_lambda_{lam:g}.npy", grid)
        fun = PenalizedFunctional(grid, config.potential(), config.params(), (1,), lam)
        d = fun.evaluate(field.values)[2]
        assert float(row["morse_index"]) == whole_box_negative_eigenvalues(d, grid.h) == 1


BENCH = Path(__file__).resolve().parents[1] / "perfbench"
# energies.csv columns linear in the field.  The energies are stationary at
# a solution, so they move with the square of the residual; these move with
# the residual itself, and the benchmark's reference, recorded by the
# seed's solver at the same tol = 1e-6, holds them 2.2e-6 of their scale
# away.  They keep the benchmark's bound, 1e-4 of their scale; the other
# columns get 1e-9.
FIELD_COLUMNS = {"lambda_v_mass", "outside_norm_sq", "sup_outside"}
# min_u is zero up to rounding in 1D, a column scale of 1e-13 to 4e-11, so
# there it takes the benchmark's absolute bound (ENERGY_ATOL in run.py)
MIN_U_ATOL_1D = 1e-12
# the benchmark's workloads and their configs (WORKLOADS in run.py)
BENCH_CONFIGS = {
    "twin-wells-1d": BENCH.parent / "configs" / "twin-wells-1d.cfg",
    "three-wells-1d": BENCH / "configs" / "three-wells-1d.cfg",
    "twin-wells-2d": BENCH / "configs" / "twin-wells-2d.cfg",
}


def _energy_rows(path) -> dict:
    with open(path, newline="") as fh:
        return {(r["lambda"], r["gamma"]): r for r in csv.DictReader(fh)}


def _verdict_statuses(path) -> list:
    return [line.split()[:2] for line in path.read_text().splitlines()]


@pytest.mark.parametrize("workload", sorted(BENCH_CONFIGS))
def test_run_matches_the_benchmark_reference(tmp_path, capsys, workload):
    # the benchmark's correctness gate on each of its workloads, in tier-1
    ref = BENCH / "reference" / workload
    out = tmp_path / workload
    config = parse_config(BENCH_CONFIGS[workload])
    run(config, out_dir=str(out))
    failures = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("FAILURE:")]
    assert failures == (ref / "failures.txt").read_text().splitlines()
    assert _verdict_statuses(out / "verdicts.txt") == _verdict_statuses(
        ref / "verdicts.txt")
    want, got = _energy_rows(ref / "energies.csv"), _energy_rows(out / "energies.csv")
    assert got.keys() == want.keys()
    for col in next(iter(want.values())):
        if col in ("lambda", "gamma", "converged", "occupied"):
            assert [got[k][col] for k in want] == [r[col] for r in want.values()], col
            continue
        values = {k: float(r[col]) for k, r in want.items()}
        scale = max(abs(v) for v in values.values() if not math.isnan(v))
        bound = (1e-4 if col in FIELD_COLUMNS else 1e-9) * scale
        if col == "min_u" and config.dim == 1:
            bound = MIN_U_ATOL_1D
        for k, v in values.items():
            x = float(got[k][col])
            assert abs(x - v) <= bound or math.isnan(v) and math.isnan(x), (col, k)
    # every level converged with Morse index 1, so every lambda after the
    # first starts from the level fields and none from the fallback
    levels = [r for r in _table(out / "solves.csv") if r["kind"] == "level"]
    assert levels and all((r["stop"], float(r["morse_index"])) == ("converged", 1.0)
                          for r in levels)


def test_two_d_benchmark_block_count_guard(tmp_path, block_ldl_calls):
    # deterministic work counter: one run of the twin-wells-2d workload
    # takes 14 block LDL^T counts, one per local solve (2 ground states and
    # 6 levels) and one per enlarged well of each of its 3 sweep solves,
    # whose fields certify each box's lower bound by their own negative
    # curvature (20 counts with a second one per box); each sweep's Morse
    # index is still the whole-box count at its field
    config = parse_config(BENCH_CONFIGS["twin-wells-2d"])
    out = tmp_path / "twin-wells-2d"
    run(config, out_dir=str(out))
    assert len(block_ldl_calls) == 14
    grid = config.grid()
    sweeps = [r for r in _table(out / "solves.csv") if r["kind"] == "sweep"]
    assert len(sweeps) == 3
    for row in sweeps:
        lam = float(row["lambda"])
        field = load_field(out / "gamma_1+2" / f"field_lambda_{lam:g}.npy", grid)
        fun = PenalizedFunctional(grid, config.potential(), config.params(), (1, 2), lam)
        d = fun.evaluate(field.values)[2]
        assert float(row["morse_index"]) == whole_box_negative_eigenvalues(d, grid.h) == 2


def test_two_d_benchmark_inverse_guard(tmp_path, block_ldl_calls, inv_calls):
    # deterministic work counter: each block count of the twin-wells-2d
    # workload borders every SPD Schur row onto the next with one Cholesky
    # factor, and inverts a block only around its one negative pivot: 28
    # inverses over the 14 counts (620, one per row but the last, when
    # every row took one)
    run(parse_config(BENCH_CONFIGS["twin-wells-2d"]), out_dir=str(tmp_path / "out"))
    assert len(block_ldl_calls) == 14
    assert len(inv_calls) <= 2 * len(block_ldl_calls)


def test_three_wells_verdicts_are_grid_stable(tmp_path, capsys):
    # the bundled grid and one eight times finer give the same verdicts:
    # each run FAILs only limit_energy_gap (1.314e-2 and 1.141e-2)
    text = (BUNDLED.parent / "three-wells-1d.cfg").read_text()
    statuses = []
    for n in (561, 4481):
        out = tmp_path / f"n{n}"
        run(parse_config_text(_config_with("n", str(n), text)), out_dir=str(out))
        statuses.append(_verdict_statuses(out / "verdicts.txt"))
    assert len(statuses[0]) == 8 and statuses[1] == statuses[0]


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
        "solve_auxiliary": ref_sweep[0],
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


def _raises_on_call(owner, name, call, message):
    """owner.name, except that its call-th call raises SolveError(message)."""
    original, calls = getattr(owner, name), itertools.count(1)

    def wrapped(*args):
        if next(calls) == call:
            raise SolveError(message)
        return original(*args)

    return wrapped


def _breaking(monkeypatch, when, owner, name, message):
    """A `broken` for `_inject`: in the solves whose arguments satisfy when,
    the first call of owner.name raises SolveError(message), so that the
    solve breaks down from within."""
    def broken(solve):
        def wrapped(*args):
            if not when(*args):
                return solve(*args)
            with monkeypatch.context() as m:
                m.setattr(owner, name, _raises_on_call(owner, name, 1, message))
                return solve(*args)
        return wrapped
    return broken


def test_ground_state_breakdown_keeps_its_steps(tmp_path, monkeypatch):
    # the Nehari projection of the second step's iterate raises: the solve
    # stops as a breakdown with the first step's history entry
    config = parse_config_text(TINY + "gamma = 1\n")
    monkeypatch.setattr(_LocalWell, "nehari_project", _raises_on_call(
        _LocalWell, "nehari_project", 3, "injected projection"))
    rec = solve_single_well(config.geometry(), 1, config.grid(), config.solver_config())
    assert rec.stop == "breakdown (injected projection)"
    assert rec.iterations == 2 and len(rec.residuals) == len(rec.energies) == 1
    # well 1's ground state is the run's first solve
    monkeypatch.setattr(_LocalWell, "nehari_project", _raises_on_call(
        _LocalWell, "nehari_project", 3, "injected projection"))
    out = tmp_path / "projection"
    assert run(config, out_dir=str(out)) == 1
    assert _solve(out, "ground_state", "nan", "1")["stop"] == rec.stop
    [row] = _history(out, "ground_state", "nan", "1")
    assert (row["step"], float(row["relative_residual"]), float(row["energy"])) == (
        "1", rec.residuals[0], rec.energies[0])
    assert np.array_equal(np.load(out / "singlewell" / "omega_1.npy"), rec.field.values)


def test_failed_well_solve_still_writes_verdicts(tmp_path, capsys, monkeypatch):
    _inject(monkeypatch, "solve_single_well",
            _breaking(monkeypatch, lambda geometry, j, *args: j == 2,
                      _LocalWell, "nehari_project", "injected failure"))
    out = tmp_path / "failed-well"
    assert run(parse_config_text(TINY), out_dir=str(out)) == 1
    assert ("FAILURE: well 2 ground state did not converge (breakdown (injected failure))"
            in capsys.readouterr().err)
    # the solve that broke down at its start has its solves.csv row, with no
    # Newton step, and its field, the start, is saved
    row = _solve(out, "ground_state", "nan", "2")
    assert (row["stop"], row["iterations"], row["morse_index"]) == (
        "breakdown (injected failure)", "0", "nan")
    assert not _history(out, "ground_state", "nan", "2")
    verdicts = (out / "verdicts.txt").read_text()
    assert ("criterion=multiplicity status=FAIL margin=-2.0 detail=1 distinct "
            "occupation masks of 3 expected; no rows for gamma 1+2, 2") in verdicts
    assert ("criterion=convergence status=FAIL margin=0.0 detail=no rows for "
            "gamma 1+2, 2\n") in verdicts
    assert (out / "gamma_1").is_dir() and not (out / "gamma_2").exists()
    assert "# derived: c_2 = nan\n" in (out / "manifest.txt").read_text()
    assert (out / "singlewell" / "omega_2.npy").is_file()


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
    assert "# derived: T = 2.0\n" in (out / "manifest.txt").read_text()


def test_failed_neumann_solve_is_a_failure(tmp_path, capsys, monkeypatch):
    _inject(monkeypatch, "solve_neumann_well",
            _breaking(monkeypatch, lambda lam, *args: lam == 100.0,
                      _LocalWell, "nehari_project", "injected failure"))
    out = tmp_path / "failed-level"
    assert run(parse_config_text(TINY + "gamma = 1\n"), out_dir=str(out)) == 1
    assert capsys.readouterr().err == ("FAILURE: enlarged well 1 level at lambda=100 did "
                                       "not converge (breakdown (injected failure))\n")
    row = _solve(out, "level", "100.0", "1")
    assert (row["stop"], row["iterations"], row["morse_index"]) == (
        "breakdown (injected failure)", "0", "nan")
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


def _reported_failures(out, capsys) -> list[str]:
    """The failed solves that `logbump report` lists for a run directory,
    written as `run`'s FAILURE lines."""
    assert main(["report", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("solves not converged or of another Morse index:") + 1
    end = lines.index("solves with the most MINRES iterations:")
    return [f"FAILURE: {line.removeprefix('  ')}" for line in lines[start:end]
            if line != "  none"]


def test_report_lists_the_failure_lines_of_run(tmp_path, capsys, monkeypatch):
    # one injected failure of each kind: a ground state that breaks down at
    # its start (well 2, so only gamma 1 is swept), a level that breaks down
    # at its start and an unconverged one, a sweep solve of the wrong Morse
    # index and one that breaks down at its start
    def capped(solve):
        def wrapped(lam, j, grid, potential, config):
            if (lam, j) == (10000.0, 2):
                config = replace(config, max_iters=1)
            return solve(lam, j, grid, potential, config)
        return wrapped

    def saddle(solve):
        def wrapped(lam, *args):
            record = solve(lam, *args)
            record.morse_index += 1
            return record
        return wrapped

    _inject(monkeypatch, "solve_single_well",
            _breaking(monkeypatch, lambda geometry, j, *args: j == 2,
                      _LocalWell, "nehari_project", "injected ground state"))
    _inject(monkeypatch, "solve_neumann_well", capped)
    _inject(monkeypatch, "solve_neumann_well",
            _breaking(monkeypatch, lambda lam, j, *args: (lam, j) == (100.0, 1),
                      _LocalWell, "nehari_project", "injected level"))
    broken_sweep = _breaking(monkeypatch, lambda lam, *args: lam == 10000.0,
                             PenalizedFunctional, "evaluate", "injected sweep")
    monkeypatch.setattr(solver, "solve_auxiliary",
                        saddle(broken_sweep(solver.solve_auxiliary)))
    out = tmp_path / "failures"
    assert run(parse_config_text(TINY), out_dir=str(out)) == 1
    failures = capsys.readouterr().err.splitlines()
    assert failures == [
        "FAILURE: well 2 ground state did not converge (breakdown (injected ground state))",
        "FAILURE: enlarged well 1 level at lambda=100 did not converge "
        "(breakdown (injected level))",
        "FAILURE: enlarged well 2 level at lambda=10000 did not converge (iteration cap)",
        "FAILURE: gamma 1 sweep at lambda=100 has Morse index 2, expected 1",
        "FAILURE: gamma 1 sweep at lambda=10000 did not converge "
        "(breakdown (injected sweep))",
    ]
    assert _reported_failures(out, capsys) == failures

    # every attempt has one solves.csv row; one that broke down at its start
    # took no Newton step
    solves = _table(out / "solves.csv")
    assert [(r["kind"], r["lambda"], r["gamma"]) for r in solves] == [
        ("ground_state", "nan", "1"), ("ground_state", "nan", "2"),
        ("level", "100.0", "1"), ("level", "100.0", "2"),
        ("level", "10000.0", "1"), ("level", "10000.0", "2"),
        ("sweep", "100.0", "1"), ("sweep", "10000.0", "1"),
    ]
    for row in (solves[1], solves[2], solves[7]):
        assert (row["iterations"], row["inner_iterations"], row["morse_index"]) == (
            "0", "0", "nan")
        assert not _history(out, row["kind"], row["lambda"], row["gamma"])
    # the sweep solve that broke down keeps its row, and its field is its
    # start, well 1's level field at lambda = 10000
    rows, _ = rows_from_csv((out / "energies.csv").read_text())
    assert [(r.lam, r.converged) for r in rows] == [(100.0, True), (10000.0, False)]
    assert sorted(p.name for p in (out / "gamma_1").iterdir()) == [
        "field_lambda_100.npy", "field_lambda_10000.npy", "limit.csv"]
    config = parse_config_text(TINY)
    level = solve_neumann_well(1e4, 1, config.grid(), config.potential(),
                               config.solver_config())
    assert level.converged and level.morse_index == 1
    assert np.array_equal(np.load(out / "gamma_1" / "field_lambda_10000.npy"),
                          level_start([level], config.grid()).values)


def test_a_steep_potential_runs_without_warning(tmp_path, capsys):
    # the bundled twin wells at potential_power = 1000, where dist^1000
    # overflows far from the wells before the cap clips it
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(_config_with("potential_power", "1000", BUNDLED.read_text()))
    out = tmp_path / "steep"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = main(["run", "--config", str(cfg), "--out", str(out)])
    failures = capsys.readouterr().err.splitlines()
    assert status in (0, 1)
    assert _reported_failures(out, capsys) == failures
