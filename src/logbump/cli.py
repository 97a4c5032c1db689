"""Batch front-end: flat-file configs, the run pipeline, and reports.

Configs are flat ``key = value`` text (diffable, trivially parsed), with
one dotted block per well.  One table, `CONFIG_KEYS`, gives each key's
parser and default, and drives both parsing and the canonical echo.  The
types a config builds (grid, wells, potential, penalization constants,
solver and minimax settings) check the ranges, still at parse time, and
every error names the first offending key; unknown keys are rejected.
The canonical echo of a config reparses to an identical config, and the
run manifest starts with that echo so a run is reproducible from its own
artifacts.

A run executes: per-well ground states, truncation threshold, path scale,
per-gamma warm-started lambda sweeps, enlarged-well levels, minimax upper
bounds, and finally the verification verdicts, which are recomputed from
the emitted CSV rather than from in-memory state.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from logbump import penalty
from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    box_mask_full,
    save_field,
    validate_geometry_on_grid,
)
from logbump.functional import h1_distance
from logbump.penalty import make_params
from logbump.solver import (
    MinimaxParams,
    SolveError,
    SolverConfig,
    choose_t,
    lambda_sweep,
    minimax_upper_bound,
    multi_bump_init,
    solve_neumann_well,
    solve_single_well,
)
from logbump.verify import (
    SweepRow,
    check_limit_problem,
    compute_verdicts,
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class WellSpec:
    center: tuple[float, ...]
    half: tuple[float, ...]
    enlarged_half: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    dim: int
    r: float
    n: int
    cap: float
    potential_power: float
    delta: float
    l: float
    p: float
    wells: tuple[WellSpec, ...]
    gamma: str                      # "all" or "1,2"
    lambdas: tuple[float, ...]
    tol: float
    max_iters: int
    cg_tol: float
    cg_max_iters: int
    bump_threshold: float
    minimax_t: float | None         # None means auto
    minimax_m: int
    workers: int
    out: str

    # -- builders ---------------------------------------------------------

    def grid(self) -> Grid:
        return Grid(dim=self.dim, r=self.r, n=self.n)

    def geometry(self) -> WellGeometry:
        return WellGeometry(
            dim=self.dim,
            wells=tuple(Box(w.center, w.half) for w in self.wells),
            enlargements=tuple(Box(w.center, w.enlarged_half) for w in self.wells),
        )

    def potential(self) -> PotentialSpec:
        return PotentialSpec(self.geometry(), cap=self.cap, power=self.potential_power)

    def params(self):
        return make_params(delta=self.delta, l=self.l, p=self.p)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tol=self.tol, max_iters=self.max_iters,
                            cg_tol=self.cg_tol, cg_max_iters=self.cg_max_iters,
                            bump_threshold=self.bump_threshold)

    def gamma_subsets(self) -> list[tuple[int, ...]]:
        if self.gamma != "all":
            return [tuple(int(t) for t in self.gamma.split(","))]
        wells = range(1, len(self.wells) + 1)
        return [g for size in wells for g in itertools.combinations(wells, size)]


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("not an integer") from None


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError("not a number") from None
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _floats(text: str, count: int | None = None) -> tuple[float, ...]:
    vals = tuple(_finite(t.strip()) for t in text.split(","))
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} comma-separated values")
    return vals


def _nonempty(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def _gamma(text: str) -> str:
    """'all', or the indices sorted; their range is checked with the wells."""
    if text == "all":
        return text
    try:
        sel = sorted(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError("expected 'all' or indices") from None
    if len(set(sel)) != len(sel):
        raise ValueError("repeated index")
    return ",".join(str(j) for j in sel)


def _lambdas(text: str) -> tuple[float, ...]:
    lambdas = _floats(text)
    if any(b <= a for a, b in zip((0.0,) + lambdas, lambdas)):
        raise ValueError("values must be positive and strictly ascending")
    return lambdas


def _positive(text: str) -> int:
    count = _integer(text)
    if count < 1:
        raise ValueError("must be at least 1")
    return count


_NO_DEFAULT = object()

# (key, RunConfig field, parser, default) in echo order; the well blocks
# are echoed after `p`.  A callable default is computed from the fields
# read before it.  The types built from the config check the ranges.
CONFIG_KEYS = (
    ("scenario", "scenario", _nonempty, "run"),
    ("dim", "dim", _integer, 1),
    ("R", "r", _finite, _NO_DEFAULT),
    ("n", "n", _integer, _NO_DEFAULT),
    ("cap", "cap", _finite, PotentialSpec.cap),
    ("potential_power", "potential_power", _finite, PotentialSpec.power),
    ("delta", "delta", _finite, penalty.DEFAULT_DELTA),
    ("l", "l", _finite, penalty.DEFAULT_SLOPE),
    ("p", "p", _finite, penalty.DEFAULT_GROWTH),
    ("gamma", "gamma", _gamma, "all"),
    ("lambdas", "lambdas", _lambdas, (10.0, 100.0, 1000.0, 10000.0)),
    ("tol", "tol", _finite, SolverConfig.tol),
    ("max_iters", "max_iters", _integer, SolverConfig.max_iters),
    ("cg_tol", "cg_tol", _finite, SolverConfig.cg_tol),
    ("cg_max_iters", "cg_max_iters", _integer, SolverConfig.cg_max_iters),
    ("bump_threshold", "bump_threshold", _finite, SolverConfig.bump_threshold),
    ("minimax_T", "minimax_t", lambda t: None if t == "auto" else _finite(t), None),
    ("minimax_m", "minimax_m", _integer, 33),
    ("workers", "workers", _positive, 1),
    ("out", "out", _nonempty, lambda values: os.path.join("runs", values["scenario"])),
)
_WELL_SUFFIXES = ("center", "half", "enlarged_half")
_KEY_OF_FIELD = {field: key for key, field, _, _ in CONFIG_KEYS}
# library parameters named unlike the RunConfig field they are built from
_FIELD_OF_PARAM = {"power": "potential_power", "big_t": "minimax_t",
                   "m": "minimax_m"}


def _parse_value(key: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc} (got {text!r})") from None


def _named_error(exc: ValueError) -> ConfigError:
    """A library type's 'name: reason' message, renamed to the config key."""
    name, _, reason = str(exc).partition(": ")
    key = _KEY_OF_FIELD.get(_FIELD_OF_PARAM.get(name, name))
    return ConfigError(str(exc) if key is None else f"{key}: {reason}")


def parse_config_text(text: str) -> RunConfig:
    """Parse a flat key-value config and validate it against the types it
    builds; every error names the offending key."""
    raw: dict[str, str] = {}
    for ln_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"{key}: duplicate key")
        raw[key] = value

    wells_raw: dict[int, dict[str, str]] = {}
    for key in list(raw):
        if key.startswith("well."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _WELL_SUFFIXES:
                raise ConfigError(f"unknown key: {key}")
            idx = _parse_value(key, _positive, parts[1])
            wells_raw.setdefault(idx, {})[parts[2]] = raw.pop(key)
        elif key not in _KEY_OF_FIELD.values():
            raise ConfigError(f"unknown key: {key}")

    values = {}
    for key, field, parse, default in CONFIG_KEYS:
        if key in raw:
            values[field] = _parse_value(key, parse, raw[key])
        elif default is _NO_DEFAULT:
            raise ConfigError(f"{key}: required key missing")
        else:
            values[field] = default(values) if callable(default) else default

    try:
        grid = Grid(dim=values["dim"], r=values["r"], n=values["n"])
    except ValueError as exc:
        raise _named_error(exc) from None
    # wells 1..k, k the largest index given, so a gap is a missing key
    point = partial(_floats, count=grid.dim)
    wells = []
    for idx in range(1, max(wells_raw, default=1) + 1):
        entry = wells_raw.get(idx, {})
        for suffix in _WELL_SUFFIXES:
            if suffix not in entry:
                raise ConfigError(f"well.{idx}.{suffix}: required key missing")
        wells.append(WellSpec(*(_parse_value(f"well.{idx}.{suffix}", point, entry[suffix])
                                for suffix in _WELL_SUFFIXES)))
    config = RunConfig(wells=tuple(wells), **values)
    sel = () if config.gamma == "all" else config.gamma_subsets()[0]
    if any(not 1 <= j <= len(wells) for j in sel):
        raise ConfigError(f"gamma: indices must lie in 1..{len(wells)} (got {config.gamma!r})")

    try:
        validate_geometry_on_grid(config.geometry(), grid)
    except ValueError as exc:
        raise ConfigError(f"well: {exc}") from None
    try:
        config.potential()
        config.params()
        config.solver_config()
        MinimaxParams(big_t=2.0 if config.minimax_t is None else config.minimax_t,
                      m=config.minimax_m)
    except ValueError as exc:
        raise _named_error(exc) from None
    return config


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def _echo(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return "auto" if value is None else str(value)


def canonical_text(config: RunConfig) -> str:
    """Canonical echo; parsing it reproduces the config exactly."""
    lines = []
    for key, field, _, _ in CONFIG_KEYS:
        lines.append(f"{key} = {_echo(getattr(config, field))}")
        if key == "p":
            for idx, well in enumerate(config.wells, start=1):
                lines += [f"well.{idx}.{suffix} = {_echo(getattr(well, suffix))}"
                          for suffix in _WELL_SUFFIXES]
    return "\n".join(lines) + "\n"


# -- CSV schema ---------------------------------------------------------------


def _mask_str(mask) -> str:
    return "+".join(str(j) for j in mask)


def _mask_from_str(text) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(t) for t in text.split("+"))


def _parse_csv_bool(text) -> bool:
    return text == "true"


# (column, SweepRow field, cell parser) ahead of the per-well blocks
_CSV_SCALARS = (
    ("lambda", "lam", float),
    ("gamma", "gamma", _mask_from_str),
    ("converged", "converged", _parse_csv_bool),
    ("phi_total", "phi_total", float),
    ("b_upper", "b_upper", float),
    ("c_gamma", "c_gamma", float),
    ("lambda_v_mass", "lambda_v_mass", float),
    ("outside_norm_sq", "outside_norm_sq", float),
    ("sup_outside", "sup_outside", float),
    ("a0", "a0", float),
    ("min_u", "min_u", float),
    ("mass_frac", "mass_frac", float),
    ("occupied", "occupied", _mask_from_str),
)
# (column prefix, SweepRow field) of the per-well float blocks, one column
# per well j = 1..k
_CSV_WELL_BLOCKS = (
    ("i_lambda_", "i_lambda"),
    ("c_", "c_dirichlet"),
    ("c_lambda_", "c_lambda"),
)


def _csv_columns(k: int) -> list[tuple[str, str, object, int | None]]:
    """(column, field, parser, well slot or None) in energies.csv order."""
    cols = [(name, field, parse, None) for name, field, parse in _CSV_SCALARS]
    for prefix, field in _CSV_WELL_BLOCKS:
        cols += [(f"{prefix}{j}", field, float, j - 1) for j in range(1, k + 1)]
    return cols


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return _mask_str(value)
    return repr(value)


def csv_header(k: int) -> str:
    return ",".join(name for name, _, _, _ in _csv_columns(k))


def _csv_cells(row: SweepRow) -> dict[str, str]:
    """The row's energies.csv cells by column name, in file order."""
    cells = {}
    for name, field, _, slot in _csv_columns(len(row.i_lambda)):
        value = getattr(row, field)
        cells[name] = _csv_cell(value if slot is None else value[slot])
    return cells


def row_to_csv(row: SweepRow) -> str:
    return ",".join(_csv_cells(row).values())


def rows_from_csv(text: str) -> tuple[list[SweepRow], int]:
    """Rows of energies.csv, each cell read by its header name.

    A header that lacks a column, repeats one or names an unknown one
    raises ValueError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    k = sum(1 for c in header if c.startswith("i_lambda_"))
    columns = _csv_columns(k)
    expected = [name for name, _, _, _ in columns]
    missing = [c for c in expected if c not in header]
    unknown = [c for c in header if c not in expected]
    if missing or unknown or len(set(header)) != len(header):
        raise ValueError(
            f"energies.csv header: missing {missing}, unknown {unknown}, "
            f"{len(header) - len(set(header))} repeated"
        )
    index = {name: i for i, name in enumerate(header)}
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"energies.csv row has {len(cells)} cells for {len(header)} columns"
            )
        fields: dict = {field: () for _, field in _CSV_WELL_BLOCKS}
        for name, field, parse, slot in columns:
            value = parse(cells[index[name]])
            if slot is None:
                fields[field] = value
            else:
                fields[field] += (value,)
        rows.append(SweepRow(**fields))
    return rows, k


# -- run pipeline -------------------------------------------------------------


def _gamma_dirname(gamma) -> str:
    return "gamma_" + _mask_str(gamma)


def _mass_fraction(u: Field, geometry, gamma) -> float:
    full = u.full()
    sq = full * full
    total = float(np.sum(sq))
    if total <= 0.0:
        return 0.0
    inside = 0.0
    for j in gamma:
        inside += float(np.sum(sq[box_mask_full(geometry.enlargements[j - 1], u.grid)]))
    return inside / total


def _morse_str(morse) -> str:
    return "n/a" if math.isnan(morse) else str(morse)


def _write_solve_summary(path, lam: float, gamma, record) -> None:
    """solve_lambda_L.txt; the final residual is nan when the solve stopped
    before recording one, and the Morse index n/a when it is uncertified."""
    final = record.residuals[-1] if record.residuals else math.nan
    with open(path, "w") as fh:
        fh.write(f"lambda = {lam!r}\n")
        fh.write(f"gamma = {_mask_str(gamma)}\n")
        fh.write(f"converged = {'true' if record.converged else 'false'}\n")
        fh.write(f"stop_reason = {record.stop}\n")
        fh.write(f"iterations = {record.iterations}\n")
        fh.write(f"inner_iterations = {record.inner_iterations}\n")
        fh.write(f"morse_index = {_morse_str(record.morse_index)}\n")
        fh.write(f"energy = {record.energy!r}\n")
        fh.write(f"final_residual = {final!r}\n")
        fh.write(f"bump_mask = {_mask_str(record.bump_mask)}\n")


def _write_history(path, residuals, energies) -> None:
    """iter,relative_residual,energy: one row per Newton step."""
    with open(path, "w") as fh:
        fh.write("iter,relative_residual,energy\n")
        for i, (res, en) in enumerate(zip(residuals, energies), start=1):
            fh.write(f"{i},{res!r},{en!r}\n")


def _local_failures(what: str, record) -> list[str]:
    """Failure lines of a ground-state solve: not converged, or converged
    to a critical point whose Morse index is not 1."""
    if not record.converged:
        return [f"{what} did not converge ({record.stop})"]
    if record.morse_index != 1:
        return [f"{what} has Morse index {_morse_str(record.morse_index)}, expected 1"]
    return []


def run(config: RunConfig, out_dir=None, workers=None, gamma=None) -> int:
    """Execute the pipeline; returns a process exit status."""
    if gamma is not None:
        config = replace(config, gamma=gamma)
        config = parse_config_text(canonical_text(config))
    out_root = out_dir or config.out
    os.makedirs(out_root, exist_ok=True)
    n_workers = workers or config.workers

    grid = config.grid()
    geometry = config.geometry()
    potential = config.potential()
    params = config.params()
    solver_cfg = config.solver_config()
    k = geometry.k
    gammas = config.gamma_subsets()
    needed_wells = sorted({j for g in gammas for j in g})

    manifest_path = os.path.join(out_root, "manifest.txt")
    with open(manifest_path, "w") as fh:
        fh.write(canonical_text(config))

    print(f"[{config.scenario}] solving {len(needed_wells)} well ground states")
    os.makedirs(os.path.join(out_root, "singlewell"), exist_ok=True)
    omegas: dict[int, Field] = {}
    c_dirichlet = [math.nan] * k
    failures: list[str] = []
    for j in needed_wells:
        try:
            rec = solve_single_well(geometry, j, grid, solver_cfg)
        except SolveError as exc:
            failures.append(f"well {j} ground state: {exc}")
            continue
        c_dirichlet[j - 1] = rec.energy
        save_field(rec.field, os.path.join(out_root, "singlewell", f"omega_{j}.csv"))
        _write_history(os.path.join(out_root, "singlewell", f"residuals_omega_{j}.csv"),
                       rec.residuals, rec.energies)
        failures += _local_failures(f"well {j} ground state", rec)
        if rec.converged:
            omegas[j] = rec.field

    big_t = config.minimax_t
    if big_t is None and omegas:
        try:
            big_t = choose_t(list(omegas.values()))
        except SolveError as exc:
            failures.append(f"path scale: {exc}")
    # a selection needs the scale and the converged ground state of each of
    # its wells; one skipped has no rows, which FAILs multiplicity
    runnable = [g for g in gammas if big_t is not None and all(j in omegas for j in g)]
    minimax = None if big_t is None else MinimaxParams(big_t=big_t, m=config.minimax_m)

    print(f"[{config.scenario}] enlarged-well levels for {len(config.lambdas)} lambdas")
    os.makedirs(os.path.join(out_root, "neumann"), exist_ok=True)
    c_lambda: dict[tuple[float, int], float] = {}
    for lam in config.lambdas:
        for j in needed_wells:
            what = f"enlarged well {j} level at lambda={lam:g}"
            try:
                nrec = solve_neumann_well(lam, j, grid, potential, solver_cfg)
            except SolveError as exc:
                failures.append(f"{what}: {exc}")
                continue
            _write_history(os.path.join(out_root, "neumann",
                                        f"residuals_lambda_{lam:g}_well_{j}.csv"),
                           nrec.residuals, nrec.energies)
            failures += _local_failures(what, nrec)
            c_lambda[(lam, j)] = nrec.c_lambda

    def gamma_job(gsel):
        gdir = os.path.join(out_root, _gamma_dirname(gsel))
        os.makedirs(gdir, exist_ok=True)
        ws = [omegas[j] for j in gsel]
        init = multi_bump_init(ws, [1.0 / big_t] * len(ws), big_t)
        steps = lambda_sweep(config.lambdas, gsel, init, grid, potential,
                             params, solver_cfg)
        b_upper = minimax_upper_bound(config.lambdas[-1], gsel, ws, minimax,
                                      grid, potential, params)
        c_gamma = sum(c_dirichlet[j - 1] for j in gsel)
        rows, notes = [], []
        for st in steps:
            morse = st.record.morse_index
            if st.record.converged and morse != len(gsel):
                notes.append(f"gamma {_mask_str(gsel)}: solve at lambda={st.lam:g} "
                             f"has Morse index {_morse_str(morse)}, "
                             f"expected {len(gsel)}")
            rep = st.report
            lam_c = tuple(
                c_lambda.get((st.lam, j), math.nan) if (j in gsel) else math.nan
                for j in range(1, k + 1)
            )
            rows.append(
                SweepRow(
                    lam=st.lam,
                    gamma=gsel,
                    converged=st.record.converged,
                    phi_total=rep.total,
                    b_upper=b_upper,
                    c_gamma=c_gamma,
                    lambda_v_mass=rep.lambda_v_mass,
                    outside_norm_sq=rep.outside_norm_sq,
                    sup_outside=rep.sup_outside,
                    a0=params.a0,
                    min_u=float(st.record.field.values.min()),
                    mass_frac=_mass_fraction(st.record.field, geometry, gsel),
                    occupied=st.record.bump_mask,
                    i_lambda=rep.per_well,
                    c_dirichlet=tuple(c_dirichlet),
                    c_lambda=lam_c,
                )
            )
            tag = f"lambda_{st.lam:g}"
            save_field(st.record.field, os.path.join(gdir, f"field_{tag}.csv"))
            _write_solve_summary(os.path.join(gdir, f"solve_{tag}.txt"),
                                 st.lam, gsel, st.record)
            _write_history(os.path.join(gdir, f"residuals_{tag}.csv"),
                           st.record.residuals, st.record.energies)
        limit_rows = check_limit_problem(steps, ws, c_gamma)
        with open(os.path.join(gdir, "limit.csv"), "w") as fh:
            fh.write("lambda,h1_gap,h1_gap_rel,phi_gap_rel\n")
            for lr in limit_rows:
                fh.write(f"{lr.lam!r},{lr.h1_gap!r},{lr.h1_gap_rel!r},"
                         f"{lr.phi_gap_rel!r}\n")
        return rows, notes

    print(f"[{config.scenario}] sweeping {len(runnable)} well selections "
          f"({n_workers} workers)")
    all_rows: list[SweepRow] = []

    def collect(gsel, result):
        try:
            rows, notes = result()
        except SolveError as exc:
            failures.append(f"gamma {_mask_str(gsel)}: {exc}")
            return
        all_rows.extend(rows)
        failures.extend(notes)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = {pool.submit(gamma_job, g): g for g in runnable}
            for fut, gsel in futures.items():
                collect(gsel, fut.result)
    else:
        for gsel in runnable:
            collect(gsel, lambda: gamma_job(gsel))

    all_rows.sort(key=lambda r: (r.gamma, r.lam))
    csv_path = os.path.join(out_root, "energies.csv")
    with open(csv_path, "w") as fh:
        fh.write(csv_header(k) + "\n")
        for row in all_rows:
            fh.write(row_to_csv(row) + "\n")

    # verdicts are recomputed from the CSV so they stay re-derivable
    with open(csv_path) as fh:
        rows_back, k_back = rows_from_csv(fh.read())
    verdicts = compute_verdicts(rows_back, k_back, selections=gammas)
    with open(os.path.join(out_root, "verdicts.txt"), "w") as fh:
        for v in verdicts:
            fh.write(
                f"criterion={v.name} status={'PASS' if v.passed else 'FAIL'} "
                f"margin={v.margin!r} detail={v.detail}\n"
            )

    nehari_norms = [h1_distance(w, Field.zeros(grid)) for w in omegas.values()]
    with open(manifest_path, "a") as fh:
        fh.write(f"# derived: h = {grid.h!r}\n")
        fh.write(f"# derived: a0 = {params.a0!r}\n")
        fh.write(f"# derived: T = {math.nan if big_t is None else big_t!r}\n")
        for j in needed_wells:
            fh.write(f"# derived: c_{j} = {c_dirichlet[j - 1]!r}\n")
        min_norm = min(nehari_norms, default=math.nan)
        fh.write(f"# derived: min_nehari_norm = {min_norm!r}\n")

    for line in failures:
        print(f"FAILURE: {line}", file=sys.stderr)
    for v in verdicts:
        print(f"{'PASS' if v.passed else 'FAIL'} {v.name}: {v.detail}")
    return 0 if not failures and all(v.passed for v in verdicts) else 1


# -- report -------------------------------------------------------------------

# energies.csv columns that report.csv repeats, cell for cell
REPORT_COLUMNS = (
    "lambda",
    "gamma",
    "phi_total",
    "lambda_v_mass",
    "outside_norm_sq",
    "sup_outside",
    "occupied",
    "converged",
)


def report(run_dir) -> int:
    """Summarize a (possibly partial) run directory."""
    missing = []
    for name in ("manifest.txt", "energies.csv", "verdicts.txt"):
        if not os.path.exists(os.path.join(run_dir, name)):
            missing.append(name)
    if "energies.csv" in missing:
        print(f"missing artifacts: {', '.join(missing)}", file=sys.stderr)
        return 1
    with open(os.path.join(run_dir, "energies.csv")) as fh:
        rows, _ = rows_from_csv(fh.read())

    widths = (10, 8, 14, 14, 16, 13, 9, 9)
    print("  ".join(c.ljust(w) for c, w in zip(REPORT_COLUMNS, widths)))
    out_lines = [",".join(REPORT_COLUMNS)]
    for row in sorted(rows, key=lambda r: (r.gamma, r.lam)):
        cells = (
            f"{row.lam:g}",
            _mask_str(row.gamma),
            f"{row.phi_total:.6g}",
            f"{row.lambda_v_mass:.4e}",
            f"{row.outside_norm_sq:.4e}",
            f"{row.sup_outside:.3e}",
            _mask_str(row.occupied),
            "true" if row.converged else "false",
        )
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        csv_cells = _csv_cells(row)
        out_lines.append(",".join(csv_cells[c] for c in REPORT_COLUMNS))
    with open(os.path.join(run_dir, "report.csv"), "w") as fh:
        fh.write("\n".join(out_lines) + "\n")
    if os.path.exists(os.path.join(run_dir, "verdicts.txt")):
        with open(os.path.join(run_dir, "verdicts.txt")) as fh:
            print(fh.read(), end="")
    if missing:
        print(f"missing artifacts: {', '.join(missing)}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="logbump",
        description="Multi-bump states of the logarithmic Schrodinger "
        "equation with deepening wells",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="execute the full pipeline")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--gamma", default=None,
                       help="well selection, e.g. '1,2' or 'all'")

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("run_dir")

    args = parser.parse_args(argv)
    if args.verb == "validate":
        try:
            config = parse_config(args.config)
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        print(canonical_text(config), end="")
        return 0
    if args.verb == "run":
        try:
            config = parse_config(args.config)
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        try:
            return run(config, out_dir=args.out, workers=args.workers,
                       gamma=args.gamma)
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
    return report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
