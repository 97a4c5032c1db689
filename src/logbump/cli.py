"""Batch front-end: flat-file configs, the run pipeline, and reports.

Configs are flat ``key = value`` text (diffable, trivially parsed), with
one dotted block per well.  The fields of `RunConfig` and `WellSpec` carry
each key's parser and default, and drive both parsing and the canonical
echo; the CSV columns are the fields of a row dataclass, as `SweepRow`.  The
types a config builds check the ranges, still at parse time, and every
error names the first offending key; unknown keys are rejected.  The
canonical echo reparses to an identical config, and the run manifest
starts with it so a run is reproducible from its own artifacts.

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
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from logbump import penalty
from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    save_field,
    validate_geometry_on_grid,
)
from logbump.functional import h1_distance
from logbump.penalty import make_params
from logbump.solver import (
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
    LimitRow,
    SweepRow,
    check_limit_problem,
    compute_verdicts,
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


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


def _half_widths(text: str, count: int) -> tuple[float, ...]:
    vals = _floats(text, count)
    if any(v <= 0 for v in vals):
        raise ValueError("half-widths must be positive")
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


def _serial(text: str) -> int:
    if _integer(text) != 1:
        raise ValueError("the pipeline is serial; only 1 is accepted")
    return 1


_NO_DEFAULT = object()


def _key(parse, default=_NO_DEFAULT, name=None):
    """A config key's parser, default (a callable one is computed from the
    fields read before it) and name, where that is not the field's."""
    return field(metadata={"parse": parse, "default": default, "key": name})


@dataclass(frozen=True)
class WellSpec:
    """The `well.J.<field>` keys of one well; each parser takes `count = dim`."""

    center: tuple[float, ...] = _key(_floats)
    half: tuple[float, ...] = _key(_half_widths)
    enlarged_half: tuple[float, ...] = _key(_half_widths)


@dataclass(frozen=True)
class RunConfig:
    """One field per config key, in echo order; the types built from the
    config check the ranges."""

    scenario: str = _key(_nonempty, "run")
    dim: int = _key(_integer, 1)
    r: float = _key(_finite, name="R")
    n: int = _key(_integer)
    cap: float = _key(_finite, PotentialSpec.cap)
    potential_power: float = _key(_finite, PotentialSpec.power)
    delta: float = _key(_finite, penalty.DEFAULT_DELTA)
    l: float = _key(_finite, penalty.DEFAULT_SLOPE)
    wells: tuple[WellSpec, ...]                 # the well.J.* blocks
    gamma: str = _key(_gamma, "all")            # "all" or "1,2"
    lambdas: tuple[float, ...] = _key(_lambdas, (10.0, 100.0, 1000.0, 10000.0))
    tol: float = _key(_finite, SolverConfig.tol)
    max_iters: int = _key(_integer, SolverConfig.max_iters)
    workers: int = _key(_serial, 1)
    out: str = _key(_nonempty, lambda values: os.path.join("runs", values["scenario"]))

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
        return make_params(delta=self.delta, l=self.l)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tol=self.tol, max_iters=self.max_iters)

    def gamma_subsets(self) -> list[tuple[int, ...]]:
        if self.gamma != "all":
            return [tuple(int(t) for t in self.gamma.split(","))]
        wells = range(1, len(self.wells) + 1)
        return [g for size in wells for g in itertools.combinations(wells, size)]


def _keys(cls) -> list[tuple[str, str, object, object]]:
    """(key, field, parser, default) of each of cls's keyed fields."""
    return [(f.metadata["key"] or f.name, f.name, f.metadata["parse"], f.metadata["default"])
            for f in fields(cls) if f.metadata]


# views of the field metadata, the one source of the keys
CONFIG_KEYS = tuple(_keys(RunConfig))
_WELL_SUFFIXES = tuple(key for key, _, _, _ in _keys(WellSpec))
_KEY_OF_FIELD = {name: key for key, name, _, _ in CONFIG_KEYS}
# library parameters named unlike the RunConfig field they are built from
_FIELD_OF_PARAM = {"power": "potential_power"}


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


def _read(cls, raw: dict[str, str], prefix: str = "", **bound) -> dict:
    """The values of cls's keyed fields, each parsed from raw[prefix + key]
    with the `bound` arguments, or its default."""
    values = {}
    for key, name, parse, default in _keys(cls):
        key = prefix + key
        if key in raw:
            values[name] = _parse_value(key, partial(parse, **bound), raw[key])
        elif default is _NO_DEFAULT:
            raise ConfigError(f"{key}: required key missing")
        else:
            values[name] = default(values) if callable(default) else default
    return values


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

    indices = set()
    for key in raw:
        if key.startswith("well."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _WELL_SUFFIXES:
                raise ConfigError(f"unknown key: {key}")
            idx = _parse_value(key, _positive, parts[1])
            # one spelling per index, so no two keys name the same well
            if parts[1] != str(idx):
                raise ConfigError(f"{key}: index must be written as {idx} "
                                  f"(got {parts[1]!r})")
            indices.add(idx)
        elif key not in _KEY_OF_FIELD.values():
            raise ConfigError(f"unknown key: {key}")

    values = _read(RunConfig, raw)
    try:
        grid = Grid(dim=values["dim"], r=values["r"], n=values["n"])
    except ValueError as exc:
        raise _named_error(exc) from None
    # wells 1..k, k the largest index given, so a gap is a missing key
    wells = tuple(WellSpec(**_read(WellSpec, raw, f"well.{idx}.", count=grid.dim))
                  for idx in range(1, max(indices, default=1) + 1))
    config = RunConfig(wells=wells, **values)
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
    return str(value)


def _echo_lines(obj, prefix: str = ""):
    """`key = value` per keyed field of obj, and the well blocks in the
    place of the field that holds them."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.metadata:
            yield f"{prefix}{f.metadata['key'] or f.name} = {_echo(value)}"
        else:
            for idx, well in enumerate(value, start=1):
                yield from _echo_lines(well, f"well.{idx}.")


def canonical_text(config: RunConfig) -> str:
    """Canonical echo; parsing it reproduces the config exactly."""
    return "\n".join(_echo_lines(config)) + "\n"


# -- CSV schema ---------------------------------------------------------------


def _mask_str(mask) -> str:
    return "+".join(str(j) for j in mask)


def _mask_from_str(text) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(t) for t in text.split("+"))


def _bool_from_str(text) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false (got {text!r})")
    return text == "true"


def _float_str(value) -> str:
    # float() first: the repr of a numpy scalar names its type
    return repr(float(value))


# a row field of this type holds one float per well j = 1..k, in the
# columns <column>_j
_PER_WELL = "tuple[float, ...]"
# (cell parser, cell writer) of each row field type
_CELL_TYPES = {
    "float": (float, _float_str),
    "bool": (_bool_from_str, lambda value: "true" if value else "false"),
    "tuple[int, ...]": (_mask_from_str, _mask_str),
    _PER_WELL: (float, _float_str),
    "int": (int, str),
    "str": (str, str),
}
# row fields whose column has another name
_COLUMN_OF_FIELD = {"lam": "lambda", "c_dirichlet": "c"}


def _csv_columns(cls, k: int) -> list[tuple[str, str, object, int | None]]:
    """(column, field, parser, well slot or None) of a row dataclass, in
    file order."""
    cols = []
    for f in fields(cls):
        column, parse = _COLUMN_OF_FIELD.get(f.name, f.name), _CELL_TYPES[f.type][0]
        if f.type == _PER_WELL:
            cols += [(f"{column}_{j}", f.name, parse, j - 1) for j in range(1, k + 1)]
        else:
            cols.append((column, f.name, parse, None))
    return cols


def csv_header(k: int, cls=SweepRow) -> str:
    return ",".join(name for name, _, _, _ in _csv_columns(cls, k))


def row_to_csv(row) -> str:
    """The row's cells in the order of its `csv_header` columns."""
    cells = []
    for f in fields(row):
        value, write = getattr(row, f.name), _CELL_TYPES[f.type][1]
        cells += map(write, value) if f.type == _PER_WELL else [write(value)]
    if any("," in cell or "\n" in cell for cell in cells):
        raise ValueError(f"a cell of {cells} holds a comma or a line break")
    return ",".join(cells)


def _write_csv(path, cls, rows, k: int = 0) -> None:
    with open(path, "w") as fh:
        fh.write(csv_header(k, cls) + "\n")
        for row in rows:
            fh.write(row_to_csv(row) + "\n")


def rows_from_csv(text: str) -> tuple[list[SweepRow], int]:
    """Rows of energies.csv, each cell read by its header name.

    An empty text, a header that lacks a column, repeats one or names an
    unknown one, or a cell that does not parse raises ValueError; a cell's
    error names its line and column.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("energies.csv is empty")
    header = lines[0][1].split(",")
    # k counts the columns of the first per-well field
    first = next(name for name, _, _, slot in _csv_columns(SweepRow, 1) if slot == 0)
    k = sum(1 for c in header if c.startswith(first.removesuffix("1")))
    columns = _csv_columns(SweepRow, k)
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
    for no, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"energies.csv row has {len(cells)} cells for {len(header)} columns"
            )
        values: dict = {}
        for name, field_name, parse, slot in columns:
            try:
                value = parse(cells[index[name]])
            except ValueError as exc:
                raise ValueError(f"energies.csv line {no}, column {name}: {exc}") from None
            if slot is not None:
                value = values.get(field_name, ()) + (value,)
            values[field_name] = value
        rows.append(SweepRow(**values))
    return rows, k


# -- run pipeline -------------------------------------------------------------


def _morse_str(morse) -> str:
    return "n/a" if math.isnan(morse) else str(morse)


@dataclass(frozen=True)
class SolveRow:
    """A solves.csv row: one Newton solve.  kind is ground_state (lam nan),
    level or sweep, and gamma the well (j,) of the first two."""

    kind: str
    lam: float
    gamma: tuple[int, ...]
    stop: str
    iterations: int
    inner_iterations: int
    morse_index: float


@dataclass(frozen=True)
class HistoryRow:
    """A histories.csv row: one Newton step of the solve of that key."""

    kind: str
    lam: float
    gamma: tuple[int, ...]
    step: int
    relative_residual: float
    energy: float


def _log_solve(solves, histories, kind: str, lam: float, gamma, record) -> None:
    """Append the record's solves.csv row and its histories.csv rows."""
    solves.append(SolveRow(kind, lam, gamma, record.stop, record.iterations,
                           record.inner_iterations, float(record.morse_index)))
    histories.extend(HistoryRow(kind, lam, gamma, step, res, energy) for step, (res, energy)
                     in enumerate(zip(record.residuals, record.energies), start=1))


def _local_failures(what: str, record) -> list[str]:
    """Failure lines of a ground-state solve: not converged, or converged
    to a critical point whose Morse index is not 1."""
    if not record.converged:
        return [f"{what} did not converge ({record.stop})"]
    if record.morse_index != 1:
        return [f"{what} has Morse index {_morse_str(record.morse_index)}, expected 1"]
    return []


def run(config: RunConfig, out_dir=None, workers=1, gamma=None) -> int:
    """Execute the pipeline; returns a process exit status.

    The pipeline is serial: `workers`, like the config key, must be 1; it
    stays because the benchmark's child process passes it.
    """
    _parse_value("workers", _serial, str(workers))
    if gamma is not None:
        config = replace(config, gamma=gamma)
        config = parse_config_text(canonical_text(config))
    out_root = out_dir or config.out
    os.makedirs(out_root, exist_ok=True)
    # an earlier run's artifacts that this run may not write again, and the
    # directories that leaves empty; nothing else
    root = Path(out_root)
    for pattern in ("singlewell/omega_*.npy", "gamma_*/field_lambda_*.npy",
                    "gamma_*/limit.csv", "report.csv"):
        for path in root.glob(pattern):
            if path.is_file():
                path.unlink()
    for path in [*root.glob("gamma_*/"), root / "singlewell"]:
        if path.is_dir() and not any(path.iterdir()):
            path.rmdir()

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
    solves: list[SolveRow] = []
    histories: list[HistoryRow] = []
    for j in needed_wells:
        try:
            rec = solve_single_well(geometry, j, grid, solver_cfg)
        except SolveError as exc:
            failures.append(f"well {j} ground state: {exc}")
            continue
        c_dirichlet[j - 1] = rec.energy
        save_field(rec.field, os.path.join(out_root, "singlewell", f"omega_{j}.npy"))
        _log_solve(solves, histories, "ground_state", math.nan, (j,), rec)
        failures += _local_failures(f"well {j} ground state", rec)
        if rec.converged:
            omegas[j] = rec.field

    big_t = None
    if omegas:
        try:
            big_t = choose_t(list(omegas.values()))
        except SolveError as exc:
            failures.append(f"path scale: {exc}")
    # a selection needs the scale and the converged ground state of each of
    # its wells; one skipped has no rows, which FAILs multiplicity
    runnable = [g for g in gammas if big_t is not None and all(j in omegas for j in g)]

    print(f"[{config.scenario}] enlarged-well levels for {len(config.lambdas)} lambdas")
    c_lambda: dict[tuple[float, int], float] = {}
    for lam in config.lambdas:
        for j in needed_wells:
            what = f"enlarged well {j} level at lambda={lam:g}"
            try:
                nrec = solve_neumann_well(lam, j, grid, potential, solver_cfg)
            except SolveError as exc:
                failures.append(f"{what}: {exc}")
                continue
            _log_solve(solves, histories, "level", lam, (j,), nrec)
            failures += _local_failures(what, nrec)
            c_lambda[(lam, j)] = nrec.c_lambda

    print(f"[{config.scenario}] sweeping {len(runnable)} well selections")
    all_rows: list[SweepRow] = []
    for gsel in runnable:
        gdir = os.path.join(out_root, "gamma_" + _mask_str(gsel))
        os.makedirs(gdir, exist_ok=True)
        ws = [omegas[j] for j in gsel]
        init = multi_bump_init(ws, [1.0 / big_t] * len(ws), big_t)
        try:
            records = lambda_sweep(config.lambdas, gsel, init, grid, potential,
                                   params, solver_cfg)
        except SolveError as exc:
            failures.append(f"gamma {_mask_str(gsel)}: {exc}")
            continue
        b_upper = minimax_upper_bound(config.lambdas[-1], gsel, ws, big_t,
                                      grid, potential, params)
        c_gamma = sum(c_dirichlet[j - 1] for j in gsel)
        for rec in records:
            if rec.converged and rec.morse_index != len(gsel):
                failures.append(f"gamma {_mask_str(gsel)}: solve at lambda={rec.lam:g} "
                                f"has Morse index {_morse_str(rec.morse_index)}, "
                                f"expected {len(gsel)}")
            rep = rec.report
            lam_c = tuple(
                c_lambda.get((rec.lam, j), math.nan) if (j in gsel) else math.nan
                for j in range(1, k + 1)
            )
            all_rows.append(
                SweepRow(
                    lam=rec.lam,
                    gamma=gsel,
                    converged=rec.converged,
                    phi_total=rep.total,
                    b_upper=b_upper,
                    c_gamma=c_gamma,
                    lambda_v_mass=rep.lambda_v_mass,
                    outside_norm_sq=rep.outside_norm_sq,
                    sup_outside=rep.sup_outside,
                    a0=params.a0,
                    min_u=float(rec.field.values.min()),
                    mass_frac=rep.mass_fraction(gsel),
                    occupied=rec.bump_mask,
                    i_lambda=rep.per_well,
                    c_dirichlet=tuple(c_dirichlet),
                    c_lambda=lam_c,
                )
            )
            save_field(rec.field, os.path.join(gdir, f"field_lambda_{rec.lam:g}.npy"))
            _log_solve(solves, histories, "sweep", rec.lam, gsel, rec)
        _write_csv(os.path.join(gdir, "limit.csv"), LimitRow,
                   check_limit_problem(records, ws, c_gamma))

    all_rows.sort(key=lambda r: (r.gamma, r.lam))
    csv_path = os.path.join(out_root, "energies.csv")
    _write_csv(csv_path, SweepRow, all_rows, k)
    _write_csv(os.path.join(out_root, "solves.csv"), SolveRow, solves)
    _write_csv(os.path.join(out_root, "histories.csv"), HistoryRow, histories)

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

# energies.csv columns that report.csv repeats, cell for cell, with the
# width and format of their printed cell; None prints the CSV cell
REPORT_COLUMNS = (
    ("lambda", 10, "g"),
    ("gamma", 8, None),
    ("phi_total", 14, ".6g"),
    ("lambda_v_mass", 14, ".4e"),
    ("outside_norm_sq", 16, ".4e"),
    ("sup_outside", 13, ".3e"),
    ("occupied", 9, None),
    ("converged", 9, None),
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
    try:
        with open(os.path.join(run_dir, "energies.csv")) as fh:
            rows, k = rows_from_csv(fh.read())
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1

    print("  ".join(c.ljust(w) for c, w, _ in REPORT_COLUMNS))
    out_lines = [",".join(c for c, _, _ in REPORT_COLUMNS)]
    columns = csv_header(k).split(",")
    for row in sorted(rows, key=lambda r: (r.gamma, r.lam)):
        cells = dict(zip(columns, row_to_csv(row).split(",")))
        print("  ".join((cells[c] if fmt is None else format(float(cells[c]), fmt)).ljust(w)
                        for c, w, fmt in REPORT_COLUMNS))
        out_lines.append(",".join(cells[c] for c, _, _ in REPORT_COLUMNS))
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
            return run(config, out_dir=args.out, gamma=args.gamma)
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
    return report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
