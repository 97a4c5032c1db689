"""Batch front-end: flat-file configs, the run pipeline, and reports.

Configs are flat ``key = value`` text (diffable, trivially parsed), with
one dotted block per well.  Parsing validates every constraint up front
and names the first offending key; unknown keys are rejected outright.
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
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from logbump import penalty
from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    box_mask_full,
    grad_energy_density,
    save_field,
    validate_geometry_on_grid,
)
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
    tau_step: float
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
        return PotentialSpec(self.geometry(), cap=self.cap,
                             power=self.potential_power)

    def params(self):
        return make_params(delta=self.delta, l=self.l, p=self.p)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            tau=self.tau_step,
            tol=self.tol,
            max_iters=self.max_iters,
            cg_tol=self.cg_tol,
            cg_max_iters=self.cg_max_iters,
            bump_threshold=self.bump_threshold,
        )

    def gamma_subsets(self) -> list[tuple[int, ...]]:
        import itertools

        k = len(self.wells)
        if self.gamma == "all":
            out = []
            for size in range(1, k + 1):
                out.extend(itertools.combinations(range(1, k + 1), size))
            return out
        return [tuple(int(t) for t in self.gamma.split(","))]


_DEFAULTS = {
    "scenario": "run",
    "dim": "1",
    "cap": "1.0",
    "potential_power": "2.0",
    "delta": repr(penalty.DEFAULT_DELTA),
    "l": "0.5",
    "p": "3.0",
    "gamma": "all",
    "lambdas": "10.0, 100.0, 1000.0, 10000.0",
    "tau_step": "0.05",
    "tol": "1e-06",
    "max_iters": "40000",
    "cg_tol": "1e-12",
    "cg_max_iters": "20000",
    "bump_threshold": "0.01",
    "minimax_T": "auto",
    "minimax_m": "33",
    "workers": "1",
}
_REQUIRED = ("R", "n")
_SCALAR_KEYS = tuple(_DEFAULTS) + _REQUIRED + ("out",)
_WELL_SUFFIXES = ("center", "half", "enlarged_half")


def _parse_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number (got {text!r})") from None


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: not an integer (got {text!r})") from None


def _parse_floats(key, text, count=None):
    vals = tuple(_parse_float(key, t.strip()) for t in text.split(","))
    if count is not None and len(vals) != count:
        raise ConfigError(f"{key}: expected {count} comma-separated values")
    return vals


def parse_config_text(text: str) -> RunConfig:
    """Parse and fully validate a flat key-value config."""
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
            idx = _parse_int(key, parts[1])
            wells_raw.setdefault(idx, {})[parts[2]] = raw.pop(key)
    for key in raw:
        if key not in _SCALAR_KEYS:
            raise ConfigError(f"unknown key: {key}")
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"{key}: required key missing")

    def get(key):
        return raw.get(key, _DEFAULTS.get(key))

    dim = _parse_int("dim", get("dim"))
    if dim not in (1, 2):
        raise ConfigError(f"dim: must be 1 or 2 (got {dim})")
    r = _parse_float("R", raw["R"])
    if r <= 0:
        raise ConfigError(f"R: must be positive (got {r!r})")
    n = _parse_int("n", raw["n"])
    if n < 3:
        raise ConfigError(f"n: must be at least 3 (got {n})")
    cap = _parse_float("cap", get("cap"))
    if cap <= 0:
        raise ConfigError(f"cap: must be positive (got {cap!r})")
    power = _parse_float("potential_power", get("potential_power"))
    if power <= 0:
        raise ConfigError(f"potential_power: must be positive (got {power!r})")
    delta = _parse_float("delta", get("delta"))
    if not 0.0 < delta <= penalty.DELTA_MAX:
        raise ConfigError(
            f"delta: must lie in (0, {penalty.DELTA_MAX!r}] so the convex "
            f"splitting piece stays convex (got {delta!r})"
        )
    slope = _parse_float("l", get("l"))
    if not 0.0 < slope < 1.0:
        raise ConfigError(f"l: truncation slope must lie in (0, 1) (got {slope!r})")
    growth = _parse_float("p", get("p"))
    if growth <= 2.0:
        raise ConfigError(f"p: growth exponent must exceed 2 (got {growth!r})")

    if not wells_raw:
        raise ConfigError("well.1.center: at least one well is required")
    indices = sorted(wells_raw)
    if indices != list(range(1, len(indices) + 1)):
        raise ConfigError("well indices must be contiguous starting at 1")
    wells = []
    for idx in indices:
        entry = wells_raw[idx]
        for suffix in _WELL_SUFFIXES:
            if suffix not in entry:
                raise ConfigError(f"well.{idx}.{suffix}: required key missing")
        wells.append(
            WellSpec(
                center=_parse_floats(f"well.{idx}.center", entry["center"], dim),
                half=_parse_floats(f"well.{idx}.half", entry["half"], dim),
                enlarged_half=_parse_floats(
                    f"well.{idx}.enlarged_half", entry["enlarged_half"], dim
                ),
            )
        )
    wells = tuple(wells)

    gamma = get("gamma")
    if gamma != "all":
        try:
            sel = tuple(int(t) for t in gamma.split(","))
        except ValueError:
            raise ConfigError(f"gamma: expected 'all' or indices (got {gamma!r})")
        if not sel or any(not 1 <= j <= len(wells) for j in sel):
            raise ConfigError(f"gamma: indices must lie in 1..{len(wells)}")
        if len(set(sel)) != len(sel):
            raise ConfigError("gamma: repeated index")
        gamma = ",".join(str(j) for j in sorted(sel))

    lambdas = _parse_floats("lambdas", get("lambdas"))
    if any(x <= 0 for x in lambdas):
        raise ConfigError("lambdas: all values must be positive")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigError("lambdas: values must be strictly ascending")

    tau = _parse_float("tau_step", get("tau_step"))
    if not 0.0 < tau <= 0.5:
        raise ConfigError(
            f"tau_step: must lie in (0, 0.5] for a stable descending flow "
            f"(got {tau!r})"
        )
    tol = _parse_float("tol", get("tol"))
    if tol <= 0:
        raise ConfigError(f"tol: must be positive (got {tol!r})")
    max_iters = _parse_int("max_iters", get("max_iters"))
    if max_iters < 1:
        raise ConfigError(f"max_iters: must be at least 1 (got {max_iters})")
    cg_tol = _parse_float("cg_tol", get("cg_tol"))
    if cg_tol <= 0:
        raise ConfigError(f"cg_tol: must be positive (got {cg_tol!r})")
    cg_max_iters = _parse_int("cg_max_iters", get("cg_max_iters"))
    if cg_max_iters < 1:
        raise ConfigError(f"cg_max_iters: must be at least 1 (got {cg_max_iters})")
    bump_threshold = _parse_float("bump_threshold", get("bump_threshold"))
    if not 0.0 < bump_threshold < 1.0:
        raise ConfigError(
            f"bump_threshold: must lie in (0, 1) (got {bump_threshold!r})"
        )
    minimax_t_raw = get("minimax_T")
    if minimax_t_raw == "auto":
        minimax_t = None
    else:
        minimax_t = _parse_float("minimax_T", minimax_t_raw)
        if minimax_t <= 1.0:
            raise ConfigError(f"minimax_T: must exceed 1 (got {minimax_t!r})")
    minimax_m = _parse_int("minimax_m", get("minimax_m"))
    if minimax_m < 8:
        raise ConfigError(f"minimax_m: must be at least 8 (got {minimax_m})")
    workers = _parse_int("workers", get("workers"))
    if workers < 1:
        raise ConfigError(f"workers: must be at least 1 (got {workers})")

    scenario = get("scenario")
    out = raw.get("out", os.path.join("runs", scenario))

    config = RunConfig(
        scenario=scenario,
        dim=dim,
        r=r,
        n=n,
        cap=cap,
        potential_power=power,
        delta=delta,
        l=slope,
        p=growth,
        wells=wells,
        gamma=gamma,
        lambdas=lambdas,
        tau_step=tau,
        tol=tol,
        max_iters=max_iters,
        cg_tol=cg_tol,
        cg_max_iters=cg_max_iters,
        bump_threshold=bump_threshold,
        minimax_t=minimax_t,
        minimax_m=minimax_m,
        workers=workers,
        out=out,
    )

    # cross validation against the discretization
    try:
        geometry = config.geometry()
    except ValueError as exc:
        raise ConfigError(f"well: {exc}") from None
    try:
        validate_geometry_on_grid(geometry, config.grid())
    except ValueError as exc:
        raise ConfigError(f"well: {exc}") from None
    try:
        config.params()
    except ValueError as exc:
        raise ConfigError(f"delta/l/p: {exc}") from None
    return config


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def canonical_text(config: RunConfig) -> str:
    """Canonical echo; parsing it reproduces the config exactly."""
    lines = [
        f"scenario = {config.scenario}",
        f"dim = {config.dim}",
        f"R = {config.r!r}",
        f"n = {config.n}",
        f"cap = {config.cap!r}",
        f"potential_power = {config.potential_power!r}",
        f"delta = {config.delta!r}",
        f"l = {config.l!r}",
        f"p = {config.p!r}",
    ]
    for idx, w in enumerate(config.wells, start=1):
        lines.append(f"well.{idx}.center = " + ", ".join(repr(v) for v in w.center))
        lines.append(f"well.{idx}.half = " + ", ".join(repr(v) for v in w.half))
        lines.append(
            f"well.{idx}.enlarged_half = "
            + ", ".join(repr(v) for v in w.enlarged_half)
        )
    lines.extend(
        [
            f"gamma = {config.gamma}",
            "lambdas = " + ", ".join(repr(v) for v in config.lambdas),
            f"tau_step = {config.tau_step!r}",
            f"tol = {config.tol!r}",
            f"max_iters = {config.max_iters}",
            f"cg_tol = {config.cg_tol!r}",
            f"cg_max_iters = {config.cg_max_iters}",
            f"bump_threshold = {config.bump_threshold!r}",
            "minimax_T = "
            + ("auto" if config.minimax_t is None else repr(config.minimax_t)),
            f"minimax_m = {config.minimax_m}",
            f"workers = {config.workers}",
            f"out = {config.out}",
        ]
    )
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
        fh.write(f"stop_reason = {record.stop_reason}\n")
        fh.write(f"iterations = {record.iterations}\n")
        fh.write(f"morse_index = {_morse_str(record.morse_index)}\n")
        fh.write(f"energy = {record.energy!r}\n")
        fh.write(f"final_residual = {final!r}\n")
        fh.write(f"bump_mask = {_mask_str(record.bump_mask)}\n")


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
        rec = solve_single_well(geometry, j, grid, solver_cfg)
        if not rec.converged:
            failures.append(f"well {j} ground state did not converge")
        omegas[j] = rec.field
        c_dirichlet[j - 1] = rec.energy
        save_field(rec.field, os.path.join(out_root, "singlewell", f"omega_{j}.csv"))

    big_t = config.minimax_t
    if big_t is None:
        big_t = choose_t([omegas[j] for j in needed_wells])
    minimax = MinimaxParams(big_t=big_t, m=config.minimax_m)

    print(f"[{config.scenario}] enlarged-well levels for {len(config.lambdas)} lambdas")
    c_lambda: dict[tuple[float, int], float] = {}
    for lam in config.lambdas:
        for j in needed_wells:
            nrec = solve_neumann_well(lam, j, grid, potential, solver_cfg)
            if not nrec.converged:
                failures.append(f"enlarged well {j} level at lambda={lam:g} "
                                f"did not converge ({nrec.stop_reason})")
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
            with open(os.path.join(gdir, f"residuals_{tag}.csv"), "w") as fh:
                fh.write("iter,relative_residual,energy\n")
                for i, (res, en) in enumerate(
                    zip(st.record.residuals, st.record.energies), start=1
                ):
                    fh.write(f"{i},{res!r},{en!r}\n")
        limit_rows = check_limit_problem(steps, ws, c_gamma)
        with open(os.path.join(gdir, "limit.csv"), "w") as fh:
            fh.write("lambda,h1_gap,h1_gap_rel,phi_gap_rel\n")
            for lr in limit_rows:
                fh.write(f"{lr.lam!r},{lr.h1_gap!r},{lr.h1_gap_rel!r},"
                         f"{lr.phi_gap_rel!r}\n")
        return rows, notes

    print(f"[{config.scenario}] sweeping {len(gammas)} well selections "
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
            futures = {pool.submit(gamma_job, g): g for g in gammas}
            for fut, gsel in futures.items():
                collect(gsel, fut.result)
    else:
        for gsel in gammas:
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

    nehari_norms = []
    for j in needed_wells:
        w = omegas[j]
        dens = grad_energy_density(w)
        full = w.full()
        norm = math.sqrt(grid.h**grid.dim * float(np.sum(dens + full * full)))
        nehari_norms.append(norm)
    with open(manifest_path, "a") as fh:
        fh.write(f"# derived: h = {grid.h!r}\n")
        fh.write(f"# derived: a0 = {params.a0!r}\n")
        fh.write(f"# derived: T = {big_t!r}\n")
        for j in needed_wells:
            fh.write(f"# derived: c_{j} = {c_dirichlet[j - 1]!r}\n")
        fh.write(f"# derived: min_nehari_norm = {min(nehari_norms)!r}\n")

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
