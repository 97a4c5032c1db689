"""Whole-run metamorphic relations: the run of a transformed geometry
against the same transform of the run, with no reference values.

Each relation runs the pipeline twice, on a geometry and on its image
under a symmetry of the grid that maps nodes onto nodes, and asserts that
the two run directories map onto each other: exit codes and verdict
statuses agree, the `energies.csv` rows agree with their selections,
occupation masks and per-well columns relabelled, and every saved field is
the other's, moved by the symmetry.  What may differ is the solves'
rounding and where each stops inside the Newton tolerance TOL.  So:

- energies are stationary at a solution, and a field error of size TOL
  moves them by about TOL^2: ENERGY_RTOL = TOL^2 of the column's scale;
- the fields and the columns linear in them move with the residual:
  FIELD_RTOL = 10 TOL of their scale (the 1D mirror's `sup_outside`
  moves by 2.6 TOL);
- `min_u`, zero up to rounding, is left out.
"""

import csv
import re
from pathlib import Path

import numpy as np

from logbump.cli import parse_config_text, run
from logbump.solver import SolverConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the configs leave tol at its default
TOL = SolverConfig().tol
ENERGY_RTOL = TOL**2
FIELD_RTOL = 10.0 * TOL
EXACT = {"lambda", "converged", "a0"}
SELECTIONS = {"gamma", "occupied"}
# per-well columns by their name without the well index
ENERGY = {"phi_total", "b_upper", "c_gamma", "c", "c_lambda"}
FIELD = {"lambda_v_mass", "outside_norm_sq", "sup_outside", "mass_frac", "i_lambda"}
SKIPPED = {"min_u"}
WELL_KEYS = ("center", "half", "enlarged_half")


def _split(path):
    """A config's lines other than its well keys, and its wells as
    (center, half, enlarged_half) tuples of per-axis floats."""
    base, wells = [], {}
    for line in path.read_text().splitlines():
        key, _, value = (s.strip() for s in line.partition("="))
        if key.startswith("well."):
            _, j, name = key.split(".")
            wells.setdefault(int(j), {})[name] = tuple(float(v) for v in value.split(","))
        else:
            base.append(line)
    return base, [tuple(w[k] for k in WELL_KEYS) for _, w in sorted(wells.items())]


def _config(base, wells):
    """The run config of base's lines with these wells, 1-based in order."""
    lines = list(base)
    for j, spec in enumerate(wells, start=1):
        lines += [f"well.{j}.{k} = {', '.join(map(repr, v))}"
                  for k, v in zip(WELL_KEYS, spec)]
    return parse_config_text("\n".join(lines) + "\n")


def _relabel(selection: str, perm) -> str:
    """A '+'-joined selection with well j renamed perm[j]."""
    if not selection:
        return selection
    return "+".join(map(str, sorted(perm[int(j)] for j in selection.split("+"))))


def _column(name):
    """(column kind, well index or None) of an energies.csv column."""
    match = re.fullmatch(r"(.+)_(\d+)", name)
    kind, well = (match[1], int(match[2])) if match else (name, None)
    assert kind in EXACT | SELECTIONS | ENERGY | FIELD | SKIPPED, name
    return kind, well


def _table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_runs_map(a: Path, b: Path, perm, move):
    """Run b is run a with well j relabelled perm[j] and every field moved
    by `move`, within the tolerances of the module docstring."""
    rows_b = {(r["lambda"], r["gamma"]): r for r in _table(b / "energies.csv")}
    rows_a = _table(a / "energies.csv")
    assert rows_a and len(rows_a) == len(rows_b)
    scale, gaps = {}, {}
    for ra in rows_a:
        rb = rows_b[(ra["lambda"], _relabel(ra["gamma"], perm))]
        for name, va in ra.items():
            kind, well = _column(name)
            vb = rb[name if well is None else f"{kind}_{perm[well]}"]
            if kind in EXACT:
                assert va == vb, (name, va, vb)
            elif kind in SELECTIONS:
                assert _relabel(va, perm) == vb, (name, va, vb)
            elif kind not in SKIPPED:
                x, y = float(va), float(vb)
                assert np.isnan(x) == np.isnan(y), (name, va, vb)
                if not np.isnan(x):
                    scale[kind] = max(scale.get(kind, 0.0), abs(x))
                    gaps[kind] = max(gaps.get(kind, 0.0), abs(x - y))
    for kind, gap in gaps.items():
        rtol = ENERGY_RTOL if kind in ENERGY else FIELD_RTOL
        assert gap <= rtol * scale[kind], (kind, gap, scale[kind])
    fields = sorted(a.glob("gamma_*/field_lambda_*.npy")) + sorted(
        a.glob("singlewell/omega_*.npy"))
    assert len(fields) == len(list(b.glob("*/*.npy")))
    for path in fields:
        stem = path.parent.name
        if stem.startswith("gamma_"):
            other = b / f"gamma_{_relabel(stem[6:], perm)}" / path.name
        else:
            other = b / stem / f"omega_{perm[int(path.stem[6:])]}.npy"
        fa, fb = np.load(path), np.load(other)
        assert np.abs(move(fa) - fb).max() <= FIELD_RTOL * np.abs(fa).max(), path


def _statuses(run_dir: Path):
    return [line.split()[:2] for line in (run_dir / "verdicts.txt").read_text().splitlines()]


def _run_both(tmp_path, first, second):
    codes = [run(config, out_dir=str(tmp_path / name))
             for name, config in (("a", first), ("b", second))]
    assert codes[0] == codes[1]
    assert _statuses(tmp_path / "a") == _statuses(tmp_path / "b")
    return tmp_path / "a", tmp_path / "b"


def test_mirrored_wells_give_the_mirrored_run(tmp_path):
    # three unequal wells on the three-well grid, and their mirror image
    # x -> -x, whose well j is the mirror of well 4 - j; the grid's nodes
    # map onto each other, so every field is the other's reversed
    base, wells = _split(CONFIGS / "three-wells-1d.cfg")
    wells = [(c, (h,), (e,)) for (c, _, _), h, e in
             zip(wells, (2.0, 1.6, 2.5), (3.0, 2.4, 3.2))]
    mirror = [(tuple(-x for x in c), h, e) for c, h, e in reversed(wells)]
    a, b = _run_both(tmp_path, _config(base, wells), _config(base, mirror))
    _assert_runs_map(a, b, {1: 3, 2: 2, 3: 1}, lambda f: f[::-1])


def test_transposed_wells_give_the_transposed_run(tmp_path):
    # the bundled 2D twin wells, side by side along x, against the same
    # wells along y: every field is the other's transpose, so the stencil's
    # row ends fall on the other axis of the solution
    base, wells = _split(CONFIGS / "twin-wells-2d.cfg")
    assert all(c[1] == 0.0 for c, _, _ in wells)
    transposed = [tuple(v[::-1] for v in spec) for spec in wells]
    a, b = _run_both(tmp_path, _config(base, wells), _config(base, transposed))
    _assert_runs_map(a, b, {1: 1, 2: 2}, np.transpose)
