"""Shared fixtures: the reference twin-well scenario and its heavy solves.

Session scope keeps the expensive solves, and the one pipeline run of
the reference config, shared between the module tests and the
acceptance suite.
"""

import math
from pathlib import Path

import pytest

from logbump.cli import main, parse_config, rows_from_csv
from logbump.solver import (
    choose_t,
    lambda_sweep,
    multi_bump_init,
    solve_single_well,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO_ROOT / "configs" / "twin-wells-1d.cfg"

GAUSSON_HALF_MASS = 0.5 * math.e * math.sqrt(math.pi)


@pytest.fixture(scope="session")
def ref_config():
    return parse_config(REFERENCE_CONFIG)


@pytest.fixture(scope="session")
def ref(ref_config):
    """Built objects of the reference scenario."""

    class Ref:
        config = ref_config
        grid = ref_config.grid()
        geometry = ref_config.geometry()
        potential = ref_config.potential()
        params = ref_config.params()
        solver = ref_config.solver_config()

    return Ref


@pytest.fixture(scope="session")
def ref_wells(ref):
    recs = [solve_single_well(ref.geometry, j, ref.grid, ref.solver)
            for j in (1, 2)]
    assert all(r.converged for r in recs)
    return recs


@pytest.fixture(scope="session")
def ref_big_t(ref_wells):
    return choose_t([r.field for r in ref_wells])


@pytest.fixture(scope="session")
def ref_sweep(ref, ref_wells, ref_big_t):
    """Warm-started sweep for gamma = (1, 2) over the reference lambdas."""
    init = multi_bump_init(
        [r.field for r in ref_wells], [1.0 / ref_big_t] * 2, ref_big_t
    )
    steps = lambda_sweep(
        ref.config.lambdas, (1, 2), init, ref.grid, ref.potential,
        ref.params, ref.solver
    )
    assert all(st.converged for st in steps)
    return steps


@pytest.fixture(scope="session")
def ref_run(tmp_path_factory):
    """One `logbump run` of the reference config: its exit status, its run
    directory and the rows of its energies.csv."""

    class Run:
        out = tmp_path_factory.mktemp("runs") / "twin-wells-1d"
        status = main(["run", "--config", str(REFERENCE_CONFIG), "--out", str(out)])
        rows = rows_from_csv((out / "energies.csv").read_text())[0]

    return Run


@pytest.fixture(scope="session")
def ref_top_rows(ref_run):
    """The pipeline's row at the largest lambda of each well selection."""
    return {row.gamma: row for row in sorted(ref_run.rows, key=lambda r: r.lam)}


@pytest.fixture(scope="session")
def wide_well():
    """Wide 1D well resolving the whole-line ground state to high accuracy."""
    from logbump.domain import Box, Grid, WellGeometry
    from logbump.solver import SolverConfig

    geometry = WellGeometry(
        dim=1,
        wells=(Box((0.0,), (8.0,)),),
        enlargements=(Box((0.0,), (9.0,)),),
    )
    grid = Grid(dim=1, r=12.0, n=1025)
    rec = solve_single_well(geometry, 1, grid, SolverConfig())
    assert rec.converged
    return geometry, grid, rec
