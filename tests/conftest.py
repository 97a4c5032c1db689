"""Shared fixtures: the reference twin-well scenario and its heavy solves,
and counters of the 2D inertia counts and of their dense inverses.

Session scope keeps the expensive solves, and the one pipeline run of
the reference config, shared between the module tests and the
acceptance suite.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from logbump import solver
from logbump.cli import main, parse_config, rows_from_csv
from logbump.solver import (
    PATH_T,
    lambda_sweep,
    solve_neumann_well,
    solve_single_well,
)

from oracles import multi_bump_init

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
def ref_levels(ref):
    """Every enlarged-well level solve of the reference scenario, by
    (lambda, well)."""
    return {(lam, j): solve_neumann_well(lam, j, ref.grid, ref.potential, ref.solver)
            for lam in ref.config.lambdas for j in (1, 2)}


@pytest.fixture(scope="session")
def ref_big_t():
    return PATH_T


@pytest.fixture(scope="session")
def ref_sweep(ref, ref_wells, ref_levels, ref_big_t):
    """The sweep for gamma = (1, 2) over the reference lambdas from the
    run's starts: the ground states, then the level fields."""
    init = multi_bump_init(
        [r.field for r in ref_wells], [1.0 / ref_big_t] * 2, ref_big_t
    )
    steps = lambda_sweep(
        ref.config.lambdas, (1, 2), init, ref.grid, ref.potential,
        ref.params, ref.solver, ref_levels
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


@pytest.fixture
def block_ldl_calls(monkeypatch):
    """The arguments of each 2D `solver.negative_eigenvalues` call the
    test makes, one entry per call, the deterministic work counter of the
    2D inertia counts."""
    calls = []
    count = solver.negative_eigenvalues

    def counted(diag, off):
        if len(off) == 2:
            calls.append((diag, off))
        return count(diag, off)

    monkeypatch.setattr(solver, "negative_eigenvalues", counted)
    return calls


@pytest.fixture
def inv_calls(monkeypatch):
    """One entry, the matrix's shape, per `np.linalg.inv` call the test
    makes: the 2D inertia count inverts a Schur block only where its
    bordered pair is not SPD, so this counts its fallback rows."""
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls
