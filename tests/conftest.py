"""Shared fixtures: the reference twin-well scenario and its heavy solves.

Session scope keeps the expensive solves shared between the
module tests and the acceptance suite.
"""

import math
from pathlib import Path

import pytest

from logbump.cli import parse_config
from logbump.solver import (
    choose_t,
    lambda_sweep,
    multi_bump_init,
    solve_single_well,
)
from logbump.verify import multiplicity_scan

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
    assert all(st.record.converged for st in steps)
    return steps


@pytest.fixture(scope="session")
def ref_scan(ref, ref_wells, ref_big_t):
    """Multiplicity scan over all well subsets at the largest lambda."""
    return multiplicity_scan(
        ref.config.lambdas[-1],
        [r.field for r in ref_wells],
        ref_big_t,
        ref.grid,
        ref.potential,
        ref.params,
        ref.solver,
    )


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
