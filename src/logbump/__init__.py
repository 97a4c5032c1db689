"""Numerical study of multi-bump states for the logarithmic Schrodinger
equation with a deepening multi-well potential."""

from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    masks,
    neg_laplacian,
)
from logbump.functional import EnergyReport, PenalizedFunctional
from logbump.penalty import PenalizationParams, make_params, solve_a0
from logbump.solver import (
    AuxiliaryRecord,
    LevelRecord,
    SolveError,
    SolverConfig,
    lambda_sweep,
    minimax_upper_bound,
    solve_auxiliary,
    solve_neumann_well,
    solve_single_well,
    superpose,
)

__all__ = [
    "AuxiliaryRecord",
    "Box",
    "EnergyReport",
    "Field",
    "Grid",
    "LevelRecord",
    "PenalizationParams",
    "PenalizedFunctional",
    "PotentialSpec",
    "SolveError",
    "SolverConfig",
    "WellGeometry",
    "lambda_sweep",
    "make_params",
    "masks",
    "minimax_upper_bound",
    "neg_laplacian",
    "solve_a0",
    "solve_auxiliary",
    "solve_neumann_well",
    "solve_single_well",
    "superpose",
]
