"""Numerical study of multi-bump states for the logarithmic Schrodinger
equation with a deepening multi-well potential."""

from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    eval_potential,
    integrate,
    masks,
    neg_laplacian,
)
from logbump.functional import (
    EnergyReport,
    PenalizedFunctional,
    nehari_check,
)
from logbump.penalty import PenalizationParams, make_params, solve_a0
from logbump.solver import (
    AuxiliaryRecord,
    SolveError,
    SolveRecord,
    SolverConfig,
    choose_t,
    lambda_sweep,
    minimax_upper_bound,
    multi_bump_init,
    solve_auxiliary,
    solve_neumann_well,
    solve_single_well,
)

__all__ = [
    "AuxiliaryRecord",
    "Box",
    "EnergyReport",
    "Field",
    "Grid",
    "PenalizationParams",
    "PenalizedFunctional",
    "PotentialSpec",
    "SolveError",
    "SolveRecord",
    "SolverConfig",
    "WellGeometry",
    "choose_t",
    "eval_potential",
    "integrate",
    "lambda_sweep",
    "make_params",
    "masks",
    "minimax_upper_bound",
    "multi_bump_init",
    "nehari_check",
    "neg_laplacian",
    "solve_a0",
    "solve_auxiliary",
    "solve_neumann_well",
    "solve_single_well",
]
