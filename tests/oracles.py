"""Independent recomputations that only the tests use as oracles.

The pipeline computes the same quantities another way (per-well energies
from `PenalizedFunctional.report`, fields in memory, 2D Morse indices from
an inertia enclosure on the enlarged wells' boxes, flow steps by factored
solves), so these stay out of the package.
"""

import numpy as np

from logbump.domain import (
    Field,
    Grid,
    PotentialSpec,
    box_mask_full,
    grad_energy_density,
    potential_on_grid,
)
from logbump.functional import _log_mass_density
from logbump.solver import BlockTridiagonalLDL


def dirichlet_well_energy(u: Field, geometry, j: int) -> float:
    """Pure logarithmic energy over well j (Dirichlet type):
    1/2 int |grad u|^2 + u^2 - 1/2 int u^2 log u^2."""
    mask = box_mask_full(geometry.wells[j - 1], u.grid)
    return _pure_energy_on_mask(u, mask)


def penalized_well_energy(u: Field, potential: PotentialSpec, j: int,
                          lam: float) -> float:
    """Energy over the enlarged well j with the lambda V + 1 mass weight."""
    grid = u.grid
    mask = box_mask_full(potential.geometry.enlargements[j - 1], grid)
    full = u.full()
    dens = grad_energy_density(u)
    v = potential_on_grid(potential, grid)
    quad = dens + (lam * v + 1.0) * full * full
    log_dens = _log_mass_density(full)
    hd = grid.h**grid.dim
    return 0.5 * hd * float(np.sum((quad - log_dens)[mask]))


def _pure_energy_on_mask(u: Field, mask: np.ndarray) -> float:
    grid = u.grid
    full = u.full()
    dens = grad_energy_density(u)
    quad = dens + full * full
    log_dens = _log_mass_density(full)
    hd = grid.h**grid.dim
    return 0.5 * hd * float(np.sum((quad - log_dens)[mask]))


def load_field(path) -> Field:
    """Inverse of `logbump.domain.save_field` (bit-exact round trip)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != "dim,n,R,h" or lines[2] != "value":
        raise ValueError(f"{path}: not a field dump")
    dim_s, n_s, r_s, h_s = lines[1].split(",")
    grid = Grid(dim=int(dim_s), r=float(r_s), n=int(n_s))
    if float(h_s) != grid.h:
        raise ValueError(f"{path}: inconsistent spacing in header")
    values = np.array([float(v) for v in lines[3:]])
    return Field(grid, values.reshape(grid.interior_shape, order="C"))


def whole_box_negative_eigenvalues(jd: np.ndarray, h: float) -> int:
    """Negative eigenvalues of -lap_h + diag(jd) on a whole 2D node array,
    counted by block LDL^T inertia over all of its rows."""
    ny, nx = jd.shape
    c = -1.0 / h**2
    return BlockTridiagonalLDL.negative_eigenvalues(
        4.0 / h**2 + jd, np.full((ny - 1, nx), c), np.full((ny, nx - 1), c)
    )


def local_operator_apply(prob, tau: float):
    """W(I + tau(B + lambda V + 1)) of a `solver._LocalWell`, applied free
    of storage, the matrix `solver._local_operator` factors."""
    dv = prob.lam_v + 1.0

    def apply(x):
        return prob.w * (x + tau * (prob.neg_laplacian(x) + dv * x))

    return apply
