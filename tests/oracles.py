"""Independent recomputations that only the tests use as oracles.

The pipeline computes the same quantities another way (the penalized
nonlinearity in closed form by `PenalizationParams.terms`, per-well
energies and the outside-wells norm from `PenalizedFunctional.report`,
fields in memory, 2D Morse indices from an inertia enclosure on the
enlarged wells' boxes, the ground-state Jacobians from their diagonals
and stencil couplings), so these stay out of the package.
"""

import math

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
from logbump.penalty import U_FLOOR, s_log_sq, sq_log_sq
from logbump.solver import BlockTridiagonalLDL


class Splitting:
    """The splitting (1/2) s^2 log s^2 = f2(s) - f1(s) and the truncated g2,
    piece by piece as the paper writes them, for one `PenalizationParams`.

    Every piece is elementwise; `terms` combines them into f1(u) - g2(x, u+)
    and its two derivatives, the reference for `PenalizationParams.terms`.
    """

    def __init__(self, params):
        self.delta, self.l, self.a0 = params.delta, params.l, params.a0
        # the paper's growth exponent, p > 2, of the power bound on f2
        self.p = 3.0

    def _upper_sum(self, s):
        # f2 on |s| >= delta, evaluated as f1_upper + (1/2) s^2 log s^2.
        # Algebraically identical to
        #   (1/2) s^2 log(s^2/delta^2) + 2 delta |s| - (3/2) s^2 - delta^2/2,
        # and the shared rounding lets f2 - f1 recover the logarithmic term
        # exactly in floating point (Sterbenz cancellation in f1 below).
        a = np.abs(np.asarray(s, dtype=float))
        upper_f1 = (
            -0.5 * a * a * (math.log(self.delta**2) + 3.0)
            + 2.0 * self.delta * a
            - 0.5 * self.delta**2
        )
        return upper_f1 + 0.5 * sq_log_sq(s)

    def f1(self, s):
        """Convex, even, nonnegative piece of the splitting."""
        arr = np.asarray(s, dtype=float)
        lower = -0.5 * sq_log_sq(arr)
        upper = self._upper_sum(arr) - 0.5 * sq_log_sq(arr)
        return np.where(np.abs(arr) < self.delta, lower, upper)

    def df1(self, s):
        """Derivative of f1 (odd, continuous, df1(s)*s >= 0)."""
        arr = np.asarray(s, dtype=float)
        lower = -s_log_sq(arr) - arr
        upper = -arr * (math.log(self.delta**2) + 3.0) + 2.0 * self.delta * np.sign(arr)
        return np.where(np.abs(arr) < self.delta, lower, upper)

    def d2f1(self, s):
        """Second derivative of f1: -(log s^2 + 3) below delta, constant
        -(log delta^2 + 3) above.  |s| is floored at U_FLOOR in the log, so
        s = 0 gets a large finite value instead of +inf."""
        a = np.abs(np.asarray(s, dtype=float))
        lower = -(2.0 * np.log(np.maximum(a, U_FLOOR)) + 3.0)
        return np.where(a < self.delta, lower, -(math.log(self.delta**2) + 3.0))

    def f2(self, s):
        """Power-growth piece: 0 below delta, C^1 across +-delta."""
        arr = np.asarray(s, dtype=float)
        return np.where(np.abs(arr) < self.delta, 0.0, self._upper_sum(arr))

    def df2(self, s):
        """Derivative of f2 (odd, df2(+-delta) = 0, df2(s)/s nondecreasing)."""
        arr = np.asarray(s, dtype=float)
        a = np.abs(arr)
        a_safe = np.where(a < self.delta, self.delta, a)
        upper = np.sign(arr) * (
            a_safe * np.log(a_safe * a_safe / self.delta**2)
            - 2.0 * a_safe
            + 2.0 * self.delta
        )
        return np.where(a < self.delta, 0.0, upper)

    def d2f2(self, s):
        """Second derivative of f2: log(s^2/delta^2) above delta, 0 below."""
        a = np.abs(np.asarray(s, dtype=float))
        upper = 2.0 * np.log(np.maximum(a, self.delta) / self.delta)
        return np.where(a < self.delta, 0.0, upper)

    def _df2_tilde_raw(self, s):
        arr = np.asarray(s, dtype=float)
        return np.where(arr <= self.a0, self.df2(arr), self.l * arr)

    def df2_tilde(self, s):
        """Truncated derivative: df2 up to a0, then the linear slope l*s."""
        arr = np.asarray(s, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("df2_tilde is defined for s >= 0 only")
        return self._df2_tilde_raw(arr)

    def dg2(self, in_gamma, t):
        """Spatially switched derivative: df2 inside the enlarged wells,
        the truncated df2_tilde outside.  Negative t is evaluated at t+ = 0
        in the outside branch, matching how the problem tests with u+."""
        arr = np.asarray(t, dtype=float)
        tp = np.maximum(arr, 0.0)
        return np.where(in_gamma, self.df2(arr), self._df2_tilde_raw(tp))

    def d2g2(self, in_gamma, t):
        """Derivative of dg2 in t: d2f2 inside the enlarged wells; outside,
        d2f2 up to a0 and the slope l above it, at t+ like dg2."""
        arr = np.asarray(t, dtype=float)
        tp = np.maximum(arr, 0.0)
        outside = np.where(tp <= self.a0, self.d2f2(tp), self.l)
        return np.where(in_gamma, self.d2f2(arr), outside)

    def _g2_outside(self, t):
        # Antiderivative of df2_tilde on t >= 0, closed form above a0.
        arr = np.asarray(t, dtype=float)
        capped = np.minimum(arr, self.a0)
        beyond = self.f2(self.a0) + 0.5 * self.l * (arr * arr - self.a0**2)
        return np.where(arr <= self.a0, self.f2(capped), beyond)

    def g2(self, in_gamma, t):
        """Antiderivative of dg2 with g2(., 0) = 0; g2(x, t) <= f2(t)."""
        arr = np.asarray(t, dtype=float)
        tp = np.maximum(arr, 0.0)
        return np.where(in_gamma, self.f2(arr), self._g2_outside(tp))

    def terms(self, in_gamma, u):
        """f1(u) - g2(x, u+), f1'(u) - g2'(x, u+) and f1''(u) - g2''(x, u+)."""
        up = np.maximum(u, 0.0)
        return (
            self.f1(u) - self.g2(in_gamma, up),
            self.df1(u) - self.dg2(in_gamma, up),
            self.d2f1(u) - self.d2g2(in_gamma, up),
        )


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


def restricted_norm_sq(
    u: Field, mask: np.ndarray, lam: float, potential: PotentialSpec
) -> float:
    """Squared lambda-weighted H1 norm restricted to a node mask:
    integral over the mask of |grad u|^2 + (lambda V + 1) u^2."""
    grid = u.grid
    dens = grad_energy_density(u)
    full = u.full()
    v = potential_on_grid(potential, grid)
    val = dens + (lam * v + 1.0) * full * full
    return grid.h**grid.dim * float(np.sum(val[mask]))


def _pure_energy_on_mask(u: Field, mask: np.ndarray) -> float:
    grid = u.grid
    full = u.full()
    dens = grad_energy_density(u)
    quad = dens + full * full
    log_dens = _log_mass_density(full)
    hd = grid.h**grid.dim
    return 0.5 * hd * float(np.sum((quad - log_dens)[mask]))


def load_field(path, grid: Grid) -> Field:
    """Inverse of `logbump.domain.save_field` (bit-exact round trip): a
    float64 array of shape `grid.interior_shape`, or ValueError."""
    values = np.load(path, allow_pickle=False)
    if values.dtype != np.float64 or values.shape != grid.interior_shape:
        raise ValueError(f"{path}: {values.dtype} array of shape {values.shape}, "
                         f"expected float64 of shape {grid.interior_shape}")
    return Field(grid, values)


def whole_box_negative_eigenvalues(jd: np.ndarray, h: float) -> int:
    """Negative eigenvalues of -lap_h + diag(jd) on a whole 2D node array,
    counted by block LDL^T inertia over all of its rows."""
    ny, nx = jd.shape
    c = -1.0 / h**2
    return BlockTridiagonalLDL.negative_eigenvalues(
        4.0 / h**2 + jd, np.full((ny - 1, nx), c), np.full((ny, nx - 1), c)
    )


def padded_neg_laplacian(v: np.ndarray, h: float, mode: str = "constant") -> np.ndarray:
    """-lap_h on an array of nodes of any box, with spacing h, from an
    explicit ghost ring `np.pad(v, 1, mode)`: zero ghosts for "constant",
    ghosts mirroring the edge node's inner neighbour for "reflect"."""
    ghosted = np.pad(v, 1, mode=mode)
    inner = (slice(1, -1),) * v.ndim
    out = 2.0 * v.ndim * v
    for ax in range(v.ndim):
        for side in (slice(None, -2), slice(2, None)):
            out = out - ghosted[inner[:ax] + (side,) + inner[ax + 1:]]
    return out / (h * h)


def local_jacobian_apply(prob, u, mirror: bool):
    """W(B + lambda V - log u^2 - 2) of a `solver._LocalWell` at u > 0,
    applied free of storage: the weighted Jacobian of the ground-state
    Newton step.  B is the stencil with mirror ghosts for the enlarged
    well (`mirror`), zero ghosts for the Dirichlet well, so this stays
    independent of the problem's own couplings."""
    shift = prob.lam_v - 2.0 * np.log(u) - 2.0
    mode = "reflect" if mirror else "constant"

    def apply(x):
        return prob.w * (padded_neg_laplacian(x, prob.grid.h, mode) + shift * x)

    return apply
