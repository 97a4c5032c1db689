"""Independent recomputations that only the tests use as oracles.

The pipeline computes the same quantities another way (the penalized
nonlinearity in closed form by `PenalizationParams.terms`, per-well
energies and the outside-wells norm from `PenalizedFunctional.report`,
fields in memory, 2D Morse indices from an inertia enclosure on the
enlarged wells' boxes, the ground-state Jacobians from their diagonals
and stencil couplings walked on flat faces, the Nehari constraint along a bump's ray in
closed form from its energy and mass, the potential on the whole grid at
once, and each sweep's starts as sums of its wells' ground states and of
their level fields on the interior values), so these stay out of the
package.  So does the order study of acceptance criterion 3, which no run
executes: the residual of the package's own stencil and nonlinearity at
the explicit Gausson under h-refinement, with its rectangle-rule integral
and interior node coordinates.
"""

import math
from dataclasses import dataclass

import numpy as np

from logbump.domain import (
    Field,
    Grid,
    PotentialSpec,
    box_mask_full,
    grad_energy_density,
    neg_laplacian,
    potential_on_grid,
)
from logbump.penalty import U_FLOOR, s_log_sq, sq_log_sq
from logbump.solver import negative_eigenvalues


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


@dataclass(frozen=True)
class NehariCheck:
    """Energy, the identity value 1/2 int u^2, and the constraint I'(u)u."""

    energy: float
    half_mass: float
    constraint: float

    @property
    def identity_gap(self) -> float:
        return abs(self.energy - self.half_mass)


def nehari_check(u: Field, support: np.ndarray) -> NehariCheck:
    """The Nehari identity I(u) = 1/2 int u^2 and the constraint I'(u)u of
    the pure logarithmic energy, from the gradient, mass and log-mass
    integrals over the support mask.

    On the manifold (constraint = 0) the two energies agree; the caller
    decides the tolerance.  Refuses fields with appreciable values outside
    the support, where the truncation breaks the scaling law of the pure
    logarithmic energy."""
    full = u.full()
    peak = float(np.max(np.abs(full), initial=0.0))
    leak = float(np.max(np.abs(full[~support]), initial=0.0))
    if peak > 0.0 and leak > 1e-12 * peak:
        raise ValueError("field must vanish outside the given support mask")
    hd = u.grid.h**u.grid.dim
    grad = hd * float(np.sum(grad_energy_density(u)[support]))
    mass = hd * float(np.sum((full * full)[support]))
    logm = hd * float(np.sum(sq_log_sq(full)[support]))
    energy = 0.5 * (grad + mass) - 0.5 * logm
    return NehariCheck(energy=energy, half_mass=0.5 * mass, constraint=grad - logm)


def eval_potential(spec: PotentialSpec, x) -> float:
    """min(cap, dist^power) at the one point x, dist being its Euclidean
    distance to the nearest closed well, in Python floats: the pointwise
    reference for `potential_on_grid`."""
    dist = min(math.hypot(*(max(abs(xi - c) - h, 0.0)
                            for xi, c, h in zip(x, well.center, well.half)))
               for well in spec.geometry.wells)
    try:
        return min(spec.cap, dist**spec.power)
    except OverflowError:  # a large power far out, where the cap holds
        return spec.cap


def level_start(levels, grid: Grid) -> Field:
    """The whole-box field that holds each local record's field at its
    full-grid nodes and is zero elsewhere: the reference for
    `solver.superpose`, placed through the full grid."""
    full = np.zeros(grid.full_shape)
    for rec in levels:
        full[rec.nodes] += rec.values
    return Field(grid, full[(slice(1, -1),) * grid.dim])


def multi_bump_init(omegas: list[Field], scales, big_t: float) -> Field:
    """Superposition sum_j s_j * T * omega_j of disjointly supported bumps."""
    if not omegas:
        raise ValueError("need at least one bump")
    scales = list(scales)
    if len(scales) != len(omegas):
        raise ValueError("one scale per bump required")
    grid = omegas[0].grid
    out = np.zeros(grid.interior_shape)
    for s, w in zip(scales, omegas):
        if w.grid != grid:
            raise ValueError("all bumps must live on the same grid")
        out = out + (s * big_t) * w.values
    return Field(grid, out)


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
    log_dens = sq_log_sq(full)
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
    log_dens = sq_log_sq(full)
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


def first_coupled_pair(masks) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of bool node arrays that the 5-point
    stencil couples: masks[i] grown by its stencil neighbours meets
    masks[j].  None when no pair is coupled."""
    for i, mask in enumerate(masks):
        reach = mask.copy()
        for ax in range(mask.ndim):
            lo = (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            reach[hi] |= mask[lo]
            reach[lo] |= mask[hi]
        for j in range(i + 1, len(masks)):
            if np.any(reach & masks[j]):
                return i, j
    return None


def whole_box_negative_eigenvalues(d: np.ndarray, h: float) -> int:
    """Negative eigenvalues of the 5-point matrix with diagonal d and the
    couplings -1/h^2 of -lap_h on a whole 2D node array, counted by block
    LDL^T inertia over all of its rows."""
    ny, nx = d.shape
    c = -1.0 / h**2
    return negative_eigenvalues(d, (np.full((ny - 1, nx), c), np.full((ny, nx - 1), c)))


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


def slice_five_point_apply(d: np.ndarray, off):
    """x -> J x of `domain.five_point_apply` on nd slices: per axis, the
    coupling times x's hi neighbours added to out's lo nodes, then the
    coupling times x's lo neighbours added to out's hi nodes.  The same
    float operations in the same order as the flat-face kernel, so it is
    the bit-for-bit reference.  One reused output buffer."""
    out = np.empty_like(d)
    tmp = np.empty_like(d)
    terms = []
    for ax, c in enumerate(off):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        terms += [(c, out[lo], tmp[lo], hi), (c, out[hi], tmp[hi], lo)]

    def apply(x):
        np.multiply(d, x, out=out)
        for c, dst, buf, src in terms:
            dst += np.multiply(c, x[src], out=buf)
        return out

    return apply


def interior_mesh(grid: Grid) -> tuple[np.ndarray, ...]:
    """Broadcastable per-axis coordinates of the interior nodes."""
    return grid.mesh((slice(1, -1),) * grid.dim)


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Rectangle-rule integral h^dim * sum over nodes."""
    return grid.h**grid.dim * float(np.sum(values))


def gausson_values(grid: Grid) -> np.ndarray:
    """Interior samples of the explicit solution exp(dim/2 - |x|^2 / 2)
    of -lap u = u log u^2."""
    r2 = sum(m**2 for m in interior_mesh(grid))
    return np.exp(0.5 * grid.dim - 0.5 * r2)


def log_equation_residual_norm(u: Field) -> float:
    """Discrete L2 norm of -lap u - u log u^2 over the interior."""
    res = neg_laplacian(u).values - np.asarray(s_log_sq(u.values))
    return math.sqrt(integrate(res * res, u.grid))


@dataclass(frozen=True)
class OrderStudy:
    hs: tuple[float, ...]
    residuals: tuple[float, ...]
    ratios: tuple[float, ...]
    fitted_order: float


def gausson_order_study(dim: int, r: float, n_list) -> OrderStudy:
    """Residual decay of the exact Gaussian solution under h-refinement.

    The box must be wide enough that the tail is negligible at the
    boundary (r >= 8 gives tails below 1e-13).
    """
    hs = []
    residuals = []
    for n in n_list:
        grid = Grid(dim=dim, r=r, n=int(n))
        u = Field(grid, gausson_values(grid))
        hs.append(grid.h)
        residuals.append(log_equation_residual_norm(u))
    ratios = tuple(
        residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)
    )
    slope = np.polyfit(np.log(hs), np.log(residuals), 1)[0]
    return OrderStudy(
        hs=tuple(hs),
        residuals=tuple(residuals),
        ratios=ratios,
        fitted_order=float(slope),
    )
