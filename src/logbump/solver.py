"""Solvers for the well problems and the penalized problem.

The flows use one semi-implicit splitting: the stiff linear part
(-lap + diagonal mass) is treated implicitly, so the deepening parameter
lambda never forces a smaller step, while the logarithmic nonlinearity is
explicit.  Negative values are clipped after every step (the discrete
counterpart of testing with the negative part).  The implicit matrix stays
fixed over a solve, so it is factored once before the flow loop
(tridiagonal LDL^T in 1D, block LDL^T in 2D) and every step is a direct
solve; only the 2D auxiliary flow, on the whole box, runs a
Jacobi-preconditioned conjugate gradient solve per step.

The ground-state flow runs on a local box of grid nodes and rescales onto
the Nehari manifold after every step, which pins the amplitude and turns
the flow into a minimization over the manifold.  Its local problems differ
only in the ghost rule beyond the box: zero on the Dirichlet well's own
nodes, mirrored on the enlarged well with natural boundary condition.

The penalized problem on the whole box has saddle solutions.  In 1D it is
solved by Newton's method with the same clip: each step factors the
indefinite tridiagonal Jacobian, whose negative pivots count the Morse
index.  In 2D the auxiliary flow rescales each selected bump's amplitude
after every step instead.

Everything here is deterministic: fixed iteration order, fixed summation
order, no randomness, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    _dist_sq_to_wells,
    _shape_potential,
    box_mask_full,
    box_nodes,
    neg_laplacian,
    neg_laplacian_values,
)
from logbump.functional import (
    PenalizedFunctional,
    _log_mass_density,
)
from logbump.penalty import PenalizationParams, s_log_sq


class SolveError(RuntimeError):
    """Raised on linear-solver breakdown or invalid solver input."""


@dataclass(frozen=True)
class SolverConfig:
    """Flow, Newton and inner linear-solve settings.

    tau is the flows' step; the 1D auxiliary solve is Newton's method and
    does not use it.  tol and max_iters bound every solve.  cg_tol and
    cg_max_iters govern only the conjugate gradient solves of the 2D
    auxiliary flow; every other step is a direct solve.
    """

    tau: float = 0.05
    tol: float = 1e-6
    max_iters: int = 40000
    cg_tol: float = 1e-12
    cg_max_iters: int = 20000
    bump_threshold: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.tau <= 0.5:
            raise ValueError("tau must lie in (0, 0.5] for a descending flow")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.cg_tol <= 0:
            raise ValueError("cg_tol must be positive")
        if not 0.0 < self.bump_threshold < 1.0:
            raise ValueError("bump_threshold must lie in (0, 1)")
        if self.max_iters < 1 or self.cg_max_iters < 1:
            raise ValueError("iteration limits must be at least 1")


@dataclass
class SolveRecord:
    """Outcome of one flow or Newton solve.

    stop_reason names why the solve stopped: "converged", "iteration cap",
    "collapse" (a selected enlargement lost all of its mass) or "diverged"
    (the Newton residual grew DIVERGE_STEPS steps in a row).  morse_index
    counts the negative eigenvalues of the last Newton step's Jacobian;
    it is nan for the flows, which have none.
    """

    field: Field
    iterations: int
    residuals: list[float]
    energies: list[float]
    converged: bool
    stop_reason: str
    energy: float
    bump_mask: tuple[int, ...]
    morse_index: float = math.nan


@dataclass(frozen=True)
class MinimaxParams:
    """Scale factor T and per-axis resolution of the surface [1/T^2, 1]^l."""

    big_t: float
    m: int

    def __post_init__(self):
        if self.big_t <= 1.0:
            raise ValueError("the scale factor T must exceed 1")
        if self.m < 8:
            raise ValueError("the path grid needs at least 8 points per axis")


def conjugate_gradient(apply_a, b, x0, tol, max_iters, diag=None):
    """Preconditioned CG for an SPD operator given as a callable.

    Stops when ||r|| <= tol * ||b||.  A non-finite right-hand side raises at
    once.  A nonpositive curvature p.A p signals a non-SPD operator and
    raises, as does running out of iterations.  Returns (solution,
    iterations).
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise SolveError("non-finite right-hand side")
    x = np.array(x0, dtype=float, copy=True)
    r = b - apply_a(x)
    bnorm = float(np.sqrt(np.vdot(b, b)))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    z = r / diag if diag is not None else r
    p = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, max_iters + 1):
        if math.sqrt(float(np.vdot(r, r))) <= tol * bnorm:
            return x, it - 1
        ap = apply_a(p)
        pap = float(np.vdot(p, ap))
        if pap <= 0.0:
            raise SolveError("conjugate gradient breakdown: operator not SPD")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = r / diag if diag is not None else r
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    if math.sqrt(float(np.vdot(r, r))) <= tol * bnorm:
        return x, max_iters
    raise SolveError(f"conjugate gradient did not converge in {max_iters} iterations")


class TridiagonalLDL:
    """LDL^T factor of a symmetric tridiagonal matrix, for repeated solves.

    `diag` holds the n diagonal entries and `off` the n - 1 entries coupling
    node i to node i + 1.  The recurrences run over plain Python floats,
    which at 1D grid sizes beats the per-call overhead of numpy.  The
    factor kept for repeated solves must be SPD: a nonpositive pivot raises.
    `solve_once` takes an indefinite matrix: only a pivot within PIVOT_RTOL
    of the largest diagonal entry raises, and `negative_pivots` counts the
    negative pivots, by Sylvester's law of inertia the number of negative
    eigenvalues.
    """

    PIVOT_RTOL = 1e-12

    def __init__(self, diag, off):
        self._factor(diag, off, True, None)

    @classmethod
    def solve_once(cls, diag, off, rhs):
        """(x, negative pivots) for an indefinite matrix used once: the
        forward substitution of rhs runs inside the factor loop."""
        ldl = cls.__new__(cls)
        fwd = ldl._factor(diag, off, False, _finite_list(rhs))
        return ldl._back_substitute(fwd), ldl.negative_pivots

    def _factor(self, diag, off, spd, rhs):
        """Pivots and multipliers, plus the forward substitution of rhs."""
        diag = np.asarray(diag, dtype=float).tolist()
        off = np.asarray(off, dtype=float).tolist()
        if len(off) != len(diag) - 1:
            raise ValueError("off must have one entry fewer than diag")
        floor = 0.0 if spd else self.PIVOT_RTOL * max(map(abs, diag))
        vals = rhs if rhs is not None else [0.0] * len(diag)
        pivots, mults, fwd = [diag[0]], [], [vals[0]]
        try:
            for a, b, r in zip(diag[1:], off, vals[1:]):
                m = b / pivots[-1]
                mults.append(m)
                pivots.append(a - m * b)
                fwd.append(r - m * fwd[-1])
        except ZeroDivisionError:
            pass  # the zero pivot ends the list and fails the check below
        if not all(p > floor for p in (pivots if spd else map(abs, pivots))):
            raise SolveError(
                "LDL^T breakdown: operator not SPD" if spd
                else "LDL^T breakdown: pivot near zero"
            )
        self.negative_pivots = sum(p < 0.0 for p in pivots)
        self._mults = mults
        self._last_pivot = pivots[-1]
        self._back = list(zip(pivots[-2::-1], mults[::-1]))
        return fwd

    def _back_substitute(self, fwd) -> np.ndarray:
        x = fwd[-1] / self._last_pivot
        out = [x]
        for (pivot, m), z in zip(self._back, fwd[-2::-1]):
            x = z / pivot - m * x
            out.append(x)
        out.reverse()
        return np.array(out)

    def solve(self, rhs) -> np.ndarray:
        """x with L D L^T x = rhs: one forward and one back substitution."""
        vals = _finite_list(rhs)
        z = vals[0]
        fwd = [z]
        for r, m in zip(vals[1:], self._mults):
            z = r - m * z
            fwd.append(z)
        return self._back_substitute(fwd)


def _finite_list(rhs) -> list[float]:
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise SolveError("non-finite right-hand side")
    return rhs.tolist()


class BlockTridiagonalLDL:
    """Block LDL^T factor of a symmetric 5-point matrix on an (ny, nx) array.

    `off0` couples node (i, j) to (i + 1, j) and `off1` couples it to
    (i, j + 1).  Each row's Schur complement is a dense nx x nx block whose
    Cholesky factor raises if the matrix is not SPD; its inverse is kept
    (ny nx^2 doubles), so a solve is 2 ny matrix-vector products.
    """

    def __init__(self, diag, off0, off1):
        diag = np.asarray(diag, dtype=float)
        self._off = np.asarray(off0, dtype=float)
        off1 = np.asarray(off1, dtype=float)
        ny, nx = diag.shape
        if self._off.shape != (ny - 1, nx) or off1.shape != (ny, nx - 1):
            raise ValueError("off0 and off1 must couple neighbours along axes 0 and 1")
        self._inv = np.empty((ny, nx, nx))
        for i in range(ny):
            schur = np.diag(diag[i]) + np.diag(off1[i], 1) + np.diag(off1[i], -1)
            if i > 0:
                c = self._off[i - 1]
                schur -= c[:, None] * self._inv[i - 1] * c[None, :]
            try:
                np.linalg.cholesky(schur)
            except np.linalg.LinAlgError:
                raise SolveError("block LDL^T breakdown: operator not SPD") from None
            self._inv[i] = np.linalg.inv(schur)

    def solve(self, rhs) -> np.ndarray:
        """x with L D L^T x = rhs: one forward and one back sweep over rows."""
        rhs = np.asarray(rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise SolveError("non-finite right-hand side")
        inv, off = self._inv, self._off
        x = np.empty_like(rhs)
        x[0] = inv[0] @ rhs[0]
        for i in range(1, len(x)):
            x[i] = inv[i] @ (rhs[i] - off[i - 1] * x[i - 1])
        for i in range(len(x) - 2, -1, -1):
            x[i] -= inv[i] @ (off[i] * x[i + 1])
        return x


@dataclass(frozen=True)
class FlowOperator:
    """Implicit matrix of one ground-state flow solve, fixed over its steps.

    `apply` and `diag` give the matrix free of storage with its diagonal,
    and `off` its stencil couplings, one array per axis (entry i along axis
    a couples node i to node i + 1 along a).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    diag: np.ndarray
    off: tuple[np.ndarray, ...]

    def factor(self):
        """Tridiagonal LDL^T in 1D, block LDL^T in 2D, for every step."""
        factor_type = TridiagonalLDL if len(self.off) == 1 else BlockTridiagonalLDL
        return factor_type(self.diag, *self.off)


def _occupied_wells(values_full_sq_sums, total, threshold) -> tuple[int, ...]:
    if total <= 0.0:
        return ()
    return tuple(
        j + 1 for j, m in enumerate(values_full_sq_sums) if m >= threshold * total
    )


def classify_bumps(u: Field, geometry: WellGeometry, threshold: float) -> tuple[int, ...]:
    """Wells whose enlargement carries at least `threshold` of the mass."""
    full = u.full()
    sq = full * full
    per = [float(np.sum(sq[box_mask_full(e, u.grid)])) for e in geometry.enlargements]
    return _occupied_wells(per, float(np.sum(sq)), threshold)


def _axis_couplings(axis_weights, tau: float, h: float) -> tuple[np.ndarray, ...]:
    """Couplings -tau/h^2 of I + tau(-lap) between neighbours along each
    axis, times the node weights of the other axes."""
    off = []
    for ax in range(len(axis_weights)):
        factors = [
            np.ones(len(w) - 1) if d == ax else w for d, w in enumerate(axis_weights)
        ]
        off.append(-tau / h**2 * reduce(np.multiply.outer, factors))
    return tuple(off)


# -- penalized problem on the box -------------------------------------------


def _newton_step(fun: PenalizedFunctional, grid: Grid) -> Callable:
    """step(u, res) -> (u', Morse index) for the penalized problem in 1D.

    Solves J du = -res with the tridiagonal Jacobian
    J = -lap + lambda V + 1 + f1''(u) - g2''(x, u+) at u, factored and
    substituted in one pass, and returns max(u + du, 0) with the number of
    negative pivots of J, its count of negative eigenvalues.
    """
    off = np.full(grid.n - 3, -1.0 / grid.h**2)
    base = 2.0 / grid.h**2 + fun.diag

    def step(u, res):
        jac = base - fun.nonlinear_rhs_slope(u)
        du, negative = TridiagonalLDL.solve_once(jac, off, -res)
        return np.maximum(u + du, 0.0), negative

    return step


def _flow_step(
    fun: PenalizedFunctional, grid: Grid, config: SolverConfig, gamma_masks
) -> Callable:
    """step(u, res) -> (u', nan): one projected semi-implicit flow step.

    u' = (I + tau(-lap + diag(lambda V + 1)))^{-1} (u + tau (g2'(x, u+) -
    f1'(u))), clipped, then rescaled on each selected enlargement by t_j
    with log t_j^2 = <residual, u' restricted to the enlargement> / int_j
    u'^2, the per-well ray condition.  The rescale stops at an enlargement
    without mass, which the caller reports as a collapse.  res goes unused.
    The implicit matrix is left unassembled and each step runs Jacobi-PCG
    from u: a block factor would hold (n - 2)^3 doubles, 15.6 MB at n = 127.
    """
    tau = config.tau
    hd = grid.h**grid.dim
    diag = 1.0 + tau * (2.0 * grid.dim / grid.h**2 + fun.diag)

    def apply_a(x):
        lap = neg_laplacian(Field(grid, x)).values
        return x + tau * (lap + fun.diag * x)

    def step(u, res):
        rhs = u + tau * fun.nonlinear_rhs(u)
        x, _ = conjugate_gradient(
            apply_a, rhs, u, config.cg_tol, config.cg_max_iters, diag
        )
        u_new = np.maximum(x, 0.0)
        res = fun.residual(Field(grid, u_new)).values
        for mask in gamma_masks:
            mass = hd * float(np.sum((u_new * u_new)[mask]))
            if mass <= 0.0:
                break
            pair = hd * float(np.sum((res * u_new)[mask]))
            # trust region keeps early iterations sane; inactive near the end
            t = math.exp(min(max(pair / (2.0 * mass), -0.7), 0.7))
            u_new[mask] *= t
        return u_new, math.nan

    return step


# Newton stops as "diverged" once its residual has grown this many steps in
# a row.
DIVERGE_STEPS = 4


def solve_auxiliary(
    lam: float,
    gamma,
    init: Field,
    grid: Grid,
    potential: PotentialSpec,
    params: PenalizationParams,
    config: SolverConfig,
) -> SolveRecord:
    """Nonnegative solution of the penalized problem on the box.

    Solves -lap u + (lambda V + 1) u + f1'(u) - g2'(x, u+) = 0 from init,
    clipping negatives after every step, until the relative L2 residual
    drops below tol.  Non-convergence is flagged on the record with its
    stop reason, never papered over; a selected enlargement that loses all
    of its mass stops the solve as a collapse.

    Multi-bump states are saddle points: the energy tends to minus infinity
    along each bump's amplitude.  In 1D, Newton's method (`_newton_step`)
    converges to them directly, and its Jacobian's negative pivots give the
    Morse index, which is |gamma| on an l-bump saddle of the minimax over
    [1/T^2, 1]^l.  In 2D the projected flow (`_flow_step`) rescales each
    selected bump's amplitude after every step, which removes the unstable
    directions; the correction is a residual pairing, so its fixed points
    solve the unmodified equation.
    """
    if np.any(init.values < 0.0):
        raise ValueError("init must be nonnegative")
    fun = PenalizedFunctional(grid, potential, params, gamma, lam)
    hd = grid.h**grid.dim
    inner = (slice(1, -1),) * grid.dim
    gamma_masks = [fun.masks.per_enlarged[j - 1][inner] for j in fun.gamma]
    newton = grid.dim == 1
    if newton:
        step = _newton_step(fun, grid)
    else:
        step = _flow_step(fun, grid, config, gamma_masks)

    u = init.values.copy()
    res = fun.residual(init).values if newton else None
    residuals: list[float] = []
    energies: list[float] = []
    stop_reason = "iteration cap"
    morse = math.nan
    growth = 0
    it = 0
    for it in range(1, config.max_iters + 1):
        u, morse = step(u, res)
        if np.any(u != 0.0) and any(
            hd * float(np.sum((u * u)[mask])) <= 0.0 for mask in gamma_masks
        ):
            stop_reason = "collapse"
            break

        res = fun.residual(Field(grid, u)).values
        unorm = math.sqrt(float(np.sum(u * u)))
        rel = math.sqrt(float(np.sum(res * res))) / max(unorm, 1e-300)
        growth = growth + 1 if residuals and rel > residuals[-1] else 0
        residuals.append(rel)
        energies.append(fun.phi_total(u))
        if rel <= config.tol:
            stop_reason = "converged"
            break
        if newton and growth >= DIVERGE_STEPS:
            stop_reason = "diverged"
            break

    out = Field(grid, u)
    return SolveRecord(
        field=out,
        iterations=it,
        residuals=residuals,
        energies=energies,
        converged=stop_reason == "converged",
        stop_reason=stop_reason,
        energy=energies[-1] if energies else fun.phi_total(u),
        bump_mask=classify_bumps(out, potential.geometry, config.bump_threshold),
        morse_index=morse,
    )


# -- path of well bumps ------------------------------------------------------


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


def _ray_constraint(values, grid, hd, t):
    """I'(t u)(t u) for the pure logarithmic energy along the ray."""
    lap = neg_laplacian(Field(grid, values)).values
    grad = hd * float(np.vdot(lap, values))
    mass = hd * float(np.sum(values * values))
    logm = hd * float(np.sum(_log_mass_density(values)))
    return t * t * (grad - logm - math.log(t * t) * mass)


def choose_t(omegas: list[Field]) -> float:
    """Smallest power-of-two scale T >= 2 with the ray sign conditions
    I'((1/T) w)((1/T) w) > 0 and I'(T w)(T w) < 0 for every bump w.

    For bumps exactly on the Nehari manifold any T > 1 works, so exact
    inputs return 2; the search only guards numerical slack.
    """
    for exp in range(1, 11):
        big_t = float(2**exp)
        ok = True
        for w in omegas:
            hd = w.grid.h**w.grid.dim
            lo = _ray_constraint(w.values, w.grid, hd, 1.0 / big_t)
            hi = _ray_constraint(w.values, w.grid, hd, big_t)
            if not (lo > 0.0 and hi < 0.0):
                ok = False
                break
        if ok:
            return big_t
    raise SolveError("no scale factor up to 2^10 satisfies the sign conditions")


def minimax_upper_bound(
    lam: float,
    gamma,
    omegas: list[Field],
    minimax: MinimaxParams,
    grid: Grid,
    potential: PotentialSpec,
    params: PenalizationParams,
) -> float:
    """Upper bound for the multi-bump minimax level.

    Maximizes the penalized energy over the bump-superposition surface
    (s_1, ..., s_l) in [1/T^2, 1]^l; since the surface is admissible the
    maximum dominates the minimax level up to the grid resolution in s.

    The energy is additive over bumps whose supports no stencil reaches
    across: the mass, f1 and g2 terms are pointwise and vanish at 0, and
    every kinetic cross term <-lap w_i, w_j> is 0.  So the maximum over the
    m^l points of the surface grid is the sum of the per-bump maxima over
    the m points of each axis, found with l*m energy evaluations.  Bumps
    whose support, grown by one stencil cell, meets another bump's support
    raise ValueError.
    """
    fun = PenalizedFunctional(grid, potential, params, gamma, lam)
    supports = [w.values != 0.0 for w in omegas]
    for i, reach in enumerate(_stencil_reach(s) for s in supports):
        for j in range(i + 1, len(supports)):
            if np.any(reach & supports[j]):
                raise ValueError(
                    f"bumps {i + 1} and {j + 1} are coupled by the stencil; "
                    "the minimax energy is additive only over separated supports"
                )
    big_t = minimax.big_t
    s_axis = np.linspace(1.0 / (big_t * big_t), 1.0, minimax.m)
    return sum(
        max(fun.phi_total((s * big_t) * w.values) for s in s_axis) for w in omegas
    )


def _stencil_reach(support: np.ndarray) -> np.ndarray:
    """The nodes of `support` and their stencil neighbours along each axis."""
    reach = support.copy()
    for ax in range(support.ndim):
        head = [slice(None)] * support.ndim
        tail = [slice(None)] * support.ndim
        head[ax] = slice(None, -1)
        tail[ax] = slice(1, None)
        reach[tuple(head)] |= support[tuple(tail)]
        reach[tuple(tail)] |= support[tuple(head)]
    return reach


@dataclass
class SweepStep:
    lam: float
    record: SolveRecord
    report: "object"


def lambda_sweep(
    lambdas,
    gamma,
    init: Field,
    grid: Grid,
    potential: PotentialSpec,
    params: PenalizationParams,
    config: SolverConfig,
) -> list[SweepStep]:
    """Warm-started continuation over an ascending lambda list.

    The converged field at each lambda seeds the next solve, which keeps
    the iteration on the same multi-bump branch as the wells deepen.
    """
    lambdas = [float(x) for x in lambdas]
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be strictly ascending")
    steps: list[SweepStep] = []
    current = init
    for lam in lambdas:
        rec = solve_auxiliary(lam, gamma, current, grid, potential, params, config)
        fun = PenalizedFunctional(grid, potential, params, gamma, lam)
        steps.append(SweepStep(lam=lam, record=rec, report=fun.report(rec.field)))
        current = rec.field
    return steps




# -- ground states of the local well problems --------------------------------


class _LocalWell:
    """One well's local problem on the rectangle of grid nodes in a box.

    `nodes` holds the rectangle's slices of the full grid, `w` its node
    weights and `lam_v` the potential term lambda V.  The ghost rule beyond
    the rectangle's edge is a zero ghost for the Dirichlet well (w = 1,
    V = 0) and a ghost mirroring the first inner neighbour for the enlarged
    well with natural boundary condition.  Paired with trapezoidal weights
    the mirror stencil B makes <B u, u>_w the face sum of squared
    differences, so energies and the flow share one discrete calculus.
    """

    def __init__(self, grid: Grid, nodes, axis_w, mirror: bool):
        self.grid = grid
        self.nodes = nodes
        self.axis_w = axis_w
        self.w = reduce(np.multiply.outer, axis_w)
        self.lam_v = 0.0
        self.mirror = mirror
        self.mesh = [
            grid.axis[s].reshape([-1 if d == ax else 1 for d in range(grid.dim)])
            for ax, s in enumerate(nodes)
        ]

    @classmethod
    def dirichlet(cls, well: Box, grid: Grid) -> "_LocalWell":
        """The well's interior nodes, with zero ghosts beyond them."""
        nodes = tuple(
            slice(max(s.start, 1), min(s.stop, grid.n - 1))
            for s in box_nodes(well, grid)
        )
        return cls(grid, nodes, [np.ones(s.stop - s.start) for s in nodes], False)

    @classmethod
    def neumann(
        cls, lam: float, j: int, grid: Grid, potential: PotentialSpec
    ) -> "_LocalWell":
        """The closed enlarged well j, trapezoid-weighted with mirror ghosts."""
        nodes = box_nodes(potential.geometry.enlargements[j - 1], grid, strict=False)
        if any(s.stop - s.start < 3 for s in nodes):
            raise SolveError(f"enlarged well {j} too coarse for a Neumann solve")
        axis_w = [np.r_[0.5, np.ones(s.stop - s.start - 2), 0.5] for s in nodes]
        prob = cls(grid, nodes, axis_w, True)
        dist_sq = _dist_sq_to_wells(potential, prob.mesh, grid.dim)
        prob.lam_v = lam * _shape_potential(potential, dist_sq) * np.ones(prob.w.shape)
        return prob

    def dist_sq(self, center) -> np.ndarray:
        """Squared distance of every node of the rectangle to `center`."""
        return sum((m - c) ** 2 for m, c in zip(self.mesh, center))

    def neg_laplacian(self, u: np.ndarray) -> np.ndarray:
        return neg_laplacian_values(u, self.grid.h, self.mirror)

    def integral(self, values: np.ndarray) -> float:
        """Weighted quadrature h^dim sum w * values."""
        return self.grid.h**self.grid.dim * float(np.sum(self.w * values))

    def nehari_project(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t u, (B + lambda V)(t u)) for the closed-form Nehari scale t,
        log t^2 = (<(B + lambda V) u, u>_w - int_w u^2 log u^2) / int_w u^2."""
        au = self.neg_laplacian(u) + self.lam_v * u
        mass = self.integral(u * u)
        if mass <= 0.0:
            raise SolveError("flow collapsed to zero; cannot project onto the manifold")
        logm = self.integral(_log_mass_density(u))
        t = math.exp((self.integral(au * u) - logm) / (2.0 * mass))
        return t * u, t * au


def _local_operator(prob: _LocalWell, tau: float) -> FlowOperator:
    """W(I + tau(B + lambda V + 1)) on the local problem's rectangle.

    Neighbours along one axis couple by -tau/h^2 times the weights of the
    other axes both ways: on the mirror rows the half trapezoid weight
    halves the doubled ghost coupling, so the matrix is symmetric.
    """
    dv = prob.lam_v + 1.0

    def apply_m(x):
        return prob.w * (x + tau * (prob.neg_laplacian(x) + dv * x))

    diag = prob.w * (1.0 + tau * (2.0 * prob.grid.dim / prob.grid.h**2 + dv))
    return FlowOperator(apply_m, diag, _axis_couplings(prob.axis_w, tau, prob.grid.h))


def _ground_state_flow(prob: _LocalWell, u: np.ndarray, config: SolverConfig):
    """Projected semi-implicit flow of a local problem from the bump u.

    Each step solves the factored W(I + tau(B + lambda V + 1)) u' =
    W(u + tau(u log u^2 + u)), clips negatives and rescales onto the Nehari
    manifold, so the energy decreases along the flow and the limit
    satisfies the Nehari identity.  The weighted relative residual of
    -lap u + lambda V u = u log u^2 and the energy come from the step's one
    stencil apply.  Returns (u, iterations, residuals, energies, converged).
    """
    tau = config.tau
    factor = _local_operator(prob, tau).factor()
    u, au = prob.nehari_project(u)
    nonlin = s_log_sq(u)
    residuals: list[float] = []
    energies: list[float] = []
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        rhs = prob.w * (u + tau * (nonlin + u))
        u, au = prob.nehari_project(np.maximum(factor.solve(rhs), 0.0))
        nonlin = s_log_sq(u)
        res = au - nonlin
        mass = prob.integral(u * u)
        rel = math.sqrt(prob.integral(res * res) / mass)
        residuals.append(rel)
        energies.append(
            0.5 * (prob.integral(au * u) + mass - prob.integral(_log_mass_density(u)))
        )
        if rel <= config.tol:
            converged = True
            break
    return u, it, residuals, energies, converged


def solve_single_well(
    geometry: WellGeometry, j: int, grid: Grid, config: SolverConfig
) -> SolveRecord:
    """Positive ground state of -lap u = u log u^2 on well j (Dirichlet).

    Runs the projected flow on the well's nodes from a positive Gaussian
    bump at its center; the PDE residual is measured inside the well in
    relative L2.  The field is zero off the well.
    """
    if not 1 <= j <= geometry.k:
        raise ValueError(f"well index {j} out of range 1..{geometry.k}")
    well = geometry.wells[j - 1]
    prob = _LocalWell.dirichlet(well, grid)
    for ax, s in enumerate(prob.nodes):
        if s.stop - s.start < 32:
            raise ValueError(
                f"well {j} resolved by only {s.stop - s.start} nodes on axis {ax}; "
                "need >= 32"
            )
    sigma = min(1.0, min(well.half) / 2.0)
    bump = np.exp(-prob.dist_sq(well.center) / (2.0 * sigma * sigma))
    u, it, residuals, energies, converged = _ground_state_flow(prob, bump, config)

    values = np.zeros(grid.interior_shape)
    values[tuple(slice(s.start - 1, s.stop - 1) for s in prob.nodes)] = u
    return SolveRecord(
        field=Field(grid, values),
        iterations=it,
        residuals=residuals,
        energies=energies,
        converged=converged,
        stop_reason="converged" if converged else "iteration cap",
        energy=energies[-1],
        bump_mask=(j,),
    )


@dataclass
class NeumannRecord:
    """Ground-state level of the enlarged-well problem with natural BC;
    stop_reason is "converged" or "iteration cap"."""

    c_lambda: float
    iterations: int
    converged: bool
    stop_reason: str
    residual: float
    nehari_gap: float


def solve_neumann_well(
    lam: float, j: int, grid: Grid, potential: PotentialSpec, config: SolverConfig
) -> NeumannRecord:
    """Ground-state level c_{lambda,j} of the enlarged-well problem
    -lap u + lambda V u = u log u^2 with zero normal derivative.

    The projected flow of the Dirichlet well, on the trapezoid-weighted
    mirror-ghost discretization, from a Gausson at the well center.
    """
    prob = _LocalWell.neumann(lam, j, grid, potential)
    center = potential.geometry.enlargements[j - 1].center
    bump = np.exp(0.5 * grid.dim - 0.5 * prob.dist_sq(center))
    u, it, residuals, energies, converged = _ground_state_flow(prob, bump, config)
    return NeumannRecord(
        c_lambda=energies[-1],
        iterations=it,
        converged=converged,
        stop_reason="converged" if converged else "iteration cap",
        residual=residuals[-1],
        nehari_gap=abs(energies[-1] - 0.5 * prob.integral(u * u)),
    )
