"""Solvers for the well problems and the penalized problem.

The ground-state flows use one semi-implicit splitting: the stiff linear
part (-lap + diagonal mass) is treated implicitly, so the deepening
parameter lambda never forces a smaller step, while the logarithmic
nonlinearity is explicit.  Negative values are clipped after every step
(the discrete counterpart of testing with the negative part).  The
implicit matrix stays fixed over a solve, so it is factored once before
the flow loop (tridiagonal LDL^T in 1D, block LDL^T in 2D) and every step
is a direct solve.

The ground-state flow runs on a local box of grid nodes and rescales onto
the Nehari manifold after every step, which pins the amplitude and turns
the flow into a minimization over the manifold.  Its local problems differ
only in the ghost rule beyond the box: zero on the Dirichlet well's own
nodes, mirrored on the enlarged well with natural boundary condition.

The penalized problem on the whole box has saddle solutions.  It is solved
by Newton's method with the same clip.  In 1D each step factors the
indefinite tridiagonal Jacobian, whose negative pivots count the Morse
index.  In 2D each step runs diagonally preconditioned MINRES on the
Jacobian applied free of storage, since a whole-box factor would hold
(n - 2)^3 doubles; the Morse index of the last Jacobian is certified once
per solve by an inertia enclosure that factors only the enlarged wells'
node boxes.

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
    neg_laplacian_values,
)
from logbump.functional import (
    EnergyReport,
    PenalizedFunctional,
    _log_mass_density,
    nehari_check,
)
from logbump.penalty import PenalizationParams, s_log_sq


class SolveError(RuntimeError):
    """Raised on linear-solver breakdown or invalid solver input."""


@dataclass(frozen=True)
class SolverConfig:
    """Flow, Newton and inner linear-solve settings.

    tau is the step of the ground-state flows only; the auxiliary solve is
    Newton's method and does not use it.  tol and max_iters bound every
    solve.  cg_tol and cg_max_iters bound the MINRES solve inside each 2D
    Newton step (relative preconditioned residual, iteration cap); every
    other linear solve is direct.  The keys keep their historical names.
    """

    tau: float = 0.05
    tol: float = 1e-6
    max_iters: int = 40000
    cg_tol: float = 1e-12
    cg_max_iters: int = 20000
    bump_threshold: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.tau <= 0.5:
            raise ValueError(f"tau: must lie in (0, 0.5] for a descending flow "
                             f"(got {self.tau!r})")
        if self.tol <= 0:
            raise ValueError(f"tol: must be positive (got {self.tol!r})")
        if self.max_iters < 1:
            raise ValueError(f"max_iters: must be at least 1 (got {self.max_iters!r})")
        if self.cg_tol <= 0:
            raise ValueError(f"cg_tol: must be positive (got {self.cg_tol!r})")
        if self.cg_max_iters < 1:
            raise ValueError(f"cg_max_iters: must be at least 1 "
                             f"(got {self.cg_max_iters!r})")
        if not 0.0 < self.bump_threshold < 1.0:
            raise ValueError(f"bump_threshold: must lie in (0, 1) "
                             f"(got {self.bump_threshold!r})")


@dataclass
class SolveRecord:
    """Outcome of one flow or Newton solve.

    stop_reason names why the solve stopped: "converged", "iteration cap",
    "collapse" (a selected enlargement lost all of its mass) or "diverged"
    (the Newton residual grew DIVERGE_STEPS steps in a row).  morse_index
    counts the negative eigenvalues of the last Newton step's Jacobian:
    exact negative pivots in 1D, a certified inertia enclosure in 2D, where
    it is nan when the enclosure's bounds disagree.  It is nan for the
    ground-state flows, which have no Jacobian.
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
            raise ValueError(f"big_t: the scale factor must exceed 1 "
                             f"(got {self.big_t!r})")
        if self.m < 8:
            raise ValueError(f"m: the path grid needs at least 8 points per axis "
                             f"(got {self.m!r})")


def conjugate_gradient(apply_a, b, x0, tol, max_iters, diag=None):
    """Preconditioned CG for an SPD operator given as a callable.

    Stops when ||r|| <= tol * ||b||.  A non-finite right-hand side raises at
    once.  A nonpositive curvature p.A p signals a non-SPD operator and
    raises, as does running out of iterations.  Returns (solution,
    iterations).

    No solve of the pipeline calls it any more; it stays because the
    benchmark's tracer (perfbench/tracer.py) binds it by name, and the
    tests use it as an independent check of the factored operators.
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


def minres(apply_a, b, minv, tol, max_iters):
    """Preconditioned MINRES (Paige & Saunders 1975) from x0 = 0.

    Solves A x = b for a symmetric, possibly indefinite operator given as
    a callable.  `minv` holds the positive diagonal of the inverse of an
    SPD preconditioner M.  Each iteration minimizes the preconditioned
    residual ||b - A x||_{M^-1} over the Krylov space, and the solve stops
    when that norm is at most tol times its initial value sqrt(b . minv b).
    A non-finite right-hand side raises at once, as does running out of
    iterations.  Returns (solution, iterations).
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise SolveError("non-finite right-hand side")
    x = np.zeros_like(b)
    y = minv * b
    beta1 = math.sqrt(float(np.vdot(b, y)))
    if beta1 == 0.0:
        return x, 0
    # Lanczos vectors r1, r2 (unpreconditioned), y = minv * r2, and the
    # Givens rotation (cs, sn) that keeps the tridiagonal least squares
    # problem triangular; phibar is the preconditioned residual norm.
    r1 = r2 = b
    beta, oldb = beta1, 0.0
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = w2 = np.zeros_like(b)
    for it in range(1, max_iters + 1):
        v = y / beta
        y = apply_a(v)
        if it > 1:
            y = y - (beta / oldb) * r1
        alfa = float(np.vdot(v, y))
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = minv * r2
        oldb, beta = beta, math.sqrt(float(np.vdot(r2, y)))
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        if gamma == 0.0:
            raise SolveError("MINRES breakdown: singular operator")
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar *= sn
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w
        if phibar <= tol * beta1:
            return x, it
    raise SolveError(f"MINRES did not converge in {max_iters} iterations")


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
    `negative_eigenvalues` takes an indefinite matrix and only counts.
    """

    def __init__(self, diag, off0, off1):
        self._off = np.asarray(off0, dtype=float)
        ny, nx = np.shape(diag)
        self._inv = np.empty((ny, nx, nx))
        for i, (inv, _) in enumerate(_schur_inverses(diag, off0, off1, True)):
            self._inv[i] = inv

    @classmethod
    def negative_eigenvalues(cls, diag, off0, off1) -> int:
        """Negative eigenvalues of an indefinite 5-point matrix.

        By Haynsworth's inertia additivity they are the negative
        eigenvalues of the Schur blocks summed.  A block whose Cholesky
        factor fails gets `eigvalsh`, and one within
        TridiagonalLDL.PIVOT_RTOL of singular raises; only the previous
        block's inverse is kept.
        """
        return sum(neg for _, neg in _schur_inverses(diag, off0, off1, False))

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


def _schur_inverses(diag, off0, off1, spd: bool):
    """Yield (inverse, negative eigenvalues) of each row's Schur complement
    of a symmetric 5-point matrix (see `BlockTridiagonalLDL`).

    A block whose Cholesky factor fails raises when `spd`; otherwise its
    eigenvalues are counted, and a block within TridiagonalLDL.PIVOT_RTOL
    of singular raises, since its inverse would carry no digits.
    """
    diag = np.asarray(diag, dtype=float)
    off0 = np.asarray(off0, dtype=float)
    off1 = np.asarray(off1, dtype=float)
    ny, nx = diag.shape
    if off0.shape != (ny - 1, nx) or off1.shape != (ny, nx - 1):
        raise ValueError("off0 and off1 must couple neighbours along axes 0 and 1")
    inv = None
    for i in range(ny):
        schur = np.diag(diag[i]) + np.diag(off1[i], 1) + np.diag(off1[i], -1)
        if i > 0:
            schur -= off0[i - 1][:, None] * inv * off0[i - 1][None, :]
        negative = 0
        try:
            np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            if spd:
                raise SolveError("block LDL^T breakdown: operator not SPD") from None
            eigs = np.linalg.eigvalsh(schur)
            size = np.abs(eigs)
            if size.min() <= TridiagonalLDL.PIVOT_RTOL * size.max():
                raise SolveError("block LDL^T breakdown: Schur block near singular")
            negative = int(np.sum(eigs < 0.0))
        inv = np.linalg.inv(schur)
        yield inv, negative


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


def _newton_step(grid: Grid) -> Callable:
    """step(u, res, jd) -> (u', Morse index) for the penalized problem in 1D.

    Solves J du = -res with the tridiagonal Jacobian J = -lap + diag(jd)
    at u (jd from `PenalizedFunctional.evaluate`), factored and substituted
    in one pass, and returns max(u + du, 0) with the number of negative
    pivots of J, its count of negative eigenvalues.
    """
    off = np.full(grid.n - 3, -1.0 / grid.h**2)
    stencil = 2.0 / grid.h**2

    def step(u, res, jd):
        du, negative = TridiagonalLDL.solve_once(stencil + jd, off, -res)
        return np.maximum(u + du, 0.0), negative

    return step


def _minres_newton_step(grid: Grid, config: SolverConfig) -> Callable:
    """step(u, res, jd) -> (u', nan) for the penalized problem in 2D.

    Solves J du = -res for the Jacobian J = -lap_h + diag(jd) at u (jd from
    `PenalizedFunctional.evaluate`) by MINRES preconditioned with
    1 / |4/h^2 + jd|, and returns max(u + du, 0).  J is applied free of
    storage: a whole-box block factor would hold (n - 2)^3 doubles,
    15.6 MB at n = 127.  The Morse index is left to `_morse_enclosure`,
    once per solve.
    """
    h = grid.h
    stencil = 2.0 * grid.dim / h**2

    def step(u, res, jd):
        du, _ = minres(
            lambda x: neg_laplacian_values(x, h) + jd * x,
            -res,
            1.0 / np.abs(stencil + jd),
            config.cg_tol,
            config.cg_max_iters,
        )
        return np.maximum(u + du, 0.0), math.nan

    return step


def _morse_enclosure(jd: np.ndarray, boxes, h: float) -> float:
    """Negative eigenvalues of J = -lap_h + diag(jd) on a 2D node array,
    or nan when they cannot be certified.

    E is the union of the node `boxes` and O the other nodes.  With
    m = min jd over O > 0, J_OO >= m I is SPD, and Haynsworth's inertia
    additivity gives neg(J) = neg(S) for the Schur complement
    S = J_EE - J_EO J_OO^-1 J_OE.  Since 0 <= J_OO^-1 <= I/m,

        neg(J_EE) <= neg(J) <= neg(J_EE - R / (m h^4)),

    where R is the diagonal Gershgorin bound of h^4 J_EO J_OE: per E node,
    the sum over its O neighbours of their numbers of E neighbours.  J_EE
    is block diagonal over boxes that no stencil couples, so both bounds
    are block LDL^T inertias of single boxes.  The count is returned when
    the bounds agree; nan when they differ, when m <= 0, when two boxes
    are stencil-coupled or when a Schur block is near singular.
    """
    masks = []
    for box in boxes:
        mask = np.zeros(jd.shape, dtype=bool)
        mask[box] = True
        masks.append(mask)
    for i, reach in enumerate(_stencil_reach(mask) for mask in masks):
        if any(np.any(reach & other) for other in masks[i + 1:]):
            return math.nan
    inside = reduce(np.logical_or, masks)
    m = float(np.min(jd[~inside], initial=math.inf))
    if m <= 0.0:
        return math.nan
    # neighbour sums of 0/1 and small integer arrays, exact in floating point
    degree = _neighbour_sum(inside.astype(float))
    shift = _neighbour_sum(np.where(inside, 0.0, degree)) / (m * h**4)
    diag = 2.0 * jd.ndim / h**2 + jd
    c = -1.0 / h**2

    def negatives(diag):
        return sum(
            BlockTridiagonalLDL.negative_eigenvalues(
                d, np.full((d.shape[0] - 1, d.shape[1]), c),
                np.full((d.shape[0], d.shape[1] - 1), c),
            )
            for d in (diag[box] for box in boxes)
        )

    try:
        low, high = negatives(diag), negatives(diag - shift)
    except SolveError:
        return math.nan
    return low if low == high else math.nan


def _neighbour_sum(v: np.ndarray) -> np.ndarray:
    """Sum of each node's stencil neighbours, zero beyond the array."""
    return 2.0 * v.ndim * v - neg_laplacian_values(v, 1.0)


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

    Solves -lap u + (lambda V + 1) u + f1'(u) - g2'(x, u+) = 0 from init by
    Newton's method, u <- max(u + du, 0), until the relative L2 residual
    drops below tol.  Non-convergence is flagged on the record with its
    stop reason, never papered over: a selected enlargement that loses all
    of its mass from a nonzero init stops the solve as a collapse, and a
    residual that grows DIVERGE_STEPS steps in a row as diverged.

    Multi-bump states are saddle points: the energy tends to minus infinity
    along each bump's amplitude.  Newton's method converges to them
    directly, and the negative eigenvalues of its last Jacobian give the
    Morse index, which is |gamma| on an l-bump saddle of the minimax over
    [1/T^2, 1]^l.  In 1D (`_newton_step`) each step factors the tridiagonal
    Jacobian and counts its negative pivots.  In 2D
    (`_minres_newton_step`) each step runs MINRES, and the count comes
    from `_morse_enclosure` at the last Jacobian.  One
    `PenalizedFunctional.evaluate` per iterate gives the stop test's
    residual, the energy history's entry and the next step's Jacobian
    diagonal.
    """
    if np.any(init.values < 0.0):
        raise ValueError("init must be nonnegative")
    fun = PenalizedFunctional(grid, potential, params, gamma, lam)
    hd = grid.h**grid.dim
    inner = (slice(1, -1),) * grid.dim
    gamma_masks = [fun.masks.per_enlarged[j - 1][inner] for j in fun.gamma]
    if grid.dim == 1:
        step = _newton_step(grid)
    else:
        step = _minres_newton_step(grid, config)
    # a zero init stays at the solution u = 0; any other may not fall to it
    watch_collapse = bool(np.any(init.values != 0.0))

    u = init.values.copy()
    _, res, jd = fun.evaluate(u)
    residuals: list[float] = []
    energies: list[float] = []
    stop_reason = "iteration cap"
    morse = math.nan
    growth = 0
    it = 0
    for it in range(1, config.max_iters + 1):
        step_jd = jd
        u, morse = step(u, res, jd)
        if watch_collapse and any(
            hd * float(np.sum((u * u)[mask])) <= 0.0 for mask in gamma_masks
        ):
            stop_reason = "collapse"
            break

        energy, res, jd = fun.evaluate(u)
        unorm = math.sqrt(float(np.sum(u * u)))
        rel = math.sqrt(float(np.sum(res * res))) / max(unorm, 1e-300)
        growth = growth + 1 if residuals and rel > residuals[-1] else 0
        residuals.append(rel)
        energies.append(energy)
        if rel <= config.tol:
            stop_reason = "converged"
            break
        if growth >= DIVERGE_STEPS:
            stop_reason = "diverged"
            break

    if grid.dim == 2:
        boxes = [
            tuple(slice(s.start - 1, s.stop - 1) for s in box_nodes(e, grid, False))
            for e in potential.geometry.enlargements
        ]
        morse = _morse_enclosure(step_jd, boxes, grid.h)
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


def choose_t(omegas: list[Field]) -> float:
    """Smallest power-of-two scale T >= 2 with the ray sign conditions
    I'((1/T) w)((1/T) w) > 0 and I'(T w)(T w) < 0 for every bump w.

    For bumps exactly on the Nehari manifold any T > 1 works, so exact
    inputs return 2; the search only guards numerical slack.  Each bump's
    integrals are taken once; the ray values follow in closed form.
    """
    checks = [nehari_check(w, np.ones(w.grid.full_shape, dtype=bool)) for w in omegas]
    for exp in range(1, 11):
        big_t = float(2**exp)
        if all(
            c.ray_constraint(1.0 / big_t) > 0.0 and c.ray_constraint(big_t) < 0.0
            for c in checks
        ):
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
    report: EnergyReport


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


def _local_operator(prob: _LocalWell, tau: float):
    """(diag, off) of W(I + tau(B + lambda V + 1)) on the local problem's
    rectangle: its diagonal and its stencil couplings, one array per axis
    (entry i along axis a couples node i to node i + 1 along a).

    Neighbours along one axis couple by -tau/h^2 times the weights of the
    other axes both ways: on the mirror rows the half trapezoid weight
    halves the doubled ghost coupling, so the matrix is symmetric.
    """
    dv = prob.lam_v + 1.0
    diag = prob.w * (1.0 + tau * (2.0 * prob.grid.dim / prob.grid.h**2 + dv))
    return diag, _axis_couplings(prob.axis_w, tau, prob.grid.h)


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
    diag, off = _local_operator(prob, tau)
    factor_type = TridiagonalLDL if prob.grid.dim == 1 else BlockTridiagonalLDL
    factor = factor_type(diag, *off)
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
