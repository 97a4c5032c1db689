"""Solvers for the well problems and the penalized problem.

Every solve is Newton's method on a symmetric Jacobian, with negative
values clipped after every step (the discrete counterpart of testing with
the negative part), and the Jacobian's negative eigenvalues counted as its
Morse index.  One driver, `_newton`, runs the iteration of every solve,
keeps its histories and ends it with a named stop reason, recorded on a
`NewtonRecord`; each problem supplies only its evaluation, its linear
solve and its collapse test.  A linear solve that raises ends the solve as
a breakdown instead of escaping it.

The local well problems run on a box of grid nodes and differ only in the
ghost rule beyond the box: zero on the Dirichlet well's own nodes,
mirrored on the enlarged well with natural boundary condition.  Their
ground states are mountain-pass points, Morse index 1.  Each Newton
iterate is rescaled onto the Nehari manifold in closed form, which keeps
the iteration off u = 0.  The weighted Jacobian is factored and solved in
one pass, by a tridiagonal LDL^T in 1D and a block LDL^T in 2D, and the
inertia of the factor gives the Morse index.

The penalized problem on the whole box has saddle solutions.  It is solved
by Newton's method with the same clip.  In 1D each step factors the
indefinite tridiagonal Jacobian, whose negative pivots count the Morse
index.  In 2D each step is an inexact Newton step: diagonally
preconditioned MINRES on the Jacobian applied free of storage, since a
whole-box factor would hold (n - 2)^3 doubles, stopped at a forcing term
tied to the outer residual; the Morse index of the last Jacobian is
certified once per solve by an inertia enclosure that factors only the
enlarged wells' node boxes.

Everything here is deterministic: fixed iteration order, fixed summation
order, no randomness, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
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
from logbump.penalty import U_FLOOR, PenalizationParams, s_log_sq


class SolveError(RuntimeError):
    """Raised on linear-solver breakdown or invalid solver input."""


@dataclass(frozen=True)
class SolverConfig:
    """Newton and inner linear-solve settings.

    tol and max_iters bound every solve.  cg_tol and cg_max_iters bound the
    MINRES solve inside each 2D Newton step of the penalized problem:
    cg_tol is the floor of its forcing term, the relative preconditioned
    residual it stops at (see `_minres_newton_step`), and cg_max_iters its
    iteration cap; every other linear solve is direct.  The keys keep their
    historical names.
    """

    tol: float = 1e-6
    max_iters: int = 40000
    cg_tol: float = 1e-12
    cg_max_iters: int = 20000
    bump_threshold: float = 0.01

    def __post_init__(self):
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
class NewtonRecord:
    """Iterations, histories, stop reason and Morse index of one Newton solve.

    stop_reason names why the solve stopped: "converged", "iteration cap",
    "collapse" (the iterate, or a selected enlargement of it, lost all of
    its mass), "diverged" (the Newton residual grew DIVERGE_STEPS steps in
    a row), "breakdown" (a step's linear solve raised `SolveError`: a pivot
    or Schur block near singular, or MINRES breaking down or running out of
    iterations) or "non-finite" (the residual of a step's iterate was not
    finite).  morse_index counts the negative eigenvalues of the last
    successful Newton step's Jacobian: exact pivot or Schur-block inertia
    for the ground states and the 1D penalized problem, a certified inertia
    enclosure for the 2D penalized problem, where it is nan when the
    enclosure's bounds disagree; nan when no step succeeded.  stop_detail
    keeps the `SolveError` message of a breakdown and is empty otherwise.
    inner_iterations sums the MINRES iterations of the steps whose linear
    solve returned, and is 0 where every linear solve is direct.
    """

    iterations: int
    residuals: list[float]
    energies: list[float]
    stop_reason: str
    morse_index: float
    stop_detail: str = field(default="", kw_only=True)
    inner_iterations: int = field(default=0, kw_only=True)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def stop(self) -> str:
        """The stop reason, with a breakdown's message after it."""
        if not self.stop_detail:
            return self.stop_reason
        return f"{self.stop_reason} ({self.stop_detail})"


@dataclass
class SolveRecord(NewtonRecord):
    """A Newton solve's record with its field on the whole box, the field's
    energy and the wells its mass occupies."""

    field: Field
    energy: float
    bump_mask: tuple[int, ...]


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
    A non-finite right-hand side raises at once, as does a `minv` that is
    not finite and positive, a non-finite Lanczos scalar and running out of
    iterations.  Returns (solution, iterations).

    The recurrence runs in seven vectors allocated once per call and
    updated in place.  What apply_a returns is used before apply_a is
    called again, so the callable may reuse one output buffer; b and minv
    are only read.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise SolveError("non-finite right-hand side")
    if not np.all(np.isfinite(minv)):
        raise SolveError("MINRES breakdown: non-finite preconditioner")
    if not np.all(minv > 0.0):
        raise SolveError("MINRES breakdown: preconditioner not positive")
    x = np.zeros_like(b)
    y = minv * b
    beta1 = math.sqrt(float(np.vdot(b, y)))
    if beta1 == 0.0:
        return x, 0
    # Lanczos vectors r1, r2 (unpreconditioned), y = minv * r2, and the
    # Givens rotation (cs, sn) that keeps the tridiagonal least squares
    # problem triangular; phibar is the preconditioned residual norm.  The
    # direction w is kept with its predecessor w2; once a new r2 or w is
    # built, the oldest vector's buffer is free and takes it.
    r1, r2 = np.empty_like(b), b.copy()
    v, w, w2 = np.empty_like(b), np.zeros_like(b), np.zeros_like(b)
    beta, oldb = beta1, 0.0
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    for it in range(1, max_iters + 1):
        np.divide(y, beta, out=v)
        if it > 1:
            r1 *= -(beta / oldb)
            r1 += apply_a(v)
        else:
            np.copyto(r1, apply_a(v))
        alfa = float(np.vdot(v, r1))
        r1 -= np.multiply(r2, alfa / beta, out=y)
        r1, r2 = r2, r1
        np.multiply(minv, r2, out=y)
        oldb, beta = beta, math.sqrt(float(np.vdot(r2, y)))
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        # hypot is finite only when beta and gbar are, so this checks alfa
        # and beta too
        gamma = math.hypot(gbar, beta)
        if not math.isfinite(gamma):
            raise SolveError("MINRES breakdown: non-finite Lanczos scalar")
        if gamma == 0.0:
            raise SolveError("MINRES breakdown: singular operator")
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar *= sn
        # w2 <- (v - oldeps * w2 - delta * w) / gamma, the new direction
        w2 *= -oldeps
        w2 += v
        w2 -= np.multiply(w, delta, out=v)
        w2 /= gamma
        w, w2 = w2, w
        x += np.multiply(w, phi, out=v)
        if phibar <= tol * beta1:
            return x, it
    raise SolveError(f"MINRES did not converge in {max_iters} iterations")


class TridiagonalLDL:
    """LDL^T solve of a symmetric, possibly indefinite tridiagonal matrix.

    `diag` holds the n diagonal entries and `off` the n - 1 entries coupling
    node i to node i + 1.  The recurrences run over plain Python floats,
    which at 1D grid sizes beats the per-call overhead of numpy.  Only a
    pivot within PIVOT_RTOL of the largest diagonal entry raises, and the
    negative pivots count, by Sylvester's law of inertia, the negative
    eigenvalues.
    """

    PIVOT_RTOL = 1e-12

    @staticmethod
    def solve_once(diag, off, rhs) -> tuple[np.ndarray, int]:
        """(x, negative pivots) for diag, off and rhs: the forward
        substitution of rhs runs inside the factor loop."""
        diag = np.asarray(diag, dtype=float).tolist()
        off = np.asarray(off, dtype=float).tolist()
        if len(off) != len(diag) - 1:
            raise ValueError("off must have one entry fewer than diag")
        vals = _finite_list(rhs)
        floor = TridiagonalLDL.PIVOT_RTOL * max(map(abs, diag))
        pivots, mults, fwd = [diag[0]], [], [vals[0]]
        try:
            for a, b, r in zip(diag[1:], off, vals[1:]):
                m = b / pivots[-1]
                mults.append(m)
                pivots.append(a - m * b)
                fwd.append(r - m * fwd[-1])
        except ZeroDivisionError:
            pass  # the zero pivot ends the list and fails the check below
        if not all(abs(p) > floor for p in pivots):
            raise SolveError("LDL^T breakdown: pivot near zero")
        x = fwd[-1] / pivots[-1]
        out = [x]
        for pivot, m, z in zip(pivots[-2::-1], mults[::-1], fwd[-2::-1]):
            x = z / pivot - m * x
            out.append(x)
        out.reverse()
        return np.array(out), sum(p < 0.0 for p in pivots)


def _finite_list(rhs) -> list[float]:
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise SolveError("non-finite right-hand side")
    return rhs.tolist()


class BlockTridiagonalLDL:
    """Block LDL^T of a symmetric, possibly indefinite 5-point matrix on an
    (ny, nx) array.

    `off0` couples node (i, j) to (i + 1, j) and `off1` couples it to
    (i, j + 1).  Each row's Schur complement is a dense nx x nx block.  By
    Haynsworth's inertia additivity the matrix's negative eigenvalues are
    those of the Schur blocks summed.
    """

    @staticmethod
    def negative_eigenvalues(diag, off0, off1) -> int:
        """Negative eigenvalues of the matrix; only the previous Schur
        block's inverse is kept."""
        return sum(neg for _, neg in _schur_inverses(diag, off0, off1))

    @staticmethod
    def solve_once(diag, off0, off1, rhs) -> tuple[np.ndarray, int]:
        """(x, negative eigenvalues) for the matrix and rhs: one forward and
        one back sweep over rows, the forward one inside the factor loop.
        Every Schur block's inverse is kept until the back sweep."""
        rhs = np.asarray(rhs, dtype=float)
        if not np.all(np.isfinite(rhs)):
            raise SolveError("non-finite right-hand side")
        off = np.asarray(off0, dtype=float)
        x = np.empty_like(rhs)
        invs = []
        negative = 0
        for i, (inv, neg) in enumerate(_schur_inverses(diag, off0, off1)):
            invs.append(inv)
            negative += neg
            x[i] = inv @ (rhs[i] - off[i - 1] * x[i - 1] if i else rhs[i])
        for i in range(len(x) - 2, -1, -1):
            x[i] -= invs[i] @ (off[i] * x[i + 1])
        return x, negative


def _schur_inverses(diag, off0, off1):
    """Yield (inverse, negative eigenvalues) of each row's Schur complement
    of a symmetric 5-point matrix (see `BlockTridiagonalLDL`).

    A block whose Cholesky factor succeeds is SPD; otherwise its
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


def _axis_couplings(axis_weights, h: float) -> tuple[np.ndarray, ...]:
    """Couplings -1/h^2 of -lap between neighbours along each axis, times
    the node weights of the other axes."""
    off = []
    for ax in range(len(axis_weights)):
        factors = [
            np.ones(len(w) - 1) if d == ax else w for d, w in enumerate(axis_weights)
        ]
        off.append(-1.0 / h**2 * reduce(np.multiply.outer, factors))
    return tuple(off)


# -- penalized problem on the box -------------------------------------------


def _newton_step(grid: Grid) -> Callable:
    """step(u, res, jd) -> (du, Morse index) for the penalized problem in 1D.

    Solves J du = -res with the tridiagonal Jacobian J = -lap + diag(jd)
    at u (jd from `PenalizedFunctional.evaluate`), factored and substituted
    in one pass, and returns du with the number of negative pivots of J,
    its count of negative eigenvalues.
    """
    off = np.full(grid.n - 3, -1.0 / grid.h**2)
    stencil = 2.0 / grid.h**2

    def step(u, res, jd):
        return TridiagonalLDL.solve_once(stencil + jd, off, -res)

    return step


# Cap of the inexact Newton forcing term in `_minres_newton_step`.
ETA_MAX = 1e-3


def _minres_newton_step(grid: Grid, config: SolverConfig) -> Callable:
    """step(u, res, jd) -> (du, nan) for the penalized problem in 2D.

    Solves J du = -res for the Jacobian J = -lap_h + diag(jd) at u (jd from
    `PenalizedFunctional.evaluate`) inexactly, by MINRES preconditioned
    with 1 / |d| for the diagonal d = 4/h^2 + jd of J.  The step is an
    inexact Newton step (Dembo, Eisenstat & Steihaug 1982): MINRES stops
    at the forcing term eta = max(cg_tol, min(ETA_MAX, rel)), with rel the
    outer relative residual at u, so steps far from the solution are cheap
    and the last ones are solved to the outer residual's own size
    (Eisenstat & Walker 1996).  J is applied free of storage by
    `_five_point_apply`: a whole-box block factor would hold (n - 2)^3
    doubles, 15.6 MB at n = 127.  The Morse index is left to
    `_morse_enclosure`, once per solve.  step.inner_iterations sums the
    MINRES iterations of the steps that returned.
    """
    stencil = 2.0 * grid.dim / grid.h**2

    def step(u, res, jd):
        d = stencil + jd
        eta = max(config.cg_tol, min(ETA_MAX, _relative_residual(u, res)))
        du, its = minres(_five_point_apply(d, grid.h), -res, 1.0 / np.abs(d), eta,
                         config.cg_max_iters)
        step.inner_iterations += its
        return du, math.nan

    step.inner_iterations = 0
    return step


def _five_point_apply(d: np.ndarray, h: float) -> Callable:
    """x -> d * x - (neighbour sum of x) / h^2, the 5-point matrix with
    diagonal d and zero ghosts, returned in one buffer that every call
    reuses."""
    c = 1.0 / h**2
    out = np.empty_like(d)
    nb = np.empty_like(d)

    def apply(x):
        np.multiply(_neighbour_sum(x, nb), c, out=nb)
        return np.subtract(np.multiply(d, x, out=out), nb, out=out)

    return apply


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


def _neighbour_sum(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of each node's stencil neighbours, zero beyond the array, added
    axis by axis into `out` (a new array when None)."""
    out = np.empty_like(v) if out is None else out
    out[:-1] = v[1:]
    out[-1] = 0.0
    out[1:] += v[:-1]
    for ax in range(1, v.ndim):
        lead = (slice(None),) * ax
        out[lead + (slice(1, None),)] += v[lead + (slice(None, -1),)]
        out[lead + (slice(None, -1),)] += v[lead + (slice(1, None),)]
    return out


# Newton stops as "diverged" once its residual has grown this many steps in
# a row.
DIVERGE_STEPS = 4


def _newton(evaluate: Callable, solve: Callable, collapsed: Callable,
            u: np.ndarray, config: SolverConfig):
    """Newton's method u <- max(u + du, 0) from u, the one loop of every solve.

    evaluate(u) -> (u, rel, energy, args) gives the iterate (a problem may
    rescale u), its relative residual, its energy and the arguments of
    solve(u, *args) -> (du, Morse index of the Jacobian at u).
    collapsed(u) tells whether a clipped iterate lost the mass the problem
    needs.  A non-finite residual at u raises `SolveError` before the first
    step.  The stops are those of `NewtonRecord`: converged at rel <= tol,
    the iteration cap, collapse, diverged, breakdown when solve raises
    `SolveError`, and non-finite when a step's residual is not finite.

    Returns (u, args of the last successful step or None, NewtonRecord).
    u is the collapsed iterate on a collapse, else the last iterate with a
    finite residual.
    """
    u, rel, _, args = evaluate(u)
    if not math.isfinite(rel):
        raise SolveError("non-finite residual at the initial iterate")
    residuals: list[float] = []
    energies: list[float] = []
    stop_reason, detail = "iteration cap", ""
    morse = math.nan
    solved = None
    growth = 0
    it = 0
    for it in range(1, config.max_iters + 1):
        try:
            du, morse = solve(u, *args)
        except SolveError as exc:
            stop_reason, detail = "breakdown", str(exc)
            break
        solved = args
        nxt = np.maximum(u + du, 0.0)
        if collapsed(nxt):
            u = nxt
            stop_reason = "collapse"
            break
        nxt, rel, energy, nxt_args = evaluate(nxt)
        if not math.isfinite(rel):
            stop_reason = "non-finite"
            break
        u, args = nxt, nxt_args
        growth = growth + 1 if residuals and rel > residuals[-1] else 0
        residuals.append(rel)
        energies.append(energy)
        if rel <= config.tol:
            stop_reason = "converged"
            break
        if growth >= DIVERGE_STEPS:
            stop_reason = "diverged"
            break
    return u, solved, NewtonRecord(it, residuals, energies, stop_reason, morse,
                                   stop_detail=detail)


def _relative_residual(u: np.ndarray, res: np.ndarray) -> float:
    """||res|| / ||u|| in the discrete l2 norm, the penalized problem's
    stop test and forcing term."""
    unorm = math.sqrt(float(np.sum(u * u)))
    return math.sqrt(float(np.sum(res * res))) / max(unorm, 1e-300)


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
    `_newton` until the relative L2 residual drops below tol.
    Non-convergence is flagged on the record with its stop reason, never
    papered over: a selected enlargement that loses all of its mass from a
    nonzero init stops the solve as a collapse.  A non-finite init raises
    `SolveError`.

    Multi-bump states are saddle points: the energy tends to minus infinity
    along each bump's amplitude.  Newton's method converges to them
    directly, and the negative eigenvalues of its last Jacobian give the
    Morse index, which is |gamma| on an l-bump saddle of the minimax over
    [1/T^2, 1]^l.  In 1D (`_newton_step`) each step factors the tridiagonal
    Jacobian and counts its negative pivots.  In 2D
    (`_minres_newton_step`) each step runs MINRES to a forcing term tied
    to the residual, the count of its iterations goes to inner_iterations,
    and the Morse index comes from `_morse_enclosure` at the last step's
    Jacobian.  One
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
    # a zero init stays at the solution u = 0; any other may not fall to it
    watch_collapse = bool(np.any(init.values != 0.0))

    def evaluate(u):
        energy, res, jd = fun.evaluate(u)
        return u, _relative_residual(u, res), energy, (res, jd)

    def collapsed(u):
        return watch_collapse and any(
            hd * float(np.sum((u * u)[mask])) <= 0.0 for mask in gamma_masks
        )

    step = _newton_step(grid) if grid.dim == 1 else _minres_newton_step(grid, config)
    u, solved, run = _newton(evaluate, step, collapsed, init.values.copy(), config)
    if grid.dim == 2:
        run.inner_iterations = step.inner_iterations
    if grid.dim == 2 and solved is not None:
        boxes = [
            tuple(slice(s.start - 1, s.stop - 1) for s in box_nodes(e, grid, False))
            for e in potential.geometry.enlargements
        ]
        run.morse_index = _morse_enclosure(solved[1], boxes, grid.h)
    out = Field(grid, u)
    return SolveRecord(
        **vars(run),
        field=out,
        energy=run.energies[-1] if run.energies else fun.phi_total(u),
        bump_mask=classify_bumps(out, potential.geometry, config.bump_threshold),
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
    differences, so energies and the Jacobian share one discrete calculus.
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
            raise SolveError("zero mass; cannot project onto the Nehari manifold")
        logm = self.integral(_log_mass_density(u))
        t = math.exp((self.integral(au * u) - logm) / (2.0 * mass))
        return t * u, t * au


def _local_operator(prob: _LocalWell):
    """(diag, off) of W(B + lambda V) on the local problem's rectangle: its
    diagonal and its stencil couplings, one array per axis (entry i along
    axis a couples node i to node i + 1 along a).

    Neighbours along one axis couple by -1/h^2 times the weights of the
    other axes both ways: on the mirror rows the half trapezoid weight
    halves the doubled ghost coupling, so the matrix is symmetric.
    """
    diag = prob.w * (2.0 * prob.grid.dim / prob.grid.h**2 + prob.lam_v)
    return diag, _axis_couplings(prob.axis_w, prob.grid.h)


def _ground_state_newton(prob: _LocalWell, u: np.ndarray, config: SolverConfig):
    """Nehari-projected Newton's method for a local problem from the bump u;
    returns (u, NewtonRecord) of `_newton`.

    Each step solves the weighted Jacobian system
    W(B + lambda V - log u^2 - 2) du = -W res of the residual
    res = (B + lambda V) u - u log u^2, with log u^2 taken at |u| floored
    at U_FLOOR, and each clipped iterate is rescaled onto the Nehari
    manifold.  One factor pass solves the system and counts its negative
    eigenvalues, the Morse index, which is 1 at a ground state.  The
    weighted relative residual and the energy come from the iterate's one
    stencil apply.  A collapse means that the clip left no mass.
    """
    base, off = _local_operator(prob)
    factor = TridiagonalLDL if prob.grid.dim == 1 else BlockTridiagonalLDL

    def evaluate(u):
        u, au = prob.nehari_project(u)
        res = au - s_log_sq(u)
        mass = prob.integral(u * u)
        rel = math.sqrt(prob.integral(res * res) / mass)
        logm = prob.integral(_log_mass_density(u))
        return u, rel, 0.5 * (prob.integral(au * u) + mass - logm), (res,)

    def solve(u, res):
        jac = base - prob.w * (2.0 * np.log(np.maximum(np.abs(u), U_FLOOR)) + 2.0)
        return factor.solve_once(jac, *off, -prob.w * res)

    u, _, run = _newton(evaluate, solve, lambda u: prob.integral(u * u) <= 0.0, u,
                        config)
    return u, run


def solve_single_well(
    geometry: WellGeometry, j: int, grid: Grid, config: SolverConfig
) -> SolveRecord:
    """Positive ground state of -lap u = u log u^2 on well j (Dirichlet).

    Runs the projected Newton iteration on the well's nodes from a positive
    Gaussian bump at its center; the PDE residual is measured inside the
    well in relative L2.  The field is zero off the well, and the energy
    nan when the solve stopped before its first residual.
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
    u, run = _ground_state_newton(prob, bump, config)

    values = np.zeros(grid.interior_shape)
    values[tuple(slice(s.start - 1, s.stop - 1) for s in prob.nodes)] = u
    return SolveRecord(
        **vars(run),
        field=Field(grid, values),
        energy=run.energies[-1] if run.energies else math.nan,
        bump_mask=(j,),
    )


@dataclass
class NeumannRecord(NewtonRecord):
    """Ground-state level of the enlarged-well problem with natural BC;
    c_lambda and nehari_gap are nan when the solve stopped before its first
    residual."""

    c_lambda: float
    nehari_gap: float


def solve_neumann_well(
    lam: float, j: int, grid: Grid, potential: PotentialSpec, config: SolverConfig
) -> NeumannRecord:
    """Ground-state level c_{lambda,j} of the enlarged-well problem
    -lap u + lambda V u = u log u^2 with zero normal derivative.

    The projected Newton iteration of the Dirichlet well, on the
    trapezoid-weighted mirror-ghost discretization, from a Gausson at the
    well center.
    """
    prob = _LocalWell.neumann(lam, j, grid, potential)
    center = potential.geometry.enlargements[j - 1].center
    bump = np.exp(0.5 * grid.dim - 0.5 * prob.dist_sq(center))
    u, run = _ground_state_newton(prob, bump, config)
    level = run.energies[-1] if run.energies else math.nan
    return NeumannRecord(
        **vars(run),
        c_lambda=level,
        nehari_gap=abs(level - 0.5 * prob.integral(u * u)),
    )
