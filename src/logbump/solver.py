"""Solvers for the well problems and the penalized problem.

Every solve is Newton's method on a symmetric Jacobian, with negative
values clipped after every step (the discrete counterpart of testing with
the negative part), and the Jacobian's negative eigenvalues counted as its
Morse index.  One driver, `_newton`, runs the iteration of every solve,
keeps its histories and ends it with a named stop reason, recorded on a
`NewtonRecord`; each problem supplies only its evaluation, with the
Jacobian's diagonal, its stencil couplings, its collapse test and its 2D
Morse count.  One linear step, `_linear_step`, solves every Newton system
from that diagonal and those couplings: in 1D by one tridiagonal LDL^T
pass, whose negative pivots count the Morse index; in 2D, where a
whole-box factor would hold (n - 2)^3 doubles, by an inexact Newton step,
diagonally preconditioned MINRES on the Jacobian applied free of storage,
stopped at a forcing term tied to the outer residual.  A linear solve that
raises ends the solve as a breakdown instead of escaping it.

The local well problems run on a box of grid nodes, each with one
operator W(B + lambda V) built once as a diagonal and stencil couplings:
unit weights and zero ghosts on the Dirichlet well's own nodes, trapezoid
weights on the enlarged well with natural boundary condition, whose half
edge weight is all that is left of its mirror ghost.  The residual, the
energy, the Nehari scale and every Newton step apply that one pair.  The
ground states are mountain-pass points, Morse index 1.  Each Newton
iterate is rescaled onto the Nehari manifold in closed form, which keeps
the iteration off u = 0.  In 2D one block LDL^T inertia count of the
local box per solve gives the Morse index.

The penalized problem on the whole box has saddle solutions, solved by
Newton's method with the same clip.  In 2D its Morse index is certified
once per solve by an inertia enclosure that factors only the enlarged
wells' node boxes.

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
    box_nodes,
    check_well_nodes,
    faces,
    potential_on_grid,
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
    """Newton settings: tol and max_iters bound every solve; the MINRES
    solve of a 2D step takes none of its own (see `_linear_step`)."""

    tol: float = 1e-6
    max_iters: int = 40000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tol: must be positive (got {self.tol!r})")
        if self.max_iters < 1:
            raise ValueError(f"max_iters: must be at least 1 (got {self.max_iters!r})")


@dataclass
class NewtonRecord:
    """Iterations, histories, stop reason and Morse index of one Newton solve.

    stop_reason names why the solve stopped: "converged", "iteration cap",
    "collapse" (the iterate, or a selected enlargement of it, lost all of
    its mass), "diverged" (the Newton residual grew DIVERGE_STEPS steps in
    a row), "breakdown" (a step's linear solve raised `SolveError`: an
    LDL^T pivot near zero, or MINRES breaking down or running out of
    iterations) or "non-finite" (the residual of a step's iterate was not
    finite).  morse_index counts the negative eigenvalues of the last
    successful Newton step's Jacobian: the negative pivots of its LDL^T in
    1D; in 2D the problem's count at that Jacobian's diagonal, the
    Schur-block inertia of a ground state's local box or for the penalized
    problem a certified inertia enclosure, nan when a Schur block is near
    singular or the enclosure's bounds disagree; nan when no step
    succeeded.  stop_detail keeps the `SolveError` message of a breakdown
    and is empty otherwise.  inner_iterations sums the MINRES iterations of
    the steps whose linear solve returned, 0 in 1D.  `_newton` fills every
    field.
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
    """A well ground state's record with its field on the whole box and the
    field's energy."""

    field: Field
    energy: float


@dataclass
class AuxiliaryRecord(NewtonRecord):
    """A penalized-problem solve at one lambda: its field on the whole box,
    the field's energy report and the wells its mass occupies."""

    lam: float
    field: Field
    report: EnergyReport
    bump_mask: tuple[int, ...]

    @property
    def energy(self) -> float:
        return self.report.total


def _finite(rhs) -> np.ndarray:
    """rhs as a float array; a non-finite entry raises SolveError."""
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise SolveError("non-finite right-hand side")
    return rhs


def conjugate_gradient(apply_a, b, x0, tol, max_iters, diag=None):
    """Preconditioned CG for an SPD operator given as a callable.

    Stops when ||r|| <= tol * ||b||.  A non-finite right-hand side raises at
    once.  A nonpositive curvature p.A p signals a non-SPD operator and
    raises, as does running out of iterations.  Returns (solution,
    iterations).

    No solve of the pipeline calls it any more; it stays because the
    benchmark's tracer (perfbench/tracer.py) binds it by name, and the
    tests use it as an independent check of SPD operators.
    """
    b = _finite(b)
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
    b = _finite(b)
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
        vals = _finite(rhs).tolist()
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
        piv = np.array(pivots)
        if not np.all(np.abs(piv) > floor):
            raise SolveError("LDL^T breakdown: pivot near zero")
        x = fwd[-1] / pivots[-1]
        out = [x]
        for pivot, m, z in zip(pivots[-2::-1], mults[::-1], fwd[-2::-1]):
            x = z / pivot - m * x
            out.append(x)
        out.reverse()
        return np.array(out), int(np.count_nonzero(piv < 0.0))


class BlockTridiagonalLDL:
    """Block LDL^T inertia of a symmetric, possibly indefinite 5-point
    matrix on an (ny, nx) array.

    `off0` couples node (i, j) to (i + 1, j) and `off1` couples it to
    (i, j + 1).  Each row's Schur complement is a dense nx x nx block.  By
    Haynsworth's inertia additivity the matrix's negative eigenvalues are
    those of the Schur blocks summed.
    """

    @staticmethod
    def negative_eigenvalues(diag, off0, off1) -> int:
        """Negative eigenvalues of the matrix, keeping only the previous
        Schur block's inverse.  A block whose Cholesky factor succeeds is
        SPD; otherwise its eigenvalues are counted, and a block within
        TridiagonalLDL.PIVOT_RTOL of singular raises SolveError, since its
        inverse would carry no digits."""
        diag = np.asarray(diag, dtype=float)
        off0 = np.asarray(off0, dtype=float)
        off1 = np.asarray(off1, dtype=float)
        ny, nx = diag.shape
        if off0.shape != (ny - 1, nx) or off1.shape != (ny, nx - 1):
            raise ValueError("off0 and off1 must couple neighbours along axes 0 and 1")
        negative = 0
        for i in range(ny):
            schur = np.diag(diag[i]) + np.diag(off1[i], 1) + np.diag(off1[i], -1)
            if i > 0:
                schur -= off0[i - 1][:, None] * inv * off0[i - 1][None, :]
            try:
                np.linalg.cholesky(schur)
            except np.linalg.LinAlgError:
                eigs = np.linalg.eigvalsh(schur)
                size = np.abs(eigs)
                if size.min() <= TridiagonalLDL.PIVOT_RTOL * size.max():
                    raise SolveError("block LDL^T breakdown: Schur block near singular")
                negative += int(np.sum(eigs < 0.0))
            inv = np.linalg.inv(schur)
        return negative


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


# Cap of the inexact Newton forcing term in `_linear_step`.
ETA_MAX = 1e-3


def _linear_step(off) -> Callable:
    """step(u, b, d, rel) -> (du, Morse index): solves J du = -b for J with
    diagonal d and stencil couplings off (see `_five_point_apply`); rel is
    the outer relative residual at u.

    In 1D one LDL^T pass solves J and counts its negative pivots, the Morse
    index.  In 2D the step is an inexact Newton step (Dembo, Eisenstat &
    Steihaug 1982): MINRES on J applied free of storage, preconditioned
    with 1 / |d|, stops at the forcing term eta = min(ETA_MAX, rel), so
    steps far from the solution are cheap and the last ones are solved to
    the outer residual's own size (Eisenstat & Walker 1996).  Its cap is
    the unknown count, MINRES's own bound in exact arithmetic.  Its Morse
    index is nan, left to `_newton`'s one count per solve, and
    step.inner_iterations sums the MINRES iterations of the steps that
    returned.
    """
    if len(off) == 1:
        def step(u, b, d, rel):
            return TridiagonalLDL.solve_once(d, off[0], -b)
    else:
        def step(u, b, d, rel):
            du, its = minres(_five_point_apply(d, off), -b, 1.0 / np.abs(d),
                             min(ETA_MAX, rel), d.size)
            step.inner_iterations += its
            return du, math.nan

    step.inner_iterations = 0
    return step


def _five_point_apply(d: np.ndarray, off) -> Callable:
    """x -> J x for the symmetric matrix J with diagonal d and stencil
    couplings off, one per axis: entry i along axis a couples node i to
    node i + 1 along a, and a scalar couples every such pair.  Ghosts
    beyond the array are zero.  The result is one buffer that every call
    reuses."""
    out = np.empty_like(d)
    tmp = np.empty_like(d)
    terms = []
    for c, (lo, hi) in zip(off, faces(d.ndim)):
        terms += [(c, out[lo], tmp[lo], hi), (c, out[hi], tmp[hi], lo)]

    def apply(x):
        np.multiply(d, x, out=out)
        for c, dst, buf, src in terms:
            dst += np.multiply(c, x[src], out=buf)
        return out

    return apply


# -- penalized problem on the box -------------------------------------------


def _morse_enclosure(d: np.ndarray, boxes, h: float) -> float:
    """Negative eigenvalues of J = -lap_h + diag(jd) on a 2D node array,
    given its diagonal d = 4/h^2 + jd, or nan when they cannot be certified.

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
        mask = np.zeros(d.shape, dtype=bool)
        mask[box] = True
        masks.append(mask)
    if _first_coupled_pair(masks) is not None:
        return math.nan
    inside = reduce(np.logical_or, masks)
    m = float(np.min(d[~inside], initial=math.inf)) - 4.0 / h**2
    if m <= 0.0:
        return math.nan
    # neighbour sums of 0/1 and small integer arrays, exact in floating point
    degree = _neighbour_sum(inside.astype(float))
    shift = _neighbour_sum(np.where(inside, 0.0, degree)) / (m * h**4)
    c = -1.0 / h**2

    def negatives(diag):
        return sum(
            BlockTridiagonalLDL.negative_eigenvalues(
                b, np.full((b.shape[0] - 1, b.shape[1]), c),
                np.full((b.shape[0], b.shape[1] - 1), c),
            )
            for b in (diag[box] for box in boxes)
        )

    try:
        low, high = negatives(d), negatives(d - shift)
    except SolveError:
        return math.nan
    return low if low == high else math.nan


def _neighbour_sum(v: np.ndarray) -> np.ndarray:
    """Sum of each node's stencil neighbours, zero beyond the array, added
    axis by axis.  On a bool array the sum is a logical or, so
    `v | _neighbour_sum(v)` is the nodes of v and their stencil
    neighbours."""
    out = np.zeros_like(v)
    for lo, hi in faces(v.ndim):
        out[hi] += v[lo]
        out[lo] += v[hi]
    return out


def _first_coupled_pair(masks) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of bool node arrays that the stencil
    couples: masks[i] grown by its stencil neighbours meets masks[j].  None
    when no pair is coupled."""
    for i, mask in enumerate(masks):
        reach = mask | _neighbour_sum(mask)
        for j in range(i + 1, len(masks)):
            if np.any(reach & masks[j]):
                return i, j
    return None


# Newton stops as "diverged" once its residual has grown this many steps in
# a row.
DIVERGE_STEPS = 4


def _newton(evaluate: Callable, off, collapsed: Callable, u: np.ndarray,
            config: SolverConfig, morse_2d: Callable):
    """Newton's method u <- max(u + du, 0) from u, the one loop of every solve.

    evaluate(u) -> (u, rel, energy, b, d) gives the iterate (a problem may
    rescale u), its relative residual, its energy, and the residual b and
    Jacobian diagonal d of the step J du = -b at u.  The step is
    `_linear_step(off)`, J's stencil couplings being off.  collapsed(u)
    tells whether a clipped iterate lost the mass the problem needs.  A
    non-finite residual at u raises `SolveError` before the first step.
    The stops are those of `NewtonRecord`: converged at rel <= tol, the
    iteration cap, collapse, diverged, breakdown when the step raises
    `SolveError`, and non-finite when a step's residual is not finite.

    The Morse index is the step's in 1D, and in 2D morse_2d(d) at the last
    successful step's diagonal, nan when that raises `SolveError`; the
    record's inner_iterations is the step's MINRES tally.  Returns
    (u, NewtonRecord): u is the collapsed iterate on a collapse, else the
    last iterate with a finite residual.
    """
    step = _linear_step(off)
    u, rel, _, b, d = evaluate(u)
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
            du, morse = step(u, b, d, rel)
        except SolveError as exc:
            stop_reason, detail = "breakdown", str(exc)
            break
        solved = d
        nxt = np.maximum(u + du, 0.0)
        if collapsed(nxt):
            u = nxt
            stop_reason = "collapse"
            break
        nxt, rel, energy, nxt_b, nxt_d = evaluate(nxt)
        if not math.isfinite(rel):
            stop_reason = "non-finite"
            break
        u, b, d = nxt, nxt_b, nxt_d
        growth = growth + 1 if residuals and rel > residuals[-1] else 0
        residuals.append(rel)
        energies.append(energy)
        if rel <= config.tol:
            stop_reason = "converged"
            break
        if growth >= DIVERGE_STEPS:
            stop_reason = "diverged"
            break
    if len(off) == 2 and solved is not None:
        try:
            morse = morse_2d(solved)
        except SolveError:
            morse = math.nan
    return u, NewtonRecord(it, residuals, energies, stop_reason, morse,
                           stop_detail=detail, inner_iterations=step.inner_iterations)


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
) -> AuxiliaryRecord:
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
    [1/T^2, 1]^l.  Each step is `_linear_step` on the Jacobian
    -lap + diag(jd), with the constant couplings -1/h^2; in 2D the Morse
    index comes from `_morse_enclosure` at the last step's Jacobian.  One
    `PenalizedFunctional.evaluate` per iterate gives the stop test's
    residual, the energy history's entry and the next step's Jacobian
    diagonal.  The record's report takes its total from the last
    entry of the energy history whenever the returned field is that
    iterate, which holds on every stop but a collapse.
    """
    if np.any(init.values < 0.0):
        raise ValueError("init must be nonnegative")
    fun = PenalizedFunctional(grid, potential, params, gamma, lam)
    hd = grid.h**grid.dim
    inner = (slice(1, -1),) * grid.dim
    gamma_masks = [fun.masks.per_enlarged[j - 1][inner] for j in fun.gamma]
    # a zero init stays at the solution u = 0; any other may not fall to it
    watch_collapse = bool(np.any(init.values != 0.0))
    stencil, c = 2.0 * grid.dim / grid.h**2, -1.0 / grid.h**2
    # the 2D apply broadcasts scalar couplings; the 1D factor takes a list
    off = (np.full(grid.n - 3, c),) if grid.dim == 1 else (c, c)

    def evaluate(u):
        energy, res, jd = fun.evaluate(u)
        return u, _relative_residual(u, res), energy, res, stencil + jd

    def collapsed(u):
        return watch_collapse and any(
            hd * float(np.sum((u * u)[mask])) <= 0.0 for mask in gamma_masks
        )

    def morse_2d(d):
        boxes = [
            tuple(slice(s.start - 1, s.stop - 1) for s in box_nodes(e, grid, False))
            for e in potential.geometry.enlargements
        ]
        return _morse_enclosure(d, boxes, grid.h)

    u, run = _newton(evaluate, off, collapsed, init.values.copy(), config, morse_2d)
    out = Field(grid, u)
    evaluated = bool(run.energies) and run.stop_reason != "collapse"
    report = fun.report(out, run.energies[-1] if evaluated else None)
    return AuxiliaryRecord(**vars(run), lam=fun.lam, field=out, report=report,
                           bump_mask=report.occupied())


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


# Points per axis of the minimax surface grid in `minimax_upper_bound`.
MINIMAX_M = 33


def minimax_upper_bound(
    lam: float,
    gamma,
    omegas: list[Field],
    big_t: float,
    grid: Grid,
    potential: PotentialSpec,
    params: PenalizationParams,
) -> float:
    """Upper bound for the multi-bump minimax level.

    Maximizes the penalized energy over the bump-superposition surface
    (s_1, ..., s_l) in [1/T^2, 1]^l, T = big_t from `choose_t`; since the
    surface is admissible the maximum dominates the minimax level up to the
    grid resolution in s.

    The energy is additive over bumps whose supports no stencil reaches
    across: the mass, f1 and g2 terms are pointwise and vanish at 0, and
    every kinetic cross term <-lap w_i, w_j> is 0.  So the maximum over the
    m^l points of the surface grid is the sum of the per-bump maxima over
    the m = MINIMAX_M points t = s T of each axis, from one energy per
    bump (`PenalizedFunctional.ray_energies`).  Bumps whose support, grown
    by one stencil cell, meets another's raise ValueError.
    """
    fun = PenalizedFunctional(grid, potential, params, gamma, lam)
    pair = _first_coupled_pair([w.values != 0.0 for w in omegas])
    if pair is not None:
        raise ValueError(
            f"bumps {pair[0] + 1} and {pair[1] + 1} are coupled by the stencil; "
            "the minimax energy is additive only over separated supports"
        )
    t = big_t * np.linspace(1.0 / (big_t * big_t), 1.0, MINIMAX_M)
    return sum(float(np.max(fun.ray_energies(w.values, t))) for w in omegas)


def lambda_sweep(
    lambdas,
    gamma,
    init: Field,
    grid: Grid,
    potential: PotentialSpec,
    params: PenalizationParams,
    config: SolverConfig,
) -> list[AuxiliaryRecord]:
    """Warm-started continuation over an ascending lambda list.

    The converged field at each lambda seeds the next solve, which keeps
    the iteration on the same multi-bump branch as the wells deepen.
    """
    lambdas = [float(x) for x in lambdas]
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be strictly ascending")
    records: list[AuxiliaryRecord] = []
    current = init
    for lam in lambdas:
        records.append(solve_auxiliary(lam, gamma, current, grid, potential, params,
                                       config))
        current = records[-1].field
    return records


# -- ground states of the local well problems --------------------------------


class _LocalWell:
    """One well's local problem on the rectangle of grid nodes in a box.

    `nodes` holds the rectangle's slices of the full grid, `w` its node
    weights and `lam_v` the potential term lambda V.  The operator
    W(B + lambda V) is built once, as its diagonal `diag` and its stencil
    couplings `off`, and `apply(x)` returns W(B + lambda V) x in one reused
    buffer (see `_five_point_apply`).  Neighbours along one axis couple by
    -1/h^2 times the weights of the other axes both ways, so the matrix is
    symmetric.  On the Dirichlet well (w = 1, V = 0) B is the stencil with
    zero ghosts beyond the rectangle's edge.  On the enlarged well with
    natural boundary condition the trapezoid weights halve the edge rows,
    which makes B the stencil whose ghost mirrors the first inner
    neighbour, and <B u, u>_w the face sum of squared differences: energies
    and the Jacobian share one discrete calculus.
    """

    def __init__(self, grid: Grid, nodes, axis_w, lam: float = 0.0,
                 potential: PotentialSpec | None = None):
        self.grid = grid
        self.nodes = nodes
        self.axis_w = axis_w
        self.w = reduce(np.multiply.outer, axis_w)
        self.mesh = grid.mesh(nodes)
        self.lam_v = 0.0
        if potential is not None:
            self.lam_v = lam * potential_on_grid(potential, grid)[nodes]
        self.diag = self.w * (2.0 * grid.dim / grid.h**2 + self.lam_v)
        self.off = _axis_couplings(axis_w, grid.h)
        self.apply = _five_point_apply(self.diag, self.off)

    @classmethod
    def dirichlet(cls, well: Box, grid: Grid) -> "_LocalWell":
        """The well's interior nodes, with zero ghosts beyond them."""
        nodes = tuple(
            slice(max(s.start, 1), min(s.stop, grid.n - 1))
            for s in box_nodes(well, grid)
        )
        return cls(grid, nodes, [np.ones(s.stop - s.start) for s in nodes])

    @classmethod
    def neumann(
        cls, lam: float, j: int, grid: Grid, potential: PotentialSpec
    ) -> "_LocalWell":
        """The closed enlarged well j, trapezoid-weighted."""
        nodes = box_nodes(potential.geometry.enlargements[j - 1], grid, strict=False)
        if any(s.stop - s.start < 3 for s in nodes):
            raise SolveError(f"enlarged well {j} too coarse for a Neumann solve")
        axis_w = [np.r_[0.5, np.ones(s.stop - s.start - 2), 0.5] for s in nodes]
        return cls(grid, nodes, axis_w, lam, potential)

    def dist_sq(self, center) -> np.ndarray:
        """Squared distance of every node of the rectangle to `center`."""
        return sum((m - c) ** 2 for m, c in zip(self.mesh, center))

    def integral(self, values: np.ndarray) -> float:
        """Weighted quadrature h^dim sum w * values."""
        return self.grid.h**self.grid.dim * float(np.sum(self.w * values))

    def nehari_project(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t u, (B + lambda V)(t u)) for the closed-form Nehari scale t,
        log t^2 = (<(B + lambda V) u, u>_w - int_w u^2 log u^2) / int_w u^2.
        The weights are powers of two, so dividing `apply` by them is exact."""
        au = self.apply(u) / self.w
        mass = self.integral(u * u)
        if mass <= 0.0:
            raise SolveError("zero mass; cannot project onto the Nehari manifold")
        logm = self.integral(_log_mass_density(u))
        log_t = (self.integral(au * u) - logm) / (2.0 * mass)
        # the energy and residual square t u and t au: keep both below 1e100
        peak = max(float(np.max(np.abs(u))), float(np.max(np.abs(au))))
        if not log_t + math.log(peak) < math.log(1e100):
            raise SolveError(f"Nehari scale e^{log_t:.4g} takes the field out "
                             "of the float range")
        t = math.exp(log_t)
        return t * u, t * au


def _ground_state_newton(prob: _LocalWell, u: np.ndarray, config: SolverConfig):
    """Nehari-projected Newton's method for a local problem from the bump u;
    returns (u, NewtonRecord) of `_newton`.

    Each step solves the weighted Jacobian system
    W(B + lambda V - log u^2 - 2) du = -W res of the residual
    res = (B + lambda V) u - u log u^2, with log u^2 taken at |u| floored
    at U_FLOOR: the problem's diagonal shifted, with its couplings.  Each
    clipped iterate is rescaled onto the Nehari manifold.  The Morse index,
    1 at a ground state, is the step's pivot count in 1D; in 2D the block
    LDL^T inertia of the last successful step's Jacobian, nan when a Schur
    block is near singular.  The weighted relative residual and the energy
    come from the iterate's one operator apply.  A collapse means that the
    clip left no mass.
    """
    def evaluate(u):
        u, au = prob.nehari_project(u)
        res = au - s_log_sq(u)
        mass = prob.integral(u * u)
        rel = math.sqrt(prob.integral(res * res) / mass)
        logm = prob.integral(_log_mass_density(u))
        d = prob.diag - prob.w * (2.0 * np.log(np.maximum(np.abs(u), U_FLOOR)) + 2.0)
        return u, rel, 0.5 * (prob.integral(au * u) + mass - logm), prob.w * res, d

    return _newton(evaluate, prob.off, lambda u: prob.integral(u * u) <= 0.0, u, config,
                   lambda d: BlockTridiagonalLDL.negative_eigenvalues(d, *prob.off))


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
    check_well_nodes(j, prob.nodes)
    sigma = min(1.0, min(well.half) / 2.0)
    bump = np.exp(-prob.dist_sq(well.center) / (2.0 * sigma * sigma))
    u, run = _ground_state_newton(prob, bump, config)

    values = np.zeros(grid.interior_shape)
    values[tuple(slice(s.start - 1, s.stop - 1) for s in prob.nodes)] = u
    return SolveRecord(
        **vars(run),
        field=Field(grid, values),
        energy=run.energies[-1] if run.energies else math.nan,
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
    trapezoid-weighted operator of `_LocalWell.neumann`, from a Gausson at
    the well center confined to the closed well, where V = 0: mass where
    lambda V is large would grow the start's Nehari scale with lambda.
    """
    prob = _LocalWell.neumann(lam, j, grid, potential)
    center = potential.geometry.enlargements[j - 1].center
    bump = np.exp(0.5 * grid.dim - 0.5 * prob.dist_sq(center)) * (prob.lam_v == 0.0)
    u, run = _ground_state_newton(prob, bump, config)
    level = run.energies[-1] if run.energies else math.nan
    return NeumannRecord(
        **vars(run),
        c_lambda=level,
        nehari_gap=abs(level - 0.5 * prob.integral(u * u)),
    )
