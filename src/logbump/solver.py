"""Solvers for the well problems and the penalized problem.

Every solve is Newton's method on a symmetric Jacobian, with negative
values clipped after every step (the discrete counterpart of testing with
the negative part), and the negative eigenvalues of the Jacobian at the
returned field counted as its Morse index.  One driver, `_newton`, runs
the iteration of every solve, keeps its histories, ends it with a named
stop reason and counts its Morse index once, recorded on a `NewtonRecord`;
each problem supplies only its evaluation, with the Jacobian's diagonal,
its operator, built once as a diagonal and stencil couplings with their
`domain.five_point_apply`, its collapse test and its inertia count.  One
linear step, `_linear_step`, solves every Newton system from that
diagonal and that operator and returns only the step: in 1D by one
tridiagonal LDL^T pass; in 2D, where a whole-box factor would hold
(n - 2)^3 doubles, by an inexact Newton step, diagonally preconditioned
MINRES on the Jacobian applied free of storage, stopped at a forcing term
tied to the outer residual and floored by the solve's tolerance, so no
step is solved further than the stop test needs.  A `SolveError` ends the
solve as a breakdown instead of escaping it.

The local well problems run on a box of grid nodes, each with one
operator W(B + lambda V) built once as a diagonal and stencil couplings:
unit weights and zero ghosts on the Dirichlet well's own nodes, trapezoid
weights on the enlarged well with natural boundary condition, whose half
edge weight is all that is left of its mirror ghost.  The residual, the
energy, the Nehari scale and every Newton step apply that one pair.  The
ground states are mountain-pass points, Morse index 1.  Each Newton
iterate is rescaled onto the Nehari manifold in closed form, which keeps
the iteration off u = 0.  One LDL^T inertia count of the local box per
solve gives the Morse index: tridiagonal in 1D, block tridiagonal in 2D.

The penalized problem on the whole box has saddle solutions, solved by
Newton's method with the same clip.  Its Morse index is the tridiagonal
count in 1D; in 2D it is certified by an inertia enclosure that factors
only the enlarged wells' node boxes: once each for the upper bound, and
again for the lower bound only where the returned field's own negative
curvature on the box does not settle it.

Everything here is deterministic: fixed iteration order, fixed summation
order, no randomness, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from logbump.domain import (
    Box,
    Field,
    Grid,
    PotentialSpec,
    WellGeometry,
    box_nodes,
    check_well_nodes,
    five_point_apply,
    potential_on_grid,
)
from logbump.functional import EnergyReport, PenalizedFunctional
from logbump.penalty import U_FLOOR, PenalizationParams, s_log_sq, sq_log_sq


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
    a row), "breakdown" (`SolveError` from a step's linear solve, as at an
    LDL^T pivot near zero, or from the problem's evaluation) or
    "non-finite" (the residual of the start or of a step's iterate was not
    finite).  morse_index counts the negative eigenvalues of the Jacobian
    at the returned field (on a collapse, at the last evaluated iterate),
    by the problem's inertia count: the LDL^T pivots of a 1D Jacobian, the
    Schur-block inertia of a 2D ground state's local box, a certified
    inertia enclosure for the 2D penalized problem, whose lower bound on a
    box with one negative eigenvalue in its upper bound may come from the
    returned field's negative curvature there instead of a second count.
    It is nan when no step returned, when the count raises `SolveError` (a
    pivot or Schur block near singular, a non-finite entry) and when the
    enclosure's bounds disagree.
    stop_detail keeps the `SolveError` message of a breakdown and is empty
    otherwise.  inner_iterations sums the MINRES iterations of the steps
    whose linear solve returned, each stopped at `_linear_step`'s forcing
    term, 0 in 1D.  energy is the energy history's last entry, a level c_j
    or c_{lambda,j}, nan when it is empty.  A solve stopped at its start
    has 0 iterations.
    """

    iterations: int
    residuals: list[float]
    energies: list[float]
    stop_reason: str
    morse_index: float
    stop_detail: str
    inner_iterations: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def energy(self) -> float:
        return self.energies[-1] if self.energies else math.nan

    @property
    def stop(self) -> str:
        """The stop reason, with a breakdown's message after it."""
        if not self.stop_detail:
            return self.stop_reason
        return f"{self.stop_reason} ({self.stop_detail})"


@dataclass
class LevelRecord(NewtonRecord):
    """A local solve's record, a well ground state or an enlarged-well
    level, with its field on the solve's node box: `values` at the
    full-grid nodes `nodes` (`_LocalWell.nodes`) of `grid`."""

    grid: Grid
    nodes: tuple[slice, ...]
    values: np.ndarray

    @property
    def field(self) -> Field:
        """The field on the whole box, zero off the node box."""
        return superpose([self], self.grid)


@dataclass
class AuxiliaryRecord(NewtonRecord):
    """A penalized-problem solve at one lambda: its field on the whole box
    and the field's energy report.  energy is the report's total, which on
    a collapse is the collapsed field's, not the history's last entry."""

    lam: float
    field: Field
    report: EnergyReport

    @property
    def energy(self) -> float:
        return self.report.total

    @property
    def bump_mask(self) -> tuple[int, ...]:
        """The wells the field's mass occupies."""
        return self.report.occupied()


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
    """LDL^T of a symmetric, possibly indefinite tridiagonal matrix: a solve,
    and a count-only pass for its inertia.

    `diag` holds the n diagonal entries and `off` the n - 1 entries coupling
    node i to node i + 1, or one scalar coupling every such pair.  The
    recurrences run over plain Python floats, which at 1D grid sizes beats
    the per-call overhead of numpy.  Both raise `SolveError` on a
    non-finite entry and on a pivot within PIVOT_RTOL of the largest
    diagonal entry, and the negative pivots count, by Sylvester's law of
    inertia, the negative eigenvalues.  The count is its own pass, since a
    solve with a zero right-hand side costs about three times as much.
    """

    PIVOT_RTOL = 1e-12

    @staticmethod
    def _entries(diag, off) -> tuple[list, list, float]:
        """diag and off as lists of floats, a scalar off repeated, and the
        pivot floor, PIVOT_RTOL times the largest diagonal entry in size.
        A non-finite entry raises SolveError, since the recurrences need
        not fail on one."""
        diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
        if off.ndim and len(off) != len(diag) - 1:
            raise ValueError("off must have one entry fewer than diag")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise SolveError("LDL^T breakdown: non-finite matrix entry")
        floor = TridiagonalLDL.PIVOT_RTOL * float(np.max(np.abs(diag)))
        off = off.tolist() if off.ndim else [float(off)] * (len(diag) - 1)
        return diag.tolist(), off, floor

    @staticmethod
    def solve_once(diag, off, rhs) -> np.ndarray:
        """x for diag, off and rhs: the forward substitution of rhs runs
        inside the factor loop."""
        diag, off, floor = TridiagonalLDL._entries(diag, off)
        vals = _finite(rhs).tolist()
        if len(vals) != len(diag):
            raise ValueError("rhs must have one entry per diag entry")
        pivots, mults, fwd = [diag[0]], [], [vals[0]]
        try:
            for a, b, r in zip(diag[1:], off, vals[1:]):
                m = b / pivots[-1]
                mults.append(m)
                pivots.append(a - m * b)
                fwd.append(r - m * fwd[-1])
        except ZeroDivisionError:
            pass  # the zero pivot ends the list and fails the check below
        if not np.all(np.abs(pivots) > floor):
            raise SolveError("LDL^T breakdown: pivot near zero")
        x = fwd[-1] / pivots[-1]
        out = [x]
        for pivot, m, z in zip(pivots[-2::-1], mults[::-1], fwd[-2::-1]):
            x = z / pivot - m * x
            out.append(x)
        out.reverse()
        return np.array(out)

    @staticmethod
    def negative_eigenvalues(diag, off) -> int:
        """Negative eigenvalues of the matrix: the negative pivots of the
        factor of `solve_once`, with its breakdown, in one pass that keeps
        no pivot."""
        diag, off, floor = TridiagonalLDL._entries(diag, off)
        negative, pivot = 0, 1.0
        # a zero coupling ahead of node 0 makes its pivot diag[0]
        for a, b in zip(diag, [0.0] + off):
            pivot = a - b / pivot * b
            if pivot < 0.0:
                negative += 1
            if not abs(pivot) > floor:
                raise SolveError("LDL^T breakdown: pivot near zero")
        return negative


class BlockTridiagonalLDL:
    """Block LDL^T inertia of a symmetric, possibly indefinite 5-point
    matrix on an (ny, nx) array.

    `off0` couples node (i, j) to (i + 1, j) and `off1` couples it to
    (i, j + 1); a scalar couples every such pair.  Each row's Schur
    complement is a dense nx x nx block.  By Haynsworth's inertia
    additivity the matrix's negative eigenvalues are those of the Schur
    blocks summed.
    """

    @staticmethod
    def negative_eigenvalues(diag, off0, off1) -> int:
        """Negative eigenvalues of the matrix, keeping only the previous
        Schur block's inverse.  A block whose Cholesky factor succeeds is
        SPD; otherwise its eigenvalues are counted, and a block within
        TridiagonalLDL.PIVOT_RTOL of singular raises SolveError, since its
        inverse would carry no digits.  A non-finite entry raises
        SolveError too, as a Cholesky factor need not fail on one.  Each
        block is built in one matrix, its diagonals written through the
        matrix's flat view."""
        diag = np.asarray(diag, dtype=float)
        off0 = np.asarray(off0, dtype=float)
        off1 = np.asarray(off1, dtype=float)
        ny, nx = diag.shape
        if ((off0.ndim and off0.shape != (ny - 1, nx))
                or (off1.ndim and off1.shape != (ny, nx - 1))):
            raise ValueError("off0 and off1 must couple neighbours along axes 0 and 1")
        if not all(np.all(np.isfinite(a)) for a in (diag, off0, off1)):
            raise SolveError("block LDL^T breakdown: non-finite matrix entry")
        negative = 0
        schur = np.empty((nx, nx))
        flat = schur.reshape(-1)
        for i in range(ny):
            schur.fill(0.0)
            flat[::nx + 1] = diag[i]
            flat[1::nx + 1] = flat[nx::nx + 1] = off1[i] if off1.ndim else off1
            if i > 0:
                # off0 inv off0^T, scaled in the previous inverse's storage
                c = off0[i - 1] if off0.ndim else off0
                inv *= np.reshape(c, (-1, 1))
                inv *= c
                schur -= inv
            try:
                np.linalg.cholesky(schur)
            except np.linalg.LinAlgError:
                eigs = np.linalg.eigvalsh(schur)
                size = np.abs(eigs)
                if size.min() <= TridiagonalLDL.PIVOT_RTOL * size.max():
                    raise SolveError("block LDL^T breakdown: Schur block near singular")
                negative += int(np.sum(eigs < 0.0))
            if i < ny - 1:
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


# Cap of the forcing term in `_linear_step`; its floor near tol may exceed it.
ETA_MAX = 1e-3


def _linear_step(problem, tol: float) -> Callable:
    """step(u, b, d, rel) -> du: solves J du = -b for J with diagonal d and
    the problem's operator: its stencil couplings problem.off, and
    problem.apply(x, diag=d) = J x (see `domain.five_point_apply`); rel
    is the outer relative residual at u, tol the solve's stopping
    tolerance.  The Morse index is `_newton`'s to count.

    In 1D one LDL^T pass solves J.  In 2D the step is an inexact Newton
    step (Dembo, Eisenstat & Steihaug 1982): MINRES on J applied free of
    storage, preconditioned with 1 / |d|, stops at the forcing term
    eta = max(min(ETA_MAX, rel), 0.5 tol / max(rel, tol)), so steps far
    from the solution are cheap and the next ones are solved to the outer
    residual's own size (Eisenstat & Walker 1996).  The floor stops the
    last step once its linearized residual, about eta * rel, is half the
    outer tolerance, instead of far below it (Kelley 1995, section 6.3);
    it stays below 0.5 but on a first step from a start that already
    meets tol.  Its cap is the unknown count, MINRES's own bound in exact
    arithmetic, and step.inner_iterations sums the MINRES iterations of
    the steps that returned.
    """
    if len(problem.off) == 2:
        return _MinresStep(problem.apply, tol)

    def step(u, b, d, rel):
        return TridiagonalLDL.solve_once(d, problem.off[0], -b)

    step.inner_iterations = 0
    return step


class _MinresStep:
    """The 2D step of `_linear_step`: MINRES on the problem's own apply,
    given each step's diagonal, and the solve's tol for the floor of its
    forcing term.  The apply's output buffer is the problem's, which holds
    since MINRES reads each product before the next and no evaluation runs
    inside a step.  Unlike a closure that counts on itself, it is no
    reference cycle, so it goes with the solve."""

    def __init__(self, apply, tol):
        self.apply, self.tol, self.inner_iterations = apply, tol, 0

    def __call__(self, u, b, d, rel):
        eta = max(min(ETA_MAX, rel), 0.5 * self.tol / max(rel, self.tol))
        du, its = minres(partial(self.apply, diag=d), -b, 1.0 / np.abs(d), eta, d.size)
        self.inner_iterations += its
        return du


# -- penalized problem on the box -------------------------------------------


def _morse_enclosure(d: np.ndarray, boxes, h: float, x: np.ndarray) -> float:
    """Negative eigenvalues of J = -lap_h + diag(jd) on a 2D node array,
    given its diagonal d = 4/h^2 + jd, or nan when they cannot be certified;
    x, an array of d's shape, is a trial field, in a solve the returned
    iterate.

    E is the union of the node `boxes` and O the other nodes.  With
    m = min jd over O > 0, J_OO >= m I is SPD, and Haynsworth's inertia
    additivity gives neg(J) = neg(S) for the Schur complement
    S = J_EE - J_EO J_OO^-1 J_OE.  Since 0 <= J_OO^-1 <= I/m,

        neg(J_EE) <= neg(J) <= neg(J_EE - R / (m h^4)),

    where R is the diagonal Gershgorin bound of h^4 J_EO J_OE: per E node,
    the sum over its O neighbours of their numbers of E neighbours.  J_EE
    is block diagonal over boxes that no stencil couples, so both bounds
    are sums over single boxes b.  Each box's upper bound
    neg(J_EE,b - D_b) is a block LDL^T inertia, and it bounds the box's
    lower bound neg(J_EE,b) from above, since D_b >= 0.  So an upper count
    of 0 is the lower one too, and so is an upper count of 1 when x has
    negative curvature on the box, x_b^T J_EE,b x_b < 0 beyond round-off
    (`_negative_curvature`): by Courant-Fischer one direction of negative
    curvature makes one negative eigenvalue.  Any other box's lower bound
    is its own block LDL^T inertia.  The count is returned when the bounds agree;
    nan when they differ, when m is not positive or when two boxes are
    stencil-coupled.  A Schur block near singular or a non-finite entry in
    a counted block raises SolveError.
    """
    if any(_stencil_coupled(a, b) for a, b in itertools.combinations(boxes, 2)):
        return math.nan
    inside = np.zeros(d.shape, dtype=bool)
    for box in boxes:
        inside[box] = True
    m = float(np.min(d[~inside], initial=math.inf)) - 4.0 / h**2
    if not m > 0.0:
        return math.nan
    # neighbour sums of 0/1 and small integer arrays, exact in floating point
    neighbour_sum = five_point_apply(np.zeros(d.shape), (1.0, 1.0))
    degree = neighbour_sum(inside.astype(float))
    shift = neighbour_sum(np.where(inside, 0.0, degree)) / (m * h**4)
    c = -1.0 / h**2
    low = high = 0
    for box in boxes:
        b = d[box]
        upper = BlockTridiagonalLDL.negative_eigenvalues(b - shift[box], c, c)
        high += upper
        if upper == 0 or (upper == 1 and _negative_curvature(b, c, x[box])):
            low += upper
        else:
            low += BlockTridiagonalLDL.negative_eigenvalues(b, c, c)
    return low if low == high else math.nan


def _negative_curvature(b: np.ndarray, c: float, x: np.ndarray) -> bool:
    """Whether x^T A x < 0 for the 5-point matrix A with diagonal b and
    couplings c, beyond the round-off of computing it.

    With x of n entries and A x summed from at most 5 terms per entry, the
    computed form is within gamma_(n+5) |x|^T |A| |x| of the exact one,
    gamma_k = k u / (1 - k u) for the unit round-off u = eps / 2 (Higham
    2002, section 3.5).  The margin (n + 5) eps |x|^T |A| |x| is about
    twice that, which also covers the rounding of |x|^T |A| |x| itself.
    A non-finite or overflowing form certifies nothing, nor does x = 0.
    """
    ax = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        form = float(np.vdot(x, five_point_apply(b, (c, c))(x)))
        size = float(np.vdot(ax, five_point_apply(np.abs(b), (-c, -c))(ax)))
    return math.isfinite(size) and form < -(x.size + 5) * np.finfo(float).eps * size


def _stencil_coupled(a, b) -> bool:
    """Whether the stencil couples the node rectangles a and b (per-axis
    slices): the index gaps between them, summed over the axes, are at most
    1, so they share a node or a stencil face.  An empty one couples none."""
    gaps = (max(0, s.start - t.stop + 1, t.start - s.stop + 1) for s, t in zip(a, b))
    return all(s.stop > s.start for s in (*a, *b)) and sum(gaps) <= 1


# Newton stops as "diverged" once its residual has grown this many steps in
# a row.
DIVERGE_STEPS = 4


def _newton(evaluate: Callable, problem, collapsed: Callable, u: np.ndarray,
            config: SolverConfig, inertia: Callable):
    """Newton's method u <- max(u + du, 0) from u, the one loop of every solve.

    evaluate(u) -> (u, rel, energy, b, d) gives the iterate (a problem may
    rescale u), its relative residual, its energy, and the residual b and
    Jacobian diagonal d of the step J du = -b at u.  The step is
    `_linear_step(problem, config.tol)`: J is the problem's own operator,
    its couplings problem.off and its apply problem.apply called with
    diag=d, built once with the problem.
    collapsed(u) tells whether a clipped iterate lost the mass the problem
    needs.  The stops are those of `NewtonRecord`: converged at rel <= tol,
    the iteration cap, collapse, diverged, breakdown when the step or
    evaluate raises `SolveError` (no solve lets it escape), and non-finite
    when the start's or a step's residual is not finite.

    The Morse index is inertia(u, d), the problem's count of J's negative
    eigenvalues from its diagonal d, taken once, at the last evaluated
    iterate: the returned one on every stop but a collapse.  u is the
    returned iterate, a trial vector the count may use (see
    `_morse_enclosure`), on a collapse the collapsed one.  It is nan when
    no step returned or inertia raises `SolveError`.  The record's
    inner_iterations is the step's MINRES tally.  Returns
    (u, NewtonRecord): u is the collapsed iterate on a collapse, else the
    last iterate with a finite residual, or the start when there is none.
    """
    step = _linear_step(problem, config.tol)
    residuals: list[float] = []
    energies: list[float] = []
    detail = ""
    du = None
    growth = 0
    it = 0
    try:
        u, rel, _, b, d = evaluate(u)
        # a start whose residual is not finite takes no step
        steps = config.max_iters if math.isfinite(rel) else 0
        stop_reason = "iteration cap" if steps else "non-finite"
        for it in range(1, steps + 1):
            du = step(u, b, d, rel)
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
    except SolveError as exc:
        stop_reason, detail = "breakdown", str(exc)
    try:
        morse = math.nan if du is None else inertia(u, d)
    except SolveError:
        morse = math.nan
    return u, NewtonRecord(it, residuals, energies, stop_reason, morse_index=morse,
                           stop_detail=detail, inner_iterations=step.inner_iterations)


def _interior(nodes) -> tuple[slice, ...]:
    """The slices of a field's interior values that hold the full-grid
    nodes `nodes`."""
    return tuple(slice(s.start - 1, s.stop - 1) for s in nodes)


def superpose(records, grid: Grid) -> Field:
    """The field on the whole box that holds each local record's values at
    its nodes and is zero elsewhere, the one place local values reach the
    box: the sum of the records' bumps, which validated wells keep apart."""
    out = Field.zeros(grid)
    for rec in records:
        out.values[_interior(rec.nodes)] += rec.values
    return out


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
    nonzero init stops the solve as a collapse, and a non-finite init stops
    it at once as non-finite.

    Multi-bump states are saddle points: the energy tends to minus infinity
    along each bump's amplitude.  Newton's method converges to them
    directly, and the negative eigenvalues of the Jacobian at the returned
    field give the Morse index, which is |gamma| on an l-bump saddle of the
    minimax over [1/T^2, 1]^l.  Each step is `_linear_step` on the
    functional's own operator -lap + lambda V + 1 with the Jacobian's
    diagonal in place of its own; the couplings are the scalar -1/h^2.
    The Morse index is its LDL^T count in 1D and `_morse_enclosure` in 2D,
    which counts each enlarged well's box once and a second time only
    where the returned field's curvature there does not certify its lower
    bound.  One `PenalizedFunctional.evaluate` per iterate gives the stop
    test's residual, the energy history's entry and the next step's
    Jacobian diagonal.  The record's report takes its total from the last
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

    def evaluate(u):
        energy, res, d = fun.evaluate(u)
        return u, _relative_residual(u, res), energy, res, d

    def collapsed(u):
        return watch_collapse and any(
            hd * float(np.sum((u * u)[mask])) <= 0.0 for mask in gamma_masks
        )

    def inertia(u, d):
        if grid.dim == 1:
            return TridiagonalLDL.negative_eigenvalues(d, *fun.off)
        boxes = [_interior(box_nodes(e, grid, False))
                 for e in potential.geometry.enlargements]
        return _morse_enclosure(d, boxes, grid.h, u)

    u, run = _newton(evaluate, fun, collapsed, init.values.copy(), config, inertia)
    out = Field(grid, u)
    evaluated = bool(run.energies) and run.stop_reason != "collapse"
    report = fun.report(out, run.energy if evaluated else None)
    return AuxiliaryRecord(**vars(run), lam=fun.lam, field=out, report=report)


# -- path of well bumps ------------------------------------------------------


# Path scale T of the bump-superposition surface.  A well ground state w
# is on the Nehari manifold, 2E = M with M = int w^2, so by the scaling law
# of `logbump.functional` its ray value I'(t w)(t w) = -t^2 log t^2 * M
# changes sign at t = 1, and every T > 1 meets the sign conditions
# I'(w/T)(w/T) > 0 > I'(T w)(T w).
PATH_T = 2.0


# Points per axis of the minimax surface grid in `minimax_upper_bound`.
MINIMAX_M = 33


def minimax_upper_bound(energies, masses, big_t: float) -> float:
    """Upper bound for the multi-bump minimax level of a selection, from
    its wells' ground-state energies E_j and masses M_j = int omega_j^2.

    Maximizes the penalized energy over the bump-superposition surface
    sum_j s_j T omega_j, (s_1, ..., s_l) in [1/T^2, 1]^l, T = big_t
    (`PATH_T` in a run); since the surface is admissible the maximum
    dominates the minimax level up to the grid resolution in s.

    Each omega_j vanishes off its well, where V = 0, and validation keeps
    the wells' nodes out of each other's stencil reach (every well sits
    MIN_MARGIN_CELLS cells inside its enlargement, and the enlargements'
    closures are disjoint).  So at every lambda the energy of a
    superposition is the sum of I(t omega_j) = t^2 (E_j - log t * M_j),
    and the maximum over the m^l points of the surface grid is the sum
    of the per-well maxima over the m = MINIMAX_M points t = s T of each
    axis.
    """
    t = big_t * np.linspace(1.0 / (big_t * big_t), 1.0, MINIMAX_M)
    return sum(float(np.max(t * t * (e - np.log(t) * m)))
               for e, m in zip(energies, masses, strict=True))


def lambda_sweep(
    lambdas,
    gamma,
    init: Field,
    grid: Grid,
    potential: PotentialSpec,
    params: PenalizationParams,
    config: SolverConfig,
    levels: dict[tuple[float, int], LevelRecord],
) -> list[AuxiliaryRecord]:
    """The solves of selection gamma at each lambda of `lambdas`, the first
    from init, whose rows perfbench's references record.

    For large lambda the |gamma|-bump solution approaches the sum of the
    one-bump solutions on its wells (Bartsch & Wang 1995; Ding & Tanaka
    2003), the enlarged-well levels.  So each later lambda starts from
    `superpose` of the level records `levels[(lam, j)]` of gamma's wells
    when each converged with Morse index 1, else from init.  No solve
    reads another's field.
    """
    records: list[AuxiliaryRecord] = []
    for lam in lambdas:
        recs = [levels.get((lam, j)) for j in gamma]
        start = init
        if records and all(r and r.converged and r.morse_index == 1 for r in recs):
            start = superpose(recs, grid)
        records.append(solve_auxiliary(lam, gamma, start, grid, potential, params, config))
    return records


# -- ground states of the local well problems --------------------------------


class _LocalWell:
    """One well's local problem on the rectangle of grid nodes in a box.

    `nodes` holds the rectangle's slices of the full grid, `w` its node
    weights and `lam_v` the potential term lambda V.  The operator
    W(B + lambda V) is built once, as its diagonal `diag` and its stencil
    couplings `off`, and `apply(x)` returns W(B + lambda V) x in one reused
    buffer (see `domain.five_point_apply`).  Neighbours along one axis couple by
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
        self.w = reduce(np.multiply.outer, axis_w)
        self.mesh = grid.mesh(nodes)
        self.lam_v = 0.0
        if potential is not None:
            self.lam_v = lam * potential_on_grid(potential, grid)[nodes]
        self.diag = self.w * (2.0 * grid.dim / grid.h**2 + self.lam_v)
        self.off = _axis_couplings(axis_w, grid.h)
        self.apply = five_point_apply(self.diag, self.off)

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
        """The closed enlarged well j, trapezoid-weighted.  Under 3 nodes
        on an axis raise ValueError, which a validated config never meets:
        its well's MIN_WELL_NODES nodes per axis lie inside."""
        nodes = box_nodes(potential.geometry.enlargements[j - 1], grid, strict=False)
        if any(s.stop - s.start < 3 for s in nodes):
            raise ValueError(f"enlarged well {j} too coarse for a Neumann solve")
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
        logm = self.integral(sq_log_sq(u))
        log_t = (self.integral(au * u) - logm) / (2.0 * mass)
        # the energy and residual square t u and t au: keep both below 1e100
        peak = max(float(np.max(np.abs(u))), float(np.max(np.abs(au))))
        if not log_t + math.log(peak) < math.log(1e100):
            raise SolveError(f"Nehari scale e^{log_t:.4g} takes the field out "
                             "of the float range")
        t = math.exp(log_t)
        return t * u, t * au


def _ground_state_newton(prob: _LocalWell, u: np.ndarray,
                         config: SolverConfig) -> LevelRecord:
    """Nehari-projected Newton's method for a local problem from the bump u;
    returns the record of `_newton`'s solve with its field on prob's nodes.

    Each step solves the weighted Jacobian system
    W(B + lambda V - log u^2 - 2) du = -W res of the residual
    res = (B + lambda V) u - u log u^2, with log u^2 taken at |u| floored
    at U_FLOOR: the problem's diagonal shifted, with its couplings.  Each
    clipped iterate is rescaled onto the Nehari manifold.  The Morse index,
    1 at a ground state, is the LDL^T inertia of the Jacobian at the
    returned iterate, tridiagonal in 1D and block tridiagonal in 2D, nan
    when a pivot or Schur block is near singular.  The weighted relative
    residual comes from the iterate's one operator apply.  The iterate is
    on the Nehari manifold, where <(B + lambda V) u, u>_w = int_w u^2 log u^2,
    so its energy is half its mass.  A collapse means that the clip left no
    mass.
    """
    def evaluate(u):
        u, au = prob.nehari_project(u)
        res = au - s_log_sq(u)
        mass = prob.integral(u * u)
        rel = math.sqrt(prob.integral(res * res) / mass)
        d = prob.diag - prob.w * (2.0 * np.log(np.maximum(np.abs(u), U_FLOOR)) + 2.0)
        return u, rel, 0.5 * mass, prob.w * res, d

    ldl = TridiagonalLDL if prob.grid.dim == 1 else BlockTridiagonalLDL
    u, run = _newton(evaluate, prob, lambda u: prob.integral(u * u) <= 0.0, u, config,
                     lambda u, d: ldl.negative_eigenvalues(d, *prob.off))
    return LevelRecord(**vars(run), grid=prob.grid, nodes=prob.nodes, values=u)


def solve_single_well(
    geometry: WellGeometry, j: int, grid: Grid, config: SolverConfig
) -> LevelRecord:
    """Positive ground state of -lap u = u log u^2 on well j (Dirichlet),
    with its field on the well's interior nodes, which `superpose` sums
    into the first lambda's sweep start.

    Runs the projected Newton iteration on the well's nodes from a positive
    Gaussian bump at its center; the PDE residual is measured inside the
    well in relative L2.  The energy is nan when the solve stopped before
    its first residual.
    """
    if not 1 <= j <= geometry.k:
        raise ValueError(f"well index {j} out of range 1..{geometry.k}")
    well = geometry.wells[j - 1]
    prob = _LocalWell.dirichlet(well, grid)
    check_well_nodes(j, prob.nodes)
    sigma = min(1.0, min(well.half) / 2.0)
    bump = np.exp(-prob.dist_sq(well.center) / (2.0 * sigma * sigma))
    return _ground_state_newton(prob, bump, config)


def solve_neumann_well(
    lam: float, j: int, grid: Grid, potential: PotentialSpec, config: SolverConfig
) -> LevelRecord:
    """Ground-state level c_{lambda,j} of the enlarged-well problem
    -lap u + lambda V u = u log u^2 with zero normal derivative, as the
    record's energy, and its field on the enlargement's node box, which
    `lambda_sweep` sums into its starts by `superpose`.

    The projected Newton iteration of the Dirichlet well, on the
    trapezoid-weighted operator of `_LocalWell.neumann`, from a Gausson at
    the well center confined to the closed well, where V = 0: mass where
    lambda V is large would grow the start's Nehari scale with lambda.
    """
    prob = _LocalWell.neumann(lam, j, grid, potential)
    center = potential.geometry.enlargements[j - 1].center
    bump = np.exp(0.5 * grid.dim - 0.5 * prob.dist_sq(center)) * (prob.lam_v == 0.0)
    return _ground_state_newton(prob, bump, config)
