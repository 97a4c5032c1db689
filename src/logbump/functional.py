"""Penalized energy, its first variation, and the Nehari machinery.

The central contract of this module is discrete consistency: the residual
uses the same stencil and quadrature as the energy, so the L2 pairing of
the residual with any direction equals the directional derivative of the
energy to O(eps^2) in a central-difference check.  One evaluation,
`PenalizedFunctional.evaluate`, gives both and the Newton Jacobian diagonal.

For nonnegative fields supported in the selected enlargements the
splitting collapses to the pure log term -1/2 u^2 log u^2, and the kinetic
and (lambda V + 1) u^2 terms are quadratic, so the energy obeys the exact
scaling law

    E(s v) = s^2 * (E(v) - log(s) * integral v^2).

It gives the closed-form Nehari scale of the local ground-state solves
(`_LocalWell.nehari_project` in `logbump.solver`), where the potential
term vanishes, and the energies along each bump's ray in
`minimax_upper_bound` (`PenalizedFunctional.ray_energies`).  Outside the
selected enlargements the truncation above a0 breaks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from logbump.domain import (
    Field,
    Grid,
    PotentialSpec,
    RegionMasks,
    grad_energy_density,
    masks,
    neg_laplacian,
    potential_on_grid,
)
from logbump.penalty import U_FLOOR, PenalizationParams, sq_log_sq


def _log_mass_density(values: np.ndarray) -> np.ndarray:
    """u^2 log u^2 with values below the floor flushed to zero."""
    vals = np.where(np.abs(values) < U_FLOOR, 0.0, values)
    return sq_log_sq(vals)


# Mass fraction that marks a well's enlargement as occupied.
BUMP_THRESHOLD = 0.01


@dataclass(frozen=True)
class EnergyReport:
    """Total energy plus per-well, localization and mass-split diagnostics.

    well_mass holds the node sum of u^2 over each enlargement, all wells in
    1-based order, and box_mass its node sum over the whole box; which
    wells a field occupies and the mass share of a selection follow from
    them.
    """

    total: float
    per_well: tuple[float, ...]
    lambda_v_mass: float
    outside_norm_sq: float
    sup_outside: float
    well_mass: tuple[float, ...]
    box_mass: float

    def occupied(self) -> tuple[int, ...]:
        """Wells whose enlargement holds at least BUMP_THRESHOLD of the mass."""
        if self.box_mass <= 0.0:
            return ()
        return tuple(j + 1 for j, m in enumerate(self.well_mass)
                     if m >= BUMP_THRESHOLD * self.box_mass)

    def mass_fraction(self, gamma) -> float:
        """Share of the mass in the enlargements of the wells in gamma."""
        if self.box_mass <= 0.0:
            return 0.0
        return sum(self.well_mass[j - 1] for j in gamma) / self.box_mass


class PenalizedFunctional:
    """Penalized energy of the auxiliary problem at fixed (lambda, gamma).

    Precomputes the potential, the indicator of the enlarged wells, and the
    linear diagonal lambda*V + 1 so repeated evaluations inside the solver
    stay cheap.
    """

    def __init__(
        self,
        grid: Grid,
        potential: PotentialSpec,
        params: PenalizationParams,
        gamma,
        lam: float,
    ):
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        self.grid = grid
        self.potential = potential
        self.params = params
        self.lam = float(lam)
        self.masks: RegionMasks = masks(potential.geometry, grid, gamma)
        self.gamma = self.masks.gamma
        self.v_full = potential_on_grid(potential, grid)
        inner = (slice(1, -1),) * grid.dim
        self.v_in = self.v_full[inner]
        self.chi_in = self.masks.enlarged[inner]
        self.diag = self.lam * self.v_in + 1.0
        self._hd = grid.h**grid.dim

    def evaluate(self, values: np.ndarray):
        """(energy, residual, jd) at the interior values u, from one stencil
        apply and one `PenalizationParams.terms` pass.

        The energy is 1/2 <(-lap + lambda V + 1) u, u> + int F(x, u) with
        F = f1(u) - g2(x, u+), the residual is its gradient
        -lap u + (lambda V + 1) u + F'(x, u), and J = -lap + diag(jd) with
        jd = lambda V + 1 + F''(x, u) is the Newton Jacobian at u.
        """
        dens, d1, d2 = self.params.terms(self.chi_in, values)
        lin = neg_laplacian(Field(self.grid, values)).values + self.diag * values
        energy = self._hd * (0.5 * float(np.vdot(lin, values)) + float(np.sum(dens)))
        return energy, lin + d1, self.diag + d2

    def phi_total(self, values: np.ndarray) -> float:
        """Total energy only."""
        return self.evaluate(values)[0]

    def ray_energies(self, values: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Energies E(t u) at the scales t on the ray through u, from the
        scaling law with one energy and one mass.  A u with a negative
        node or a nonzero node outside the selected enlargements, where
        the law fails, raises ValueError."""
        if np.any(values < 0.0) or np.any(values[~self.chi_in] != 0.0):
            raise ValueError("the scaling law needs u >= 0 that vanishes "
                             "outside the selected enlargements")
        mass = self._hd * float(np.sum(values * values))
        return t * t * (self.phi_total(values) - np.log(t) * mass)

    def nonlinear_rhs(self, values: np.ndarray) -> np.ndarray:
        """g2'(x, u+) - f1'(u), the nonlinearity moved to the right-hand side."""
        return -self.params.terms(self.chi_in, values)[1]

    def report(self, u: Field, total: float | None = None) -> EnergyReport:
        """Total energy plus per-well, localization and mass-split
        diagnostics.  `total` is u's energy when the caller already has it
        from `evaluate`; None evaluates it."""
        full = u.full()
        sq = full * full
        dens = grad_energy_density(u)
        mass_dens = (self.lam * self.v_full + 1.0) * full * full
        log_dens = _log_mass_density(full)

        per_well = tuple(
            0.5 * self._hd * float(np.sum((dens + mass_dens - log_dens)[mask]))
            for mask in self.masks.per_enlarged
        )
        lam_v = self.lam * self._hd * float(np.sum(self.v_full * full * full))
        out_w = self.masks.outside_wells
        outside_norm = self._hd * float(np.sum((dens + mass_dens)[out_w]))
        sup_outside = float(np.max(np.abs(full[self.masks.outside]), initial=0.0))
        return EnergyReport(
            total=self.phi_total(u.values) if total is None else total,
            per_well=per_well,
            lambda_v_mass=lam_v,
            outside_norm_sq=outside_norm,
            sup_outside=sup_outside,
            well_mass=tuple(float(np.sum(sq[mask])) for mask in self.masks.per_enlarged),
            box_mass=float(np.sum(sq)),
        )


# -- Nehari machinery -------------------------------------------------------


@dataclass(frozen=True)
class NehariCheck:
    """Energy, the identity value 1/2 int u^2, and the constraint I'(u)u."""

    energy: float
    half_mass: float
    constraint: float

    @property
    def identity_gap(self) -> float:
        return abs(self.energy - self.half_mass)

    def ray_constraint(self, t: float) -> float:
        """I'(t u)(t u) = t^2 (constraint - log t^2 * int u^2) along the ray
        through u, for the pure logarithmic energy on the support."""
        return t * t * (self.constraint - float(np.log(t * t)) * 2.0 * self.half_mass)


def nehari_check(u: Field, support: np.ndarray) -> NehariCheck:
    """Evaluate the Nehari identity I(u) = 1/2 int u^2 and its constraint
    from the gradient, mass and log-mass integrals over the support mask.

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
    logm = hd * float(np.sum(_log_mass_density(full)[support]))
    energy = 0.5 * (grad + mass) - 0.5 * logm
    return NehariCheck(energy=energy, half_mass=0.5 * mass, constraint=grad - logm)


def h1_distance(a: Field, b: Field) -> float:
    """Plain discrete H1 distance on the box (no potential weight)."""
    diff = Field(a.grid, a.values - b.values)
    hd = a.grid.h**a.grid.dim
    dens = grad_energy_density(diff)
    full = diff.full()
    return float(np.sqrt(hd * (np.sum(dens) + np.sum(full * full))))


def gausson_values(grid: Grid) -> np.ndarray:
    """Interior samples of the explicit solution exp(dim/2 - |x|^2 / 2)
    of -lap u = u log u^2."""
    r2 = sum(m**2 for m in grid.interior_mesh())
    return np.exp(0.5 * grid.dim - 0.5 * r2)
