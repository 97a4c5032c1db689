"""Penalized energy, its first variation, and its scaling law.

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
term vanishes, so every local level is half its mass M.  On a ground
state the ray value -t^2 log t^2 * M changes sign at t = 1, so any path
scale T > 1 (`solver.PATH_T`) works; the law also gives the energies
along each bump's ray in `minimax_upper_bound`.  Outside the selected
enlargements the truncation above a0 breaks it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from logbump.domain import (
    Field,
    Grid,
    PotentialSpec,
    RegionMasks,
    box_nodes,
    five_point_apply,
    grad_energy_density,
    masks,
    potential_on_grid,
)
from logbump.penalty import PenalizationParams, sq_log_sq


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

    Precomputes the potential and the indicator of the enlarged wells, and
    builds -lap + lambda V + shift, shift = 1, once as its diagonal
    `diag`, its scalar stencil couplings `off` and their `apply`
    (`domain.five_point_apply`), so repeated evaluations inside the solver
    stay cheap.
    """

    shift = 1.0

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
        self.diag = 2.0 * grid.dim / grid.h**2 + (self.lam * self.v_in + self.shift)
        self.off = (-1.0 / grid.h**2,) * grid.dim
        self.apply = five_point_apply(self.diag, self.off)
        self._hd = grid.h**grid.dim

    def evaluate(self, values: np.ndarray):
        """(energy, residual, d) at the interior values u, from one apply of
        the operator and one `PenalizationParams.terms` pass.

        The energy is 1/2 <(-lap + lambda V + 1) u, u> + int F(x, u) with
        F = f1(u) - g2(x, u+), the residual is its gradient
        -lap u + (lambda V + 1) u + F'(x, u), and d = diag + F''(x, u) is
        the whole diagonal of the Newton Jacobian at u.
        """
        dens, d1, d2 = self.params.terms(self.chi_in, values)
        lin = self.apply(values)
        energy = self._hd * (0.5 * float(np.vdot(lin, values)) + float(np.sum(dens)))
        return energy, lin + d1, self.diag + d2

    def well_nodes(self) -> list[tuple[slice, ...]]:
        """The interior-array node rectangles of the selected closed wells,
        where V = 0 and the operator is -lap_h + shift."""
        return [tuple(slice(s.start - 1, s.stop - 1) for s in box_nodes(
                    self.potential.geometry.wells[j - 1], self.grid, strict=False))
                for j in self.gamma]

    def phi_total(self, values: np.ndarray) -> float:
        """Total energy only."""
        return self.evaluate(values)[0]

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
        log_dens = sq_log_sq(full)

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


def h1_distance(a: Field, b: Field) -> float:
    """Plain discrete H1 distance on the box (no potential weight)."""
    diff = Field(a.grid, a.values - b.values)
    hd = a.grid.h**a.grid.dim
    dens = grad_energy_density(diff)
    full = diff.full()
    return float(np.sqrt(hd * (np.sum(dens) + np.sum(full * full))))

