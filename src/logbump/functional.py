"""Penalized energy, its first variation, and the Nehari machinery.

The central contract of this module is discrete consistency: the residual
uses the same stencil and quadrature as the energy, so the L2 pairing of
the residual with any direction equals the directional derivative of the
energy to O(eps^2) in a central-difference check.

For fields supported in the selected wells the potential term vanishes and
the splitting collapses, so the energy obeys the exact scaling law

    E(s v) = s^2 * (E(v) - log(s) * integral v^2),

which gives a closed form for the projection onto the Nehari manifold.
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
    return np.asarray(sq_log_sq(vals))


@dataclass(frozen=True)
class EnergyReport:
    """All scalar diagnostics of one energy evaluation."""

    total: float
    kinetic: float
    mass: float
    f1_term: float
    g2_term: float
    per_well: tuple[float, ...]
    lambda_v_mass: float
    outside_norm_sq: float
    sup_outside: float


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

    # -- pointwise pieces -------------------------------------------------

    def nonlinear_rhs(self, values: np.ndarray) -> np.ndarray:
        """dg2(x, u+) - df1(u), the explicit part of the flow."""
        up = np.maximum(values, 0.0)
        return np.asarray(self.params.dg2(self.chi_in, up)) - np.asarray(
            self.params.df1(values)
        )

    def nonlinear_rhs_slope(self, values: np.ndarray) -> np.ndarray:
        """Pointwise derivative of nonlinear_rhs: g2''(x, u+) - f1''(u)."""
        up = np.maximum(values, 0.0)
        return np.asarray(self.params.d2g2(self.chi_in, up)) - np.asarray(
            self.params.d2f1(values)
        )

    # -- energy and residual ----------------------------------------------

    def phi_total(self, values: np.ndarray) -> float:
        """Total energy only (cheap form used for descent monitoring)."""
        u = Field(self.grid, values)
        kin = 0.5 * self._hd * float(np.vdot(neg_laplacian(u).values, values))
        mass = 0.5 * self._hd * float(np.sum(self.diag * values * values))
        f1 = self._hd * float(np.sum(np.asarray(self.params.f1(values))))
        up = np.maximum(values, 0.0)
        g2 = self._hd * float(np.sum(np.asarray(self.params.g2(self.chi_in, up))))
        return kin + mass + f1 - g2

    def residual(self, u: Field) -> Field:
        """Strong-form residual -lap u + (lambda V + 1) u + f1'(u) - g2'(x, u+).

        Its discrete L2 pairing with any direction v equals the directional
        derivative of the energy at u in direction v.
        """
        vals = u.values
        out = neg_laplacian(u).values + self.diag * vals - self.nonlinear_rhs(vals)
        return Field(self.grid, out)

    def report(self, u: Field) -> EnergyReport:
        """Energy split plus per-well and localization diagnostics."""
        vals = u.values
        kin = 0.5 * self._hd * float(np.vdot(neg_laplacian(u).values, vals))
        mass = 0.5 * self._hd * float(np.sum(self.diag * vals * vals))
        f1 = self._hd * float(np.sum(np.asarray(self.params.f1(vals))))
        up = np.maximum(vals, 0.0)
        g2 = self._hd * float(np.sum(np.asarray(self.params.g2(self.chi_in, up))))
        total = kin + mass + f1 - g2

        full = u.full()
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
            total=total,
            kinetic=kin,
            mass=mass,
            f1_term=f1,
            g2_term=g2,
            per_well=per_well,
            lambda_v_mass=lam_v,
            outside_norm_sq=outside_norm,
            sup_outside=sup_outside,
        )


# -- Nehari machinery -------------------------------------------------------


def _support_integrals(u: Field, support: np.ndarray):
    """(gradient, mass, log-mass) integrals over the support mask.

    Refuses fields with appreciable values outside the support, where the
    truncation breaks the scaling law the projection relies on.
    """
    grid = u.grid
    full = u.full()
    peak = float(np.max(np.abs(full), initial=0.0))
    leak = float(np.max(np.abs(full[~support]), initial=0.0))
    if peak > 0.0 and leak > 1e-12 * peak:
        raise ValueError("field must vanish outside the given support mask")
    hd = grid.h**grid.dim
    dens = grad_energy_density(u)
    grad = hd * float(np.sum(dens[support]))
    mass = hd * float(np.sum((full * full)[support]))
    logm = hd * float(np.sum(_log_mass_density(full)[support]))
    return grad, mass, logm


def nehari_time(u: Field, support: np.ndarray) -> float:
    """Unique t* > 0 with log t*^2 = (int |grad u|^2 - int u^2 log u^2)/int u^2,
    placing t* u on the Nehari manifold of the pure logarithmic energy."""
    grad, mass, logm = _support_integrals(u, support)
    if mass <= 0.0:
        raise ValueError("nehari_time needs a field with positive mass")
    return float(np.exp((grad - logm) / (2.0 * mass)))


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
    """Evaluate the Nehari identity I(u) = 1/2 int u^2 and its constraint.

    On the manifold (constraint = 0) the two energies agree; the caller
    decides the tolerance."""
    grad, mass, logm = _support_integrals(u, support)
    energy = 0.5 * (grad + mass) - 0.5 * logm
    return NehariCheck(energy=energy, half_mass=0.5 * mass, constraint=grad - logm)


def h1_distance(a: Field, b: Field) -> float:
    """Plain discrete H1 distance on the box (no potential weight)."""
    diff = Field(a.grid, a.values - b.values)
    hd = a.grid.h**a.grid.dim
    dens = grad_energy_density(diff)
    full = diff.full()
    return float(np.sqrt(hd * (np.sum(dens) + np.sum(full * full))))


def gausson_values(grid: Grid, center=None) -> np.ndarray:
    """Interior samples of the explicit solution exp(dim/2 - |x - c|^2 / 2)
    of -lap u = u log u^2."""
    mesh = grid.interior_mesh()
    if center is None:
        center = (0.0,) * grid.dim
    r2 = 0.0
    for ax in range(grid.dim):
        r2 = r2 + (mesh[ax] - center[ax]) ** 2
    return np.exp(0.5 * grid.dim - 0.5 * r2)
