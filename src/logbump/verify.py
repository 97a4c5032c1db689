"""Measurable checks of the localization and multiplicity predictions.

Each check is a pure function of recorded numbers, so every verdict can be
recomputed from the emitted CSV without rerunning solves.  Empirical
thresholds (the lambda beyond which a bound first holds) are discovered
and reported, never asserted a priori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from logbump.domain import Field, Grid, integrate, neg_laplacian
from logbump.functional import gausson_values, h1_distance
from logbump.penalty import s_log_sq

# Resolution allowance of the energy sandwich, a fraction of the well-sum
# level c_gamma.
SANDWICH_ALLOWANCE = 0.02
# Largest relative gap |phi - c_gamma| / c_gamma at the largest lambda.
GAP_TOL = 0.01
# Smallest mass fraction in gamma's enlargements at the largest lambda.
FIDELITY = 0.99
# The localization diagnostics' last TREND_TAIL values may grow by at most
# this factor from one lambda to the next.
TREND_SLACK = 1.05
TREND_TAIL = 3

# -- rows and verdicts -------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One (lambda, gamma) evaluation; the unit of the energies CSV."""

    lam: float
    gamma: tuple[int, ...]
    converged: bool
    phi_total: float
    b_upper: float
    c_gamma: float
    lambda_v_mass: float
    outside_norm_sq: float
    sup_outside: float
    a0: float
    min_u: float
    mass_frac: float
    occupied: tuple[int, ...]
    i_lambda: tuple[float, ...]
    c_dirichlet: tuple[float, ...]
    c_lambda: tuple[float, ...]


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    margin: float
    detail: str


def _groups(rows: list[SweepRow]) -> dict[tuple[int, ...], list[SweepRow]]:
    out: dict[tuple[int, ...], list[SweepRow]] = {}
    for row in rows:
        out.setdefault(row.gamma, []).append(row)
    for grp in out.values():
        grp.sort(key=lambda r: r.lam)
    return out


def check_linfty_outside(sup_outside: float, a0: float):
    """Sup bound outside the enlarged wells; margin is a0 - sup."""
    return sup_outside <= a0, a0 - sup_outside


def linfty_threshold(rows: list[SweepRow]):
    """Smallest recorded lambda from which the sup bound holds onward.

    Returns None when the bound fails at the largest lambda.
    """
    rows = sorted(rows, key=lambda r: r.lam)
    threshold = None
    for row in rows:
        ok, _ = check_linfty_outside(row.sup_outside, row.a0)
        if ok:
            if threshold is None:
                threshold = row.lam
        else:
            threshold = None
    return threshold


def check_sandwich(sum_c_lambda: float, b_upper: float, c_gamma: float):
    """Two-sided level bound with the resolution allowance
    SANDWICH_ALLOWANCE of the upper level."""
    eps = SANDWICH_ALLOWANCE * c_gamma
    lower_ok = sum_c_lambda - eps <= b_upper
    upper_ok = b_upper <= c_gamma + eps
    margin = min(b_upper - (sum_c_lambda - eps), (c_gamma + eps) - b_upper)
    return lower_ok and upper_ok, margin


def _tail_decreasing(values: list[float]) -> tuple[bool, float]:
    """Last TREND_TAIL values nonincreasing up to the factor TREND_SLACK.

    Returns (ok, worst ratio v[i+1]/v[i])."""
    vals = values[-TREND_TAIL:]
    if len(vals) < 2:
        return True, 0.0
    ratios = [b / a if a > 0 else math.inf for a, b in zip(vals, vals[1:])]
    worst = max(ratios)
    return worst <= TREND_SLACK, worst


def compute_verdicts(
    rows: list[SweepRow],
    k: int,
    selections=None,
) -> list[Verdict]:
    """All pass/fail verdicts derivable from the recorded rows.

    `selections` lists the well selections the run asked for (default: the
    ones present in the rows).  One with no rows (its solves failed or were
    skipped) fails convergence.  The multiplicity verdict is given when
    they are all 2^k - 1 of them, and fails if any has no rows.
    """
    groups = _groups(rows)
    verdicts: list[Verdict] = []
    wanted = set(groups) if selections is None else {tuple(g) for g in selections}
    missing = sorted(wanted - set(groups))
    no_rows = "; no rows for gamma " + ", ".join(
        "+".join(map(str, g)) for g in missing) if missing else ""

    solved = all(r.converged for r in rows)
    detail = "all solves converged" if solved else "flagged solves present"
    verdicts.append(Verdict("convergence", solved and not missing, 0.0, detail + no_rows))

    pos_ok = all(r.min_u >= 0.0 for r in rows)
    top_rows = [grp[-1] for grp in groups.values()]
    occ_ok = all(r.occupied == r.gamma for r in top_rows)
    verdicts.append(
        Verdict("positivity", pos_ok and occ_ok,
                min((r.min_u for r in rows), default=0.0),
                "min u >= 0 and every selected well carries a bump")
    )

    lin_ok = True
    lin_margin = math.inf
    thresholds = []
    for gamma, grp in groups.items():
        ok, margin = check_linfty_outside(grp[-1].sup_outside, grp[-1].a0)
        lin_ok &= ok
        lin_margin = min(lin_margin, margin)
        thr = linfty_threshold(grp)
        thresholds.append(f"gamma={'+'.join(map(str, gamma))}: "
                          f"{'never' if thr is None else f'{thr:g}'}")
    verdicts.append(
        Verdict("linfty_outside", lin_ok, lin_margin,
                "empirical lambda thresholds " + "; ".join(thresholds))
    )

    trend_ok = True
    worst = 0.0
    for grp in groups.values():
        if len(grp) < 3:
            continue
        ok1, w1 = _tail_decreasing([r.lambda_v_mass for r in grp])
        ok2, w2 = _tail_decreasing([r.outside_norm_sq for r in grp])
        trend_ok &= ok1 and ok2
        worst = max(worst, w1, w2)
    verdicts.append(
        Verdict("localization_trend", trend_ok, TREND_SLACK - worst,
                f"worst tail ratio {worst:.4f} (slack {TREND_SLACK})")
    )

    sand_ok = True
    sand_margin = math.inf
    for grp in groups.values():
        row = grp[-1]
        csum = sum(row.c_lambda[j - 1] for j in row.gamma)
        ok, margin = check_sandwich(csum, row.b_upper, row.c_gamma)
        sand_ok &= ok
        sand_margin = min(sand_margin, margin)
    verdicts.append(
        Verdict("energy_sandwich", sand_ok, sand_margin,
                f"allowance {SANDWICH_ALLOWANCE:.0%} of the well-sum level")
    )

    gap_ok = True
    gap_worst = 0.0
    for grp in groups.values():
        row = grp[-1]
        gap = abs(row.phi_total - row.c_gamma) / row.c_gamma
        gap_worst = max(gap_worst, gap)
        gap_ok &= gap <= GAP_TOL
    verdicts.append(
        Verdict("limit_energy_gap", gap_ok, GAP_TOL - gap_worst,
                f"worst relative gap {gap_worst:.3e} at the largest lambda")
    )

    fid_ok = True
    fid_margin = math.inf
    for grp in groups.values():
        frac = grp[-1].mass_frac
        fid_ok &= frac >= FIDELITY
        fid_margin = min(fid_margin, frac - FIDELITY)
    verdicts.append(
        Verdict("bump_fidelity", fid_ok, fid_margin,
                f"required mass fraction {FIDELITY:.0%} in the enlargements")
    )

    if len(wanted) == 2**k - 1:
        masks_seen = {grp[-1].occupied for grp in groups.values()}
        match = all(grp[-1].occupied == gamma for gamma, grp in groups.items())
        mult_ok = len(masks_seen) == 2**k - 1 and match
        detail = (f"{len(masks_seen)} distinct occupation masks of {2**k - 1} "
                  f"expected{no_rows}")
        verdicts.append(
            Verdict("multiplicity", mult_ok,
                    float(len(masks_seen) - (2**k - 1)), detail)
        )
    return verdicts


# -- limit problem -----------------------------------------------------------


@dataclass(frozen=True)
class LimitRow:
    lam: float
    h1_gap: float
    h1_gap_rel: float
    phi_gap_rel: float


def check_limit_problem(records, omegas: list[Field], c_gamma: float) -> list[LimitRow]:
    """Distance of the sweep fields to the superposed well ground states.

    Both the discrete H1 gap and the energy gap should shrink along the
    tail of an ascending sweep as the wells deepen.
    """
    target = Field(omegas[0].grid, sum(w.values for w in omegas))
    tnorm = h1_distance(target, Field.zeros(target.grid))
    out = []
    for rec in records:
        gap = h1_distance(rec.field, target)
        out.append(
            LimitRow(
                lam=rec.lam,
                h1_gap=gap,
                h1_gap_rel=gap / tnorm,
                phi_gap_rel=abs(rec.energy - c_gamma) / abs(c_gamma),
            )
        )
    return out


# -- discretization order ----------------------------------------------------


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
