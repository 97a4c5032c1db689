"""Measurable checks of the localization and multiplicity predictions.

Each check is a pure function of recorded numbers, so every verdict can be
recomputed from the emitted CSV without rerunning solves.  Empirical
thresholds (the lambda beyond which a bound first holds) are discovered
and reported, never asserted a priori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def check_linfty_outside(sup_outside: float, a0: float) -> float:
    """Margin a0 - sup of the sup bound outside the enlarged wells."""
    return a0 - sup_outside


def linfty_threshold(rows: list[SweepRow]):
    """Smallest recorded lambda from which the sup bound holds onward.

    Returns None when the bound fails at the largest lambda.
    """
    rows = sorted(rows, key=lambda r: r.lam)
    threshold = None
    for row in rows:
        if check_linfty_outside(row.sup_outside, row.a0) >= 0.0:
            if threshold is None:
                threshold = row.lam
        else:
            threshold = None
    return threshold


def check_sandwich(sum_c_lambda: float, b_upper: float, c_gamma: float) -> float:
    """Margin of the two-sided level bound with the resolution allowance
    SANDWICH_ALLOWANCE of the upper level: the smaller of its two sides."""
    eps = SANDWICH_ALLOWANCE * c_gamma
    return min(b_upper - (sum_c_lambda - eps), (c_gamma + eps) - b_upper)


def _extreme(pick, values) -> float:
    """pick(values), or nan when a value is nan or there is none, so the
    result does not depend on the order of the values."""
    if not values or any(math.isnan(v) for v in values):
        return math.nan
    return pick(values)


def _judge(name: str, margins: list[float], detail: str) -> Verdict:
    """The one pass/fail rule of the row-based verdicts.

    The verdict passes when every margin it judges is >= 0 and fails when
    it judges none; the margin reported is the smallest, nan if any is.
    """
    margin = _extreme(min, margins)
    return Verdict(name, margin >= 0.0, margin,
                   detail if margins else "nothing to judge")


def _tail_ratios(values: list[float]) -> list[float]:
    """Ratios v[i+1]/v[i] over the last TREND_TAIL values."""
    vals = values[-TREND_TAIL:]
    return [b / a if a > 0 else math.inf for a, b in zip(vals, vals[1:])]


def compute_verdicts(
    rows: list[SweepRow],
    k: int,
    selections=None,
) -> list[Verdict]:
    """All pass/fail verdicts derivable from the recorded rows.

    `selections` lists the well selections the run asked for (default: the
    ones present in the rows).  One with no rows (its solves failed or were
    skipped) fails convergence.  The multiplicity verdict is given when
    they are all 2^k - 1 of them, and fails if any has no rows.  Every
    other verdict judges a margin per row or per selection (`_judge`); the
    trend judges the selections with at least two lambdas.
    """
    groups = _groups(rows)
    top_rows = [grp[-1] for grp in groups.values()]
    wanted = set(groups) if selections is None else {tuple(g) for g in selections}
    missing = sorted(wanted - set(groups))
    no_rows = "; no rows for gamma " + ", ".join(
        "+".join(map(str, g)) for g in missing) if missing else ""

    solved = all(r.converged for r in rows)
    detail = "all solves converged" if solved else "flagged solves present"
    verdicts = [Verdict("convergence", solved and not missing, 0.0, detail + no_rows)]

    positivity = _judge("positivity", [r.min_u for r in rows],
                        "min u >= 0 and every selected well carries a bump")
    occupied = all(r.occupied == r.gamma for r in top_rows)
    verdicts.append(replace(positivity, passed=positivity.passed and occupied))

    thresholds = {gamma: linfty_threshold(grp) for gamma, grp in groups.items()}
    verdicts.append(_judge(
        "linfty_outside",
        [check_linfty_outside(r.sup_outside, r.a0) for r in top_rows],
        "empirical lambda thresholds " + "; ".join(
            f"gamma={'+'.join(map(str, gamma))}: "
            f"{'never' if thr is None else f'{thr:g}'}"
            for gamma, thr in thresholds.items())))

    worst = [
        _extreme(max, _tail_ratios([r.lambda_v_mass for r in grp])
                 + _tail_ratios([r.outside_norm_sq for r in grp]))
        for grp in groups.values() if len(grp) >= 2
    ]
    verdicts.append(_judge(
        "localization_trend", [TREND_SLACK - w for w in worst],
        f"worst tail ratio {_extreme(max, worst):.4f} (slack {TREND_SLACK})"))

    verdicts.append(_judge(
        "energy_sandwich",
        [check_sandwich(sum(r.c_lambda[j - 1] for j in r.gamma),
                        r.b_upper, r.c_gamma) for r in top_rows],
        f"allowance {SANDWICH_ALLOWANCE:.0%} of the well-sum level"))

    gaps = [abs(r.phi_total - r.c_gamma) / r.c_gamma for r in top_rows]
    verdicts.append(_judge(
        "limit_energy_gap", [GAP_TOL - gap for gap in gaps],
        f"worst relative gap {_extreme(max, gaps):.3e} at the largest lambda"))

    verdicts.append(_judge(
        "bump_fidelity", [r.mass_frac - FIDELITY for r in top_rows],
        f"required mass fraction {FIDELITY:.0%} in the enlargements"))

    if len(wanted) == 2**k - 1:
        masks_seen = {r.occupied for r in top_rows}
        mult_ok = len(masks_seen) == 2**k - 1 and occupied
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
