"""Convex splitting of the logarithmic nonlinearity and its truncation.

The nonlinear term u log u^2 is handled through the decomposition

    (1/2) s^2 log s^2 = f2(s) - f1(s),

where f1 is convex, even and nonnegative on all of R (for a small enough
splitting threshold delta) and f2 has clean power growth.  Outside the
selected wells the derivative f2' is replaced above a threshold a0 by the
sublinear slope l*s, which is what keeps the auxiliary problem compact and
forces solutions to stay small away from the wells; g2(x, .) is the
antiderivative of the switched slope.

The solvers only need F(x, u) = f1(u) - g2(x, u+) and its first two
derivatives in u.  Wherever g2 = f2 the splitting cancels and F is the
log term itself, so `PenalizationParams.terms` evaluates all three in
closed form, region by region, from one log pass.  The elementwise
helpers accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest delta keeping f1 convex: f1''(s) = -(log s^2 + 3) >= 0 on (0, delta)
# requires delta <= e^(-3/2).
DELTA_MAX = math.exp(-1.5)
DEFAULT_DELTA = math.exp(-2.0)
DEFAULT_SLOPE = 0.5

_LOG_GUARD = 1e-300
# Second derivatives floor |u| at this inside the log, so that u = 0 gets a
# large finite value.
U_FLOOR = 1e-150
_LOG_U_FLOOR = float(np.log(U_FLOOR))


def sq_log_sq(s):
    """s^2 * log(s^2), with the removable singularity at 0 filled by 0.

    Evaluated as s^2 * (2 log|s|) so that subnormal underflow of s^2
    degrades gracefully to 0 instead of producing 0 * inf.
    """
    arr = np.asarray(s, dtype=float)
    a = np.abs(arr)
    safe = np.where(a < _LOG_GUARD, 1.0, a)
    return np.where(a < _LOG_GUARD, 0.0, arr * arr * (2.0 * np.log(safe)))


def s_log_sq(s):
    """s * log(s^2) with limit 0 at s = 0 (odd, continuous)."""
    arr = np.asarray(s, dtype=float)
    a = np.abs(arr)
    safe = np.where(a < _LOG_GUARD, 1.0, a)
    return np.where(a < _LOG_GUARD, 0.0, arr * (2.0 * np.log(safe)))


def solve_a0(delta: float, l: float) -> float:
    """Truncation threshold a0 > delta defined by df2(a0)/a0 = l.

    df2(s)/s = log(s^2/delta^2) - 2 + 2*delta/s is strictly increasing for
    s > delta (derivative (2/s)(1 - delta/s) > 0) and vanishes at s = delta,
    so bisection on [delta, 1e6*delta] is monotone and safe for 0 < l < 1.
    """
    if not 0.0 < delta <= DELTA_MAX:
        raise ValueError(f"delta: must lie in (0, {DELTA_MAX!r}] to keep f1 convex "
                         f"(got {delta!r})")
    if not 0.0 < l < 1.0:
        raise ValueError(f"l: truncation slope must lie in (0, 1) (got {l!r})")

    def g(s):
        return math.log(s * s / (delta * delta)) - 2.0 + 2.0 * delta / s - l

    # g(delta) = -l < 0 < g(1e6 delta) brackets a0 once delta^2 > 0
    if delta * delta == 0.0:
        raise ValueError(f"delta: its square underflows to 0 (got {delta!r})")
    lo, hi = delta, 1e6 * delta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 0.0:
            break
    a0 = 0.5 * (lo + hi)
    if abs(g(a0)) >= 1e-12:
        raise ValueError(f"delta: too small for the bisection for a0 to reach "
                         f"residual 1e-12 (got {delta!r})")
    return a0


@dataclass(frozen=True)
class PenalizationParams:
    """Splitting threshold delta, truncation slope l and derived threshold
    a0."""

    delta: float
    l: float
    a0: float

    def __post_init__(self):
        # the constant of F outside the wells above a0, through f2(a0)
        a0, d = self.a0, self.delta
        f2_a0 = (0.5 * a0 * a0 * (math.log(a0 * a0 / (d * d)) - 3.0)
                 + 2.0 * d * a0 - 0.5 * d * d)
        beyond = 0.5 * self.l * a0 * a0 - f2_a0 - 0.5 * d * d
        object.__setattr__(self, "_beyond_a0", beyond)

    def terms(self, in_gamma, u):
        """(F, F', F'') of F(x, u) = f1(u) - g2(x, u+) on an array of u,
        from one pass of log|u|.

        Where g2 = f2 (u >= 0 in the enlarged wells `in_gamma`, and
        -delta < u <= a0 anywhere) the splitting leaves the log term itself:
        -1/2 u^2 log u^2, -u (log u^2 + 1) and -(log u^2 + 3).  For
        u <= -delta only f1's branch above delta remains, and outside the
        wells above a0 that branch minus f2(a0) + (l/2)(u^2 - a0^2).  |u| is
        floored at U_FLOOR in F'' only, so u = 0 gets a large finite value.
        """
        u = np.asarray(u, dtype=float)
        log_a = np.log(np.maximum(np.abs(u), _LOG_GUARD))
        dens = -u * u * log_a
        d1 = -u * (2.0 * log_a + 1.0)
        d2 = -(2.0 * np.maximum(log_a, _LOG_U_FLOOR) + 3.0)
        d = self.delta
        c = math.log(d * d) + 3.0  # -f1'' above delta
        low = u <= -d
        s = u[low]
        dens[low] = -0.5 * c * s * s - 2.0 * d * s - 0.5 * d * d
        d1[low] = -c * s - 2.0 * d
        d2[low] = -c
        high = (u > self.a0) & ~np.asarray(in_gamma, dtype=bool)
        s = u[high]
        dens[high] = -0.5 * (c + self.l) * s * s + 2.0 * d * s + self._beyond_a0
        d1[high] = -(c + self.l) * s + 2.0 * d
        d2[high] = -(c + self.l)
        return dens, d1, d2


def make_params(delta: float = DEFAULT_DELTA,
                l: float = DEFAULT_SLOPE) -> PenalizationParams:
    """Validate the splitting constants and derive a0 (`solve_a0` checks
    delta and l)."""
    return PenalizationParams(delta=delta, l=l, a0=solve_a0(delta, l))
