"""Convex splitting of the logarithmic nonlinearity and its truncation.

The nonlinear term u log u^2 is handled through the decomposition

    (1/2) s^2 log s^2 = f2(s) - f1(s),

where f1 is convex, even and nonnegative on all of R (for a small enough
splitting threshold delta) and f2 has clean power growth.  Outside the
selected wells the derivative f2' is replaced above a threshold a0 by the
sublinear slope l*s, which is what keeps the auxiliary problem compact and
forces solutions to stay small away from the wells.

All functions are elementwise and accept scalars or numpy arrays.
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
DEFAULT_GROWTH = 3.0

_LOG_GUARD = 1e-300
# u^2 log u^2 terms treat |u| below this as exactly 0 to avoid -inf * 0, and
# second derivatives floor |u| at it inside the log to stay finite at 0.
U_FLOOR = 1e-150


def _maybe_scalar(out, like):
    return float(out) if np.ndim(like) == 0 else out


def sq_log_sq(s):
    """s^2 * log(s^2), with the removable singularity at 0 filled by 0.

    Evaluated as s^2 * (2 log|s|) so that subnormal underflow of s^2
    degrades gracefully to 0 instead of producing 0 * inf.
    """
    arr = np.asarray(s, dtype=float)
    a = np.abs(arr)
    safe = np.where(a < _LOG_GUARD, 1.0, a)
    out = np.where(a < _LOG_GUARD, 0.0, arr * arr * (2.0 * np.log(safe)))
    return _maybe_scalar(out, s)


def s_log_sq(s):
    """s * log(s^2) with limit 0 at s = 0 (odd, continuous)."""
    arr = np.asarray(s, dtype=float)
    a = np.abs(arr)
    safe = np.where(a < _LOG_GUARD, 1.0, a)
    out = np.where(a < _LOG_GUARD, 0.0, arr * (2.0 * np.log(safe)))
    return _maybe_scalar(out, s)


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

    lo, hi = delta, 1e6 * delta
    if not g(lo) <= 0.0 <= g(hi):
        raise ValueError("truncation slope not bracketed; invalid (delta, l)")
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
        raise ValueError("bisection for a0 failed to reach residual 1e-12")
    return a0


@dataclass(frozen=True)
class PenalizationParams:
    """Splitting threshold delta, truncation slope l, derived threshold a0,
    and the growth exponent p (diagnostic only, never used by the solver)."""

    delta: float
    l: float
    a0: float
    p: float

    def _upper_sum(self, s):
        # f2 on |s| >= delta, evaluated as f1_upper + (1/2) s^2 log s^2.
        # Algebraically identical to
        #   (1/2) s^2 log(s^2/delta^2) + 2 delta |s| - (3/2) s^2 - delta^2/2,
        # and the shared rounding lets f2 - f1 recover the logarithmic term
        # exactly in floating point (Sterbenz cancellation in f1 below).
        a = np.abs(np.asarray(s, dtype=float))
        upper_f1 = (
            -0.5 * a * a * (math.log(self.delta**2) + 3.0)
            + 2.0 * self.delta * a
            - 0.5 * self.delta**2
        )
        return upper_f1 + 0.5 * sq_log_sq(s)

    def f1(self, s):
        """Convex, even, nonnegative piece of the splitting."""
        arr = np.asarray(s, dtype=float)
        a = np.abs(arr)
        lower = -0.5 * sq_log_sq(arr)
        upper = self._upper_sum(arr) - 0.5 * sq_log_sq(arr)
        out = np.where(a < self.delta, lower, upper)
        return _maybe_scalar(out, s)

    def df1(self, s):
        """Derivative of f1 (odd, continuous, df1(s)*s >= 0)."""
        arr = np.asarray(s, dtype=float)
        a = np.abs(arr)
        lower = -s_log_sq(arr) - arr
        upper = -arr * (math.log(self.delta**2) + 3.0) + 2.0 * self.delta * np.sign(arr)
        out = np.where(a < self.delta, lower, upper)
        return _maybe_scalar(out, s)

    def d2f1(self, s):
        """Second derivative of f1: -(log s^2 + 3) below delta, constant
        -(log delta^2 + 3) above.  |s| is floored at U_FLOOR in the log, so
        s = 0 gets a large finite value instead of +inf."""
        a = np.abs(np.asarray(s, dtype=float))
        lower = -(2.0 * np.log(np.maximum(a, U_FLOOR)) + 3.0)
        out = np.where(a < self.delta, lower, -(math.log(self.delta**2) + 3.0))
        return _maybe_scalar(out, s)

    def f2(self, s):
        """Power-growth piece: 0 below delta, C^1 across +-delta."""
        arr = np.asarray(s, dtype=float)
        a = np.abs(arr)
        out = np.where(a < self.delta, 0.0, self._upper_sum(arr))
        return _maybe_scalar(out, s)

    def df2(self, s):
        """Derivative of f2 (odd, df2(+-delta) = 0, df2(s)/s nondecreasing)."""
        arr = np.asarray(s, dtype=float)
        a = np.abs(arr)
        sgn = np.sign(arr)
        a_safe = np.where(a < self.delta, self.delta, a)
        upper = sgn * (
            a_safe * np.log(a_safe * a_safe / self.delta**2)
            - 2.0 * a_safe
            + 2.0 * self.delta
        )
        out = np.where(a < self.delta, 0.0, upper)
        return _maybe_scalar(out, s)

    def d2f2(self, s):
        """Second derivative of f2: log(s^2/delta^2) above delta, 0 below."""
        a = np.abs(np.asarray(s, dtype=float))
        upper = 2.0 * np.log(np.maximum(a, self.delta) / self.delta)
        out = np.where(a < self.delta, 0.0, upper)
        return _maybe_scalar(out, s)

    def _df2_tilde_raw(self, s):
        arr = np.asarray(s, dtype=float)
        return np.where(arr <= self.a0, np.asarray(self.df2(arr)), self.l * arr)

    def df2_tilde(self, s):
        """Truncated derivative: df2 up to a0, then the linear slope l*s."""
        arr = np.asarray(s, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("df2_tilde is defined for s >= 0 only")
        return _maybe_scalar(self._df2_tilde_raw(arr), s)

    def dg2(self, in_gamma, t):
        """Spatially switched derivative: df2 inside the enlarged wells,
        the truncated df2_tilde outside.  Negative t is evaluated at t+ = 0
        in the outside branch, matching how the problem tests with u+."""
        arr = np.asarray(t, dtype=float)
        tp = np.maximum(arr, 0.0)
        out = np.where(in_gamma, np.asarray(self.df2(arr)), self._df2_tilde_raw(tp))
        return _maybe_scalar(out, t)

    def d2g2(self, in_gamma, t):
        """Derivative of dg2 in t: d2f2 inside the enlarged wells; outside,
        d2f2 up to a0 and the slope l above it, at t+ like dg2."""
        arr = np.asarray(t, dtype=float)
        tp = np.maximum(arr, 0.0)
        outside = np.where(tp <= self.a0, np.asarray(self.d2f2(tp)), self.l)
        out = np.where(in_gamma, np.asarray(self.d2f2(arr)), outside)
        return _maybe_scalar(out, t)

    def _g2_outside(self, t):
        # Antiderivative of df2_tilde on t >= 0, closed form above a0.
        arr = np.asarray(t, dtype=float)
        capped = np.minimum(arr, self.a0)
        beyond = np.asarray(self.f2(self.a0)) + 0.5 * self.l * (arr * arr - self.a0**2)
        return np.where(arr <= self.a0, np.asarray(self.f2(capped)), beyond)

    def g2(self, in_gamma, t):
        """Antiderivative of dg2 with g2(., 0) = 0; g2(x, t) <= f2(t)."""
        arr = np.asarray(t, dtype=float)
        tp = np.maximum(arr, 0.0)
        out = np.where(in_gamma, np.asarray(self.f2(arr)), self._g2_outside(tp))
        return _maybe_scalar(out, t)


def make_params(
    delta: float = DEFAULT_DELTA,
    l: float = DEFAULT_SLOPE,
    p: float = DEFAULT_GROWTH,
) -> PenalizationParams:
    """Validate the splitting constants and derive a0 (`solve_a0` checks
    delta and l)."""
    if not p > 2.0:
        raise ValueError(f"p: growth exponent must exceed 2 (got {p!r})")
    return PenalizationParams(delta=delta, l=l, a0=solve_a0(delta, l), p=p)
