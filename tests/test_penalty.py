"""Splitting functions: frozen values, identities, and shape properties.

The pieces f1, f2 and g2 are the reference in `oracles.Splitting`; the
package evaluates only their combination, `PenalizationParams.terms`,
which is checked against them here.
"""

import math

import numpy as np
import pytest

from logbump.penalty import (
    DELTA_MAX,
    U_FLOOR,
    make_params,
    s_log_sq,
    solve_a0,
    sq_log_sq,
)

from oracles import Splitting

DELTA = math.exp(-2.0)


@pytest.fixture(scope="module")
def params():
    return Splitting(make_params())


def central_diff(fn, s, step=1e-5):
    return (fn(s + step) - fn(s - step)) / (2.0 * step)


# -- elementary helpers ------------------------------------------------------


def test_sq_log_sq_values():
    assert sq_log_sq(0.0) == 0.0
    assert sq_log_sq(1e-320) == 0.0
    assert math.isclose(sq_log_sq(2.0), 4.0 * math.log(4.0), rel_tol=1e-14)
    assert math.isclose(sq_log_sq(-2.0), sq_log_sq(2.0), rel_tol=0.0)
    # graceful under squared underflow
    assert sq_log_sq(1e-200) == 0.0 or abs(sq_log_sq(1e-200)) < 1e-300


def test_s_log_sq_values():
    assert s_log_sq(0.0) == 0.0
    assert math.isclose(s_log_sq(3.0), 3.0 * math.log(9.0), rel_tol=1e-14)
    assert s_log_sq(-3.0) == -s_log_sq(3.0)


# -- f1 ------------------------------------------------------------------------


def test_f1_frozen_values(params):
    assert params.f1(0.0) == 0.0
    assert abs(params.f1(DELTA) - 2.0 * math.exp(-4.0)) < 1e-15
    # both branches agree at the splitting threshold
    eps = 1e-12
    assert abs(params.f1(DELTA - eps) - params.f1(DELTA + eps)) < 1e-11


def test_f1_even_and_nonnegative(params):
    s = np.linspace(-6.0, 6.0, 1201)
    vals = params.f1(s)
    assert np.all(vals >= 0.0)
    assert np.abs(vals - params.f1(-s)).max() == 0.0


def test_f1_convexity(params):
    # second difference nonnegative when delta <= e^(-3/2)
    s = np.linspace(-5.0, 5.0, 2001)
    step = 1e-4
    second = (
        np.asarray(params.f1(s + step))
        - 2.0 * np.asarray(params.f1(s))
        + np.asarray(params.f1(s - step))
    ) / step**2
    assert second.min() >= -1e-10


def test_df1_frozen_values(params):
    assert params.df1(0.0) == 0.0
    assert abs(params.df1(1.0) - (1.0 + 2.0 * math.exp(-2.0))) < 1e-14


def test_df1_sign_and_fd(params):
    s = np.linspace(-5.0, 5.0, 801)
    assert np.min(np.asarray(params.df1(s)) * s) >= -1e-300
    # central differences away from the kink set {0, +-delta}
    for x in (0.05, 0.11, 0.4, 1.3, 2.7, -0.07, -3.1):
        fd = central_diff(params.f1, x)
        assert abs(fd - params.df1(x)) < 1e-6


def test_second_derivatives_fd(params):
    # central differences away from the kink set {0, +-delta, a0}
    for x in (0.05, 0.11, 0.2, 0.4, 1.3, 2.7, -0.07, -0.3):
        assert abs(central_diff(params.df1, x) - params.d2f1(x)) < 1e-6
        assert abs(central_diff(params.df2, x) - params.d2f2(x)) < 1e-6
        for in_gamma in (True, False):
            fd = central_diff(lambda t: params.dg2(in_gamma, t), x)
            assert abs(fd - params.d2g2(in_gamma, x)) < 1e-6
    assert params.d2g2(False, 2.7) == params.l
    # the floor keeps f1'' finite on the clipped zero nodes
    assert params.d2f1(0.0) == -(2.0 * math.log(U_FLOOR) + 3.0)


# -- f2 ------------------------------------------------------------------------


def test_f2_frozen_values(params):
    assert params.f2(0.5 * DELTA) == 0.0
    direct = (
        0.5 * math.log(1.0 / DELTA**2)
        + 2.0 * DELTA
        - 1.5
        - 0.5 * DELTA**2
    )
    assert abs(params.f2(1.0) - direct) < 1e-14


def test_f2_c1_across_threshold(params):
    eps = 1e-8
    assert abs(params.f2(DELTA + eps)) < 1e-7
    assert abs(params.df2(DELTA)) == 0.0
    assert abs(params.df2(DELTA + eps)) < 1e-6


def test_df2_frozen_values(params):
    assert params.df2(DELTA) == 0.0
    assert abs(params.df2(1.0) - (2.0 + 2.0 * math.exp(-2.0))) < 1e-14
    # cross-check df2(1) - df1(1) = 1 * log(1) + 1
    assert abs((params.df2(1.0) - params.df1(1.0)) - 1.0) < 1e-14


def test_df2_fd_and_difference_identity(params):
    for x in (0.2, 0.5, 1.7, 4.2, -0.9, -2.2):
        fd = central_diff(params.f2, x)
        assert abs(fd - params.df2(x)) < 1e-6
    s = np.linspace(DELTA, 50.0, 4001)
    lhs = np.asarray(params.df2(s)) - np.asarray(params.df1(s))
    rhs = np.asarray(s_log_sq(s)) + s
    assert np.abs(lhs - rhs).max() < 1e-12 * (1.0 + np.abs(rhs).max())


def test_df2_over_s_nondecreasing(params):
    s = np.linspace(DELTA, 10.0, 4000)
    ratio = np.asarray(params.df2(s)) / s
    assert np.all(np.diff(ratio) >= -1e-14)


def test_df2_growth_bound(params):
    # |df2(s)| <= C |s|^(p-1) with the fitted constant (diagnostic)
    s = np.logspace(-3, 3, 2000)
    ratio = np.abs(np.asarray(params.df2(s))) / s ** (params.p - 1.0)
    c_fit = ratio.max()
    assert np.isfinite(c_fit) and c_fit > 0.0
    dense = np.logspace(-3, 3, 40001)
    dense_ratio = np.abs(np.asarray(params.df2(dense))) / dense ** (params.p - 1.0)
    assert dense_ratio.max() <= c_fit * (1.0 + 1e-3)


# -- the splitting identity ----------------------------------------------------


def test_splitting_identity_dense(params):
    s = np.concatenate(
        [np.logspace(-8, 3, 10000), -np.logspace(-8, 3, 101), [0.0]]
    )
    resid = np.abs(
        np.asarray(params.f2(s))
        - np.asarray(params.f1(s))
        - 0.5 * np.asarray(sq_log_sq(s))
    )
    assert resid.max() < 1e-12


def test_splitting_identity_spot_values(params):
    for s in (0.3, 1.0, 2.0, 5.0):
        resid = params.f2(s) - params.f1(s) - 0.5 * sq_log_sq(s)
        assert abs(resid) < 1e-12


def test_splitting_identity_other_delta():
    params = Splitting(make_params(delta=math.exp(-3.0)))
    s = np.logspace(-8, 3, 10000)
    resid = np.abs(
        np.asarray(params.f2(s))
        - np.asarray(params.f1(s))
        - 0.5 * np.asarray(sq_log_sq(s))
    )
    assert resid.max() < 1e-12


# -- truncation -----------------------------------------------------------------


def test_solve_a0_reference_value(params):
    # independent root bracketing oracle
    from scipy.optimize import brentq

    def g(s):
        return math.log(s * s / DELTA**2) - 2.0 + 2.0 * DELTA / s - 0.5

    oracle = brentq(g, DELTA, 10.0, xtol=1e-15, rtol=8.9e-16)
    assert abs(params.a0 - oracle) < 1e-12
    assert abs(params.a0 - 0.3015612819807286) < 1e-12
    assert abs(g(params.a0)) < 1e-12


def test_solve_a0_small_slope_limit():
    a0 = solve_a0(DELTA, 1e-8)
    assert DELTA < a0 < DELTA * 1.001


def test_solve_a0_monotone_in_slope():
    vals = [solve_a0(DELTA, l) for l in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        make_params(l=1.5)
    with pytest.raises(ValueError):
        make_params(l=0.0)
    with pytest.raises(ValueError):
        make_params(delta=0.5)
    assert make_params(delta=DELTA_MAX).delta == DELTA_MAX


def test_df2_tilde(params):
    a0, l = params.a0, params.l
    assert abs(params.df2_tilde(a0) - l * a0) < 1e-12
    assert params.df2_tilde(0.0) == 0.0
    assert params.df2_tilde(2.0 * a0) == l * (2.0 * a0)
    s = np.linspace(0.0, 10.0, 4001)
    vals = np.asarray(params.df2_tilde(s))
    assert np.all(vals * s <= l * s * s + 1e-15)
    with pytest.raises(ValueError):
        params.df2_tilde(-1.0)


def test_g2_switching(params):
    a0 = params.a0
    t = np.linspace(-1.0, 5.0, 1201)
    inside = np.asarray(params.g2(True, t))
    assert np.abs(inside - np.asarray(params.f2(t))).max() == 0.0
    below = np.linspace(0.0, a0, 301)
    assert np.abs(
        np.asarray(params.g2(False, below)) - np.asarray(params.f2(below))
    ).max() == 0.0
    assert params.g2(False, 2.0 * a0) <= params.f2(2.0 * a0)
    ts = np.linspace(0.0, 6.0, 2001)
    assert np.all(
        np.asarray(params.g2(False, ts)) <= np.asarray(params.f2(ts)) + 1e-15
    )


def test_g2_antiderivative_of_dg2(params):
    for in_gamma in (True, False):
        for t in (0.1, 0.2, 0.5, 1.5, 3.0):
            fd = central_diff(lambda x: params.g2(in_gamma, x), t)
            assert abs(fd - params.dg2(in_gamma, t)) < 1e-6
    assert params.g2(True, 0.0) == 0.0
    assert params.g2(False, 0.0) == 0.0


def test_dg2_continuity_at_a0(params):
    eps = 1e-9
    lo = params.dg2(False, params.a0 - eps)
    hi = params.dg2(False, params.a0 + eps)
    assert abs(lo - hi) < 1e-7


# -- the closed-form kernel ------------------------------------------------------


@pytest.mark.parametrize("delta, l", [(DELTA, 0.5), (math.exp(-3.0), 0.3)])
def test_terms_match_the_piecewise_splitting(delta, l):
    params = make_params(delta=delta, l=l)
    ref = Splitting(params)
    d, a0 = params.delta, params.a0
    mag = np.concatenate([
        np.logspace(-200.0, 1.0, 2001),
        np.linspace(0.0, 3.0, 1201),
        [0.0, 5e-324, 1e-310, 1e-160, U_FLOOR],
        # the kinks and their neighbouring floats
        np.concatenate([np.array([d, a0]) * (1.0 + k * 2.2e-16) for k in range(-3, 4)]),
    ])
    u = np.concatenate([mag, -mag])
    in_gamma = np.arange(u.size) % 2 == 0
    got, want = params.terms(in_gamma, u), ref.terms(in_gamma, u)
    for kind in (in_gamma, ~in_gamma):
        assert np.any(kind & (u > a0)) and np.any(kind & (u <= -d))
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-14 * np.maximum(1.0, np.abs(w)))
