"""Tests for the scalar Cauchy solver, the second-kind resolvent, and the
composition identity.

Frozen expected values come from elementary reductions (exponential and
erfc special cases, equilibrium fixed points); everything else is checked
through independent identities and substitution residuals.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hbdiff.operators import EKParams, FracParams, SampledFunction, ek_integral, make_time_grid
from hbdiff.quadrature import ml_product_matrix, ml_product_row, power_kernel_weights
from hbdiff.scalar import (
    ConstantForcing,
    ScalarProblem,
    ZeroForcing,
    lambda_star,
    prabhakar_compose,
    solve_scalar,
    solve_scalar_batch,
    solve_scalar_constant,
    solve_second_kind,
)
from hbdiff.special import gamma, ml_one, ml_one_array


def make_grid(fp, horizon=1.0, n=512):
    return make_time_grid(horizon, n, fp.rho)


# ---------------------------------------------------------------------------
# solve_scalar

def test_zero_forcing_reproduces_ml_decay():
    fp = FracParams(0.6, 0.3)
    t = make_grid(fp)
    prob = ScalarProblem(fp, 2.5, 1.0, ZeroForcing())
    u = solve_scalar(prob, t)
    ls = lambda_star(fp, 2.5)
    want = ml_one_array(0.6, ls * t ** (fp.rho * 0.6))
    assert_allclose(u.values, want, rtol=1e-14)
    assert u.values[0] == 1.0


def test_half_order_point_value():
    # alpha=1/2, theta=0, lam=1: u(1) = E_{1/2}(-1), the erfc special case
    fp = FracParams(0.5, 0.0)
    t = make_grid(fp)
    u = solve_scalar(ScalarProblem(fp, 1.0, 1.0), t)
    assert_allclose(u.value_at(1.0), 0.4275835761558070, rtol=1e-12)


def test_constant_forcing_equilibrium_fixed_point():
    # u0 = f0/lam: the solution never moves
    fp = FracParams(0.45, 0.2)
    t = make_grid(fp)
    prob = ScalarProblem(fp, 2.0, 1.0, ConstantForcing(2.0))
    u = solve_scalar(prob, t)
    assert_allclose(u.values, np.ones_like(t), rtol=0, atol=1e-11)


def test_solve_scalar_agrees_with_constant_closed_form():
    fp = FracParams(0.7, -0.5)
    t = make_grid(fp, horizon=2.0)
    got = solve_scalar(ScalarProblem(fp, 3.0, 0.4, ConstantForcing(-1.2)), t)
    want = solve_scalar_constant(fp, 3.0, 0.4, -1.2, t)
    assert_allclose(got.values, want.values, rtol=1e-10, atol=1e-13)


def test_solve_scalar_lambda_zero_pure_integration():
    # lam = 0 leaves u = u0 + the fractional integral of f
    fp = FracParams(0.5, 0.0)
    t = make_grid(fp)
    u = solve_scalar(ScalarProblem(fp, 0.0, 0.3, ConstantForcing(2.0)), t)
    from hbdiff.special import gamma

    want = 0.3 + 2.0 * t**0.5 / gamma(1.5)
    assert_allclose(u.values, want, rtol=1e-12, atol=1e-14)


def test_solve_scalar_sampled_forcing_residual():
    # substitute the solution into the integral form of the equation:
    # u(s) = u0 + (1/Gamma(a)) int (s-sig)^(a-1) [f/rho^a + ls u] dsig
    fp = FracParams(0.6, 0.4)
    lam = 1.7
    t = make_time_grid(1.0, 512, fp.rho)
    forcing = SampledFunction.from_callable(lambda tt: np.cos(2.0 * tt), t)
    prob = ScalarProblem(fp, lam, 0.8, forcing)
    u = solve_scalar(prob, t)
    s = t**fp.rho
    ls = lambda_star(fp, lam)
    from hbdiff.quadrature import power_kernel_weights
    from hbdiff.special import gamma

    W = power_kernel_weights(s, fp.alpha)
    rhs = 0.8 + (W @ (forcing.values / fp.rho**fp.alpha + ls * u.values)) / gamma(fp.alpha)
    # the residual reflects interpolation of u's fractional-power start
    assert np.max(np.abs(u.values - rhs)) < 2e-4


def test_solve_scalar_interpolates_on_non_stretched_grids():
    fp = FracParams(0.5, 0.5)
    t_uniform = np.linspace(0.0, 1.0, 65)  # not uniform in s = t^rho
    u = solve_scalar(ScalarProblem(fp, 1.0, 1.0), t_uniform)
    ls = lambda_star(fp, 1.0)
    want = ml_one_array(0.5, ls * t_uniform ** (fp.rho * 0.5))
    assert_allclose(u.values, want, rtol=0, atol=2e-6)


def test_solvers_accept_clock_grid_printed_to_12_digits():
    # times written to 12 significant digits keep a clock uniform to 1e-9
    tgrid = make_time_grid(1.0, 512, 0.7)
    printed = np.array([float(f"{v:.11e}") for v in tgrid])
    assert np.any(printed != tgrid)
    fine = np.linspace(0.0, 1.0, 4097)
    f = SampledFunction(fine, 1.0 + fine * np.cos(3.0 * fine))
    prob = ScalarProblem(FracParams(0.6, 0.3), 2.0, 0.8, f)
    p = EKParams(0.7, 0.3, 0.6)
    for solve in (lambda g: solve_scalar(prob, g), lambda g: solve_second_kind(f, 1.5, p, g)):
        assert_allclose(solve(printed).values, solve(tgrid).values, rtol=0, atol=1e-9)


def test_merged_kernel_matches_two_term_reference():
    # criterion 4's draws: the single E_{a,a} kernel applied by lag FFT
    # against the dense two-term sum it replaces (the power kernel over
    # Gamma(a) plus ls u^(2a-1) E_{a,2a})
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10):
        alpha = rng.uniform(0.3, 0.9)
        theta = rng.uniform(-1.0, 0.7)
        lam = rng.uniform(0.1, 10.0)
        u0 = rng.uniform(-1.0, 1.0)
        c = rng.uniform(-1.0, 1.0, size=4)
        fp = FracParams(alpha, theta)
        for n in (512, 1024):
            t = make_time_grid(1.0, n, fp.rho)
            f = c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3
            got = solve_scalar(ScalarProblem(fp, lam, u0, SampledFunction(t, f)), t).values
            s = t**fp.rho
            ls = lambda_star(fp, lam)
            ra = fp.rho**alpha
            want = (
                u0 * ml_one_array(alpha, ls * s**alpha)
                + power_kernel_weights(s, alpha) @ f / (ra * gamma(alpha))
                + (ls / ra) * (ml_product_matrix(s, alpha, 2.0 * alpha, ls) @ f)
            )
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert worst <= 1e-12


def test_batch_rows_match_single_solves():
    fp = FracParams(0.7, 0.2)
    t = make_grid(fp, n=256)
    lam = np.array([0.0, 1.0, 90.0, -0.5])
    u0 = np.array([0.3, -1.0, 0.5, 2.0])
    rows = np.vstack([np.cos(k * t) for k in range(1, 5)])
    got = solve_scalar_batch(fp, lam, u0, t, rows)
    for k in range(4):
        one = solve_scalar(ScalarProblem(fp, lam[k], u0[k], SampledFunction(t, rows[k])), t)
        assert_allclose(got[k], one.values, rtol=0, atol=1e-14 * np.max(np.abs(one.values)))
    decay = ml_one_array(0.7, lambda_star(fp, lam)[:, None] * t ** (fp.rho * 0.7))
    assert_allclose(solve_scalar_batch(fp, lam, u0, t), u0[:, None] * decay, rtol=1e-14)


def test_solve_scalar_validation():
    fp = FracParams(0.5, 0.0)
    prob = ScalarProblem(fp, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_scalar(prob, [])
    with pytest.raises(ValueError):
        solve_scalar(prob, [0.5, 1.0])  # must start at 0
    with pytest.raises(ValueError):
        solve_scalar(prob, [0.0, 1.0, 0.5])
    short = SampledFunction(np.linspace(0.0, 0.5, 9), np.ones(9))
    with pytest.raises(ValueError):
        solve_scalar(ScalarProblem(fp, 1.0, 1.0, short), np.linspace(0.0, 1.0, 9))
    with pytest.raises(ValueError):
        ScalarProblem(fp, math.inf, 1.0)
    with pytest.raises(ValueError):
        ScalarProblem(fp, 1.0, 1.0, forcing="nope")


def test_resummation_identity():
    # 1 + ls * int_0^s (s-sig)^(a-1) E_{a,a}(ls (s-sig)^a) dsig = E_a(ls s^a)
    for alpha, ls in ((0.4, -2.0), (0.75, -0.7), (0.6, 0.9)):
        s = np.linspace(0.0, 1.2, 257)
        lhs = 1.0 + ls * (ml_product_row(s, alpha, alpha, ls) @ np.ones(s.size))
        rhs = ml_one(alpha, ls * 1.2**alpha)
        assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# solve_scalar_constant

def test_constant_solver_zero_forcing_reduction():
    fp = FracParams(0.35, 0.1)
    t = make_grid(fp)
    got = solve_scalar_constant(fp, 4.0, 2.0, 0.0, t)
    want = 2.0 * ml_one_array(0.35, lambda_star(fp, 4.0) * t ** (fp.rho * 0.35))
    assert_allclose(got.values, want, rtol=1e-14)


def test_constant_solver_frozen_point():
    fp = FracParams(0.5, 0.0)
    t = make_grid(fp)
    got = solve_scalar_constant(fp, 1.0, 0.0, 1.0, t)
    assert_allclose(got.value_at(1.0), 0.5724164238441930, rtol=1e-12)
    assert got.values[0] == 0.0


def test_constant_solver_rejects_lambda_zero():
    fp = FracParams(0.5, 0.0)
    with pytest.raises(ValueError):
        solve_scalar_constant(fp, 0.0, 1.0, 1.0, np.linspace(0.0, 1.0, 9))


# ---------------------------------------------------------------------------
# second-kind integral equation

def test_second_kind_exponential():
    # beta=1, gamma=0, delta=1, lam=1, f=1: y' - y = 0 shape, y = e^t
    grid = np.linspace(0.0, 1.0, 257)
    f = SampledFunction(grid, np.ones_like(grid))
    y = solve_second_kind(f, 1.0, EKParams(1.0, 0.0, 1.0), grid)
    assert_allclose(y.values, np.exp(grid), rtol=1e-12)


def test_second_kind_trivial_cases():
    grid = np.linspace(0.0, 1.0, 65)
    f = SampledFunction(grid, np.sin(grid))
    y = solve_second_kind(f, 0.0, EKParams(1.2, 0.3, 0.6), grid)
    assert_allclose(y.values, f.values, rtol=0, atol=0)
    z = SampledFunction(grid, np.zeros_like(grid))
    y0 = solve_second_kind(z, 2.0, EKParams(1.0, 0.0, 0.5), grid)
    assert np.all(y0.values == 0.0)


@pytest.mark.parametrize("gamma_w", [0.0, 0.4])
def test_second_kind_substitution_residual(gamma_w):
    # y - lam t^(beta delta) I^{gamma,delta} y should reproduce f
    beta, delta, lam = 1.3, 0.6, -1.5
    tgrid = np.linspace(0.0, 1.0, 513) ** (1.0 / beta)
    f = SampledFunction.from_callable(lambda tt: np.cos(1.5 * tt) + 0.5, tgrid)
    p = EKParams(beta, gamma_w, delta)
    y = solve_second_kind(f, lam, p, tgrid)
    for t in (0.3, 0.7, 1.0):
        ik = ek_integral(y, p, t)
        resid = y.value_at(t) - lam * t ** (beta * delta) * ik - f.value_at(t)
        assert abs(resid) < 2e-4


@pytest.mark.parametrize("gamma_w", [0.0, 0.4])
def test_second_kind_matches_dense_matrix(gamma_w):
    # the lag-FFT resolvent term against the dense ml_product_matrix product
    beta, delta, lam = 1.3, 0.6, -1.5
    tgrid = np.linspace(0.0, 1.0, 513) ** (1.0 / beta)
    f = SampledFunction.from_callable(lambda tt: np.cos(1.5 * tt) + 0.5, tgrid)
    y = solve_second_kind(f, lam, EKParams(beta, gamma_w, delta), tgrid)
    sig = tgrid**beta
    g = sig**gamma_w * f.values
    want = ml_product_matrix(sig, delta, delta, lam) @ g
    got = np.zeros(sig.size)
    got[1:] = (y.values[1:] - f.values[1:]) * sig[1:] ** gamma_w / lam
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_second_kind_rejects_bad_delta():
    grid = np.linspace(0.0, 1.0, 17)
    f = SampledFunction(grid, np.ones_like(grid))
    with pytest.raises(ValueError):
        solve_second_kind(f, 1.0, EKParams(1.0, 0.0, -0.5), grid)


def test_reads_past_the_sampled_grid_raise():
    # the coverage rule is relative: 2e-12 past a grid ending at 0.25 is too far
    grid = np.linspace(0.0, 0.25, 17)
    f = SampledFunction(grid, 1.0 + grid)
    past = grid[-1] * (1.0 + 2e-12)
    longer = np.append(grid[:-1], past)
    # every failed read names the point and the grid's last node
    msg = r"evaluation point 0\.2500000000005 lies beyond the sampled grid, which ends at 0\.25$"
    with pytest.raises(ValueError, match=msg):
        f.value_at(past)
    with pytest.raises(ValueError, match=msg):
        f.value_at(np.array([0.1, past]))
    prob = ScalarProblem(FracParams(0.5, 0.0), 1.0, 0.0, f)
    with pytest.raises(ValueError, match=msg):
        solve_scalar(prob, longer)
    with pytest.raises(ValueError, match=msg):
        solve_second_kind(f, 1.0, EKParams(1.0, 0.0, 0.5), longer)
    with pytest.raises(ValueError, match=msg):
        ek_integral(f, EKParams(1.0, 0.0, 0.5), past)
    with pytest.raises(ValueError, match=msg):
        prabhakar_compose(f, 0.5, 1.0, 0.7, -1.0, past)


# ---------------------------------------------------------------------------
# composition identity

def test_prabhakar_zero_function():
    grid = np.linspace(0.0, 1.0, 65)
    f = SampledFunction(grid, np.zeros_like(grid))
    lhs, rhs = prabhakar_compose(f, 0.5, 1.0, 0.7, -1.0, 1.0)
    assert lhs == 0.0 and rhs == 0.0


def test_prabhakar_elementary_double_integral():
    # lam=0, f=1, beta*=mu=1: both sides equal int_0^1 (1-t) t^0 ... = 1/2
    grid = np.linspace(0.0, 1.0, 65)
    f = SampledFunction(grid, np.ones_like(grid))
    lhs, rhs = prabhakar_compose(f, 0.5, 1.0, 1.0, 0.0, 1.0)
    assert_allclose(lhs, 0.5, rtol=1e-12)
    assert_allclose(rhs, 0.5, rtol=1e-12)


def test_prabhakar_self_consistency_unit_forcing():
    grid = np.linspace(0.0, 1.0, 513)
    f = SampledFunction(grid, np.ones_like(grid))
    lhs, rhs = prabhakar_compose(f, 0.5, 1.0, 1.0, -1.0, 1.0)
    assert abs(lhs - rhs) < 1e-6


def test_prabhakar_self_consistency_draws():
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.1, 513)
    for _ in range(5):
        a = rng.uniform(0.45, 0.9)
        bs = rng.uniform(0.6, 1.8)
        mu = rng.uniform(0.3, 1.2)
        lam = rng.uniform(-2.0, 2.0)
        coef = rng.uniform(-1.0, 1.0, size=3)
        f = SampledFunction(grid, coef[0] + coef[1] * grid + coef[2] * grid**2)
        lhs, rhs = prabhakar_compose(f, a, bs, mu, lam, 1.0)
        assert abs(lhs - rhs) < 1e-6, (a, bs, mu, lam, lhs, rhs)


def test_prabhakar_rejects_bad_orders():
    grid = np.linspace(0.0, 1.0, 17)
    f = SampledFunction(grid, np.ones_like(grid))
    with pytest.raises(ValueError):
        prabhakar_compose(f, 0.5, 0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        prabhakar_compose(f, 0.5, 1.0, -0.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        prabhakar_compose(f, 0.5, 1.0, 0.5, 1.0, 2.0)  # beyond f's grid
