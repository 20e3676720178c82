"""Tests for the weighted fractional integral, its left inverse, and the
time-stretched fractional derivative built from them.

Expected values fall in three groups: closed-form power-law images of the
integral operators (exact for piecewise-linear data, so asserted near
machine precision), quadrature-level checks whose error is set by the
sampling density, and structural properties (linearity, composition,
refinement order).
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hbdiff.operators import (
    EKParams,
    FracParams,
    SampledFunction,
    ek_integral,
    ek_integral_on_grid,
    ek_integrodiff,
    hyper_bessel,
    make_time_grid,
    reg_caputo_hb,
    reg_caputo_on_grid,
)
from hbdiff.special import gamma, ml_one


def sigma_uniform_grid(beta, t_max, n):
    # uniform in the stretched variable sigma = t**beta
    return np.linspace(0.0, t_max**beta, n + 1) ** (1.0 / beta)


# ---------------------------------------------------------------------------
# parameter and sample validation

def test_frac_params_validation():
    p = FracParams(0.5, 0.5)
    assert p.rho == 0.5
    assert FracParams(0.25, -1.0).rho == 2.0
    for bad in [(0.0, 0.0), (1.0, 0.0), (1.3, 0.0), (0.5, 1.0), (0.5, 1.5)]:
        with pytest.raises(ValueError):
            FracParams(*bad)
    with pytest.raises(ValueError):
        FracParams(math.nan, 0.0)


def test_ek_params_validation():
    EKParams(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        EKParams(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        EKParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        EKParams(math.inf, 0.0, 0.5)


def test_sampled_function_validation():
    g = np.linspace(0.0, 1.0, 5)
    SampledFunction(g, g**2)
    with pytest.raises(ValueError):
        SampledFunction(g + 0.1, g)
    with pytest.raises(ValueError):
        SampledFunction(g[::-1].copy(), g)
    with pytest.raises(ValueError):
        SampledFunction(g, g[:-1])
    with pytest.raises(ValueError):
        SampledFunction(g, np.array([0, 1, np.nan, 3, 4.0]))
    with pytest.raises(ValueError):
        SampledFunction(g, g, deriv=g[:-1])


def test_sampled_function_from_callable_and_value_at():
    g = np.linspace(0.0, 2.0, 9)
    f = SampledFunction.from_callable(np.cos, g, deriv_fn=lambda t: -np.sin(t))
    assert_allclose(f.values, np.cos(g), rtol=1e-15)
    assert_allclose(f.deriv, -np.sin(g), rtol=1e-15)
    # interpolation is linear between nodes, exact at nodes
    assert_allclose(f.value_at(g[3]), math.cos(g[3]), rtol=1e-15)
    mid = 0.5 * (g[3] + g[4])
    assert_allclose(f.value_at(mid), 0.5 * (math.cos(g[3]) + math.cos(g[4])), rtol=1e-14)


def test_value_at_reads_arrays_and_points_within_the_coverage_rule():
    g = np.linspace(0.0, 0.25, 9)
    f = SampledFunction(g, np.cos(g))
    t = np.linspace(0.0, 0.25, 31)
    assert np.array_equal(f.value_at(t), np.interp(t, g, f.values))
    assert f.value_at(g[-1] * (1.0 + 5e-13)) == f.values[-1]
    with pytest.raises(ValueError):
        f.value_at(g[-1] * (1.0 + 2e-12))
    with pytest.raises(ValueError):
        f.value_at(np.append(t, g[-1] * (1.0 + 2e-12)))


def test_make_time_grid_is_uniform_in_stretched_clock():
    t = make_time_grid(2.0, 128, 0.4)
    assert t[0] == 0.0
    assert t[-1] == 2.0
    s = t**0.4
    assert_allclose(np.diff(s), s[1] - s[0], rtol=1e-9)
    # a clock double precision cannot hold: T**rho underflows to 0 or
    # overflows, the nodes collapse onto 1, or T is not finite
    raises = [(-1.0, 8, 0.5), (1.0, 0, 0.5), (1e-30, 4, 11.0), (1.0, 4, 1e308), (1e300, 4, 11.0),
              (np.inf, 4, 0.5), (np.nan, 4, 0.5)]
    for horizon, n, rho in raises:
        with pytest.raises(ValueError):
            make_time_grid(horizon, n, rho)


# ---------------------------------------------------------------------------
# weighted fractional integral: closed-form power images

def test_ek_integral_constant_exact():
    grid = np.linspace(0.0, 1.5, 129)
    f = SampledFunction(grid, np.ones_like(grid))
    p = EKParams(1.0, 0.0, 0.5)
    want = 1.0 / gamma(1.5)
    assert_allclose(ek_integral(f, p, 1.0), want, rtol=1e-13)
    # constants map to constants: same value at any evaluation time
    assert_allclose(ek_integral(f, p, 0.73), want, rtol=1e-13)


def test_ek_integral_linear_exact():
    grid = np.linspace(0.0, 1.5, 129)
    f = SampledFunction(grid, grid.copy())
    got = ek_integral(f, EKParams(1.0, 0.0, 0.5), 1.0)
    assert_allclose(got, gamma(2.0) / gamma(2.5), rtol=1e-13)


def test_ek_integral_zero_function():
    grid = np.linspace(0.0, 1.0, 65)
    f = SampledFunction(grid, np.zeros_like(grid))
    assert ek_integral(f, EKParams(1.3, 0.4, 0.7), 0.9) == 0.0


@pytest.mark.parametrize("gw", [0.0, 0.4, 1.1])
@pytest.mark.parametrize("delta", [0.3, 0.5, 1.2])
@pytest.mark.parametrize("p_pow", [0, 1, 2])
def test_ek_integral_power_eigenrelation(gw, delta, p_pow):
    # I[t^(beta p)] = Gamma(gw+p+1)/Gamma(gw+delta+p+1) t^(beta p)
    beta = 1.3
    grid = sigma_uniform_grid(beta, 1.0, 512)
    f = SampledFunction(grid, grid ** (beta * p_pow))
    got = ek_integral(f, EKParams(beta, gw, delta), 1.0)
    want = gamma(gw + p_pow + 1) / gamma(gw + delta + p_pow + 1)
    tol = 5e-13 if (gw == 0.0 and p_pow <= 1) else 1e-4
    assert_allclose(got, want, rtol=tol)


def test_ek_integral_domain_errors():
    grid = np.linspace(0.0, 1.0, 17)
    f = SampledFunction(grid, np.ones_like(grid))
    with pytest.raises(ValueError):
        ek_integral(f, EKParams(1.0, 0.0, -0.5), 1.0)  # needs delta > 0
    with pytest.raises(ValueError):
        ek_integral(f, EKParams(1.0, 0.0, 0.5), 0.0)  # t must be positive
    with pytest.raises(ValueError):
        ek_integral(f, EKParams(1.0, 0.0, 0.5), 1.5)  # beyond sampled grid
    with pytest.raises(ValueError):
        ek_integral(f, EKParams(1.0, -1.2, 0.5), 1.0)  # weight not integrable


def test_ek_integral_linearity():
    grid = np.linspace(0.0, 1.0, 257)
    a = SampledFunction(grid, np.sin(2 * grid))
    b = SampledFunction(grid, np.exp(-grid))
    comb = SampledFunction(grid, 0.6 * a.values - 1.7 * b.values)
    p = EKParams(1.2, 0.3, 0.6)
    lhs = ek_integral(comb, p, 0.8)
    rhs = 0.6 * ek_integral(a, p, 0.8) - 1.7 * ek_integral(b, p, 0.8)
    assert_allclose(lhs, rhs, rtol=1e-12)


def test_ek_integral_on_grid_matches_pointwise():
    beta, gw, delta = 1.4, 0.5, 0.6
    grid = sigma_uniform_grid(beta, 1.0, 64)
    f = SampledFunction(grid, np.cos(grid))
    out = ek_integral_on_grid(f, EKParams(beta, gw, delta))
    # limit value at t=0 follows the constant image of f(0)
    assert_allclose(out[0], 1.0 * gamma(gw + 1) / gamma(gw + delta + 1), rtol=1e-13)
    for n in (1, 7, 31, 64):
        assert_allclose(out[n], ek_integral(f, EKParams(beta, gw, delta), grid[n]),
                        rtol=1e-12)


# ---------------------------------------------------------------------------
# integro-differential left inverse

def test_ek_integrodiff_constant_exact():
    grid = np.linspace(0.0, 1.5, 129)
    f = SampledFunction(grid, 3.0 * np.ones_like(grid))
    got = ek_integrodiff(f, EKParams(1.0, 0.0, -0.5), 1.0)
    assert_allclose(got, 3.0 / gamma(0.5), rtol=1e-13)


def test_ek_integrodiff_linear_exact():
    grid = np.linspace(0.0, 1.5, 129)
    f = SampledFunction(grid, grid.copy())
    got = ek_integrodiff(f, EKParams(1.0, 0.0, -0.5), 1.0)
    assert_allclose(got, gamma(2.0) / gamma(1.5), rtol=1e-13)


def test_ek_integrodiff_rejects_wrong_delta():
    grid = np.linspace(0.0, 1.0, 17)
    f = SampledFunction(grid, np.ones_like(grid))
    with pytest.raises(ValueError):
        ek_integrodiff(f, EKParams(1.0, 0.0, 0.5), 0.5)
    with pytest.raises(ValueError):
        ek_integrodiff(f, EKParams(1.0, 0.0, -1.0), 0.5)


def test_ek_integrodiff_inverts_ek_integral():
    # I^{gw+delta, -delta} applied to I^{gw, delta} f recovers f
    beta, gw, delta = 1.0, 0.3, 0.4
    grid = np.linspace(0.0, 1.0, 513)
    f = SampledFunction(grid, np.sin(1.3 * grid) + 0.5)
    inner = ek_integral_on_grid(f, EKParams(beta, gw, delta))
    inner_f = SampledFunction(grid, inner)
    for t in (0.3, 0.7, 1.0):
        got = ek_integrodiff(inner_f, EKParams(beta, gw + delta, -delta), t)
        assert_allclose(got, f.value_at(t), rtol=1e-4)


def test_ek_integrodiff_uses_supplied_derivative():
    grid = np.linspace(0.0, 1.2, 65)
    f = SampledFunction(grid, grid.copy(), deriv=np.ones_like(grid))
    got = ek_integrodiff(f, EKParams(1.0, 0.0, -0.5), 1.0)
    assert_allclose(got, gamma(2.0) / gamma(1.5), rtol=1e-13)
    # smooth data: derivative channel and slope fallback must agree closely
    g1 = SampledFunction(grid, np.sin(grid), deriv=np.cos(grid))
    g2 = SampledFunction(grid, np.sin(grid))
    v1 = ek_integrodiff(g1, EKParams(1.0, 0.2, -0.3), 1.0)
    v2 = ek_integrodiff(g2, EKParams(1.0, 0.2, -0.3), 1.0)
    assert_allclose(v1, v2, rtol=1e-3)


# ---------------------------------------------------------------------------
# time-stretched fractional derivative

def test_hyper_bessel_power_images_exact():
    fp = FracParams(0.5, 0.0)
    grid = np.linspace(0.0, 1.5, 129)
    ones = SampledFunction(grid, np.ones_like(grid))
    ident = SampledFunction(grid, grid.copy())
    assert_allclose(hyper_bessel(ones, fp, 1.0), 1.0 / gamma(0.5), rtol=1e-13)
    assert_allclose(hyper_bessel(ident, fp, 1.0), gamma(2.0) / gamma(1.5), rtol=1e-13)


def test_hyper_bessel_stretched_power_exact():
    # f = t^rho is linear in the stretched clock, so its image
    # rho^alpha Gamma(2)/Gamma(2-alpha) t^(rho(1-alpha)) is exact
    alpha, theta = 0.4, 0.3
    fp = FracParams(alpha, theta)
    rho = fp.rho
    grid = sigma_uniform_grid(rho, 1.5, 128)
    f = SampledFunction(grid, grid**rho)
    t = 0.8
    want = rho**alpha * gamma(2.0) / gamma(2.0 - alpha) * t ** (rho * (1 - alpha))
    assert_allclose(hyper_bessel(f, fp, t), want, rtol=1e-12)


def test_reg_caputo_kills_constants():
    fp = FracParams(0.7, 0.4)
    grid = make_time_grid(1.5, 64, fp.rho)
    c = SampledFunction(grid, 5.0 * np.ones_like(grid))
    for t in (0.2, 0.9, 1.5):
        assert abs(reg_caputo_hb(c, fp, t)) < 1e-12
    # at t = 1e-60 and theta = -2 the cusp t^(-rho alpha) is 1e90
    two = SampledFunction(np.array([0.0, 1e-60, 0.5, 1.0]), np.full(4, 2.0))
    for t in two.grid[1:]:
        assert abs(reg_caputo_hb(two, FracParams(0.5, -2.0), t)) < 1e-12
    # while the unregularized derivative of a constant does not vanish
    assert hyper_bessel(c, fp, 1.0) > 0.1


def test_reg_caputo_sqrt_profile():
    # theta=0, alpha=1/2 applied to sqrt(t) gives Gamma(3/2) for all t
    fp = FracParams(0.5, 0.0)
    grid = np.linspace(0.0, 1.2, 513)
    f = SampledFunction(grid, np.sqrt(grid))
    assert_allclose(reg_caputo_hb(f, fp, 1.0), gamma(1.5), rtol=1e-4)


def test_reg_caputo_refinement_order():
    # error should shrink like h^(2-alpha) near the kink-free profile
    fp = FracParams(0.5, 0.0)
    errs = []
    for n in (128, 512, 2048):
        grid = np.linspace(0.0, 1.2, n + 1)
        f = SampledFunction(grid, np.sqrt(grid))
        errs.append(abs(reg_caputo_hb(f, fp, 1.0) - gamma(1.5)))
    order = math.log(errs[0] / errs[2]) / math.log(16.0)
    assert order > 1.4


def test_reg_caputo_eigenfunction_residual():
    # f(t) = E_alpha(-lam t^(rho alpha)/rho^alpha) satisfies D f = -lam f
    alpha, theta, lam = 0.5, 0.5, 1.0
    fp = FracParams(alpha, theta)
    rho = fp.rho
    grid = make_time_grid(1.0, 512, rho)
    vals = np.array([ml_one(alpha, -lam * t ** (rho * alpha) / rho**alpha) for t in grid])
    f = SampledFunction(grid, vals)
    for t in (0.25, 0.5, 1.0):
        got = reg_caputo_hb(f, fp, t)
        want = -lam * f.value_at(t)
        assert_allclose(got, want, rtol=3e-4)


def test_reg_caputo_linearity():
    fp = FracParams(0.6, 0.2)
    grid = make_time_grid(1.0, 256, fp.rho)
    a = SampledFunction(grid, np.cos(grid))
    b = SampledFunction(grid, grid**2)
    comb = SampledFunction(grid, 2.0 * a.values + 0.3 * b.values)
    lhs = reg_caputo_hb(comb, fp, 0.8)
    rhs = 2.0 * reg_caputo_hb(a, fp, 0.8) + 0.3 * reg_caputo_hb(b, fp, 0.8)
    assert_allclose(lhs, rhs, rtol=1e-11)


def test_reg_caputo_on_grid_matches_pointwise():
    fp = FracParams(0.45, 0.3)
    grid = make_time_grid(1.0, 128, fp.rho)
    f = SampledFunction(grid, np.exp(-grid) * grid)
    out = reg_caputo_on_grid(f, fp)
    assert out[0] == 0.0
    for n in (1, 17, 64, 128):
        assert_allclose(out[n], reg_caputo_hb(f, fp, grid[n]), rtol=1e-11, atol=1e-13)


def test_reg_caputo_on_grid_with_deriv_matches_pointwise():
    fp = FracParams(0.45, 0.3)
    grid = make_time_grid(1.0, 128, fp.rho)
    f = SampledFunction(grid, np.exp(-grid) * grid, deriv=np.exp(-grid) * (1.0 - grid))
    out = reg_caputo_on_grid(f, fp)
    assert out[0] == 0.0
    for n in (1, 17, 64, 128):
        assert_allclose(out[n], reg_caputo_hb(f, fp, grid[n]), rtol=1e-11, atol=1e-13)


def _grid_end_draws(seed, count):
    # 20-node random grids on [0, 3] whose last node's power differs by
    # rounding between float ** and numpy's array **
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 19))])
        beta, delta = rng.uniform(0.1, 3.0), rng.uniform(0.05, 0.95)
        if float(grid[-1]) ** beta != (grid**beta)[-1]:
            draws.append((grid, beta, delta))
    return draws


def test_ek_integral_exact_at_grid_end():
    for grid, beta, delta in _grid_end_draws(1, 60):
        f = SampledFunction(grid, np.ones_like(grid))
        got = ek_integral(f, EKParams(beta, 0.0, delta), float(grid[-1]))
        assert_allclose(got, 1.0 / gamma(delta + 1.0), rtol=1e-13)


def test_reg_caputo_pointwise_matches_grid_at_grid_end():
    for grid, beta, delta in _grid_end_draws(2, 6):
        fp = FracParams(delta, 1.0 - beta)
        f = SampledFunction(grid, np.exp(-grid) * grid)
        want = reg_caputo_on_grid(f, fp)[-1]
        assert_allclose(reg_caputo_hb(f, fp, float(grid[-1])), want, rtol=1e-11, atol=1e-13)


def test_reg_caputo_on_grid_collapsed_sigma_cell_is_finite():
    # theta = 0.99 maps 1 and 1 + 4e-16 to the same sigma = t^0.01
    grid = np.array([0.0, 0.5, 1.0, 1.0 + 4e-16, 1.5])
    fp = FracParams(0.5, 0.99)
    assert (grid**fp.rho)[2] == (grid**fp.rho)[3]
    f = SampledFunction(grid, np.sin(grid) + grid)
    with np.errstate(all="raise"):
        out = reg_caputo_on_grid(f, fp)
        pointwise = [reg_caputo_hb(f, fp, t) for t in grid[1:]]
    assert np.all(np.isfinite(out))
    assert out[2] == out[3]
    assert np.all(np.isfinite(pointwise))
    assert_allclose(pointwise, out[1:], rtol=1e-11, atol=1e-13)


def test_reg_caputo_on_grid_deriv_channel_with_underflowed_sigma_node():
    # theta = -2 maps t = 1e-200 to sigma = t^3 = 0; f = 1 + t, f' = 1
    fp = FracParams(0.5, -2.0)
    grid = np.array([0.0, 1e-200, 0.5, 1.0])
    with np.errstate(all="raise", under="ignore"):
        out = reg_caputo_on_grid(SampledFunction(grid, 1.0 + grid, np.ones(4)), fp)
    assert np.all(np.isfinite(out)) and out[1] == 0.0
    short = np.array([0.0, 0.5, 1.0])
    want = reg_caputo_on_grid(SampledFunction(short, 1.0 + short, np.ones(3)), fp)
    assert_allclose(out[2:], want[1:], rtol=1e-12)


def test_weighted_integrals_with_first_sigma_node_underflowed():
    # beta = 2 maps t = 1e-200 to sigma = 0, so the first cell of positive
    # width is the second one; with f(1e-200) = f(0) the node adds nothing
    grid = np.array([0.0, 1e-200, 0.5, 1.0])
    assert (grid**2.0)[1] == 0.0
    p, p_diff = EKParams(2.0, 0.5, 0.5), EKParams(2.0, 0.5, -0.5)
    for fn in (np.ones_like, np.cos):
        f = SampledFunction(grid, fn(grid))
        ref = SampledFunction(grid[[0, 2, 3]], fn(grid[[0, 2, 3]]))
        got = [ek_integral(f, p, 1.0), ek_integrodiff(f, p_diff, 1.0)]
        want = [ek_integral(ref, p, 1.0), ek_integrodiff(ref, p_diff, 1.0)]
        on_grid = ek_integral_on_grid(f, p)
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(on_grid))
        assert_allclose(got, want, rtol=1e-12, atol=0)
        assert_allclose(on_grid, ek_integral_on_grid(ref, p)[[0, 0, 1, 2]], rtol=1e-12, atol=0)


def test_point_integrals_where_sigma_underflows_take_the_t0_limit():
    # at t = 1e-200, sigma = t^2 is 0: both point forms return the t -> 0
    # limit f(t) Gamma(gamma_w+1)/Gamma(gamma_w+delta+1), as the grid form does
    grid = np.array([0.0, 1e-200, 0.5, 1.0])
    t = grid[1]
    for gw in (0.0, 0.5):
        p, p_diff = EKParams(2.0, gw, 0.5), EKParams(2.0, gw, -0.5)
        for fn in (np.ones_like, lambda x: 3.0 - x):
            f = SampledFunction(grid, fn(grid))
            # sigma's underflow is the case under test; any other flag fails
            with np.errstate(all="raise", under="ignore"):
                got = [ek_integral(f, p, t), ek_integrodiff(f, p_diff, t)]
                node = ek_integral_on_grid(f, p)[1]
            limit = [f.values[1] * gamma(gw + 1.0) / gamma(gw + d + 1.0) for d in (0.5, -0.5)]
            assert np.all(np.isfinite(got))
            assert_allclose(got[0], node, rtol=1e-12, atol=0)
            assert_allclose(got, limit, rtol=1e-12, atol=0)
            if fn is np.ones_like:  # constant data: both are constant in t
                later = [ek_integral(f, p, 0.25), ek_integrodiff(f, p_diff, 0.25)]
                assert_allclose(got, later, rtol=1e-12, atol=0)


def _slope_term_reference(f, p, t):
    """ek_integrodiff's slope term at 40 digits: the data slope_j *
    sigma^(gamma_w+1), interpolated linearly on each sigma cell below
    S = t^beta, integrated exactly against (S - sigma)^delta."""
    with mp.workdps(40):
        d, gw = mp.mpf(p.delta) + 1, mp.mpf(p.gamma_w)
        sig = [mp.mpf(float(v)) for v in f.grid**p.beta]
        S = min(mp.mpf(float(t**p.beta)), sig[-1])
        nodes = [v for v in sig if v < S] + [S]
        total = mp.mpf(0)
        for j in range(len(nodes) - 1):
            a, b = nodes[j], nodes[j + 1]
            slope = (mp.mpf(float(f.values[j + 1])) - mp.mpf(float(f.values[j]))) / (sig[j + 1] - sig[j])
            B = slope * (b ** (gw + 1) - a ** (gw + 1)) / (b - a)
            A = slope * a ** (gw + 1) - B * a
            uR, uL = S - a, S - b
            total += (A + B * S) * (uR**d - uL**d) / d - B * (uR ** (d + 1) - uL ** (d + 1)) / (d + 1)
        return float(S ** (-(gw + d)) / mp.gamma(d) * total)


def test_ek_integrodiff_slopes_match_exact_cell_moments():
    # 18-node random grids with six thin cells (relative width 1e-9..1e-4),
    # where moments formed as differences of large terms lose digits
    for seed in range(10):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 3.0, 12)
        thin = base[:6] * (1.0 + 10.0 ** rng.uniform(-9.0, -4.0, 6))
        grid = np.concatenate([[0.0], np.sort(np.concatenate([base, thin]))])
        f = SampledFunction(grid, np.sin(2.0 * grid) + grid)
        for gw in (0.0, -0.4, 0.7):
            p = EKParams(rng.uniform(0.2, 2.5), gw, -rng.uniform(0.1, 0.9))
            for t in (float(rng.uniform(0.2, grid[-1])), float(grid[-1])):
                term1 = (gw + p.delta + 1.0) * ek_integral(f, EKParams(p.beta, gw, p.delta + 1.0), t)
                term2 = _slope_term_reference(f, p, t)
                err = abs(ek_integrodiff(f, p, t) - term1 - term2)
                assert err <= 1e-13 * max(abs(term1), abs(term2)), (seed, gw, t)


def test_grid_operators_stay_linear_in_memory():
    grid = make_time_grid(1.0, 1024, 0.7)
    f = SampledFunction(grid, np.cos(grid))
    for run in (lambda: ek_integral_on_grid(f, EKParams(0.7, 0.4, 0.6)),
                lambda: reg_caputo_on_grid(f, FracParams(0.4, 0.3))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # one 1025 x 1025 float array takes 8.4 MB
