"""Tests for the product-integration weight builders.

The hat-function weights are exact for piecewise-linear data by
construction, so affine inputs must reproduce the closed-form moment
integrals to machine precision; smooth inputs are checked against
high-precision adaptive quadrature.
"""

import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hbdiff.quadrature import (
    lag_convolve,
    ml_lag_weights,
    ml_product_matrix,
    ml_product_row,
    power_integral_at,
    power_kernel_weights,
)
from hbdiff.special import MLParams, ml_one, ml_two


def kernel_quad_oracle(s_n, delta, fn, dps=40):
    # int_0^{s_n} (s_n - sigma)^(delta-1) fn(sigma) dsigma, adaptive
    with mp.workdps(dps):
        val = mp.quad(lambda sig: (s_n - sig) ** (mp.mpf(delta) - 1) * fn(sig),
                      [0, s_n * mp.mpf("0.5"), s_n * mp.mpf("0.99"), s_n])
        return float(val)


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9, 1.0, 1.5])
def test_power_weights_exact_on_affine_data(delta):
    s = np.linspace(0.0, 2.0, 65)
    W = power_kernel_weights(s, delta)
    f = 0.7 + 1.3 * s
    got = W @ f
    want = 0.7 * s**delta / delta + 1.3 * s ** (delta + 1) / (delta * (delta + 1))
    assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(want))))


def test_power_weights_nonuniform_grid_exact_on_affine():
    s = np.concatenate([[0.0], np.sort(np.random.default_rng(7).uniform(0.01, 1.9, 40)), [2.0]])
    W = power_kernel_weights(s, 0.45)
    f = 1.0 - 0.4 * s
    want = s**0.45 / 0.45 - 0.4 * s**1.45 / (0.45 * 1.45)
    assert_allclose(W @ f, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("delta", [0.35, 0.6, 1.2])
def test_power_weights_smooth_function_vs_quadrature(delta):
    s = np.linspace(0.0, 1.5, 257)
    W = power_kernel_weights(s, delta)
    got = (W @ np.sin(1.7 * s))[-1]
    want = kernel_quad_oracle(1.5, delta, lambda sig: mp.sin(mp.mpf("1.7") * sig))
    assert_allclose(got, want, rtol=1e-4)


def test_power_weights_rejects_bad_input():
    s = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        power_kernel_weights(s, 0.0)
    with pytest.raises(ValueError):
        power_kernel_weights(s, -0.3)
    with pytest.raises(ValueError):
        power_kernel_weights(s[::-1].copy(), 0.5)
    with pytest.raises(ValueError):
        power_kernel_weights(s + 0.2, 0.5)


@pytest.mark.parametrize("delta,lam", [(0.6, 1.0), (0.6, -2.0), (0.35, -3.0), (0.9, 2.5)])
def test_ml_product_matrix_resolvent_identity(delta, lam):
    # lam * int_0^s (s-sigma)^(d-1) E_{d,d}(lam (s-sigma)^d) dsigma = E_d(lam s^d) - 1
    # and the data here is constant, so the weights carry no interpolation
    # error at all: agreement is limited only by the evaluator itself.
    s = np.linspace(0.0, 1.3, 513)
    K = ml_product_matrix(s, delta, delta, lam)
    got = lam * (K @ np.ones(s.size))
    want = np.array([ml_one(delta, lam * sn**delta) for sn in s]) - 1.0
    err = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
    assert err < 1e-11


def test_ml_product_matrix_against_quadrature():
    # doubled-exponent kernel shape used by the source term of the scalar
    # solver; smooth non-linear data, so the PL interpolation of g is the
    # only error source
    a, lam = 0.4, -3.0
    s = np.linspace(0.0, 1.0, 513)
    K = ml_product_matrix(s, a, 2 * a, lam)
    g = np.cos(2.0 * s)
    got = K @ g
    pars = MLParams(a, 2 * a)
    for idx in (64, 256, 512):
        s_n = s[idx]
        with mp.workdps(30):
            want = mp.quad(
                lambda sig: (s_n - sig) ** (2 * a - 1)
                * ml_two(pars, lam * float(s_n - sig) ** a)
                * mp.cos(2 * sig),
                [0, s_n * 0.5, s_n * 0.95, s_n],
            )
        assert_allclose(got[idx], float(want), rtol=2e-5)


def test_ml_product_row_matches_matrix_last_row():
    s = np.linspace(0.0, 0.9, 129)
    K = ml_product_matrix(s, 0.55, 1.1, -2.0)
    w = ml_product_row(s, 0.55, 1.1, -2.0)
    assert_allclose(w, K[-1], rtol=1e-11, atol=1e-16)


def test_ml_product_row_nonuniform_grid():
    # exactness for piecewise-linear data on an irregular grid, against
    # adaptive quadrature of the kernel times that same interpolant
    rng = np.random.default_rng(3)
    s = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.95, 17)), [1.0]])
    vals = np.sin(2.1 * s) + 0.3
    order, btype, lam = 0.5, 0.8, -1.5
    w = ml_product_row(s, order, btype, lam)
    got = float(w @ vals)
    pars = MLParams(order, btype)
    with mp.workdps(30):
        want = mp.quad(
            lambda sig: (1.0 - sig) ** (btype - 1)
            * ml_two(pars, lam * float(1.0 - sig) ** order)
            * np.interp(float(sig), s, vals),
            [0.0] + list(s[1:-1]) + [1.0],
        )
    assert_allclose(got, float(want), rtol=1e-9)


def test_ml_product_rejects_bad_input():
    s = np.linspace(0.0, 1.0, 33)
    with pytest.raises(ValueError):
        ml_product_matrix(s**2, 0.5, 0.5, 1.0)  # non-uniform
    with pytest.raises(ValueError):
        ml_product_matrix(s, -0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        ml_product_row(s + 0.1, 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        ml_product_row(s, 0.5, 0.0, 1.0)


def test_lag_convolve_matches_dense_rows():
    # one lag table for several rates (zero, decaying, steep, growing),
    # applied by FFT, against the dense Toeplitz matrix of each rate
    s = np.linspace(0.0, 1.3, 257)
    lams = np.array([0.0, -2.0, -400.0, 1.5])
    far, near = ml_lag_weights(s, 0.55, 0.55, lams)
    g = np.cos(2.0 * s) + s
    rows = np.vstack([g, g**2, -g, np.sin(s)])
    one, many = lag_convolve(far, near, g), lag_convolve(far, near, rows)
    for k, lam in enumerate(lams):
        K = ml_product_matrix(s, 0.55, 0.55, lam)
        for got, data in ((one[k], g), (many[k], rows[k])):
            want = K @ data
            assert got[0] == 0.0
            assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


def test_cli_import_leaves_numpy_fft_out():
    # the lag convolution loads numpy.fft when it first runs, not at start-up
    code = "import sys, hbdiff.cli; print('numpy.fft' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_ml_product_zero_lambda_reduces_to_power_weights():
    # E_{a,b}(0) = 1/Gamma(b): kernel collapses to pure power with that factor
    s = np.linspace(0.0, 1.0, 65)
    delta = 0.7
    K = ml_product_matrix(s, delta, delta, 0.0)
    W = power_kernel_weights(s, delta) / math.gamma(delta)
    f = np.exp(-s)
    assert_allclose(K @ f, W @ f, rtol=1e-12, atol=1e-14)


def test_power_integral_at_affine_between_nodes():
    s = np.linspace(0.0, 2.0, 33)
    vals = 0.8 + 0.5 * s
    delta = 0.45
    pts = np.array([0.0, 0.031, 0.5, 1.23456, 2.0])
    got = power_integral_at(s, vals, delta, pts)
    want = 0.8 * pts**delta / delta + 0.5 * pts ** (delta + 1) / (delta * (delta + 1))
    assert_allclose(got, want, rtol=0, atol=1e-13)


def test_power_integral_at_consistent_with_weight_matrix():
    s = np.linspace(0.0, 1.0, 65)
    vals = np.exp(-2.0 * s)
    W = power_kernel_weights(s, 0.6)
    got = power_integral_at(s, vals, 0.6, s)
    assert_allclose(got, W @ vals, rtol=1e-12, atol=1e-15)


def test_power_integral_at_rejects_outside_point():
    s = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        power_integral_at(s, s, 0.5, [1.5])
