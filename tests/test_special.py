"""Tests for the gamma and Mittag-Leffler evaluators.

Expected values come from independent machinery: mpmath's gamma, a
high-precision Taylor oracle (used only where its cancellation cost is
affordable), Talbot numerical inversion of the Laplace transform
p^(a-b)/(p^a + x), and elementary closed forms (exp, cos, erfc).
"""

import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hbdiff.special import (
    MLParams,
    gamma,
    ml_one,
    ml_one_array,
    ml_two,
    ml_two_array,
    sinpi,
    sinpi_array,
)


def taylor_oracle(a, b, z, extra_dps=30):
    """Mittag-Leffler by brute-force series at high precision.

    Precision is sized from the cancellation exponent |z|^(1/a); returns
    None where that would be prohibitively expensive.
    """
    m = 0.0 if z >= -1.0 else (-z) ** (1.0 / a)
    scale = 1.0 if a <= 1.0 else 1.0 + abs(math.cos(math.pi / a))
    dps = extra_dps + int(0.9 * m * scale)
    if dps > 700:
        return None
    with mp.workdps(dps):
        s = mp.mpf(0)
        zk = mp.mpf(1)
        am, bm, zm = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        tiny = mp.mpf(10) ** (-dps)
        small = 0
        for k in range(500000):
            t = zk / mp.gamma(am * k + bm)
            s += t
            if s != 0 and abs(t) < abs(s) * tiny:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            zk *= zm
        return s


def laplace_oracle(a, b, x, dps=50):
    """E_{a,b}(-x) via Talbot inversion of its Laplace transform at t=1."""
    with mp.workdps(dps):
        am, bm, xm = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        return mp.invertlaplace(
            lambda p: p ** (am - bm) / (p ** am + xm), mp.mpf(1), method="talbot"
        )


# ---------------------------------------------------------------- gamma


def test_gamma_trivial_points():
    assert_allclose(gamma(1.0), 1.0, rtol=1e-13)
    assert_allclose(gamma(5.0), 24.0, rtol=1e-13)
    assert_allclose(gamma(0.5), 1.7724538509055160, rtol=1e-13)
    assert_allclose(gamma(0.5), math.sqrt(math.pi), rtol=1e-13)


def test_gamma_against_mpmath_grid():
    rng = np.random.default_rng(42)
    xs = np.concatenate([
        rng.uniform(-170, 170, 400),
        rng.uniform(-5, 5, 200),
        rng.uniform(0.5, 2.0, 100),
    ])
    with mp.workdps(40):
        for x in xs:
            x = float(x)
            if abs(x - round(x)) < 1e-3 and x < 0.5:
                continue  # stay away from poles
            got = gamma(x)
            want = float(mp.gamma(x))
            assert_allclose(got, want, rtol=1e-13, err_msg=f"x={x}")


def test_gamma_just_below_zero():
    # inside the sweep's pole window, where a reflection through sin(pi x)
    # must keep the low digits of tiny |x|
    with mp.workdps(40):
        for x in (-1e-300, -1e-16, -1e-10, -1e-5):
            assert_allclose(gamma(x), float(mp.gamma(mp.mpf(x))), rtol=1e-13, err_msg=f"x={x}")


def test_gamma_poles_raise():
    for x in (0.0, -1.0, -2.0, -37.0):
        with pytest.raises(ValueError):
            gamma(x)
    with pytest.raises(ValueError):
        gamma(math.nan)
    with pytest.raises(ValueError):
        gamma(math.inf)


def test_gamma_overflow_edge():
    assert math.isfinite(gamma(171.0))
    assert gamma(172.0) == math.inf
    assert gamma(300.5) == math.inf
    assert gamma(-300.5) == 0.0


def test_sinpi_exact_zeros_and_units():
    for n in range(-6, 7):
        assert sinpi(float(n)) == 0.0
    assert sinpi(0.5) == 1.0
    assert sinpi(1.5) == -1.0
    assert sinpi(2.5) == 1.0
    # large arguments keep exact reduction
    assert sinpi(1.0e15) == 0.0
    assert sinpi(1.0e15 + 0.5) == 1.0


def test_sinpi_matches_mpmath():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-50, 50, 300)
    with mp.workdps(40):
        for x in xs:
            want = float(mp.sinpi(mp.mpf(float(x))))
            assert_allclose(sinpi(float(x)), want, rtol=2e-15, atol=1e-300)
    assert_allclose(sinpi_array(xs), [sinpi(float(x)) for x in xs], rtol=0, atol=0)


def test_sinpi_just_below_zero():
    xs = [-1e-300, -1e-16, -1e-10, -1e-5]
    with mp.workdps(40):
        want = [float(mp.sinpi(mp.mpf(x))) for x in xs]
    assert_allclose([sinpi(x) for x in xs], want, rtol=2e-15, atol=0)
    assert_allclose(sinpi_array(xs), want, rtol=2e-15, atol=0)


# ------------------------------------------------------- ML: frozen points


def test_ml_at_zero_is_reciprocal_gamma():
    assert ml_two(MLParams(1.0, 1.0), 0.0) == 1.0
    assert ml_one(0.7, 0.0) == 1.0
    for b in (0.3, 1.0, 1.5, 2.0):
        assert_allclose(ml_two(MLParams(0.6, b), 0.0), 1.0 / gamma(b), rtol=1e-14)


def test_ml_exp_point():
    assert_allclose(ml_two(MLParams(1.0, 1.0), 1.0), 2.718281828459045, rtol=1e-12)
    assert_allclose(ml_one(1.0, -1.0), 0.36787944117144233, rtol=1e-12)


def test_ml_cos_zero_crossing():
    # E_2(-z^2) = cos z vanishes at z = pi/2
    val = ml_two(MLParams(2.0, 1.0), -2.4674011002723395)
    assert abs(val) <= 1e-10


def test_ml_half_order_erfc_points():
    # E_{1/2}(-x) = exp(x^2) erfc(x)
    assert_allclose(ml_two(MLParams(0.5, 1.0), -1.0), 0.4275835761558070, rtol=1e-12)
    assert_allclose(ml_one(0.5, -1.0), math.e * math.erfc(1.0), rtol=1e-12)
    assert_allclose(ml_one(0.5, -3.0), 0.17900115118139248, rtol=1e-12)
    assert_allclose(ml_one(0.5, -3.0), math.exp(9.0) * math.erfc(3.0), rtol=1e-12)


def test_ml_rejects_bad_input():
    with pytest.raises(ValueError):
        MLParams(0.0, 1.0)
    with pytest.raises(ValueError):
        MLParams(2.1, 1.0)
    with pytest.raises(ValueError):
        MLParams(-0.5, 1.0)
    with pytest.raises(ValueError):
        MLParams(0.5, 0.0)
    with pytest.raises(ValueError):
        MLParams(0.5, -1.0)
    with pytest.raises(ValueError):
        ml_two(MLParams(0.5, 1.0), math.nan)
    with pytest.raises(ValueError):
        ml_two(MLParams(0.5, 1.0), math.inf)


def test_ml_range_edges_depend_on_beta():
    # E_{1,300}(1000) is about e^-1065, below the smallest subnormal
    assert ml_two_array(1.0, 300.0, [1000.0])[0] == 0.0
    # E_{1,0.1}(705) is about e^711; inf without an overflow in the contour
    assert ml_two_array(1.0, 0.1, [705.0])[0] == math.inf


# ------------------------------------------------- ML: identity batteries


def test_ml_identity_battery_exp():
    zs = np.linspace(-10.0, 10.0, 81)
    for z in zs:
        z = float(z)
        assert_allclose(ml_one(1.0, z), math.exp(z), rtol=1e-10, err_msg=f"z={z}")


def test_ml_identity_battery_cos():
    zs = np.linspace(0.05, 10.0, 60)
    for z in zs:
        z = float(z)
        got = ml_two(MLParams(2.0, 1.0), -z * z)
        assert_allclose(got, math.cos(z), rtol=1e-10, atol=1e-13, err_msg=f"z={z}")


def test_ml_identity_battery_expm1():
    zs = np.concatenate([np.linspace(-10, -0.2, 30), np.linspace(0.2, 10, 30)])
    for z in zs:
        z = float(z)
        got = ml_two(MLParams(1.0, 2.0), z)
        assert_allclose(got, math.expm1(z) / z, rtol=1e-10, err_msg=f"z={z}")


def test_ml_recurrence_index_shift():
    # E_{a,b}(z) = z * E_{a,a+b}(z) + 1/Gamma(b)
    rng = np.random.default_rng(123)
    for _ in range(150):
        a = float(rng.uniform(0.15, 2.0))
        b = float(rng.uniform(0.2, 2.5))
        z = float(rng.uniform(-20.0, 20.0))
        if z > 0 and math.log(max(z, 1e-300)) / a > 6.0:
            continue  # overflowing magnitudes carry no recurrence information
        lhs = ml_two(MLParams(a, b), z)
        e2 = ml_two(MLParams(a, a + b), z)
        rhs = z * e2 + 1.0 / gamma(b)
        scale = max(abs(lhs), abs(z * e2), 1.0 / gamma(b))
        assert abs(lhs - rhs) <= 1e-9 * scale, (a, b, z)


def test_ml_negative_axis_decay_bound():
    # (1+|z|) |E_{a,b}(z)| stays bounded on z in [-1e6, 0]; report the sup
    for a in (0.3, 0.5, 0.8):
        for b in (0.8, 1.0, 1.6):
            zs = -np.logspace(-2, 6, 60)
            sup = 0.0
            for z in zs:
                z = float(z)
                v = abs(ml_two(MLParams(a, b), z))
                sup = max(sup, (1.0 + abs(z)) * v)
            assert math.isfinite(sup)
            print(f"empirical bound constant alpha={a} beta={b}: {sup:.6g}")


def test_ml_complete_monotonicity_window():
    # alpha <= 1, beta >= alpha: positive and decreasing on the negative axis
    for a, b in ((0.4, 1.0), (0.7, 1.0), (0.95, 1.2)):
        zs = np.linspace(0.0, 40.0, 200)
        vals = [ml_two(MLParams(a, b), -float(z)) for z in zs]
        assert all(v > 0.0 for v in vals)
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


# ---------------------------------------------- ML: oracle comparisons


def test_ml_against_taylor_oracle_grid():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(250):
        a = float(rng.uniform(0.3, 2.0))
        b = float(rng.choice([0.3, 0.5, 1.0, 1.5, 2.0]))
        z = float(rng.uniform(-50.0, 10.0))
        want = taylor_oracle(a, b, z)
        if want is None:
            continue
        got = ml_two(MLParams(a, b), z)
        if not math.isfinite(got):
            continue
        with mp.workdps(40):
            if want == 0:
                assert abs(got) < 1e-12
            else:
                rel = float(abs((mp.mpf(got) - want) / want))
                assert rel <= 1e-10, (a, b, z, rel)
        checked += 1
    assert checked > 150


def test_ml_disc_corners_against_series_oracle():
    # small alpha, where the disc's series needs more terms than it takes
    # (alpha = 0.01: about 1,900) and the contour answers near the rim, and
    # large beta, where the contour's index-shift recurrence is unstable
    # for |z| below the rim and only the series answers there
    pairs = [(a, b) for a in (0.01, 0.02, 0.05, 0.1, 0.2) for b in (0.3, 1.0)]
    pairs += [(0.8, 100.0), (1.0, 150.0), (0.02, 12.0), (0.05, 50.0), (0.005, 20.0)]
    for a, b in pairs:
        r = max(1.0, b**a)
        for z in (-r, -0.95 * r, -r / 2.0, -1.0e-3, r / 2.0, r):
            got = ml_two(MLParams(a, b), z)
            want = taylor_oracle(a, b, z)
            with mp.workdps(40):
                rel = float(abs((mp.mpf(got) - want) / want))
            assert rel <= 1e-10, (a, b, z, rel)


def test_ml_against_laplace_oracle_negative_axis():
    # covers the small-alpha corner the Taylor oracle cannot afford
    pts = [
        (0.1, 1.0, 5.0), (0.1, 1.0, 40.0), (0.15, 0.3, 3.0), (0.2, 1.5, 30.0),
        (0.3, 1.0, 12.5), (0.3, 2.0, 45.0), (0.5, 1.0, 20.0), (0.5, 0.5, 49.0),
        (0.7, 1.0, 35.0), (0.9, 1.3, 18.0), (1.2, 1.0, 30.0), (1.7, 0.8, 42.0),
    ]
    for a, b, x in pts:
        got = ml_two(MLParams(a, b), -x)
        want = laplace_oracle(a, b, x)
        with mp.workdps(50):
            rel = float(abs((mp.mpf(got) - want) / want))
        assert rel <= 1e-10, (a, b, x, rel)


def test_ml_deep_negative_absolute_accuracy():
    # z < -50: absolute error at most 1e-12
    pts = [
        (0.4, 1.0, 80.0), (0.5, 1.0, 200.0), (0.6, 1.6, 120.0),
        (0.8, 1.0, 500.0), (1.0, 1.0, 70.0), (1.3, 1.0, 90.0), (1.9, 1.0, 400.0),
    ]
    for a, b, x in pts:
        got = ml_two(MLParams(a, b), -x)
        want = laplace_oracle(a, b, x)
        with mp.workdps(50):
            err = float(abs(mp.mpf(got) - want))
        assert err <= 1e-12, (a, b, x, err)


def test_ml_regime_overlap_band():
    # crossover band between the small-|z| and deep negative-axis regimes
    band = [-20.0, -16.0, -12.5, -11.5]
    for a in (0.45, 0.55, 0.7, 0.9):
        for b in (1.0, 1.5):
            for z in band:
                got = ml_two(MLParams(a, b), z)
                want = laplace_oracle(a, b, -z)
                with mp.workdps(50):
                    rel = float(abs((mp.mpf(got) - want) / want))
                assert rel <= 1e-10, (a, b, z, rel)


def test_ml_large_beta_grid():
    # beta > 10 runs the contour at a smaller beta and climbs back
    checked = 0
    for b in (12.0, 20.0, 30.0, 45.0, 60.0):
        for a in (0.2, 0.5, 0.8, 1.3):
            for z in (-45.0, -8.0, -1.0, 1.0, 4.0):
                got = ml_two(MLParams(a, b), z)
                if got == math.inf:
                    continue  # past double range
                want = taylor_oracle(a, b, z)
                if want is None:
                    want = laplace_oracle(a, b, -z)
                with mp.workdps(50):
                    rel = float(abs((mp.mpf(got) - want) / want))
                assert rel <= 1e-10, (a, b, z, rel)
                checked += 1
    assert checked >= 90


def test_cli_import_leaves_mpmath_out():
    # and builds none of the CSV formatter's tables: each writer fills its own
    code = ("import sys, hbdiff.cli as c; print('mpmath' in sys.modules, c._G.any(), "
            "c._exponent_text.cache_info().currsize)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False 0"


def test_ml_array_wrappers_match_scalar():
    zs = np.linspace(-30, 3, 34)
    arr = ml_two_array(0.6, 1.4, zs)
    ref = np.array([ml_two(MLParams(0.6, 1.4), float(z)) for z in zs])
    assert_allclose(arr, ref, rtol=0, atol=0)
    arr1 = ml_one_array(0.6, zs)
    ref1 = np.array([ml_one(0.6, float(z)) for z in zs])
    assert_allclose(arr1, ref1, rtol=0, atol=0)
    mat = ml_two_array(0.6, 1.4, zs.reshape(2, 17))
    assert mat.shape == (2, 17)
    assert_allclose(mat.ravel(), arr, rtol=0, atol=0)


# ------------------------------------- ML: algebraic expansion for z < -50


def test_ml_deep_route_against_laplace_oracle():
    # alpha <= 1, z < -50 takes the truncated expansion -sum z^-k / Gamma(b - a k)
    zs = (float(np.nextafter(-50.0, -np.inf)), -60.0, -1.0e3, -1.0e6)
    for a in (0.1, 0.3, 0.6, 0.95, 1.0):
        for b in sorted({a, 1.0, 1.0 + a, 2.0 + a, 12.0, 30.0}):
            if a == 1.0 and b == 1.0:
                continue  # exp(z), a closed form; Talbot's exp(-1000) is 8.9e-69
            for z in zs:
                got = ml_two(MLParams(a, b), z)
                want = laplace_oracle(a, b, -z)
                with mp.workdps(50):
                    err = abs(mp.mpf(got) - want)
                    rel = float(err / abs(want))
                assert float(err) <= 1e-12 and rel <= 1e-10, (a, b, z, float(err), rel)


def test_ml_deep_route_zero_coefficient():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x); the expansion's c_2 = 1/Gamma(0) is 0
    for x in (float(np.nextafter(50.0, np.inf)), 60.0, 1.0e3, 1.0e6):
        got = ml_one(0.5, -x)
        with mp.workdps(40):
            want = mp.exp(mp.mpf(x) ** 2) * mp.erfc(x)
            rel = float(abs((mp.mpf(got) - want) / want))
        assert rel <= 1e-13, (x, rel)


def test_ml_deep_route_is_pointwise_and_continuous():
    # disc, band and deep points in one call, 2-D, equal their lone values
    zs = np.array([
        [-0.5, -3.0, -20.0, -49.9, -50.0, -50.5],
        [-51.0, -75.0, -400.0, -1e4, -1e7, 2.0],
    ])
    for a, b in ((0.6, 1.0), (0.6, 1.6), (0.6, 2.6), (0.3, 0.3), (0.95, 12.0), (1.0, 30.0)):
        got = ml_two_array(a, b, zs)
        assert got.shape == zs.shape
        ref = np.array([ml_two(MLParams(a, b), float(z)) for z in zs.ravel()])
        assert_allclose(got.ravel(), ref, rtol=0, atol=0)
        # the route starts just below -50, where the contour stops
        edge = ml_two_array(a, b, [-50.0, np.nextafter(-50.0, -np.inf)])
        assert_allclose(edge[1], edge[0], rtol=1e-13, atol=0, err_msg=f"{(a, b)}")


def test_ml_deep_route_stays_finite():
    # coefficients come from a reflection, never from 1/Gamma of an underflow
    zs = -np.logspace(np.log10(51.0), 12.0, 7)
    for a in np.linspace(0.01, 1.0, 12):
        for b in (0.01, 0.5, 3.7, 40.0, 80.0, 150.0, 300.0):
            assert np.all(np.isfinite(ml_two_array(float(a), b, zs))), (a, b)
