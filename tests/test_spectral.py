"""Tests for the sine-spectral direct solver.

Coefficient oracles are analytic integrals (x(1-x) against sin(k pi x));
solver oracles are the single-mode closed forms checked elsewhere.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hbdiff.errors import ValidationError
from hbdiff.operators import FracParams, SampledFunction, make_time_grid
from hbdiff.scalar import solve_scalar_constant
from hbdiff.special import ml_one_array
from hbdiff.spectral import (
    DirectProblemSpec,
    SeparableForcing,
    SineSeries,
    SolutionField,
    TensorForcing,
    mode_forcing_term,
    sine_analyze,
    sine_synthesize,
    solve_direct,
)


def unit_grid(n=256):
    return np.linspace(0.0, 1.0, n + 1)


def bump(x):
    return x * (1.0 - x)


# ---------------------------------------------------------------------------
# analysis / synthesis

def test_analyze_single_mode_is_orthonormal():
    x = unit_grid()
    g = SampledFunction(x, np.sin(np.pi * x))
    c = sine_analyze(g, 8).coeffs
    assert abs(c[0] - 1.0) < 1e-13
    assert np.max(np.abs(c[1:])) < 1e-13


def test_analyze_parabolic_bump():
    x = unit_grid(512)
    c = sine_analyze(SampledFunction(x, bump(x)), 3).coeffs
    # 2 int_0^1 x(1-x) sin(k pi x) dx = 8/(k pi)^3 for odd k
    assert_allclose(c[0], 0.2580122754655959, rtol=0, atol=1e-10)
    assert abs(c[1]) < 1e-14
    assert_allclose(c[2], 8.0 / (27.0 * math.pi**3), rtol=0, atol=1e-10)


def test_analyze_zero_function():
    x = unit_grid(32)
    c = sine_analyze(SampledFunction(x, np.zeros_like(x)), 5).coeffs
    assert np.all(c == 0.0)


def test_analyze_validation():
    x = unit_grid(32)
    g = SampledFunction(x, bump(x))
    with pytest.raises(ValueError):
        sine_analyze(g, 0)
    with pytest.raises(ValueError):
        sine_analyze(g, 32)  # 32 cells resolve only 31 modes
    stretched = SampledFunction(np.linspace(0.0, 2.0, 33), np.zeros(33))
    with pytest.raises(ValueError):
        sine_analyze(stretched, 4)
    nonuni = SampledFunction(np.linspace(0.0, 1.0, 33) ** 2, np.zeros(33))
    with pytest.raises(ValueError):
        sine_analyze(nonuni, 4)


def test_synthesize_point_values():
    assert sine_synthesize(SineSeries([1.0]), [0.0, 0.5, 1.0]).values[1] == 1.0
    s = sine_synthesize(SineSeries([0.0, 1.0]), [0.0, 0.25, 1.0])
    assert_allclose(s.values[1], 1.0, rtol=1e-15)
    z = sine_synthesize(SineSeries([0.0, 0.0, 0.0]), unit_grid(16))
    assert np.all(z.values == 0.0)


def test_synthesize_boundary_exact_zero():
    s = sine_synthesize(SineSeries([0.3, -1.2, 0.7, 2.0]), unit_grid(64))
    assert s.values[0] == 0.0
    assert s.values[-1] == 0.0


def test_round_trip_identity_on_resolved_series():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(40)
    x = unit_grid(128)
    g = sine_synthesize(SineSeries(coeffs), x)
    back = sine_analyze(g, 40).coeffs
    assert np.max(np.abs(back - coeffs)) < 1e-12


def _fine_bump_coeffs():
    """x(1-x) on 2048 cells analyzed in all 2047 resolvable modes, and the
    peak memory traced during the call."""
    x = unit_grid(2048)
    g = SampledFunction(x, bump(x))
    tracemalloc.start()
    try:
        c = sine_analyze(g, 2047).coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return c, peak


def test_analyze_every_mode_of_a_fine_grid():
    # the discrete coefficients of x(1-x): 2h sum_j x_j (1-x_j) sin(k pi x_j)
    # = h^3 cot(k pi h/2) / sin^2(k pi h/2) for odd k, 0 for even k
    c, _ = _fine_bump_coeffs()
    h = 1.0 / 2048
    k = np.arange(1, 2048)
    a = 0.5 * k * math.pi * h
    want = np.where(k % 2 == 1, h**3 / (np.tan(a) * np.sin(a) ** 2), 0.0)
    assert_allclose(c, want, rtol=0, atol=1e-15)


def test_analyze_every_mode_of_a_fine_grid_in_little_memory():
    # a (K, n) sine matrix for this call alone would take 32 MB
    _, peak = _fine_bump_coeffs()
    assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# mode forcing

def test_mode_forcing_zero_trace():
    fp = FracParams(0.6, 0.2)
    t = make_time_grid(1.0, 64, fp.rho)
    fk = SampledFunction(t, np.zeros_like(t))
    F = mode_forcing_term(fk, 3, fp, t)
    assert np.all(F.values == 0.0)


def test_mode_forcing_constant_closed_form():
    # fk = 1, k = 1: F_1(t) = (1/pi^2(1 - E_alpha(-pi^2 t^(rho a)/rho^a)))
    fp = FracParams(0.55, 0.25)
    t = make_time_grid(1.5, 256, fp.rho)
    fk = SampledFunction(t, np.ones_like(t))
    F = mode_forcing_term(fk, 1, fp, t)
    z = -(math.pi**2) / fp.rho**fp.alpha * t ** (fp.rho * fp.alpha)
    want = (1.0 - ml_one_array(fp.alpha, z)) / math.pi**2
    assert_allclose(F.values, want, rtol=0, atol=1e-10)
    assert F.values[0] == 0.0
    # the long-time limit of the closed form is 1/pi^2
    assert abs(1.0 / math.pi**2 - 0.10132118364233778) < 1e-16


def test_mode_forcing_rejects_bad_mode():
    fp = FracParams(0.5, 0.0)
    t = make_time_grid(1.0, 16, fp.rho)
    with pytest.raises(ValueError):
        mode_forcing_term(SampledFunction(t, np.ones_like(t)), 0, fp, t)


# ---------------------------------------------------------------------------
# direct solver

def test_direct_single_mode_decay():
    fp = FracParams(0.7, 0.3)
    x = unit_grid(128)
    psi = SampledFunction(x, np.sin(np.pi * x))
    spec = DirectProblemSpec(fp, psi, modes=16, nx=128, nt=128)
    sol = solve_direct(spec)
    z = -(math.pi**2) / fp.rho**fp.alpha * sol.tgrid ** (fp.rho * fp.alpha)
    decay = ml_one_array(fp.alpha, z)
    want = np.outer(decay, np.sin(np.pi * sol.xgrid))
    assert np.max(np.abs(sol.values - want)) < 1e-10
    assert_allclose(sol.modes[0], decay, rtol=1e-12)
    assert np.max(np.abs(sol.modes[1:])) < 1e-13


def test_direct_zero_everything():
    fp = FracParams(0.5, 0.0)
    x = unit_grid(64)
    psi = SampledFunction(x, np.zeros_like(x))
    sol = solve_direct(DirectProblemSpec(fp, psi, modes=8, nx=64, nt=32))
    assert np.all(sol.values == 0.0)
    assert sol.tail == 0.0


def test_direct_forced_single_mode():
    # psi = 0, f = sin(pi x): u = (1/pi^2)(1 - E) sin(pi x)
    fp = FracParams(0.6, -0.4)
    x = unit_grid(128)
    psi = SampledFunction(x, np.zeros_like(x))
    forcing = SeparableForcing(SampledFunction(x, np.sin(np.pi * x)))
    sol = solve_direct(DirectProblemSpec(fp, psi, forcing, modes=16, nx=128, nt=64))
    z = -(math.pi**2) / fp.rho**fp.alpha * sol.tgrid ** (fp.rho * fp.alpha)
    amp = (1.0 - ml_one_array(fp.alpha, z)) / math.pi**2
    want = np.outer(amp, np.sin(np.pi * sol.xgrid))
    assert np.max(np.abs(sol.values - want)) < 1e-10


def test_direct_constant_forcing_equals_per_mode_closed_form():
    # the shared decay table repeats solve_scalar_constant's arithmetic mode by mode
    fp = FracParams(0.55, 0.35)
    x = unit_grid(64)
    psi = SampledFunction(x, bump(x) * (1.0 + np.sin(3.0 * x)))
    g = SampledFunction(x, x * (1.0 - x) ** 2)
    K = 12
    sol = solve_direct(
        DirectProblemSpec(fp, psi, SeparableForcing(g), horizon=1.5, modes=K, nx=64, nt=40)
    )
    lam = (np.arange(1, K + 1) * math.pi) ** 2
    psi_c = sine_analyze(psi, 4 * K).coeffs[:K]
    g_c = sine_analyze(g, K).coeffs
    want = [solve_scalar_constant(fp, *r, sol.tgrid).values for r in zip(lam, psi_c, g_c)]
    assert_array_equal(sol.modes, np.array(want))


def test_direct_separable_with_time_matches_constant_path():
    # h(t) = 1 must agree with the time-independent closed form
    fp = FracParams(0.5, 0.2)
    x = unit_grid(64)
    psi = SampledFunction(x, bump(x))
    g = SampledFunction(x, np.sin(np.pi * x) + 0.3 * np.sin(3.0 * np.pi * x))
    t = make_time_grid(1.0, 256, fp.rho)
    h = SampledFunction(t, np.ones_like(t))
    sol_const = solve_direct(DirectProblemSpec(fp, psi, SeparableForcing(g), modes=12, nx=64, nt=256))
    sol_time = solve_direct(
        DirectProblemSpec(fp, psi, SeparableForcing(g, h), modes=12, nx=64, nt=256)
    )
    assert np.max(np.abs(sol_const.values - sol_time.values)) < 1e-9


def test_direct_tensor_matches_separable():
    fp = FracParams(0.65, 0.1)
    x = unit_grid(64)
    t = make_time_grid(1.0, 128, fp.rho)
    g = np.sin(np.pi * x)
    h = 1.0 + 0.5 * t
    psi = SampledFunction(x, bump(x))
    tensor = TensorForcing(x, t, np.outer(h, g))
    sep = SeparableForcing(SampledFunction(x, g), SampledFunction(t, h))
    sol_t = solve_direct(DirectProblemSpec(fp, psi, tensor, modes=10, nx=64, nt=128))
    sol_s = solve_direct(DirectProblemSpec(fp, psi, sep, modes=10, nx=64, nt=128))
    assert np.max(np.abs(sol_t.values - sol_s.values)) < 1e-11


def test_direct_long_time_grid_memory():
    # K = 8 modes on 2^14 time cells with t-dependent forcing; one dense
    # N x N kernel would take 2 GB.  The forcing is linear in s = t^rho, so
    # the quadrature is exact and a coarse solve must agree on its nodes.
    fp = FracParams(0.6, 0.3)
    x = unit_grid(32)
    psi = SampledFunction(x, np.sin(math.pi * x) - 0.4 * np.sin(3.0 * math.pi * x))

    def solve(nt):
        t = make_time_grid(1.0, nt, fp.rho)
        forcing = SeparableForcing(SampledFunction(x, bump(x)), SampledFunction(t, 1.0 + t**fp.rho))
        return solve_direct(DirectProblemSpec(fp, psi, forcing, modes=8, nx=32, nt=nt))

    tracemalloc.start()
    try:
        fine = solve(2**14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    coarse = solve(2**10)
    assert_allclose(fine.modes[:, ::16], coarse.modes, rtol=0, atol=1e-12)


def test_direct_initial_slice_and_boundaries():
    fp = FracParams(0.4, 0.5)
    x = unit_grid(128)
    psi = SampledFunction(x, bump(x))
    sol = solve_direct(DirectProblemSpec(fp, psi, modes=32, nx=128, nt=64))
    series = sine_analyze(psi, 32)
    assert_allclose(sol.values[0], sine_synthesize(series, x).values, rtol=0, atol=1e-13)
    assert np.all(sol.values[:, 0] == 0.0)
    assert np.all(sol.values[:, -1] == 0.0)
    assert sol.tail > 0.0  # bump has modes beyond 32


def test_direct_theta_zero_reduction():
    fp = FracParams(0.5, 0.0)
    x = unit_grid(64)
    psi = SampledFunction(x, np.sin(2.0 * np.pi * x))
    sol = solve_direct(DirectProblemSpec(fp, psi, modes=8, nx=64, nt=64))
    want = ml_one_array(0.5, -4.0 * math.pi**2 * sol.tgrid**0.5)
    assert np.max(np.abs(sol.modes[1] - want)) < 1e-12


def test_direct_mode_decay_monotone():
    fp = FracParams(0.3, 0.6)
    x = unit_grid(64)
    psi = SampledFunction(x, bump(x))
    sol = solve_direct(DirectProblemSpec(fp, psi, modes=8, nx=64, nt=64))
    for tr in sol.modes:
        mag = np.abs(tr)
        assert np.all(np.diff(mag) <= 1e-15)


def test_direct_linearity_in_initial_data():
    fp = FracParams(0.6, 0.2)
    x = unit_grid(64)
    p1 = SampledFunction(x, np.sin(np.pi * x))
    p2 = SampledFunction(x, bump(x))
    both = SampledFunction(x, p1.values + p2.values)
    kw = dict(modes=8, nx=64, nt=32)
    s1 = solve_direct(DirectProblemSpec(fp, p1, **kw))
    s2 = solve_direct(DirectProblemSpec(fp, p2, **kw))
    s12 = solve_direct(DirectProblemSpec(fp, both, **kw))
    assert np.max(np.abs(s12.values - s1.values - s2.values)) < 1e-12


def test_direct_spec_validation_lists_failures():
    fp = FracParams(0.5, 0.0)
    x = unit_grid(32)
    bad_psi = SampledFunction(x, np.cos(np.pi * x))  # nonzero at both ends
    with pytest.raises(ValidationError) as err:
        DirectProblemSpec(fp, bad_psi, modes=4, nx=32, nt=16)
    assert "vanish" in str(err.value)
    psi = SampledFunction(x, bump(x))
    with pytest.raises(ValidationError):
        DirectProblemSpec(fp, psi, modes=0, nx=32, nt=16)
    with pytest.raises(ValidationError):
        DirectProblemSpec(fp, psi, modes=40, nx=32, nt=16)
    with pytest.raises(ValidationError):
        DirectProblemSpec(fp, psi, horizon=-1.0, modes=4, nx=32, nt=16)
    bad_forcing = SeparableForcing(SampledFunction(x, np.ones_like(x)))
    with pytest.raises(ValidationError):
        DirectProblemSpec(fp, psi, bad_forcing, modes=4, nx=32, nt=16)
    short = SeparableForcing(
        SampledFunction(x, bump(x)),
        SampledFunction(np.linspace(0.0, 0.5, 9), np.ones(9)),
    )
    with pytest.raises(ValidationError):
        DirectProblemSpec(fp, psi, short, horizon=1.0, modes=4, nx=32, nt=16)


def test_tensor_forcing_grid_is_checked_with_the_spec():
    # the forcing's own x grid must be uniform on [0, 1] and resolve K modes
    fp = FracParams(0.5, 0.0)
    x = unit_grid(32)
    psi = SampledFunction(x, bump(x))

    def spec(xf, K):
        forcing = TensorForcing(xf, [0.0, 1.0], np.outer([1.0, 2.0], bump(xf)))
        return DirectProblemSpec(fp, psi, forcing, modes=K, nx=32, nt=16)

    cases = [
        (unit_grid(32) ** 2, 4, ["forcing: grid must be uniform"]),
        (unit_grid(8), 8, ["forcing: a grid with 8 cells resolves at most 7 modes"]),
        (unit_grid(8) ** 2, 8, ["forcing: grid must be uniform",
                                "forcing: a grid with 8 cells resolves at most 7 modes"]),
    ]
    for xf, K, failures in cases:
        with pytest.raises(ValidationError) as err:
            spec(xf, K)
        assert err.value.failures == failures
    spec(unit_grid(8), 7)


def test_solution_field_trace_accessor():
    fp = FracParams(0.5, 0.0)
    x = unit_grid(32)
    psi = SampledFunction(x, np.sin(np.pi * x))
    sol = solve_direct(DirectProblemSpec(fp, psi, modes=4, nx=32, nt=16))
    tr = sol.trace(1)
    assert isinstance(tr, SampledFunction)
    assert_allclose(tr.values, sol.modes[0], rtol=0, atol=0)
    with pytest.raises(ValueError):
        sol.trace(5)
