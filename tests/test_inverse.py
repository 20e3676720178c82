"""Tests for source recovery from initial and final profiles."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hbdiff.errors import IllPosedError, ValidationError
from hbdiff.inverse import (
    InverseProblemSpec,
    InverseResult,
    reconstruct_source_field,
    solve_inverse,
)
from hbdiff.operators import FracParams, SampledFunction
from hbdiff.scalar import lambda_star, solve_scalar_constant
from hbdiff.special import ml_one
from hbdiff.spectral import (
    DirectProblemSpec,
    SeparableForcing,
    SineSeries,
    sine_analyze,
    sine_synthesize,
    solve_direct,
)


def unit_grid(n=256):
    return np.linspace(0.0, 1.0, n + 1)


def bump(x):
    return x * (1.0 - x)


def test_stationary_pair_keeps_field_frozen():
    # psi = phi: no transient, u(x, t) = psi(x) for all t
    fp = FracParams(0.6, 0.2)
    x = unit_grid(128)
    prof = SampledFunction(x, bump(x))
    spec = InverseProblemSpec(fp, prof, prof, horizon=1.0, modes=32, nx=128, nt=32)
    res = solve_inverse(spec)
    assert np.max(np.abs(res.transient)) == 0.0
    truncated = sine_synthesize(sine_analyze(prof, 32), x).values
    for row in res.u.values:
        assert_allclose(row, truncated, rtol=0, atol=1e-14)
    # stationary source: f_k = (k pi)^2 psi_k
    lam = (np.arange(1, 33) * math.pi) ** 2
    assert_allclose(res.source.coeffs, lam * sine_analyze(prof, 32).coeffs, rtol=1e-13)


def test_single_mode_reconstruction_formulas():
    # psi = sin(pi x), phi = 0
    fp = FracParams(0.5, 0.3)
    T = 0.8
    x = unit_grid(128)
    psi = SampledFunction(x, np.sin(np.pi * x))
    phi = SampledFunction(x, np.zeros_like(x))
    res = solve_inverse(InverseProblemSpec(fp, psi, phi, T, modes=16, nx=128, nt=64))
    decay = ml_one(fp.alpha, lambda_star(fp, math.pi**2) * T ** (fp.rho * fp.alpha))
    c1 = 1.0 / (1.0 - decay)
    assert_allclose(res.transient[0], c1, rtol=1e-12)
    assert_allclose(res.source.coeffs[0], math.pi**2 * (1.0 - c1), rtol=1e-12)
    assert np.max(np.abs(res.transient[1:])) < 1e-12
    assert np.max(np.abs(res.source.coeffs[1:])) < 1e-11


def test_endpoint_interpolation_exact():
    fp = FracParams(0.7, -0.3)
    x = unit_grid(128)
    psi = SampledFunction(x, np.sin(np.pi * x) + 0.4 * np.sin(3 * np.pi * x))
    phi = SampledFunction(x, 0.2 * np.sin(2 * np.pi * x) + 0.1 * np.sin(np.pi * x))
    spec = InverseProblemSpec(fp, psi, phi, horizon=1.3, modes=24, nx=128, nt=48)
    res = solve_inverse(spec)
    psi_c = sine_analyze(psi, 24).coeffs
    phi_c = sine_analyze(phi, 24).coeffs
    assert np.max(np.abs(res.u.modes[:, 0] - psi_c)) < 1e-13
    assert np.max(np.abs(res.u.modes[:, -1] - phi_c)) < 1e-12


def test_traces_satisfy_mode_equation():
    # each trace must be the constant-forcing scalar solution for its mode
    fp = FracParams(0.45, 0.5)
    x = unit_grid(64)
    psi = SampledFunction(x, bump(x))
    phi = SampledFunction(x, 0.5 * bump(x))
    spec = InverseProblemSpec(fp, psi, phi, horizon=1.0, modes=8, nx=64, nt=64)
    res = solve_inverse(spec)
    psi_c = sine_analyze(psi, 8).coeffs
    for i in range(8):
        lam_i = ((i + 1) * math.pi) ** 2
        want = solve_scalar_constant(
            fp, lam_i, psi_c[i], res.source.coeffs[i], res.u.tgrid
        )
        assert np.max(np.abs(res.u.modes[i] - want.values)) < 1e-10


def test_round_trip_through_direct_solver():
    # f* = sin(2 pi x), psi = 0: observe phi = u(., T), then recover f*
    fp = FracParams(0.6, 0.3)
    T = 1.0
    x = unit_grid(256)
    psi = SampledFunction(x, np.zeros_like(x))
    forcing = SeparableForcing(SampledFunction(x, np.sin(2.0 * np.pi * x)))
    direct = solve_direct(
        DirectProblemSpec(fp, psi, forcing, horizon=T, modes=64, nx=256, nt=16)
    )
    phi = SampledFunction(direct.xgrid, direct.values[-1])
    res = solve_inverse(InverseProblemSpec(fp, psi, phi, T, modes=64, nx=256, nt=16))
    want = np.zeros(64)
    want[1] = 1.0
    assert np.max(np.abs(res.source.coeffs - want)) < 1e-4
    # well inside 1e-4 in fact: the composition is algebraically exact
    assert abs(res.source.coeffs[1] - 1.0) < 1e-10


def test_denominator_margin_guard():
    # tiny horizon with small alpha: 1 - E is O(T^(rho alpha)) and falls
    # below an aggressive margin
    fp = FracParams(0.3, 0.0)
    x = unit_grid(32)
    psi = SampledFunction(x, np.sin(np.pi * x))
    phi = SampledFunction(x, np.zeros_like(x))
    spec = InverseProblemSpec(
        fp, psi, phi, horizon=1e-10, modes=4, nx=32, nt=8, margin=1e-1
    )
    with pytest.raises(IllPosedError) as err:
        solve_inverse(spec)
    assert err.value.mode == 1
    assert err.value.denominator < 1e-1


def test_denominators_reported_in_diagnostics():
    fp = FracParams(0.5, 0.0)
    x = unit_grid(64)
    prof = SampledFunction(x, bump(x))
    res = solve_inverse(InverseProblemSpec(fp, prof, prof, 1.0, modes=16, nx=64, nt=16))
    d = res.diagnostics
    assert 0.0 < d["min_denominator"] < 1.0
    assert d["min_denominator_mode"] == 1  # mode 1 decays slowest
    assert d["source_mass"] > 0.0


def test_slow_series_warning_fires_for_rough_source():
    # psi = phi = x(1-x) reconstructs f_k = 8/(k pi) for odd k: slow tail
    fp = FracParams(0.5, 0.0)
    x = unit_grid(256)
    prof = SampledFunction(x, bump(x))
    res = solve_inverse(InverseProblemSpec(fp, prof, prof, 1.0, modes=101, nx=256, nt=8))
    assert res.diagnostics["warnings"]


def test_zero_data_gives_zero_everything():
    fp = FracParams(0.4, 0.6)
    x = unit_grid(64)
    zero = SampledFunction(x, np.zeros_like(x))
    res = solve_inverse(InverseProblemSpec(fp, zero, zero, 1.0, modes=8, nx=64, nt=8))
    assert np.all(res.source.coeffs == 0.0)
    assert np.all(res.u.values == 0.0)
    field = reconstruct_source_field(res, x)
    assert np.all(field.values == 0.0)


def test_reconstruct_source_stationary_parabola():
    # psi = phi = x(1-x): the source series converges to the constant 2
    # away from the endpoints
    fp = FracParams(0.5, 0.2)
    x = unit_grid(1024)
    prof = SampledFunction(x, bump(x))
    res = solve_inverse(
        InverseProblemSpec(fp, prof, prof, 1.0, modes=801, nx=1024, nt=8)
    )
    field = reconstruct_source_field(res, x)
    mid = (x > 0.25) & (x < 0.75)
    assert np.max(np.abs(field.values[mid] - 2.0)) < 4.0 / (math.pi * 801 * math.sin(0.25 * math.pi)) * 1.1


def test_lifted_source_unequal_walls():
    # -w'' = 1 + x with w(0) = w(1) = 0: walls 1 and 2, recovered through
    # the linear lift where the bare 201-term series misses by ~2e-2
    fp = FracParams(0.5, 0.0)
    x = unit_grid(1024)
    prof = SampledFunction(x, 2.0 * x / 3.0 - x**2 / 2.0 - x**3 / 6.0)
    res = solve_inverse(
        InverseProblemSpec(fp, prof, prof, 1.0, modes=201, nx=1024, nt=8)
    )
    assert_allclose(res.walls, (1.0, 2.0), rtol=0, atol=1e-6)
    assert res.diagnostics["source_wall_left"] == res.walls[0]
    assert res.diagnostics["source_wall_right"] == res.walls[1]
    field = reconstruct_source_field(res, x)
    mid = (x >= 0.1) & (x <= 0.9)
    assert np.max(np.abs(field.values[mid] - (1.0 + x[mid]))) < 1e-3


def test_inverse_with_wall_fit_in_little_memory():
    # the K = 201, nx = 1024 solve of the lifted-source test; its wall fit
    # reads modes up to 804, and each profile is analyzed once
    fp = FracParams(0.5, 0.0)
    x = unit_grid(1024)
    prof = SampledFunction(x, 2.0 * x / 3.0 - x**2 / 2.0 - x**3 / 6.0)
    spec = InverseProblemSpec(fp, prof, prof, 1.0, modes=201, nx=1024, nt=8)
    tracemalloc.start()
    try:
        solve_inverse(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_band_limited_source_gets_no_lift():
    # a source with content up to mode K has no wall jump to recover
    fp = FracParams(0.6, 0.3)
    x = unit_grid(64)
    coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, size=8)
    zero = SampledFunction(x, np.zeros_like(x))
    forcing = SeparableForcing(sine_synthesize(SineSeries(coeffs), x))
    direct = solve_direct(
        DirectProblemSpec(fp, zero, forcing, horizon=1.0, modes=8, nx=64, nt=16)
    )
    phi = SampledFunction(direct.xgrid, direct.values[-1])
    res = solve_inverse(InverseProblemSpec(fp, zero, phi, 1.0, modes=8, nx=64, nt=16))
    assert max(abs(w) for w in res.walls) <= 1e-12


def test_band_limited_final_data_get_no_lift():
    # phi = sum_{k<=K} c_k sin(k pi x), c_k uniform in (-1, 1) from
    # default_rng([nx, draw]), draws 0..49: the fitted walls lie within
    # phi's rounding carried through the fit, so no lift is applied
    fp = FracParams(0.6, 0.3)
    for nx in (16, 32, 64, 128):
        K = nx // 4
        x = unit_grid(nx)
        zero = SampledFunction(x, np.zeros_like(x))
        for draw in range(50):
            coeffs = np.random.default_rng([nx, draw]).uniform(-1.0, 1.0, size=K)
            phi = sine_synthesize(SineSeries(coeffs), x)
            res = solve_inverse(InverseProblemSpec(fp, zero, phi, 1.0, modes=K, nx=nx, nt=4))
            assert res.walls == (0.0, 0.0), (nx, draw, res.walls)


def test_inverse_makes_one_mittag_leffler_call(monkeypatch):
    import hbdiff.special as special

    calls = []
    real = special._ml

    def counted(alpha, beta, z):
        calls.append(z.size)
        return real(alpha, beta, z)

    monkeypatch.setattr(special, "_ml", counted)
    fp = FracParams(0.6, 0.3)
    x = unit_grid(64)
    psi = SampledFunction(x, bump(x))
    phi = SampledFunction(x, 0.5 * bump(x))
    solve_inverse(InverseProblemSpec(fp, psi, phi, 1.0, modes=16, nx=64, nt=8))
    assert calls == [16 * 9]


def test_single_mode_source_synthesis():
    series = SineSeries(np.array([math.pi**2]))
    res = InverseResult(
        u=None, source=series, transient=np.zeros(1), diagnostics={}
    )
    x = unit_grid(16)
    field = reconstruct_source_field(res, x)
    assert_allclose(field.values, math.pi**2 * np.sin(np.pi * x), rtol=0, atol=1e-12)


def test_spec_validation():
    fp = FracParams(0.5, 0.0)
    x = unit_grid(32)
    good = SampledFunction(x, bump(x))
    bad = SampledFunction(x, np.cos(np.pi * x))
    with pytest.raises(ValidationError):
        InverseProblemSpec(fp, bad, good, 1.0, modes=4, nx=32, nt=8)
    with pytest.raises(ValidationError):
        InverseProblemSpec(fp, good, bad, 1.0, modes=4, nx=32, nt=8)
    with pytest.raises(ValidationError):
        InverseProblemSpec(fp, good, good, -1.0, modes=4, nx=32, nt=8)
    with pytest.raises(ValidationError):
        InverseProblemSpec(fp, good, good, 1.0, modes=0, nx=32, nt=8)
    with pytest.raises(ValidationError):
        InverseProblemSpec(fp, good, good, 1.0, modes=40, nx=32, nt=8)
    with pytest.raises(ValidationError):
        InverseProblemSpec(fp, good, good, 1.0, modes=4, nx=32, nt=8, margin=0.0)
