"""Tests for the oracle and harness module."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hbdiff.operators import FracParams, SampledFunction, make_time_grid
from hbdiff.scalar import ConstantForcing, ScalarProblem, solve_scalar
from hbdiff.special import ml_one_array
from hbdiff.spectral import (
    DirectProblemSpec,
    SeparableForcing,
    SineSeries,
    SolutionField,
    solve_direct,
)
from hbdiff.verify import (
    VerificationReport,
    _suite_roundtrip,
    l1_caputo_solve,
    reduction_theta_zero,
    residual_direct,
    roundtrip_inverse,
    run_suite,
    suite_names,
    volterra_oracle,
)


# ---------------------------------------------------------------------------
# collocation oracle

def test_volterra_matches_ml_decay():
    fp = FracParams(0.5, 0.2)
    t = make_time_grid(1.0, 512, fp.rho)
    prob = ScalarProblem(fp, 2.0, 1.0)
    u = volterra_oracle(prob, t)
    want = ml_one_array(0.5, -2.0 / fp.rho**0.5 * t ** (fp.rho * 0.5))
    assert np.max(np.abs(u.values - want)) < 1e-4


def test_volterra_zero_data_exact():
    fp = FracParams(0.4, -0.5)
    t = make_time_grid(1.0, 64, fp.rho)
    u = volterra_oracle(ScalarProblem(fp, 3.0, 0.0), t)
    assert np.all(u.values == 0.0)


def test_volterra_equilibrium_constant():
    fp = FracParams(0.6, 0.3)
    t = make_time_grid(1.0, 128, fp.rho)
    prob = ScalarProblem(fp, 2.0, 1.5, ConstantForcing(3.0))
    u = volterra_oracle(prob, t)
    assert_allclose(u.values, np.full(t.size, 1.5), rtol=0, atol=1e-12)


def test_volterra_agrees_with_resolvent_solver_hard_case():
    # strongest clock warp and stiffest decay of the random-draw ranges
    fp = FracParams(0.3, 0.7)
    t = make_time_grid(1.0, 512, fp.rho)
    forcing = SampledFunction(t, 1.0 + t**fp.rho - 0.5 * t ** (2.0 * fp.rho))
    prob = ScalarProblem(fp, 10.0, 0.7, forcing)
    diff = solve_scalar(prob, t).values - volterra_oracle(prob, t).values
    assert np.max(np.abs(diff)) < 1e-5


# ---------------------------------------------------------------------------
# L1 oracle

def test_l1_matches_ml_relaxation():
    t = np.linspace(0.0, 1.0, 65)
    u = l1_caputo_solve(0.5, math.pi**2, 1.0, t)
    want = ml_one_array(0.5, -(math.pi**2) * t**0.5)
    assert np.max(np.abs(u.values - want)) < 5e-5


def test_l1_zero_rate_is_constant():
    t = np.linspace(0.0, 2.0, 33)
    u = l1_caputo_solve(0.45, 0.0, 0.7, t)
    assert_allclose(u.values, np.full(t.size, 0.7), rtol=0, atol=1e-12)


def test_l1_rejects_bad_alpha():
    t = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        l1_caputo_solve(1.5, 1.0, 1.0, t)


# ---------------------------------------------------------------------------
# reports

def test_report_validation():
    with pytest.raises(ValueError):
        VerificationReport("x", (8,), -1.0, 0.0, 1e-4, False)
    with pytest.raises(ValueError):
        VerificationReport("x", (8,), 0.0, 0.0, 1e-4, True, rate=2.0)
    r = VerificationReport("x", (8, 16), 1e-3, 1e-4, 1e-2, True, rate=1.9)
    d = r.as_dict()
    assert d["check"] == "x" and d["passed"] and d["grids"] == [8, 16]


def test_reduction_theta_zero_passes():
    for alpha, lam, T in ((0.5, 1.0, 1.0), (0.9, 4.0, 2.0), (0.3, 0.0, 1.0)):
        rep = reduction_theta_zero(alpha, lam, np.linspace(0.0, T, 257))
        assert rep.passed, rep
        assert rep.max_error <= 1e-10
        assert rep.rate is None


# ---------------------------------------------------------------------------
# residual by substitution

def test_residual_direct_smooth_problem():
    fp = FracParams(0.6, 0.3)
    x = np.linspace(0.0, 1.0, 129)
    psi = SampledFunction(x, np.sin(np.pi * x) + 0.3 * np.sin(2.0 * np.pi * x))
    forcing = SeparableForcing(SampledFunction(x, x * (1.0 - x) * np.sin(np.pi * x)))
    errs = []
    for nt in (256, 512):
        spec = DirectProblemSpec(fp, psi, forcing, horizon=1.0, modes=8, nx=128, nt=nt)
        rep = residual_direct(solve_direct(spec), spec)
        errs.append(rep.max_error)
    assert errs[1] <= 1e-2  # tolerance stated at the N=512 resolution
    assert errs[1] < 0.75 * errs[0]  # refinement helps


def test_residual_zero_field_zero_forcing():
    fp = FracParams(0.5, 0.0)
    x = np.linspace(0.0, 1.0, 65)
    psi = SampledFunction(x, np.zeros(65))
    spec = DirectProblemSpec(fp, psi, horizon=1.0, modes=4, nx=64, nt=32)
    rep = residual_direct(solve_direct(spec), spec)
    assert rep.max_error == 0.0 and rep.passed


def test_residual_zero_field_nonzero_forcing_is_control():
    # a zero field cannot satisfy a forced equation: residual equals ||f||
    fp = FracParams(0.5, 0.0)
    x = np.linspace(0.0, 1.0, 65)
    t = make_time_grid(1.0, 32, 1.0)
    zero_modes = np.zeros((4, t.size))
    field = SolutionField(
        xgrid=x, tgrid=t, values=np.zeros((t.size, x.size)), modes=zero_modes
    )
    psi = SampledFunction(x, np.zeros(65))
    forcing = SeparableForcing(SampledFunction(x, np.sin(np.pi * x)))
    spec = DirectProblemSpec(fp, psi, forcing, horizon=1.0, modes=4, nx=64, nt=32)
    rep = residual_direct(field, spec)
    assert_allclose(rep.max_error, 1.0, rtol=1e-10)
    assert not rep.passed


# ---------------------------------------------------------------------------
# round trip

def test_roundtrip_single_mode():
    rep = roundtrip_inverse(
        FracParams(0.6, 0.3), SineSeries([0.0, 1.0]), 1.0, (16,)
    )
    assert rep.passed and rep.max_error <= 1e-4
    assert rep.max_error < 1e-10  # composition is algebraically exact


def test_roundtrip_multi_mode():
    coeffs = np.zeros(5)
    coeffs[0], coeffs[2], coeffs[4] = 1.0, -0.6, 0.25
    rep = roundtrip_inverse(FracParams(0.45, -0.8), SineSeries(coeffs), 0.7, (16, 32))
    assert rep.passed


def test_roundtrip_reports_a_root_mean_square_error():
    (rep,) = _suite_roundtrip()
    assert 0.0 < rep.l2_error < rep.max_error


def test_roundtrip_zero_source():
    # both levels exact: a rate between roundoff levels means nothing
    rep = roundtrip_inverse(FracParams(0.5, 0.0), SineSeries([0.0]), 1.0, (8, 16))
    assert rep.grids == (8, 16)
    assert rep.max_error == 0.0 and rep.rate is None and rep.passed


# ---------------------------------------------------------------------------
# suites

def test_suite_names_and_unknown():
    names = suite_names()
    assert "all" in names and "reduction-theta-zero" in names
    with pytest.raises(KeyError):
        run_suite("nosuch")


def test_run_suite_all_passes():
    reports = run_suite("all")
    assert len(reports) >= 6
    for rep in reports:
        assert rep.passed, rep.as_dict()
