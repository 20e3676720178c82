"""Independent oracles and self-check harnesses.

Every oracle here reaches the quantity it checks by a different derivation
than the production path: the scalar solver (a resolvent formula) is
checked against step-by-step collocation of the underlying integral
equation; the weighted derivative construction is checked against the
classical L1 difference scheme at theta = 0; the direct and inverse
solvers are checked against each other by composition.  Reports carry
machine-readable error norms and pass/fail verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    FracParams,
    SampledFunction,
    make_time_grid,
    reg_caputo_on_grid,
)
from .quadrature import _check_grid, power_kernel_weights
from .scalar import ScalarProblem, _forcing_samples, lambda_star, solve_scalar
from .special import gamma, ml_one_array
from .spectral import (
    DirectProblemSpec,
    SeparableForcing,
    SineSeries,
    SolutionField,
    _forcing_mode_traces,
    _sine_values,
    sine_synthesize,
    solve_direct,
)
from .inverse import InverseProblemSpec, solve_inverse

__all__ = [
    "VerificationReport",
    "l1_caputo_solve",
    "reduction_theta_zero",
    "residual_direct",
    "roundtrip_inverse",
    "run_suite",
    "suite_names",
    "volterra_oracle",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: error norms against a tolerance, plus the
    empirical convergence rate when at least two resolutions were run."""

    name: str
    grids: tuple
    max_error: float
    l2_error: float
    tol: float
    passed: bool
    rate: float | None = None

    def __post_init__(self):
        if self.max_error < 0.0 or self.l2_error < 0.0:
            raise ValueError("VerificationReport: error norms must be non-negative")
        if self.rate is not None and len(self.grids) < 2:
            raise ValueError("VerificationReport: a rate needs at least two resolutions")

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "grids": list(self.grids),
            "max_error": self.max_error,
            "l2_error": self.l2_error,
            "tol": self.tol,
            "rate": self.rate,
            "passed": self.passed,
        }


def _norms(err: np.ndarray):
    err = np.abs(np.asarray(err, dtype=float))
    if err.size == 0:
        return 0.0, 0.0
    return float(np.max(err)), float(np.sqrt(np.mean(err**2)))


def _report(name: str, grids, errs, tol: float) -> VerificationReport:
    """The verdict of one check from its ``(max, l2)`` error pairs, one per
    resolution: the finest level's norms against ``tol``, and the rate
    log2(first max / last max) when there are two levels, neither of them
    at roundoff."""
    (first, _), (mx, l2) = errs[0], errs[-1]
    rate = None if len(errs) < 2 or min(first, mx) < 1e-13 else math.log2(first / mx)
    return VerificationReport(name, tuple(grids), mx, l2, tol, mx <= tol, rate)


# ---------------------------------------------------------------------------
# scalar-problem oracle: collocation of the integral equation

def volterra_oracle(prob: ScalarProblem, tgrid) -> SampledFunction:
    """Solve the scalar problem by implicit product-integration collocation.

    The unknown trace satisfies, in the s = t^rho clock,

        u(s) - (ls/Gamma(a)) int_0^s (s-sig)^(a-1) u(sig) dsig
            = u0 + (1/(rho^a Gamma(a))) int_0^s (s-sig)^(a-1) f dsig,

    and is stepped node by node, solving each nodal value from its own
    collocation equation.  The march runs on an internal mesh graded
    toward s = 0 (the trace behaves like s^a there) and the result is
    interpolated back; derivation and stepping are independent of the
    resolvent formula used by solve_scalar.
    """
    tgrid = _check_grid(tgrid, "time grid")
    fp = prob.fp
    alpha = fp.alpha
    ls = lambda_star(prob.fp, prob.lam)
    S = tgrid[-1] ** fp.rho
    internal = max(4 * (tgrid.size - 1), 1024)
    r = max(2.0, 2.0 / alpha)
    s = S * (np.arange(internal + 1) / internal) ** r

    # forcing interpolant consistent with the production path: linear in
    # the s-clock between the problem nodes, refined onto the march mesh
    f_prob = _forcing_samples(prob.forcing, tgrid)
    fvals = None if f_prob is None else np.interp(s, tgrid**fp.rho, f_prob)
    W = power_kernel_weights(s, alpha)
    ga = gamma(alpha)
    rhs = np.full(s.size, prob.u0)
    if fvals is not None:
        rhs += (W @ fvals) / (fp.rho**alpha * ga)

    coef = ls / ga
    u = np.empty(s.size)
    u[0] = prob.u0
    for n in range(1, s.size):
        den = 1.0 - coef * W[n, n]
        if abs(den) < 1e-12:
            raise RuntimeError("volterra_oracle: singular collocation step")
        u[n] = (rhs[n] + coef * (W[n, :n] @ u[:n])) / den

    out = np.interp(tgrid**fp.rho, s, u)
    out[0] = prob.u0
    return SampledFunction(tgrid, out)


# ---------------------------------------------------------------------------
# classical-limit oracle: L1 difference scheme at theta = 0

def l1_caputo_solve(alpha: float, lam: float, u0: float, tgrid) -> SampledFunction:
    """March the relaxation problem D^alpha u + lam u = 0, u(0) = u0, with
    the classical L1 difference scheme for the Caputo derivative.

    The march runs on 2048 cells graded like t^((2-alpha)/alpha) to recover
    second-order-like accuracy despite the t^alpha start, then the trace
    is interpolated onto ``tgrid``.  Entirely independent of the
    Mittag-Leffler representation.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("l1_caputo_solve: alpha must lie in (0, 1)")
    tgrid = _check_grid(tgrid, "time grid")
    T = tgrid[-1]
    internal = 2048
    r = (2.0 - alpha) / alpha
    t = T * (np.arange(internal + 1) / internal) ** r
    g2 = gamma(2.0 - alpha)
    u = np.empty(internal + 1)
    u[0] = u0
    for n in range(1, internal + 1):
        tn = t[n]
        back = (tn - t[:n]) ** (1.0 - alpha)
        fwd = (tn - t[1 : n + 1]) ** (1.0 - alpha)
        c = (back - fwd) / (g2 * (t[1 : n + 1] - t[:n]))
        hist = c[: n - 1] @ (u[1:n] - u[: n - 1]) if n > 1 else 0.0
        u[n] = (c[n - 1] * u[n - 1] - hist) / (c[n - 1] + lam)
    out = np.interp(tgrid, t, u)
    out[0] = u0
    return SampledFunction(tgrid, out)


# ---------------------------------------------------------------------------
# reduction and residual harnesses

def reduction_theta_zero(alpha: float, lam: float, tgrid) -> VerificationReport:
    """At theta = 0 the weighted construction collapses to the classical
    fractional derivative, so the scalar solver must reproduce the pure
    relaxation trace computed directly from the Mittag-Leffler function,
    to 1e-10."""
    tgrid = _check_grid(tgrid, "time grid")
    fp = FracParams(alpha, 0.0)
    u = solve_scalar(ScalarProblem(fp, lam, 1.0), tgrid)
    want = ml_one_array(alpha, -lam * tgrid**alpha)
    return _report("reduction-theta-zero", (tgrid.size - 1,), [_norms(u.values - want)], 1e-10)


def residual_direct(field: SolutionField, spec: DirectProblemSpec) -> VerificationReport:
    """Substitute a direct-solver field back into the governing equation.

    The weighted fractional derivative is applied numerically along every
    mode trace; the diffusion term is exact mode-wise ((k pi)^2 u_k); the
    forcing coefficients are subtracted, and the residual field is
    synthesized and measured on interior times against 1e-2.

    Interior means t with t^rho >= 0.05 T^rho: difference formulas of
    L1 type have an O(1) consistency defect in a shrinking neighborhood
    of t = 0 on traces with the characteristic fractional-power start, so
    the residual is meaningful (and refines toward zero) only on a window
    bounded away from the origin.
    """
    K = field.modes.shape[0]
    tgrid = field.tgrid
    lam = (np.arange(1, K + 1) * math.pi) ** 2
    f = 0.0 if spec.forcing is None else _forcing_mode_traces(spec.forcing, K, field.xgrid, tgrid)
    res = np.array([reg_caputo_on_grid(SampledFunction(tgrid, u), spec.fp) for u in field.modes])
    res += lam[:, None] * field.modes
    res -= f
    R = _sine_values(res, field.xgrid)
    sclock = tgrid**spec.fp.rho
    window = sclock >= 0.05 * sclock[-1]
    return _report("residual-direct", (tgrid.size - 1,), [_norms(R[window])], 1e-2)


def roundtrip_inverse(fp: FracParams, source: SineSeries, horizon: float, resolutions) -> VerificationReport:
    """Generate final data with the direct solver from a known band-limited
    source, hand it to the inverse solver, and compare coefficients."""
    resolutions = [int(n) for n in resolutions]
    if not resolutions:
        raise ValueError("roundtrip_inverse: need at least one resolution")
    K = max(64, source.modes)
    nx = max(256, 2 * K)
    xgrid = np.linspace(0.0, 1.0, nx + 1)
    zero = SampledFunction(xgrid, np.zeros(nx + 1))
    g = sine_synthesize(source, xgrid)
    scale = float(np.max(np.abs(source.coeffs)))
    errs = []
    for nt in resolutions:
        direct = solve_direct(
            DirectProblemSpec(fp, zero, SeparableForcing(g), horizon=horizon, modes=K, nx=nx, nt=nt)
        )
        phi = SampledFunction(xgrid, direct.values[-1])
        res = solve_inverse(
            InverseProblemSpec(fp, zero, phi, horizon, modes=K, nx=nx, nt=nt)
        )
        want = np.zeros(K)
        want[: source.modes] = source.coeffs
        # relative to max(|want_k|, max|coeffs|); absolute for a zero source
        errs.append(_norms((res.source.coeffs - want) / np.maximum(np.abs(want), scale or 1.0)))
    return _report("roundtrip-inverse", resolutions, errs, 1e-4)


# ---------------------------------------------------------------------------
# canned suites

def _suite_reduction() -> list:
    out = []
    for alpha, lam, T in ((0.5, 1.0, 1.0), (0.9, 4.0, 2.0), (0.3, 0.0, 1.0)):
        t = np.linspace(0.0, T, 257)
        out.append(reduction_theta_zero(alpha, lam, t))
    return out


def _suite_volterra() -> list:
    out = []
    cases = ((0.5, 0.0, 1.0), (0.3, 0.7, 10.0), (0.8, -1.0, 3.0))
    for alpha, theta, lam in cases:
        fp = FracParams(alpha, theta)
        errs = []
        grids = (256, 512)
        for n in grids:
            t = make_time_grid(1.0, n, fp.rho)
            forcing = SampledFunction(t, 1.0 + t**fp.rho - 0.5 * t ** (2.0 * fp.rho))
            prob = ScalarProblem(fp, lam, 0.7, forcing)
            errs.append(_norms(solve_scalar(prob, t).values - volterra_oracle(prob, t).values))
        out.append(_report("volterra-oracle", grids, errs, 1e-4))
    return out


def _suite_residual() -> list:
    fp = FracParams(0.6, 0.3)
    x = np.linspace(0.0, 1.0, 129)
    psi = SampledFunction(x, np.sin(np.pi * x) + 0.3 * np.sin(2.0 * np.pi * x))
    forcing = SeparableForcing(SampledFunction(x, x * (1.0 - x) * np.sin(np.pi * x)))
    spec = DirectProblemSpec(fp, psi, forcing, horizon=1.0, modes=8, nx=128, nt=512)
    return [residual_direct(solve_direct(spec), spec)]


def _suite_roundtrip() -> list:
    coeffs = np.zeros(5)
    coeffs[0] = 1.0
    coeffs[2] = -0.6
    coeffs[4] = 0.25
    fp = FracParams(0.6, 0.3)
    return [roundtrip_inverse(fp, SineSeries(coeffs), 1.0, (16, 32))]


_SUITES = {
    "reduction-theta-zero": _suite_reduction,
    "volterra-oracle": _suite_volterra,
    "residual-direct": _suite_residual,
    "roundtrip-inverse": _suite_roundtrip,
}


def suite_names() -> list:
    return sorted(_SUITES) + ["all"]


def run_suite(name: str) -> list:
    """Run a named check suite; ``all`` concatenates every suite."""
    if name == "all":
        out = []
        for key in sorted(_SUITES):
            out.extend(_SUITES[key]())
        return out
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(suite_names())}")
    return _SUITES[name]()
