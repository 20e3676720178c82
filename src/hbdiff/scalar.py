"""Scalar fractional Cauchy problems in the stretched time clock.

The equation treated here is

    D^alpha u(t) = -lam * u(t) + f(t),    u(0) = u0,

where D^alpha is the regularized time-stretched fractional derivative of
order alpha built on (t^theta d/dt).  Substituting s = t^rho with
rho = 1 - theta turns the problem into a classical fractional one in s,
and the solution has an explicit representation: a Mittag-Leffler decay
of the initial value plus one convolution of the forcing against the
matched kernel u^(alpha-1) E_{alpha,alpha}(ls u^alpha).  The convolution
uses the exact-moment lag weights of :mod:`hbdiff.quadrature` on a grid
uniform in s, applied by FFT to many problems at once, so the computed
solution is exact (to rounding and evaluator accuracy) for the
piecewise-linear interpolant of the forcing samples.

Also provided: the explicit resolvent solution of the second-kind
integral equation with the weighted fractional integral, and an
independent two-sided evaluation of the composition identity that merges
a Mittag-Leffler convolution with a fractional integral into a single
convolution of shifted type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import EKParams, FracParams, SampledFunction
# bench/worker.py traces power_kernel_weights and ml_product_matrix by this module's name
from .quadrature import (  # noqa: F401
    lag_convolve,
    ml_lag_weights,
    ml_product_matrix,
    ml_product_row,
    power_integral_at,
    power_kernel_weights,
)
from .special import gamma, ml_one_array

__all__ = [
    "ConstantForcing",
    "ScalarProblem",
    "ZeroForcing",
    "lambda_star",
    "prabhakar_compose",
    "solve_scalar",
    "solve_scalar_batch",
    "solve_scalar_constant",
    "solve_second_kind",
]


@dataclass(frozen=True)
class ZeroForcing:
    """No forcing term."""


@dataclass(frozen=True)
class ConstantForcing:
    """Forcing that is constant in time."""

    f0: float

    def __post_init__(self):
        if not math.isfinite(self.f0):
            raise ValueError("ConstantForcing: f0 must be finite")


@dataclass(frozen=True)
class ScalarProblem:
    fp: FracParams
    lam: float
    u0: float
    forcing: object = field(default_factory=ZeroForcing)

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.u0)):
            raise ValueError("ScalarProblem: lam and u0 must be finite")
        if not isinstance(self.forcing, (ZeroForcing, ConstantForcing, SampledFunction)):
            raise ValueError(
                "ScalarProblem: forcing must be ZeroForcing, ConstantForcing "
                "or a SampledFunction"
            )


def lambda_star(fp: FracParams, lam: float) -> float:
    """Decay-rate parameter seen by the Mittag-Leffler factors: -lam/rho^alpha."""
    return -lam / fp.rho**fp.alpha


def _check_tgrid(tgrid) -> np.ndarray:
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.ndim != 1 or tgrid.size < 2:
        raise ValueError("time grid must be 1-d with at least 2 nodes")
    if tgrid[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if not np.all(np.isfinite(tgrid)) or np.any(np.diff(tgrid) <= 0.0):
        raise ValueError("time grid must be finite and strictly increasing")
    return tgrid


def _clock_grid(tgrid: np.ndarray, beta: float, n_min: int = 512):
    """Quadrature grid uniform in the stretched clock s = t^beta.

    Always uniform: the requested grid's own clock when it already is
    uniform in s, otherwise an internal uniform grid that the caller must
    interpolate back from.  Returns (s, native).
    """
    s_req = tgrid**beta
    ds = np.diff(s_req)
    if np.allclose(ds, ds[0], rtol=1e-9, atol=1e-13 * s_req[-1]):
        return s_req, True
    n = max(n_min, 4 * (tgrid.size - 1))
    return np.linspace(0.0, s_req[-1], n + 1), False


def _forcing_samples(forcing, t_nodes: np.ndarray):
    """Forcing values at the quadrature time nodes, or None when zero."""
    if isinstance(forcing, ZeroForcing):
        return None
    if isinstance(forcing, ConstantForcing):
        if forcing.f0 == 0.0:
            return None
        return np.full(t_nodes.shape, forcing.f0)
    if t_nodes[-1] > forcing.grid[-1] * (1.0 + 1e-12):
        raise ValueError("forcing samples do not cover the requested horizon")
    return np.interp(t_nodes, forcing.grid, forcing.values)


def solve_scalar_batch(fp: FracParams, lam, u0, tgrid, forcing=None) -> np.ndarray:
    """Traces (K, len(tgrid)) of the K problems with rates ``lam``, initial
    values ``u0`` and forcing rows ``forcing`` (None, (K, len(tgrid)), or
    one shared row) on a ``tgrid`` uniform in s = t^rho (make_time_grid).
    One Mittag-Leffler table and one FFT serve all K kernels: O(K N log N)
    time, O(K N) memory.
    """
    alpha, rho = fp.alpha, fp.rho
    s = np.asarray(tgrid, dtype=float) ** rho
    ls = lambda_star(fp, np.asarray(lam, dtype=float))
    u0 = np.asarray(u0, dtype=float)
    z = ls[:, None] * s**alpha
    u = u0[:, None] * ml_one_array(alpha, z.ravel()).reshape(z.shape)
    if forcing is not None:
        far, near = ml_lag_weights(s, alpha, alpha, ls)
        u += lag_convolve(far, near, forcing) / rho**alpha
    u[:, 0] = u0
    return u


def solve_scalar(prob: ScalarProblem, tgrid) -> SampledFunction:
    """Explicit integral-representation solution of the scalar problem.

    u(t) = u0 E_a(ls * s^a)
         + (1/rho^a) * int (s - sig)^(a-1) E_{a,a}(ls (s - sig)^a) f d sig

    with s = t^rho and ls = -lam/rho^a.  E_{a,a}(z) = 1/Gamma(a) +
    z E_{a,2a}(z) merges the power kernel and the E_{a,2a} kernel into
    this one.  Runs :func:`solve_scalar_batch` with K = 1, on an internal
    uniform s-grid when ``tgrid`` is not one; u(0) = u0 exactly.
    """
    tgrid = _check_tgrid(tgrid)
    rho = prob.fp.rho
    s, native = _clock_grid(tgrid, rho)
    t_nodes = tgrid if native else s ** (1.0 / rho)
    fvals = _forcing_samples(prob.forcing, t_nodes)
    u = solve_scalar_batch(prob.fp, [prob.lam], [prob.u0], t_nodes, fvals)[0]
    if not native:
        u = np.interp(tgrid**rho, s, u)
    return SampledFunction(tgrid, u)


def solve_scalar_constant(
    fp: FracParams, lam: float, u0: float, f0: float, tgrid
) -> SampledFunction:
    """Closed-form solution for constant forcing: the trajectory relaxes
    from u0 toward the equilibrium f0/lam along a Mittag-Leffler decay,

        u(t) = (u0 - f0/lam) E_a(ls * t^(rho a)) + f0/lam.

    Rejects lam = 0, where the equilibrium does not exist; use
    solve_scalar for that degenerate case.
    """
    if lam == 0.0:
        raise ValueError(
            "solve_scalar_constant: lam must be nonzero (the closed form "
            "divides by it); use solve_scalar instead"
        )
    if not (math.isfinite(lam) and math.isfinite(u0) and math.isfinite(f0)):
        raise ValueError("solve_scalar_constant: parameters must be finite")
    tgrid = _check_tgrid(tgrid)
    s = tgrid**fp.rho
    ls = lambda_star(fp, lam)
    u = (u0 - f0 / lam) * ml_one_array(fp.alpha, ls * s**fp.alpha) + f0 / lam
    return SampledFunction(tgrid, u)


def solve_second_kind(
    f: SampledFunction, lam: float, p: EKParams, tgrid
) -> SampledFunction:
    """Explicit resolvent solution of the second-kind integral equation

        y(t) - lam * t^(beta delta) I^{gamma,delta} y (t) = f(t),

    namely y = f plus a convolution of f against the Mittag-Leffler
    resolvent kernel in the sigma = t^beta clock:

        y(t) = f(t) + lam t^(-beta gamma) *
               int (S - sig)^(delta-1) E_{delta,delta}(lam (S - sig)^delta)
               sig^gamma f(sig^(1/beta)) d sig.

    Substituting y back into the equation reproduces f to quadrature
    accuracy.
    """
    if p.delta <= 0.0:
        raise ValueError("solve_second_kind: requires delta > 0")
    if p.gamma_w < 0.0:
        raise ValueError("solve_second_kind: negative weight exponent not supported")
    if not math.isfinite(lam):
        raise ValueError("solve_second_kind: lam must be finite")
    tgrid = _check_tgrid(tgrid)
    if tgrid[-1] > f.grid[-1] * (1.0 + 1e-12):
        raise ValueError("solve_second_kind: samples do not cover the horizon")
    if lam == 0.0:
        return SampledFunction(tgrid, np.interp(tgrid, f.grid, f.values))
    sig, native = _clock_grid(tgrid, p.beta)
    t_nodes = tgrid if native else sig ** (1.0 / p.beta)
    fvals = np.interp(t_nodes, f.grid, f.values)

    # sig**0 == 1 exactly, so gamma_w = 0 needs no branch
    conv = lag_convolve(*ml_lag_weights(sig, p.delta, p.delta, [lam]), sig**p.gamma_w * fvals)[0]
    y = fvals.copy()
    y[1:] += lam * sig[1:] ** (-p.gamma_w) * conv[1:]
    if not native:
        y0 = y[0]
        y = np.interp(tgrid**p.beta, sig, y)
        y[0] = y0
    return SampledFunction(tgrid, y)


def prabhakar_compose(
    f: SampledFunction,
    alpha: float,
    beta_star: float,
    mu: float,
    lam: float,
    x: float,
    n: int = 2048,
):
    """Both sides of the kernel-merging composition identity, computed by
    independent quadratures.

    lhs: the Mittag-Leffler convolution of order (alpha, beta_star)
    applied to the fractional integral of order mu of f, by nested
    product integration (inner integral exact for piecewise-linear f,
    outer on a grid graded toward 0 where the inner result has a power
    cusp).  The outer quadrature is evaluated at two resolutions and
    extrapolated, cancelling the leading interpolation-error term of the
    inner profile.

    rhs: a single convolution of f against the merged kernel
    (x - t)^(beta_star+mu-1) E_{alpha, beta_star+mu}(lam (x - t)^alpha),
    on a grid containing every node of f.

    Returns (lhs, rhs); their difference measures only the identity plus
    quadrature error, since both sides target the same interpolant of f.
    """
    if beta_star <= 0.0 or mu <= 0.0:
        raise ValueError("prabhakar_compose: beta_star and mu must be positive")
    if not (math.isfinite(lam) and math.isfinite(x)) or x <= 0.0:
        raise ValueError("prabhakar_compose: need finite lam and x > 0")
    if x > f.grid[-1] * (1.0 + 1e-12):
        raise ValueError("prabhakar_compose: x lies beyond the sampled grid")
    if n < 8:
        raise ValueError("prabhakar_compose: n too small")

    def lhs_level(m: int) -> float:
        # cubic grading puts resolution where the inner integral behaves
        # like a fractional power of u
        grid_out = x * (np.arange(m + 1, dtype=float) / m) ** 3
        inner = power_integral_at(f.grid, f.values, mu, grid_out) / gamma(mu)
        return float(ml_product_row(grid_out, alpha, beta_star, lam) @ inner)

    # the error of the graded outer rule is C/m^2 + O(m^-3); one
    # extrapolation step removes the leading term
    lhs = (4.0 * lhs_level(n) - lhs_level(n // 2)) / 3.0

    base = np.union1d(np.linspace(0.0, x, n + 1), f.grid[f.grid < x])
    # collapse near-coincident merge artifacts; keep 0 and x themselves
    drop = np.zeros(base.size, dtype=bool)
    drop[:-1] = np.diff(base) <= 1e-12 * x
    drop[0] = False
    base = base[~drop]
    fv = np.interp(base, f.grid, f.values)
    rhs = float(ml_product_row(base, alpha, beta_star + mu, lam) @ fv)
    return lhs, rhs
