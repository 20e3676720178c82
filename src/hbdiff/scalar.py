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
piecewise-linear interpolant of the forcing samples.  :func:`solve_scalar`
and :func:`solve_second_kind` share one clock path, :func:`_on_clock`.
A forcing constant in time needs no convolution: the trace relaxes toward
f/lam in closed form, coded once in :func:`solve_scalar_batch` (for a
(K, 1) forcing column) and used by :func:`solve_scalar_constant` and the
direct solver.

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
    _check_grid,
    _uniform_step,
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


def _on_clock(tgrid: np.ndarray, beta: float, solve) -> np.ndarray:
    """``solve(t_nodes, s)`` on nodes uniform in the clock s = t^beta.

    The nodes are ``tgrid`` itself when its clock is uniform
    (:func:`hbdiff.quadrature._uniform_step`); otherwise an internal
    uniform grid of max(512, 4 (len(tgrid) - 1)) cells, whose result is
    interpolated back to ``tgrid`` in s.
    """
    s = tgrid**beta
    if _uniform_step(s) is not None:
        return solve(tgrid, s)
    s_int = np.linspace(0.0, s[-1], max(512, 4 * (tgrid.size - 1)) + 1)
    return np.interp(s, s_int, solve(s_int ** (1.0 / beta), s_int))


def _forcing_samples(forcing, t_nodes: np.ndarray):
    """Forcing values at the quadrature time nodes, or None when zero."""
    if isinstance(forcing, ZeroForcing):
        return None
    if isinstance(forcing, ConstantForcing):
        return None if forcing.f0 == 0.0 else np.full(t_nodes.shape, forcing.f0)
    return forcing.value_at(t_nodes)


def solve_scalar_batch(fp: FracParams, lam, u0, tgrid, forcing=None) -> np.ndarray:
    """Traces (K, len(tgrid)) of the K problems with rates ``lam`` and
    initial values ``u0``; u[:, 0] = u0 exactly.  ``forcing`` is None,
    rows (K, len(tgrid)) or one shared row, convolved on a ``tgrid``
    uniform in s = t^rho (make_time_grid), or a (K, 1) column f constant in
    time.  Each constant-forced trace relaxes toward f/lam in closed form,

        u(t) = (u0 - f/lam) E_a(ls s^a) + f/lam,

    so every rate must be nonzero on that path.  One Mittag-Leffler table
    and one FFT serve all K kernels: O(K N log N) time, O(K N) memory.
    """
    alpha, rho = fp.alpha, fp.rho
    s = np.asarray(tgrid, dtype=float) ** rho
    lam = np.asarray(lam, dtype=float)
    ls = lambda_star(fp, lam)
    u0 = np.asarray(u0, dtype=float)
    z = ls[:, None] * s**alpha
    decay = ml_one_array(alpha, z.ravel()).reshape(z.shape)
    if np.shape(forcing)[1:] == (1,):
        eq = np.asarray(forcing, dtype=float)[:, 0] / lam
        u = (u0 - eq)[:, None] * decay + eq[:, None]
    else:
        u = u0[:, None] * decay
        if forcing is not None:
            u += lag_convolve(*ml_lag_weights(s, alpha, alpha, ls), forcing) / rho**alpha
    u[:, 0] = u0
    return u


def solve_scalar(prob: ScalarProblem, tgrid) -> SampledFunction:
    """Explicit integral-representation solution of the scalar problem.

    u(t) = u0 E_a(ls * s^a)
         + (1/rho^a) * int (s - sig)^(a-1) E_{a,a}(ls (s - sig)^a) f d sig

    with s = t^rho and ls = -lam/rho^a.  E_{a,a}(z) = 1/Gamma(a) +
    z E_{a,2a}(z) merges the power kernel and the E_{a,2a} kernel into
    this one.  Runs :func:`solve_scalar_batch` with K = 1 on the clock
    path of :func:`_on_clock`; u(0) = u0 exactly.
    """
    tgrid = _check_grid(tgrid, "time grid")

    def solve(t_nodes, s):
        fvals = _forcing_samples(prob.forcing, t_nodes)
        return solve_scalar_batch(prob.fp, [prob.lam], [prob.u0], t_nodes, fvals)[0]

    return SampledFunction(tgrid, _on_clock(tgrid, prob.fp.rho, solve))


def solve_scalar_constant(
    fp: FracParams, lam: float, u0: float, f0: float, tgrid
) -> SampledFunction:
    """Closed-form solution for constant forcing: the trajectory relaxes
    from u0 toward the equilibrium f0/lam along a Mittag-Leffler decay,

        u(t) = (u0 - f0/lam) E_a(ls * t^(rho a)) + f0/lam,

    the constant-column path of :func:`solve_scalar_batch` with K = 1, on
    any time grid; u(0) = u0 exactly.  Rejects lam = 0, where the
    equilibrium does not exist; use solve_scalar for that degenerate case.
    """
    if lam == 0.0:
        raise ValueError(
            "solve_scalar_constant: lam must be nonzero (the closed form "
            "divides by it); use solve_scalar instead"
        )
    if not (math.isfinite(lam) and math.isfinite(u0) and math.isfinite(f0)):
        raise ValueError("solve_scalar_constant: parameters must be finite")
    tgrid = _check_grid(tgrid, "time grid")
    return SampledFunction(tgrid, solve_scalar_batch(fp, [lam], [u0], tgrid, [[f0]])[0])


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
    tgrid = _check_grid(tgrid, "time grid")
    if lam == 0.0:
        return SampledFunction(tgrid, f.value_at(tgrid))

    def solve(t_nodes, sig):
        fvals = f.value_at(t_nodes)
        w, edge = ml_lag_weights(sig, p.delta, p.delta, [lam])
        # sig**0 == 1 exactly, so gamma_w = 0 needs no branch
        conv = lag_convolve(w, edge, sig**p.gamma_w * fvals)[0]
        fvals[1:] += lam * sig[1:] ** (-p.gamma_w) * conv[1:]
        return fvals

    return SampledFunction(tgrid, _on_clock(tgrid, p.beta, solve))


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
    if n < 8:
        raise ValueError("prabhakar_compose: n too small")

    base = np.union1d(np.linspace(0.0, x, n + 1), f.grid[f.grid < x])
    # collapse near-coincident merge artifacts; keep 0 and x themselves
    drop = np.zeros(base.size, dtype=bool)
    drop[:-1] = np.diff(base) <= 1e-12 * x
    drop[0] = False
    base = base[~drop]
    rhs = float(f.value_at(base) @ ml_product_row(base, alpha, beta_star + mu, lam))

    def lhs_level(m: int) -> float:
        # cubic grading puts resolution where the inner integral behaves
        # like a fractional power of u
        grid_out = x * (np.arange(m + 1, dtype=float) / m) ** 3
        inner = power_integral_at(f.grid, f.values, mu, grid_out) / gamma(mu)
        return float(ml_product_row(grid_out, alpha, beta_star, lam) @ inner)

    # the error of the graded outer rule is C/m^2 + O(m^-3); one
    # extrapolation step removes the leading term
    lhs = (4.0 * lhs_level(n) - lhs_level(n // 2)) / 3.0
    return lhs, rhs
