"""Erdelyi-Kober fractional integrals and the Euler-operator fractional
derivative built on them.

The operator family is parameterized by (beta, gamma_w, delta).  For
delta > 0 the integral

    I f (t) = t^(-beta*(gamma_w+delta)) / Gamma(delta)
              * integral over tau in (0, t) of
                (t^beta - tau^beta)^(delta-1) tau^(beta*gamma_w) f(tau) d(tau^beta)

is computed by product integration in sigma = tau^beta: the singular power
kernel is integrated exactly against piecewise-linear data, so the rule is
exact whenever f is piecewise linear in sigma.  For -1 < delta < 0 the
integro-differential interpretation applies one recursion step:

    I^{gamma_w, delta} f = (gamma_w + delta + 1) I^{gamma_w, delta+1} f
                           + (1/beta) I^{gamma_w, delta+1} (tau f')

The fractional power of the Euler-type operator t^theta d/dt of order
alpha in (0,1), for theta < 1 and rho = 1 - theta, is

    D f (t) = rho^alpha t^(-rho*alpha) I_rho^{0, -alpha} f (t)

and its regularized (Caputo-like) counterpart subtracts the f(0) cusp:

    D_reg f = D f - f(0) rho^alpha t^(-rho*alpha) / Gamma(1 - alpha).

Integrating by parts in sigma = tau^rho, with S = t^rho, turns D_reg into
the Caputo derivative in the stretched clock:

    D_reg f (t) = rho^alpha / Gamma(1 - alpha)
                  * integral over (0, S) of (S - sigma)^(-alpha) df/dsigma dsigma
                = rho^alpha / (Gamma(1 - alpha) S)
                  * integral over (0, S) of
                    (S - sigma)^(-alpha) [(1-alpha)(f - f(0)) + t f'/rho] dsigma

:func:`reg_caputo_on_grid` evaluates the first form on the interpolant's
piecewise-constant slopes, or the second from a derivative channel, with
no cusp to cancel.  :func:`hyper_bessel` and :func:`reg_caputo_hb` keep
the Erdelyi-Kober definition, so the two derivations check each other.
Every hat-weight integral here, and the clipping of the sigma nodes at
the upper limit, is :mod:`hbdiff.quadrature`'s shared rule.  Only the
first form's slope sum keeps its own cell moments: on thin cells they
stay more accurate than hat weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import (_cell_hat_weights, _check_grid, _clip_profile, _hat_integral,
                         _past_end, _pow_diff)
from .special import gamma

__all__ = [
    "EKParams",
    "FracParams",
    "SampledFunction",
    "ek_integral",
    "ek_integral_on_grid",
    "ek_integrodiff",
    "hyper_bessel",
    "make_time_grid",
    "reg_caputo_hb",
    "reg_caputo_on_grid",
]


@dataclass(frozen=True)
class FracParams:
    """Order alpha in (0,1) and Euler-weight exponent theta < 1 of the
    fractional operator; rho = 1 - theta is the induced clock exponent."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.theta)):
            raise ValueError("FracParams: parameters must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"FracParams: alpha must lie in (0, 1), got {self.alpha:g}")
        if not self.theta < 1.0:
            raise ValueError(f"FracParams: theta must be below 1, got {self.theta:g}")

    @property
    def rho(self) -> float:
        return 1.0 - self.theta


@dataclass(frozen=True)
class EKParams:
    """Parameter triple (beta, gamma_w, delta) of the fractional integral;
    beta > 0, delta != 0 (delta < 0 means the integro-differential form)."""

    beta: float
    gamma_w: float
    delta: float

    def __post_init__(self):
        for v in (self.beta, self.gamma_w, self.delta):
            if not math.isfinite(v):
                raise ValueError("EKParams: parameters must be finite")
        if self.beta <= 0.0:
            raise ValueError(f"EKParams: beta must be positive, got {self.beta:g}")
        if self.delta == 0.0:
            raise ValueError("EKParams: delta must be nonzero")


@dataclass
class SampledFunction:
    """Function samples on a grid t_0 = 0 < t_1 < ... < t_N, interpreted
    piecewise-linearly.  ``deriv`` optionally carries analytic nodal
    derivative values df/dt; otherwise derivatives come from the
    interpolant."""

    grid: np.ndarray
    values: np.ndarray
    deriv: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.grid = _check_grid(self.grid, "SampledFunction: grid")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("SampledFunction: values shape must match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("SampledFunction: values must be finite")
        if self.deriv is not None:
            self.deriv = np.asarray(self.deriv, dtype=float)
            if self.deriv.shape != self.grid.shape:
                raise ValueError("SampledFunction: deriv shape must match grid")
            if not np.all(np.isfinite(self.deriv)):
                raise ValueError("SampledFunction: deriv must be finite")

    @classmethod
    def from_callable(cls, fn, grid, deriv_fn=None) -> "SampledFunction":
        grid = np.asarray(grid, dtype=float)
        vals = np.array([fn(float(t)) for t in grid], dtype=float)
        der = None
        if deriv_fn is not None:
            der = np.array([deriv_fn(float(t)) for t in grid], dtype=float)
        return cls(grid, vals, der)

    def value_at(self, t):
        """The interpolant at a float or an array ``t``; raises ValueError for
        a point past the last node by more than 1e-12 of it (``_past_end``)."""
        if _past_end(t, self.grid[-1]):
            raise ValueError(f"evaluation point {float(np.max(t))!r} lies beyond "
                             f"the sampled grid, which ends at {float(self.grid[-1])!r}")
        v = np.interp(t, self.grid, self.values)
        return float(v) if np.ndim(v) == 0 else v


def make_time_grid(horizon: float, n: int, rho: float) -> np.ndarray:
    """Time nodes whose images under t -> t^rho are uniform on [0, horizon^rho].

    This is the natural abscissa for every integral the package computes;
    n+1 nodes are returned.
    """
    if horizon <= 0.0:
        raise ValueError("make_time_grid: horizon must be positive")
    if n < 1:
        raise ValueError("make_time_grid: need at least one cell")
    if rho <= 0.0:
        raise ValueError("make_time_grid: rho must be positive")
    s = np.linspace(0.0, horizon**rho, n + 1)
    t = s ** (1.0 / rho)
    t[0] = 0.0
    t[-1] = horizon
    return t


# ------------------------------------------------------------------ core


def _sigma_profile(f: SampledFunction, beta: float, t: float):
    """Nodes sigma = tau^beta below S = t^beta with S appended, and the data
    values there (linear interpolation in sigma); S, clamped to the grid
    end, is the last node."""
    sig_full = f.grid**beta
    S = t**beta
    if _past_end(S, sig_full[-1]):
        raise ValueError(f"evaluation point {float(t)!r} lies beyond the sampled "
                         f"grid, which ends at {float(f.grid[-1])!r}")
    return _clip_profile(sig_full, f.values, min(S, float(sig_full[-1])))


def _exact_first_cell(raw, s1, f0, f1, S, delta, gw):
    """``raw``, the nodal hat-weight integral of sigma^gw f up to each upper
    limit in ``S``, with its first cell of positive width, [0, s1], replaced
    by the integral of (S-sigma)^(delta-1) sigma^gw (f0 + (f1-f0) sigma/s1)
    over that cell.

    For S == s1 the integral is a Beta-function moment; otherwise the
    smooth kernel factor is linearized across the cell (its curvature
    there is negligible against quadrature-level tolerances).
    """
    S = np.asarray(S, dtype=float)
    df = f1 - f0
    inside = S <= s1 * (1.0 + 1e-14)
    bg1 = gamma(gw + 1.0) * gamma(delta) / gamma(gw + delta + 1.0)
    bg2 = gamma(gw + 2.0) * gamma(delta) / gamma(gw + delta + 2.0)
    beta_moment = S ** (gw + delta) * (f0 * bg1 + df * bg2)
    Sx = np.where(inside, 2.0 * s1, S)  # keeps the unused linearized branch finite
    k0 = Sx ** (delta - 1.0)
    dk = (Sx - s1) ** (delta - 1.0) - k0
    c0 = f0 * k0
    c1 = f0 * dk / s1 + df * k0 / s1
    c2 = df * dk / (s1 * s1)
    linear = (
        c0 * s1 ** (gw + 1.0) / (gw + 1.0)
        + c1 * s1 ** (gw + 2.0) / (gw + 2.0)
        + c2 * s1 ** (gw + 3.0) / (gw + 3.0)
    )
    _, wR = _cell_hat_weights(S, S - s1, delta)
    return raw - wR * (s1**gw * f1) + np.where(inside, beta_moment, linear)


def _weighted_data(sig, vals, gw):
    """sigma^gw * vals with the weight carried nodally (0 at sigma = 0)."""
    if gw == 0.0:
        return vals
    g = np.zeros_like(vals)
    pos = sig > 0.0
    g[pos] = sig[pos] ** gw * vals[pos]
    return g


def ek_integral(f: SampledFunction, p: EKParams, t: float) -> float:
    """Fractional integral of order delta > 0 at a point t in (0, grid end].

    Product integration in sigma = tau^beta, exact for data piecewise
    linear in sigma when gamma_w = 0; for gamma_w != 0 the power weight is
    carried exactly across the first cell and nodally elsewhere.
    """
    if p.delta <= 0.0:
        raise ValueError("ek_integral: requires delta > 0")
    if not t > 0.0:
        raise ValueError("ek_integral: t must be positive")
    gw = p.gamma_w
    if gw != 0.0 and gw <= -1.0:
        raise ValueError("ek_integral: gamma_w must exceed -1 for integrability")
    sig, vals = _sigma_profile(f, p.beta, t)
    S = sig[-1]
    if S == 0.0:  # sigma underflowed: the t -> 0 limit, as in ek_integral_on_grid
        return f.value_at(t) * gamma(gw + 1.0) / gamma(gw + p.delta + 1.0)
    g = _weighted_data(sig, vals, gw)
    raw = _hat_integral(sig, g[:-1], g[1:], p.delta)
    if gw != 0.0:
        z = np.count_nonzero(sig == 0.0)  # the first cell of positive width ends at node z
        raw = float(_exact_first_cell(raw, sig[z], vals[z - 1], vals[z], S, p.delta, gw))
    return S ** (-(gw + p.delta)) / gamma(p.delta) * raw


def ek_integrodiff(f: SampledFunction, p: EKParams, t: float) -> float:
    """Integro-differential form for -1 < delta < 0 (one recursion step):
    (gamma_w+delta+1) I^{gamma_w,delta+1} f + (1/beta) I^{gamma_w,delta+1} (tau f').

    The derivative is the interpolant's piecewise-constant slope unless the
    sample carries an analytic derivative channel.
    """
    if p.delta >= 0.0:
        raise ValueError("ek_integrodiff: requires delta < 0")
    if p.delta <= -1.0:
        raise ValueError("ek_integrodiff: delta <= -1 is not supported")
    p_up = EKParams(p.beta, p.gamma_w, p.delta + 1.0)
    term1 = (p.gamma_w + p.delta + 1.0) * ek_integral(f, p_up, t)
    if f.deriv is not None:
        tfp = SampledFunction(f.grid, f.grid * f.deriv)
        term2 = ek_integral(tfp, p_up, t) / p.beta
        return term1 + term2
    # tau f' = beta * sigma * (d f / d sigma): the data sigma^gamma_w *
    # sigma * slope is affine on each cell through the nodal sigma^(gw+1)
    sigS, _ = _sigma_profile(f, p.beta, t)
    S = sigS[-1]
    if S == 0.0:  # the slope term vanishes as sigma -> 0
        return term1
    ncell = sigS.size - 1
    # kept nodes are a prefix of the grid, so cell j inherits slope j; the
    # clipped last cell lies inside original cell ncell-1.  A cell that
    # rounding collapsed in sigma carries no mass and gets slope 0.
    dv = np.diff(f.values)[:ncell]
    dsig = np.diff(f.grid**p.beta)[:ncell]
    slope = np.divide(dv, dsig, out=np.zeros(ncell), where=dsig > 0.0)
    pw = sigS ** (p.gamma_w + 1.0)
    raw = _hat_integral(sigS, slope * pw[:-1], slope * pw[1:], p_up.delta)
    term2 = S ** (-(p.gamma_w + p_up.delta)) / gamma(p_up.delta) * raw
    return term1 + term2


def ek_integral_on_grid(f: SampledFunction, p: EKParams) -> np.ndarray:
    """:func:`ek_integral` evaluated at every grid node at once.

    The t = 0 entry holds the continuous limit f(0) *
    Gamma(gamma_w+1)/Gamma(gamma_w+delta+1), and so does every node whose
    sigma = t^beta underflows to 0, with its own f.
    """
    if p.delta <= 0.0:
        raise ValueError("ek_integral_on_grid: requires delta > 0")
    gw = p.gamma_w
    if gw != 0.0 and gw <= -1.0:
        raise ValueError("ek_integral_on_grid: gamma_w must exceed -1")
    sig = f.grid**p.beta
    z = np.count_nonzero(sig == 0.0)  # nodes 0 .. z-1 sit at sigma = 0
    g = _weighted_data(sig, f.values, gw)
    raw = np.array([_hat_integral(sig[: n + 1], g[:n], g[1 : n + 1], p.delta)
                    for n in range(z, sig.size)])
    if gw != 0.0:
        raw = _exact_first_cell(raw, sig[z], f.values[z - 1], f.values[z], sig[z:], p.delta, gw)
    out = f.values * gamma(gw + 1.0) / gamma(gw + p.delta + 1.0)
    out[z:] = sig[z:] ** (-(gw + p.delta)) / gamma(p.delta) * raw
    return out


def hyper_bessel(f: SampledFunction, fp: FracParams, t: float) -> float:
    """Fractional power of the Euler-type operator t^theta d/dt applied to
    f at t > 0:  rho^alpha t^(-rho alpha) I_rho^{0,-alpha} f."""
    if not t > 0.0:
        raise ValueError("hyper_bessel: t must be positive")
    rho = fp.rho
    v = ek_integrodiff(f, EKParams(rho, 0.0, -fp.alpha), t)
    return rho**fp.alpha * t ** (-rho * fp.alpha) * v


def reg_caputo_hb(f: SampledFunction, fp: FracParams, t: float) -> float:
    """Regularized (Caputo-like) fractional Euler-operator derivative: the
    unregularized form of f - f(0).  It equals that of f minus the cusp
    f(0) rho^alpha t^(-rho alpha)/Gamma(1-alpha), without their cancellation."""
    return hyper_bessel(SampledFunction(f.grid, f.values - f.values[0], f.deriv), fp, t)


def reg_caputo_on_grid(f: SampledFunction, fp: FracParams) -> np.ndarray:
    """Regularized derivative at every grid node; index 0, and every node
    whose sigma = t^rho underflows to 0, carries the limit value 0 (the
    regularization removes the t -> 0 singularity for sampled data with
    finite slope in the transformed clock).

    Evaluated as the Caputo derivative in sigma = t^rho (see the module
    docstring): piecewise-constant slopes of the interpolant, or the
    hat-weight rule on (1-alpha)(f - f(0)) + t f'/rho when the sample
    carries a derivative channel.
    """
    rho = fp.rho
    alpha = fp.alpha
    sig = f.grid**rho
    out = np.zeros(sig.size)
    if f.deriv is not None:
        g = (1.0 - alpha) * (f.values - f.values[0]) + f.grid * f.deriv / rho
        for n in range(np.count_nonzero(sig == 0.0), sig.size):
            out[n] = _hat_integral(sig[: n + 1], g[:n], g[1 : n + 1], 1.0 - alpha) / sig[n]
        return rho**alpha / gamma(1.0 - alpha) * out
    dv = np.diff(f.values)
    for n in range(1, sig.size):
        uR = sig[n] - sig[:n]
        uL = sig[n] - sig[1 : n + 1]
        h = uR - uL
        # cells collapsed by rounding (uR == uL) carry no mass
        wide = h > 0.0
        w = np.where(wide, _pow_diff(uR, uL, 1.0 - alpha) / np.where(wide, h, 1.0), 0.0)
        out[n] = np.sum(dv[:n] * w)
    return rho**alpha / gamma(2.0 - alpha) * out
