"""Reference values computed apart from hbdiff.

The Mittag-Leffler function is evaluated by mpmath's fixed-Talbot inversion
of its Laplace transform,

    E_{a,b}(z) = L^{-1}[p^(a-b) / (p^a - z)](1),

which shares no code and no algorithm with ``hbdiff.special`` (Taylor
series, asymptotic expansion, mpmath Taylor fallback).  The Talbot nodes
and weights do not depend on z, and p^a and p^-b are cached per order, so
one value costs a few dozen multiprecision operations.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from mpmath.calculus.inverselaplace import FixedTalbot

# Requested digits; mpmath's rule of thumb then works at about 51 digits
# with 70 nodes, which keeps the result to ~1e-13 relative out to
# z = -5e5 (the largest argument the workloads need).
DIGITS = 30


class TalbotML:
    """E_{alpha,beta}(z) for one order alpha, any beta > 0 and real z."""

    def __init__(self, alpha: float):
        ctx = mp.MPContext()
        ctx.dps = DIGITS
        tal = FixedTalbot(ctx)
        tal.calc_laplace_parameter(ctx.mpf(1))
        # FixedTalbot leaves ctx at its working precision
        self._ctx = ctx
        self._p = [tal.p[i] for i in range(tal.degree)]
        w = [ctx.exp(tal.delta[0]) / 2]
        for i in range(1, tal.degree):
            c = tal.cot_theta[i]
            w.append(ctx.exp(tal.delta[i]) * (1 + 1j * tal.theta[i] * (1 + c * c) - 1j * c))
        self._w = [ctx.fraction(2, 5) * x for x in w]
        a = ctx.mpf(alpha)
        self._pa = [p**a for p in self._p]
        self._pb: dict = {}

    def __call__(self, beta: float, z: float) -> float:
        ctx = self._ctx
        pb = self._pb.get(beta)
        if pb is None:
            b = ctx.mpf(beta)
            pb = self._pb[beta] = [w * pa / p**b for w, pa, p in zip(self._w, self._pa, self._p)]
        zm = ctx.mpf(z)
        return float(ctx.fsum(c / (pa - zm) for c, pa in zip(pb, self._pa)).real)


def discrete_sine_parabola(n: int, k: np.ndarray) -> np.ndarray:
    """Discrete sine coefficients (2/n) sum_j v_j sin(k pi j/n) of
    v = x (1 - x) on the uniform n-cell grid, in closed form.

    The second difference of a quadratic is exact, so -Delta_h v = 2 at
    every interior node; dividing the coefficients of 2, which are
    (4/n) cot(k pi/(2n)) for odd k and 0 for even k, by the discrete
    eigenvalue (4/h^2) sin^2(k pi h/2) gives h^3 cot(k pi h/2)/sin^2(k pi h/2).
    """
    h = 1.0 / n
    half = 0.5 * math.pi * k * h
    c = h**3 / (np.tan(half) * np.sin(half) ** 2)
    return np.where(k % 2 == 1, c, 0.0)


def stationary_profile(x):
    """w with -w'' = 1 + x and w(0) = w(1) = 0."""
    return x * (2.0 / 3.0 - x / 2.0 - x * x / 6.0)
