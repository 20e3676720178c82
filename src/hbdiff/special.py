"""Gamma, sin(pi x) and Mittag-Leffler evaluation on the real line.

The two-parameter Mittag-Leffler function

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a*k + b)

is evaluated by one numpy array function in double precision:

* closed forms: 1/Gamma(b) at z = 0, exp(z) and expm1(z)/z for a = 1 and
  b = 1, 2; for z > 0 past the disc, 0 where the leading term (1/a)
  z^((1-b)/a) exp(z^(1/a)) and the first algebraic term z^-1 / Gamma(b - a)
  both underflow, and ``inf`` where the leading term at the contour's index
  (below) overflows, so for b > 10 some finite values read inf;
* on the disc |z| <= r = max(1, b^a) the Taylor series in one Horner pass
  in z/r, its terms fixed per (a, b), kept only where the bound on its
  rounding error and dropped tail stays below 1e-11 of the value;
* for a <= 1 and z < -50 the algebraic expansion
  E_{a,b}(z) = -sum_{k>=1} z^(-k) / Gamma(b - a*k) (Podlubny, Fractional
  Differential Equations, 1999, Thm 1.4), in one Horner pass.  It stops at
  the first k where the majorant 50^(-k) |1/Gamma(b - a*k)| falls 2^-60
  below its first term, and a pair (a, b) whose majorant rises before that
  keeps the contour; the term count depends on (a, b) alone.  For a > 1
  the sum misses the damped pole terms, 4.4e-11 at (1.3, 1, -90), so those
  points keep the contour;
* elsewhere the inverse Laplace transform of s^(a-b)/(s^a - z) at t = 1 by
  the trapezoidal rule on Garrappa's optimal parabola (SIAM J. Numer. Anal.
  53 (2015) 1350-1369), plus the residues s^(1-b) e^s / a of the poles
  s^a = z to its right.  The pole-free points (a <= 1, z < 0) that the
  expansion leaves share one contour; points with poles (z > 0 or a > 1)
  get their own.

The contour's error is absolute while E_{a,b} shrinks like 1/Gamma(b), so
for b > 10 it runs at b - m*a <= 10 and the index-shift recurrence
E_{a,c+a}(z) = (E_{a,c}(z) - 1/Gamma(c)) / z climbs back; the recurrence
amplifies errors only where |z| is small next to b^a, inside the disc.

Accuracy contract: relative error 1e-10 or better for |z| <= 50, absolute
error at most 1e-12 for z < -50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MLParams",
    "gamma",
    "ml_one",
    "ml_one_array",
    "ml_two",
    "ml_two_array",
    "sinpi",
    "sinpi_array",
]

# Largest admissible relative-error estimate for the Taylor sum, and the
# most terms it may take.
_TAYLOR_ACCEPT = 1.0e-11
_TAYLOR_TERMS = 1200

# Logs of the largest double and of the smallest subnormal.
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(5e-324)

# Largest beta handed to the contour; see the module docstring.
_BETA_CONTOUR = 10.0

# Target accuracy of the contour and the double rounding unit, as logs.
_LOG_TOL = math.log(1.0e-15)
_LOG_EPS = math.log(2.0**-52)

# Complex elements per block of a contour sum, so temporaries stay bounded.
_BLOCK = 1 << 16

# Start of the algebraic expansion's half-line, and its truncation level.
_DEEP = 50.0
_LOG_DEEP = math.log(_DEEP)
_LOG_DEEP_TOL = 60.0 * math.log(2.0)
_LOG_PI = math.log(math.pi)


def sinpi_array(x) -> np.ndarray:
    """sin(pi*x) elementwise, with exact range reduction.

    |x| is reduced modulo 2 before multiplying by pi and the sign is
    restored afterwards (sin(pi*x) is odd), so the result is exactly zero
    at integers and keeps full relative accuracy for large arguments, where
    ``np.sin(np.pi * x)`` loses digits, and for tiny ones of either sign.
    """
    x = np.asarray(x, dtype=float)
    # every step works in r, so a large sine matrix costs one array beyond x
    r = np.abs(x, out=np.empty_like(x))
    np.mod(r, 2.0, out=r)
    # fold [0, 2) onto [0, 1/2], where sin(pi*r) is well conditioned; each step is exact
    neg = r >= 1.0
    r -= neg
    np.subtract(1.0, r, out=r, where=r > 0.5)
    np.sin(np.multiply(r, np.pi, out=r), out=r)
    np.negative(r, where=neg != (x < 0.0), out=r)
    return r


def sinpi(x: float) -> float:
    """Scalar :func:`sinpi_array`."""
    return float(sinpi_array(x))


def gamma(x: float) -> float:
    """Gamma function on the real line, by :func:`math.gamma`.

    Relative error stays below 1e-13 on [-170, 170] away from the poles,
    also just below 0.  Arguments past the overflow edge (about 171.6, or
    within about 5.6e-309 of 0) return ``inf`` with the sign of Gamma there.

    Raises
    ------
    ValueError
        If ``x`` is a pole (zero or a negative integer) or not finite.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("gamma: argument must be finite")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma: pole at non-positive integer {x:g}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


@dataclass(frozen=True)
class MLParams:
    """Order pair (alpha, beta_star) of the two-parameter Mittag-Leffler
    function.  alpha in (0, 2] and beta_star > 0; alpha = 2 is admitted so
    the cosine reduction E_{2,1}(-z^2) = cos(z) is reachable."""

    alpha: float
    beta_star: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta_star)):
            raise ValueError("MLParams: parameters must be finite")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"MLParams: alpha must lie in (0, 2], got {self.alpha:g}")
        if self.beta_star <= 0.0:
            raise ValueError(f"MLParams: beta_star must be positive, got {self.beta_star:g}")


def _horner(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k c[k] w^k at every entry of ``w``, by Horner's rule."""
    acc = np.full(w.shape, c[-1])
    for ck in c[-2::-1]:
        acc *= w
        acc += ck
    return acc


def _taylor(alpha: float, beta: float, r: float, z: np.ndarray):
    """Taylor sums of E_{alpha,beta} at nonzero ``z`` with |z| <= r, r >= 1:
    one Horner pass in w = z/r over d_k = r^k / Gamma(alpha*k + beta), in logs
    so that no term that counts underflows, up to the first k where log d_k
    falls 2^-60 below its peak, or _TAYLOR_TERMS terms.  Returns ``(value,
    est)``; ``est`` bounds the relative error: each term's roundings, and the
    dropped tail, whose terms fall at least as fast as the last two, log d_k
    being concave in k."""
    log_r = math.log(r)
    log_d, ulps, peak = [], [], -math.inf
    for k in range(_TAYLOR_TERMS):
        lg = math.lgamma(alpha * k + beta)
        log_d.append(k * log_r - lg)
        # roundings of term k: 3k + 1 in w^k and Horner, 1 + its log's operands in exp()
        ulps.append(3.0 * k + 2.0 + k * log_r + abs(lg))
        peak = max(peak, log_d[-1])
        if log_d[-1] < peak - _LOG_DEEP_TOL:
            break
    d = np.exp(log_d)  # terms 0..k
    w = z / r
    val = _horner(d, w)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lw = np.log(np.abs(w))
        lq = log_d[-1] - log_d[-2] + lw
        tail = np.where(lq < 0.0, np.exp(log_d[-1] + k * lw + lq) / -np.expm1(lq), np.inf)
        est = (1.11e-16 * _horner(d * ulps, np.abs(w)) + tail) / np.maximum(np.abs(val), 5e-324)
    return val, est


def _region_left(phi: float, p: float, log_tol: float):
    """Garrappa's parabola between the branch point at the origin, of
    strength ``p``, and poles at phi = (Re s + |s|)/2.  Returns ``(mu, h, n)``."""
    f_max = math.exp(log_tol - _LOG_EPS)
    sq1 = min(math.sqrt(phi), 2.0 * math.sqrt(log_tol - _LOG_EPS))
    f_min = 1.01 if p < 1.0e-14 else 1.5
    f_bar = f_min + f_min / f_max * (f_max - f_min)
    fq = 1.0 / f_bar
    if p < 1.0e-14:
        sqb0, sqb1 = 0.0, 2.0 * sq1 / (2.0 + fq)
    else:
        fp = f_bar ** (-1.0 / p)
        w = -phi / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        sqb0, sqb1 = fp * sq1 / den, (2.0 + w - (1.0 + w) * fp) * sq1 / den
    log_tol -= math.log(f_bar)
    w = -sqb1 * sqb1 / log_tol
    mu = (((1.0 + w) * sqb0 + sqb1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (sqb1 - sqb0) / ((1.0 + w) * sqb0 + sqb1)
    return mu, h, math.ceil(math.sqrt(1.0 - log_tol / mu) / h)


def _region_unbounded(phi0: float, p: float, log_tol: float):
    """Garrappa's parabola right of the singularity at phi0 of strength
    ``p``.  Returns ``(mu, h, n)``; n is inf where round-off rules it out."""
    sq0 = math.sqrt(phi0)
    phib = 1.01 * phi0 if phi0 > 0.0 else 0.01
    sqb = math.sqrt(phib)
    f_tar = 5.0
    while True:
        lt = log_tol / phib
        n = math.ceil(phib / math.pi * (1.0 - 1.5 * lt + math.sqrt(1.0 - 2.0 * lt)))
        a = math.pi * n / phib
        sq_mu = sqb * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        f_bar = ((sqb - sq0) / sq_mu) ** (-p)
        if p < 1.0e-14 or 1.0 < f_bar < 10.0:
            break
        sqb = f_tar ** (-1.0 / p) * sq_mu + sq0
        phib = sqb * sqb
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # keep exp(mu) from amplifying round-off past the target
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if p < 1.0e-14 else f_tar ** (-1.0 / p) * math.sqrt(mu)
        phib = (q + sq0) ** 2
        if phib >= threshold:
            return mu, h, math.inf
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-phib / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


def _parabola(alpha: float, beta: float, phi: float | None = None):
    """``(mu, h, n, left)`` of the admissible parabola with the fewest nodes.

    ``phi`` is (Re s + |s|)/2 of the poles (one, or a conjugate pair), or
    None where there are none.  ``left`` means the contour passes between
    the origin and the poles, so their residues must be added.
    """
    p = max(0.0, 2.0 * (beta - alpha - 1.0))
    log_tol = _LOG_TOL
    while True:
        if phi is None:
            best = (*_region_unbounded(0.0, p, log_tol), False)
        else:
            best = (*_region_left(phi, p, log_tol), True)
            if phi < _LOG_TOL - _LOG_EPS:
                right = (*_region_unbounded(phi, 1.0, log_tol), False)
                best = min(best, right, key=lambda c: c[2])
        if best[2] <= 200:
            return best
        log_tol += math.log(10.0)


def _contour_sum(alpha: float, beta: float, z: np.ndarray, mu: float, h: float, n: int):
    """Trapezoidal rule with step ``h`` and nodes |k| <= n on the parabola
    s(u) = mu (1 + iu)^2 for (1/2 pi i) int e^s s^(alpha-beta) / (s^alpha - z) ds.

    For real z the nodes at -u are the conjugates of those at u, so the sum
    runs over u >= 0 only and keeps the imaginary parts.
    """
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    w = np.exp(s) * s ** (alpha - beta) * (2.0 * mu * (1j - u)) * (h / math.pi)
    w[0] *= 0.5
    sa = s**alpha
    out = np.empty(z.shape)
    rows = max(1, _BLOCK // (n + 1))
    for i in range(0, z.size, rows):
        out[i : i + rows] = (w / (sa - z[i : i + rows, None])).imag.sum(axis=1)
    return out


def _ml_poles(alpha: float, beta: float, z: float) -> float:
    """Contour sum plus residues at one ``z`` whose transform has poles off
    the negative real axis: z^(1/alpha) for z > 0, the pair
    |z|^(1/alpha) e^(+-i pi/alpha) for z < 0 and alpha > 1."""
    r = abs(z) ** (1.0 / alpha)
    poles = r * np.exp([0j] if z > 0.0 else [1j * math.pi / alpha, -1j * math.pi / alpha])
    mu, h, n, left = _parabola(alpha, beta, (poles[0].real + r) / 2.0)
    val = _contour_sum(alpha, beta, np.array([z]), mu, h, n)[0]
    if left:
        val += float(np.exp((1.0 - beta) * np.log(poles) + poles).sum().real) / alpha
    return val


def _ml_contour(alpha: float, beta: float, m: int, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} at nonzero ``z`` by the contour at the index
    b0 = beta - m*alpha, climbed back by the index-shift recurrence."""
    b0 = beta - m * alpha
    val = np.empty(z.shape)
    poles = (z > 0.0) | (alpha > 1.0)
    mu, h, n, _ = _parabola(alpha, b0)
    val[~poles] = _contour_sum(alpha, b0, z[~poles], mu, h, n)
    for i in np.flatnonzero(poles):
        val[i] = _ml_poles(alpha, b0, float(z[i]))
    for j in range(m):
        val = (val - 1.0 / gamma(b0 + j * alpha)) / z
    return val


def _ml_deep(alpha: float, beta: float, z: np.ndarray) -> np.ndarray | None:
    """E_{alpha,beta} at ``z < -_DEEP`` by the truncated algebraic expansion
    of the module docstring, or None where (alpha, beta) keeps the contour.
    The terms depend on (alpha, beta) alone, so each point gets its lone value.
    """
    k = 0
    while True:
        k += 1
        w = beta - alpha * k
        if w >= 0.5:
            log_m = -math.lgamma(w) - k * _LOG_DEEP
        else:
            log_m = math.lgamma(1.0 - w) - _LOG_PI - k * _LOG_DEEP
        if k == 1:
            first = log_m
        elif log_m < first - _LOG_DEEP_TOL:
            break
        elif log_m > prev:
            return None
        prev = log_m
    w = beta - alpha * np.arange(1.0, k + 1.0)
    refl = w < 0.5
    g = np.array([gamma(v) for v in np.where(refl, 1.0 - w, w)])
    c = 1.0 / g
    # reflection: exact zeros at the poles, and no division by a Gamma that
    # underflows for very negative w
    c[refl] = g[refl] * sinpi_array(w[refl]) / math.pi
    r = 1.0 / z
    return _horner(-c, r) * r


def _ml(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} at every entry of the finite 1-D float array ``z``."""
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    if alpha == 1.0 and beta == 2.0:
        safe = np.where(z == 0.0, 1.0, z)
        return np.where(z == 0.0, 1.0, np.expm1(safe) / safe)
    out = np.full(z.shape, 1.0 / gamma(beta))  # the value at z = 0
    r = max(1.0, beta**alpha)
    m = max(0, math.ceil((beta - _BETA_CONTOUR) / alpha))  # the contour's shift
    rest = z != 0.0
    # logs of the module docstring's leading and first algebraic terms;
    # b > a wherever the leading one underflows past the disc
    big = np.flatnonzero(z > r)
    lz = np.log(z[big])
    with np.errstate(over="ignore"):
        lead = np.exp(lz / alpha) - math.log(alpha)
    over = lead + (1.0 - beta + m * alpha) / alpha * lz > _LOG_MAX
    under = lead + (1.0 - beta) / alpha * lz < _LOG_TINY
    if under.any():
        under &= -lz - math.lgamma(beta - alpha) < _LOG_TINY
    out[big[over]] = math.inf
    out[big[under]] = 0.0
    rest[big[over | under]] = False
    disc = np.flatnonzero(rest & (np.abs(z) <= r))
    if disc.size:
        val, est = _taylor(alpha, beta, r, z[disc])
        ok = est <= _TAYLOR_ACCEPT
        out[disc[ok]] = val[ok]
        rest[disc[ok]] = False
    deep = rest & (z < -_DEEP)
    if alpha <= 1.0 and deep.any():
        val = _ml_deep(alpha, beta, z[deep])
        if val is not None:
            out[deep] = val
            rest[deep] = False
    out[rest] = _ml_contour(alpha, beta, m, z[rest])
    return out


def ml_two(p: MLParams, z: float) -> float:
    """E_{alpha,beta_star}(z) for real z.

    Relative accuracy is 1e-10 or better for |z| <= 50; for z < -50 the
    absolute error is at most 1e-12.  Large positive arguments whose value
    exceeds double range return ``inf``.
    """
    return float(ml_two_array(p.alpha, p.beta_star, float(z)))


def ml_one(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z)."""
    return ml_two(MLParams(alpha, 1.0), z)


def ml_two_array(alpha: float, beta_star: float, z) -> np.ndarray:
    """E_{alpha,beta_star} over an array of real arguments.

    Each entry gets the same value :func:`ml_two` gives it alone.
    """
    p = MLParams(alpha, beta_star)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("Mittag-Leffler arguments must be finite")
    return _ml(p.alpha, p.beta_star, z.ravel()).reshape(z.shape)


def ml_one_array(alpha: float, z) -> np.ndarray:
    """Vectorized :func:`ml_one`."""
    return ml_two_array(alpha, 1.0, z)
