"""Gamma, sin(pi x) and Mittag-Leffler evaluation on the real line.

The two-parameter Mittag-Leffler function

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a*k + b)

is evaluated by one numpy array function in double precision:

* closed forms: 1/Gamma(b) at z = 0, exp(z) and expm1(z)/z for a = 1 and
  b = 1, 2, and ``inf`` for z > 0 where exp(z^(1/a))/a exceeds double range;
* the compensated Taylor sum on the disc |z| <= max(1, b^a), accepted only
  where its largest term is small enough that cancellation cannot eat the
  target accuracy;
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
# number of terms after which a sum counts as not converged.
_TAYLOR_ACCEPT = 1.0e-11
_TAYLOR_TERMS = 1200

# z^(1/a) >= exp(6.5682) ~ 712.8 puts exp(z^(1/a))/a past double range.
_OVERFLOW_LOG = 6.5682

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


def _taylor(alpha: float, beta: float, z: np.ndarray):
    """Compensated Taylor sums of E_{alpha,beta} at nonzero ``z``.

    Returns ``(value, est)`` where ``est`` bounds the relative error lost to
    cancellation (tracked via the largest term); ``est = inf`` marks a sum
    that did not converge.  Each point stops at its third consecutive
    negligible term, so its value does not depend on the other points.
    """
    val = np.full(z.shape, np.nan)
    est = np.full(z.shape, np.inf)
    idx = np.arange(z.size)
    logz = np.log(np.abs(z))
    sign = np.where(z < 0.0, -1.0, 1.0)
    s, comp, sum_abs, lmax, small = np.zeros((5, z.size))
    for k in range(_TAYLOR_TERMS):
        if not idx.size:
            break
        lg = math.lgamma(alpha * k + beta)
        klz = k * logz
        at = np.exp(klz - lg)
        t = at * sign if k % 2 else at
        tmp = s + t
        bt = tmp - s
        comp += (s - (tmp - bt)) + (t - bt)  # exact rounding error of s + t
        s = tmp
        sum_abs += at
        # magnitude of the log-space arithmetic feeding exp(); its rounding,
        # eps*amp relative per term, dominates the achievable accuracy
        lmax = np.maximum(lmax, np.abs(klz) + abs(lg))
        # termination: three consecutive negligible terms; zero terms on a
        # zero sum count too, which is where 1/Gamma(b) underflows
        small = (small + 1.0) * (at <= 1.0e-16 * np.abs(s + comp))
        done = small >= 3.0
        if np.count_nonzero(done):
            v = s[done] + comp[done]
            val[idx[done]] = v
            est[idx[done]] = (
                1.11e-16 * sum_abs[done] * (2.0 + lmax[done]) / np.maximum(np.abs(v), 5e-324)
            )
            keep = ~done
            idx, logz, sign, s, comp, sum_abs, lmax, small = (
                x[keep] for x in (idx, logz, sign, s, comp, sum_abs, lmax, small)
            )
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


def _ml_contour(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} at nonzero ``z`` by the contour, beta shifted down to at
    most _BETA_CONTOUR and climbed back by the index-shift recurrence."""
    m = max(0, math.ceil((beta - _BETA_CONTOUR) / alpha))
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
    acc = np.full(z.shape, -c[-1])
    for ck in -c[-2::-1]:
        acc *= r
        acc += ck
    acc *= r
    return acc


def _ml(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} at every entry of the finite 1-D float array ``z``."""
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    if alpha == 1.0 and beta == 2.0:
        safe = np.where(z == 0.0, 1.0, z)
        return np.where(z == 0.0, 1.0, np.expm1(safe) / safe)
    out = np.full(z.shape, 1.0 / gamma(beta))  # the value at z = 0
    over = z >= math.exp(_OVERFLOW_LOG * alpha)
    out[over] = math.inf
    rest = (z != 0.0) & ~over
    disc = rest & (np.abs(z) <= max(1.0, beta**alpha))
    val, est = _taylor(alpha, beta, z[disc])
    ok = est <= _TAYLOR_ACCEPT
    i = np.flatnonzero(disc)[ok]
    out[i] = val[ok]
    rest[i] = False
    deep = rest & (z < -_DEEP)
    if alpha <= 1.0 and deep.any():
        val = _ml_deep(alpha, beta, z[deep])
        if val is not None:
            out[deep] = val
            rest[deep] = False
    out[rest] = _ml_contour(alpha, beta, z[rest])
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
