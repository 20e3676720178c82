"""Product-integration quadrature for weakly singular convolution kernels.

Everything here works in a transformed abscissa in which the kernels take
the form (s_n - sigma)^(b-1), possibly times a Mittag-Leffler factor of
(s_n - sigma)^a.  Kernels are integrated exactly against the
piecewise-linear interpolant of the data: the pure power kernel via
closed-form hat-function moments, and the matched kernel
u^(b-1) E_{a,b}(lam u^a) via its closed-form antiderivative, again a
single Mittag-Leffler term.  The only discretization error left is the
linear interpolation of the data being convolved.

On a uniform grid the matched-kernel weights depend on the lag alone, so
:func:`lag_convolve` applies them by zero-padded FFT in O(N log N) time
(Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985)).
"""

from __future__ import annotations

import numpy as np

from .special import ml_two_array

__all__ = [
    "lag_convolve",
    "ml_lag_weights",
    "ml_product_matrix",
    "ml_product_row",
    "power_integral_at",
    "power_kernel_weights",
]


def _pow_diff(hi, lo, d):
    """hi**d - lo**d for 0 <= lo <= hi, stable when hi is close to lo."""
    hi = np.asarray(hi, dtype=float)
    lo = np.asarray(lo, dtype=float)
    out = np.empty(np.broadcast(hi, lo).shape)
    lo_b = np.broadcast_to(lo, out.shape)
    hi_b = np.broadcast_to(hi, out.shape)
    zero = lo_b == 0.0
    out[zero] = hi_b[zero] ** d
    nz = ~zero
    if np.any(nz):
        h, l = hi_b[nz], lo_b[nz]
        r = (h - l) / l
        near = r < 0.25
        res = np.empty(h.shape)
        res[near] = l[near] ** d * np.expm1(d * np.log1p(r[near]))
        res[~near] = h[~near] ** d - l[~near] ** d
        out[nz] = res
    return out


def _cell_hat_weights(uR, uL, delta):
    """Exact hat-function weights for one cell under the kernel u^(delta-1).

    The cell [sigma_L, sigma_R] maps to u = s_n - sigma in [uL, uR].
    Returns (wL, wR): the weights multiplying the data values at sigma_L
    (u = uR) and sigma_R (u = uL).
    """
    h = uR - uL
    m0 = _pow_diff(uR, uL, delta) / delta
    # integral of (uR - u) u^(delta-1) via integration by parts
    m1 = _pow_diff(uR, uL, delta + 1.0) / (delta * (delta + 1.0)) - h * uL**delta / delta
    # cells whose endpoints collide in floating point carry no mass
    wide = h > 0.0
    wR = np.where(wide, m1 / np.where(wide, h, 1.0), 0.0)
    return m0 - wR, wR


def power_kernel_weights(s, delta: float) -> np.ndarray:
    """Lower-triangular matrix W of product-integration weights.

    (W @ f)[n] equals the integral over [0, s_n] of
    (s_n - sigma)^(delta-1) times the piecewise-linear interpolant of f on
    the nodes ``s``; exact for piecewise-linear data.  Works on any
    strictly increasing grid with s[0] = 0; requires delta > 0.
    """
    if delta <= 0.0:
        raise ValueError(f"power_kernel_weights: delta must be positive, got {delta:g}")
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size < 2 or s[0] != 0.0 or np.any(np.diff(s) <= 0.0):
        raise ValueError("power_kernel_weights: grid must increase strictly from 0")
    npt = s.size
    W = np.zeros((npt, npt))
    for n in range(1, npt):
        uR = s[n] - s[:n]
        uL = s[n] - s[1 : n + 1]
        wL, wR = _cell_hat_weights(uR, uL, delta)
        W[n, :n] += wL
        W[n, 1 : n + 1] += wR
    return W


def _ml_antiderivatives(order: float, btype: float, lam, u):
    """First and second antiderivatives of the matched power-ML kernel.

    The kernel K(u) = u^(btype-1) E_{order,btype}(lam u^order) satisfies
    d/du [u^b E_{a,b+1}(lam u^a)] = u^(b-1) E_{a,b}(lam u^a) term by term,
    so J0(u) = u^btype E_{order,btype+1}(lam u^order) integrates K from 0
    and J1(u) = u^(btype+1) E_{order,btype+2}(lam u^order) integrates J0.
    A column of rates ``lam`` gives one row of each per rate.
    """
    u = np.asarray(u, dtype=float)
    z = lam * u**order
    # the table goes to the evaluator flat, the form bench/worker.py's tracer reads
    j0 = u**btype * ml_two_array(order, btype + 1.0, z.ravel()).reshape(z.shape)
    j1 = u ** (btype + 1.0) * ml_two_array(order, btype + 2.0, z.ravel()).reshape(z.shape)
    return j0, j1


def _check_ml_kernel_args(s, order, btype):
    if order <= 0.0 or btype <= 0.0:
        raise ValueError("matched ML kernel needs positive order and btype")
    if s.ndim != 1 or s.size < 2 or s[0] != 0.0 or np.any(np.diff(s) <= 0.0):
        raise ValueError("grid must increase strictly from 0")


def ml_product_row(s, order: float, btype: float, lam: float) -> np.ndarray:
    """Weights w with w @ g equal to the convolution

        integral over [0, S] of
        (S - sigma)^(btype-1) * E_{order,btype}(lam (S - sigma)^order) * g(sigma)

    at S = s[-1], exact (to rounding) for piecewise-linear g on the
    strictly increasing grid ``s`` starting at 0.  Both kernel factors are
    integrated in closed form, so the only discretization error a caller
    sees is the linear interpolation of g itself.
    """
    s = np.asarray(s, dtype=float)
    _check_ml_kernel_args(s, order, btype)
    S = s[-1]
    u = S - s  # descending: u[j] pairs with data node s[j]
    j0, j1 = _ml_antiderivatives(order, btype, lam, u)
    # cell j: u in [u[j], u[j-1]]; moments via antiderivative differences
    m0 = j0[:-1] - j0[1:]
    i1 = u[:-1] * j0[:-1] - u[1:] * j0[1:] - (j1[:-1] - j1[1:])
    h = u[:-1] - u[1:]
    # cells collapsed by rounding (sigma-gap below the ulp of S) carry no mass
    wide = h > 0.0
    hs = np.where(wide, h, 1.0)
    w = np.zeros(s.size)
    w[:-1] += np.where(wide, (i1 - u[1:] * m0) / hs, 0.0)
    w[1:] += np.where(wide, (u[:-1] * m0 - i1) / hs, 0.0)
    return w


def ml_lag_weights(s, order: float, btype: float, lams):
    """Lag weights of the matched kernel, one row per rate in ``lams``.

    On the uniform grid ``s`` the ml_product_row weights depend only on
    the lag: lag cell c = [c h, (c+1) h] puts far[k, c] on the data node
    farther from the upper limit and near[k, c] on the nearer one.  One
    Mittag-Leffler call per antiderivative covers the (K, N) lag table.
    Returns two (K, N - 1) arrays.
    """
    s = np.asarray(s, dtype=float)
    _check_ml_kernel_args(s, order, btype)
    h = s[1] - s[0]
    if not np.allclose(np.diff(s), h, rtol=1e-12, atol=1e-15 * max(abs(s[-1]), 1.0)):
        raise ValueError("matched ML lag weights: grid must be uniform")
    lags = np.arange(s.size, dtype=float) * h
    j0, j1 = _ml_antiderivatives(order, btype, np.reshape(lams, (-1, 1)), lags)
    uL, uR = lags[:-1], lags[1:]
    m0 = j0[:, 1:] - j0[:, :-1]
    i1 = uR * j0[:, 1:] - uL * j0[:, :-1] - (j1[:, 1:] - j1[:, :-1])
    return (i1 - uL * m0) / h, (uR * m0 - i1) / h


def lag_convolve(far, near, data) -> np.ndarray:
    """Rows of ml_product_matrix(s, ..., lams[k]) @ data[k], by FFT.

    out[n] = sum_{c < n} far[c] data[n-1-c] + near[c] data[n-c], out[0] = 0:
    two linear convolutions taken by zero-padded real FFT.  Rows
    broadcast, so one data row may serve every rate.
    """
    data = np.asarray(data, dtype=float)
    cells = data.shape[-1] - 1
    size = 2 * cells  # holds the first `cells` terms of each linear convolution
    spec = np.fft.rfft(far, size) * np.fft.rfft(data[..., :-1], size)
    spec += np.fft.rfft(near, size) * np.fft.rfft(data[..., 1:], size)
    conv = np.fft.irfft(spec, size)[..., :cells]
    out = np.zeros(conv.shape[:-1] + (cells + 1,))
    out[..., 1:] = conv
    return out


def ml_product_matrix(s, order: float, btype: float, lam: float) -> np.ndarray:
    """Lower-triangular K with (K @ g)[n] equal to the ml_product_row
    convolution with upper limit s_n, for every node of the uniform grid
    ``s``: the Toeplitz matrix of the :func:`ml_lag_weights` row.
    """
    far, near = ml_lag_weights(s, order, btype, [lam])
    # lag m collects near[m] and far[m - 1]; column 0 is never a near node
    w = np.append(near[0], 0.0)
    w[1:] += far[0]
    idx = np.arange(far.shape[1] + 1)
    K = np.tril(w[idx[:, None] - idx])
    K[:, 0] = np.append(0.0, far[0])
    return K


def power_integral_at(s, vals, delta: float, points) -> np.ndarray:
    """Integral over [0, p] of (p - sigma)^(delta-1) times the
    piecewise-linear data (s, vals), evaluated at each p in ``points``.

    Exact for the interpolant at arbitrary p inside the grid span; p may
    fall between nodes.  Used for inner fractional integrals that must be
    sampled on a different (e.g. graded) grid than the data.
    """
    s = np.asarray(s, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if delta <= 0.0:
        raise ValueError("power_integral_at: delta must be positive")
    if s.ndim != 1 or s.size < 2 or s[0] != 0.0 or np.any(np.diff(s) <= 0.0):
        raise ValueError("power_integral_at: grid must increase strictly from 0")
    points = np.asarray(points, dtype=float)
    if np.any(points > s[-1] * (1.0 + 1e-12)):
        raise ValueError("power_integral_at: point beyond the sampled grid")
    out = np.zeros(points.shape)
    for i, p in np.ndenumerate(points):
        if p <= 0.0:
            continue
        k = int(np.searchsorted(s, p * (1.0 - 1e-15)))
        sig = np.append(s[:k], p)
        v = np.append(vals[:k], np.interp(p, s, vals))
        uR = p - sig[:-1]
        uL = p - sig[1:]
        wL, wR = _cell_hat_weights(uR, uL, delta)
        out[i] = float(np.sum(wL * v[:-1]) + np.sum(wR * v[1:]))
    return out
