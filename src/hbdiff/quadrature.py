"""Product-integration quadrature for weakly singular convolution kernels.

Everything here works in a transformed abscissa in which the kernels take
the form (s_n - sigma)^(b-1), possibly times a Mittag-Leffler factor of
(s_n - sigma)^a.  Kernels are integrated exactly against the
piecewise-linear interpolant of the data: the pure power kernel via
closed-form hat-function moments, and the matched kernel
u^(b-1) E_{a,b}(lam u^a) via its closed-form antiderivative, again a
single Mittag-Leffler term.  The only discretization error left is the
linear interpolation of the data being convolved.

The grid rules have one home here: :func:`_check_grid` (finite, rising
from 0), :func:`_uniform_step` (the solvers' one test of a uniform clock
s = t^rho), :func:`_past_end` (the one coverage rule of a sampled grid),
:func:`_clip_profile` (the nodes below an upper limit p, then p) and
:func:`_hat_integral` (the power kernel with upper limit sig[-1] against
data affine on each cell, by exact hat-function moments).
:func:`power_integral_at` and :mod:`hbdiff.operators` build on them.

On a uniform grid the matched kernel's node weights depend on the lag
alone, so :func:`lag_convolve` applies them by one zero-padded FFT product
(Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985)).
"""

from __future__ import annotations

import numpy as np

from .special import ml_two_array

__all__ = [
    "ml_product_matrix",
    "ml_product_row",
    "power_integral_at",
    "power_kernel_weights",
]


def _pow_diff(hi, lo, d):
    """hi**d - lo**d for 0 <= lo <= hi, stable when hi is close to lo."""
    hi = np.asarray(hi, dtype=float)
    lo = np.asarray(lo, dtype=float)
    with np.errstate(all="ignore"):  # both forms are computed everywhere, then one is picked
        r = (hi - lo) / lo
        near = lo**d * np.expm1(d * np.log1p(r))
        return np.where(lo == 0.0, hi**d, np.where(r < 0.25, near, hi**d - lo**d))


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


def _check_grid(s, name: str) -> np.ndarray:
    """``s`` as a float array; raises unless it is 1-d with at least two
    finite nodes increasing strictly from s[0] = 0.  NaN fails the
    ``diff > 0`` test and an infinite last node the ``isfinite`` one."""
    s = np.asarray(s, dtype=float)
    if (s.ndim != 1 or s.size < 2 or s[0] != 0.0 or not np.all(np.diff(s) > 0.0)
            or not np.all(np.isfinite(s))):
        raise ValueError(f"{name} must be finite and increase strictly from 0")
    return s


def _uniform_step(s):
    """The step h = s[1] - s[0] of the grid ``s`` when every step equals it
    to rtol 1e-9 and atol 1e-13 |s[-1]|, else None.  Every
    :func:`hbdiff.operators.make_time_grid` clock passes, also when it is
    recomputed from times printed to 12 significant digits."""
    h = s[1] - s[0]
    return h if np.allclose(np.diff(s), h, rtol=1e-9, atol=1e-13 * abs(s[-1])) else None


def _past_end(points, end) -> bool:
    """Whether any of ``points`` lies past the grid's last node ``end`` by over 1e-12 of it."""
    return bool(np.any(np.asarray(points) > end * (1.0 + 1e-12)))


def _clip_profile(s, vals, p):
    """Nodes of ``s`` below p with p appended, and the data (s, vals) at
    those nodes, linearly interpolated at p."""
    k = int(np.searchsorted(s, p * (1.0 - 1e-15)))
    return np.append(s[:k], p), np.append(vals[:k], np.interp(p, s, vals))


def _hat_integral(sig, vL, vR, delta: float) -> float:
    """Integral over [sig[0], sig[-1]] of (sig[-1] - sigma)^(delta-1) times
    data affine on each cell [sig[j], sig[j+1]], with end values vL[j] and
    vR[j], by exact hat-function weights.  Continuous data v passes
    v[:-1], v[1:]."""
    p = sig[-1]
    wL, wR = _cell_hat_weights(p - sig[:-1], p - sig[1:], delta)
    return float(np.sum(wL * vL) + np.sum(wR * vR))


def power_kernel_weights(s, delta: float) -> np.ndarray:
    """Lower-triangular matrix W of product-integration weights.

    (W @ f)[n] equals the integral over [0, s_n] of
    (s_n - sigma)^(delta-1) times the piecewise-linear interpolant of f on
    the nodes ``s``; exact for piecewise-linear data.  Works on any
    strictly increasing grid with s[0] = 0; requires delta > 0.
    """
    if delta <= 0.0:
        raise ValueError(f"power_kernel_weights: delta must be positive, got {delta:g}")
    s = _check_grid(s, "power_kernel_weights: grid")
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
    _check_grid(s, "matched ML kernel: grid")


def _ml_cell_weights(order: float, btype: float, lam, v):
    """Node weights (w, edge), each (..., len(v) - 1), of the matched
    kernel on the ascending lags ``v``, one row per rate in a column ``lam``:
    cell [v[c], v[c+1]] puts near[c] on the node at v[c] and far[c] on the
    one at v[c+1], so the node at v[m] takes w[m] = near[m] + far[m-1]
    (w[0] = near[0]) when an older node follows it, else edge[m-1] =
    far[m-1].  Cells collapsed by rounding carry no mass.  A far-lag
    near/far value errs like 1/h^2 (1.5e-9 to 5.5e-7 relative against
    exact moments at order = btype = 0.6, N = 513 and 4097, where the ML
    values err by 3e-15), but the errors cancel in the convolution: affine
    data match the closed form to about 1e-15."""
    j0, j1 = _ml_antiderivatives(order, btype, lam, v)
    uL, uR = v[:-1], v[1:]
    wide = uR > uL  # False where a gap below the upper limit's ulp closed a cell
    h = np.where(wide, uR - uL, 1.0)
    m0 = j0[..., 1:] - j0[..., :-1]
    i1 = uR * j0[..., 1:] - uL * j0[..., :-1] - (j1[..., 1:] - j1[..., :-1])
    far = np.where(wide, (i1 - uL * m0) / h, 0.0)
    w = np.where(wide, (uR * m0 - i1) / h, 0.0)
    w[..., 1:] += far[..., :-1]
    return w, far


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
    # ascending lags: lag c pairs with data node s[-1-c]
    w, edge = _ml_cell_weights(order, btype, lam, s[-1] - s[::-1])
    return np.append(w, edge[-1])[::-1]


def ml_lag_weights(s, order: float, btype: float, lams):
    """Lag weights (w, edge) of the matched kernel, two (K, N - 1) arrays
    with one row per rate in ``lams``.

    On the uniform grid ``s`` the ml_product_row weights depend only on
    the lag: the data node at lag m h takes w[k, m], or edge[k, m - 1]
    when it is the node s = 0.  One Mittag-Leffler call per antiderivative
    covers the (K, N) lag table.
    """
    s = np.asarray(s, dtype=float)
    _check_ml_kernel_args(s, order, btype)
    h = _uniform_step(s)
    if h is None:
        raise ValueError("matched ML lag weights: grid must be uniform")
    lags = np.arange(s.size, dtype=float) * h
    return _ml_cell_weights(order, btype, np.reshape(lams, (-1, 1)), lags)


def lag_convolve(w, edge, data) -> np.ndarray:
    """Rows of ml_product_matrix(s, ..., lams[k]) @ data[k], by FFT:
    out[n] = sum_{m < n} w[m] data[n-m] + edge[n-1] data[0], out[0] = 0.
    One zero-padded real FFT product takes the w sum; the oldest node's
    rank-one term is added exactly.  Rows broadcast, so one data row may
    serve every rate."""
    data = np.asarray(data, dtype=float)
    cells = data.shape[-1] - 1
    size = 2 * cells  # holds the first `cells` terms of the linear convolution
    spec = np.fft.rfft(w, size) * np.fft.rfft(data[..., 1:], size)
    conv = np.fft.irfft(spec, size)[..., :cells]
    out = np.zeros(conv.shape[:-1] + (cells + 1,))
    out[..., 1:] = conv + edge * data[..., :1]
    return out


def ml_product_matrix(s, order: float, btype: float, lam: float) -> np.ndarray:
    """Lower-triangular K with (K @ g)[n] equal to the ml_product_row
    convolution with upper limit s_n, for every node of the uniform grid
    ``s``: the Toeplitz gather of the :func:`ml_lag_weights` w, edge in column 0.
    """
    (w,), (edge,) = ml_lag_weights(s, order, btype, [lam])
    idx = np.arange(w.size + 1)
    K = np.tril(np.append(w, 0.0)[idx[:, None] - idx])
    K[:, 0] = np.append(0.0, edge)
    return K


def power_integral_at(s, vals, delta: float, points) -> np.ndarray:
    """Integral over [0, p] of (p - sigma)^(delta-1) times the
    piecewise-linear data (s, vals), evaluated at each p in ``points``.

    Exact for the interpolant at arbitrary p inside the grid span; p may
    fall between nodes.  Used for inner fractional integrals that must be
    sampled on a different (e.g. graded) grid than the data.
    """
    vals = np.asarray(vals, dtype=float)
    if delta <= 0.0:
        raise ValueError("power_integral_at: delta must be positive")
    s = _check_grid(s, "power_integral_at: grid")
    points = np.asarray(points, dtype=float)
    if _past_end(points, s[-1]):
        raise ValueError("power_integral_at: point beyond the sampled grid")
    out = np.zeros(points.shape)
    for i, p in np.ndenumerate(points):
        if p > 0.0:
            sig, v = _clip_profile(s, vals, p)
            out[i] = _hat_integral(sig, v[:-1], v[1:], delta)
    return out
