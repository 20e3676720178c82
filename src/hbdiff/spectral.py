"""Sine-spectral solver for the forced diffusion problem on the unit
interval with homogeneous Dirichlet data.

The spatial eigenpairs are sin(k pi x) with eigenvalues (k pi)^2, so the
field splits into independent mode traces, each governed by the scalar
fractional Cauchy problem of :mod:`hbdiff.scalar`:

    D^alpha u_k(t) + (k pi)^2 u_k(t) = f_k(t),   u_k(0) = psi_k,

where D^alpha is the regularized weighted-derivative power built from
(t^theta d/dt).  Each trace has the closed form

    u_k(t) = psi_k E_alpha(-(k pi)^2 t^(rho alpha) / rho^alpha) + F_k(t)

with F_k the forcing convolution; the field is re-assembled as
u(x, t) = sum_k u_k(t) sin(k pi x).  All K traces come from one
:func:`hbdiff.scalar.solve_scalar_batch` call (one ML table, one lag FFT).

Coefficient extraction uses an exact discrete sine transform on uniform
grids: synthesize-then-analyze is the identity for any series the grid
resolves, and boundary values of synthesized fields are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import FracParams, SampledFunction, make_time_grid
from .scalar import ScalarProblem, solve_scalar, solve_scalar_batch, solve_scalar_constant
from .special import ml_one_array, sinpi_array

__all__ = [
    "DirectProblemSpec",
    "SeparableForcing",
    "SineSeries",
    "SolutionField",
    "TensorForcing",
    "mode_forcing_term",
    "sine_analyze",
    "sine_synthesize",
    "solve_direct",
]

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class SineSeries:
    """Coefficients of sum_k coeffs[k-1] sin(k pi x), modes k = 1..K."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("SineSeries: need at least one mode")
        if not np.all(np.isfinite(c)):
            raise ValueError("SineSeries: coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def modes(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class SeparableForcing:
    """Forcing g(x) * h(t); ``time=None`` means time-independent g(x)."""

    space: SampledFunction
    time: SampledFunction | None = None

    def __post_init__(self):
        if not isinstance(self.space, SampledFunction):
            raise ValueError("SeparableForcing: space factor must be sampled on [0, 1]")
        if self.time is not None and not isinstance(self.time, SampledFunction):
            raise ValueError("SeparableForcing: time factor must be a sample trace or None")


@dataclass(frozen=True)
class TensorForcing:
    """Forcing sampled on a space-time tensor grid; values[i, j] = f(xgrid[j], tgrid[i])."""

    xgrid: np.ndarray
    tgrid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.xgrid, dtype=float)
        t = np.asarray(self.tgrid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.size < 2 or x[0] != 0.0 or np.any(np.diff(x) <= 0.0):
            raise ValueError("TensorForcing: xgrid must increase strictly from 0")
        if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("TensorForcing: tgrid must increase strictly from 0")
        if v.shape != (t.size, x.size):
            raise ValueError("TensorForcing: values must have shape (len(tgrid), len(xgrid))")
        if not np.all(np.isfinite(v)):
            raise ValueError("TensorForcing: values must be finite")
        object.__setattr__(self, "xgrid", x)
        object.__setattr__(self, "tgrid", t)
        object.__setattr__(self, "values", v)


def _require_unit_uniform(grid: np.ndarray, what: str) -> float:
    """Validate a uniform grid spanning [0, 1]; return its spacing."""
    if abs(grid[-1] - 1.0) > 1e-12:
        raise ValueError(f"{what}: grid must span [0, 1]")
    h = np.diff(grid)
    if h.size < 2 or not np.allclose(h, h[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{what}: grid must be uniform")
    return 1.0 / (grid.size - 1)


def sine_analyze(g: SampledFunction, K: int) -> SineSeries:
    """Sine coefficients 2 * integral_0^1 g(x) sin(k pi x) dx, k = 1..K.

    The transform is exact on band-limited data: analyzing a synthesized
    series recovers its coefficients to machine precision whenever the
    grid resolves every mode (K at most len(grid) - 2).  Boundary samples
    do not enter; the basis vanishes there.
    """
    return SineSeries(_sine_coeffs(g.grid, g.values, K, "sine_analyze"))


def _sine_coeffs(grid: np.ndarray, values: np.ndarray, K: int, what: str) -> np.ndarray:
    """:func:`sine_analyze` of every row of ``values`` (sampled on ``grid``
    along the last axis) in one product; shape (K,) + values.shape[:-1]."""
    if K < 1:
        raise ValueError(f"{what}: need at least one mode")
    h = _require_unit_uniform(grid, what)
    n = grid.size - 1
    if K > n - 1:
        raise ValueError(f"{what}: a grid with {n} cells resolves at most {n - 1} modes")
    j = np.arange(1, n)
    k = np.arange(1, K + 1)
    # discrete orthogonality: sum_j sin(k pi j/n) sin(m pi j/n) = (n/2) delta_km
    S = sinpi_array(np.outer(k, j) / n)
    return 2.0 * h * (S @ values[..., 1:-1].T)


def sine_synthesize(series: SineSeries, xgrid) -> SampledFunction:
    """Pointwise sum of the sine series on ``xgrid``; exactly zero at x = 0, 1."""
    x = np.asarray(xgrid, dtype=float)
    k = np.arange(1, series.modes + 1)
    vals = series.coeffs @ sinpi_array(np.outer(k, x))
    return SampledFunction(x, vals)


def mode_forcing_term(fk: SampledFunction, k: int, fp: FracParams, tgrid) -> SampledFunction:
    """Forced response of mode k to the coefficient trace f_k, zero initial data.

    This is the forcing part of the scalar solution with decay rate
    (k pi)^2; it vanishes at t = 0.
    """
    if k < 1:
        raise ValueError("mode_forcing_term: mode index must be >= 1")
    prob = ScalarProblem(fp, float(k * k) * math.pi**2, 0.0, fk)
    return solve_scalar(prob, tgrid)


@dataclass(frozen=True)
class DirectProblemSpec:
    """Initial-boundary-value problem on (0,1) x (0,T] with Dirichlet zero
    boundary data, initial profile ``psi``, and optional forcing."""

    fp: FracParams
    psi: SampledFunction
    forcing: SeparableForcing | TensorForcing | None = None
    horizon: float = 1.0
    modes: int = 64
    nx: int = 256
    nt: int = 512

    def __post_init__(self):
        failures = []
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            failures.append("horizon must be a positive finite number")
        if self.modes < 1:
            failures.append("mode count must be >= 1")
        if self.nx < 2 or self.nt < 1:
            failures.append("need nx >= 2 space cells and nt >= 1 time cells")
        if self.modes > self.nx - 1:
            failures.append(f"nx = {self.nx} cells resolve at most {self.nx - 1} modes")
        if not isinstance(self.psi, SampledFunction):
            failures.append("initial profile must be a SampledFunction on [0, 1]")
        else:
            if abs(self.psi.grid[-1] - 1.0) > 1e-12:
                failures.append("initial profile must be sampled on [0, 1]")
            if abs(self.psi.values[0]) > BOUNDARY_TOL or abs(self.psi.values[-1]) > BOUNDARY_TOL:
                failures.append("initial profile must vanish at x = 0 and x = 1")
        failures += _forcing_failures(self.forcing, self.horizon)
        if failures:
            raise ValidationError(failures)


def _forcing_failures(forcing, horizon: float) -> list:
    if forcing is None:
        return []
    out = []
    if isinstance(forcing, SeparableForcing):
        g = forcing.space
        if abs(g.grid[-1] - 1.0) > 1e-12:
            out.append("forcing space factor must be sampled on [0, 1]")
        if abs(g.values[0]) > BOUNDARY_TOL or abs(g.values[-1]) > BOUNDARY_TOL:
            out.append("forcing must vanish at x = 0 and x = 1")
        if forcing.time is not None and forcing.time.grid[-1] < horizon * (1.0 - 1e-12):
            out.append("forcing time factor must cover [0, horizon]")
    elif isinstance(forcing, TensorForcing):
        if abs(forcing.xgrid[-1] - 1.0) > 1e-12:
            out.append("forcing must be sampled on x in [0, 1]")
        bmax = max(np.max(np.abs(forcing.values[:, 0])), np.max(np.abs(forcing.values[:, -1])))
        if bmax > BOUNDARY_TOL:
            out.append("forcing must vanish at x = 0 and x = 1")
        if forcing.tgrid[-1] < horizon * (1.0 - 1e-12):
            out.append("forcing samples must cover [0, horizon]")
    else:
        out.append("forcing must be SeparableForcing, TensorForcing, or None")
    return out


@dataclass(frozen=True)
class SolutionField:
    """Solution values on a space-time grid plus the per-mode time traces.

    ``values[i, j]`` is u(xgrid[j], tgrid[i]); ``modes[k-1]`` is the trace
    u_k(t).  ``tail`` reports the truncation diagnostic
    sum_{k > K} |psi_k| over the next resolvable block of modes.
    """

    xgrid: np.ndarray
    tgrid: np.ndarray
    values: np.ndarray
    modes: np.ndarray
    tail: float = 0.0

    def trace(self, k: int) -> SampledFunction:
        """Time trace of mode k as a sampled function."""
        if not 1 <= k <= self.modes.shape[0]:
            raise ValueError("trace: mode index out of range")
        return SampledFunction(self.tgrid, self.modes[k - 1])


def _resample_unit(f: SampledFunction, xgrid: np.ndarray) -> SampledFunction:
    if f.grid.size == xgrid.size and np.array_equal(f.grid, xgrid):
        return f
    return SampledFunction(xgrid, np.interp(xgrid, f.grid, f.values))


def _forcing_mode_traces(forcing, K: int, xgrid, tgrid) -> np.ndarray:
    """Sine coefficient traces f_k(t) of the forcing on ``tgrid``, shape
    (K, len(tgrid)).  A tensor forcing is analyzed in one product against
    one sine matrix."""
    if isinstance(forcing, SeparableForcing):
        g_c = sine_analyze(_resample_unit(forcing.space, xgrid), K).coeffs
        if forcing.time is None:
            return np.repeat(g_c[:, None], tgrid.size, axis=1)
        return g_c[:, None] * np.interp(tgrid, forcing.time.grid, forcing.time.values)
    nf = forcing.xgrid.size - 1
    if K > nf - 1:
        raise ValidationError([f"forcing xgrid with {nf} cells resolves only {nf - 1} of {K} modes"])
    coefs = _sine_coeffs(forcing.xgrid, forcing.values, K, "forcing")
    return np.array([np.interp(tgrid, forcing.tgrid, row) for row in coefs])


def _mode_traces(spec: DirectProblemSpec, psi_c: np.ndarray, tgrid, xgrid) -> np.ndarray:
    K = spec.modes
    lam = (np.arange(1, K + 1) * math.pi) ** 2
    forcing = spec.forcing
    if isinstance(forcing, SeparableForcing) and forcing.time is None:
        g_c = sine_analyze(_resample_unit(forcing.space, xgrid), K).coeffs
        rows = zip(lam, psi_c, g_c)
        return np.array([solve_scalar_constant(spec.fp, *r, tgrid).values for r in rows])
    rows = None if forcing is None else _forcing_mode_traces(forcing, K, xgrid, tgrid)
    return solve_scalar_batch(spec.fp, lam, psi_c, tgrid, rows)


def solve_direct(spec: DirectProblemSpec) -> SolutionField:
    """Solve the direct problem by mode decomposition.

    Each mode trace is u_k(t) = psi_k E_alpha(-(k pi)^2 t^(rho alpha) /
    rho^alpha) + F_k(t); the field is synthesized with exactly-zero
    boundary values, and the t = 0 slice reproduces the truncated series
    of the initial profile.
    """
    xgrid = np.linspace(0.0, 1.0, spec.nx + 1)
    tgrid = make_time_grid(spec.horizon, spec.nt, spec.fp.rho)

    psi = _resample_unit(spec.psi, xgrid)
    kmax_full = min(4 * spec.modes, spec.nx - 1)
    all_c = sine_analyze(psi, kmax_full).coeffs
    psi_c = all_c[: spec.modes]
    tail = float(np.sum(np.abs(all_c[spec.modes :])))

    U = _mode_traces(spec, psi_c, tgrid, xgrid)

    k = np.arange(1, spec.modes + 1)
    S = sinpi_array(np.outer(k, xgrid))
    values = U.T @ S
    return SolutionField(xgrid=xgrid, tgrid=tgrid, values=values, modes=U, tail=tail)
