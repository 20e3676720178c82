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
A time-independent forcing is passed as its (K, 1) coefficient column,
for which that call returns the closed-form relaxation
(psi_k - g_k/lam_k) E + g_k/lam_k; the formula lives there only.
:mod:`hbdiff.inverse` shares the synthesis, the spec checks and that call.

Coefficient extraction is an exact DST-I by real FFT on uniform grids:
synthesize-then-analyze is the identity for any series the grid
resolves, and boundary values of synthesized fields are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import FracParams, SampledFunction, make_time_grid
from .quadrature import _check_grid, _past_end, _uniform_step
from .scalar import solve_scalar_batch
from .special import sinpi_array
# bench/worker.py's WRAPS traces these three by this module's name
from .scalar import solve_scalar, solve_scalar_constant  # noqa: F401
from .special import ml_one_array  # noqa: F401

__all__ = [
    "DirectProblemSpec",
    "SeparableForcing",
    "SineSeries",
    "SolutionField",
    "TensorForcing",
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
        x = _check_grid(self.xgrid, "TensorForcing: xgrid")
        t = _check_grid(self.tgrid, "TensorForcing: tgrid")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (t.size, x.size):
            raise ValueError("TensorForcing: values must have shape (len(tgrid), len(xgrid))")
        if not np.all(np.isfinite(v)):
            raise ValueError("TensorForcing: values must be finite")
        object.__setattr__(self, "xgrid", x)
        object.__setattr__(self, "tgrid", t)
        object.__setattr__(self, "values", v)


def sine_analyze(g: SampledFunction, K: int) -> SineSeries:
    """Sine coefficients 2 * integral_0^1 g(x) sin(k pi x) dx, k = 1..K.

    The transform is exact on band-limited data: analyzing a synthesized
    series recovers its coefficients to machine precision whenever the
    grid resolves every mode (K at most len(grid) - 2).  Boundary samples
    do not enter; the basis vanishes there.  It is a DST-I by real FFT.
    """
    return SineSeries(_sine_coeffs(g.grid, g.values, K, "sine_analyze"))


def _unit_grid_failures(grid: np.ndarray, K: int, what: str) -> list:
    """Why ``grid`` cannot carry K sine modes: it must span [0, 1], be
    uniform and have more than K cells."""
    n = grid.size - 1
    out = []
    if abs(grid[-1] - 1.0) > 1e-12:
        out.append(f"{what}: grid must span [0, 1]")
    if grid.size < 3 or _uniform_step(grid) is None:
        out.append(f"{what}: grid must be uniform")
    if K > n - 1:
        out.append(f"{what}: a grid with {n} cells resolves at most {n - 1} modes")
    return out


def _sine_coeffs(grid: np.ndarray, values: np.ndarray, K: int, what: str) -> np.ndarray:
    """:func:`sine_analyze` of every row of ``values`` (sampled on ``grid``
    along the last axis) by one DST-I; shape (K,) + values.shape[:-1]."""
    if K < 1:
        raise ValueError(f"{what}: need at least one mode")
    if failures := _unit_grid_failures(grid, K, what):
        raise ValueError(failures[0])
    # with odd = [0, v_1..v_{n-1}, 0, -v_{n-1}..-v_1], the coefficient
    # 2h sum_j v_j sin(k pi j/n) is -Im(rfft(odd))[k] / n
    v = values[..., 1:-1]
    zero = np.zeros(v.shape[:-1] + (1,))
    odd = np.concatenate([zero, v, zero, -v[..., ::-1]], axis=-1)
    return (-np.fft.rfft(odd)[..., 1 : K + 1].imag / (grid.size - 1)).T


def _sine_values(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k-1] sin(k pi x) at every x, for every column of
    ``coeffs`` (modes along axis 0); exactly zero at x = 0, 1."""
    k = np.arange(1, coeffs.shape[0] + 1)
    return coeffs.T @ sinpi_array(np.outer(k, x))


def sine_synthesize(series: SineSeries, xgrid) -> SampledFunction:
    """Pointwise sum of the sine series on ``xgrid``; exactly zero at x = 0, 1."""
    x = np.asarray(xgrid, dtype=float)
    return SampledFunction(x, _sine_values(series.coeffs, x))


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
        failures = _spec_failures(self, "horizon", {"initial profile": self.psi})
        failures += _forcing_failures(self.forcing, self.horizon, self.modes)
        if failures:
            raise ValidationError(failures)


def _profile_failures(name: str, prof) -> list:
    """Why ``prof`` is not a sampled profile on [0, 1] vanishing at the walls."""
    if not isinstance(prof, SampledFunction):
        return [f"{name} must be a SampledFunction on [0, 1]"]
    out = []
    if abs(prof.grid[-1] - 1.0) > 1e-12:
        out.append(f"{name} must be sampled on [0, 1]")
    if abs(prof.values[0]) > BOUNDARY_TOL or abs(prof.values[-1]) > BOUNDARY_TOL:
        out.append(f"{name} must vanish at x = 0 and x = 1")
    return out


def _spec_failures(spec, horizon_name: str, profiles: dict) -> list:
    """Checks shared by the direct and inverse specs: the horizon, the mode
    count, the grid sizes and each named profile."""
    failures = []
    if not (math.isfinite(spec.horizon) and spec.horizon > 0.0):
        failures.append(f"{horizon_name} must be a positive finite number")
    if spec.modes < 1:
        failures.append("mode count must be >= 1")
    if spec.nx < 2 or spec.nt < 1:
        failures.append("need nx >= 2 space cells and nt >= 1 time cells")
    if spec.modes > spec.nx - 1:
        failures.append(f"nx = {spec.nx} cells resolve at most {spec.nx - 1} modes")
    for name, prof in profiles.items():
        failures += _profile_failures(name, prof)
    return failures


def _forcing_failures(forcing, horizon: float, K: int) -> list:
    if forcing is None:
        return []
    out = []
    if isinstance(forcing, SeparableForcing):
        out += _profile_failures("forcing space factor", forcing.space)
        if forcing.time is not None and _past_end(horizon, forcing.time.grid[-1]):
            out.append("forcing time factor must cover [0, horizon]")
    elif isinstance(forcing, TensorForcing):
        out += _unit_grid_failures(forcing.xgrid, K, "forcing")
        bmax = max(np.max(np.abs(forcing.values[:, 0])), np.max(np.abs(forcing.values[:, -1])))
        if bmax > BOUNDARY_TOL:
            out.append("forcing must vanish at x = 0 and x = 1")
        if _past_end(horizon, forcing.tgrid[-1]):
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
    """``f`` read at the x nodes; the solvers resample each profile once, here."""
    return SampledFunction(xgrid, f.value_at(xgrid))


def _forcing_mode_traces(forcing, K: int, xgrid, tgrid) -> np.ndarray:
    """Sine coefficient traces f_k(t) of the forcing on ``tgrid``, shape
    (K, len(tgrid)); a time-independent forcing gives its (K, 1) column
    g_k, which broadcasts and which solve_scalar_batch reads as constant in
    time.  A tensor forcing's time rows share one DST-I, and each of its K
    coefficient rows is read on ``tgrid`` by np.interp (held at the ends)."""
    if isinstance(forcing, SeparableForcing):
        g_c = sine_analyze(_resample_unit(forcing.space, xgrid), K).coeffs[:, None]
        if forcing.time is None:
            return g_c
        return g_c * forcing.time.value_at(tgrid)
    coefs = _sine_coeffs(forcing.xgrid, forcing.values, K, "forcing")
    return np.array([np.interp(tgrid, forcing.tgrid, row) for row in coefs])


def solve_direct(spec: DirectProblemSpec) -> SolutionField:
    """Solve the direct problem by mode decomposition.

    Each mode trace is u_k(t) = psi_k E_alpha(-(k pi)^2 t^(rho alpha) /
    rho^alpha) + F_k(t); the field is synthesized with exactly-zero
    boundary values, and the t = 0 slice reproduces the truncated series
    of the initial profile.
    """
    xgrid = np.linspace(0.0, 1.0, spec.nx + 1)
    tgrid = make_time_grid(spec.horizon, spec.nt, spec.fp.rho)

    K = spec.modes
    all_c = sine_analyze(_resample_unit(spec.psi, xgrid), min(4 * K, spec.nx - 1)).coeffs
    psi_c, tail = all_c[:K], float(np.sum(np.abs(all_c[K:])))

    lam = (np.arange(1, K + 1) * math.pi) ** 2
    rows = None if spec.forcing is None else _forcing_mode_traces(spec.forcing, K, xgrid, tgrid)
    U = solve_scalar_batch(spec.fp, lam, psi_c, tgrid, rows)
    return SolutionField(xgrid, tgrid, _sine_values(U, xgrid), U, tail)
