"""Reconstruction of a time-independent source from initial and final
profiles of the fractional diffusion field.

Given u(x, 0) = psi(x) and u(x, T) = phi(x) with homogeneous Dirichlet
boundary data, each sine mode carries one linear condition.  Writing the
decay factor E_k = E_alpha(-(k pi)^2 T^(rho alpha) / rho^alpha), the mode
trace of the solution is

    u_k(t) = C_k E_alpha(-(k pi)^2 t^(rho alpha)/rho^alpha) + f_k/(k pi)^2

and matching both ends gives

    C_k = (psi_k - phi_k) / (1 - E_k),      f_k = (k pi)^2 (psi_k - C_k).

The denominator 1 - E_k lies in (0, 1) for every mode and tends to 1 as
k grows, so high modes are well conditioned; a configurable margin guards
the short-horizon edge cases.  All K decay traces come from the decay
table the direct solver uses for constant forcing (one Mittag-Leffler
call); E_k is its last column, and the field is synthesized as there.

A source that does not vanish at the walls has sine coefficients that
decay only like 1/k, so the bare K-term series sum f_k sin(k pi x)
converges slowly.  Since u = 0 on the walls, the equation at t = T gives
f(0) = -phi''(0) and f(1) = -phi''(1): the data fix the wall values
a = f(0), b = f(1).  The source field is therefore synthesized with a
linear lift (Lanczos/Eckhoff correction),

    f(x) ~ a (1 - x) + b x + sum_{k<=K} (f_k - 2 (a - (-1)^k b)/(k pi)) sin(k pi x),

where 2 (a - (-1)^k b)/(k pi) are the integral sine coefficients of the
lift.  The first K integral sine coefficients of the synthesized field
are exactly f_k, so it is still the forcing that makes each
reconstructed trace solve its own mode equation.

The wall values come from the modes just above the truncation,
k = K+1 .. min(4K, nx-1), where the jump at the walls dominates: a
least-squares fit matches mu_k phi_k, the discrete sine coefficients of
-Delta_h phi with mu_k = (4/h^2) sin^2(k pi h/2), against the discrete
sine coefficients of 1 - x and x.  One DST-I analyzes psi, phi, 1 - x
and x together up to mode min(4K, nx-1), so each profile is analyzed once.
With fewer than two modes in that window the lift is zero.  So is a fit
no larger than the rounding of phi carried through it,
eps max|phi| |mu|_2 |B^+|_2 with B the fit's basis: band-limited data
give such a lift, whose digits are rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllPosedError, ValidationError
from .operators import FracParams, SampledFunction, make_time_grid
from .scalar import solve_scalar_batch
from .spectral import (SineSeries, SolutionField, _resample_unit, _sine_coeffs,
                       _sine_values, _spec_failures, sine_synthesize)
# bench/worker.py's WRAPS traces these four by this module's name
from .special import ml_one, ml_one_array, sinpi_array  # noqa: F401
from .spectral import sine_analyze  # noqa: F401

__all__ = [
    "InverseProblemSpec",
    "InverseResult",
    "reconstruct_source_field",
    "solve_inverse",
]


@dataclass(frozen=True)
class InverseProblemSpec:
    """Overdetermined data for source recovery: initial profile ``psi``,
    final profile ``phi`` observed at time ``horizon``."""

    fp: FracParams
    psi: SampledFunction
    phi: SampledFunction
    horizon: float
    modes: int = 64
    nx: int = 256
    nt: int = 512
    margin: float = 1e-8

    def __post_init__(self):
        profiles = {"initial profile": self.psi, "final profile": self.phi}
        failures = _spec_failures(self, "observation time", profiles)
        if not (0.0 < self.margin < 1.0):
            failures.append("denominator margin must lie in (0, 1)")
        if failures:
            raise ValidationError(failures)


@dataclass(frozen=True)
class InverseResult:
    """Recovered field and source.

    ``source`` holds the sine coefficients f_k of the time-independent
    source; ``transient`` holds the amplitude C_k of the decaying part of
    each mode trace (the trace equals transient * decay + source/(k pi)^2).
    ``diagnostics`` records conditioning and convergence indicators.
    ``walls`` holds the source's wall values (f(0), f(1)) estimated from
    the final profile; :func:`reconstruct_source_field` adds their linear
    lift.  The default (0, 0) means no lift: the field is the bare series.
    ``profile_coeffs`` holds the (2, K) sine coefficients of psi and phi
    that the recovery used (None when not recorded).
    """

    u: SolutionField
    source: SineSeries
    transient: np.ndarray
    diagnostics: dict
    walls: tuple[float, float] = (0.0, 0.0)
    profile_coeffs: np.ndarray | None = None


def solve_inverse(spec: InverseProblemSpec) -> InverseResult:
    """Recover the source series and the field from the two profiles.

    Raises :class:`~hbdiff.errors.IllPosedError` naming the first mode
    whose denominator 1 - E_k falls below ``spec.margin``.
    """
    fp = spec.fp
    K = spec.modes
    xgrid = np.linspace(0.0, 1.0, spec.nx + 1)
    tgrid = make_time_grid(spec.horizon, spec.nt, fp.rho)

    kmax = min(4 * K, spec.nx - 1)
    rows = [_resample_unit(prof, xgrid).values for prof in (spec.psi, spec.phi)]
    coeffs = _sine_coeffs(xgrid, np.array(rows + [1.0 - xgrid, xgrid]), kmax, "inverse")
    psi_c, phi_c = coeffs[:K, 0], coeffs[:K, 1]

    lam = (np.arange(1, K + 1) * math.pi) ** 2
    decay = solve_scalar_batch(fp, lam, np.ones(K), tgrid)  # unit data, no forcing
    denom = 1.0 - decay[:, -1]
    worst = int(np.argmin(denom))
    if denom[worst] < spec.margin:
        raise IllPosedError(worst + 1, denom[worst], spec.margin)

    transient = (psi_c - phi_c) / denom
    f_c = lam * (psi_c - transient)
    U = transient[:, None] * decay + (f_c / lam)[:, None]
    field = SolutionField(xgrid, tgrid, _sine_values(U, xgrid), U)

    walls = _wall_values(coeffs[K:, 1:], K, 1.0 / spec.nx, np.max(np.abs(rows[1])))
    diagnostics = _diagnose(denom, worst, f_c, walls)
    return InverseResult(field, SineSeries(f_c), transient, diagnostics, walls, coeffs[:K, :2].T)


def _wall_values(coeffs: np.ndarray, K: int, h: float, phi_max: float) -> tuple[float, float]:
    """Least-squares wall values (a, b) of the source -phi'' from the sine
    coefficients of phi, 1 - x and x (columns of ``coeffs``, grid step h) in
    modes K+1 .. K+len(coeffs); (0, 0) when these are fewer than two, or when
    the fit lies within the rounding of phi (max |phi| = ``phi_max``)."""
    if coeffs.shape[0] < 2:
        return (0.0, 0.0)
    k = np.arange(K + 1, K + 1 + coeffs.shape[0])
    mu = (4.0 / h**2) * np.sin(0.5 * math.pi * k * h) ** 2
    (a, b), _, _, sv = np.linalg.lstsq(coeffs[:, 1:], mu * coeffs[:, 0], rcond=None)
    # |phi_k| errs by about eps max|phi|; the fit scales that by |mu| and |B^+| = 1/sv[-1]
    floor = np.finfo(float).eps * phi_max * np.linalg.norm(mu) / sv[-1]
    if max(abs(a), abs(b)) <= floor:
        return (0.0, 0.0)
    return (float(a), float(b))


def _diagnose(
    denom: np.ndarray, worst: int, f_c: np.ndarray, walls: tuple[float, float]
) -> dict:
    K = f_c.size
    total = float(np.sum(np.abs(f_c)))
    half = float(np.sum(np.abs(f_c[K // 2 :])))
    warnings = []
    # sup-norm bound on the gap between the K-term and K/2-term partial sums
    if half > 1e-3:
        warnings.append(
            "source series converges slowly: the last half of the modes "
            f"still carries absolute mass {half:.3e}"
        )
    return {
        "min_denominator": float(denom[worst]),
        "min_denominator_mode": worst + 1,
        "source_mass": total,
        "source_tail_mass": half,
        "source_wall_left": walls[0],
        "source_wall_right": walls[1],
        "warnings": warnings,
    }


def reconstruct_source_field(res: InverseResult, xgrid) -> SampledFunction:
    """Synthesize the recovered source on ``xgrid``.

    With wall values (a, b) = ``res.walls`` the field is

        a (1 - x) + b x + sum_{k<=K} (f_k - 2 (a - (-1)^k b)/(k pi)) sin(k pi x),

    whose first K integral sine coefficients are exactly f_k; it takes
    the values a and b at the walls.  With no lift it is the bare series.
    """
    a, b = res.walls
    k = np.arange(1, res.source.modes + 1)
    lift_c = 2.0 * (a - (-1.0) ** k * b) / (k * math.pi)
    rest = sine_synthesize(SineSeries(res.source.coeffs - lift_c), xgrid)
    x = rest.grid
    return SampledFunction(x, a * (1.0 - x) + b * x + rest.values)
