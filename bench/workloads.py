"""Workload inputs made from a seed, and the checks of each run's outputs.

Every workload uses the README operator (alpha = 0.6, theta = 0.3, T = 1),
so rho = 0.7 and the stretched clock is s = t^0.7.

* ``direct``: psi = sin(pi x) + c sin(2 pi x) and the forcing
  x (1 - x) (a0 + b0 t^0.7).  The forcing's time factor is linear in s,
  so the program's product quadrature is exact and every mode trace has
  the closed form

      u_k = psi_k E_a(z) + (g_k / rho^a) [a0 s^a E_{a,a+1}(z) + b0 s^(a+1) E_{a,a+2}(z)],

  z = -(k pi)^2 s^a / rho^a, with g_k the discrete sine coefficients of
  x (1 - x) (closed form in :mod:`reference`).
* ``inverse``: the source 1 + x, whose stationary profile is
  w = x (2/3 - x/2 - x^2/6), plus a seeded transient C_k in every mode:
  psi = w + sum C_k sin(k pi x) and phi = w + sum C_k E_k sin(k pi x), with
  E_k the mode's decay at T.  Both go to the program as ``file:`` tables on
  its own grid.

The seed picks c, a0, b0 or the C_k, and the rows the direct checks
sample.  Checks compare against :mod:`reference` only, never against a
stored output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from reference import TalbotML, discrete_sine_parabola, stationary_profile

ALPHA = 0.6
THETA = 0.3
HORIZON = 1.0
RHO = 1.0 - THETA

# Tolerances, set from the program's stated accuracy (ML relative 1e-10 for
# |z| <= 50, absolute 1e-12 beyond) with room for rounding in the sums.
TRACE_TOL = 1e-9
TRANSIENT_TOL = 1e-9
SOURCE_TOL = 1e-3  # on [0.1, 0.9], as in the repository's criterion 8
WALL_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    kind: str  # "direct" or "inverse"
    modes: int
    nx: int
    nt: int


WORKLOADS = {
    "direct-readme": Workload("direct", 64, 256, 512),
    "direct-long": Workload("direct", 4, 64, 1024),
    "inverse-walls": Workload("inverse", 201, 1024, 256),
}

# Small sizes with the same inputs and checks, for the self-test.
SELFTEST = {
    "direct": Workload("direct", 6, 16, 16),
    "inverse": Workload("inverse", 8, 64, 8),
}


def _spec_text(w: Workload, section: str) -> str:
    return (
        f"[operator]\nalpha = {ALPHA!r}\ntheta = {THETA!r}\n\n"
        f"[domain]\nT = {HORIZON!r}\nK = {w.modes}\nnx = {w.nx}\nnt = {w.nt}\n\n"
        f"{section}\n[output]\ndir = out\n"
    )


def _write_table(path: str, x: np.ndarray, v: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), v.tolist())))


def decay_rates(modes: int) -> np.ndarray:
    """-z / s^a for k = 1..modes: (k pi)^2 / rho^a."""
    k = np.arange(1, modes + 1)
    return (k * math.pi) ** 2 / RHO**ALPHA


def make_inputs(w: Workload, seed: int, work: str, ml: TalbotML | None = None) -> dict:
    """Write spec.ini (and the profile tables) into ``work``; return the
    parameters the checks need.  The same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    os.makedirs(work, exist_ok=True)
    p = {"kind": w.kind, "modes": w.modes, "nx": w.nx, "nt": w.nt, "seed": seed}
    if w.kind == "direct":
        p["c"], p["a0"], p["b0"] = (float(v) for v in rng.uniform([0.2, 0.5, 0.5], [0.4, 1.5, 1.5]))
        section = (
            f"[direct]\npsi = sin(pi*x) + {p['c']!r}*sin(2*pi*x)\n"
            f"forcing = x*(1-x)*({p['a0']!r} + {p['b0']!r}*t**0.7)\n"
        )
    else:
        ml = ml or TalbotML(ALPHA)
        k = np.arange(1, w.modes + 1)
        amp = 0.05 * rng.uniform(-1.0, 1.0, w.modes) / k
        zT = -decay_rates(w.modes) * HORIZON ** (RHO * ALPHA)
        decay = np.array([ml(1.0, z) for z in zT])
        x = np.linspace(0.0, 1.0, w.nx + 1)
        S = np.sin(np.pi * np.outer(k, x))
        base = stationary_profile(x)
        psi = base + amp @ S
        phi = base + (amp * decay) @ S
        psi[[0, -1]] = 0.0
        phi[[0, -1]] = 0.0
        _write_table(os.path.join(work, "psi.csv"), x, psi)
        _write_table(os.path.join(work, "phi.csv"), x, phi)
        p["transient"] = amp.tolist()
        section = "[inverse]\npsi = file:psi.csv\nphi = file:phi.csv\n"
    with open(os.path.join(work, "spec.ini"), "w", newline="\n") as fh:
        fh.write(_spec_text(w, section))
    with open(os.path.join(work, "inputs.json"), "w") as fh:
        json.dump(p, fh, indent=1)
    return p


# ---------------------------------------------------------------------------
# checks


def sample_rows(p: dict) -> list:
    """Time rows the direct checks compare in full: t = 0, two seeded rows, t = T."""
    nt = p["nt"]
    rng = np.random.default_rng([p["seed"], 1])
    picked = rng.choice(np.arange(1, nt), size=min(2, nt - 1), replace=False)
    return sorted({0, nt, *(int(i) for i in picked)})


def reference_traces(p: dict, ml: TalbotML) -> dict:
    """{row: u_k(t_row) for k = 1..K} from the closed form."""
    K, nt = p["modes"], p["nt"]
    k = np.arange(1, K + 1)
    psi_c = np.zeros(K)
    psi_c[0] = 1.0
    if K > 1:
        psi_c[1] = p["c"]
    g = discrete_sine_parabola(p["nx"], k)
    lam = decay_rates(K)
    a, ra = ALPHA, RHO**ALPHA
    out = {}
    for i in sample_rows(p):
        s = i * HORIZON**RHO / nt
        u = np.zeros(K)
        for j in np.flatnonzero((psi_c != 0.0) | (g != 0.0)):
            z = -lam[j] * s**a
            u[j] = psi_c[j] * ml(1.0, z)
            if g[j] != 0.0 and s > 0.0:
                u[j] += (g[j] / ra) * (
                    p["a0"] * s**a * ml(a + 1.0, z) + p["b0"] * s ** (a + 1.0) * ml(a + 2.0, z)
                )
        out[i] = u
    return out


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _worst(err: np.ndarray, scale: np.ndarray, tol: float) -> float:
    """Largest error in units of the tolerance tol * max(1, |scale|)."""
    return float(np.max(err / (tol * np.maximum(1.0, np.abs(scale)))))


def check_direct(out: str, p: dict, ref: dict) -> dict:
    """{check name: worst error in units of its tolerance}; <= 1 passes."""
    K, nx, nt = p["modes"], p["nx"], p["nt"]
    traces = _read_csv(os.path.join(out, "mode_traces.csv"))
    grid = _read_csv(os.path.join(out, "u_grid.csv"))
    if traces.shape != (nt + 1, K + 1) or grid.shape != (nt + 1, nx + 2):
        return {"shapes": math.inf}
    s = np.arange(nt + 1) * HORIZON**RHO / nt
    x = np.arange(nx + 1) / nx
    S = np.sin(np.pi * np.outer(np.arange(1, K + 1), x))
    res = {"time_grid": _worst(np.abs(traces[:, 0] ** RHO - s), s, 1e-13)}
    tr = gr = 0.0
    for i, u in ref.items():
        tr = max(tr, _worst(np.abs(traces[i, 1:] - u), u, TRACE_TOL))
        field = u @ S
        gr = max(gr, _worst(np.abs(grid[i, 1:] - field), field, TRACE_TOL))
    res["mode_traces"] = tr
    res["u_grid_rows"] = gr
    walls = np.abs(grid[:, [1, -1]])
    res["u_grid_walls"] = 0.0 if np.all(walls == 0.0) else math.inf
    return res


def check_inverse(out: str, p: dict) -> dict:
    src = _read_csv(os.path.join(out, "source.csv"))
    inner = (src[:, 0] >= 0.1) & (src[:, 0] <= 0.9)
    res = {"source": float(np.max(np.abs(src[inner, 1] - (1.0 + src[inner, 0])))) / SOURCE_TOL}
    table = _read_csv(os.path.join(out, "mode_table.csv"))
    amp = np.asarray(p["transient"])
    if table.shape != (amp.size, 5):
        return {"shapes": math.inf}
    res["transients"] = _worst(np.abs(table[:, 3] - amp), amp, TRANSIENT_TOL)
    with open(os.path.join(out, "diagnostics.jsonl")) as fh:
        diag = json.loads(fh.readline())
    walls = np.array([diag["source_wall_left"], diag["source_wall_right"]])
    res["walls"] = float(np.max(np.abs(walls - [1.0, 2.0]))) / WALL_TOL
    return res


class Checker:
    """Checks one workload's outputs; references are computed once per run."""

    def __init__(self, p: dict, ml: TalbotML):
        self.p = p
        self.ref = reference_traces(p, ml) if p["kind"] == "direct" else None

    def __call__(self, out: str) -> dict:
        try:
            if self.ref is not None:
                return check_direct(out, self.p, self.ref)
            return check_inverse(out, self.p)
        except (OSError, ValueError, KeyError) as exc:
            return {f"unreadable ({type(exc).__name__}: {exc})": math.inf}


# ---------------------------------------------------------------------------
# self-test perturbations: one small change per check, each of which that
# check alone must reject


def _perturb_csv(path: str, row: int, col: int, delta: float) -> None:
    """Add ``delta`` to one data cell (row 0 is the first line after the header)."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))


def _perturb_walls(out: str) -> None:
    path = os.path.join(out, "diagnostics.jsonl")
    with open(path) as fh:
        diag = json.loads(fh.readline())
    diag["source_wall_right"] += 2.0 * WALL_TOL
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(diag, sort_keys=True) + "\n")


def perturbations(p: dict) -> dict:
    """{check name: function that spoils an output directory slightly}."""
    if p["kind"] == "direct":
        row = sample_rows(p)[1]
        mid = p["nx"] // 2 + 1
        return {
            "time_grid": lambda out: _perturb_csv(os.path.join(out, "mode_traces.csv"), 1, 0, 1e-12),
            "mode_traces": lambda out: _perturb_csv(
                os.path.join(out, "mode_traces.csv"), row, 1, 10 * TRACE_TOL
            ),
            "u_grid_rows": lambda out: _perturb_csv(
                os.path.join(out, "u_grid.csv"), row, mid, 10 * TRACE_TOL
            ),
            "u_grid_walls": lambda out: _perturb_csv(os.path.join(out, "u_grid.csv"), row, 1, 1e-300),
        }
    half = p["nx"] // 2
    return {
        "source": lambda out: _perturb_csv(os.path.join(out, "source.csv"), half, 1, 2 * SOURCE_TOL),
        "transients": lambda out: _perturb_csv(
            os.path.join(out, "mode_table.csv"), 0, 3, 10 * TRANSIENT_TOL
        ),
        "walls": _perturb_walls,
    }
