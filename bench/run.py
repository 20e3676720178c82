"""Benchmark of the hbdiff CLI: end-to-end and per-layer figures.

Run from the root of a checkout:

    python3 bench/run.py --workload direct-readme --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --make-inputs --workload inverse-walls --seed 1
    python3 bench/run.py --selftest

A run makes its inputs from the seed under bench/_work/<workload>/, then
launches one fresh Python process per solve (bench/worker.py), one at a
time, so every solve pays the import, an empty Mittag-Leffler cache, spec
parsing, the solve and the CSV writes.  Solves repeat until their summed
time reaches --seconds (at least one).  Each solve's outputs are checked
against references computed apart from the program (bench/reference.py)
after its timing has stopped.

--trace 0 reports setup_s, solve_s and peak_rss_mb (medians).  --trace 1
runs one untraced solve and one traced solve and reports the per-layer
figures of the traced one.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Exit code 2 means the
benchmark could not run (for example, no src/hbdiff in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import mpmath
import numpy as np

from reference import TalbotML
from workloads import ALPHA, SELFTEST, WORKLOADS, Checker, make_inputs, perturbations

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PROBES = 5  # extra import-only processes per run, for the set-up median
RUN_LIMIT_S = 170  # a run's worker processes are stopped after this long


class NoProgram(Exception):
    """The checkout holds no hbdiff sources to benchmark."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(root: str, args: list, deadline: float) -> dict | None:
    """Run one worker process; return its record with setup_s, or None."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    # hbdiff's bytecode is cached under src/ as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = _now()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"worker stopped at the run's {RUN_LIMIT_S} s limit: {args}")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker failed with exit code {proc.returncode}: {args}\n{proc.stderr[-2000:]}")
        return None
    rec = json.loads(lines[-1])
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(rec["hbdiff"]).startswith(src):
        raise NoProgram(f"hbdiff was imported from {rec['hbdiff']}, not from {src}")
    rec["setup_s"] = rec["t_imported"] - t0
    if rec.get("rc", 0) != 0:
        print(f"hbdiff exited with code {rec['rc']}: {args}\n{proc.stderr[-2000:]}")
        return None
    return rec


def _bytes_written(out: str) -> int:
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


def fingerprint(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v in os.environ}
    src = os.path.join(root, "src", "hbdiff")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "unset (OpenBLAS default: one per core)",
        "src_lines": lines,
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, root: str, name: str, seed: int, workload=None):
        self.root = root
        self.deadline = _now() + RUN_LIMIT_S
        self.work = os.path.join(root, "bench", "_work", name)
        shutil.rmtree(self.work, ignore_errors=True)
        w = workload or WORKLOADS[name]
        self.ml = TalbotML(ALPHA)
        self.params = make_inputs(w, seed, self.work, self.ml)
        self.cmd = w.kind
        self.spec = os.path.join(self.work, "spec.ini")
        self.out = os.path.join(self.work, "out")
        self.checker = None  # references are built after the first timed solve
        self.attempted = self.failed = 0
        self.correct = True

    def solve(self, trace: bool = False) -> dict | None:
        """One timed solve in a fresh process, then the check of its outputs."""
        shutil.rmtree(self.out, ignore_errors=True)
        args = ["solve", self.cmd, self.spec]
        if trace:
            args.append(os.path.join(self.work, "trace.json"))
        self.attempted += 1
        rec = _worker(self.root, args, self.deadline)
        if rec is None:
            self.failed += 1
            return None
        if self.checker is None:
            self.checker = Checker(self.params, self.ml)
        errors = self.checker(self.out)
        ok = all(e <= 1.0 for e in errors.values())
        self.correct = self.correct and ok
        shown = ", ".join(f"{k} {v:.3g}" for k, v in errors.items())
        print(
            f"solve {self.attempted}: {rec['solve_s']:.3f} s, {rec['peak_rss_mb']:.1f} MB, "
            f"set-up {rec['setup_s']:.3f} s; check {'ok' if ok else 'FAILED'} "
            f"(worst error / tolerance: {shown})"
        )
        rec["bytes_written"] = _bytes_written(self.out)
        return rec


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(run: Run, seconds: float) -> dict:
    setups = []
    for _ in range(PROBES):
        rec = _worker(run.root, ["probe"], run.deadline)
        if rec is not None:
            setups.append(rec["setup_s"])
    recs = []
    spent = 0.0
    while spent < seconds:
        rec = run.solve()
        if rec is None:
            break
        recs.append(rec)
        spent += rec["solve_s"]
    if not recs:
        return {}
    setups += [r["setup_s"] for r in recs]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "solve_s": _metric(statistics.median(r["solve_s"] for r in recs), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in recs), "MB"),
    }


# per-layer metrics and their units, in the order they are printed
LAYER_UNITS = {
    "special.points": "count",
    "special.self_s": "s",
    "special.points_per_s": "1/s",
    "special.points_small": "count",
    "special.points_band": "count",
    "special.points_deep": "count",
    "special.repeat_share": "share",
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "quadrature.matrix_mb": "MB",
    "scalar.calls": "count",
    "scalar.self_s": "s",
    "spectral.sine_calls": "count",
    "spectral.sine_self_s": "s",
    "spectral.self_s": "s",
    "inverse.self_s": "s",
    "inverse.source_s": "s",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.solve_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def run_traced(run: Run) -> dict:
    base = run.solve()
    traced = run.solve(trace=True) if base is not None else None
    if traced is None:
        return {}
    m = dict(traced["layers"])
    m["cli.bytes_written"] = traced["bytes_written"]
    m["trace.solve_s"] = traced["solve_s"]
    m["trace.unattributed_s"] = traced["solve_s"] - traced["attributed_s"]
    m["trace.overhead_s"] = traced["solve_s"] - base["solve_s"]
    return {k: _metric(m[k], unit) for k, unit in LAYER_UNITS.items()}


def selftest(root: str) -> int:
    """Every check passes on a clean output and fails on a slightly spoiled one."""
    good = True
    for kind, w in SELFTEST.items():
        run = Run(root, f"selftest-{kind}", 0, w)
        if run.solve() is None or not run.correct:
            print(f"{kind}: the clean output did not pass")
            good = False
            continue
        for name, spoil in perturbations(run.params).items():
            bad = run.out + "-spoiled"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(run.out, bad)
            spoil(bad)
            errors = run.checker(bad)
            caught = errors.get(name, 0.0) > 1.0
            others = [k for k, v in errors.items() if k != name and v > 1.0]
            print(
                f"{kind} {name}: spoiled output {'rejected' if caught else 'ACCEPTED'} "
                f"(error / tolerance {errors.get(name, float('nan')):.3g})"
                + (f"; also rejected by {others}" if others else "")
            )
            good = good and caught
    print("selftest", "passed" if good else "FAILED")
    return 0 if good else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-inputs", action="store_true", help="only write the inputs for the seed")
    ap.add_argument("--selftest", action="store_true", help="show each check rejecting a spoiled output")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hbdiff", "cli.py")):
        print(f"no src/hbdiff under {root}: run from the root of an hbdiff checkout", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest(root)
        if args.workload is None:
            ap.error("--workload is required")
        if args.make_inputs:
            run = Run(root, args.workload, args.seed)
            print(f"inputs for seed {args.seed} written to {run.work}")
            return 0
        print(json.dumps({"workload": args.workload, "seed": args.seed, **fingerprint(root)}))
        run = Run(root, args.workload, args.seed)
        metrics = run_traced(run) if args.trace else run_untraced(run, args.seconds)
    except NoProgram as exc:
        print(exc, file=sys.stderr)
        return 2
    if not metrics:
        print("no solve completed", file=sys.stderr)
        return 2
    result = {
        "correct": run.correct and run.failed < run.attempted,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
