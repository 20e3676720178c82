"""One benchmark process: import hbdiff, then optionally run one CLI command.

    python3 bench/worker.py probe
    python3 bench/worker.py solve <direct|inverse> <spec.ini> [<trace.json>]

``hbdiff.cli`` is imported first, so the CLOCK_MONOTONIC stamp taken right
after it, minus the parent's stamp taken before it started this process,
is the set-up time a CLI user pays.  ``solve`` then times
``hbdiff.cli.main([cmd, spec])``.  With a trace path it first wraps the
public functions each module imported from the layer below, keeps the
spans in memory and writes them, with the derived per-layer figures, once
the timed call has returned.  The last stdout line is a JSON record.
"""

import time

import hbdiff.cli

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# (module, attribute, layer): each wrap sits where the caller imported the name
WRAPS = [
    ("hbdiff.cli", "solve_direct", "spectral"),
    ("hbdiff.cli", "solve_inverse", "inverse"),
    ("hbdiff.cli", "reconstruct_source_field", "inverse"),
    ("hbdiff.cli", "sine_analyze", "sine"),
    ("hbdiff.spectral", "sine_analyze", "sine"),
    ("hbdiff.spectral", "sinpi_array", "sine"),
    ("hbdiff.spectral", "solve_scalar", "scalar"),
    ("hbdiff.spectral", "solve_scalar_constant", "scalar"),
    ("hbdiff.spectral", "ml_one_array", "special"),
    ("hbdiff.inverse", "sine_analyze", "sine"),
    ("hbdiff.inverse", "sine_synthesize", "sine"),
    ("hbdiff.inverse", "sinpi_array", "sine"),
    ("hbdiff.inverse", "ml_one", "special"),
    ("hbdiff.inverse", "ml_one_array", "special"),
    ("hbdiff.scalar", "ml_one_array", "special"),
    ("hbdiff.scalar", "power_kernel_weights", "quadrature"),
    ("hbdiff.scalar", "ml_product_matrix", "quadrature"),
    ("hbdiff.scalar", "ml_product_row", "quadrature"),
    ("hbdiff.scalar", "power_integral_at", "quadrature"),
    ("hbdiff.quadrature", "ml_two_array", "special"),
]
SOLVERS = ("solve_direct", "solve_inverse")
MATRIX_BUILDERS = ("power_kernel_weights", "ml_product_matrix")


def _ml_args(name, args):
    """(alpha, beta, z) of one Mittag-Leffler call."""
    if name == "ml_two_array":
        return args[0], args[1], args[2]
    return args[0], 1.0, args[1]  # ml_one, ml_one_array


class Tracer:
    """Spans [name, layer, parent, start, end] kept in memory, plus the
    Mittag-Leffler arguments and the bytes of returned quadrature matrices."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.ml_calls = []
        self.matrix_bytes = 0

    def open(self, name, layer):
        self.spans.append([name, layer, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][4] = time.perf_counter()

    def wrap(self, module, attr, layer):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            self.open(attr, layer)
            try:
                out = fn(*args, **kwargs)
                if layer == "special":
                    self.ml_calls.append(_ml_args(attr, args))
                elif attr in MATRIX_BUILDERS:
                    self.matrix_bytes += out.nbytes
                return out
            finally:
                self.close()

        setattr(module, attr, traced)

    def install(self):
        for mod, attr, layer in WRAPS:
            self.wrap(sys.modules[mod], attr, layer)

    def layer_metrics(self):
        """Per-layer figures; every self time is a span minus its children."""
        spans = self.spans
        dur = [s[4] - s[3] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[2] >= 0:
                child[s[2]] += dur[i]
        self_s, calls = {}, {}
        for i, s in enumerate(spans):
            self_s[s[1]] = self_s.get(s[1], 0.0) + dur[i] - child[i]
            calls[s[1]] = calls.get(s[1], 0) + 1
        root = spans[0]
        top = [s for s in spans if s[2] == 0]
        solver = next((s for s in top if s[0] in SOLVERS), None)
        split = solver[3] if solver else root[4]
        after = solver[4] if solver else root[4]
        parse = split - root[3] - sum(s[4] - s[3] for s in top if s[4] <= split)
        write = root[4] - after - sum(s[4] - s[3] for s in top if s[3] >= after)

        seen = set()
        points = small = band = deep = repeats = 0
        for alpha, beta, z in self.ml_calls:
            z = np.atleast_1d(np.asarray(z, dtype=float))
            points += z.size
            small += int(np.count_nonzero(np.abs(z) <= 1.5))
            band += int(np.count_nonzero((z > -50.0) & (z < -1.5)))
            deep += int(np.count_nonzero(z <= -50.0))
            for v in z.tolist():
                key = (alpha, beta, v)
                if key in seen:
                    repeats += 1
                else:
                    seen.add(key)
        special_s = self_s.get("special", 0.0)
        m = {
            "special.points": points,
            "special.self_s": special_s,
            "special.points_per_s": points / special_s if special_s > 0.0 else 0.0,
            "special.points_small": small,
            "special.points_band": band,
            "special.points_deep": deep,
            "special.repeat_share": repeats / points if points else 0.0,
            "quadrature.calls": calls.get("quadrature", 0),
            "quadrature.self_s": self_s.get("quadrature", 0.0),
            "quadrature.matrix_mb": self.matrix_bytes / 2**20,
            "scalar.calls": calls.get("scalar", 0),
            "scalar.self_s": self_s.get("scalar", 0.0),
            "spectral.sine_calls": calls.get("sine", 0),
            "spectral.sine_self_s": self_s.get("sine", 0.0),
            "spectral.self_s": self_s.get("spectral", 0.0),
            "inverse.self_s": self_s.get("inverse", 0.0),
            "inverse.source_s": sum(
                (d for s, d in zip(spans, dur) if s[0] == "reconstruct_source_field"), 0.0
            ),
            "cli.parse_s": parse,
            "cli.write_s": write,
        }
        attributed = sum(v for k, v in self_s.items() if k != "cli") + parse + write
        return m, attributed


def main(argv):
    if argv[0] == "probe":
        print(json.dumps({"t_imported": T_IMPORTED, "hbdiff": hbdiff.cli.__file__}))
        return 0
    cmd, spec = argv[1], argv[2]
    tracer = None
    if len(argv) > 3:
        tracer = Tracer()
        tracer.install()
        tracer.open("main", "cli")
    t0 = time.perf_counter()
    rc = hbdiff.cli.main([cmd, spec])
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close()
    rec = {
        "t_imported": T_IMPORTED,
        "hbdiff": hbdiff.cli.__file__,
        "rc": rc,
        "solve_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        metrics, attributed = tracer.layer_metrics()
        rec["layers"] = metrics
        rec["attributed_s"] = attributed
        with open(argv[3], "w") as fh:
            json.dump({"spans": tracer.spans, "layers": metrics}, fh)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
