"""Command-line front end.

Subcommands:

* ``ml``     -- tabulate the two-parameter Mittag-Leffler function.
* ``direct`` -- solve the forced initial-boundary-value problem from a
  spec file and write the solution grid, mode traces, and diagnostics.
* ``inverse`` -- recover a time-independent source from initial and final
  profiles and write the field, source, per-mode table, and diagnostics.
* ``verify`` -- run a named self-check suite and stream JSON-lines
  reports.

Spec files are INI-style::

    [operator]
    alpha = 0.6
    theta = 0.3

    [domain]
    T = 1.0
    K = 16
    nx = 128
    nt = 64

    [direct]
    psi = sin(pi*x)
    forcing = zero

    [inverse]
    psi = x*(1-x)
    phi = x*(1-x)

    [output]
    dir = out

Profile and forcing entries accept a restricted expression grammar
(numbers, ``x``, ``t``, ``pi``, ``sin``, ``+ - * / **``) or
``file:relative/path.csv`` pointing at a two-column x,value table.
Exit codes: 0 success, 2 usage or validation failure, 3 numerical
failure.  All emitted bytes are deterministic functions of the inputs.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import IllPosedError, ValidationError
from .inverse import InverseProblemSpec, reconstruct_source_field, solve_inverse
from .operators import FracParams, SampledFunction, make_time_grid
from .special import MLParams, ml_two_array
# bench/worker.py's WRAPS traces sine_analyze by this module's name
from .spectral import (  # noqa: F401
    DirectProblemSpec,
    SeparableForcing,
    TensorForcing,
    sine_analyze,
    solve_direct,
)
from .verify import run_suite, suite_names

__all__ = ["main"]


# ---------------------------------------------------------------------------
# restricted expression grammar

_ALLOWED_NAMES = {"x", "t", "pi"}
_ALLOWED_FUNCS = {"sin"}
_ALLOWED_BIN = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _validate_expr(node: ast.AST, used: set) -> None:
    if isinstance(node, ast.Expression):
        _validate_expr(node.body, used)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or abs(node.value) > sys.float_info.max:
            raise ValueError(f"unsupported constant {node.value!r}")
        node.value = float(node.value)  # keeps 9**9**9 out of big-integer arithmetic
    elif isinstance(node, ast.Name):
        if node.id not in _ALLOWED_NAMES:
            raise ValueError(f"unknown name {node.id!r}; allowed: x, t, pi")
        if node.id != "pi":
            used.add(node.id)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BIN):
            raise ValueError("unsupported operator")
        _validate_expr(node.left, used)
        _validate_expr(node.right, used)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ValueError("unsupported unary operator")
        _validate_expr(node.operand, used)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_FUNCS):
            raise ValueError("only sin(...) calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ValueError("sin takes exactly one positional argument")
        _validate_expr(node.args[0], used)
    else:
        raise ValueError(f"unsupported syntax ({type(node).__name__})")


class Expression:
    """Compiled restricted expression; knows which variables it uses."""

    def __init__(self, text: str):
        self.used: set = set()
        try:
            tree = ast.parse(text, mode="eval")
            _validate_expr(tree, self.used)
            self._code = compile(tree, "<spec>", "eval")
        except SyntaxError as exc:
            raise ValueError(f"cannot parse expression {text!r}: {exc.msg}") from None
        except (RecursionError, MemoryError):
            # the parser, the validator and the compiler all recurse per level
            raise ValueError(f"expression {text[:40]!r}... is nested too deeply") from None
        self.text = text

    def __call__(self, x=None, t=None):
        env = {"__builtins__": {}, "pi": math.pi, "sin": np.sin}
        if x is not None:
            env["x"] = x
        if t is not None:
            env["t"] = t
        try:
            with np.errstate(all="ignore"):  # the sampled functions name a non-finite value
                return eval(self._code, env)
        except OverflowError as exc:
            raise ValueError(f"expression {self.text!r} overflows: {exc}") from None


def _load_samples(path: str) -> SampledFunction:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"sample file {path!r} must have two columns (x, value)")
    return SampledFunction(rows[:, 0], rows[:, 1])


def _profile(entry: str, xgrid: np.ndarray, base_dir: str) -> SampledFunction:
    """A spatial profile: an x-expression on ``xgrid``, or a file: table as loaded."""
    entry = entry.strip()
    if entry.startswith("file:"):
        return _load_samples(os.path.join(base_dir, entry[5:].strip()))
    return _on_grid(Expression(entry), xgrid)


def _on_grid(expr: Expression, xgrid: np.ndarray) -> SampledFunction:
    """The x-expression ``expr`` sampled on ``xgrid``."""
    if "t" in expr.used:
        raise ValueError(f"profile expression {expr.text!r} must not involve t")
    vals = np.broadcast_to(np.asarray(expr(x=xgrid), dtype=float), xgrid.shape)
    return SampledFunction(xgrid, np.array(vals, dtype=float))


def _forcing(entry: str, xgrid: np.ndarray, tgrid: np.ndarray, base_dir: str):
    entry = entry.strip()
    if entry in ("", "zero", "0"):
        return None
    if entry.startswith("file:"):
        return SeparableForcing(_profile(entry, xgrid, base_dir))
    expr = Expression(entry)
    if "t" not in expr.used:
        return SeparableForcing(_on_grid(expr, xgrid))
    vals = np.asarray(expr(x=xgrid[None, :], t=tgrid[:, None]), dtype=float)
    return TensorForcing(xgrid, tgrid, np.array(np.broadcast_to(vals, (tgrid.size, xgrid.size))))


# ---------------------------------------------------------------------------
# spec files

def _load_spec(path: str, section: str, needs: str):
    """Read the spec file at ``path``: the parser, its directory, the operator,
    the [domain] (T, K, nx, nt; K defaults to HB_DEFAULT_MODES, else 64) and
    the x grid.  Raises unless the file has [operator] and ``section``."""
    cp = configparser.ConfigParser(interpolation=None)
    if not cp.read(path):
        raise ValueError(f"cannot read spec file {path!r}")
    if not cp.has_section("operator"):
        raise ValueError("spec file needs an [operator] section with alpha and theta")
    alpha = cp.getfloat("operator", "alpha")
    fp = FracParams(alpha, cp.getfloat("operator", "theta", fallback=0.0))
    horizon = cp.getfloat("domain", "T", fallback=1.0)
    if cp.has_option("domain", "K"):
        modes = cp.getint("domain", "K")
    else:
        env = os.environ.get("HB_DEFAULT_MODES", "64")
        try:
            modes = int(env)
        except ValueError:
            raise ValueError(f"HB_DEFAULT_MODES must be an integer, got {env!r}") from None
    nx = cp.getint("domain", "nx", fallback=256)
    domain = (horizon, modes, nx, cp.getint("domain", "nt", fallback=512))
    if not cp.has_section(section):
        raise ValueError(f"spec file needs {needs}")
    return cp, os.path.dirname(os.path.abspath(path)), fp, domain, np.linspace(0.0, 1.0, nx + 1)


def _out_dir(cp: configparser.ConfigParser, spec_dir: str) -> str:
    fmt = cp.get("output", "format", fallback="csv").strip().lower()
    if fmt != "csv":
        raise ValueError(f"unsupported output format {fmt!r}; only csv is available")
    d = cp.get("output", "dir", fallback=".")
    path = os.path.join(spec_dir, d)
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# CSV text
#
# A value prints as Python's repr prints it, the shortest decimal that reads
# back as the same double, except that whole numbers below 1e16 in magnitude
# print as integers.  Their shortest digits are the integer's own, so every
# normal double takes the one digit search, Schubfach (R. Giulietti, "The
# Schubfach way to render doubles", 2020), run on uint64 arrays with each
# 64 x 64 -> 128-bit product built from 32-bit halves.  Every operand is a
# np.uint64: NumPy 1.x turns uint64 with a Python int into float64.

_U = np.uint64
_M32, _M63, _S32 = _U(2**32 - 1), _U(2**63 - 1), _U(32)
# Schubfach's g(k) = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 for the
# decimal exponents k of doubles, -324..292, at column k + 324: the 32-bit
# halves of g1 = g >> 63 and of g0 = g mod 2^63, then g1.  A cache of fixed
# numbers, filled in each process for the k its blocks need (g1 >= 2^62, so
# a zero in row 4 marks an empty column): all 617 take 3.5 ms on 2 vCPU.
_G = np.zeros((5, 617), np.uint64)
_CHUNK_VALUES = 4096  # values formatted per _csv_block call when streaming
_ROW18 = np.arange(18, dtype=np.uint8)[:, None]
_ROW5 = np.arange(5, dtype=np.uint8)[:, None]
_DIGIT_AT = np.arange(1, 18, dtype=np.uint8)[:, None]


def _decimal_exponent(bq, irregular):
    """Schubfach's k = floor(log10(2^q)), or floor(log10(3/4 2^q)) where the
    spacing below is irregular, for the biased binary exponent bq = q + 1075."""
    return ((bq - 1075) * 661971961083 - irregular * 274743187321) >> 41


def _build_g(kmin: int, kmax: int) -> None:
    """Fill the columns of _G for kmin <= k <= kmax that are still empty."""
    for k in (np.flatnonzero(_G[4, kmin + 324:kmax + 325] == 0) + kmin).tolist():
        f = (-k * 913124641741) >> 38  # floor(-k log2 10)
        g = (10 ** max(-k, 0) << max(125 - f, 0)) // (10 ** max(k, 0) << max(f - 125, 0)) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        _G[:, k + 324] = g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32, g1


@functools.cache
def _exponent_text():
    """Rows 'e', sign, two or three digits (NUL-padded) of repr's exponent
    suffix for e = -324..308 at column e + 324, and each suffix's length."""
    text = [f"e{e:+03d}".encode() for e in range(-324, 309)]
    rows = np.frombuffer(b"".join(t.ljust(5, b"\0") for t in text), np.uint8)
    return rows.reshape(-1, 5).T.copy(), np.array([len(t) for t in text], np.uint8)


def _hi64(a0, a1, b0, b1):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), all halves < 2^32
    and b1 < 2^27, so the middle sums cannot overflow."""
    m = a1 * b0
    mid = (a0 * b0 >> _S32) + a0 * b1 + (m & _M32)
    return a1 * b1 + (m >> _S32) + (mid >> _S32)


def _rop(g, cp):
    """Schubfach's rop: g cp / 2^127 rounded to odd, g as a column set of _G."""
    g10, g11, g00, g01, g1 = g
    c0, c1 = cp & _M32, cp >> _S32
    z = (g1 * cp >> _U(1)) + _hi64(g00, g01, c0, c1)
    return _hi64(g10, g11, c0, c1) + (z >> _U(63)) | ((z & _M63) + _M63) >> _U(63)


def _shortest(bits):
    """(d, k) per positive normal double given by its uint64 ``bits``: the
    shortest d 10^k that reads back as it, nearest it on a tie of length."""
    bq = (bits >> _U(52)).astype(np.int64)
    c = bits & _U(2**52 - 1) | _U(2**52)
    irregular = (c == _U(2**52)) & (bq > 1)  # the double below is nearer than the one above
    k = _decimal_exponent(bq, irregular)
    _build_g(int(k.min()), int(k.max()))
    g = _G.take(k + 324, axis=1)
    h = (bq - 1073 + (-k * 913124641741 >> 38)).astype(np.uint64)
    cb, out = c << _U(2), c & _U(1)
    vb = _rop(g, cb << h)
    low = _rop(g, cb - _U(2) + irregular << h) + out  # the rounding interval, scaled by 4
    high = _rop(g, cb + _U(2) << h) - out
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin, wpin = low <= sp10 << _U(2), sp10 + _U(10) << _U(2) <= high
    uin, win = low <= s << _U(2), s + _U(1) << _U(2) <= high
    mid = s << _U(2) | _U(2)
    up = np.where(uin != win, win, (vb > mid) | (vb == mid) & (s & _U(1)).astype(bool))
    return np.where(upin != wpin, sp10 + wpin * _U(10), s + up), k


def _csv_block(table: np.ndarray) -> bytes:
    """The rows of the 2-D float ``table`` as comma-separated lines, each
    ended by a newline: whole numbers below 1e16 in magnitude as integers
    (so -0.0 reads 0), every other value as repr(float) prints it."""
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=float).ravel()
    n = v.size
    if not n:
        return b"\n" * rows
    bits = v.view(np.uint64) & _M63
    tiny = bits < _U(2**52)  # zero or subnormal
    # 17 significant digits d and the decimal point's place: the value is
    # 0.d 10^decpt.  1.5 stands in for zero, which keeps its decpt 1 and
    # takes the digits 0, and for subnormals, which get theirs from repr
    # below: Schubfach would give 4.9e-324 where repr gives 5e-324.
    d, k = _shortest(np.where(tiny, _U(0x3FF8000000000000), bits))
    short = d < _U(10**16)
    d = np.where(short, d * _U(10), d) * ~tiny
    decpt = k + 17 - short
    for i in np.flatnonzero(tiny & (bits != _U(0))).tolist():
        mant, _, e = repr(abs(float(v[i]))).partition("e")
        d[i], decpt[i] = int(mant.replace(".", "").ljust(17, "0")), int(e) + 1
    # the digit characters of d in rows 1..17 of z, between two zero rows
    z = np.zeros((19, n), np.uint8)
    top = d // _U(10**16)
    rest = d - top * _U(10**16)
    hi8 = rest // _U(10**8)
    halves = np.array([hi8, rest - hi8 * _U(10**8)], np.int32)  # digits 1-8 and 9-16
    for place in range(8, 0, -1):
        tens = halves // 10
        z[1 + place:18:8] = halves - tens * 10
        halves = tens
    z[1] = top
    nd = (_DIGIT_AT * (z[1:18] != 0)).max(axis=0)
    z[1:18] += np.uint8(48)
    # layout, as repr: positional iff -4 < decpt <= 16.  A dot follows digit
    # p where digits are left after it, so a whole number below 1e16 (nd <=
    # decpt <= 16) shows its decpt digits and no ".0".
    expo = (decpt > 16) | (decpt <= -4)
    small = ~expo & (decpt <= 0)
    p = np.where(expo, 1, decpt)
    dot = ~small & (nd > p)
    p = np.where(dot, p, 17).astype(np.uint8)
    exp_rows, exp_len = _exponent_text()
    e = np.where(expo, decpt + 323, 0)
    # rows: sign, "0.000", digits with the dot at row p, exponent, separator
    text = np.empty((30, n), np.uint8)
    text[0] = ord("-")
    text[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None]
    np.multiply(z[1:19], _ROW18 < p, out=text[6:24])
    text[6:24] += z[0:18] * (_ROW18 > p)
    text[6:24] += np.uint8(ord(".")) * (_ROW18 == p)
    text[24:29] = exp_rows.take(e, axis=1)
    text[29] = ord(",")
    text[29, cols - 1::cols] = ord("\n")
    shown = np.empty((30, n), bool)
    shown[0] = v < 0
    shown[1:6] = _ROW5 < np.where(small, 2 - decpt, 0).astype(np.uint8)
    shown[6:24] = _ROW18 < (np.where(expo, nd, np.maximum(nd, decpt)) + dot).astype(np.uint8)
    shown[24:29] = _ROW5 < exp_len.take(e) * expo
    shown[29] = True
    return text.T[shown.T].tobytes()


def _csv_chunks(table: np.ndarray):
    """_csv_block of ``table`` in row blocks of at most _CHUNK_VALUES values
    (one row where a row holds more)."""
    step = max(1, _CHUNK_VALUES // max(1, table.shape[1]))
    for i in range(0, len(table), step):
        yield _csv_block(table[i:i + step])


def _check_finite(table: np.ndarray, name: str) -> None:
    """Raise FloatingPointError naming ``name`` and the first NaN or inf."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0].tolist()
        raise FloatingPointError(
            f"{name}: non-finite value {float(table[i, j])} at data row {i}, column {j} "
            "(counted from 0)")


# A forked writer pays for itself from about 40,000 values on 2 vCPU: a pass
# of 20,000 values took 14.7 ms in one block and 16.8 ms in two, 50,000
# values 33.1 ms against 27.7 ms, and from 30,000 to 40,000 values two blocks
# won or lost by noise.  So a row block holds at least this many values.
_BLOCK_VALUES = 20_000


def _block_count(values: int) -> int:
    """Row blocks for a writer pass over ``values`` entries in all: one per
    available core, none under _BLOCK_VALUES values, and one where os.fork
    is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(cores, values // _BLOCK_VALUES))


def _fork_writer(paths: list, parts: list, inherited: list):
    """(pid, write end of a pipe) of a child that formats every 2-D array in
    ``parts`` by _csv_block, then waits for one byte on that pipe (its turn),
    appends each text to the file of the same index in ``paths`` and exits 0;
    or (None, None) where the fork fails.  A child that reads end of file
    instead of its turn exits 1 and writes nothing.  The child closes the
    write ends in ``inherited``, so each pipe has one writer."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None, None
    if pid == 0:
        code = 1
        try:
            for fd in inherited + [w]:
                os.close(fd)
            texts = [b"".join(_csv_chunks(p)) for p in parts]
            if os.read(r, 1):
                for path, text in zip(paths, texts):
                    with open(path, "ab") as fh:
                        fh.write(text)
                code = 0
        finally:
            os._exit(code)
    os.close(r)
    return pid, w


def _write_tables(out: str, tables) -> None:
    """Write each (name, header, columns) of ``tables`` as the file
    out/name: one header line, then row i holds entry i of every column (a
    2-D column contributes each of its own columns), formatted by _csv_block.

    Raises FloatingPointError naming the file, before any file is opened or
    any child forked, if a value of any table is not finite.  Every table is
    cut into the same _block_count(total values) row blocks, and one forked
    child per block after the first (_fork_writer) formats that block of
    every table, filling the formatter's caches for its own values.  The
    parent writes each header, then hands out the blocks in order: it
    appends its own first block, and a block whose fork was refused, itself;
    a child gets its turn byte and is reaped before the next block starts,
    so the bytes do not depend on the core count.  Every child is reaped
    before this returns or raises; one that fails raises RuntimeError, and
    any failure removes every file this pass created."""
    paths = [os.path.join(out, name) for name, _, _ in tables]
    stacked = [np.column_stack(columns).astype(float, copy=False) for _, _, columns in tables]
    for path, table in zip(paths, stacked):
        _check_finite(table, path)
    n = _block_count(sum(table.size for table in stacked))
    cuts = [[len(table) * b // n for b in range(n + 1)] for table in stacked]
    blocks = [[t[c[b]:c[b + 1]] for t, c in zip(stacked, cuts)] for b in range(n)]
    children, made, done = {}, [], False  # children: token pipe -> pid, until reaped
    try:
        turns = [None]  # per block, the token pipe of its writer; None where the parent formats it
        for parts in blocks[1:]:
            pid, fd = _fork_writer(paths, parts, list(children))
            if pid is not None:
                children[fd] = pid
            turns.append(fd)
        for path, (_, header, _) in zip(paths, tables):
            with open(path, "wb") as fh:
                made.append(path)
                fh.write(header.encode() + b"\n")
        for fd, parts in zip(turns, blocks):
            if fd is None:
                for path, part in zip(paths, parts):
                    with open(path, "ab") as fh:
                        fh.writelines(_csv_chunks(part))
                continue
            with contextlib.suppress(BrokenPipeError):  # the child failed and closed its end
                os.write(fd, b"\n")
            code = os.waitstatus_to_exitcode(os.waitpid(children[fd], 0)[1])
            del children[fd]
            os.close(fd)
            if code:
                raise RuntimeError(f"{', '.join(paths)}: a row-block writer exited with status {code}")
        done = True
    finally:
        for fd in children:  # a child without its turn reads end of file and exits
            os.close(fd)
        for pid in children.values():
            os.waitpid(pid, 0)
        if not done:
            for path in made:
                os.remove(path)


def _field_table(field):
    """The u_grid.csv table: the x nodes across, then one row t, u(x, t) per time."""
    header = "x\\t," + _csv_block(field.xgrid[None, :]).decode().rstrip("\n")
    return "u_grid.csv", header, (field.tgrid, field.values)


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ml(args) -> int:
    if not args.z:
        print("ml: need at least one --z value", file=sys.stderr)
        return 2
    try:
        params = MLParams(args.alpha, args.beta)
        z = np.array(args.z, dtype=float)
        table = np.column_stack([z, ml_two_array(params.alpha, params.beta_star, z)])
    except (ValueError, OverflowError) as exc:
        print(f"ml: {exc}", file=sys.stderr)
        return 2
    _check_finite(table, "output")
    print(_csv_block(table).decode().replace(",", ", "), end="")
    return 0


def _cmd_direct(args) -> int:
    cp, spec_dir, fp, (horizon, modes, nx, nt), xgrid = _load_spec(
        args.spec, "direct", "a [direct] section with psi")
    tgrid = make_time_grid(horizon, nt, fp.rho)
    psi = _profile(cp.get("direct", "psi"), xgrid, spec_dir)
    forcing = _forcing(cp.get("direct", "forcing", fallback="zero"), xgrid, tgrid, spec_dir)
    spec = DirectProblemSpec(
        fp, psi, forcing, horizon=horizon, modes=modes, nx=nx, nt=nt
    )
    sol = solve_direct(spec)
    out = _out_dir(cp, spec_dir)
    header = "t," + ",".join(f"u_{k}" for k in range(1, modes + 1))
    _write_tables(out, [_field_table(sol), ("mode_traces.csv", header, (sol.tgrid, sol.modes.T))])
    _write_jsonl(
        os.path.join(out, "diagnostics.jsonl"),
        [
            {
                "record": "direct",
                "alpha": fp.alpha,
                "theta": fp.theta,
                "horizon": horizon,
                "modes": modes,
                "nx": nx,
                "nt": nt,
                "tail": sol.tail,
            }
        ],
    )
    return 0


def _cmd_inverse(args) -> int:
    cp, spec_dir, fp, (horizon, modes, nx, nt), xgrid = _load_spec(
        args.spec, "inverse", "an [inverse] section with psi and phi")
    horizon = cp.getfloat("inverse", "T", fallback=horizon)
    psi = _profile(cp.get("inverse", "psi"), xgrid, spec_dir)
    phi = _profile(cp.get("inverse", "phi"), xgrid, spec_dir)
    spec = InverseProblemSpec(fp, psi, phi, horizon, modes=modes, nx=nx, nt=nt)
    res = solve_inverse(spec)
    out = _out_dir(cp, spec_dir)
    source = reconstruct_source_field(res, xgrid)
    _write_tables(out, [
        _field_table(res.u),
        ("source.csv", "x,f", (source.grid, source.values)),
        ("mode_table.csv", "k,psi,phi,transient,source",
         (np.arange(1, modes + 1), res.profile_coeffs.T, res.transient, res.source.coeffs)),
    ])
    diag = {"record": "inverse", "alpha": fp.alpha, "theta": fp.theta, "horizon": horizon}
    diag.update(res.diagnostics)
    _write_jsonl(os.path.join(out, "diagnostics.jsonl"), [diag])
    return 0


def _cmd_verify(args) -> int:
    try:
        reports = run_suite(args.suite)
    except KeyError as exc:
        print(f"verify: {exc.args[0]}", file=sys.stderr)
        return 2
    ok = True
    for rep in reports:
        print(json.dumps(rep.as_dict(), sort_keys=True))
        ok = ok and rep.passed
    return 0 if ok else 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hbdiff",
        description="Fractional diffusion with a weighted time derivative: "
        "direct and inverse solvers, special-function tables, self checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ml = sub.add_parser("ml", help="tabulate the Mittag-Leffler function")
    ml.add_argument("--alpha", type=float, required=True)
    ml.add_argument("--beta", type=float, default=1.0)
    ml.add_argument("--z", type=float, action="append", help="argument (repeatable)")
    ml.set_defaults(func=_cmd_ml)

    direct = sub.add_parser("direct", help="solve the direct problem from a spec file")
    direct.add_argument("spec", help="path to the INI spec file")
    direct.set_defaults(func=_cmd_direct)

    inverse = sub.add_parser("inverse", help="recover a source from a spec file")
    inverse.add_argument("spec", help="path to the INI spec file")
    inverse.set_defaults(func=_cmd_inverse)

    verify = sub.add_parser("verify", help="run a self-check suite")
    verify.add_argument("suite", help="suite name or 'all': " + ", ".join(suite_names()))
    verify.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, configparser.Error, OSError, MemoryError) as exc:
        print(f"hbdiff {args.command}: {exc}", file=sys.stderr)
        return 2
    except (IllPosedError, RuntimeError, ArithmeticError) as exc:
        print(f"hbdiff {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
