"""Command-line interface tests: spec parsing, output bytes, exit codes."""

import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import hbdiff.cli as cli
from hbdiff.cli import Expression, _forcing, _write_tables, main
from hbdiff.inverse import InverseProblemSpec, solve_inverse
from hbdiff.operators import FracParams, SampledFunction, make_time_grid
from hbdiff.special import MLParams, ml_two
from hbdiff.spectral import (
    DirectProblemSpec,
    SeparableForcing,
    TensorForcing,
    sine_analyze,
    solve_direct,
)


SPEC = """\
[operator]
alpha = 0.6
theta = 0.3

[domain]
T = 1.0
K = 4
nx = 16
nt = 8

[direct]
psi = sin(pi*x) + 0.3*sin(2*pi*x)
forcing = {forcing}

[inverse]
psi = sin(pi*x)
phi = 0.5*sin(pi*x)

[output]
dir = {out}
"""


def write_spec(tmp_path, name="spec.ini", out="out", forcing="zero", extra=""):
    path = tmp_path / name
    path.write_text(SPEC.format(out=out, forcing=forcing) + extra)
    return str(path)


def _fmt(v: float) -> str:
    """The per-value rule the CSV writer must reproduce: whole numbers below
    1e16 in magnitude as integers, everything else as the round-trip repr."""
    v = float(v)
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_grid_csv(path):
    """Parse the u-grid layout: corner cell, x header, then t + row values."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    assert header[0] == "x\\t"
    xgrid = np.array([float(c) for c in header[1:]])
    return xgrid, rows[:, 0], rows[:, 1:]


class TestExpressionGrammar:
    def test_polynomial_and_sine(self):
        x = np.linspace(0.0, 1.0, 5)
        expr = Expression("sin(2*pi*x) + x**2 - x/2")
        assert_allclose(expr(x=x), np.sin(2 * np.pi * x) + x**2 - x / 2, rtol=1e-15)
        assert expr.used == {"x"}

    def test_space_time_product(self):
        expr = Expression("x*(1-x)*(1+t**2)")
        assert expr.used == {"x", "t"}
        assert expr(x=0.5, t=2.0) == 0.25 * 5.0

    def test_rejects_unknown_names_and_calls(self):
        for bad in ("y + 1", "cos(x)", "__import__('os')", "x.real", "sin(x, 2)",
                    "lambda x: x", "[1, 2]", "'abc'", "sin()"):
            with pytest.raises(ValueError):
                Expression(bad)

    def test_rejects_unbalanced_syntax(self):
        with pytest.raises(ValueError):
            Expression("sin(pi*x")

    # too deep for the parser's stack, its memory, and the validator's recursion
    @pytest.mark.parametrize("text", ["-" * 5000 + "x", "x" + "**x" * 3000, "-" * 1500 + "x"])
    def test_rejects_too_deep_nesting(self, text):
        with pytest.raises(ValueError, match="nested too deeply"):
            Expression(text)


class TestMlCommand:
    def test_rows_match_library(self, capsys):
        assert main(["ml", "--alpha", "1", "--beta", "1", "--z", "0", "--z", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0, 1"
        z1 = float(lines[1].split(", ")[1])
        assert z1 == ml_two(MLParams(1.0, 1.0), 1.0)

    def test_one_evaluation_gives_each_z_its_own_value(self, capsys):
        zs = [-0.9, -5.0, -80.0, 0.3]
        assert main(["ml", "--alpha", "0.6", "--beta", "1.6"] + [f"--z={z}" for z in zs]) == 0
        want = [f"{_fmt(z)}, {_fmt(ml_two(MLParams(0.6, 1.6), z))}" for z in zs]
        assert capsys.readouterr().out.splitlines() == want

    def test_negative_axis_value(self, capsys):
        assert main(["ml", "--alpha", "0.5", "--z", "-1"]) == 0
        val = float(capsys.readouterr().out.split(", ")[1])
        assert_allclose(val, 0.4275835761558070, rtol=1e-10)

    def test_bad_parameters_exit_2(self, capsys):
        for argv in (["--alpha", "-3", "--z", "1"], ["--alpha", "0.5"],
                     ["--alpha", "0.5", "--beta", "1e308", "--z", "1"]):
            assert main(["ml", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("hbdiff ml: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_overflowing_value_exits_3(self, capsys):
        assert main(["ml", "--alpha", "0.5", "--z", "1", "--z", "1e300"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite value inf at data row 1, column 1 " in captured.err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestDirectCommand:
    @pytest.mark.parametrize("psi", ["-" * 5000 + "x", "x" + "**x" * 3000])
    def test_too_deeply_nested_profile_exits_2(self, tmp_path, capsys, psi):
        spec = tmp_path / "spec.ini"
        spec.write_text(SPEC.format(out="out", forcing="zero").replace("sin(pi*x) + 0.3*sin(2*pi*x)", psi))
        assert main(["direct", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    def test_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # nx + 1 doubles take 7 PiB, beyond any address space a process gets,
        # so the first allocation fails at once and no memory is touched
        spec = tmp_path / "spec.ini"
        spec.write_text(SPEC.format(out="out", forcing="zero").replace("nx = 16", "nx = 1000000000000000"))
        assert main(["direct", str(spec)]) == 2
        assert "Unable to allocate" in capsys.readouterr().err

    def test_clock_that_underflows_exits_2(self, tmp_path, capsys):
        # at theta = -10, T**rho = 1e-330 underflows to 0, so every node but
        # the last would sit at t = 0
        spec = tmp_path / "spec.ini"
        spec.write_text(SPEC.format(out="out", forcing="zero")
                        .replace("theta = 0.3", "theta = -10").replace("T = 1.0", "T = 1e-30"))
        assert main(["direct", str(spec)]) == 2
        assert "increase strictly from 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_outputs_exist_and_layout(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["direct", spec]) == 0
        out = tmp_path / "out"
        for name in ("u_grid.csv", "mode_traces.csv", "diagnostics.jsonl"):
            assert (out / name).is_file()
        xgrid, tgrid, vals = read_grid_csv(out / "u_grid.csv")
        assert xgrid.size == 17 and tgrid.size == 9
        assert tgrid[0] == 0.0 and tgrid[-1] == 1.0
        assert_array_equal(vals[:, 0], np.zeros(9))
        assert_array_equal(vals[:, -1], np.zeros(9))

    def test_grid_matches_library_to_machine(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["direct", spec]) == 0
        _, _, vals = read_grid_csv(tmp_path / "out" / "u_grid.csv")
        fp = FracParams(0.6, 0.3)
        x = np.linspace(0.0, 1.0, 17)
        psi = SampledFunction(x, np.sin(np.pi * x) + 0.3 * np.sin(2 * np.pi * x))
        want = solve_direct(
            DirectProblemSpec(fp, psi, None, horizon=1.0, modes=4, nx=16, nt=8)
        ).values
        assert_allclose(vals, want, rtol=0.0, atol=1e-15)

    def test_reruns_are_byte_identical(self, tmp_path):
        spec_a = write_spec(tmp_path, name="a.ini", out="out_a", forcing="x*(1-x)*(1+t)")
        spec_b = write_spec(tmp_path, name="b.ini", out="out_b", forcing="x*(1-x)*(1+t)")
        assert main(["direct", spec_a]) == 0
        assert main(["direct", spec_b]) == 0
        for name in ("u_grid.csv", "mode_traces.csv", "diagnostics.jsonl"):
            ba = (tmp_path / "out_a" / name).read_bytes()
            bb = (tmp_path / "out_b" / name).read_bytes()
            assert ba == bb

    def test_subprocess_runs_are_byte_identical(self, tmp_path):
        # determinism must hold across interpreter processes, not just calls
        spec = write_spec(tmp_path)
        cmd = [sys.executable, "-m", "hbdiff.cli", "direct", spec]
        assert subprocess.run(cmd, capture_output=True).returncode == 0
        first = (tmp_path / "out" / "u_grid.csv").read_bytes()
        assert subprocess.run(cmd, capture_output=True).returncode == 0
        assert (tmp_path / "out" / "u_grid.csv").read_bytes() == first

    def test_zero_initial_data_writes_zero_field(self, tmp_path):
        spec = tmp_path / "zero.ini"
        spec.write_text(
            "[operator]\nalpha = 0.5\ntheta = 0\n"
            "[domain]\nK = 3\nnx = 8\nnt = 4\n"
            "[direct]\npsi = 0\n"
            "[output]\ndir = outz\n"
        )
        assert main(["direct", str(spec)]) == 0
        _, _, vals = read_grid_csv(tmp_path / "outz" / "u_grid.csv")
        assert_array_equal(vals, np.zeros_like(vals))

    def test_steep_clock_grid_solves_like_library(self, tmp_path):
        # theta = -2 stretches the clock to s = t^3 up to 1e12, where
        # make_time_grid's steps differ by up to 5.5e-12 of the step
        spec = tmp_path / "steep.ini"
        spec.write_text(
            "[operator]\nalpha = 0.6\ntheta = -2\n"
            "[domain]\nT = 1e4\nK = 4\nnx = 32\nnt = 4096\n"
            "[direct]\npsi = sin(pi*x)\nforcing = x*(1-x)*(1+t)\n"
            "[output]\ndir = outs\n"
        )
        assert main(["direct", str(spec)]) == 0
        rows = np.loadtxt(tmp_path / "outs" / "mode_traces.csv", delimiter=",", skiprows=1)
        fp = FracParams(0.6, -2.0)
        x = np.linspace(0.0, 1.0, 33)
        t = make_time_grid(1e4, 4096, fp.rho)
        X, T = x[None, :], t[:, None]
        forcing = TensorForcing(x, t, X * (1 - X) * (1 + T))
        psi = SampledFunction(x, np.sin(np.pi * x))
        sol = solve_direct(DirectProblemSpec(fp, psi, forcing, horizon=1e4, modes=4, nx=32, nt=4096))
        assert_array_equal(rows[:, 0], t)
        assert_array_equal(rows[:, 1:], sol.modes.T)

    def test_profile_from_sample_file(self, tmp_path):
        x = np.linspace(0.0, 1.0, 33)
        table = "\n".join(f"{xi},{np.sin(np.pi * xi)}" for xi in x) + "\n"
        (tmp_path / "psi.csv").write_text(table)
        spec = tmp_path / "file.ini"
        spec.write_text(
            "[operator]\nalpha = 0.5\ntheta = 0\n"
            "[domain]\nK = 4\nnx = 32\nnt = 4\n"
            "[direct]\npsi = file:psi.csv\n"
            "[output]\ndir = outf\n"
        )
        assert main(["direct", str(spec)]) == 0
        _, _, vals = read_grid_csv(tmp_path / "outf" / "u_grid.csv")
        assert_allclose(vals[0], np.sin(np.pi * np.linspace(0, 1, 33)), atol=1e-7)

    def test_sample_file_on_half_the_interval_exits_2(self, tmp_path, capsys):
        x = np.linspace(0.0, 0.5, 33)
        table = "\n".join(f"{xi},{np.sin(2 * np.pi * xi)}" for xi in x) + "\n"
        (tmp_path / "half.csv").write_text(table)
        for entries in ("psi = file:half.csv\n", "psi = sin(pi*x)\nforcing = file:half.csv\n"):
            spec = tmp_path / "half.ini"
            spec.write_text(
                "[operator]\nalpha = 0.5\ntheta = 0\n"
                "[domain]\nK = 4\nnx = 32\nnt = 4\n"
                f"[direct]\n{entries}"
                "[output]\ndir = outh\n"
            )
            assert main(["direct", str(spec)]) == 2
            assert "sampled on [0, 1]" in capsys.readouterr().err

    def test_missing_file_and_sections_exit_2(self, tmp_path, capsys):
        assert main(["direct", str(tmp_path / "nope.ini")]) == 2
        bad = tmp_path / "bad.ini"
        bad.write_text("[domain]\nK = 4\n")
        assert main(["direct", str(bad)]) == 2
        bad.write_text("[operator]\nalpha = 0.5\n[direct]\npsi = import os\n")
        assert main(["direct", str(bad)]) == 2
        bad.write_text("[operator]\nalpha = 0.5\n[direct]\npsi = sin(pi*t)\n")
        assert main(["direct", str(bad)]) == 2  # profiles may not involve t

    def test_overflowing_constants_exit_2(self, tmp_path):
        # float arithmetic overflows at once where big integers would grow
        for psi in ("x*(1-x)*2**2**24", "x*(1-x)*9**9**9"):
            spec = tmp_path / "ovf.ini"
            spec.write_text(
                SPEC.format(out="o", forcing="zero").replace(
                    "psi = sin(pi*x) + 0.3*sin(2*pi*x)", f"psi = {psi}"
                )
            )
            cmd = [sys.executable, "-m", "hbdiff.cli", "direct", str(spec)]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
            assert run.returncode == 2, (psi, run.stderr)
            assert "overflows" in run.stderr

    def test_boundary_violating_profile_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bv.ini"
        bad.write_text(
            "[operator]\nalpha = 0.5\ntheta = 0\n"
            "[domain]\nK = 3\nnx = 8\nnt = 4\n"
            "[direct]\npsi = 1 + x\n"
            "[output]\ndir = o\n"
        )
        assert main(["direct", str(bad)]) == 2
        assert "vanish" in capsys.readouterr().err


@pytest.mark.parametrize("command, old, new", [
    ("direct", "psi = sin(pi*x) + 0.3*sin(2*pi*x)", "psi = sin(pi*x)/x"),
    ("direct", "forcing = zero", "forcing = x*(1-x)/t"),
    ("inverse", "phi = 0.5*sin(pi*x)", "phi = x*(1-x)/x"),
])
def test_non_finite_expression_prints_one_line(tmp_path, capsys, command, old, new):
    spec = tmp_path / "spec.ini"
    spec.write_text(SPEC.format(out="out", forcing="zero").replace(old, new))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert not caught and len(err) == 1 and err[0].startswith(f"hbdiff {command}:")


def test_csv_writer_formats_every_value_like_fmt(tmp_path):
    vals = np.array([-0.0, 3.0, 1e16, 0.1, 1e-300])
    _write_tables(str(tmp_path), [("t.csv", "a,b,c", (vals, np.column_stack([vals[::-1], -vals])))])
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert lines[0] == "a,b,c" and lines[-1] == ""
    assert lines[1:-1] == [",".join(map(_fmt, r)) for r in zip(vals, vals[::-1], -vals)]
    assert [r.split(",")[0] for r in lines[1:-1]] == ["0", "3", "1e+16", "0.1", "1e-300"]


def _oracle_doubles(rng):
    """Doubles of every kind the shortest-digit search can get wrong."""
    bits = rng.integers(0, 0x7FF0000000000000, size=1_000_000, dtype=np.uint64)  # finite
    bits[::2] |= np.uint64(1 << 63)
    ks, es = rng.integers(1, 10**6, 20_000).tolist(), rng.integers(-330, 303, 20_000).tolist()
    short = np.array([float(f"{k}e{e}") for k, e in zip(ks, es)])
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    edges = [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16 - 2, 1e16, 0.0]
    # whole numbers: any below 2^53, even ones in [2^53, 1e16), and the ends
    # of every digit count
    whole = np.concatenate([rng.integers(0, 2**53, 40_000), 2 * rng.integers(2**52, 5 * 10**15, 40_000)])
    ends = [float(10**k - j) for k in range(17) for j in (0, 1, 2)]
    vals = np.concatenate([short, powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), edges,
                           whole.astype(float), ends])
    vals = vals[np.isfinite(vals)]
    return np.concatenate([bits.view(np.float64), vals, -vals])


def test_csv_writer_formats_any_double_like_fmt(tmp_path, monkeypatch):
    # random bit patterns (subnormals included), short decimals over the whole
    # exponent range, every power of two and of ten with both neighbours, the
    # whole-number edges and whole numbers of every digit count, both signs,
    # formatted by two forked writers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    vals = _oracle_doubles(np.random.default_rng(18))
    vals = np.concatenate([vals, np.zeros(-vals.size % 100)]).reshape(-1, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _write_tables(str(tmp_path), [("t.csv", "a", (vals,))])
    got = (tmp_path / "t.csv").read_text().split("\n")[1:-1]
    want = [",".join(map(_fmt, row)) for row in vals.tolist()]
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:1]
    no_child_left()


# the repr boundaries: 1e16 and the two sides of the switch to exponent form
_ADVERSARIAL = [-0.0, 0.0, 1.0, -1.0, 7.0, -12.0, 9999999999999998.0, 1e16, 1e20,
                5e-324, 1e-4, 9.999999999999999e-05, 0.1]


def _no_fork():
    raise OSError("fork refused")


def _pool(tmp_path, rows=(100_000, 3, 1)):
    """(name, header, columns) tables of one writer pass, and their paths."""
    tables = [(f"t{i}.csv", "a", (np.arange(float(r)),)) for i, r in enumerate(rows)]
    return tables, [tmp_path / name for name, _, _ in tables]


@pytest.mark.parametrize("blocks, fork_fails", [(1, False), (2, False), (3, False), (3, True)])
def test_csv_writer_is_byte_identical_for_any_block_count(tmp_path, monkeypatch, blocks, fork_fails):
    rng = np.random.default_rng(blocks)
    forks, fork = [], _no_fork if fork_fails else os.fork  # refused: the parent formats every block

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    vals = np.array(_ADVERSARIAL + [-v for v in _ADVERSARIAL])
    # 20_003 rows: no block count divides them; 7 rows: uneven blocks; 1 row: empty blocks
    tables = [rng.choice(vals, size=(rows, cols)) for rows, cols in ((20_003, 4), (7, 3), (1, 2))]
    tables[0][::5] = rng.standard_normal((4001, 4)) * 10.0 ** rng.integers(-20, 20, (4001, 4))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(blocks)))
    assert cli._block_count(sum(t.size for t in tables)) == blocks
    headers = ["a,b,c,d", "e,f,g", "h,i"]
    _write_tables(str(tmp_path), [(f"t{i}.csv", h, (t,)) for i, (h, t) in enumerate(zip(headers, tables))])
    for i, (header, table) in enumerate(zip(headers, tables)):
        want = header + "\n" + "".join(",".join(map(_fmt, r)) + "\n" for r in table.tolist())
        assert (tmp_path / f"t{i}.csv").read_bytes() == want.encode()
    assert len(forks) == blocks - 1  # one writer per block after the first, for all tables
    no_child_left()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_writer_rejects_non_finite_values_before_writing(tmp_path, bad):
    table = np.zeros((50_000, 2))
    table[31_234, 1] = bad
    tables, paths = _pool(tmp_path)
    tables.append(("t.csv", "a,b", (table,)))  # the last table is checked before any file opens
    with pytest.raises(ArithmeticError, match=rf"t\.csv: non-finite value {bad} at data row 31234, column 1 "):
        _write_tables(str(tmp_path), tables)
    assert not any(p.exists() for p in paths + [tmp_path / "t.csv"])
    no_child_left()


def test_csv_writer_reaps_children_when_the_open_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    tables, paths = _pool(tmp_path)
    paths[1].mkdir()  # the second file cannot be opened
    with pytest.raises(OSError):
        _write_tables(str(tmp_path), tables)
    assert not paths[0].exists() and not paths[2].exists()
    no_child_left()


def test_csv_writer_fails_when_a_child_fails(tmp_path, monkeypatch):
    parent, block = os.getpid(), cli._csv_block

    def child_fails(table):
        if os.getpid() != parent:
            raise MemoryError
        return block(table)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "_csv_block", child_fails)
    tables, paths = _pool(tmp_path)
    with pytest.raises(RuntimeError, match="exited with status 1"):
        _write_tables(str(tmp_path), tables)
    assert not any(p.exists() for p in paths)
    no_child_left()


@pytest.mark.parametrize("slow", ["parent", "first child"])
def test_csv_writer_appends_blocks_in_turn(tmp_path, monkeypatch, slow):
    # the slow process finishes formatting last: with the parent slowed both
    # children wait for their turns, with the first child slowed the second
    # waits for the first
    parent, block, fork, forks, slept = os.getpid(), cli._csv_block, os.fork, [], []

    def counted():
        forks.append(1)
        return fork()

    def slowed(table):
        who = "parent" if os.getpid() == parent else "first child" if len(forks) == 1 else "other"
        if who == slow and not slept:
            slept.append(1)
            time.sleep(0.2)
        return block(table)

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(cli, "_csv_block", slowed)
    tables, paths = _pool(tmp_path)
    _write_tables(str(tmp_path), tables)
    assert len(forks) == 2
    for (_, header, (column,)), path in zip(tables, paths):
        same = path.read_text() == header + "\n" + "".join(_fmt(v) + "\n" for v in column.tolist())
        assert same, path.name
    no_child_left()


def test_csv_writer_fails_when_a_child_cannot_append(tmp_path, monkeypatch):
    parent = os.getpid()

    def no_append(path, mode="r", *args, **kwargs):
        if mode == "ab" and os.getpid() != parent:
            raise OSError("append refused")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(cli, "open", no_append, raising=False)
    tables, paths = _pool(tmp_path)
    with pytest.raises(RuntimeError, match="exited with status 1"):
        _write_tables(str(tmp_path), tables)
    assert not any(p.exists() for p in paths)
    no_child_left()


def test_non_finite_solution_exits_3_without_a_partial_file(tmp_path, monkeypatch, capsys):
    def spoiled(spec):
        sol = solve_direct(spec)
        sol.values[3, 2] = np.nan
        return sol

    monkeypatch.setattr(cli, "solve_direct", spoiled)
    assert main(["direct", write_spec(tmp_path)]) == 3
    assert "u_grid.csv: non-finite value nan at data row 3, column 3 " in capsys.readouterr().err
    assert not (tmp_path / "out" / "u_grid.csv").exists()


def test_non_finite_mode_trace_exits_3_before_any_table_is_written(tmp_path, monkeypatch, capsys):
    def spoiled(spec):
        sol = solve_direct(spec)
        sol.modes[1, 5] = np.nan
        return sol

    monkeypatch.setattr(cli, "solve_direct", spoiled)
    assert main(["direct", write_spec(tmp_path)]) == 3
    assert "mode_traces.csv: non-finite value nan at data row 5, column 2 " in capsys.readouterr().err
    assert not (tmp_path / "out" / "u_grid.csv").exists()
    assert not (tmp_path / "out" / "mode_traces.csv").exists()


def test_time_independent_forcing_is_parsed_once(monkeypatch):
    texts, init = [], Expression.__init__

    def counting(self, text):
        texts.append(text)
        init(self, text)

    monkeypatch.setattr(Expression, "__init__", counting)
    x = np.linspace(0.0, 1.0, 9)
    forcing = _forcing("x*(1-x)", x, np.linspace(0.0, 1.0, 5), ".")
    assert isinstance(forcing, SeparableForcing) and texts == ["x*(1-x)"]
    assert_array_equal(forcing.space.values, x * (1 - x))


class TestInverseCommand:
    def test_outputs_and_mode_table(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["inverse", spec]) == 0
        out = tmp_path / "out"
        for name in ("u_grid.csv", "source.csv", "mode_table.csv", "diagnostics.jsonl"):
            assert (out / name).is_file()
        rows = (out / "mode_table.csv").read_text().splitlines()
        assert rows[0] == "k,psi,phi,transient,source"
        assert len(rows) == 5
        k1 = rows[1].split(",")
        # psi_1 = 1, phi_1 = 1/2 for the pure first-mode profiles
        assert_allclose(float(k1[1]), 1.0, atol=1e-13)
        assert_allclose(float(k1[2]), 0.5, atol=1e-13)

    def test_matching_profiles_give_zero_transient(self, tmp_path):
        spec = tmp_path / "eq.ini"
        spec.write_text(
            "[operator]\nalpha = 0.6\ntheta = 0.3\n"
            "[domain]\nT = 1\nK = 6\nnx = 32\nnt = 8\n"
            "[inverse]\npsi = x*(1-x)\nphi = x*(1-x)\n"
            "[output]\ndir = out\n"
        )
        assert main(["inverse", str(spec)]) == 0
        rows = (tmp_path / "out" / "mode_table.csv").read_text().splitlines()[1:]
        transients = np.array([float(r.split(",")[3]) for r in rows])
        assert_array_equal(transients, np.zeros(6))

    def test_source_csv_matches_series(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["inverse", spec]) == 0
        rows = np.loadtxt(tmp_path / "out" / "source.csv", delimiter=",", skiprows=1)
        coeff_rows = (tmp_path / "out" / "mode_table.csv").read_text().splitlines()[1:]
        f_c = np.array([float(r.split(",")[4]) for r in coeff_rows])
        x = rows[:, 0]
        k = np.arange(1, f_c.size + 1)
        assert_allclose(rows[:, 1], f_c @ np.sin(np.outer(k, np.pi * x)), atol=1e-13)

    def test_mode_table_prints_carried_profile_coefficients(self, tmp_path):
        spec = write_spec(tmp_path)
        assert main(["inverse", spec]) == 0
        table = np.loadtxt(tmp_path / "out" / "mode_table.csv", delimiter=",", skiprows=1)
        x = np.linspace(0.0, 1.0, 17)
        psi = SampledFunction(x, np.sin(np.pi * x))
        phi = SampledFunction(x, 0.5 * np.sin(np.pi * x))
        res = solve_inverse(InverseProblemSpec(FracParams(0.6, 0.3), psi, phi, 1.0, 4, 16, 8))
        want = [sine_analyze(psi, 4).coeffs, sine_analyze(phi, 4).coeffs]
        assert_array_equal(res.profile_coeffs, want)
        assert_array_equal(table[:, 1:3], res.profile_coeffs.T)

    def test_horizon_override_in_inverse_section(self, tmp_path):
        spec = write_spec(tmp_path, extra="\n")
        with open(spec, "a") as fh:
            fh.write("")
        text = open(spec).read().replace("phi = 0.5*sin(pi*x)", "phi = 0.5*sin(pi*x)\nT = 2.0")
        open(spec, "w").write(text)
        assert main(["inverse", spec]) == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.jsonl").read_text())
        assert diag["horizon"] == 2.0

    def test_ill_posed_horizon_exits_3_naming_mode(self, tmp_path, capsys):
        spec = tmp_path / "tiny.ini"
        spec.write_text(
            "[operator]\nalpha = 0.6\ntheta = 0.3\n"
            "[domain]\nK = 4\nnx = 16\nnt = 4\n"
            "[inverse]\npsi = sin(pi*x)\nphi = 0.5*sin(pi*x)\nT = 1e-30\n"
            "[output]\ndir = out\n"
        )
        assert main(["inverse", str(spec)]) == 3
        err = capsys.readouterr().err
        assert "mode k=1" in err and "margin" in err

    def test_reruns_are_byte_identical(self, tmp_path):
        spec_a = write_spec(tmp_path, name="a.ini", out="oa")
        spec_b = write_spec(tmp_path, name="b.ini", out="ob")
        assert main(["inverse", spec_a]) == 0
        assert main(["inverse", spec_b]) == 0
        for name in ("u_grid.csv", "source.csv", "mode_table.csv"):
            assert (tmp_path / "oa" / name).read_bytes() == (tmp_path / "ob" / name).read_bytes()


class TestDefaultsAndEnv:
    def test_env_overrides_default_mode_count(self, tmp_path, monkeypatch):
        spec = tmp_path / "env.ini"
        spec.write_text(
            "[operator]\nalpha = 0.6\ntheta = 0.3\n"
            "[domain]\nnx = 32\nnt = 4\n"
            "[inverse]\npsi = sin(pi*x)\nphi = 0.5*sin(pi*x)\n"
            "[output]\ndir = out\n"
        )
        monkeypatch.setenv("HB_DEFAULT_MODES", "5")
        assert main(["inverse", str(spec)]) == 0
        rows = (tmp_path / "out" / "mode_table.csv").read_text().splitlines()
        assert len(rows) == 6

    def test_bad_env_value_exits_2(self, tmp_path, monkeypatch, capsys):
        spec = write_spec(tmp_path)
        monkeypatch.setenv("HB_DEFAULT_MODES", "many")
        # spec sets K = 4 explicitly, so the env var is never consulted
        assert main(["direct", spec]) == 0
        nok = tmp_path / "nok.ini"
        nok.write_text(
            "[operator]\nalpha = 0.5\ntheta = 0\n"
            "[domain]\nnx = 128\nnt = 4\n"
            "[direct]\npsi = sin(pi*x)\n"
            "[output]\ndir = out2\n"
        )
        assert main(["direct", str(nok)]) == 2
        assert "HB_DEFAULT_MODES" in capsys.readouterr().err

    def test_unsupported_output_format_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, extra="format = parquet\n")
        assert main(["direct", spec]) == 2


class TestVerifyCommand:
    def test_json_lines_and_exit_0(self, capsys):
        assert main(["verify", "reduction-theta-zero"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) >= 1
        for line in lines:
            rec = json.loads(line)
            assert rec["passed"] is True
            assert rec["check"] == "reduction-theta-zero"
            assert set(rec) == {"check", "grids", "max_error", "l2_error", "tol", "rate", "passed"}

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "nope"]) == 2
        err = capsys.readouterr().err
        assert "choose from" in err
        assert err.startswith("hbdiff verify: ") and err.count("\n") == 1 and err.endswith("\n")
