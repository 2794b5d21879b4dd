import json
import operator
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import GridFunction, make_grid
from nlsground import cli
from nlsground.cli import (
    EXIT_HYPOTHESIS_FAIL,
    EXIT_NONCONFORMANCE,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT_FAIL,
    dump_config,
    main,
    parse_config_file,
)
from nlsground.expressions import ExpressionError, compile_expression
from nlsground.nonlinearity import power
from nlsground.optimizer import DiagnosticError, SolveOptions


def _env_with_src(**extra):
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _strict_json(path):
    """The JSON file at path, parsed with NaN and Infinity refused."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def _run_ascii(cwd, *args):
    """Run this interpreter on args in cwd under the C locale, with neither
    UTF-8 mode nor locale coercion."""
    env = _env_with_src(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          timeout=120)


SOLVE_CFG = "problem.builtin = pure_power\nproblem.param.p = 8\nproblem.dim = 1\nsolve.mass = 1\n"
# config files whose values are not numbers where the commands need them,
# or that name a key the commands do not read
BAD_CONFIGS = {
    "dim.cfg": "problem.builtin = pure_power\nproblem.param.p = 8\nproblem.dim = abc\n",
    "points.cfg": SOLVE_CFG + "grid.points = abc\n",
    "max_iters.cfg": SOLVE_CFG + "solve.max_iters = 1e3\n",
    "grad_tol.cfg": SOLVE_CFG + "solve.grad_tol = small\n",
    "pde_tol.cfg": SOLVE_CFG + "solve.pde_tol = 1e-3\n",
}


# t values whose powers by the literals below are subnormal (where
# nonlinearity.power flushes to +0.0 and np.power does not), overflow, 0,
# inf and nan
_EDGE_T = np.array([0.0, -1.5, 0.7, np.nan, 1e-310, -1e-258, 1e-207, -1e-155, 1e-104,
                    1e-80, -1e-62, 2e-40, 1e-31, -0.0, 3.0, 1e10, 1e200, -np.inf])
_LITERALS = ["0", "1", "2", "3", "4", "05", "0.5", ".25", "1.5", "2.", "1e1", "4E-1",
             "8", "1.2", "1e999", "6e-1"]
_SPACE = st.sampled_from(["", "", " ", "\t", "\n "])
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
              "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_FUNCTIONS = {"abs": np.abs, "ln": np.log, "exp": lambda x: np.exp(np.minimum(x, 700.0))}
# an expression is (text, numpy reference of t, its value if a number else None)
_LEAVES = st.one_of(
    st.just(("t", lambda t: t, None)),
    st.sampled_from(_LITERALS).map(lambda s: (s, lambda t: np.full_like(t, float(s)), float(s))))


def _apply(fn, *args):
    return lambda t: fn(*(a(t) for a in args))


def _operator(ops):
    return st.builds(lambda a, op, b: a + op + b, _SPACE, st.sampled_from(ops), _SPACE)


def _chain(first, rest):
    """first op b op c ..., grouped from the left."""
    text, ref, num = first
    for op, (text_b, ref_b, _) in rest:
        text, ref, num = text + op + text_b, _apply(_OPERATORS[op.strip()], ref, ref_b), None
    return text, ref, num


def _power(base, exponent):
    """base ^ exponent, exponent a factor, so a^b^c is a^(b^c); a number
    exponent goes through nonlinearity.power."""
    if exponent is None:
        return base
    (text_a, a, _), (space, (text_b, b, p)) = base, exponent
    fn = np.power if p is None else (lambda x, y: power(x, p, exponent=y))
    return f"{text_a}{space}^{space}{text_b}", _apply(fn, a, b), None


def _sums(atom):
    """Sums of terms of factors over atom, with no parentheses of their own:
    a factor is a minus or a power, a power is an atom with an optional ^
    factor, and a factor nests at most three minus signs and ^."""
    factor = atom
    for _ in range(3):
        factor = st.one_of(
            st.builds(_power, atom, st.one_of(st.none(), st.tuples(_SPACE, _LEAVES),
                                              st.tuples(_SPACE, factor))),
            factor.map(lambda a: ("-" + a[0], _apply(operator.neg, a[1]), None)))
    term = st.builds(_chain, factor, st.lists(st.tuples(_operator("*/"), factor), max_size=2))
    return st.builds(_chain, term, st.lists(st.tuples(_operator("+-"), term), max_size=2))


def _expressions(depth):
    """Random expressions drawn level by level from the grammar, so every
    grouping but an atom's parentheses rests on precedence and
    associativity; an atom is t, a number or, ``depth`` levels deep, a
    parenthesized sum, a call or a piecewise."""
    atom = _LEAVES
    for _ in range(depth):
        inner = _sums(atom)
        atom = st.one_of(
            _LEAVES,
            inner.map(lambda a: (f"({a[0]})", a[1], a[2])),
            st.builds(lambda name, a: (f"{name}({a[0]})", _apply(_FUNCTIONS[name], a[1]), None),
                      st.sampled_from(sorted(_FUNCTIONS)), inner),
            st.builds(lambda op, a, b, c, d: (
                f"piecewise({a[0]}{op}{b[0]}, {c[0]}, {d[0]})",
                _apply(np.where, _apply(_OPERATORS[op.strip()], a[1], b[1]), c[1], d[1]), None),
                _operator(["<", "<=", ">", ">="]), inner, inner, inner, inner),
        )
    return _sums(atom)


class TestExpressions:
    def test_arithmetic_and_precedence(self):
        f = compile_expression("1 + 2*3 - 4/2")
        assert float(f(0.0)) == pytest.approx(5.0)

    def test_power_right_associative(self):
        f = compile_expression("2^3^2")
        assert float(f(0.0)) == pytest.approx(512.0)

    def test_variable_and_functions(self):
        f = compile_expression("abs(t)^2 * t + ln(exp(t))")
        for t in (-2.0, 0.5, 3.0):
            assert float(f(t)) == pytest.approx(abs(t) ** 2 * t + t)

    def test_unary_minus(self):
        f = compile_expression("-t^2")
        assert float(f(3.0)) == pytest.approx(-9.0)

    def test_piecewise(self):
        f = compile_expression("piecewise(abs(t) <= 1, t^3, t)")
        assert float(f(0.5)) == pytest.approx(0.125)
        assert float(f(2.0)) == pytest.approx(2.0)

    def test_vectorized(self):
        f = compile_expression("t^2 + 1")
        out = f(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [2.0, 5.0, 10.0])

    def test_malformed(self):
        for bad in ("abs(t", "t +", "2 ** 3", "foo(t)", "piecewise(t, 1, 2)",
                    "1_000", "0x5", "t**2", "+t", "exp(t,)", "t,", "True", "inf",
                    "t if t else t", "piecewise(0 < t < 1, t, 1)",
                    "piecewise(t == 1, t, 1)", "(abs)(t)", "t(t)", "t < 1", "", "t # 1"):
            with pytest.raises(ExpressionError):
                compile_expression(bad)

    def test_accepted_edge_cases(self):
        t = np.array([-2.0, -0.5, 0.0, 0.75, 3.0])
        assert np.array_equal(compile_expression("05")(t), np.full(5, 5.0))
        assert np.array_equal(compile_expression("1e999")(t), np.full(5, np.inf))
        assert np.array_equal(compile_expression("\tabs(t)\n*\n2 ")(t), 2.0 * np.abs(t))
        eighth = compile_expression("abs(t)^8")(t)
        assert compile_expression("abs(t)^(8)")(t).tobytes() == eighth.tobytes()
        # a literal exponent goes through nonlinearity.power, which flushes
        # subnormal results to +0.0; a computed one through np.power
        tiny = np.array([1e-80])
        assert compile_expression("t^4")(tiny)[0] == 0.0
        assert compile_expression("t^(2*2)")(tiny)[0] == np.power(1e-80, 4.0) > 0.0

    @pytest.mark.parametrize("text, quoted", [
        ("abs(t", "unexpected end at column 6 of 'abs(t'"),
        ("t ^ ^ 2", "unexpected '^' at column 5 of 't ^ ^ 2'"),
        ("t**2", "unexpected '*' at column 3 of 't**2'"),
        ("2*foo(t)", "unknown name 'foo' at column 3"),
        ("piecewise(t == 1, t, 1)", "not 't == 1' at column 11"),
        ("exp(t, t)", "exp takes 1 argument, not 'exp(t, t)'"),
        ("1 + t,", "unexpected '1 + t,' at column 1"),
    ])
    def test_error_quotes_user_text(self, text, quoted):
        # errors name the user's own token, never the Python source it is read as
        with pytest.raises(ExpressionError) as err:
            compile_expression(text)
        assert quoted in str(err.value)
        assert "**" not in str(err.value).replace(text, "")

    @settings(max_examples=300, deadline=None)
    @given(tree=st.one_of(_expressions(0), _expressions(1)), values=st.lists(
        st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=6))
    def test_matches_numpy_reference(self, tree, values):
        # the text relies on precedence and associativity for its grouping;
        # the reference applies numpy to the intended tree, so a misread
        # precedence, -t^2, right-associative ^ or a missed literal-exponent
        # path (pow results below 2^-1022 flushed to +0.0) changes bits
        text, reference, _ = tree
        f = compile_expression(text)
        with np.errstate(all="ignore"):
            for t in (_EDGE_T, np.array(values), *_EDGE_T[:4], np.float64(values[0])):
                got, want = f(t), reference(np.asarray(t, dtype=float))
                assert type(got) is type(want), text
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), text


class TestConfigRoundtrip:
    def test_lossless(self, tmp_path):
        cfg = {
            "problem.dim": "2",
            "problem.builtin": "log_supercritical",
            "grid.radius": "40.0",
            "solve.mass": "1.0",
        }
        path = tmp_path / "run.cfg"
        path.write_text(dump_config(cfg))
        assert parse_config_file(path) == cfg

    def test_comments_and_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nproblem.dim = 3  # trailing\n")
        assert parse_config_file(path) == {"problem.dim": "3"}
        path.write_text("no equals sign here\n")
        from nlsground.cli import UsageError

        with pytest.raises(UsageError):
            parse_config_file(path)

    def test_non_ascii_expression_roundtrip(self, tmp_path):
        # resolved.cfg is written as UTF-8 and --config reads it back as UTF-8;
        # ٦ is an Arabic-Indic six, a digit to the expression language
        argv = ["check", "--dim", "1", "--f-expr", "abs(t)^٦ * t", "--F-expr", "abs(t)^8 / 8"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert "problem.f_expr = abs(t)^٦ * t\n".encode() in (a / "resolved.cfg").read_bytes()
        assert main(["check", "--config", str(a / "resolved.cfg"), "--out", str(b)]) == EXIT_OK
        assert (a / "conditions.json").read_bytes() == (b / "conditions.json").read_bytes()
        assert parse_config_file(b / "resolved.cfg") == {
            **parse_config_file(a / "resolved.cfg"), "output.dir": str(b)}

    def test_ascii_locale(self, tmp_path):
        # under the C locale with neither UTF-8 mode nor locale coercion, a
        # UTF-8 config is read as UTF-8, a config that is not UTF-8 is a
        # usage error naming its line, and the sweep's sparkline prints as
        # escapes: no traceback from locale-dependent I/O
        env = _env_with_src(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "nlsground.cli", *argv],
                                  cwd=tmp_path, env=env, capture_output=True,
                                  encoding="utf-8", timeout=120)

        (tmp_path / "user.cfg").write_bytes(
            "problem.dim = 1\nproblem.f_expr = abs(t)^٦ * t\n"
            "problem.F_expr = abs(t)^8 / 8\n".encode())
        done = run("check", "--config", "user.cfg", "--out", "a")
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert "abs(t)^٦ * t".encode() in (tmp_path / "a" / "resolved.cfg").read_bytes()
        (tmp_path / "latin1.cfg").write_bytes(b"problem.dim = 1\n# ok\nproblem.f_expr = t\xb2\n")
        done = run("check", "--config", "latin1.cfg", "--out", "b")
        assert (done.returncode, done.stderr) == (
            EXIT_USAGE, "error: latin1.cfg:3: not UTF-8 text (invalid start byte)\n")
        done = run("sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
                   "--masses", "1,2", "--radius", "30", "--points", "401", "--stretch", "60",
                   "--out", "c")
        assert done.returncode == EXIT_OK
        assert done.stdout.splitlines()[0] == "E_m: \\u2588_"

    def test_non_ascii_out_dir_under_ascii_locale(self, tmp_path):
        # an --out argument that the C locale cannot decode is created under
        # its own bytes, and resolved.cfg writes those bytes back; a name
        # from a UTF-8 config that the file-system encoding cannot encode
        # is a usage error naming that encoding
        check = ["-m", "nlsground.cli", "check", "--builtin", "log_supercritical", "--dim", "3"]
        done = _run_ascii(tmp_path, *check, "--out", "é")
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert "output.dir = é\n".encode() in (tmp_path / "é" / "resolved.cfg").read_bytes()
        done = _run_ascii(tmp_path, *check[:3], "--config", "é/resolved.cfg", "--out", "b")
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        (tmp_path / "rés.cfg").write_bytes(
            "problem.builtin = log_supercritical\nproblem.dim = 3\noutput.dir = rés\n".encode())
        done = _run_ascii(tmp_path, *check[:3], "--config", "rés.cfg")
        assert (done.returncode, done.stderr) == (EXIT_USAGE, b"error: output directory "
                                                  b"'r\\xe9s' has no name in the file-system "
                                                  b"encoding ascii\n")

    def test_unencodable_diagnostic_dump_dir_is_usage(self, tmp_path):
        # the diagnostic iterate's directory goes through the same check
        dump = ("import sys, numpy as np; from nlsground import cli, GridFunction, make_grid; "
                "from nlsground.optimizer import DiagnosticError\n"
                "def fail(*a, **k):\n"
                "    g = make_grid(1, 30.0, 101)\n"
                "    raise DiagnosticError('non-finite J', GridFunction(g, np.exp(-g.nodes)))\n"
                "cli.multistart_minimize = fail\n"
                "sys.exit(cli.main(['solve', '--config', 'solve.cfg']))")
        (tmp_path / "solve.cfg").write_bytes(f"{SOLVE_CFG}output.dir = rés\n".encode())
        done = _run_ascii(tmp_path, "-c", dump)
        assert done.returncode == EXIT_USAGE
        assert done.stderr.decode().splitlines() == [
            "diagnostic failure: non-finite J",
            "error: output directory 'r\\xe9s' has no name in the file-system encoding ascii"]


class TestCheckCommand:
    def test_log_supercritical_dim3_passes(self, tmp_path):
        code = main(["check", "--builtin", "log_supercritical", "--dim", "3",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "conditions.json").read_text())
        assert report["hypotheses"]["f5"]["verdict"] == "pass"
        assert (tmp_path / "resolved.cfg").exists()

    def test_critical_piecewise_dim5_fails_f5(self, tmp_path):
        code = main(["check", "--builtin", "critical_piecewise", "--dim", "5",
                     "--out", str(tmp_path)])
        assert code == EXIT_HYPOTHESIS_FAIL
        report = json.loads((tmp_path / "conditions.json").read_text())
        assert report["hypotheses"]["f5"]["verdict"] == "fail"

    def test_infinite_witness_is_null(self, tmp_path):
        # F = ln|t| is -inf at 0: its witnesses hold a value JSON cannot
        code = main(["check", "--dim", "3", "--f-expr", "1/t", "--F-expr", "ln(abs(t))",
                     "--out", str(tmp_path)])
        assert code == EXIT_HYPOTHESIS_FAIL
        report = _strict_json(tmp_path / "conditions.json")
        assert None in [w["value"] for e in report["hypotheses"].values()
                        for w in e["witnesses"]]

    def test_out_under_a_regular_file_is_usage(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / "afile" / "x")
        code = main(["check", "--builtin", "log_supercritical", "--dim", "3", "--out", out])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot create output directory {out!r}: Not a directory\n")

    def test_malformed_expression_usage_error(self, tmp_path):
        code = main(["check", "--dim", "1", "--f-expr", "abs(t", "--F-expr", "t",
                     "--out", str(tmp_path)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("f_expr, code", [
        ("(" * 200 + "t" + ")" * 200 + " * abs(t)^6", EXIT_OK),
        ("0 + " * 200 + "abs(t)^6 * t", EXIT_OK),  # 201 terms: leftmost 0 at depth 200
        ("(" * 201 + "t" + ")" * 201 + " * abs(t)^6", EXIT_USAGE),
        ("0 + " * 201 + "abs(t)^6 * t", EXIT_USAGE),
        (" + ".join(["abs(t)^6 * t / 3000"] * 3000), EXIT_USAGE),
    ])
    def test_nesting_limit(self, tmp_path, capsys, f_expr, code):
        # expressions at the limit compile and evaluate under the whole check;
        # deeper ones are a usage error that states the limit, not a traceback
        assert main(["check", "--dim", "1", "--f-expr", f_expr, "--F-expr", "abs(t)^8 / 8",
                     "--out", str(tmp_path)]) == code
        if code == EXIT_USAGE:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "deeper than 200 levels" in err

    def test_user_expression_nonlinearity(self, tmp_path):
        code = main([
            "check", "--dim", "1",
            "--f-expr", "abs(t)^6 * t",
            "--F-expr", "abs(t)^8 / 8",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK

    def test_missing_subcommand_is_usage(self):
        assert main([]) == EXIT_USAGE

    def test_missing_dim_is_usage(self, tmp_path):
        assert main(["check", "--builtin", "pure_power",
                     "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--masses", "1"],
        ["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--masses", "2,1"],
        ["solve", "--builtin", "nosuch", "--dim", "1", "--mass", "1"],
        ["solve", "--builtin", "pure_power", "--param", "p=3", "--dim", "1",
         "--mass", "1"],
        ["solve", "--builtin", "pure_power", "--param", "p=abc", "--dim", "1",
         "--mass", "1"],
        ["check", "--config", "dim.cfg"],
        ["check", "--config", "missing.cfg"],
        ["solve", "--config", "points.cfg"],
        ["solve", "--config", "max_iters.cfg"],
        ["solve", "--config", "grad_tol.cfg"],
        ["check", "--builtin", "pure_power", "--param", "p=8", "--dim", "0"],
        ["check", "--builtin", "pure_power", "--param", "p=8", "--dim", "-2"],
        ["oracle", "--case", "bubble", "--dim", "0"],
        ["oracle", "--case", "gn", "--dim", "0", "--p", "3"],
        ["solve", "--config", "pde_tol.cfg"],
        ["solve", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--mass", "1", "--max-iters", "0"],
        ["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--masses", "1,2", "--max-iters", "-5"],
        ["solve", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--mass", "1", "--restarts", "0"],
        ["solve", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--mass", "1", "--restarts", "-3"],
        ["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--masses", "1,2", "--cold-restarts", "-1"],
        ["oracle", "--case", "soliton", "--mu", "inf"],
        ["oracle", "--case", "soliton", "--p", "inf"],
        ["oracle", "--case", "bubble", "--dim", "5", "--eps", "inf"],
        # a replica count is a usage error before a failing f is gated
        ["solve", "--dim", "1", "--f-expr", "abs(t)^2 * t", "--F-expr", "abs(t)^4 / 4",
         "--mass", "1", "--restarts", "0"],
        ["sweep", "--dim", "1", "--f-expr", "abs(t)^2 * t", "--F-expr", "abs(t)^4 / 4",
         "--masses", "1,2", "--cold-restarts", "-1"],
        # 0 is a value, not an unset flag
        ["oracle", "--case", "soliton", "--p", "0"],
        ["oracle", "--case", "soliton", "--mu", "0"],
        ["oracle", "--case", "soliton", "--mu", "-0.0"],
        ["check", "--builtin", "f6prime_example", "--dim", "3", "--param", "beta=inf"],
        ["check", "--builtin", "f6prime_example", "--dim", "3", "--param", "beta=1e400"],
        ["solve", "--builtin", "f6prime_example", "--dim", "3", "--param", "beta=inf",
         "--mass", "1"],
        # an infinite tolerance would pass every gradient gate at the start
        ["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--masses", "1,2,3", "--points", "301", "--grad-tol", "inf"],
        ["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--masses", "1,2,3", "--points", "301", "--grad-tol", "1e400"],
    ])
    def test_bad_problem_is_usage(self, tmp_path, capsys, monkeypatch, argv):
        # rejected at the command-line boundary, with a message, not a traceback
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_CONFIGS.items():
            (tmp_path / name).write_text(text)
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(BAD_CONFIGS)

    @pytest.mark.parametrize("mass", ["inf", "nan", "0"])
    def test_mass_must_be_positive_and_finite(self, tmp_path, capsys, mass):
        assert main(["solve", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
                     "--mass", mass, "--out", str(tmp_path)]) == EXIT_USAGE
        assert "mass must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--builtin", "pure_power", "--param", "p=8", "--dim", "1", "--mass", "1",
         "--points", "301", "--seed", "-2"],
        ["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
         "--masses", "1,2", "--points", "301", "--cold-restarts", "2", "--seed", "-5"],
    ], ids=["solve", "sweep"])
    def test_negative_seed_is_usage(self, tmp_path, capsys, argv):
        # replica i seeds its noise with seed + i, which numpy refuses below 0
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: seed must be non-negative, got {argv[-1]}\n"

    @pytest.mark.parametrize("argv, largest", [
        (["--dim", "1", "--param", "p=8", "--radius", "1e308"], "1.3407807929942596e+154"),
        (["--dim", "3", "--param", "p=4.5", "--radius", "1e200"], "5.643803094122361e+102"),
        (["--dim", "1", "--param", "p=8", "--radius", "9e307"], "1.3407807929942596e+154"),
    ], ids=["1e308", "N3-1e200", "9e307"])
    def test_overflowing_radius_is_usage(self, tmp_path, capsys, argv, largest):
        # a radius whose R^max(N, 2) overflows is refused before any grid
        # arithmetic, with no floating-point warning, and the message
        # names the largest radius for that dimension
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--builtin", "pure_power", *argv, "--mass", "1",
                         "--points", "16", "--out", str(tmp_path)])
        assert code == EXIT_USAGE and caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: radius must be at most {largest} in dimension")
        assert err.count("\n") == 1

    def test_bad_config_value_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BAD_CONFIGS["points.cfg"])
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "grid.points = 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["threads", "solve.absify_every", "solve.max_iter"])
    def test_unknown_config_key_is_usage(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem.dim = 3\nproblem.builtin = log_supercritical\n{key} = 2\n")
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCommandKnobs:
    """Each command accepts only the flags and config keys it reads."""

    PROBLEM = ["--builtin", "pure_power", "--param", "p=8", "--dim", "1"]

    @pytest.mark.parametrize("argv", [
        ["check", "--builtin", "log_supercritical", "--dim", "3", "--seed", "5"],
        ["oracle", "--case", "soliton", "--builtin", "nonsense"],
        ["oracle", "--case", "soliton", "--param", "x=1"],
        ["oracle", "--case", "soliton", "--f-expr", "((("],
        ["oracle", "--case", "soliton", "--seed", "3"],
        ["oracle", "--case", "soliton", "--config", "run.cfg"],
        ["oracle", "--case", "soliton", "--dim", "3"],
        ["oracle", "--case", "bubble", "--dim", "5", "--p", "8", "--mu", "2"],
        ["oracle", "--case", "gn", "--dim", "1", "--p", "6", "--eps", "0.5"],
        ["solve", *PROBLEM, "--mass", "1", "--masses", "1,2"],
        ["solve", *PROBLEM, "--mass", "1", "--cold-restarts", "1"],
        ["sweep", *PROBLEM, "--masses", "1,2", "--restarts", "2"],
        # no abbreviations: --mass is not sweep's --masses
        ["sweep", *PROBLEM, "--mass", "1,2"],
    ])
    def test_ignored_flag_is_usage(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [
        ("check", "grid.points = 99"),
        ("check", "solve.mass = -1"),
        ("check", "solve.seed = 5"),
        ("check", "solve.force = true"),
        ("solve", "solve.masses = 1,2"),
        ("solve", "solve.cold_restarts = 1"),
        ("sweep", "solve.mass = 1"),
        ("sweep", "solve.restarts = 2"),
    ])
    def test_ignored_config_key_is_usage(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        own = {"check": "", "solve": "solve.mass = 1\n", "sweep": "solve.masses = 1,2\n"}
        cfg.write_text("problem.builtin = pure_power\nproblem.param.p = 8\n"
                       f"problem.dim = 1\n{own[command]}{line}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        key = line.split(" = ")[0]
        assert f"unknown config keys: {key} ({command} reads " in capsys.readouterr().err
        assert not out.exists()


class TestSolveCommand:
    ARGS = [
        "solve", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
        "--mass", "1.0", "--radius", "30", "--points", "2001",
        "--stretch", "60", "--restarts", "1", "--seed", "7",
    ]

    def test_artifacts_and_exit(self, tmp_path):
        code = main(self.ARGS + ["--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert (tmp_path / "profile.csv").exists()
        assert (tmp_path / "resolved.cfg").exists()
        assert report["mass"] == 1.0
        for rep in [report] + report["replicas"]:
            assert rep["projections"] == 1 + rep["line_search_trials"]
            # every projection makes at least one bracket evaluation
            assert rep["bracket_evaluations"] >= rep["projections"]
            assert isinstance(rep["newton_steps"], int) and rep["newton_steps"] >= 0
        # the polished profile solves the PDE, but the O(h^2) gap between
        # the two stationarity notions on this 2001-node grid exceeds the
        # Pohozaev budget, so it is not certified
        assert code == EXIT_NOT_CONVERGED and not report["converged"]
        assert report["endpoint"] == "polished"
        assert report["pde_residual"] <= 1e-5
        assert report["pohozaev_residual"] >= 1e-4
        assert report["energy"] == pytest.approx(12.16, rel=1e-2)

    def test_descent_stops_at_roundoff(self, tmp_path):
        # TestTermination's log_m1 stall through the command line: J is
        # converged to its last bit by iteration ~12, and the round-off
        # regime's unit steps, judged by the shape gradient, carry the
        # descent to the gradient gate (measured: 13 iterations)
        main(["solve", "--builtin", "log_supercritical", "--dim", "2",
              "--mass", "1.0", "--radius", "400", "--points", "2001",
              "--stretch", "150", "--restarts", "1", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["iterations"] <= 15
        assert report["termination"] == "gradient"
        assert report["termination"] == report["replicas"][0]["termination"]

    def test_determinism_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(self.ARGS + ["--out", str(a)])
        first = {name: (a / name).read_bytes() for name in ("report.json", "profile.csv")}
        main(self.ARGS + ["--out", str(b)])
        main(self.ARGS + ["--out", str(a)])  # a rerun into the populated directory
        for name, data in first.items():
            assert (a / name).read_bytes() == (b / name).read_bytes() == data

        def stripped(path):
            return [ln for ln in path.read_text().splitlines()
                    if not ln.startswith("output.dir")]

        assert stripped(a / "resolved.cfg") == stripped(b / "resolved.cfg")

    def test_diagnostic_iterate_goes_to_out_dir(self, tmp_path, monkeypatch):
        grid = make_grid(1, 30.0, 101)
        iterate = GridFunction(grid, np.exp(-grid.nodes ** 2))

        def failing_solve(*args, **kw):
            raise DiagnosticError("non-finite J", iterate=iterate)

        monkeypatch.setattr(cli, "multistart_minimize", failing_solve)
        cwd, out = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_NONCONFORMANCE
        assert (out / "diagnostic_iterate.csv").exists()
        assert not (cwd / "diagnostic_iterate.csv").exists()

    def test_profile_too_narrow_for_the_grid(self, tmp_path, capsys):
        # on 16 nodes over a radius of 2^512 the gaussian start is one node
        # wide, and its dilation root lies far past the bracket's cap
        code = main(["solve", "--builtin", "pure_power", "--dim", "1", "--param", "p=8",
                     "--mass", "1", "--points", "16", "--radius", "1.3407807929942596e154",
                     "--max-iters", "20", "--out", str(tmp_path)])
        assert code == EXIT_NONCONFORMANCE
        err = capsys.readouterr().err
        assert err.startswith("nonconformance: no Pohozaev sign change")
        assert "grid too coarse" in err

    def test_unset_descent_settings_keep_their_defaults(self):
        assert cli.build_options({}, 2.0) == SolveOptions(mass=2.0)
        cfg = {"solve.max_iters": "9", "solve.grad_tol": "1e-5", "solve.seed": "3",
               "solve.force": "true"}
        assert cli.build_options(cfg, 2.0) == SolveOptions(
            mass=2.0, max_iters=9, grad_tol=1e-5, seed=3)

    def test_missing_mass_usage(self, tmp_path):
        assert main(["solve", "--builtin", "pure_power", "--param", "p=8",
                     "--dim", "1", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem.dim = 1\n"
            "problem.builtin = pure_power\n"
            "problem.param.p = 8\n"
            "grid.radius = 30\n"
            "grid.points = 2001\n"
            "grid.stretch = 60\n"
            "solve.mass = 2.0\n"
            "solve.restarts = 1\n"
        )
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--mass", "1.0",
                     "--out", str(out)])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        resolved = parse_config_file(out / "resolved.cfg")
        assert resolved["solve.mass"] == "1.0"  # flag wins

    def test_resolved_config_round_trips(self, tmp_path):
        # a run's own resolved.cfg is a valid --config that reproduces it
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(self.ARGS + ["--points", "501", "--max-iters", "40",
                                 "--grad-tol", "1e-7", "--force",
                                 "--out", str(first)]) in (EXIT_OK, EXIT_NOT_CONVERGED)
        code = main(["solve", "--config", str(first / "resolved.cfg"),
                     "--out", str(again)])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert (again / "report.json").read_bytes() == (first / "report.json").read_bytes()


class TestSweepCommand:
    ARGS = [
        "sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
        "--masses", "0.6:1.6:4", "--radius", "40", "--points", "1501",
        "--stretch", "60", "--max-iters", "600",
    ]

    def test_verdicts_and_artifacts(self, tmp_path, capsys):
        code = main(self.ARGS + ["--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "m,E,mu,converged"
        assert len(rows) == 5
        verdicts = json.loads((tmp_path / "verdicts.json").read_text())
        assert verdicts["verdicts"]["nonincreasing"]["verdict"]
        assert verdicts["chains"][0] == "cold"
        assert verdicts["warm_starts"][0] is None
        assert set(verdicts["chains"][1:]) <= {"warm", "cold"}
        assert set(verdicts["warm_starts"][1:]) <= {"iterate", "profile"}
        # one progress line per mass point on stderr, the same record as
        # verdicts.json; stdout keeps its two lines
        out, err = capsys.readouterr()
        assert [line.split()[0] for line in out.splitlines()] == ["E_m:", "positive=True"]
        lines = err.splitlines()
        assert len(lines) == 4
        for line, m, chain, start, conv in zip(lines, verdicts["masses"], verdicts["chains"],
                                               verdicts["warm_starts"], verdicts["converged"]):
            fields = dict(item.split("=") for item in line.split())
            assert float(fields["m"]) == pytest.approx(m, rel=1e-5)
            assert fields["chain"] == chain
            assert fields["warm_start"] == str(start)
            assert fields["converged"] == str(conv)
            assert int(fields["iterations"]) > 0
            assert fields["termination"] in {"gradient", "roundoff", "step_collapse",
                                             "budget"}
            assert int(fields["projections"]) > int(fields["iterations"])
            assert int(fields["brackets"]) >= int(fields["projections"])
            assert fields["endpoint"] in {"polished", "materialized", "frame"}
            assert (fields["endpoint"] == "polished") == (int(fields["newton"]) > 0)
        # a rerun into the populated directory writes the same bytes
        first = {name: (tmp_path / name).read_bytes() for name in ("sweep.csv", "verdicts.json")}
        assert main(self.ARGS + ["--out", str(tmp_path)]) == EXIT_OK
        for name, data in first.items():
            assert (tmp_path / name).read_bytes() == data

    def test_nonconforming_spec_exits_nonconformance(self, tmp_path, capsys):
        # the gate runs once before the first point, so a spec that fails
        # it ends the sweep as it ends a solve, not in a traceback
        code = main(["sweep", "--dim", "1", "--f-expr", "abs(t)^2 * t",
                     "--F-expr", "abs(t)^4 / 4", "--masses", "1,2", "--points", "401",
                     "--radius", "20", "--out", str(tmp_path)])
        assert code == EXIT_NONCONFORMANCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("nonconformance: ")
        assert err[0].endswith("pass --force to override")

    def test_too_many_failed_points_exit_nonconformance(self, tmp_path, capsys):
        # at m = 1e-300 the fiber projection finds no root; one failed point
        # of two is more than a quarter, and the sweep ends with one line
        code = main(["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
                     "--masses", "1e-300,1", "--points", "301", "--out", str(tmp_path)])
        assert code == EXIT_NONCONFORMANCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("nonconformance: sweep failed at 1 of 2 points: m=1e-300: "
                                 "no Pohozaev sign change")

    def test_failed_point_is_null(self, tmp_path, capsys):
        # one failed point of five is within the quarter a sweep forgives;
        # its energy and multiplier are NaN, which JSON cannot hold
        code = main(["sweep", "--builtin", "pure_power", "--param", "p=8", "--dim", "1",
                     "--masses", "1e-300,1,2,3,4", "--points", "301", "--out", str(tmp_path)])
        assert code == EXIT_OK
        verdicts = _strict_json(tmp_path / "verdicts.json")
        assert verdicts["energies"][0] is None

    def test_failed_point_on_stderr(self, tmp_path, monkeypatch, capsys):
        from types import SimpleNamespace

        from nlsground.sweep import SweepResult, _verdicts

        masses = np.array([1.0, 2.0, 4.0])
        energies = np.array([2.0, 1.5, np.nan])
        multipliers = np.array([1.0, 1.0, np.nan])
        converged = np.array([True, False, False])
        reports = [SimpleNamespace(converged=True, iterations=12, termination="gradient",
                                   projections=25, bracket_evaluations=90, newton_steps=2,
                                   endpoint="polished"),
                   SimpleNamespace(converged=False, iterations=800, termination="budget",
                                   projections=1700, bracket_evaluations=5100,
                                   newton_steps=0, endpoint="frame"),
                   None]

        def fake_sweep(grid, nl, masses_, opts, cold_restarts=0):
            return SweepResult(
                masses=masses, energies=energies, multipliers=multipliers,
                converged=converged,
                verdicts=_verdicts(masses[:2], energies[:2], multipliers[:2], converged[:2]),
                reports=reports, failures=[{"mass": 4.0, "error": "boom"}],
                chains=["cold", "warm", None], warm_starts=[None, "iterate", "profile"])

        monkeypatch.setattr(cli, "sweep", fake_sweep)
        main(self.ARGS + ["--out", str(tmp_path)])
        out, err = capsys.readouterr()
        # the failed point is a blank in the sparkline, not a traceback
        assert out.splitlines()[0] == "E_m: █_ "
        assert err.splitlines() == [
            "m=1 chain=cold warm_start=None converged=True iterations=12 termination=gradient"
            " projections=25 brackets=90 newton=2 endpoint=polished",
            "m=2 chain=warm warm_start=iterate converged=False iterations=800 termination=budget"
            " projections=1700 brackets=5100 newton=0 endpoint=frame",
            "m=4 chain=None warm_start=profile failed",
        ]

    def test_perturbation_flag_fails_verdict(self, tmp_path, monkeypatch):
        # scaling alternate energies by 31 breaks monotonicity, and the
        # command must report the failed verdict with exit 6
        from nlsground.sweep import _verdicts, sweep

        def perturbed_sweep(*args, **kw):
            result = sweep(*args, **kw)
            bump = np.ones(result.energies.size)
            bump[1::2] += 30.0
            result.energies = result.energies * bump
            ok = ~np.isnan(result.energies)
            result.verdicts = _verdicts(result.masses[ok], result.energies[ok],
                                        result.multipliers[ok], result.converged[ok])
            return result

        monkeypatch.setattr(cli, "sweep", perturbed_sweep)
        code = main(self.ARGS + ["--out", str(tmp_path)])
        assert code == EXIT_VERDICT_FAIL
        # the perturbation is no longer a command-line flag
        assert main(self.ARGS + ["--out", str(tmp_path),
                                 "--test-perturb-energies", "30.0"]) == EXIT_USAGE


class TestOracleCommand:
    def test_bubble_table(self, tmp_path):
        code = main(["oracle", "--case", "bubble", "--dim", "5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        table = json.loads((tmp_path / "oracle.json").read_text())
        assert table["case"] == "bubble"
        assert table["values"]["grad_norm_sq"] == pytest.approx(844.36, rel=1e-4)
        assert table["values"]["action"] == pytest.approx(844.36 / 5.0, rel=1e-4)

    def test_soliton_table(self, tmp_path):
        code = main(["oracle", "--case", "soliton", "--p", "8", "--mu", "1.0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        table = json.loads((tmp_path / "oracle.json").read_text())
        assert table["values"]["mass"] == pytest.approx(2.2258253, rel=1e-6)

    def test_gn_table(self, tmp_path):
        code = main(["oracle", "--case", "gn", "--dim", "3", "--p", "3",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        table = json.loads((tmp_path / "oracle.json").read_text())
        # the gaussian's quotient in closed form
        assert table["values"]["best_constant_estimate"] == 0.17018930415325048

    @pytest.mark.parametrize("argv, given", [
        (["--case", "bubble", "--dim", "1000"], "--dim 1000"),
        (["--case", "gn", "--dim", "1", "--p", "1e308"], "--dim 1 --p 1e+308"),
        (["--case", "gn", "--dim", "400", "--p", "2.001"], "--dim 400 --p 2.001"),
    ])
    def test_overflow_is_usage(self, tmp_path, capsys, argv, given):
        assert main(["oracle", *argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: oracle --case {argv[1]}: a value computed from {given} overflows a double\n")
        assert not (tmp_path / "oracle.json").exists()


    def test_non_finite_table_is_usage(self, tmp_path, capsys):
        assert main(["oracle", "--case", "bubble", "--dim", "5", "--eps", "1e308",
                     "--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: oracle --case bubble: values.mass, error_bounds.mass computed from "
            "--dim 5 --eps 1e+308 not finite in a double\n")
        assert not (tmp_path / "oracle.json").exists()

    @pytest.mark.parametrize("p, mu, mass, grad", [
        # k = 2/(p-2) -> 0: w -> sech(sqrt(mu) x / k)^k, mass 1/sqrt(mu),
        # ||w'||^2 sqrt(mu)
        (1e308, 5.0, 5.0**-0.5, 5.0**0.5),
        # mass mu^{-1/10} m_1, ||w'||^2 mu^{9/10} T_1
        (7.0, 1e300, 2.4290032218173e-30, 1.3494462343429e270),
    ])
    def test_extreme_soliton_table_is_finite(self, tmp_path, p, mu, mass, grad):
        # A^p and B overflow a double on their own; their logs do not
        assert main(["oracle", "--case", "soliton", "--p", str(p), "--mu", str(mu),
                     "--out", str(tmp_path)]) == EXIT_OK
        table = _strict_json(tmp_path / "oracle.json")
        assert table["values"]["mass"] == pytest.approx(mass, rel=1e-12)
        assert table["values"]["grad_norm_sq"] == pytest.approx(grad, rel=1e-12)
        assert abs(table["values"]["pohozaev"]) <= table["error_bounds"]["pohozaev"]


def test_import_path_loads_only_scipys_flapack():
    # LAPACK's tridiagonal solvers come from scipy's compiled _flapack,
    # loaded by file path: neither scipy nor scipy.linalg is imported, and
    # the subpackages that share scipy.special are never loaded
    code = ("import sys, nlsground.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.split() == ["scipy.linalg._flapack"]
