import json
import os

import numpy as np
import pytest

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
from nlsground.optimizer import DiagnosticError


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
        for bad in ("abs(t", "t +", "2 ** 3", "foo(t)", "piecewise(t, 1, 2)"):
            with pytest.raises(ExpressionError):
                compile_expression(bad)


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

    def test_malformed_expression_usage_error(self, tmp_path):
        code = main(["check", "--dim", "1", "--f-expr", "abs(t", "--F-expr", "t",
                     "--out", str(tmp_path)])
        assert code == EXIT_USAGE

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

    @pytest.mark.parametrize("key", ["threads", "solve.absify_every", "solve.max_iter"])
    def test_unknown_config_key_is_usage(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem.dim = 3\nproblem.builtin = log_supercritical\n{key} = 2\n")
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "out").exists()


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
        if report["converged"]:
            assert code == EXIT_OK
        else:
            assert code == EXIT_NOT_CONVERGED
        assert report["energy"] == pytest.approx(12.16, rel=1e-2)

    def test_determinism_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(self.ARGS + ["--out", str(a)])
        main(self.ARGS + ["--out", str(b)])
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()

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

    def test_verdicts_and_artifacts(self, tmp_path):
        code = main(self.ARGS + ["--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "m,E,mu,converged"
        assert len(rows) == 5
        verdicts = json.loads((tmp_path / "verdicts.json").read_text())
        assert verdicts["verdicts"]["nonincreasing"]["verdict"]

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
        code = main(["oracle", "--case", "gn", "--dim", "1", "--p", "6",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        table = json.loads((tmp_path / "oracle.json").read_text())
        assert table["values"]["best_constant_estimate"] > 0
