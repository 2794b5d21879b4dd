import importlib
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from nlsground import (
    ConfigurationError,
    NonconformanceError,
    SolveOptions,
    SolveReport,
    builtin,
    initial_profile,
    make_grid,
    mountain_pass_floor,
    sweep,
)
from nlsground import cli
from nlsground.expressions import compile_expression
from nlsground.nonlinearity import from_callables
from nlsground.optimizer import multistart_minimize
from nlsground.oracles import Soliton1D, critical_grad_norm_sq
from nlsground.sweep import SweepResult, _verdicts


def fake_result(masses, energies, multipliers=None, converged=None):
    masses = np.asarray(masses, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if multipliers is None:
        multipliers = np.ones_like(energies)
    if converged is None:
        converged = np.ones(masses.size, dtype=bool)
    return SweepResult(
        masses=masses, energies=energies,
        multipliers=np.asarray(multipliers, dtype=float),
        converged=np.asarray(converged, dtype=bool),
        verdicts=_verdicts(masses, energies, multipliers, converged),
    )


class TestVerdictLogic:
    def test_oracle_curve_passes(self):
        m = np.geomspace(0.01, 10.0, 13)
        res = fake_result(m, 3.0 * m**-5)
        assert res.verdicts["nonincreasing"]["verdict"]
        assert res.verdicts["strictly_decreasing"]["verdict"]
        assert res.verdicts["small_mass_blowup"]["verdict"]
        assert res.verdicts["all_positive"]

    def test_constant_energies_fail_blowup(self):
        m = np.geomspace(0.01, 10.0, 9)
        res = fake_result(m, np.full(9, 2.0))
        assert res.verdicts["small_mass_blowup"]["slope"] == pytest.approx(0.0, abs=1e-12)
        assert not res.verdicts["small_mass_blowup"]["verdict"]
        assert res.verdicts["nonincreasing"]["verdict"]
        assert not res.verdicts["strictly_decreasing"]["verdict"]

    def test_perturbed_energies_fail_monotonicity(self):
        m = np.geomspace(0.1, 10.0, 9)
        e = 3.0 * m**-2.0
        e[4] = e[3] * 1.5  # bump one point above its left neighbor
        res = fake_result(m, e)
        assert not res.verdicts["nonincreasing"]["verdict"]

    def test_negative_multiplier_detected(self):
        m = np.geomspace(0.1, 10.0, 5)
        res = fake_result(m, m**-1.0, multipliers=[1.0, 1.0, -0.5, 1.0, 1.0])
        assert not res.verdicts["positive_multipliers"]


class TestSmallMassDiagnostic:
    def test_oracle_scaling_exponent(self):
        # E_m of the p = 8 line soliton scales like m^{-5}
        m = np.geomspace(0.05, 5.0, 11)
        e = [Soliton1D.energy_of_mass(8.0, x) for x in m]
        slope = fake_result(m, e).verdicts["small_mass_blowup"]["slope"]
        assert slope == pytest.approx(-5.0, rel=1e-6)
        assert abs(slope - Soliton1D.energy_mass_slope(8.0)) < 0.05 * 5.0


class TestMountainPassFloor:
    def test_critical_comparison_value(self):
        g = make_grid(5, 50.0, 256)
        nl = builtin("critical_piecewise", 5)
        level, _ = critical_grad_norm_sq(5)
        assert mountain_pass_floor(g, nl) == pytest.approx(level / 5.0, rel=1e-10)

    def test_beta_scaling(self):
        g = make_grid(3, 50.0, 256)
        base = mountain_pass_floor(g, builtin("f6prime_example", 3, beta=1.0))
        quadrupled = mountain_pass_floor(g, builtin("f6prime_example", 3, beta=4.0))
        assert quadrupled == pytest.approx(base / 2.0, rel=1e-10)
        assert base > 0

    def test_rejects_low_dimension(self):
        g = make_grid(2, 50.0, 256)
        nl = builtin("log_supercritical", 2)
        with pytest.raises(NonconformanceError):
            mountain_pass_floor(g, nl)

    def test_rejects_diverging_f6(self):
        # pure power p = 4 < 2* = 6 in N = 3: f6' fails (F(t)/|t|^{2*}
        # diverges at 0), so there is no critical comparison floor
        with pytest.raises(NonconformanceError):
            mountain_pass_floor(
                make_grid(3, 50.0, 256), builtin("pure_power", 3, p=4.0)
            )


@pytest.fixture(scope="module")
def line_sweep():
    # one decade of masses whose solitons all fit the box: mu spans
    # 0.17 .. 1.7e5, widths 2.5 down to 2.5e-3 on the stretched core
    nl = builtin("pure_power", 1, p=8.0)
    grid = make_grid(1, 60.0, 3001, stretch=150.0)
    masses = list(np.geomspace(0.3, 3.0, 6))
    opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=900)
    return sweep(grid, nl, masses, opts), masses


class TestSweepSolver:
    def test_monotone_and_positive(self, line_sweep):
        res, _ = line_sweep
        assert res.verdicts["all_positive"]
        assert res.verdicts["nonincreasing"]["verdict"]
        assert res.verdicts["strictly_decreasing"]["verdict"]
        assert res.verdicts["positive_multipliers"]

    def test_energy_slope_tracks_oracle(self, line_sweep):
        res, masses = line_sweep
        slope = np.polyfit(np.log(res.masses), np.log(res.energies), 1)[0]
        assert abs(slope - (-5.0)) < 0.25  # within 5% of the oracle exponent

    def test_converged_points_match_oracle(self, line_sweep):
        res, _ = line_sweep
        assert any(res.converged)
        for m, e, c in zip(res.masses, res.energies, res.converged):
            if c:
                assert e == pytest.approx(
                    Soliton1D.energy_of_mass(8.0, float(m)), rel=1e-3
                )

    def test_warm_cold_consistency(self):
        # the chain's energies agree with a cold multistart at each mass
        nl = builtin("pure_power", 1, p=8.0)
        grid = make_grid(1, 40.0, 2001, stretch=60.0)
        masses = [0.8, 1.0, 1.3]
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=900)
        warm = sweep(grid, nl, masses, opts)
        for m, e in zip(masses, warm.energies):
            cold, _ = multistart_minimize(grid, nl, replace(opts, mass=m), restarts=3)
            assert e == pytest.approx(cold.energy, rel=1e-3)

    def test_warm_points_start_in_the_descent_class(self):
        # each converged point hands on its descent iterate; warm starts
        # from the materialized profiles took 14 + 43 + 110 iterations here
        nl = builtin("log_supercritical", 2)
        grid = make_grid(2, 400.0, 2001, stretch=150.0)
        opts = SolveOptions(mass=1.0, grad_tol=1e-8, max_iters=800)
        res = sweep(grid, nl, [4.0, 8.0, 16.0, 32.0], opts)
        assert list(res.converged) == [True, True, True, False]
        assert res.warm_starts == [None, "iterate", "iterate", "iterate"]
        assert sum(r.iterations for r in res.reports[1:]) <= 30

    def test_rejects_bad_mass_grids(self):
        nl = builtin("pure_power", 1, p=8.0)
        grid = make_grid(1, 20.0, 301)
        opts = SolveOptions(mass=1.0)
        with pytest.raises(ValueError):
            sweep(grid, nl, [2.0, 1.0], opts)
        with pytest.raises(ValueError):
            sweep(grid, nl, [1.0], opts)
        with pytest.raises(ValueError):
            sweep(grid, nl, [-1.0, 2.0], opts)


class TestAscendingChain:
    """One descent per mass point: no cold replica runs beside the chain,
    and no second chain revisits the non-converged points."""

    MASSES = [0.5, 1.0, 2.0, 4.0]

    @staticmethod
    def fake_report(grid, m, energy=None, converged=None):
        # by default converged only at masses >= 2; the descent iterate
        # differs from the reported profile, so a warm start shows which
        # one it took
        return SolveReport(
            profile=initial_profile(grid, m),
            energy=1.0 / m if energy is None else energy, multiplier=1.0,
            pde_residual=0.0, pohozaev_residual=0.0, boundary_tail=0.0,
            iterations=1, trace=[],
            converged=m >= 2.0 if converged is None else converged,
            termination="gradient", endpoint="polished",
            iterate=initial_profile(grid, m, width=0.5),
            mass=m)

    @staticmethod
    def started_from(start, profile, m):
        """start is profile put on S_m, as the sweep hands it to minimize."""
        expected = initial_profile(profile.grid, m, custom=profile)
        return np.array_equal(start.values, expected.values)

    def run_chain(self, monkeypatch, solve=None):
        """Sweep with a faked minimize; solve(grid, m), if given, returns
        its report (or raises) in place of fake_report.  Returns the
        result and minimize's calls, (opts, start) each."""
        grid = make_grid(1, 20.0, 301)
        calls = []
        solve = solve or self.fake_report

        def fake_minimize(grid, nl, opts, start):
            calls.append((opts, start))
            return solve(grid, opts.mass)

        monkeypatch.setattr(importlib.import_module("nlsground.sweep"), "minimize",
                            fake_minimize)
        res = sweep(grid, builtin("pure_power", 1, p=8.0), self.MASSES,
                    SolveOptions(mass=1.0))
        return res, calls

    def test_minimize_calls_per_point(self, monkeypatch):
        # one minimize call per point, the first included, and no
        # multistart anywhere
        optimizer = importlib.import_module("nlsground.optimizer")
        multistarts = []
        monkeypatch.setattr(optimizer, "multistart_minimize",
                            lambda *a, **k: multistarts.append(a))
        masses = self.MASSES
        res, calls = self.run_chain(monkeypatch)
        assert [o.mass for o, _ in calls] == masses
        assert multistarts == []
        assert not hasattr(importlib.import_module("nlsground.sweep"),
                           "multistart_minimize")
        assert list(res.converged) == [False, False, True, True]
        assert list(res.energies) == [1.0 / m for m in masses]

    def test_warm_start_rule(self, monkeypatch):
        # the first point takes minimize's default start; after it a
        # converged point hands on its descent iterate, an unconverged one
        # its reported profile
        res, calls = self.run_chain(monkeypatch)
        assert calls[0][1] is None
        for prev, (opts, start) in zip(res.reports, calls[1:]):
            expected = prev.iterate if prev.converged else prev.profile
            assert self.started_from(start, expected, opts.mass)
        assert res.warm_starts == [None, "profile", "profile", "iterate"]
        payload = res.as_dict()
        assert "chains" not in payload
        assert payload["warm_starts"] == res.warm_starts

    def test_failed_point(self, monkeypatch):
        def solve(grid, m):
            if m == 2.0:
                raise RuntimeError("descent blew up")
            return self.fake_report(grid, m)

        res, calls = self.run_chain(monkeypatch, solve)
        assert res.failures == [{"mass": 2.0, "error": "descent blew up"}]
        assert res.reports[2] is None
        assert math.isnan(res.energies[2]) and math.isnan(res.multipliers[2])
        assert not res.converged[2]
        # the failed descent was given the unconverged m = 1 profile
        assert res.warm_starts == [None, "profile", "profile", "profile"]
        # the point after it warm-starts from the last good report, m = 1's
        assert [o.mass for o, _ in calls] == self.MASSES
        assert self.started_from(calls[3][1], res.reports[1].profile, 4.0)

    def test_failed_cold_first_point(self, monkeypatch):
        def solve(grid, m):
            if m == 0.5:
                raise ValueError("no start")
            return self.fake_report(grid, m)

        res, calls = self.run_chain(monkeypatch, solve)
        assert res.failures == [{"mass": 0.5, "error": "no start"}]
        assert res.warm_starts == [None, None, "profile", "iterate"]
        # with no good report yet, the next point also starts cold
        assert [start is None for _, start in calls] == [True, True, False, False]
        assert [o.mass for o, _ in calls] == self.MASSES

    def test_more_than_a_quarter_failed_raises(self, monkeypatch):
        def solve(grid, m):
            if m >= 2.0:
                raise RuntimeError("stalled")
            return self.fake_report(grid, m)

        message = "^sweep failed at 2 of 4 points: m=2.0: stalled; m=4.0: stalled$"
        with pytest.raises(NonconformanceError, match=message):
            self.run_chain(monkeypatch, solve)

    def test_overflow_at_one_mass_is_a_failed_point(self, monkeypatch):
        # a descent whose values overflow raises ConfigurationError from
        # GridFunction; that is a fault of its point, judged by the quarter
        # rule like any other
        def solve(grid, m):
            if m == 2.0:
                raise ConfigurationError("profile values must be finite")
            return self.fake_report(grid, m)

        res, calls = self.run_chain(monkeypatch, solve)
        assert res.failures == [{"mass": 2.0, "error": "profile values must be finite"}]
        assert res.reports[2] is None
        assert [o.mass for o, _ in calls] == self.MASSES

    def test_vanishing_start_is_refused_before_any_descent(self, monkeypatch):
        # exp(-r^2) underflows at every node past the origin of this grid
        # at every mass: a fault of the grid, raised once
        calls = []
        monkeypatch.setattr(importlib.import_module("nlsground.sweep"), "minimize",
                            lambda *a: calls.append(a))
        with pytest.raises(ConfigurationError, match="the start vanishes"):
            sweep(make_grid(1, 1e30, 401), builtin("pure_power", 1, p=8.0),
                  self.MASSES, SolveOptions(mass=1.0))
        assert calls == []


class TestHypothesisGate:
    """The command line checks f once per solve and once per sweep, not
    once per descent; the library layers check nothing."""

    @staticmethod
    def count_checks(monkeypatch):
        # every module of the package that binds the checker
        calls = []
        for module in [mod for name, mod in sys.modules.items()
                       if name.split(".")[0] == "nlsground" and hasattr(mod, "check_conditions")]:
            real = module.check_conditions

            def counted(nl, N, real=real):
                calls.append(nl.name)
                return real(nl, N)

            monkeypatch.setattr(module, "check_conditions", counted)
        return calls

    PROBLEM = ["--builtin", "pure_power", "--param", "p=8", "--dim", "1"]
    GRID = ["--radius", "20", "--points", "301", "--max-iters", "10"]

    def test_one_check_per_sweep(self, monkeypatch, tmp_path):
        calls = self.count_checks(monkeypatch)
        code = cli.main(["sweep", *self.PROBLEM, *self.GRID, "--masses", "1,1.5,2",
                         "--out", str(tmp_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_VERDICT_FAIL)
        assert calls == ["pure_power"]

    def test_one_check_per_multistart(self, monkeypatch, tmp_path):
        calls = self.count_checks(monkeypatch)
        code = cli.main(["solve", *self.PROBLEM, *self.GRID, "--mass", "1",
                         "--restarts", "3", "--out", str(tmp_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED)
        assert len(json.loads((tmp_path / "report.json").read_text())["replicas"]) == 3
        assert calls == ["pure_power"]

    def test_library_makes_no_check(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        grid = make_grid(1, 20.0, 301)
        p8 = builtin("pure_power", 1, p=8.0)
        opts = SolveOptions(mass=1.0, max_iters=10)
        sweep(grid, p8, [1.0, 1.5], opts)
        multistart_minimize(grid, p8, opts, restarts=2)
        assert calls == []

    def test_forced_sweep_makes_no_check(self, monkeypatch, tmp_path):
        calls = self.count_checks(monkeypatch)
        code = cli.main(["sweep", "--builtin", "pure_power", "--param", "p=8",
                         "--dim", "1", "--masses", "1,1.5", "--radius", "20",
                         "--points", "301", "--max-iters", "10", "--force",
                         "--out", str(tmp_path)])
        assert code in (cli.EXIT_OK, cli.EXIT_VERDICT_FAIL)
        assert calls == []

    FLOOR = ["sweep", "--builtin", "pure_power", "--param", "p=4.5", "--dim", "3",
             "--masses", "1,2", "--points", "801", "--radius", "30", "--max-iters", "200"]

    def test_one_check_per_sweep_with_floor(self, monkeypatch, tmp_path):
        # at N >= 3 a spec that does not claim f6' needs its f6' verdict
        # for the mountain-pass floor: the floor reads the gate's report,
        # and under --force, where the gate checks nothing, makes its own
        calls = self.count_checks(monkeypatch)
        verdicts = []
        for extra in ([], ["--force"]):
            out = tmp_path / ("forced" if extra else "gated")
            code = cli.main([*self.FLOOR, *extra, "--out", str(out)])
            assert code in (cli.EXIT_OK, cli.EXIT_VERDICT_FAIL)
            assert calls == ["pure_power"]
            calls.clear()
            verdicts.append((out / "verdicts.json").read_bytes())
        assert b"mountain_pass_floor" not in verdicts[0]
        assert verdicts[0] == verdicts[1]

    def test_forced_solve_makes_no_check(self, monkeypatch, tmp_path):
        # the config key reads as --force does, in any case
        calls = self.count_checks(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solve.force = TRUE\n")
        code = cli.main(["solve", *self.PROBLEM, *self.GRID, "--mass", "1",
                         "--restarts", "2", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED)
        assert calls == []

    CUBIC = ["--dim", "1", "--f-expr", "abs(t)^2 * t", "--F-expr", "abs(t)^4 / 4",
             "--radius", "20", "--points", "301"]

    def assert_stops_at_the_gate(self, calls, code, capsys, out):
        # the mass-critical cubic in 1D fails f1, f3 and f4: the command
        # stops before its first descent, with one line, instead of
        # recording a failure per point or per replica
        assert code == cli.EXIT_NONCONFORMANCE
        assert capsys.readouterr().err == ("nonconformance: nonlinearity 'user' fails "
                                           "f1, f3, f4; pass --force to override\n")
        assert calls == ["user"]
        assert list(out.iterdir()) == []

    def test_nonconforming_sweep_raises_once(self, monkeypatch, tmp_path, capsys):
        calls = self.count_checks(monkeypatch)
        code = cli.main(["sweep", *self.CUBIC, "--masses", "1,2", "--out", str(tmp_path)])
        self.assert_stops_at_the_gate(calls, code, capsys, tmp_path)

    def test_nonconforming_solve_raises_once(self, monkeypatch, tmp_path, capsys):
        calls = self.count_checks(monkeypatch)
        code = cli.main(["solve", *self.CUBIC, "--mass", "1", "--restarts", "3",
                         "--out", str(tmp_path)])
        self.assert_stops_at_the_gate(calls, code, capsys, tmp_path)

    def test_gate_keeps_no_state(self):
        # two specs with the same name and params but different f: the
        # second gate call must check its own spec, not reuse the first
        # verdict
        def spec(power):
            def f(t):
                t = np.asarray(t, dtype=float)
                return np.abs(t) ** power * t

            def F(t):
                t = np.asarray(t, dtype=float)
                return np.abs(t) ** (power + 2.0) / (power + 2.0)

            return from_callables("gate_probe", f, F)

        cli._gate({}, spec(6.0), 1)
        with pytest.raises(NonconformanceError, match="'gate_probe' fails"):
            cli._gate({}, spec(1.5), 1)


class TestSerialization:
    def test_csv_and_json(self, tmp_path):
        res = fake_result(np.geomspace(0.1, 10, 5), np.geomspace(10, 0.1, 5))
        path = tmp_path / "sweep.csv"
        res.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,E,mu,converged"
        assert len(lines) == 6
        payload = res.as_dict()
        assert set(payload) >= {"masses", "energies", "multipliers",
                                "converged", "verdicts"}
        assert len(res.sparkline()) == 5
